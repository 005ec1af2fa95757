//! Cross-crate property tests: the mapping/accelerator invariants from
//! DESIGN.md, driven by randomized layers, workloads, and networks.

use eb_bitnn::{
    ops, BinLinear, BitMatrix, BitVec, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use eb_core::{compile, Design, Machine};
use eb_mapping::{plan_custbinary, plan_tacitmap, plan_wdm_tacitmap, TacitMapped, Workload};
use eb_xbar::XbarConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> impl Strategy<Value = Workload> {
    (1usize..1200, 1usize..800, 1u64..4000).prop_map(|(m, n, v)| Workload::binary(m, n, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CustBinaryMap never takes fewer steps than TacitMap, and WDM never
    /// takes more steps than plain TacitMap (DESIGN.md invariants).
    #[test]
    fn step_ordering_invariant(w in workload(), k in 2usize..32) {
        let xbar = XbarConfig::new(256, 256);
        let tacit = plan_tacitmap(&w, &xbar, 128);
        let cust = plan_custbinary(&w, &xbar, 128);
        let wdm = plan_wdm_tacitmap(&w, &xbar, 128, k);
        prop_assert!(cust.steps >= tacit.steps, "cust {} < tacit {}", cust.steps, tacit.steps);
        prop_assert!(wdm.steps <= tacit.steps, "wdm {} > tacit {}", wdm.steps, tacit.steps);
        // WDM gain is bounded by K.
        prop_assert!(tacit.steps.div_ceil(k as u64) <= wdm.steps);
    }

    /// Footprints are monotone in the layer dimensions and replication
    /// never exceeds the budget.
    #[test]
    fn footprint_invariants(w in workload()) {
        let xbar = XbarConfig::new(256, 256);
        let budget = 128usize;
        for plan in [
            plan_tacitmap(&w, &xbar, budget),
            plan_custbinary(&w, &xbar, budget),
        ] {
            prop_assert!(plan.footprint >= 1);
            prop_assert!(plan.replicas >= 1);
            if plan.footprint <= budget {
                prop_assert!(plan.footprint * plan.replicas <= budget.max(plan.footprint));
            }
        }
        let bigger = Workload::binary(w.m + 256, w.n + 256, w.vectors);
        prop_assert!(
            plan_tacitmap(&bigger, &xbar, budget).footprint
                >= plan_tacitmap(&w, &xbar, budget).footprint
        );
    }

    /// The functional TacitMap mapper is exact for arbitrary layer shapes
    /// that fit a handful of small crossbars.
    #[test]
    fn tacitmap_functional_exactness(
        m in 1usize..70,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let weights = BitMatrix::from_fn(n, m, |r, c| {
            (seed.wrapping_mul((r * m + c) as u64 + 7)) % 3 == 0
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = XbarConfig::new(32, 16);
        let mut mapped = TacitMapped::program(&weights, &cfg, &mut rng).expect("fits");
        let x = BitVec::from_bools(
            &(0..m).map(|i| (seed.wrapping_add(i as u64 * 31)) % 4 < 2).collect::<Vec<_>>(),
        );
        let got = mapped.execute(&x, &mut rng).expect("execute");
        prop_assert_eq!(got, ops::binary_linear_popcounts(&x, &weights));
    }

    /// Randomized small MLPs simulate bit-exactly on both designs.
    #[test]
    fn random_networks_simulate_exactly(
        inputs in 4usize..24,
        h1 in 2usize..16,
        h2 in 2usize..12,
        classes in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Bnn::new(
            "prop",
            Shape::Flat(inputs),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", inputs, h1, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", h1, h2, &mut rng)),
                Layer::Output(OutputLinear::random("out", h2, classes, &mut rng)),
            ],
        )
        .expect("valid topology");
        let x = Tensor::from_fn(&[inputs], |i| {
            ((i as f32 + (seed % 17) as f32) * 0.71).sin()
        });
        let want = net.forward(&x).expect("reference");
        for design in [Design::tacitmap_epcm(), Design::einstein_barrier()] {
            let compiled = compile(&design, &net, &mut rng).expect("compile");
            let got = Machine::new(compiled, &design, &mut rng)
                .run(&x)
                .expect("simulate");
            prop_assert_eq!(&got, &want);
        }
    }

    /// Latency and energy are monotone in batch size for every design.
    #[test]
    fn perf_monotone_in_batch(batch in 1u64..64) {
        use eb_core::evaluate_model;
        use eb_bitnn::BenchModel;
        for design in [
            Design::baseline_epcm(),
            Design::tacitmap_epcm(),
            Design::einstein_barrier(),
        ] {
            let small = evaluate_model(&design, BenchModel::MlpS, batch);
            let large = evaluate_model(&design, BenchModel::MlpS, batch + 64);
            prop_assert!(large.total_latency_ns() >= small.total_latency_ns());
            prop_assert!(large.total_energy_j() > small.total_energy_j());
        }
    }
}
