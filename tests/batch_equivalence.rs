//! Cross-crate equivalence of the batched hot paths added by the
//! bit-parallel inference engine: the batched analog VMM against repeated
//! single activations under a fixed RNG seed, the batched TacitMap
//! execution against the software kernel, and the rayon batch inference
//! against the sequential reference.

use eb_bitnn::{ops, BitMatrix, BitVec, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
use eb_bitnn::{BinLinear, Dataset, DatasetKind, MlpTrainer, TrainConfig};
use eb_mapping::TacitMapped;
use eb_xbar::{Adc, CrossbarArray, DeviceParams, VmmEngine, XbarConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(rows: usize, cols: usize, params: DeviceParams, seed: u64) -> VmmEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = BitMatrix::from_fn(rows, cols, |r, c| {
        seed.wrapping_mul((r * cols + c) as u64 + 23)
            .is_multiple_of(3)
    });
    let mut array = CrossbarArray::new(rows, cols, params);
    array.program_matrix(&bits, &mut rng).expect("fits");
    VmmEngine::with_defaults(array)
}

fn drives(n: usize, rows: usize, seed: u64) -> Vec<BitVec> {
    (0..n)
        .map(|k| {
            BitVec::from_bools(
                &(0..rows)
                    .map(|i| seed.wrapping_add((i * (k + 3)) as u64) % 4 < 2)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `vmm_counts_batch` equals repeated `vmm_counts` under a fixed RNG
    /// seed on ideal (noiseless) devices, for arbitrary array shapes.
    #[test]
    fn vmm_batch_equals_singles_ideal(
        rows in 1usize..96,
        cols in 1usize..48,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let engine = engine(rows, cols, DeviceParams::ideal(), seed);
        let inputs = drives(n, rows, seed);
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let batch = engine.vmm_counts_batch(&inputs, &mut r1).expect("batch");
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xBA7C);
        for (k, v) in inputs.iter().enumerate() {
            prop_assert_eq!(&batch[k], &engine.vmm_counts(v, &mut r2).expect("single"));
        }
    }

    /// With noisy devices and a noisy ADC, the batch path must reproduce
    /// the *exact* RNG draw sequence of repeated single calls: same seed,
    /// same noisy counts.
    #[test]
    fn vmm_batch_equals_singles_noisy_same_seed(
        rows in 1usize..64,
        cols in 1usize..24,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut engine = engine(rows, cols, DeviceParams::noisy(), seed);
        let i_unit = engine.adc().i_unit;
        engine.set_adc(Adc::new(9, i_unit).with_noise(0.7));
        let inputs = drives(n, rows, seed);
        let mut r1 = StdRng::seed_from_u64(seed ^ 0x5EED);
        let batch = engine.vmm_counts_batch(&inputs, &mut r1).expect("batch");
        let mut r2 = StdRng::seed_from_u64(seed ^ 0x5EED);
        let singles: Vec<Vec<u32>> = inputs
            .iter()
            .map(|v| engine.vmm_counts(v, &mut r2).expect("single"))
            .collect();
        prop_assert_eq!(batch, singles);
    }

    /// Batched TacitMap execution reproduces the software XNOR+popcount
    /// kernel for layers chunked across multiple crossbars.
    #[test]
    fn tacitmap_batch_is_exact(
        m in 1usize..70,
        nvec in 1usize..40,
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let weights = BitMatrix::from_fn(nvec, m, |r, c| {
            seed.wrapping_mul((r * m + c) as u64 + 7) % 3 == 0
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = XbarConfig::new(32, 16);
        let mut mapped = TacitMapped::program(&weights, &cfg, &mut rng).expect("fits");
        let inputs: Vec<BitVec> = (0..batch)
            .map(|k| {
                BitVec::from_bools(
                    &(0..m)
                        .map(|i| seed.wrapping_add((i * 31 + k * 7) as u64) % 4 < 2)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let complements: Vec<BitVec> = inputs.iter().map(BitVec::complement).collect();
        let pairs: Vec<(&BitVec, &BitVec)> = inputs.iter().zip(&complements).collect();
        let got = mapped.execute_ref_pairs(&pairs, &mut rng).expect("batch");
        for (k, input) in inputs.iter().enumerate() {
            prop_assert_eq!(&got[k], &ops::binary_linear_popcounts(input, &weights));
        }
    }

    /// The rayon batch forward equals the sequential forward on random
    /// MLPs.
    #[test]
    fn forward_batch_equals_sequential(
        inputs_w in 4usize..20,
        h1 in 2usize..12,
        classes in 2usize..6,
        batch in 1usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Bnn::new(
            "prop-batch",
            Shape::Flat(inputs_w),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", inputs_w, h1, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", h1, h1, &mut rng)),
                Layer::Output(OutputLinear::random("out", h1, classes, &mut rng)),
            ],
        )
        .expect("valid");
        let xs: Vec<Tensor> = (0..batch)
            .map(|k| {
                Tensor::from_fn(&[inputs_w], |i| ((i + k) as f32 * 0.43 + seed as f32 % 7.0).sin())
            })
            .collect();
        let got = net.forward_batch(&xs).expect("batch");
        for (x, g) in xs.iter().zip(&got) {
            prop_assert_eq!(g, &net.forward(x).expect("sequential"));
        }
    }
}

#[test]
fn trained_network_batch_accuracy_matches_sequential() {
    let data = Dataset::generate(DatasetKind::Mnist, 30, 9).flattened();
    let mut trainer = MlpTrainer::new(&[784, 16, 10], TrainConfig::default());
    trainer.fit(&data);
    let net = trainer.to_bnn("batch-acc").unwrap();
    let batch_acc = net.accuracy(&data).unwrap();
    let mut correct = 0usize;
    for (x, y) in &data {
        if net.predict(x).unwrap() == *y {
            correct += 1;
        }
    }
    assert!((batch_acc - correct as f64 / data.len() as f64).abs() < 1e-12);
}
