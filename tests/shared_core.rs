//! Acceptance tests for the shared-weight replica architecture: one
//! programmed core per pool, cheap per-replica rinds.
//!
//! Pins the four contracts the core/rind split must keep:
//!
//! 1. **Noiseless bit-exactness matrix** — a 64-replica pool on every
//!    backend still serves `Bnn::forward` bit-exactly, so sharing the
//!    programmed core changes nothing observable in the ideal profile.
//! 2. **Noisy same-seed replay** — two pools minted from the same base
//!    seed serve identical *per-replica* noise streams (replica `i`
//!    draws from `base + i`), replica 0 replays a plain session, and
//!    distinct replica indices diverge.
//! 3. **Restore symmetry** — a prepared-state snapshot read back from a
//!    `.ebm` file feeds *all* replicas: per-replica streams from the
//!    restored pool are bit-identical to a fresh in-memory pool.
//! 4. **Memory accounting** — `core_bytes` is independent of replica
//!    count (counted once), `replica_bytes` grows with it.
//!
//! The proptest at the bottom pins the parallel chunk walk inside
//! `TacitMapped` against the sequential RNG-order-defining reference,
//! in both the ideal (parallel path taken) and noisy (sequential
//! fallback) configurations, including the caller-RNG end state.

use einstein_barrier::artifact;
use einstein_barrier::bitnn::{
    BinLinear, BitMatrix, BitVec, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use einstein_barrier::mapping::TacitMapped;
use einstein_barrier::xbar::{DeviceParams, XbarConfig};
use einstein_barrier::{
    Backend, BackendKind, EpcmBackend, NoiseConfig, NoiseProfile, PhotonicBackend, Runtime,
    Session, SessionOpts, SimulatorBackend,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mlp(seed: u64) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    Bnn::new(
        "shared-core",
        Shape::Flat(18),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 18, 12, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 12, 10, &mut rng)),
            Layer::Output(OutputLinear::random("out", 10, 4, &mut rng)),
        ],
    )
    .unwrap()
}

fn xs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_fn(&[18], |i| ((i * 5 + s * 11) as f32 * 0.23).sin()))
        .collect()
}

/// A wider net whose noisy logits are seed-sensitive — the divergence
/// assertions need a topology where nearby seeds visibly perturb
/// outputs (the 18-wide net's margins swallow device noise).
fn wide_mlp(seed: u64) -> (Bnn, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Bnn::new(
        "shared-core-wide",
        Shape::Flat(48),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 48, 32, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 32, 24, &mut rng)),
            Layer::Output(OutputLinear::random("out", 24, 6, &mut rng)),
        ],
    )
    .unwrap();
    let inputs = (0..2)
        .map(|s| Tensor::from_fn(&[48], |i| ((i * 5 + s * 11) as f32 * 0.13).sin()))
        .collect();
    (net, inputs)
}

fn noisy_opts(seed: u64) -> SessionOpts {
    SessionOpts {
        noise: NoiseConfig {
            seed,
            profile: NoiseProfile::Noisy,
            ..NoiseConfig::default()
        },
    }
}

/// Drains every session's stream over `inputs` — the deterministic
/// session-level view of a pool's per-replica outputs (pool handles
/// race workers; direct sessions do not).
fn streams(sessions: &mut [Box<dyn Session>], inputs: &[Tensor]) -> Vec<Vec<Tensor>> {
    sessions
        .iter_mut()
        .map(|s| inputs.iter().map(|x| s.infer(x).unwrap()).collect())
        .collect()
}

/// Contract 1: sharing one programmed core across 64 replicas is
/// invisible in the ideal profile — every backend's pool stays
/// bit-exact against the software reference.
#[test]
fn noiseless_64_replica_pools_are_bit_exact_on_every_backend() {
    let net = mlp(31);
    let inputs = xs(6);
    let want: Vec<Tensor> = inputs.iter().map(|x| net.forward(x).unwrap()).collect();
    for kind in BackendKind::all() {
        let pool = Runtime::builder()
            .backend(kind)
            .replicas(64)
            .serve(&net)
            .unwrap();
        let got = pool.handle().infer_many(&inputs).unwrap();
        assert_eq!(got, want, "{kind}: 64-replica pool must stay bit-exact");
        let stats = pool.shutdown();
        assert_eq!(stats.per_replica.len(), 64);
        assert_eq!(stats.total().inferences, inputs.len() as u64);
    }
}

/// Contract 2: replica minting is deterministic in the base seed. Two
/// independently minted replica sets replay identical per-replica noisy
/// streams, replica 0 replays a plain session at the base seed, and
/// the per-replica streams actually diverge across indices (the rinds
/// own independent RNGs, not clones).
#[test]
fn noisy_replica_minting_replays_per_replica_and_diverges_across_indices() {
    let (net, inputs) = wide_mlp(33);
    let backends: [(&str, Box<dyn Backend>); 2] = [
        ("epcm", Box::<EpcmBackend>::default()),
        ("photonic", Box::<PhotonicBackend>::default()),
    ];
    for (name, backend) in backends {
        let opts = noisy_opts(90);
        let mut a = backend.prepare_replicas(&net, &opts, 64, None).unwrap();
        let mut b = backend.prepare_replicas(&net, &opts, 64, None).unwrap();
        let sa = streams(&mut a, &inputs);
        let sb = streams(&mut b, &inputs);
        assert_eq!(
            sa, sb,
            "{name}: same-seed pools must replay identical per-replica noisy streams"
        );

        // Replica 0 is an ordinary prepared session at the base seed.
        let mut plain = backend.prepare(&net, &opts).unwrap();
        let plain_stream: Vec<Tensor> = inputs.iter().map(|x| plain.infer(x).unwrap()).collect();
        assert_eq!(
            sa[0], plain_stream,
            "{name}: replica 0 must replay a plain session bit-for-bit"
        );

        // Independent rinds: some replica index must diverge from
        // replica 0. Only the ePCM substrate shows this at the logit
        // level — photonic receiver noise stays below the ADC
        // quantization step on nets this size, so its noisy logits
        // coincide with the ideal ones (seed-independent) by
        // construction.
        if name == "epcm" {
            assert!(
                sa.iter().skip(1).any(|s| s != &sa[0]),
                "{name}: replica noise streams must diverge across indices"
            );
        }
    }
}

/// Contract 3 (restore symmetry): one prepared-state snapshot read back
/// from a `.ebm` file feeds every replica — per-replica noisy streams
/// from the restored pool are bit-identical to a freshly programmed
/// in-memory pool at the same base seed, so file and memory deploys are
/// indistinguishable at any replica count. Replica 0 also serves the
/// stream of `Runtime::prepare_from_file`, the one-replica route through
/// the same restore seam.
#[test]
fn restored_artifact_feeds_all_replicas_identically_to_fresh_prepare() {
    let net = mlp(35);
    let inputs = xs(2);
    let dir = std::env::temp_dir().join(format!("eb-shared-core-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let backends: [(&str, BackendKind, Box<dyn Backend>); 3] = [
        ("epcm", BackendKind::Epcm, Box::<EpcmBackend>::default()),
        (
            "photonic",
            BackendKind::Photonic,
            Box::<PhotonicBackend>::default(),
        ),
        (
            "simulator",
            BackendKind::Simulator,
            Box::<SimulatorBackend>::default(),
        ),
    ];
    for (name, kind, backend) in backends {
        let opts = noisy_opts(41);
        let path = dir.join(format!("{name}.ebm"));
        let runtime = Runtime::builder()
            .backend(kind)
            .noise_profile(NoiseProfile::Noisy)
            .seed(41)
            .build();
        runtime.save_artifact(&net, &path).unwrap();
        let loaded = artifact::read_model(&path).unwrap();
        let prepared = loaded
            .prepared
            .expect("compiled and analog artifacts carry a prepared section");

        let mut fresh = backend.prepare_replicas(&net, &opts, 3, None).unwrap();
        let mut restored = backend
            .prepare_replicas(&loaded.net, &opts, 3, Some(prepared))
            .unwrap();
        let restored_streams = streams(&mut restored, &inputs);
        assert_eq!(
            streams(&mut fresh, &inputs),
            restored_streams,
            "{name}: restored replicas must serve the fresh pool's per-replica streams"
        );

        let mut from_file = [runtime.prepare_from_file(&path).unwrap()];
        assert_eq!(
            streams(&mut from_file, &inputs)[0],
            restored_streams[0],
            "{name}: replica 0 must serve the prepare_from_file stream"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Contract 4: the pool's memory split reports the shared core once —
/// `core_bytes` does not move with replica count, `replica_bytes`
/// grows with it, and spin-up time is recorded.
#[test]
fn pool_memory_accounting_counts_the_core_once() {
    let net = mlp(37);
    for kind in [
        BackendKind::Epcm,
        BackendKind::Photonic,
        BackendKind::Simulator,
    ] {
        let build = |replicas: usize| {
            Runtime::builder()
                .backend(kind)
                .replicas(replicas)
                .serve(&net)
                .unwrap()
        };
        let one = build(1).shutdown();
        let eight = build(8).shutdown();
        assert!(one.core_bytes > 0, "{kind}: core bytes must be reported");
        assert_eq!(
            one.core_bytes, eight.core_bytes,
            "{kind}: the shared core is counted once, independent of replica count"
        );
        assert!(
            eight.replica_bytes > one.replica_bytes,
            "{kind}: per-replica rind bytes must grow with replica count"
        );
        assert!(one.prepare_ns > 0, "{kind}: spin-up time must be recorded");
    }
}

/// Programs the same weights twice (identical RNG seeds → identical
/// device state) so one copy can walk chunks in parallel while the
/// other runs the sequential reference.
fn programmed_pair(weights: &BitMatrix, cfg: &XbarConfig, seed: u64) -> (TacitMapped, TacitMapped) {
    let mut r1 = StdRng::seed_from_u64(seed);
    let mut r2 = StdRng::seed_from_u64(seed);
    (
        TacitMapped::program(weights, cfg, &mut r1).unwrap(),
        TacitMapped::program(weights, cfg, &mut r2).unwrap(),
    )
}

fn raw_pairs(m: usize, batch: usize, seed: u64) -> Vec<(BitVec, BitVec)> {
    (0..batch)
        .map(|b| {
            let bools: Vec<bool> = (0..m)
                .map(|i| (i * 7 + b * 3 + seed as usize) % 5 < 2)
                .collect();
            let pos = BitVec::from_bools(&bools);
            let neg = pos.complement();
            (pos, neg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel chunk walk is bit-exact against the sequential
    /// RNG-order-defining reference and leaves the caller's RNG in the
    /// identical position, for multi-chunk layouts in both profiles:
    /// ideal devices (parallel fan-out actually taken) and noisy
    /// devices (sequential fallback preserving draw order).
    #[test]
    fn parallel_chunk_walk_matches_sequential_reference(
        seed in 0u64..512,
        n in 3usize..24,
        m in 17usize..48,
        batch in 1usize..5,
    ) {
        let weights =
            BitMatrix::from_fn(n, m, |r, c| (r * 31 + c * 17 + seed as usize).is_multiple_of(3));
        let pairs = raw_pairs(m, batch, seed);
        let refs: Vec<(&BitVec, &BitVec)> = pairs.iter().map(|(p, q)| (p, q)).collect();

        for device in [DeviceParams::ideal(), DeviceParams::noisy()] {
            let deterministic = device.read_sigma == 0.0;
            // 32 rows → 16 weight bits per chunk, so m ≥ 17 forces a
            // multi-chunk walk (footprint > 1 — the parallel path's
            // precondition alongside a deterministic periphery).
            let cfg = XbarConfig::new(32, 16).with_device(device);
            let (mut par, mut seq) = programmed_pair(&weights, &cfg, seed ^ 0xA5);
            prop_assert!(par.footprint() > 1);
            prop_assert_eq!(par.periphery_is_deterministic(), deterministic);

            let mut rng_par = StdRng::seed_from_u64(seed.wrapping_mul(3) + 1);
            let mut rng_seq = StdRng::seed_from_u64(seed.wrapping_mul(3) + 1);
            let got = par.execute_ref_pairs(&refs, &mut rng_par).unwrap();
            let want = seq.execute_ref_pairs_sequential(&refs, &mut rng_seq).unwrap();
            prop_assert_eq!(&got, &want, "counts must be bit-exact");
            prop_assert_eq!(
                rng_par.state(),
                rng_seq.state(),
                "the dispatch must leave the caller RNG in the reference position"
            );
            prop_assert_eq!(par.steps_taken(), seq.steps_taken());
            prop_assert_eq!(par.energy_j().to_bits(), seq.energy_j().to_bits());
        }
    }
}
