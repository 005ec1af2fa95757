//! The cross-backend equivalence matrix (acceptance surface of the
//! unified runtime API): a *trained* MLP and a conv net served through
//! every [`BackendKind`] in noiseless configuration must be bit-exact
//! against the [`BackendKind::Software`] golden session — plus the RNG
//! ownership contract: same seed ⇒ identical noisy outputs across two
//! fresh sessions.
//!
//! Everything here goes through the facade crate alone — no direct
//! substrate-crate imports.

use einstein_barrier::bitnn::{
    BinConv, BinLinear, Bnn, Dataset, DatasetKind, FixedConv, FixedLinear, Layer, MlpTrainer,
    OutputLinear, Shape, Tensor, TrainConfig,
};
use einstein_barrier::{BackendKind, NoiseConfig, NoiseProfile, Runtime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small trained MLP (the "trains a net" half of the acceptance
/// criterion) — trained weights exercise real thresholds, not just the
/// random majority defaults.
fn trained_mlp() -> (Bnn, Vec<Tensor>) {
    let data = Dataset::generate(DatasetKind::Mnist, 40, 13).flattened();
    let mut trainer = MlpTrainer::new(
        &[784, 24, 16, 10],
        TrainConfig {
            learning_rate: 0.05,
            epochs: 3,
            batch_size: 8,
            seed: 3,
        },
    );
    trainer.fit(&data);
    let net = trainer.to_bnn("matrix-mlp").unwrap();
    let xs = data.into_iter().take(4).map(|(x, _)| x).collect();
    (net, xs)
}

/// A LeNet-style conv net covering every analog-lowered layer kind:
/// bit-serial conv (padded), pooling, binary conv, dense binary, output.
fn conv_net() -> (Bnn, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(29);
    let net = Bnn::new(
        "matrix-cnn",
        Shape::Img(1, 10, 10),
        vec![
            Layer::FixedConv(FixedConv::random("c1", 1, 4, 3, 1, 1, &mut rng)),
            Layer::MaxPool2,
            Layer::BinConv(BinConv::random("c2", 4, 6, 3, 1, 0, &mut rng)),
            Layer::Flatten,
            Layer::BinLinear(BinLinear::random("fc", 6 * 3 * 3, 16, &mut rng)),
            Layer::Output(OutputLinear::random("out", 16, 4, &mut rng)),
        ],
    )
    .unwrap();
    let xs = (0..4)
        .map(|s| Tensor::from_fn(&[1, 10, 10], |i| ((i * 5 + s * 11) as f32 * 0.083).sin()))
        .collect();
    (net, xs)
}

#[test]
fn all_backends_bit_exact_on_trained_mlp() {
    let (net, xs) = trained_mlp();
    assert_matrix(&net, &xs);
}

#[test]
fn all_backends_bit_exact_on_conv_net() {
    let (net, xs) = conv_net();
    assert_matrix(&net, &xs);
}

/// Serves `xs` on every backend and asserts bit-exactness against the
/// software session, through both `infer` and `infer_batch`.
fn assert_matrix(net: &Bnn, xs: &[Tensor]) {
    let mut golden = Runtime::builder()
        .backend(BackendKind::Software)
        .prepare(net)
        .unwrap();
    let want = golden.infer_batch(xs).unwrap();
    for kind in BackendKind::all() {
        let mut session = Runtime::builder().backend(kind).prepare(net).unwrap();
        assert_eq!(session.backend_name(), kind.name());
        for (x, want) in xs.iter().zip(&want) {
            assert_eq!(&session.infer(x).unwrap(), want, "{kind}/infer");
        }
        let batch = session.infer_batch(xs).unwrap();
        assert_eq!(batch, want, "{kind}/infer_batch");
        let stats = session.stats();
        assert_eq!(stats.inferences, 2 * xs.len() as u64, "{kind}/stats");
        if kind != BackendKind::Software {
            assert!(stats.crossbar_steps > 0, "{kind} should count steps");
        }
    }
}

#[test]
fn same_seed_same_noisy_outputs_across_sessions() {
    // The RNG-ownership determinism contract on the noisy analog
    // substrates: a session owns its RNG, so two sessions prepared with
    // the same seed replay identical noisy serving sequences.
    let (net, xs) = trained_mlp();
    for kind in [BackendKind::Epcm, BackendKind::Photonic] {
        let run = |seed: u64| {
            let mut session = Runtime::builder()
                .backend(kind)
                .noise(NoiseConfig {
                    seed,
                    profile: NoiseProfile::Noisy,
                    ..Default::default()
                })
                .prepare(&net)
                .unwrap();
            let mut out = session.infer_batch(&xs).unwrap();
            out.extend(xs.iter().map(|x| session.infer(x).unwrap()));
            out
        };
        assert_eq!(run(21), run(21), "{kind}: same seed must replay exactly");
    }
}

#[test]
fn stats_expose_substrate_counters() {
    let (net, xs) = conv_net();
    let mut photonic = Runtime::builder()
        .backend(BackendKind::Photonic)
        .prepare(&net)
        .unwrap();
    photonic.infer_batch(&xs).unwrap();
    let p = photonic.stats();
    assert!(
        p.wdm_lanes > p.crossbar_steps,
        "WDM packs multiple lanes per step: {} lanes / {} steps",
        p.wdm_lanes,
        p.crossbar_steps
    );

    let mut sim = Runtime::builder()
        .backend(BackendKind::Simulator)
        .prepare(&net)
        .unwrap();
    sim.infer(&xs[0]).unwrap();
    let s = sim.stats();
    assert!(s.latency_ns > 0.0 && s.energy_j > 0.0);
}

/// A small random MLP whose bit-serial first layer spans two 128-row
/// chunks, so a noisy photonic read exercises partial crossbars, every
/// WDM lane count up to `K`, and the receiver's noise draws.
fn pinned_mlp() -> (Bnn, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(41);
    let net = Bnn::new(
        "pinned-mlp",
        Shape::Flat(200),
        vec![
            Layer::FixedLinear(FixedLinear::random("fc1", 200, 48, &mut rng)),
            Layer::BinLinear(BinLinear::random("fc2", 48, 24, &mut rng)),
            Layer::Output(OutputLinear::random("out", 24, 10, &mut rng)),
        ],
    )
    .unwrap();
    let xs = (0..3)
        .map(|s| Tensor::from_fn(&[200], |i| ((i * 7 + s * 13) as f32 * 0.191).sin()))
        .collect();
    (net, xs)
}

#[test]
fn noisy_photonic_stream_is_pinned() {
    // The photonic read kernel must replay a noisy stream bit for bit:
    // same counts, same RNG draws in the same order. These logits were
    // recorded from the original per-cell read loop; any reordering of
    // the power sums or of the receiver's draws moves them.
    let (net, xs) = pinned_mlp();
    let mut session = Runtime::builder()
        .backend(BackendKind::Photonic)
        .noise(NoiseConfig {
            seed: 5,
            profile: NoiseProfile::Noisy,
            ..Default::default()
        })
        .prepare(&net)
        .unwrap();
    let mut got = session.infer_batch(&xs).unwrap();
    got.extend(xs.iter().map(|x| session.infer(x).unwrap()));
    let got: Vec<Vec<u32>> = got
        .iter()
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect();
    let want: [[u32; 10]; 3] = [
        [
            1061337843, 3166782528, 3212898378, 3201871146, 1066530299, 1068977645, 1055379284,
            3220163454, 1069978943, 1075742412,
        ],
        [
            3205042236, 1059601940, 1049700496, 1065952216, 3213455037, 3211965034, 3213104916,
            1079350919, 3218885201, 1046518132,
        ],
        [
            3205800187, 1041536600, 3217294052, 3223478074, 3224901300, 1068609259, 1061674819,
            1065396152, 1029760400, 1066317918,
        ],
    ];
    // Batched then single-request serving of the same inputs.
    let want: Vec<Vec<u32>> = want.iter().chain(&want).map(|l| l.to_vec()).collect();
    assert_eq!(got, want);
}
