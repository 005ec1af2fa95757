//! Property tests of the `Session` trait contract: for arbitrary small
//! networks and batches, `infer_batch` through a `Box<dyn Session>` must
//! equal repeated `infer` calls (noiseless configurations), on every
//! backend whose batching path differs from the default loop.

use einstein_barrier::bitnn::{
    BinConv, BinLinear, Bnn, FixedConv, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use einstein_barrier::{BackendKind, FaultConfig, Priority, Request, Runtime, Session};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn prepare(kind: BackendKind, net: &Bnn, seed: u64) -> Box<dyn Session> {
    Runtime::builder()
        .backend(kind)
        .seed(seed)
        .prepare(net)
        .expect("prepare")
}

fn random_mlp(inputs: usize, hidden: usize, classes: usize, seed: u64) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    Bnn::new(
        "prop-mlp",
        Shape::Flat(inputs),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", inputs, hidden, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", hidden, hidden, &mut rng)),
            Layer::Output(OutputLinear::random("out", hidden, classes, &mut rng)),
        ],
    )
    .expect("valid mlp")
}

fn random_cnn(side: usize, ch: usize, classes: usize, seed: u64) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let out_side = side - 2; // 3×3 valid conv
    Bnn::new(
        "prop-cnn",
        Shape::Img(1, side, side),
        vec![
            Layer::FixedConv(FixedConv::random("c1", 1, ch, 3, 1, 0, &mut rng)),
            Layer::BinConv(BinConv::random("c2", ch, ch, 3, 1, 1, &mut rng)),
            Layer::Flatten,
            Layer::Output(OutputLinear::random(
                "out",
                ch * out_side * out_side,
                classes,
                &mut rng,
            )),
        ],
    )
    .expect("valid cnn")
}

fn batch_of(shape: Shape, n: usize, seed: u64) -> Vec<Tensor> {
    let dims: Vec<usize> = match shape {
        Shape::Flat(m) => vec![m],
        Shape::Img(c, h, w) => vec![c, h, w],
    };
    (0..n)
        .map(|s| {
            Tensor::from_fn(&dims, |i| {
                ((i * 7 + s * 3) as f32 * 0.091 + (seed % 13) as f32).sin()
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `infer_batch` equals per-sample `infer` through the trait object on
    /// every backend, for random MLP topologies and batch sizes.
    #[test]
    fn infer_batch_equals_infer_mlp(
        inputs in 4usize..24,
        hidden in 2usize..14,
        classes in 2usize..6,
        batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        let net = random_mlp(inputs, hidden, classes, seed);
        let xs = batch_of(net.input_shape(), batch, seed);
        for kind in BackendKind::all() {
            let mut batched = prepare(kind, &net, seed);
            let mut single = prepare(kind, &net, seed);
            let got = batched.infer_batch(&xs).expect("batch");
            for (x, want) in xs.iter().zip(&got) {
                prop_assert_eq!(&single.infer(x).expect("single"), want, "{}", kind);
            }
        }
    }

    /// Degenerate serving inputs through `Box<dyn Session>` on every
    /// backend: the empty batch is served (not an error, not a crash),
    /// a batch of one matches plain `infer`, and an arbitrary
    /// interleaving of `infer` / `infer_batch` calls keeps
    /// `stats().inferences` exact.
    #[test]
    fn degenerate_batches_and_interleavings_keep_stats_exact(
        inputs in 4usize..16,
        hidden in 2usize..10,
        classes in 2usize..5,
        // Interleaving script: true = one infer, false = a small batch.
        script in prop::collection::vec(any::<bool>(), 1..5),
        seed in any::<u64>(),
    ) {
        let net = random_mlp(inputs, hidden, classes, seed);
        let shape = net.input_shape();
        for kind in BackendKind::all() {
            let mut session = prepare(kind, &net, seed);

            // Empty batch: served, empty, and not counted.
            prop_assert!(session.infer_batch(&[]).expect("empty batch").is_empty(), "{}", kind);
            prop_assert_eq!(session.stats().inferences, 0, "{}", kind);

            // Batch of one equals plain infer (noiseless backends).
            let xs = batch_of(shape, 1, seed);
            let via_batch = session.infer_batch(&xs).expect("batch of one");
            prop_assert_eq!(via_batch.len(), 1, "{}", kind);
            let mut fresh = prepare(kind, &net, seed);
            prop_assert_eq!(&via_batch[0], &fresh.infer(&xs[0]).expect("single"), "{}", kind);
            prop_assert_eq!(session.stats().inferences, 1, "{}", kind);

            // Interleaved singles, batches, and empty batches: the
            // counter tracks exactly the number of served samples, and
            // the latency counter never runs backwards (measured
            // wall-clock on software/epcm/photonic, modeled on the
            // simulator — real numbers either way).
            let mut expected = 1u64;
            let mut last_latency = session.stats().latency_ns;
            for (step, single) in script.iter().enumerate() {
                if *single {
                    session.infer(&xs[0]).expect("interleaved infer");
                    expected += 1;
                } else {
                    let batch = batch_of(shape, (step % 3) + 2, seed ^ step as u64);
                    session.infer_batch(&batch).expect("interleaved batch");
                    expected += batch.len() as u64;
                    session.infer_batch(&[]).expect("interleaved empty");
                }
                prop_assert_eq!(session.stats().inferences, expected, "{} step {}", kind, step);
                let latency = session.stats().latency_ns;
                prop_assert!(
                    latency >= last_latency,
                    "{} step {}: latency_ns must be monotone nondecreasing ({} < {})",
                    kind, step, latency, last_latency
                );
                last_latency = latency;
            }
            prop_assert!(
                last_latency > 0.0,
                "{}: every backend must report real latency after serving", kind
            );
        }
    }

    /// The v2 ticket path through a real pool equals plain sessions for
    /// arbitrary topologies, batch shapes, and priority classes:
    /// submission order and scheduling class affect *when* a request is
    /// served, never *what* it returns.
    #[test]
    fn submitted_tickets_equal_plain_sessions_regardless_of_priority(
        inputs in 4usize..20,
        hidden in 2usize..12,
        classes in 2usize..5,
        batch in 1usize..6,
        priorities in prop::collection::vec(0u8..3, 1..6),
        seed in any::<u64>(),
    ) {
        let net = random_mlp(inputs, hidden, classes, seed);
        let xs = batch_of(net.input_shape(), batch, seed);
        // Software + epcm keep the prop-space runtime bounded; the full
        // four-backend ticket matrix is pinned in tests/serve_pool.rs.
        for kind in [BackendKind::Software, BackendKind::Epcm] {
            let mut single = prepare(kind, &net, seed);
            let pool = Runtime::builder()
                .backend(kind)
                .seed(seed)
                .replicas(2)
                .max_batch(4)
                .serve(&net)
                .expect("pool");
            let handle = pool.handle();
            let tickets: Vec<_> = xs
                .iter()
                .zip(priorities.iter().cycle())
                .map(|(x, &p)| {
                    let class = [Priority::High, Priority::Normal, Priority::Low][p as usize];
                    handle
                        .submit(Request::new(x.clone()).priority(class))
                        .expect("submit")
                })
                .collect();
            for (ticket, x) in tickets.into_iter().zip(&xs) {
                prop_assert_eq!(
                    &ticket.wait().expect("ticket"),
                    &single.infer(x).expect("single"),
                    "{}", kind
                );
            }
            let stats = pool.shutdown();
            prop_assert_eq!(stats.total().inferences, xs.len() as u64, "{}", kind);
        }
    }

    /// A vacuous (all-rates-zero) fault profile is the identity on every
    /// backend: bit-exact against the no-fault baseline, accepted even
    /// by substrates that reject *active* profiles.
    #[test]
    fn rate_zero_fault_profile_is_bit_exact_everywhere(
        inputs in 4usize..20,
        hidden in 2usize..12,
        classes in 2usize..5,
        batch in 1usize..5,
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let net = random_mlp(inputs, hidden, classes, seed);
        let xs = batch_of(net.input_shape(), batch, seed);
        for kind in BackendKind::all() {
            let mut baseline = prepare(kind, &net, seed);
            let mut vacuous = Runtime::builder()
                .backend(kind)
                .seed(seed)
                .fault(FaultConfig::none().with_seed(fault_seed))
                .prepare(&net)
                .expect("vacuous fault profile must be accepted everywhere");
            prop_assert_eq!(
                vacuous.infer_batch(&xs).expect("vacuous"),
                baseline.infer_batch(&xs).expect("baseline"),
                "{}", kind
            );
            prop_assert_eq!(vacuous.stats().fault_cells, 0, "{}", kind);
        }
    }

    /// Fault injection is deterministic: the same seed and fault profile
    /// replay bit-identical predictions (and fault populations) across
    /// two independent prepares of the ePCM backend.
    #[test]
    fn same_fault_profile_replays_identically_across_prepares(
        inputs in 4usize..20,
        hidden in 2usize..12,
        classes in 2usize..5,
        batch in 1usize..5,
        dead in 0.05f64..0.5,
        fault_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let net = random_mlp(inputs, hidden, classes, seed);
        let xs = batch_of(net.input_shape(), batch, seed);
        let fault = FaultConfig::dead_cells(dead, fault_seed);
        let run = || {
            let mut session = Runtime::builder()
                .backend(BackendKind::Epcm)
                .seed(seed)
                .fault(fault)
                .prepare(&net)
                .expect("prepare with faults");
            let out = session.infer_batch(&xs).expect("faulted batch");
            (out, session.stats().fault_cells)
        };
        let (first, cells_first) = run();
        let (second, cells_second) = run();
        prop_assert_eq!(first, second, "same profile must replay bit-exactly");
        prop_assert_eq!(cells_first, cells_second);
    }

    /// Same contract on conv topologies, where the analog batch path packs
    /// all windows of all samples into shared activations.
    #[test]
    fn infer_batch_equals_infer_cnn(
        side in 5usize..9,
        ch in 1usize..4,
        classes in 2usize..5,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let net = random_cnn(side, ch, classes, seed);
        let xs = batch_of(net.input_shape(), batch, seed);
        for kind in BackendKind::all() {
            let mut batched = prepare(kind, &net, seed);
            let mut single = prepare(kind, &net, seed);
            let got = batched.infer_batch(&xs).expect("batch");
            for (x, want) in xs.iter().zip(&got) {
                prop_assert_eq!(&single.infer(x).expect("single"), want, "{}", kind);
            }
        }
    }
}
