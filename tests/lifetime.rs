//! The device-lifetime acceptance drill: faults drive canary agreement
//! below the probe floor, the maintenance loop triggers a hot heal-swap
//! under a continuous 3-client ticket stream, no ticket is dropped or
//! hung, and post-heal canary agreement is within 1% of the healthy
//! baseline.
//!
//! Runs in CI under `--release` alongside the other serving race tests.

use einstein_barrier::bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
use einstein_barrier::{
    BackendKind, FaultConfig, HealthProbe, MaintenanceConfig, ModelOpts, PoolConfig, Request,
    Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn mlp(seed: u64) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    Bnn::new(
        "lifetime",
        Shape::Flat(20),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 20, 14, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 14, 10, &mut rng)),
            Layer::Output(OutputLinear::random("out", 10, 4, &mut rng)),
        ],
    )
    .unwrap()
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_fn(&[20], |i| ((i * 3 + s * 13) as f32 * 0.19).sin()))
        .collect()
}

/// Inject → degrade → auto-heal, with three clients streaming tickets
/// the whole time. Runs at 4 replicas so every rebuild along the way
/// (inject and heal both rebuild the pool) re-mints the shared-weight
/// shape: one programmed ePCM core, four per-replica rinds.
#[test]
fn faults_degrade_maintenance_heals_and_no_ticket_is_lost() {
    let net = mlp(21);
    let opts = ModelOpts {
        backend: BackendKind::Epcm,
        pool: PoolConfig {
            replicas: 4,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
        },
        ..ModelOpts::default()
    };
    let server = Server::builder()
        .model_with("m", &net, opts)
        .serve()
        .unwrap();
    let probe = HealthProbe::golden(&net, inputs(24), 0.9).unwrap();

    // Healthy baseline: the noiseless ePCM pool agrees with the golden
    // reference on every canary.
    let healthy = server.health("m", &probe).unwrap();
    assert_eq!(healthy.agreement, 1.0, "baseline must be healthy");

    let xs = inputs(6);
    let stop = AtomicBool::new(false);
    let submitted = thread::scope(|scope| {
        // A continuous 3-client ticket stream across the whole
        // inject → degrade → heal lifecycle. Every submit must yield a
        // ticket and every ticket must complete with logits — faulted
        // logits are *wrong*, never errors, and the heal swap drops
        // nothing.
        let clients: Vec<_> = (0..3)
            .map(|c| {
                let handle = server.handle("m").unwrap();
                let xs = &xs;
                let stop = &stop;
                scope.spawn(move || {
                    let mut served = 0u64;
                    let mut round = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let i = (c + round) % xs.len();
                        round += 1;
                        let ticket = handle
                            .submit(Request::new(xs[i].clone()))
                            .expect("submit across inject/heal must not fail");
                        ticket
                            .wait()
                            .expect("ticket across inject/heal must complete");
                        served += 1;
                    }
                    served
                })
            })
            .collect();

        thread::sleep(Duration::from_millis(20));

        // Simulated aging: 40% dead cells, hot-swapped in mid-stream.
        server
            .inject_faults("m", FaultConfig::dead_cells(0.4, 77))
            .unwrap();
        let degraded = server.health("m", &probe).unwrap();
        assert!(
            !degraded.is_healthy(),
            "40% dead cells must drive agreement below the floor (got {degraded})"
        );
        assert!(server.stats("m").unwrap().total().fault_cells > 0);

        // The maintenance loop notices the degradation and heals — no
        // further calls from us.
        server
            .start_maintenance(MaintenanceConfig::new(
                Duration::from_millis(10),
                probe.clone(),
            ))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = server.maintenance_stats().expect("loop is running");
            if stats.heals >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "maintenance loop failed to heal within 60s: {stats:?}"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let finals = server.stop_maintenance().expect("loop was running");
        assert!(finals.degradations >= 1, "the probe must have seen decay");

        // Keep streaming a little on the healed pool, then stop.
        thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        let submitted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        submitted
    });

    // Zero dropped or hung tickets: every one of the `submitted`
    // requests completed (each client's count equals its completions —
    // it waited on every ticket it submitted).
    assert!(submitted > 0, "the stream must actually have run");

    // Post-heal: injected faults are gone and canary agreement is back
    // within 1% of the healthy baseline. The healed pool reports the
    // shared-weight memory split — its core was programmed once and is
    // counted once, regardless of the four replicas riding on it.
    assert_eq!(server.injected_fault("m").unwrap(), None);
    let healed_stats = server.stats("m").unwrap();
    assert_eq!(healed_stats.total().fault_cells, 0);
    assert!(healed_stats.core_bytes > 0);
    assert!(healed_stats.replica_bytes > 0);
    assert_eq!(healed_stats.per_replica.len(), 4);
    let healed = server.health("m", &probe).unwrap();
    assert!(
        healed.agreement >= healthy.agreement - 0.01,
        "post-heal agreement {healed} must be within 1% of baseline {healthy}"
    );
}

/// The degradation trend `examples/lifetime.rs` sweeps: canary agreement
/// falls monotonically-ish as the dead-cell rate rises, and every rate
/// replays deterministically.
#[test]
fn agreement_degrades_with_fault_rate_deterministically() {
    let net = mlp(22);
    let probe = HealthProbe::golden(&net, inputs(32), 0.9).unwrap();
    let agreement_at = |rate: f64| {
        let opts = ModelOpts {
            backend: BackendKind::Epcm,
            ..ModelOpts::default()
        };
        let server = Server::builder()
            .model_with("curve", &net, opts)
            .serve()
            .unwrap();
        if rate > 0.0 {
            server
                .inject_faults("curve", FaultConfig::dead_cells(rate, 5))
                .unwrap();
        }
        server.health("curve", &probe).unwrap().agreement
    };
    assert_eq!(agreement_at(0.0), 1.0, "no faults ⇒ bit-exact");
    let low = agreement_at(0.05);
    let high = agreement_at(0.45);
    assert!(
        high <= low,
        "heavier faults must not improve agreement (5%: {low}, 45%: {high})"
    );
    assert!(high < 1.0, "45% dead cells must visibly degrade agreement");
    assert_eq!(
        agreement_at(0.45),
        high,
        "the curve must replay deterministically"
    );
}
