//! Device-lifetime drill: train online, deploy to analog hardware, serve
//! under faults, and watch the maintenance loop heal the model.
//!
//! 1. Train a BinaryConnect MLP epoch by epoch (`train_epoch`),
//!    checkpointing each epoch to a versioned `.ebm` artifact and
//!    deploying *the file* to a multi-replica ePCM `Server` pool as soon
//!    as it beats a majority-class baseline — online training feeding a
//!    live deployment through the artifact path
//!    (`deploy_from_file`/`swap_from_file`).
//! 2. Build a golden-canary `HealthProbe` from the training set and
//!    record the healthy baseline agreement.
//! 3. Sweep dead-cell fault rates through `Server::inject_faults` to map
//!    the accuracy-vs-fault-rate degradation curve — every point a
//!    deterministic, replayable fault map
//!    (`tests/lifetime.rs::agreement_degrades_with_fault_rate_deterministically`
//!    pins its trend).
//! 4. Inject a crippling fault profile while 3 client threads stream
//!    tickets, start the `MaintenanceLoop`, and observe the self-heal:
//!    the probe trips, the pool is rebuilt on fresh devices through the
//!    zero-dropped-tickets swap path, and canary agreement returns to
//!    the healthy baseline. No client ever sees an error.
//!
//! Run with `cargo run --release --example lifetime`.

use einstein_barrier::artifact;
use einstein_barrier::bitnn::{
    Dataset, DatasetKind, MlpTrainer, Tensor, TrainConfig, TrainScratch,
};
use einstein_barrier::{
    BackendKind, FaultConfig, HealthProbe, MaintenanceConfig, ModelOpts, PoolConfig, Request,
    Server,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Online training: epoch by epoch, deploy once it's useful ───
    let data = Dataset::generate(DatasetKind::Mnist, 96, 17).flattened();
    let mut trainer = MlpTrainer::new(
        &[784, 32, 16, 10],
        TrainConfig {
            learning_rate: 0.06,
            epochs: 1, // epochs are driven manually below
            batch_size: 16,
            seed: 17,
        },
    );
    let server = Server::builder().serve()?;
    let opts = ModelOpts {
        backend: BackendKind::Epcm,
        pool: PoolConfig {
            replicas: 2,
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            queue_capacity: 256,
        },
        ..ModelOpts::default()
    };
    let mut deployed = false;
    let order: Vec<usize> = (0..data.len()).collect();
    let mut scratch = TrainScratch::default();
    // Checkpoints flow through a versioned .ebm artifact file: the
    // server only ever sees what a restart would see.
    let dir = std::env::temp_dir().join("eb-example-lifetime");
    std::fs::create_dir_all(&dir)?;
    let checkpoint = dir.join("lifetime-mlp.ebm");
    for epoch in 0..6 {
        let loss = trainer.train_epoch(&data, &order, &mut scratch);
        let net = trainer.to_bnn("lifetime-mlp")?;
        let eval_acc = net.accuracy(&data)?;
        println!(
            "epoch {epoch}: loss {loss:.3}, eval {:.1}%",
            eval_acc * 100.0
        );
        // Deploy the first useful checkpoint, hot-swap in the rest: the
        // model keeps improving while its predecessor keeps serving.
        if !deployed && eval_acc > 0.2 {
            let info = artifact::write_model(&checkpoint, &net, None)?;
            server.deploy_from_file_with("mnist", &checkpoint, opts.clone())?;
            deployed = true;
            println!(
                "         deployed {} to the ePCM pool (2 replicas, {info})",
                checkpoint.display()
            );
        } else if deployed {
            artifact::write_model(&checkpoint, &net, None)?;
            let finals = server.swap_from_file("mnist", &checkpoint)?;
            println!(
                "         hot-swapped the improved checkpoint file in \
                 (predecessor drained after {} inferences)",
                finals.total().inferences
            );
        }
    }
    assert!(deployed, "training never beat the deployment bar");
    let net = trainer.to_bnn("lifetime-mlp")?;

    // ── 2. Golden canaries: known-good predictions to probe against ───
    let canaries: Vec<Tensor> = data.iter().take(32).map(|(x, _)| x.clone()).collect();
    let probe = HealthProbe::golden(&net, canaries, 0.9)?;
    let healthy = server.health("mnist", &probe)?;
    println!("\nhealthy baseline: {healthy}");

    // ── 3. The accuracy-vs-fault-rate degradation curve ───────────────
    println!("\ndead-cell rate → canary agreement (deterministic, seed 7):");
    for rate in [0.02, 0.05, 0.1, 0.2, 0.3, 0.4] {
        server.inject_faults("mnist", FaultConfig::dead_cells(rate, 7))?;
        let report = server.health("mnist", &probe)?;
        let cells = server.stats("mnist")?.total().fault_cells;
        println!(
            "  {:>4.0}%: {:>5.1}% agreement ({cells} dead cells across the pool)",
            rate * 100.0,
            report.agreement * 100.0
        );
    }
    server.heal("mnist")?;

    // ── 4. Inject, stream, self-heal ──────────────────────────────────
    let stop = AtomicBool::new(false);
    let requests: Vec<Tensor> = data.iter().take(8).map(|(x, _)| x.clone()).collect();
    thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let clients: Vec<_> = (0..3)
            .map(|c| {
                let handle = server.handle("mnist").expect("deployed");
                let (requests, stop) = (&requests, &stop);
                scope.spawn(move || {
                    let mut served = 0u64;
                    let mut round = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let i = (c + round) % requests.len();
                        round += 1;
                        let ticket = handle
                            .submit(Request::new(requests[i].clone()))
                            .expect("submit across the heal must not fail");
                        ticket.wait().expect("ticket across the heal must complete");
                        served += 1;
                    }
                    served
                })
            })
            .collect();

        // Cripple the deployed devices mid-stream.
        server.inject_faults("mnist", FaultConfig::dead_cells(0.4, 99))?;
        let degraded = server.health("mnist", &probe)?;
        println!("\nafter injecting 40% dead cells: {degraded}");

        // The maintenance loop takes it from here.
        let healing_started = Instant::now();
        server.start_maintenance(MaintenanceConfig::new(
            Duration::from_millis(20),
            probe.clone(),
        ))?;
        while server.maintenance_stats().is_none_or(|s| s.heals == 0) {
            assert!(
                healing_started.elapsed() < Duration::from_secs(60),
                "maintenance loop failed to heal within 60s"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let time_to_recover = healing_started.elapsed();
        let finals = server.stop_maintenance().expect("loop was running");

        stop.store(true, Ordering::SeqCst);
        let submitted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        println!(
            "maintenance: {} probes, {} degradations, {} heal(s); \
             detected and recovered in {time_to_recover:.2?}",
            finals.probes, finals.degradations, finals.heals
        );
        println!(
            "clients: {submitted} tickets submitted across the degrade/heal \
             cycle, every one completed — zero dropped"
        );
        Ok(())
    })?;

    let healed = server.health("mnist", &probe)?;
    println!("after self-heal: {healed}");
    assert!(
        healed.agreement >= healthy.agreement - 0.01,
        "post-heal agreement must be within 1% of the healthy baseline"
    );
    assert_eq!(server.injected_fault("mnist")?, None);
    // Inject/heal rebuilds keep the network, so the file provenance
    // recorded at swap time survives the whole lifetime drill.
    let provenance = server.artifact_info("mnist")?.expect("file-deployed");
    println!("served artifact: {provenance}");

    println!("\ndegrade → detect → self-heal cycle complete ✓");
    Ok(())
}
