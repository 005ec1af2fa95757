//! `eb-serve` — serve seeded demo BNNs over HTTP.
//!
//! Binds the hand-rolled [`NetServer`] frontend in front of a
//! multi-model [`Server`] registry and parks until `--duration-s`
//! elapses or a client posts `/admin/shutdown`, then drains gracefully
//! and prints the final counters.
//!
//! ```text
//! cargo run --release --bin eb-serve -- --backend epcm --addr 127.0.0.1:8080
//! curl -s http://127.0.0.1:8080/v1/models/demo:predict -d '0.1 -0.4 0.9 ...'
//! ```

use einstein_barrier::bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape};
use einstein_barrier::runtime::net::WireLimits;
use einstein_barrier::{derived_model_seed, BackendKind, NetConfig, NetServer, PoolConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `--model` argument: a seeded demo network, or a pre-trained
/// `.ebm` artifact to deploy from file (no training code on that path).
enum ModelSource {
    Demo(String),
    File(String, PathBuf),
}

impl ModelSource {
    fn name(&self) -> &str {
        match self {
            Self::Demo(name) | Self::File(name, _) => name,
        }
    }
}

struct Args {
    addr: String,
    backend: BackendKind,
    models: Vec<ModelSource>,
    input: usize,
    hidden: usize,
    classes: usize,
    seed: u64,
    pool: PoolConfig,
    workers: usize,
    conn_backlog: usize,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    retry_after_secs: u32,
    chaos: bool,
    duration_s: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_owned(),
            backend: BackendKind::Software,
            models: Vec::new(),
            input: 16,
            hidden: 32,
            classes: 10,
            seed: 7,
            pool: PoolConfig::default(),
            workers: 4,
            conn_backlog: 64,
            read_timeout_ms: 5000,
            write_timeout_ms: 5000,
            retry_after_secs: 1,
            chaos: false,
            duration_s: 0,
        }
    }
}

const USAGE: &str = "\
eb-serve — HTTP serving frontend for EinsteinBarrier demo models

USAGE: eb-serve [OPTIONS]

  --addr HOST:PORT        bind address (default 127.0.0.1:8080; port 0 = ephemeral)
  --backend KIND          software|epcm|photonic|simulator (default software)
  --model NAME[=PATH]     model to deploy (repeatable; default: one model 'demo').
                          bare NAME serves a seeded demo net; NAME=model.ebm
                          deploys a pre-trained artifact from file
  --input N               demo network input width (default 16)
  --hidden N              demo network hidden width (default 32)
  --classes N             demo network output classes (default 10)
  --seed N                weight/noise seed (default 7)
  --replicas N            pool replicas per model (default 1)
  --max-batch N           micro-batch bound (default 32)
  --max-wait-us N         micro-batch coalescing window in µs (default 200)
  --queue-capacity N      pool queue bound; beyond it requests are shed (default 1024)
  --workers N             connection-worker threads (default 4)
  --conn-backlog N        acceptor→worker connection queue bound (default 64)
  --read-timeout-ms N     per-connection read timeout (default 5000)
  --write-timeout-ms N    per-connection write timeout (default 5000)
  --retry-after-secs N    Retry-After advertised on 503 sheds (default 1)
  --chaos                 enable POST /admin/panic (worker-respawn drill)
  --duration-s N          auto-shutdown after N seconds (0 = until /admin/shutdown)
  --help                  this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--backend" => {
                args.backend = value("--backend")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--model" => {
                let spec = value("--model")?;
                args.models.push(match spec.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        ModelSource::File(name.to_owned(), PathBuf::from(path))
                    }
                    Some(_) => {
                        return Err(format!(
                            "malformed --model {spec:?}; expected NAME or NAME=PATH.ebm"
                        ))
                    }
                    None => ModelSource::Demo(spec),
                });
            }
            "--input" => args.input = parse_num(&value("--input")?, "--input")?,
            "--hidden" => args.hidden = parse_num(&value("--hidden")?, "--hidden")?,
            "--classes" => args.classes = parse_num(&value("--classes")?, "--classes")?,
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--replicas" => args.pool.replicas = parse_num(&value("--replicas")?, "--replicas")?,
            "--max-batch" => {
                args.pool.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?
            }
            "--max-wait-us" => {
                args.pool.max_wait =
                    Duration::from_micros(parse_num(&value("--max-wait-us")?, "--max-wait-us")?);
            }
            "--queue-capacity" => {
                args.pool.queue_capacity =
                    parse_num(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--conn-backlog" => {
                args.conn_backlog = parse_num(&value("--conn-backlog")?, "--conn-backlog")?;
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms =
                    parse_num(&value("--read-timeout-ms")?, "--read-timeout-ms")?;
            }
            "--write-timeout-ms" => {
                args.write_timeout_ms =
                    parse_num(&value("--write-timeout-ms")?, "--write-timeout-ms")?;
            }
            "--retry-after-secs" => {
                args.retry_after_secs =
                    parse_num(&value("--retry-after-secs")?, "--retry-after-secs")?;
            }
            "--chaos" => args.chaos = true,
            "--duration-s" => args.duration_s = parse_num(&value("--duration-s")?, "--duration-s")?,
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.models.is_empty() {
        args.models.push(ModelSource::Demo("demo".to_owned()));
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("unparseable value {s:?} for {flag}"))
}

/// A seeded three-layer demo BNN (FixedLinear → BinLinear → Output),
/// deterministic in (name, seed, shape) so restarts serve identical
/// weights. Weights derive from the registry's own per-model seed rule,
/// so `demo_net(name, ..)` and a file-loaded artifact of the same net
/// deploy under identical noise streams.
fn demo_net(name: &str, args: &Args) -> Result<Bnn, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(derived_model_seed(name, args.seed));
    Ok(Bnn::new(
        name,
        Shape::Flat(args.input),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", args.input, args.hidden, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", args.hidden, args.hidden, &mut rng)),
            Layer::Output(OutputLinear::random(
                "out",
                args.hidden,
                args.classes,
                &mut rng,
            )),
        ],
    )?)
}

fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = Server::builder()
        .backend(args.backend)
        .seed(args.seed)
        .pool(args.pool);
    for source in &args.models {
        if let ModelSource::Demo(name) = source {
            let net = demo_net(name, &args)?;
            builder = builder.model(name.clone(), &net);
        }
    }
    let registry = Arc::new(builder.serve()?);
    // File-backed models deploy after startup through the artifact
    // loader — checksum-verified, prepared-state restored when the
    // container carries a matching section, zero training code.
    for source in &args.models {
        if let ModelSource::File(name, path) = source {
            let info = registry.deploy_from_file(name, path)?;
            println!("eb-serve: deployed {name} from {} ({info})", path.display());
        }
    }

    let config = NetConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        conn_backlog: args.conn_backlog,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        write_timeout: Duration::from_millis(args.write_timeout_ms),
        limits: WireLimits::default(),
        retry_after_secs: args.retry_after_secs,
        chaos: args.chaos,
    };
    let server = NetServer::bind(Arc::clone(&registry), config)?;
    println!(
        "eb-serve listening on http://{} backend={} models={:?} \
         replicas={} queue_capacity={} workers={}",
        server.local_addr(),
        args.backend,
        args.models
            .iter()
            .map(ModelSource::name)
            .collect::<Vec<_>>(),
        args.pool.replicas,
        args.pool.queue_capacity,
        args.workers,
    );
    println!(
        "eb-serve: metrics at http://{}/metrics (Prometheus text format)",
        server.local_addr()
    );

    // Park until the duration elapses or /admin/shutdown flips the flag.
    let started = Instant::now();
    loop {
        if server.wait_shutdown_requested(Duration::from_millis(500)) {
            println!("eb-serve: shutdown requested; draining");
            break;
        }
        if args.duration_s > 0 && started.elapsed() >= Duration::from_secs(args.duration_s) {
            println!("eb-serve: duration elapsed; draining");
            break;
        }
    }

    let stats = server.shutdown();
    println!(
        "eb-serve: frontend accepted={} requests={} 2xx={} 4xx={} 5xx={} \
         shed_requests={} shed_connections={} worker_panics={} worker_respawns={}",
        stats.accepted,
        stats.requests,
        stats.responses_2xx,
        stats.responses_4xx,
        stats.responses_5xx,
        stats.shed_requests,
        stats.shed_connections,
        stats.worker_panics,
        stats.worker_respawns,
    );
    // Per-stage latency report, from the same histograms /metrics
    // scrapes (absent with zero traffic).
    for name in registry.models() {
        if let Ok(stages) = registry.stage_histograms(&name) {
            for (stage, h) in stages.stages() {
                if h.count() == 0 {
                    continue;
                }
                println!(
                    "eb-serve: model {name} stage {stage:<7} count={} p50_us={} p99_us={} max_us={}",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max(),
                );
            }
        }
    }
    if let Ok(registry) = Arc::try_unwrap(registry) {
        for (name, pool) in registry.shutdown() {
            println!(
                "eb-serve: model {name}: inferences={} micro_batches={} shed={} rejected={} \
                 prepare_ms={:.2} core_bytes={} replica_bytes={}",
                pool.total().inferences,
                pool.total_micro_batches(),
                pool.shed,
                pool.rejected,
                pool.prepare_ns as f64 / 1e6,
                pool.core_bytes,
                pool.replica_bytes,
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("eb-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("eb-serve: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
