//! `perfbench` — the repository benchmark: end-to-end serving metrics
//! per workload, plus a separate traced run for per-layer metrics.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge-tiny-epcm --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` says why each exists):
//!
//! * `edge-tiny-epcm` — `eb-serve --backend epcm` as a child process,
//!   serving the 16→32→32→10 demo net from an `.ebm`, driven over two
//!   keep-alive HTTP connections;
//! * `pool-mlp-photonic` — an in-process `Server` (2 replicas) serving
//!   the trained 784→64→32→10 MLP on the photonic backend, driven
//!   through tickets.
//!
//! Each runs a `light` open-loop phase (latency from each request's
//! intended send instant) and a `peak` closed-loop phase (throughput).
//! Every served output is checked bit-for-bit against `Bnn::forward`.
//! The load generator uses at most two threads and two connections.
//! With `--trace 1` the load is traced (client spans, and on the pool
//! workload the `Ticket::trace()` stage spans under them), `/metrics`
//! is scraped around the phases, and a direct-call phase times the
//! substrate functions; the spans are written to
//! `<target dir>/perfbench-out/` when the run ends.
//!
//! The last line of stdout is the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod direct;
mod edge;
mod nets;
mod pool;
mod spans;
mod stats;

use spans::Spans;
use stats::{beyond, json_str, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("light.p50_us", "us"),
    ("light.p90_us", "us"),
    ("peak.rps", "1/s"),
    ("ok_frac", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0 explicitly.
const PER_LAYER: [(&str, &str); 38] = [
    ("net.parse_us.p50", "us"),
    ("net.wire_us.mean", "us"),
    ("net.errors", "count"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.linger_us.p50", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.reply_us.p99", "us"),
    ("serve.e2e_us.p50", "us"),
    ("serve.shed", "count"),
    ("session.execute_us.p50", "us"),
    ("session.execute_us_per_inf.peak", "us"),
    ("session.prepare_ms", "ms"),
    ("session.infer1_us", "us"),
    ("session.infer32_us_per_inf", "us"),
    ("photonics.l0.wdm1_us", "us"),
    ("photonics.l0.wdm16_us", "us"),
    ("photonics.l1.wdm16_us", "us"),
    ("photonics.mmm_us", "us"),
    ("photonics.lane_fill.light", "ratio"),
    ("photonics.lane_fill.peak", "ratio"),
    ("photonics.steps_per_inf", "count"),
    ("mapping.l0.exec_us", "us"),
    ("mapping.l1.exec_us", "us"),
    ("xbar.energy_nj_per_inf", "nJ"),
    ("sim.compile_ms", "ms"),
    ("sim.run_us", "us"),
    ("sim.instructions_per_inf", "count"),
    ("sim.modeled_latency_ns_per_inf", "modeled_ns"),
    ("sim.modeled_energy_nj_per_inf", "nJ"),
    ("sim.session.infer1_us", "us"),
    ("sim.session.infer32_us_per_inf", "us"),
    ("artifact.read_ms", "ms"),
    ("traced.light.p50_us", "us"),
    ("traced.light.p90_us", "us"),
    ("traced.light.p99_us", "us"),
    ("traced.peak.rps", "1/s"),
];

/// The workloads this benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeTinyEpcm,
    PoolMlpPhotonic,
}

impl Workload {
    const ALL: [(&'static str, Self); 2] = [
        ("edge-tiny-epcm", Self::EdgeTinyEpcm),
        ("pool-mlp-photonic", Self::PoolMlpPhotonic),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("unknown", |&(n, _)| n)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The checkout root (the parent of this package).
    pub root: PathBuf,
    /// Where artifacts, span files and reports go.
    pub out_dir: PathBuf,
}

/// One load phase as the client saw it.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Served requests the generator itself sent later than the lag
    /// bound: their lateness is the generator's, so they are not booked
    /// as server latency.
    pub lagged: u64,
    /// Served latency of every other request in send order, µs from its
    /// intended send instant (light phase).
    pub latencies_us: Vec<f64>,
    /// Generator lag behind schedule, µs, for requests the generator
    /// (not a server backlog) made late.
    pub lags_us: Vec<f64>,
    /// Completions per second (peak phase).
    pub rps: f64,
    pub threads: usize,
    pub connections: usize,
}

/// Consecutive blocks a phase's latencies are split into for its tail.
const TAIL_BLOCKS: usize = 5;

impl Phase {
    /// A phase from per-request `(served correctly, latency µs from the
    /// intended send instant, generator lag µs)` records in send order.
    pub fn new(
        requests: impl Iterator<Item = (bool, f64, Option<f64>)>,
        lag_bound_us: f64,
        connections: usize,
    ) -> Self {
        let mut phase = Phase {
            threads: 2,
            connections,
            ..Phase::default()
        };
        for (ok, latency_us, lag_us) in requests {
            phase.sent += 1;
            phase.lags_us.extend(lag_us);
            if !ok {
                phase.failed += 1;
            } else if lag_us.is_some_and(|l| l > lag_bound_us) {
                phase.lagged += 1;
            } else {
                phase.latencies_us.push(latency_us);
            }
        }
        phase.ok = phase.sent - phase.failed;
        phase
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.latencies_us.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Quantile `q` as the median of the quantiles of five consecutive
    /// blocks (one block below 500 samples), so a host stall moves one
    /// block rather than the whole figure; with the fewest samples beyond
    /// any block's quantile.
    fn tail(&self, q: f64) -> (f64, usize) {
        let n = self.latencies_us.len();
        let blocks = if n < 500 { 1 } else { TAIL_BLOCKS };
        let (mut tails, mut beyond_min) = (Vec::with_capacity(blocks), usize::MAX);
        for b in 0..blocks {
            let mut block = self.latencies_us[b * n / blocks..(b + 1) * n / blocks].to_vec();
            block.sort_by(f64::total_cmp);
            let t = quantile(&block, q);
            beyond_min = beyond_min.min(beyond(&block, t));
            tails.push(t);
        }
        (stats::median(&tails), beyond_min)
    }

    fn lag_p99_us(&self) -> f64 {
        let mut v = self.lags_us.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.99)
    }

    fn json(&self, name: &str) -> String {
        let lat = self.sorted_latencies();
        let (p90, beyond_p90) = self.tail(0.9);
        let (p99, beyond_p99) = self.tail(0.99);
        format!(
            concat!(
                r#"{{"phase":{},"sent":{},"ok":{},"failed":{},"lagged":{},"p50_us":{},"p90_us":{},"#,
                r#""beyond_p90":{},"p99_us":{},"beyond_p99":{},"rps":{},"lag_p99_us":{},"#,
                r#""threads":{},"connections":{}}}"#
            ),
            json_str(name),
            self.sent,
            self.ok,
            self.failed,
            self.lagged,
            quantile(&lat, 0.5),
            p90,
            beyond_p90,
            p99,
            beyond_p99,
            self.rps,
            self.lag_p99_us(),
            self.threads,
            self.connections
        )
    }
}

/// Generator lag bound for a generator thread sending at `rate` per
/// second: one send interval. A request the generator sent later than
/// that was not offered on the schedule the phase describes.
pub fn lag_bound_us(rate: f64) -> f64 {
    1e6 / rate
}

/// Largest share of a light phase's requests the generator may send
/// late before the whole phase is rejected.
const LAGGED_SHARE: f64 = 0.05;

/// What a workload's load run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub rss_mb: f64,
    pub light: Phase,
    pub peak: Phase,
    /// Per-layer metrics the traced load run measured.
    pub layers: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad value {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; expected edge-tiny-epcm or \
                         pool-mlp-photonic"
                    )
                })?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = num(&value)? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run_config(args: &Args) -> Result<RunConfig, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .ok_or("the benchmark package has no parent directory")?
        .to_path_buf();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => manifest.join("target"),
    };
    let out_dir = target.join("perfbench-out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    Ok(RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        root,
        out_dir,
    })
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let cfg = run_config(args)?;
    let name = cfg.workload.name();
    let mut spans = Spans::new();
    let outcome = match cfg.workload {
        Workload::EdgeTinyEpcm => edge::run(&cfg, &mut spans)?,
        Workload::PoolMlpPhotonic => pool::run(&cfg, &mut spans)?,
    };

    // Generator honesty: a light phase whose generator often fell behind
    // its own schedule measured the generator, not the server.
    let (light, peak) = (&outcome.light, &outcome.peak);
    if light.lagged as f64 > LAGGED_SHARE * light.sent as f64 {
        return Err(format!(
            "light phase rejected: the generator sent {} of {} requests later than its lag bound \
             (p99 lag {:.0} µs)",
            light.lagged,
            light.sent,
            light.lag_p99_us()
        ));
    }

    let mut layers = outcome.layers.clone();
    let mut correct = true;
    if cfg.trace {
        let direct = direct::run(&cfg, &mut spans)?;
        correct &= direct.correct;
        layers.extend(direct.metrics);
        let file = cfg.out_dir.join(format!("spans-{name}-{}.jsonl", cfg.seed));
        spans
            .write_jsonl(&file)
            .map_err(|e| format!("cannot write {file:?}: {e}"))?;
        println!("perfbench: spans written to {}", file.display());
        for (span, (count, self_ns)) in spans.self_times() {
            println!(
                "perfbench: self time {span:<28} spans={count:<7} total_ms={:<10.3} mean_us={:.1}",
                self_ns as f64 / 1e6,
                self_ns as f64 / 1e3 / count.max(1) as f64
            );
        }
    }

    let light_sorted = light.sorted_latencies();
    let attempted = light.sent + peak.sent;
    let failed = light.failed + peak.failed;
    correct &= failed == 0 && attempted > 0;
    let ok_frac = (attempted - failed) as f64 / attempted.max(1) as f64;
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", outcome.setup_s),
        ("light.p50_us", quantile(&light_sorted, 0.5)),
        ("light.p90_us", light.tail(0.9).0),
        ("peak.rps", peak.rps),
        ("ok_frac", ok_frac),
        ("rss_mb", outcome.rss_mb),
    ]
    .into_iter()
    .collect();
    if cfg.trace {
        layers.insert("traced.light.p50_us", e2e["light.p50_us"]);
        layers.insert("traced.light.p90_us", e2e["light.p90_us"]);
        layers.insert("traced.light.p99_us", light.tail(0.99).0);
        layers.insert("traced.peak.rps", e2e["peak.rps"]);
    }
    println!(
        r#"perfbench: {{"provenance":{},"phases":[{},{}]}}"#,
        stats::provenance(name, cfg.seed, args.seconds, cfg.trace),
        light.json("light"),
        peak.json("peak")
    );

    let (wanted, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if cfg.trace {
        (&PER_LAYER, &layers)
    } else {
        (&END_TO_END, &e2e)
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (metric, unit) in wanted {
        let value = *values
            .get(metric)
            .ok_or_else(|| format!("metric {metric} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {metric} is not finite ({value})"));
        }
        metrics.push(format!(
            r#"{}:{{"value":{value},"unit":{}}}"#,
            json_str(metric),
            json_str(unit)
        ));
    }
    let result = format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    );
    Ok((correct, result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, result)) => {
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
