//! `pool-mlp-photonic`: an in-process `Server` with two replicas serving
//! the trained MLP on the photonic backend, driven through tickets by
//! one submitting and one collecting thread. HTTP cannot put more than
//! two requests in front of the pool, so this workload submits
//! in-process to let full micro-batches form.

use crate::nets::{mlp_net, pool_inputs, reference};
use crate::spans::Spans;
use crate::stats::{
    logits_match, mid_mean, peak_rss_mb, quantile, sleep_until, PromHist, Scrape, Window,
};
use crate::{lag_bound_us, Outcome, Phase, RunConfig};
use einstein_barrier::bitnn::Tensor;
use einstein_barrier::photonics::PAPER_WDM_CAPACITY;
use einstein_barrier::{
    BackendKind, EbError, ModelHandle, PoolConfig, Request, Server, SessionStats, Stage, Ticket,
    TicketStatus, Trace,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const MODEL: &str = "mlp";
/// Open-loop rate of the light phase: low enough that a request rarely
/// waits for another even on a slow host; 30 s of it leave ≥10 samples
/// beyond each tail block's p90.
const LIGHT_RATE: f64 = 25.0;
/// Share of `--seconds` spent in the light phase (the rest is peak).
const LIGHT_SHARE: f64 = 0.6;
/// Light/peak segment pairs per run.
const CYCLES: usize = 10;
/// Tickets kept outstanding in the peak phase, so full micro-batches form.
const PEAK_OUTSTANDING: usize = 64;
/// Pools built in a row, each timed, at the start of every cycle; the
/// last one serves the cycle.
const SETUP_PER_CYCLE: usize = 2;
const INPUTS: usize = 64;
/// How often the collector polls the tickets it waits on.
const POLL: Duration = Duration::from_micros(200);
/// Share of a request's client span its stage spans must cover.
const COVERAGE_FLOOR: f64 = 0.9;
/// Largest share of requests allowed below `COVERAGE_FLOOR`: a host
/// stall that keeps the collector off the CPU for a few milliseconds
/// can push a single request under it, while time that no stage
/// accounts for would push most of them.
const COVERAGE_SHORT_SHARE: f64 = 0.01;

fn pool_config() -> PoolConfig {
    PoolConfig {
        replicas: 2,
        ..PoolConfig::default()
    }
}

/// A submitted request on its way to the collector.
struct Pending {
    id: u64,
    input: usize,
    intended: Instant,
    submitted: Instant,
    /// Start instant of the attached trace (traced runs only).
    trace_start: Option<Instant>,
    ticket: Result<Ticket, EbError>,
}

/// Absolute stage instants read back from a served ticket's trace.
#[derive(Clone, Copy)]
struct Stages {
    enqueued: Instant,
    batched: Instant,
    executed: Instant,
    replied: Instant,
}

struct Rec {
    id: u64,
    intended: Instant,
    submitted: Instant,
    /// When the ticket completed (submission + `Ticket::latency`).
    completed: Instant,
    /// When the collector saw the ticket done: the end of the client
    /// span, observed by the client rather than stamped by the server.
    observed: Instant,
    ok: bool,
    stages: Option<Stages>,
}

fn submit(
    handle: &ModelHandle,
    inputs: &[Tensor],
    id: u64,
    intended: Instant,
    traced: bool,
) -> Pending {
    let input = id as usize % inputs.len();
    let mut request = Request::new(inputs[input].clone());
    let mut trace_start = None;
    if traced {
        let trace = Trace::begin();
        let now = Instant::now();
        trace_start = Some(now - Duration::from_nanos(trace.offset_ns(now)));
        request = request.trace(trace);
    }
    let submitted = Instant::now();
    Pending {
        id,
        input,
        intended,
        submitted,
        trace_start,
        ticket: handle.submit(request),
    }
}

/// Collects every pending ticket and checks its output. After each
/// polling round the collector hands the number of completions back to
/// a closed-loop submitter, so a finished micro-batch is refilled in one
/// burst instead of one wake-up per request.
///
/// Every outstanding ticket is polled, so none waits behind another (a
/// head-of-line wait would idle a replica in the closed loop), and a
/// traced ticket's trace can be read before `wait` consumes it.
fn collect(
    rx: mpsc::Receiver<Pending>,
    want: &[Tensor],
    credits: Option<mpsc::Sender<usize>>,
) -> Vec<Rec> {
    let finish = |p: Pending, observed: Instant| {
        let (result, completed, stages) = match p.ticket {
            Err(e) => (Err(e), observed, None),
            Ok(ticket) => {
                let stages = p.trace_start.and_then(|start| {
                    let t = ticket.trace()?;
                    let at = |stage| Some(start + Duration::from_nanos(t.stamp_ns(stage)?));
                    Some(Stages {
                        enqueued: at(Stage::Enqueued)?,
                        batched: at(Stage::Batched)?,
                        executed: at(Stage::Executed)?,
                        replied: at(Stage::Replied)?,
                    })
                });
                let completed = p.submitted + ticket.latency().unwrap_or_default();
                (ticket.wait(), completed, stages)
            }
        };
        let ok = matches!(&result, Ok(t) if logits_match(t.as_slice(), want[p.input].as_slice()));
        Rec {
            id: p.id,
            intended: p.intended,
            submitted: p.submitted,
            completed,
            observed,
            ok,
            stages,
        }
    };
    let mut recs = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        let next = if pending.is_empty() {
            rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
        } else {
            rx.try_recv()
        };
        match next {
            Ok(p) => pending.push(p),
            Err(empty_or_closed) => {
                open &= empty_or_closed == mpsc::TryRecvError::Empty;
                let before = recs.len();
                let mut i = 0;
                while i < pending.len() {
                    let done = match &pending[i].ticket {
                        Ok(t) => t.poll() == TicketStatus::Done,
                        Err(_) => true,
                    };
                    if done {
                        let observed = Instant::now();
                        recs.push(finish(pending.swap_remove(i), observed));
                    } else {
                        i += 1;
                    }
                }
                let finished = recs.len() - before;
                if finished == 0 {
                    std::thread::sleep(POLL);
                } else if let Some(credits) = &credits {
                    let _ = credits.send(finished);
                }
            }
        }
    }
    recs
}

/// A phase from its records. In an open loop the submitter never waits
/// on a reply, so all of its lateness behind the schedule
/// (`submitted − intended`) is generator lag.
fn phase_from(recs: &mut [Rec], open_loop: bool) -> Phase {
    recs.sort_unstable_by_key(|r| r.id);
    let requests = recs.iter().map(|r| {
        (
            r.ok,
            (r.completed - r.intended).as_secs_f64() * 1e6,
            open_loop.then(|| (r.submitted - r.intended).as_secs_f64() * 1e6),
        )
    });
    Phase::new(requests, lag_bound_us(LIGHT_RATE), 0)
}

/// Counter deltas of one phase, summed over its segments.
#[derive(Default)]
struct Deltas {
    steps: u64,
    lanes: u64,
    linger: PromHist,
    batch: PromHist,
    shed: f64,
}

impl Deltas {
    fn add(&mut self, before: &(SessionStats, Scrape), after: &(SessionStats, Scrape)) {
        let model = format!("model=\"{MODEL}\"");
        let diff = |name: &str| {
            after
                .1
                .hist(name, &model)
                .since(&before.1.hist(name, &model))
        };
        self.steps += after.0.crossbar_steps - before.0.crossbar_steps;
        self.lanes += after.0.wdm_lanes - before.0.wdm_lanes;
        self.linger.add(&diff("eb_batch_linger_us"));
        self.batch.add(&diff("eb_batch_size"));
        let shed = "eb_requests_shed_total";
        self.shed += after.1.total(shed) - before.1.total(shed);
    }

    /// WDM lanes per available lane slot, `lanes ÷ (steps·K)`.
    fn lane_fill(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.lanes as f64 / (self.steps as f64 * PAPER_WDM_CAPACITY as f64)
    }
}

fn snapshot(server: &Server) -> Result<(SessionStats, Scrape), String> {
    let stats = server.stats(MODEL).map_err(|e| e.to_string())?.total();
    let text = server.telemetry().map(|r| r.render()).unwrap_or_default();
    Ok((stats, Scrape::parse(&text)))
}

/// One light segment: an open loop at `LIGHT_RATE` for `secs`.
fn light_segment(
    handle: &ModelHandle,
    inputs: &[Tensor],
    want: &[Tensor],
    first_id: u64,
    secs: f64,
    traced: bool,
) -> Vec<Rec> {
    let n = (LIGHT_RATE * secs).round() as u64;
    let t0 = Instant::now() + Duration::from_millis(10);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let collector = s.spawn(|| collect(rx, want, None));
        for i in 0..n {
            let intended = t0 + Duration::from_secs_f64(i as f64 / LIGHT_RATE);
            sleep_until(intended);
            let _ = tx.send(submit(handle, inputs, first_id + i, intended, traced));
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// One peak segment: a closed loop with `PEAK_OUTSTANDING` tickets
/// outstanding until `secs` have passed (the tail then drains). Returns
/// the records plus the segment's measured window.
fn peak_segment(
    handle: &ModelHandle,
    inputs: &[Tensor],
    want: &[Tensor],
    first_id: u64,
    secs: f64,
    traced: bool,
) -> (Vec<Rec>, Window) {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let recs = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let (credit_tx, credit_rx) = mpsc::channel();
        let collector = s.spawn(|| collect(rx, want, Some(credit_tx)));
        let (mut credit, mut id) = (PEAK_OUTSTANDING, first_id);
        while Instant::now() < end {
            if credit == 0 {
                match credit_rx.recv() {
                    Ok(k) => credit += k,
                    Err(_) => break,
                }
                continue;
            }
            let _ = tx.send(submit(handle, inputs, id, Instant::now(), traced));
            credit -= 1;
            id += 1;
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let done: Vec<Instant> = recs.iter().map(|r| r.completed).collect();
    // The first round of outstanding tickets fills the pipeline.
    let window = Window::between(done, PEAK_OUTSTANDING, end);
    (recs, window)
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let net = mlp_net();
    let inputs = pool_inputs(cfg.seed, INPUTS);
    let want = reference(&net, &inputs);

    // Set-up: builder → serving pool. The host's speed drifts over tens
    // of seconds, so every cycle serves from pools of its own: it builds
    // `SETUP_PER_CYCLE` in a row, timing each and keeping the last. One
    // pool is alive at a time, so peak memory counts one programmed
    // model. A first, untimed build warms the allocator and the
    // process's lazily created state.
    let build = || {
        Server::builder()
            .backend(BackendKind::Photonic)
            .pool(pool_config())
            .model(MODEL, &net)
            .serve()
            .map_err(|e| format!("cannot serve the MLP: {e}"))
    };
    drop(build()?);
    let mut setup = Vec::with_capacity(CYCLES * SETUP_PER_CYCLE);
    let serving = |setup: &mut Vec<f64>| -> Result<(Server, ModelHandle), String> {
        let mut server = None;
        for _ in 0..SETUP_PER_CYCLE {
            drop(server.take());
            let t = Instant::now();
            server = Some(build()?);
            setup.push(t.elapsed().as_secs_f64());
        }
        let server = server.expect("SETUP_PER_CYCLE is not 0");
        let handle = server.handle(MODEL).map_err(|e| e.to_string())?;
        for x in inputs.iter().take(4) {
            handle
                .infer(x)
                .map_err(|e| format!("warm-up failed: {e}"))?;
        }
        Ok((server, handle))
    };

    // Light and peak segments alternate, so both phases sample the
    // host's speed across the whole run rather than one stretch of it.
    let light_s = cfg.seconds * LIGHT_SHARE / CYCLES as f64;
    let peak_s = cfg.seconds * (1.0 - LIGHT_SHARE) / CYCLES as f64;
    let (mut light_recs, mut peak_recs) = (Vec::new(), Vec::new());
    let (mut light_d, mut peak_d) = (Deltas::default(), Deltas::default());
    let mut window = Window::default();
    let mut id = 0;
    for _ in 0..CYCLES {
        let (server, handle) = serving(&mut setup)?;
        let s0 = snapshot(&server)?;
        let recs = light_segment(&handle, &inputs, &want, id, light_s, cfg.trace);
        id += recs.len() as u64;
        light_recs.extend(recs);
        let s1 = snapshot(&server)?;
        let (recs, w) = peak_segment(&handle, &inputs, &want, id, peak_s, cfg.trace);
        id += recs.len() as u64;
        peak_recs.extend(recs);
        window.add(&w);
        let s2 = snapshot(&server)?;
        light_d.add(&s0, &s1);
        peak_d.add(&s1, &s2);
    }
    let light = phase_from(&mut light_recs, true);
    let mut peak = phase_from(&mut peak_recs, false);
    peak.rps = window.rate();

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let light_batches = record_spans(spans, &light_recs);
        let peak_batches = record_spans(spans, &peak_recs);
        layers = trace_layers(&light_recs, &peak_recs, &light_batches, &peak_batches)?;
        layers.extend([
            ("serve.linger_us.p50", light_d.linger.quantile(0.5)),
            ("serve.batch_size.mean", peak_d.batch.mean()),
            (
                "serve.batch_fill",
                peak_d.batch.mean() / pool_config().max_batch as f64,
            ),
            ("serve.shed", light_d.shed + peak_d.shed),
            ("photonics.lane_fill.light", light_d.lane_fill()),
            ("photonics.lane_fill.peak", peak_d.lane_fill()),
            // No network edge in front of an in-process pool.
            ("net.parse_us.p50", 0.0),
            ("net.wire_us.mean", 0.0),
            ("net.errors", 0.0),
        ]);
    }
    let rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    Ok(Outcome {
        setup_s: mid_mean(&setup),
        rss_mb,
        light,
        peak,
        layers,
    })
}

/// One micro-batch, reassembled from its members' traces: members share
/// the batch-wide `executed` stamp, and execution starts when the last
/// member was claimed.
struct Batch {
    size: usize,
    exec_start: Instant,
    executed: Instant,
}

/// Records each request's client span with its stage spans as children,
/// and returns the micro-batches the requests formed.
fn record_spans(spans: &mut Spans, recs: &[Rec]) -> Vec<Batch> {
    let mut batches: HashMap<Instant, Batch> = HashMap::new();
    for st in recs.iter().filter_map(|r| r.stages) {
        let b = batches.entry(st.executed).or_insert(Batch {
            size: 0,
            exec_start: st.batched,
            executed: st.executed,
        });
        b.size += 1;
        b.exec_start = b.exec_start.max(st.batched);
    }
    for r in recs {
        let client = spans.record("client", r.submitted, r.observed, None, Some(r.id));
        if let Some(st) = r.stages {
            let exec_start = batches[&st.executed].exec_start;
            spans.record("queue", st.enqueued, st.batched, Some(client), Some(r.id));
            spans.record("batch", st.batched, exec_start, Some(client), Some(r.id));
            spans.record("execute", exec_start, st.executed, Some(client), Some(r.id));
            spans.record("reply", st.executed, st.replied, Some(client), Some(r.id));
        }
    }
    batches.into_values().collect()
}

/// Per-layer metrics from the traced requests, plus the trace
/// completeness gate: a request's stage spans must cover ≥90% of its
/// client span (submit → the collector seeing the ticket done), on all
/// but at most 1% of requests.
fn trace_layers(
    light: &[Rec],
    peak: &[Rec],
    light_batches: &[Batch],
    peak_batches: &[Batch],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
    let untraced = light
        .iter()
        .chain(peak)
        .filter(|r| r.ok && r.stages.is_none())
        .count();
    if untraced > 0 {
        return Err(format!(
            "{untraced} served tickets carried no complete trace"
        ));
    }
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let staged: Vec<Stages> = light.iter().filter_map(|r| r.stages).collect();
    let queue = sorted(staged.iter().map(|s| us(s.enqueued, s.batched)).collect());
    let reply = sorted(staged.iter().map(|s| us(s.executed, s.replied)).collect());
    let e2e = sorted(staged.iter().map(|s| us(s.enqueued, s.replied)).collect());
    let execute = sorted(
        light_batches
            .iter()
            .map(|b| us(b.exec_start, b.executed))
            .collect(),
    );
    let peak_exec: f64 = peak_batches
        .iter()
        .map(|b| us(b.exec_start, b.executed))
        .sum();
    let peak_inf: usize = peak_batches.iter().map(|b| b.size).sum();

    // queue + batch + execute + reply = enqueued → replied, against the
    // client's own submit → seen-done span.
    let coverage = sorted(
        light
            .iter()
            .chain(peak)
            .filter_map(|r| {
                let st = r.stages?;
                Some(us(st.enqueued, st.replied) / us(r.submitted, r.observed))
            })
            .collect(),
    );
    let worst = coverage.first().copied().unwrap_or(0.0);
    let short = coverage.partition_point(|&c| c < COVERAGE_FLOOR);
    println!(
        "perfbench: stage spans cover client spans: min {worst:.4} p50 {:.4}, {short} of {} \
         below {COVERAGE_FLOOR}",
        quantile(&coverage, 0.5),
        coverage.len()
    );
    if short as f64 > COVERAGE_SHORT_SHARE * coverage.len() as f64 {
        return Err(format!(
            "trace completeness gate failed: the stage spans of {short} of {} requests cover \
             less than {:.0}% of their client span (min {:.1}%)",
            coverage.len(),
            COVERAGE_FLOOR * 100.0,
            worst * 100.0
        ));
    }
    Ok([
        ("serve.queue_us.p50", quantile(&queue, 0.5)),
        ("serve.queue_us.p99", quantile(&queue, 0.99)),
        ("serve.reply_us.p99", quantile(&reply, 0.99)),
        ("serve.e2e_us.p50", quantile(&e2e, 0.5)),
        ("session.execute_us.p50", quantile(&execute, 0.5)),
        (
            "session.execute_us_per_inf.peak",
            if peak_inf > 0 {
                peak_exec / peak_inf as f64
            } else {
                0.0
            },
        ),
    ]
    .into_iter()
    .collect())
}
