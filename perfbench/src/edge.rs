//! `edge-tiny-epcm`: the `eb-serve` binary as a child process, serving
//! the tiny demo net from an `.ebm` on the ePCM backend, driven over two
//! keep-alive HTTP connections by two generator threads.

use crate::nets::{edge_inputs, reference, tiny_net, TINY_NAME};
use crate::spans::Spans;
use crate::stats::{
    logits_match, mid_mean, parse_logits, peak_rss_mb, sleep_until, PromHist, Scrape, Window,
};
use crate::{lag_bound_us, Outcome, Phase, RunConfig};
use einstein_barrier::bitnn::Tensor;
use einstein_barrier::PoolConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Open-loop rate of the light phase.
const LIGHT_RATE: f64 = 1000.0;
/// Share of `--seconds` spent in the light phase (the rest is peak).
const LIGHT_SHARE: f64 = 0.5;
/// eb-serve processes started (and killed) to time set-up, before the
/// serving process starts, between the phases, and after it exits.
const SETUP_BURST: usize = 7;
/// Distinct request inputs cycled through.
const INPUTS: usize = 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            addr,
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads one response: `(status, body)`.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).into_owned();
        Ok((status, body))
    }

    /// [`Conn::exchange`], reconnecting once if the connection broke.
    fn exchange_or_reconnect(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        match self.exchange(request) {
            Ok(r) => Ok(r),
            Err(e) => {
                *self = Conn::connect(self.addr)?;
                Err(e)
            }
        }
    }

    fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())
    }
}

/// A running eb-serve child.
struct Served {
    child: Child,
    /// Held open until the child exits, so its final report never meets
    /// a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Served {
    /// Starts eb-serve on an ephemeral port and waits until `/healthz`
    /// answers 200.
    fn spawn(binary: &Path, model: &Path) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--backend", "epcm", "--addr", "127.0.0.1:0", "--model"])
            .arg(format!("{TINY_NAME}={}", model.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {binary:?}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("eb-serve has no stdout")?);
        let mut served = None;
        let mut line = String::new();
        while served.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("eb-serve exited before it listened".to_owned());
            }
            served = line
                .split("listening on http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        let mut served = Self {
            child,
            _stdout: stdout,
            addr: served.expect("loop exits with an address"),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = Conn::connect(served.addr).and_then(|mut c| c.get("/healthz"));
            if matches!(healthy, Ok((200, _))) {
                return Ok(served);
            }
            if Instant::now() > deadline {
                served.kill();
                return Err("eb-serve never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful drain through `/admin/shutdown` on the last open
    /// connection, then waits for exit (killing the child if it has not
    /// exited within 10 s).
    fn shutdown(mut self, mut conn: Conn) {
        let _ = conn.exchange(
            b"POST /admin/shutdown HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n",
        );
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }
}

/// Builds the eb-serve binary from the checkout and returns its path.
fn build_eb_serve(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "eb-serve",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building eb-serve failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    Ok(target.join("release").join("eb-serve"))
}

/// The predict request for one input (keep-alive, `{:?}` floats so the
/// server parses exactly the tensor the reference saw).
fn predict_request(x: &Tensor) -> Vec<u8> {
    let body = x
        .as_slice()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(" ");
    let mut request = format!(
        "POST /v1/models/{TINY_NAME}:predict HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    request
}

/// One request as the generator saw it.
struct Rec {
    id: u64,
    intended: Instant,
    sent: Instant,
    done: Instant,
    lag_us: Option<f64>,
    status: u16,
    ok: bool,
}

/// Requests, expected logits, and the time base shared by both
/// generator threads.
struct Load<'a> {
    requests: &'a [Vec<u8>],
    want: &'a [Tensor],
}

impl Load<'_> {
    fn send(&self, conn: &mut Conn, id: u64, intended: Instant) -> Rec {
        let i = id as usize % self.requests.len();
        let sent = Instant::now();
        let reply = conn.exchange_or_reconnect(&self.requests[i]);
        let done = Instant::now();
        let (status, ok) = match reply {
            Ok((status, body)) => (
                status,
                status == 200
                    && parse_logits(&body)
                        .is_some_and(|l| logits_match(&l, self.want[i].as_slice())),
            ),
            Err(_) => (0, false),
        };
        Rec {
            id,
            intended,
            sent,
            done,
            lag_us: None,
            status,
            ok,
        }
    }

    /// Open loop: generator `k` of 2 sends requests `k, k+2, …` at their
    /// scheduled instants.
    fn open_loop(&self, conn: &mut Conn, k: u64, n: u64, first_id: u64, t0: Instant) -> Vec<Rec> {
        let mut recs: Vec<Rec> = Vec::new();
        for i in (k..n).step_by(2) {
            let intended = t0 + Duration::from_secs_f64(i as f64 / LIGHT_RATE);
            sleep_until(intended);
            // No request goes out before the previous reply on its
            // connection is in: that wait is server backlog. Whatever
            // follows the later of the two instants is generator lag.
            let free = recs.last().map_or(intended, |r| r.done.max(intended));
            let mut rec = self.send(conn, first_id + i, intended);
            rec.lag_us = Some(rec.sent.saturating_duration_since(free).as_secs_f64() * 1e6);
            recs.push(rec);
        }
        recs
    }

    /// Closed loop: one request outstanding until `end`.
    fn closed_loop(&self, conn: &mut Conn, k: u64, first_id: u64, end: Instant) -> Vec<Rec> {
        let mut recs = Vec::new();
        let mut id = first_id + k;
        while Instant::now() < end {
            recs.push(self.send(conn, id, Instant::now()));
            id += 2;
        }
        recs
    }
}

fn phase_from(recs: &mut [Rec]) -> Phase {
    recs.sort_unstable_by_key(|r| r.id);
    let requests = recs
        .iter()
        .map(|r| (r.ok, (r.done - r.intended).as_secs_f64() * 1e6, r.lag_us));
    Phase::new(requests, lag_bound_us(LIGHT_RATE / 2.0), 2)
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    match conn.get("/metrics") {
        Ok((200, body)) => Ok(Scrape::parse(&body)),
        other => Err(format!("GET /metrics failed: {other:?}")),
    }
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let binary = build_eb_serve(&cfg.root)?;
    let net = tiny_net();
    let model = cfg.out_dir.join("edge-tiny.ebm");
    einstein_barrier::artifact::write_model(&model, &net, None)
        .map_err(|e| format!("cannot write {model:?}: {e}"))?;
    let inputs = edge_inputs(cfg.seed, INPUTS);
    let want = reference(&net, &inputs);
    let requests: Vec<Vec<u8>> = inputs.iter().map(predict_request).collect();
    let load = Load {
        requests: &requests,
        want: &want,
    };

    // Set-up: start → model served. The host's speed drifts over tens of
    // seconds, so set-up is timed before the load, between its phases
    // and after it. The first start, which pages the binary in, is not
    // timed.
    Served::spawn(&binary, &model)?.kill();
    let mut setup = Vec::with_capacity(3 * SETUP_BURST + 1);
    let time_setup = |setup: &mut Vec<f64>| -> Result<Served, String> {
        let t = Instant::now();
        let served = Served::spawn(&binary, &model)?;
        setup.push(t.elapsed().as_secs_f64());
        Ok(served)
    };
    let burst = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_BURST {
            time_setup(setup)?.kill();
        }
        Ok(())
    };
    burst(&mut setup)?;
    let served = time_setup(&mut setup)?;
    let result = drive(cfg, &load, served.addr, spans, &mut || burst(&mut setup));
    let rss_mb = peak_rss_mb(&served.child.id().to_string()).unwrap_or(0.0);
    let (mut outcome, conn) = match result {
        Ok(ok) => ok,
        Err(e) => {
            let mut served = served;
            served.kill();
            return Err(e);
        }
    };
    served.shutdown(conn);
    burst(&mut setup)?;
    outcome.setup_s = mid_mean(&setup);
    outcome.rss_mb = rss_mb;
    Ok(outcome)
}

/// Warm-up, light and peak phases against a serving eb-serve, calling
/// `between` between the two phases; returns the outcome and a live
/// connection for the shutdown request.
fn drive(
    cfg: &RunConfig,
    load: &Load,
    addr: SocketAddr,
    spans: &mut Spans,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(Outcome, Conn), String> {
    let connect = || Conn::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"));
    let (mut c0, mut c1) = (connect()?, connect()?);

    let warm_end = Instant::now() + Duration::from_millis(500);
    let warm = load.closed_loop(&mut c0, 0, 0, warm_end);
    if warm.iter().any(|r| !r.ok) {
        return Err("warm-up request failed or mismatched".to_owned());
    }
    let scrape0 = if cfg.trace {
        Some(scrape(&mut c0)?)
    } else {
        None
    };

    let light_s = cfg.seconds * LIGHT_SHARE;
    let n = (LIGHT_RATE * light_s).round() as u64;
    let t0 = Instant::now() + Duration::from_millis(10);
    let mut light_recs: Vec<Rec> = std::thread::scope(|s| {
        let other = s.spawn(|| load.open_loop(&mut c1, 1, n, 0, t0));
        let mut recs = load.open_loop(&mut c0, 0, n, 0, t0);
        recs.extend(other.join().expect("generator thread"));
        recs
    });
    let scrape1 = if cfg.trace {
        Some(scrape(&mut c0)?)
    } else {
        None
    };
    between()?;

    let peak_s = cfg.seconds - light_s;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(peak_s);
    let mut peak_recs: Vec<Rec> = std::thread::scope(|s| {
        let other = s.spawn(|| load.closed_loop(&mut c1, 1, n, end));
        let mut recs = load.closed_loop(&mut c0, 0, n, end);
        recs.extend(other.join().expect("generator thread"));
        recs
    });
    let light = phase_from(&mut light_recs);
    let mut peak = phase_from(&mut peak_recs);
    peak.rps = Window::between(peak_recs.iter().map(|r| r.done).collect(), 2, end).rate();

    let mut outcome = Outcome {
        light,
        peak,
        ..Outcome::default()
    };
    if let (Some(s0), Some(s1)) = (scrape0, scrape1) {
        let s2 = scrape(&mut c0)?;
        for r in light_recs.iter().chain(&peak_recs) {
            spans.record("client", r.sent, r.done, None, Some(r.id));
        }
        let non_2xx = light_recs
            .iter()
            .chain(&peak_recs)
            .filter(|r| !(200..300).contains(&r.status))
            .count() as f64;
        // Timed from the send instant, not the intended one: a wait for
        // the previous reply on the connection is server backlog, not
        // wire time.
        let served: Vec<f64> = light_recs
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.done - r.sent).as_secs_f64() * 1e6)
            .collect();
        let client_mean_us = served.iter().sum::<f64>() / served.len().max(1) as f64;
        outcome.layers = edge_layers(&s0, &s1, &s2, client_mean_us, non_2xx);
    }
    drop(c1);
    Ok((outcome, c0))
}

/// Per-layer metrics from the three scrapes around the light and peak
/// phases (light = s1 − s0, peak = s2 − s1), given the client's mean
/// light-phase send → reply time.
fn edge_layers(
    s0: &Scrape,
    s1: &Scrape,
    s2: &Scrape,
    client_mean_us: f64,
    non_2xx: f64,
) -> std::collections::BTreeMap<&'static str, f64> {
    let model = format!("model=\"{TINY_NAME}\"");
    let stage = |s: &Scrape, name: &str| {
        s.hist("eb_request_stage_us", &format!("{model},stage=\"{name}\""))
    };
    let light_stage = |name: &str| stage(s1, name).since(&stage(s0, name));
    let peak_stage = |name: &str| stage(s2, name).since(&stage(s1, name));
    let hist = |name: &str, a: &Scrape, b: &Scrape| -> PromHist {
        b.hist(name, &model).since(&a.hist(name, &model))
    };
    let delta = |name: &str| s2.total(name) - s0.total(name);

    let light_e2e = hist("eb_request_e2e_us", s0, s1);
    let peak_batch = hist("eb_batch_size", s1, s2).mean();
    let peak_exec = peak_stage("execute").mean();
    [
        ("net.parse_us.p50", light_stage("parse").quantile(0.5)),
        // Means, not p50s: the scrape's coarse buckets make a p50
        // difference meaningless, while its sum and count are exact.
        ("net.wire_us.mean", client_mean_us - light_e2e.mean()),
        ("net.errors", delta("eb_net_wire_errors_total") + non_2xx),
        ("serve.queue_us.p50", light_stage("queue").quantile(0.5)),
        ("serve.queue_us.p99", light_stage("queue").quantile(0.99)),
        (
            "serve.linger_us.p50",
            hist("eb_batch_linger_us", s0, s1).quantile(0.5),
        ),
        ("serve.batch_size.mean", peak_batch),
        (
            "serve.batch_fill",
            peak_batch / PoolConfig::default().max_batch as f64,
        ),
        ("serve.reply_us.p99", light_stage("reply").quantile(0.99)),
        ("serve.e2e_us.p50", light_e2e.quantile(0.5)),
        ("serve.shed", delta("eb_requests_shed_total")),
        (
            "session.execute_us.p50",
            light_stage("execute").quantile(0.5),
        ),
        (
            "session.execute_us_per_inf.peak",
            if peak_batch > 0.0 {
                peak_exec / peak_batch
            } else {
                0.0
            },
        ),
        // The ePCM substrate carries no WDM lanes.
        ("photonics.lane_fill.light", 0.0),
        ("photonics.lane_fill.peak", 0.0),
    ]
    .into_iter()
    .collect()
}
