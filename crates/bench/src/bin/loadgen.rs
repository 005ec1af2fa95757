//! `loadgen` — open-loop HTTP load generator for the eb-serve frontend.
//!
//! Open-loop means arrivals follow a fixed schedule derived from the
//! target QPS, *independent of response latency* — a slow server does
//! not slow the generator down, so overload actually overloads (a
//! closed loop would self-throttle and hide the very tail this harness
//! exists to measure). Latency is measured from each request's
//! *intended* arrival instant, which also charges coordinated omission
//! to the server.
//!
//! ```text
//! cargo run --release -p eb-bench --bin loadgen -- \
//!     --addr 127.0.0.1:8080 --model demo --qps 200 --duration-s 10 --json
//! ```

use eb_telemetry::LatencyHistogram;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    model: String,
    qps: f64,
    duration_s: f64,
    input: usize,
    deadline_ms: Option<u64>,
    priority: Option<String>,
    poisson: bool,
    seed: u64,
    wait_ready_s: f64,
    timeout_ms: u64,
    json: bool,
    min_ok: u64,
    min_shed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_owned(),
            model: "demo".to_owned(),
            qps: 50.0,
            duration_s: 5.0,
            input: 16,
            deadline_ms: None,
            priority: None,
            poisson: false,
            seed: 1,
            wait_ready_s: 10.0,
            timeout_ms: 10_000,
            json: false,
            min_ok: 0,
            min_shed: 0,
        }
    }
}

const USAGE: &str = "\
loadgen — open-loop load generator for eb-serve

USAGE: loadgen [OPTIONS]

  --addr HOST:PORT     target (default 127.0.0.1:8080)
  --model NAME         model to predict against (default demo)
  --qps F              offered load, requests/second (default 50)
  --duration-s F       generation window in seconds (default 5)
  --input N            input vector width (default 16)
  --deadline-ms N      send x-eb-deadline-ms header
  --priority P         send x-eb-priority header (high|normal|low)
  --poisson            exponential inter-arrivals instead of uniform
  --seed N             arrival/input RNG seed (default 1)
  --wait-ready-s F     poll /healthz this long before starting (default 10)
  --timeout-ms N       per-request connect/read/write timeout (default 10000)
  --json               emit the summary as one JSON object on stdout
  --min-ok N           exit 3 unless at least N requests got 200
  --min-shed N         exit 3 unless at least N requests were shed (503)
  --help               this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--model" => args.model = value("--model")?,
            "--qps" => args.qps = parse_num(&value("--qps")?, "--qps")?,
            "--duration-s" => args.duration_s = parse_num(&value("--duration-s")?, "--duration-s")?,
            "--input" => args.input = parse_num(&value("--input")?, "--input")?,
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_num(&value("--deadline-ms")?, "--deadline-ms")?);
            }
            "--priority" => args.priority = Some(value("--priority")?),
            "--poisson" => args.poisson = true,
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--wait-ready-s" => {
                args.wait_ready_s = parse_num(&value("--wait-ready-s")?, "--wait-ready-s")?;
            }
            "--timeout-ms" => args.timeout_ms = parse_num(&value("--timeout-ms")?, "--timeout-ms")?,
            "--json" => args.json = true,
            "--min-ok" => args.min_ok = parse_num(&value("--min-ok")?, "--min-ok")?,
            "--min-shed" => args.min_shed = parse_num(&value("--min-shed")?, "--min-shed")?,
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.qps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || args.duration_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err("--qps and --duration-s must be positive".to_owned());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("unparseable value {s:?} for {flag}"))
}

/// One request's fate, as classified from the response status line.
enum Outcome {
    /// 200 — served; payload is latency from intended arrival, in µs.
    Ok(u64),
    /// 503 — shed; payload is time-to-rejection in µs (the "fail fast"
    /// bound).
    Shed(u64),
    /// 504 — ticket deadline expired server-side.
    Deadline,
    /// Anything else: other statuses, connect failures, timeouts.
    Error,
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr:?} resolved to nothing"))
}

/// One full HTTP exchange (Connection: close); returns the status code.
fn http_once(addr: SocketAddr, timeout: Duration, request: &[u8]) -> Result<u16, std::io::Error> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let line = response.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let status = std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok());
    status.ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))
}

fn build_request(args: &Args, seed: u64) -> Vec<u8> {
    // Deterministic pseudo-random input in [-1, 1).
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let body = (0..args.input)
        .map(|_| format!("{:.4}", next()))
        .collect::<Vec<_>>()
        .join(" ");
    let mut head = format!(
        "POST /v1/models/{}:predict HTTP/1.1\r\nhost: loadgen\r\ncontent-length: {}\r\n",
        args.model,
        body.len()
    );
    if let Some(ms) = args.deadline_ms {
        head.push_str(&format!("x-eb-deadline-ms: {ms}\r\n"));
    }
    if let Some(p) = &args.priority {
        head.push_str(&format!("x-eb-priority: {p}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    let mut request = head.into_bytes();
    request.extend_from_slice(body.as_bytes());
    request
}

fn wait_ready(addr: SocketAddr, window: Duration) -> bool {
    let request = b"GET /healthz HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\r\n";
    let start = Instant::now();
    while start.elapsed() < window {
        if let Ok(200) = http_once(addr, Duration::from_millis(500), request) {
            return true;
        }
        thread::sleep(Duration::from_millis(100));
    }
    false
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let addr = resolve(&args.addr)?;
    if args.wait_ready_s > 0.0 && !wait_ready(addr, Duration::from_secs_f64(args.wait_ready_s)) {
        return Err(format!(
            "server at {addr} not ready within {}s",
            args.wait_ready_s
        ));
    }

    // Arrival schedule, fixed up front: uniform spacing or exponential
    // (Poisson process) inter-arrivals at the same mean rate.
    let n = (args.qps * args.duration_s).round().max(1.0) as usize;
    let mut offsets = Vec::with_capacity(n);
    let mut t = 0.0f64;
    let mut state = args
        .seed
        .wrapping_mul(0x2545f4914f6cdd1d)
        .wrapping_add(0xb5);
    for _ in 0..n {
        if args.poisson {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            t += -u.ln() / args.qps;
        } else {
            t += 1.0 / args.qps;
        }
        offsets.push(Duration::from_secs_f64(t));
    }

    let timeout = Duration::from_millis(args.timeout_ms);
    let (tx, rx) = mpsc::channel::<Outcome>();
    let start = Instant::now();
    let mut spawned = Vec::with_capacity(n);
    for (i, offset) in offsets.into_iter().enumerate() {
        let now = start.elapsed();
        if offset > now {
            thread::sleep(offset - now);
        }
        // Open loop: the request runs on its own thread; this scheduler
        // immediately returns to pacing the next arrival.
        let tx = tx.clone();
        let request = build_request(args, args.seed.wrapping_add(i as u64));
        let intended = start + offset;
        spawned.push(thread::spawn(move || {
            let outcome = match http_once(addr, timeout, &request) {
                Ok(200) => Outcome::Ok(intended.elapsed().as_micros() as u64),
                Ok(503) => Outcome::Shed(intended.elapsed().as_micros() as u64),
                Ok(504) => Outcome::Deadline,
                Ok(_) | Err(_) => Outcome::Error,
            };
            let _ = tx.send(outcome);
        }));
    }
    drop(tx);

    let mut ok_hist = LatencyHistogram::new();
    let mut shed_hist = LatencyHistogram::new();
    let (mut deadline, mut errors) = (0u64, 0u64);
    for outcome in rx {
        match outcome {
            Outcome::Ok(us) => ok_hist.record(us),
            Outcome::Shed(us) => shed_hist.record(us),
            Outcome::Deadline => deadline += 1,
            Outcome::Error => errors += 1,
        }
    }
    for handle in spawned {
        let _ = handle.join();
    }
    let wall = start.elapsed().as_secs_f64();

    let sent = n as u64;
    let ok = ok_hist.count();
    let shed = shed_hist.count();
    let shed_rate = shed as f64 / sent as f64;
    if args.json {
        println!(
            concat!(
                r#"{{"addr":"{}","model":"{}","offered_qps":{},"sent":{},"wall_s":{:.3},"#,
                r#""ok":{},"shed":{},"deadline":{},"errors":{},"served_qps":{:.1},"#,
                r#""shed_rate":{:.4},"latency_us":{{"p50":{},"p90":{},"p99":{},"p999":{},"#,
                r#""mean":{:.0},"max":{}}},"shed_us":{{"p50":{},"p99":{}}}}}"#
            ),
            args.addr,
            args.model,
            args.qps,
            sent,
            wall,
            ok,
            shed,
            deadline,
            errors,
            ok as f64 / wall,
            shed_rate,
            ok_hist.quantile(0.50),
            ok_hist.quantile(0.90),
            ok_hist.quantile(0.99),
            ok_hist.quantile(0.999),
            ok_hist.mean(),
            ok_hist.max(),
            shed_hist.quantile(0.50),
            shed_hist.quantile(0.99),
        );
    } else {
        println!(
            "loadgen: offered {:.0} qps for {:.1}s → sent={} ok={} shed={} ({:.1}%) \
             deadline={} errors={}",
            args.qps,
            wall,
            sent,
            ok,
            shed,
            shed_rate * 100.0,
            deadline,
            errors,
        );
        println!(
            "loadgen: served latency µs: p50={} p90={} p99={} p999={} mean={:.0} max={}",
            ok_hist.quantile(0.50),
            ok_hist.quantile(0.90),
            ok_hist.quantile(0.99),
            ok_hist.quantile(0.999),
            ok_hist.mean(),
            ok_hist.max(),
        );
        if shed > 0 {
            println!(
                "loadgen: time-to-shed µs: p50={} p99={} (fail-fast bound)",
                shed_hist.quantile(0.50),
                shed_hist.quantile(0.99),
            );
        }
    }

    if ok < args.min_ok {
        eprintln!("loadgen: FAIL ok={} < --min-ok {}", ok, args.min_ok);
        return Ok(ExitCode::from(3));
    }
    if shed < args.min_shed {
        eprintln!("loadgen: FAIL shed={} < --min-shed {}", shed, args.min_shed);
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("loadgen: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("loadgen: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
