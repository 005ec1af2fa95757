//! End-to-end telemetry reconciliation: concurrent HTTP clients hammer
//! a small pool, then a `GET /metrics` scrape must account for every
//! submitted request exactly — ok + shed + rejected + errors ==
//! submitted, and every per-stage histogram holds exactly one
//! observation per delivered response. Served counters are recorded
//! *before* a client's response is released, so a scrape taken after
//! the last response can never under-count.

use einstein_barrier::bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
use einstein_barrier::runtime::net::WireLimits;
use einstein_barrier::{NetConfig, NetServer, NetStats, PoolConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 40;

fn mlp(name: &'static str, seed: u64) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    Bnn::new(
        name,
        Shape::Flat(16),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 16, 12, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 12, 10, &mut rng)),
            Layer::Output(OutputLinear::random("out", 10, 4, &mut rng)),
        ],
    )
    .unwrap()
}

fn test_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        conn_backlog: 64,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        limits: WireLimits::default(),
        retry_after_secs: 1,
        chaos: false,
    }
}

/// One `Connection: close` exchange; (status, head, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let _ = stream.write_all(request.as_bytes());
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
        .parse()
        .unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no head/body split in {response:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn predict_request(model: &str, x: &Tensor) -> String {
    let body = x
        .as_slice()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "POST /v1/models/{model}:predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Value of one exposition series, e.g.
/// `series_value(&text, r#"eb_requests_served_total{model="m"}"#)`.
fn series_value(exposition: &str, series: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .find_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            if name == series {
                value.parse().ok()
            } else {
                None
            }
        })
}

/// What each client tallied from the responses it actually read.
#[derive(Default, Clone, Copy)]
struct Tally {
    ok: u64,
    shed: u64,
    unavailable: u64,
    errors: u64,
}

#[test]
fn concurrent_clients_reconcile_exactly_with_metrics_scrape() {
    let net = mlp("m", 3);
    let registry = Arc::new(
        Server::builder()
            .pool(PoolConfig {
                replicas: 1,
                max_batch: 2,
                max_wait: Duration::from_micros(50),
                queue_capacity: 2,
            })
            .model("m", &net)
            .serve()
            .unwrap(),
    );
    let server = NetServer::bind(Arc::clone(&registry), test_config()).unwrap();
    let addr = server.local_addr();

    let tallies: Vec<Tally> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut tally = Tally::default();
                for i in 0..REQUESTS_PER_CLIENT {
                    let x = Tensor::from_fn(&[16], |j| ((j * 7 + c * 13 + i) as f32 * 0.11).sin());
                    let (status, _head, body) = exchange(addr, &predict_request("m", &x));
                    match status {
                        200 => tally.ok += 1,
                        // Pool-queue shed vs closed-pool 503 vs the
                        // acceptor's connection shed: distinguished by
                        // body, matching the distinct counters.
                        503 if body.contains("serving queue at capacity") => tally.shed += 1,
                        503 => tally.unavailable += 1,
                        _ => tally.errors += 1,
                    }
                }
                tally
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    let total = tallies.iter().fold(Tally::default(), |a, t| Tally {
        ok: a.ok + t.ok,
        shed: a.shed + t.shed,
        unavailable: a.unavailable + t.unavailable,
        errors: a.errors + t.errors,
    });
    // Every submitted request got exactly one classified answer.
    assert_eq!(
        total.ok + total.shed + total.unavailable + total.errors,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert!(total.ok > 0, "no request succeeded");
    assert_eq!(total.errors, 0, "unexpected non-503 failures");

    // Scrape after the last response was read: the registry must
    // already account for all of them.
    let (status, head, metrics) = exchange(
        addr,
        "GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{metrics}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "wrong content type: {head}"
    );

    // Every sample line is "<series> <float>"; HELP/TYPE precede each
    // family (full grammar is proptested in eb-telemetry).
    for line in metrics.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (_series, value) = line.rsplit_once(' ').expect("sample line without value");
        value.parse::<f64>().unwrap_or_else(|_| {
            panic!("unparseable sample value in line: {line}");
        });
    }

    let series = |s: &str| {
        series_value(&metrics, s).unwrap_or_else(|| panic!("series {s} missing from scrape"))
    };
    // Pool counters reconcile exactly with what the clients observed.
    assert_eq!(
        series(r#"eb_requests_served_total{model="m"}"#),
        total.ok as f64
    );
    assert_eq!(
        series(r#"eb_requests_shed_total{model="m"}"#),
        total.shed as f64
    );
    assert_eq!(
        series(r#"eb_requests_rejected_total{model="m"}"#),
        total.unavailable as f64
    );
    // Every delivered response contributed exactly one observation to
    // every stage histogram and the e2e histogram.
    for stage in ["parse", "queue", "batch", "execute", "reply"] {
        assert_eq!(
            series(&format!(
                r#"eb_request_stage_us_count{{model="m",stage="{stage}"}}"#
            )),
            total.ok as f64,
            "stage {stage}"
        );
    }
    assert_eq!(
        series(r#"eb_request_e2e_us_count{model="m"}"#),
        total.ok as f64
    );
    // Frontend wire counters: every exchange above was one accepted
    // connection and one parsed request (predicts + this scrape; the
    // scrape itself is counted at snapshot time inside its own render,
    // so it appears as >= the predict total).
    let submitted = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    assert!(series("eb_net_requests_total") >= submitted);
    assert!(series("eb_net_connections_accepted_total") >= submitted);
    assert_eq!(series("eb_net_requests_shed_total"), total.shed as f64);
    assert!(series("eb_net_uptime_seconds") > 0.0);

    // /healthz reports uptime and the same headline totals as JSON.
    let (status, _head, health) = exchange(
        addr,
        "GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    for key in [
        "\"status\":\"ok\"",
        "\"uptime_secs\":",
        "\"accepted\":",
        "\"served\":",
        "\"shed\":",
    ] {
        assert!(health.contains(key), "{key} missing from {health}");
    }

    // One store per fact: every `NetStats` field is read from its
    // `eb_net_*` series, so the frontend's stats and a render of the
    // registry agree field by field once traffic has stopped.
    let stats = server.stats();
    let text = registry.telemetry().expect("registry").render();
    let series = |s: &str| {
        series_value(&text, s).unwrap_or_else(|| panic!("series {s} missing from render")) as u64
    };
    let scraped = NetStats {
        accepted: series("eb_net_connections_accepted_total"),
        shed_connections: series("eb_net_connections_shed_total"),
        requests: series("eb_net_requests_total"),
        responses_2xx: series(r#"eb_net_responses_total{class="2xx"}"#),
        responses_4xx: series(r#"eb_net_responses_total{class="4xx"}"#),
        responses_5xx: series(r#"eb_net_responses_total{class="5xx"}"#),
        shed_requests: series("eb_net_requests_shed_total"),
        worker_panics: series("eb_net_worker_panics_total"),
        worker_respawns: series("eb_net_worker_respawns_total"),
    };
    assert_eq!(stats, scraped);
    assert_eq!(
        stats.requests,
        submitted as u64 + 2,
        "predicts + scrape + healthz"
    );
    assert_eq!(stats.shed_requests, total.shed);

    server.shutdown();
}
