//! Maps parsed [`HttpRequest`]s onto the serving registry: route
//! dispatch, predict-body parsing, and error→status translation.
//!
//! Routing is pure with respect to the connection — it consumes a
//! request and produces a [`Response`] plus a control [`Action`]; all
//! socket handling stays in the frontend.

use crate::error::EbError;
use crate::net::frontend::NetCounters;
use crate::net::http::HttpRequest;
use crate::serve::{Priority, Request, Server};
use crate::session::predicted_class;
use eb_bitnn::Tensor;
use eb_telemetry::{LatencyHistogram, Stage, Trace};
use std::time::{Duration, Instant};

/// Per-request context the frontend hands to [`route`]: config knobs,
/// the live frontend counters (read only by `/healthz`), and the
/// request's stage trace.
#[derive(Debug)]
pub(crate) struct RouteCtx<'a> {
    /// Whether `POST /admin/panic` is routable.
    pub chaos: bool,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// When the frontend bound its listener (the uptime origin).
    pub started: Instant,
    /// The frontend's live counters.
    pub net: &'a NetCounters,
    /// The request's trace, stamped [`Stage::Accepted`] right after it
    /// left the wire; predict stamps [`Stage::Parsed`] and threads it
    /// onto the ticket.
    pub trace: Trace,
}

/// A response the frontend still has to serialise.
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON or plain text, per `content_type`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` header value in seconds, on shed responses.
    pub retry_after: Option<u32>,
    /// Whether this response is a load-shed (counts toward
    /// `NetStats::shed_requests`).
    pub shed: bool,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
            shed: false,
        }
    }

    fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            body: body.to_owned(),
            content_type: "text/plain",
            retry_after: None,
            shed: false,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!(r#"{{"error":{}}}"#, json_string(message)))
    }
}

/// What the connection loop should do after writing the response.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// Keep serving the connection.
    None,
    /// Begin graceful server shutdown (`POST /admin/shutdown`).
    Shutdown,
    /// Panic on purpose (`POST /admin/panic`, chaos mode only) to
    /// exercise worker respawn. The frontend panics *after* routing so
    /// the panic unwinds through the real connection-handling path.
    Panic,
}

/// JSON string literal for `s` (quotes included).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a predict body — floats separated by whitespace, commas,
/// and/or brackets, so both `1 2 3` and `[1.0, 2.0, 3.0]` work.
fn parse_input(body: &[u8]) -> Result<Tensor, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let mut values = Vec::new();
    for token in text.split(|c: char| c.is_whitespace() || matches!(c, ',' | '[' | ']')) {
        if token.is_empty() {
            continue;
        }
        let v: f32 = token
            .parse()
            .map_err(|_| format!("unparseable input value {token:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite input value {token:?}"));
        }
        values.push(v);
    }
    if values.is_empty() {
        return Err("empty input; send whitespace- or comma-separated floats".to_owned());
    }
    let n = values.len();
    Ok(Tensor::from_vec(&[n], values))
}

/// Builds serving options from the `x-eb-deadline-ms` / `x-eb-priority`
/// request headers.
fn request_opts(req: &HttpRequest) -> Result<(Option<Duration>, Priority), String> {
    let deadline = match req.header("x-eb-deadline-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = v
                .trim()
                .parse()
                .map_err(|_| format!("unparseable x-eb-deadline-ms {v:?}"))?;
            Some(Duration::from_millis(ms))
        }
    };
    let priority = match req.header("x-eb-priority") {
        None => Priority::Normal,
        Some(v) => match v.trim().to_ascii_lowercase().as_str() {
            "high" => Priority::High,
            "normal" => Priority::Normal,
            "low" => Priority::Low,
            other => {
                return Err(format!(
                    "unknown x-eb-priority {other:?}; expected high|normal|low"
                ))
            }
        },
    };
    Ok((deadline, priority))
}

/// `{:?}` on f32 prints the shortest string that round-trips, so the
/// JSON logits are bit-exact for any client that parses them back.
fn json_f32_array(values: &[f32]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v:?}"));
    }
    out.push(']');
    out
}

/// `POST /v1/models/{name}:predict`.
fn predict(registry: &Server, name: &str, req: &HttpRequest, ctx: &RouteCtx) -> Response {
    let x = match parse_input(&req.body) {
        Ok(x) => x,
        Err(msg) => return Response::error(400, &msg),
    };
    let (deadline, priority) = match request_opts(req) {
        Ok(opts) => opts,
        Err(msg) => return Response::error(400, &msg),
    };
    let handle = match registry.handle(name) {
        Ok(h) => h,
        Err(e) => return Response::error(404, &e.to_string()),
    };
    let mut submit = Request::new(x).priority(priority);
    if let Some(d) = deadline {
        submit = submit.deadline(d);
    }
    let mut trace = ctx.trace;
    trace.stamp(Stage::Parsed);
    submit = submit.trace(trace);
    let ticket = match handle.try_submit(submit) {
        Ok(t) => t,
        Err(EbError::Overloaded) => {
            let mut resp = Response::error(503, "serving queue at capacity; retry later");
            resp.retry_after = Some(ctx.retry_after_secs);
            resp.shed = true;
            return resp;
        }
        // Closed pool (shutdown/retire race) — unavailable, but not a
        // shed: no Retry-After and no shed accounting.
        Err(e) => return Response::error(503, &e.to_string()),
    };
    match ticket.wait() {
        Ok(logits) => {
            let class = match predicted_class(&logits) {
                Ok(c) => c,
                Err(e) => return Response::error(500, &e.to_string()),
            };
            Response::json(
                200,
                format!(
                    r#"{{"model":{},"class":{},"logits":{}}}"#,
                    json_string(name),
                    class,
                    json_f32_array(logits.as_slice())
                ),
            )
        }
        Err(EbError::DeadlineExceeded) => {
            Response::error(504, "deadline passed before a replica served the request")
        }
        Err(e @ (EbError::Bitnn(_) | EbError::Config(_))) => Response::error(400, &e.to_string()),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// One stage histogram as a JSON summary object.
fn json_stage_summary(h: &LatencyHistogram) -> String {
    format!(
        r#"{{"count":{},"p50_us":{},"p99_us":{},"max_us":{}}}"#,
        h.count(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max()
    )
}

/// `GET /v1/models/{name}:stats` — the pool counters as JSON, plus a
/// per-stage latency block.
fn stats(registry: &Server, name: &str) -> Response {
    match registry.stats(name) {
        Ok(stats) => {
            let total = stats.total();
            // A model retired between the two reads answers without
            // its stage block.
            let stages = match registry.stage_histograms(name) {
                Ok(st) => {
                    let entries: Vec<String> = st
                        .stages()
                        .iter()
                        .map(|(stage, h)| {
                            format!("{}:{}", json_string(stage), json_stage_summary(h))
                        })
                        .collect();
                    format!(r#","stages":{{{}}}"#, entries.join(","))
                }
                Err(_) => String::new(),
            };
            Response::json(
                200,
                format!(
                    concat!(
                        r#"{{"model":{},"replicas":{},"inferences":{},"#,
                        r#""micro_batches":{},"shed":{},"rejected":{},"queue_depth":{},"#,
                        r#""prepare_ns":{},"core_bytes":{},"replica_bytes":{}{}}}"#
                    ),
                    json_string(name),
                    stats.per_replica.len(),
                    total.inferences,
                    stats.total_micro_batches(),
                    stats.shed,
                    stats.rejected,
                    stats.queue_depth,
                    stats.prepare_ns,
                    stats.core_bytes,
                    stats.replica_bytes,
                    stages
                ),
            )
        }
        Err(e) => Response::error(404, &e.to_string()),
    }
}

/// `GET /metrics` — the whole registry in Prometheus text exposition
/// format 0.0.4.
fn metrics(registry: &Server, ctx: &RouteCtx) -> Response {
    // Stamped at scrape time, so the gauge is exact for the scraper
    // that just read it.
    ctx.net.uptime.set(ctx.started.elapsed().as_secs_f64());
    Response {
        status: 200,
        body: registry.metrics().render(),
        content_type: "text/plain; version=0.0.4",
        retry_after: None,
        shed: false,
    }
}

/// `GET /healthz` — liveness plus the headline frontend totals.
fn healthz(ctx: &RouteCtx) -> Response {
    let net = ctx.net.snapshot();
    Response::json(
        200,
        format!(
            concat!(
                r#"{{"status":"ok","uptime_secs":{:.3},"accepted":{},"#,
                r#""served":{},"shed":{}}}"#
            ),
            ctx.started.elapsed().as_secs_f64(),
            net.accepted,
            net.responses_2xx,
            net.shed_connections + net.shed_requests
        ),
    )
}

/// Dispatches one parsed request against the registry.
pub(crate) fn route(registry: &Server, req: &HttpRequest, ctx: &RouteCtx) -> (Response, Action) {
    let path = req.target.split('?').next().unwrap_or(&req.target);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => (healthz(ctx), Action::None),
        ("GET", "/metrics") => (metrics(registry, ctx), Action::None),
        ("GET", "/v1/models") => {
            // File-loaded models carry their container's provenance;
            // checksums render as fixed-width hex so clients can diff
            // them against `eb-model inspect` output.
            let entries: Vec<String> = registry
                .model_infos()
                .iter()
                .map(|(name, artifact)| match artifact {
                    Some(info) => format!(
                        r#"{{"name":{},"artifact":{{"version":{},"checksum":"{:#018x}"}}}}"#,
                        json_string(name),
                        info.version,
                        info.checksum
                    ),
                    None => format!(r#"{{"name":{}}}"#, json_string(name)),
                })
                .collect();
            (
                Response::json(200, format!(r#"{{"models":[{}]}}"#, entries.join(","))),
                Action::None,
            )
        }
        ("POST", "/admin/shutdown") => (Response::text(200, "draining\n"), Action::Shutdown),
        ("POST", "/admin/panic") if ctx.chaos => {
            (Response::text(200, "panicking\n"), Action::Panic)
        }
        (method, path) => {
            if let Some(name) = path
                .strip_prefix("/v1/models/")
                .and_then(|rest| rest.strip_suffix(":predict"))
            {
                return match method {
                    "POST" => (predict(registry, name, req, ctx), Action::None),
                    _ => (Response::error(405, "predict requires POST"), Action::None),
                };
            }
            if let Some(name) = path
                .strip_prefix("/v1/models/")
                .and_then(|rest| rest.strip_suffix(":stats"))
            {
                return match method {
                    "GET" => (stats(registry, name), Action::None),
                    _ => (Response::error(405, "stats requires GET"), Action::None),
                };
            }
            (
                Response::error(404, &format!("no route for {path}")),
                Action::None,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_control_and_quote_characters() {
        assert_eq!(json_string("plain"), r#""plain""#);
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("x\ny\u{1}"), "\"x\\ny\\u0001\"");
    }

    #[test]
    fn parse_input_accepts_bare_and_json_style_bodies() {
        assert_eq!(
            parse_input(b"1 2.5 -3").unwrap().as_slice(),
            &[1.0, 2.5, -3.0]
        );
        assert_eq!(
            parse_input(b"[0.25, -1e2,\n 7]").unwrap().as_slice(),
            &[0.25, -100.0, 7.0]
        );
        assert!(parse_input(b"").is_err());
        assert!(parse_input(b"1 two 3").is_err());
        assert!(parse_input(b"nan").is_err());
        assert!(parse_input(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn f32_json_round_trips_bit_exactly() {
        let values = [0.1f32, -3.4028235e38, 1e-45, 0.0, 7.25];
        let json = json_f32_array(&values);
        let parsed: Vec<f32> = json
            .trim_matches(['[', ']'])
            .split(',')
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(parsed, values);
    }
}
