//! The network edge: a hand-rolled HTTP/1.1 serving frontend over
//! `std::net`, built for graceful degradation under overload.
//!
//! [`NetServer`] binds a TCP listener in front of a multi-model
//! [`Server`](crate::Server) registry and maps
//! `POST /v1/models/{name}:predict` request bodies onto serving tickets
//! — deadline and priority ride in as headers (`x-eb-deadline-ms`,
//! `x-eb-priority`). The design is three thread roles over the same
//! [`DynamicBatcher`](crate::DynamicBatcher) machinery the pools use:
//!
//! * **One acceptor** blocks in `accept()` and *non-blockingly* offers
//!   each connection to a bounded connection queue. A full queue sheds
//!   the connection with a canned `503` — the acceptor itself never
//!   waits on anything downstream.
//! * **N connection workers** pull connections off the queue, parse
//!   requests (size-capped head and body, per-connection read/write
//!   timeouts — slowloris and oversized clients are bounded), and
//!   submit through [`ModelHandle::try_submit`](crate::ModelHandle::try_submit):
//!   a saturated pool answers `503 + Retry-After` immediately instead
//!   of stalling the worker on queue backpressure.
//! * **Panic isolation**: each connection is handled under
//!   `catch_unwind`, and a worker thread that dies anyway is respawned
//!   by a drop guard — one poisoned connection never takes the
//!   listener down.
//!
//! Shutdown is a graceful drain with the same zero-dropped-tickets
//! contract as a hot swap: stop accepting, serve every connection
//! already accepted, finish in-flight tickets, join every thread.
//!
//! `GET /metrics` exposes the served
//! [`Server`](crate::serve::Server)'s whole metrics registry in Prometheus
//! text exposition format — frontend wire counters (`eb_net_*`,
//! including wire-error classes and an open-connection gauge)
//! alongside the per-model serving series — and `GET /healthz`
//! reports uptime and accepted/served/shed totals as JSON. Predict
//! requests are stage-traced end to end: accepted → parsed →
//! enqueued → batched → executed → replied, scrapeable as
//! `eb_request_stage_us{model,stage}` histograms.
//!
//! ```no_run
//! use eb_runtime::net::{NetConfig, NetServer};
//! use eb_runtime::Server;
//! use std::sync::Arc;
//!
//! # fn demo(net: &eb_bitnn::Bnn) -> Result<(), eb_runtime::EbError> {
//! let registry = Arc::new(Server::builder().model("demo", net).serve()?);
//! let server = NetServer::bind(Arc::clone(&registry), NetConfig::default())?;
//! println!("listening on http://{}", server.local_addr());
//! // ... traffic ...
//! let stats = server.shutdown(); // graceful drain
//! assert_eq!(stats.responses_5xx, 0);
//! # Ok(())
//! # }
//! ```

mod frontend;
mod http;
mod router;

pub use frontend::{NetConfig, NetServer, NetStats};
pub use http::{read_request, write_response, HttpRequest, WireError, WireLimits};
