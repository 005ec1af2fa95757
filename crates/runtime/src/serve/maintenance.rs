//! The serving maintenance loop: periodic canary probes over every
//! deployed model, with automatic healing on degradation.
//!
//! Analog serving hardware degrades *while serving* — cells die, drift
//! lowers conductances — and nothing in the request path notices until
//! predictions rot. A [`MaintenanceLoop`] is a thread owned by a
//! [`Server`](crate::Server) that closes the loop: every
//! [`MaintenanceConfig::interval`] it runs the configured
//! [`HealthProbe`] through each deployed model's pool **as ordinary
//! queue traffic** (sharded, coalesced, counted in
//! [`PoolStats`](crate::PoolStats) — probing is serving), and when a
//! model's canary agreement falls below the probe's floor it triggers
//! [`Server::heal`](crate::Server::heal): the model's pool is rebuilt
//! with its deployed baseline options (a reprogram onto fresh devices)
//! through the zero-dropped-tickets hot-swap path. Clients never see
//! the repair — only their accuracy coming back.

use crate::error::EbError;
use crate::health::HealthProbe;
use crate::serve::lock_recovering;
use crate::serve::registry::ServerInner;
use eb_telemetry::{Counter, Registry};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`](crate::Server) maintenance loop.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// How often every deployed model is probed.
    pub interval: Duration,
    /// The golden-canary probe run against each model; its floor is the
    /// degradation threshold.
    pub probe: HealthProbe,
    /// Whether a degraded model is automatically healed (pool rebuilt
    /// with its deployed baseline options). When `false` the loop only
    /// observes: degradations are counted and each pool's
    /// [`PoolStats::last_health`](crate::PoolStats::last_health)
    /// records the evidence.
    pub auto_heal: bool,
}

impl MaintenanceConfig {
    /// A loop probing every `interval` with `probe`, auto-healing on
    /// degradation.
    pub fn new(interval: Duration, probe: HealthProbe) -> Self {
        Self {
            interval,
            probe,
            auto_heal: true,
        }
    }

    /// Disables automatic healing: observe and count only.
    pub fn observe_only(mut self) -> Self {
        self.auto_heal = false;
        self
    }
}

/// Counters of a server's maintenance loops, snapshot via
/// [`Server::maintenance_stats`](crate::Server::maintenance_stats).
///
/// Each field is read from its `eb_maintenance_*_total` series in the
/// server's metrics registry, the only store of that count, so the
/// counts span every loop the server has run: stopping a loop and
/// starting another keeps counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Completed probe rounds (one round probes every deployed model).
    pub rounds: u64,
    /// Individual model probes that served to completion.
    pub probes: u64,
    /// Probes whose canary agreement fell below the floor.
    pub degradations: u64,
    /// Automatic heals that completed (pool rebuilt and swapped in).
    pub heals: u64,
    /// Probes or heals that failed outright (model retired mid-round,
    /// substrate prepare failure). The loop skips and carries on — a
    /// broken model must not stop maintenance of the healthy ones.
    pub failures: u64,
}

/// The shared half the maintenance thread and its owner both touch.
struct MaintenanceShared {
    /// `true` once the owner asked the thread to exit.
    stop: Mutex<bool>,
    /// Wakes the thread out of its interval sleep for prompt shutdown.
    wake: Condvar,
    counters: LoopCounters,
}

/// A running probe-and-heal thread (see the module docs). Owned by
/// [`Server`](crate::Server); stopping joins the thread.
pub(crate) struct MaintenanceLoop {
    shared: Arc<MaintenanceShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for MaintenanceLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintenanceLoop")
            .field("stats", &self.stats())
            .finish()
    }
}

impl MaintenanceLoop {
    /// Spawns the maintenance thread over a server's shared registry.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the thread cannot be spawned.
    pub(crate) fn start(
        server: Arc<ServerInner>,
        config: MaintenanceConfig,
    ) -> Result<Self, EbError> {
        let shared = Arc::new(MaintenanceShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            counters: LoopCounters::resolve(server.metrics()),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("eb-maintenance".into())
            .spawn(move || maintenance_loop(&server, &config, &thread_shared))
            .map_err(|e| EbError::Config(format!("cannot spawn maintenance thread: {e}")))?;
        Ok(Self {
            shared,
            thread: Some(thread),
        })
    }

    /// Snapshot of the server's maintenance counters.
    pub(crate) fn stats(&self) -> MaintenanceStats {
        self.shared.counters.snapshot()
    }

    /// Stops the thread (interrupting any interval sleep), joins it, and
    /// returns the final counters.
    pub(crate) fn stop(mut self) -> MaintenanceStats {
        self.signal_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.stats()
    }

    fn signal_stop(&self) {
        *lock_recovering(&self.shared.stop) = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for MaintenanceLoop {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Sleeps until `interval` has elapsed or a stop is signalled; returns
/// `false` on stop.
fn sleep_interval(shared: &MaintenanceShared, interval: Duration) -> bool {
    let deadline = Instant::now() + interval;
    let mut stop = lock_recovering(&shared.stop);
    loop {
        if *stop {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        stop = shared
            .wake
            .wait_timeout(stop, deadline - now)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Handles on the server's `eb_maintenance_*_total` series, one per
/// [`MaintenanceStats`] field — resolved once when the loop starts.
struct LoopCounters {
    rounds: Counter,
    probes: Counter,
    degradations: Counter,
    heals: Counter,
    failures: Counter,
}

impl LoopCounters {
    fn resolve(registry: &Registry) -> Self {
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        Self {
            rounds: counter(
                "eb_maintenance_rounds_total",
                "Completed maintenance probe rounds.",
            ),
            probes: counter(
                "eb_maintenance_probes_total",
                "Model probes served to completion by the maintenance loop.",
            ),
            degradations: counter(
                "eb_maintenance_degradations_total",
                "Probes whose canary agreement fell below the floor.",
            ),
            heals: counter(
                "eb_maintenance_heals_total",
                "Automatic heals completed by the maintenance loop.",
            ),
            failures: counter(
                "eb_maintenance_failures_total",
                "Maintenance probes or heals that failed outright.",
            ),
        }
    }

    fn snapshot(&self) -> MaintenanceStats {
        MaintenanceStats {
            rounds: self.rounds.get(),
            probes: self.probes.get(),
            degradations: self.degradations.get(),
            heals: self.heals.get(),
            failures: self.failures.get(),
        }
    }
}

/// The thread body: probe every model, heal the degraded ones, repeat.
fn maintenance_loop(server: &ServerInner, config: &MaintenanceConfig, shared: &MaintenanceShared) {
    let counters = &shared.counters;
    while sleep_interval(shared, config.interval) {
        for name in server.model_names() {
            // Probe as ordinary traffic through the model's current pool.
            let report = match server.probe_model(&name, &config.probe) {
                Ok(report) => report,
                Err(_) => {
                    // Retired mid-round or serving failure: skip it; the
                    // other models still get their checkup.
                    counters.failures.inc();
                    continue;
                }
            };
            counters.probes.inc();
            if report.is_healthy() {
                continue;
            }
            counters.degradations.inc();
            if !config.auto_heal {
                continue;
            }
            match server.heal(&name) {
                Ok(_) => counters.heals.inc(),
                Err(_) => counters.failures.inc(),
            }
        }
        counters.rounds.inc();
    }
}
