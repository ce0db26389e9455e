//! `gef-serve`: a never-panic explanation service over preloaded
//! forests.
//!
//! A zero-dependency `std::net` HTTP/1.1 server that turns the
//! single-run SLO machinery built across the workspace — the
//! degradation ladder, run budgets, incident dumps, the flight
//! recorder — into a long-lived concurrent service:
//!
//! * `POST /explain` — run the GEF pipeline over a preloaded model and
//!   return the **local explanation** of the posted instance (additive
//!   per-term contributions with standard errors), plus the run's
//!   fidelity, degradation history, and budget outcome.
//! * `POST /predict` — raw forest prediction for the posted instance.
//! * `GET /healthz` — liveness (`serving` / `draining`).
//! * `GET /stats` — request counters, latency quantiles (p50/p95/p99),
//!   a rolling last-minute SLO window, queue depth, and circuit-breaker
//!   state.
//! * `GET /metrics` — the same signals as Prometheus text exposition
//!   (format 0.0.4): counters, per-status response tallies, a
//!   latency histogram on a power-of-two `le` ladder, 1-min/5-min SLO
//!   windows, and store gauges.
//! * `GET /models` — loaded models with their content digests and —
//!   when the server is store-backed ([`Server::start_with_store`] /
//!   `gef-serve --store DIR`) — the `gef-store` MRU-cache state and
//!   quarantine count.
//!
//! **Artifact store (optional).** [`Server::start_with_store`] backs
//! the server with a `gef_store::Store`: `/explain` reuses
//! digest-verified cached explanations keyed by
//! `(model digest, config digest)` ([`gef_core::reuse`]) — corrupt
//! cache entries are quarantined and recomputed, never served — and
//! the store's bounded MRU cache (`GEF_STORE_CACHE_MB`) accelerates
//! model loads across restarts.
//!
//! # Robustness model
//!
//! **Per-request budgets.** Every `/explain` request enters its own
//! scoped [`gef_core::budget::RunBudget`] (hard deadline from the
//! request's `deadline_ms` or [`ServeConfig::deadline_ms`]; soft at
//! 80%), so two concurrent requests hold independent deadlines — one
//! can hard-trip to a typed 504 while its neighbour completes clean.
//!
//! **Front end.** One reactor thread blocks in `poll(2)` on the
//! listener and every parked connection, frames complete requests with
//! the [`http`] parser, and queues them; workers answer and hand the
//! connection back. No worker ever waits on a client read, so idle
//! keep-alive clients cannot starve the others: an idle socket is
//! closed after 2 s without holding a worker. Every answer is one
//! write on a `TCP_NODELAY` socket. The bytes the reactor buffers are
//! capped at [`ServeConfig::reactor_buffer_cap`]; a connection past it
//! is answered `429` and closed.
//!
//! **Admission control.** The admission queue holds parsed requests,
//! bounded by [`ServeConfig::queue_depth`]. When it is full, a new
//! connection is shed with `429` + `Retry-After` before any of its
//! bytes are read, and so is a framed request, instead of piling
//! latency onto everyone. As depth rises past half the bound, admitted
//! requests are served **degraded-by-design**: the pipeline's
//! [`gef_core::FitFloor`] is armed preemptively (univariate-only, then
//! linear surrogate), trading explanation richness for latency instead
//! of answering 503.
//!
//! **Single-flight explains.** Concurrent `/explain`s for the same
//! model under the same effective configuration (its digest, the
//! pressure floor included) share one pipeline run, and each computes
//! its own local explanation from it. A follower adopts the leader's
//! run only if it returned `Ok` without a budget trip, and otherwise
//! runs its own. It never waits past its own hard deadline (typed
//! `504`). Nothing is kept once the run ends, and `?profile=1`
//! requests always run alone.
//!
//! **Fault containment.** Every request runs under `catch_unwind`: a
//! panic yields a typed `500` plus a [`gef_core::incident`] dump,
//! never a dead server. A circuit breaker trips to the
//! linear-surrogate floor after [`ServeConfig::breaker_threshold`]
//! consecutive GAM-fit failures, and closes again after a cooldown.
//!
//! **Graceful drain.** [`server::Server::shutdown`] stops accepting,
//! lets workers answer every request that already arrived, then joins
//! them — in-flight requests complete, new connections are refused.
//!
//! # Environment knobs
//!
//! All parsed through [`gef_trace::env`] (typed, warn-once on invalid
//! values, never fatal):
//!
//! | variable | meaning | default |
//! |----------|---------|---------|
//! | `GEF_SERVE_PORT` | TCP port (0 = ephemeral) | 0 |
//! | `GEF_SERVE_WORKERS` | request worker threads | min(threads, 4) |
//! | `GEF_SERVE_QUEUE` | admission queue bound | 32 |
//! | `GEF_SERVE_DEADLINE_MS` | default per-request hard deadline | 10000 |
//! | `GEF_SERVE_MAX_BODY` | request body byte cap | 1048576 |
//! | `GEF_SERVE_BREAKER_K` | consecutive fit failures to trip | 5 |
//! | `GEF_SERVE_BREAKER_COOLDOWN_MS` | breaker open duration | 1000 |
//! | `GEF_SERVE_SLOW_MS` | slow-request capture threshold (0 = off) | 0 |
//! | `GEF_SERVE_PROFILE` | honor `/explain?profile=1` (enables timelines) | 0 |

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod flight;
pub mod http;
mod poll;
mod reactor;
pub mod server;

pub use server::{ModelEntry, Server};

/// Server configuration. Construct with [`ServeConfig::from_env`]
/// (production) or build one programmatically (tests, embedding).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on loopback (0 = OS-assigned ephemeral port;
    /// read it back via [`Server::port`]).
    pub port: u16,
    /// Request worker threads (min 1).
    pub workers: usize,
    /// Admission queue bound: requests beyond it are shed with 429.
    pub queue_depth: usize,
    /// Default per-request hard deadline in milliseconds; a request's
    /// `deadline_ms` field may lower (never raise) it.
    pub deadline_ms: u64,
    /// Maximum accepted request body size in bytes (larger → 413).
    pub max_body_bytes: usize,
    /// Consecutive GAM-fit failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before closing again.
    pub breaker_cooldown_ms: u64,
    /// `/explain` requests slower than this (wall-clock ms) dump a
    /// trace-id-filtered slow-request capture under the incident
    /// directory (`GEF_SERVE_SLOW_MS`); 0 disables.
    pub slow_ms: u64,
    /// Honor `/explain?profile=1` (`GEF_SERVE_PROFILE`): turns timeline
    /// recording on at server start and returns the request's own
    /// Chrome-trace fragment inline in the response.
    pub profile: bool,
    /// Honor `x-gef-test` request headers (deliberate panics etc.).
    /// Never enabled from the environment — tests only.
    pub test_hooks: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: gef_par::threads().clamp(1, 4),
            queue_depth: 32,
            deadline_ms: 10_000,
            max_body_bytes: 1 << 20,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            slow_ms: 0,
            profile: false,
            test_hooks: false,
        }
    }
}

impl ServeConfig {
    /// The most bytes the reactor buffers across all parked
    /// connections: room for a full request (head at its caps plus the
    /// largest body) for every worker and every queue slot. Derived, not
    /// a knob; a connection whose bytes would pass it is answered `429`
    /// and closed.
    pub fn reactor_buffer_cap(&self) -> usize {
        self.workers
            .max(1)
            .saturating_add(self.queue_depth)
            .saturating_mul(self.max_body_bytes.saturating_add(http::MAX_HEAD_BYTES))
    }

    /// Read the configuration from the `GEF_SERVE_*` knobs (see the
    /// crate docs), with [`ServeConfig::default`] filling the gaps.
    /// Invalid values warn once and fall back — never fatal.
    pub fn from_env() -> Self {
        use gef_trace::env::u64_var_or;
        let d = ServeConfig::default();
        ServeConfig {
            port: u64_var_or("GEF_SERVE_PORT", u64::from(d.port)).min(u64::from(u16::MAX)) as u16,
            workers: (u64_var_or("GEF_SERVE_WORKERS", d.workers as u64).max(1) as usize).min(256),
            queue_depth: (u64_var_or("GEF_SERVE_QUEUE", d.queue_depth as u64).max(1) as usize)
                .min(1 << 16),
            deadline_ms: u64_var_or("GEF_SERVE_DEADLINE_MS", d.deadline_ms).max(1),
            max_body_bytes: (u64_var_or("GEF_SERVE_MAX_BODY", d.max_body_bytes as u64).max(64)
                as usize)
                .min(1 << 30),
            breaker_threshold: u64_var_or("GEF_SERVE_BREAKER_K", u64::from(d.breaker_threshold))
                .max(1)
                .min(u64::from(u32::MAX)) as u32,
            breaker_cooldown_ms: u64_var_or("GEF_SERVE_BREAKER_COOLDOWN_MS", d.breaker_cooldown_ms),
            slow_ms: u64_var_or("GEF_SERVE_SLOW_MS", d.slow_ms),
            profile: u64_var_or("GEF_SERVE_PROFILE", 0) != 0,
            test_hooks: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env vars are process-global; serialise the tests that set them.
    static LOCK: Mutex<()> = Mutex::new(());

    const VARS: [&str; 9] = [
        "GEF_SERVE_PORT",
        "GEF_SERVE_WORKERS",
        "GEF_SERVE_QUEUE",
        "GEF_SERVE_DEADLINE_MS",
        "GEF_SERVE_MAX_BODY",
        "GEF_SERVE_BREAKER_K",
        "GEF_SERVE_BREAKER_COOLDOWN_MS",
        "GEF_SERVE_SLOW_MS",
        "GEF_SERVE_PROFILE",
    ];

    #[test]
    fn env_config_parses_and_clamps() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for v in VARS {
            std::env::remove_var(v);
        }
        std::env::set_var("GEF_SERVE_PORT", "8123");
        std::env::set_var("GEF_SERVE_WORKERS", "0"); // clamped to 1
        std::env::set_var("GEF_SERVE_QUEUE", "7");
        std::env::set_var("GEF_SERVE_DEADLINE_MS", "bogus"); // warned, default
        std::env::set_var("GEF_SERVE_SLOW_MS", "750");
        std::env::set_var("GEF_SERVE_PROFILE", "1");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.port, 8123);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_depth, 7);
        assert_eq!(cfg.deadline_ms, ServeConfig::default().deadline_ms);
        assert_eq!(cfg.slow_ms, 750);
        assert!(cfg.profile);
        assert!(!cfg.test_hooks, "test hooks never come from the env");
        for v in VARS {
            std::env::remove_var(v);
        }
        let off = ServeConfig::from_env();
        assert_eq!(off.slow_ms, 0, "slow capture defaults off");
        assert!(!off.profile, "profiling defaults off");
    }
}
