//! The canonical metric-name table.
//!
//! Every counter, gauge, and histogram name used anywhere in the
//! workspace lives here as a constant, together with its kind. Call
//! sites reference the constants instead of scattering string literals,
//! and the [`ALL`] table lets a test assert the invariant that makes
//! the registry safe: no name is ever registered under two different
//! kinds (a counter and a histogram sharing a name would silently split
//! into two metrics keyed identically in snapshots and expositions).

/// What a metric name denotes in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone `u64` accumulator.
    Counter,
    /// Last-write-wins `f64` level.
    Gauge,
    /// Fixed-bucket log-scale distribution.
    Histogram,
}

// --- evalcache ---------------------------------------------------------

/// Cache lookups that found a value.
pub const CACHE_HITS: &str = "cache.hits";
/// Cache lookups that missed.
pub const CACHE_MISSES: &str = "cache.misses";
/// Disk-tier entries rejected as corrupt.
pub const CACHE_DISK_CORRUPT: &str = "cache.disk_corrupt";
/// Lookup latency for hits (seconds).
pub const CACHE_HIT_SECONDS: &str = "cache.hit_seconds";
/// Lookup latency for misses (seconds).
pub const CACHE_MISS_SECONDS: &str = "cache.miss_seconds";

// --- exec pool ---------------------------------------------------------

/// Tasks executed by the pool.
pub const POOL_TASKS: &str = "pool.tasks";
/// Task retries.
pub const POOL_RETRIES: &str = "pool.retries";
/// Tasks that panicked.
pub const POOL_PANICS: &str = "pool.panics";
/// Tasks that hit a deadline.
pub const POOL_TIMEOUTS: &str = "pool.timeouts";
/// Tasks cancelled before completion.
pub const POOL_CANCELLED: &str = "pool.cancelled";
/// Batch queue wait (seconds).
pub const POOL_QUEUE_WAIT_SECONDS: &str = "pool.queue_wait_seconds";
/// Per-task wall time (seconds).
pub const POOL_TASK_SECONDS: &str = "pool.task_seconds";

// --- moea --------------------------------------------------------------

/// Candidate evaluations requested by NSGA-II.
pub const MOEA_EVALUATIONS: &str = "moea.evaluations";
/// Per-generation wall time (seconds).
pub const MOEA_GENERATION_SECONDS: &str = "moea.generation_seconds";

// --- variation / Monte-Carlo ------------------------------------------

/// Monte-Carlo samples drawn.
pub const MC_SAMPLES: &str = "mc.samples";
/// MC evaluations lost to a panic.
pub const MC_FAILURES_PANICKED: &str = "mc.failures.panicked";
/// MC evaluations lost to a deadline.
pub const MC_FAILURES_TIMED_OUT: &str = "mc.failures.timed_out";
/// MC evaluations cancelled.
pub const MC_FAILURES_CANCELLED: &str = "mc.failures.cancelled";
/// MC evaluations failed transiently.
pub const MC_FAILURES_TRANSIENT: &str = "mc.failures.transient";
/// MC evaluations failed permanently.
pub const MC_FAILURES_PERMANENT: &str = "mc.failures.permanent";

// --- spicesim ----------------------------------------------------------

/// Sparse symbolic analyses performed (once per topology).
pub const SIM_SPARSE_ANALYZE: &str = "sim.sparse.analyze";
/// Full numeric factorisations.
pub const SIM_SPARSE_FACTOR: &str = "sim.sparse.factor";
/// Pivot-replay refactorisations.
pub const SIM_SPARSE_REFACTOR: &str = "sim.sparse.refactor";
/// Refactors that fell back to a full factor on pivot decay.
pub const SIM_SPARSE_REFACTOR_FALLBACK: &str = "sim.sparse.refactor_fallback";
/// Newton iteration counts, DC analyses.
pub const SIM_NEWTON_ITERATIONS_DC: &str = "sim.newton_iterations.dc";
/// Newton iteration counts, transient steps.
pub const SIM_NEWTON_ITERATIONS_TRANSIENT: &str = "sim.newton_iterations.transient";
/// Newton iteration counts, other analyses.
pub const SIM_NEWTON_ITERATIONS_OTHER: &str = "sim.newton_iterations.other";
/// Newton loops that hit the iteration ceiling.
pub const SIM_NEWTON_NONCONVERGENCE: &str = "sim.newton_nonconvergence";
/// Transient step-halving recursion depths.
pub const SIM_SUBSTEP_DEPTH: &str = "sim.substep_depth";
/// Transient steps that hit the halving depth limit.
pub const SIM_STEP_LIMIT: &str = "sim.step_limit";

// --- behavioral --------------------------------------------------------

/// PLL loops put through a lock simulation.
pub const PLL_LOOPS: &str = "pll.loops";
/// Reference cycles stepped by lock simulations, summed over loops.
pub const PLL_REF_CYCLES: &str = "pll.ref_cycles";

// --- hierflow ----------------------------------------------------------

/// Characterisation retries after transient faults.
pub const FLOW_RETRY_ATTEMPTS: &str = "flow.retry_attempts";

// --- service daemon ----------------------------------------------------

/// Jobs resumed from checkpoints at startup.
pub const DAEMON_RECOVERED_JOBS: &str = "daemon.recovered_jobs";
/// Submits matched to an existing idempotency key.
pub const DAEMON_DEDUPED: &str = "daemon.deduped";
/// Jobs accepted into the queue.
pub const DAEMON_SUBMITTED: &str = "daemon.submitted";
/// Submits refused by admission (all reasons).
pub const DAEMON_REJECTED: &str = "daemon.rejected";
/// Submits refused because the queue was full.
pub const DAEMON_REJECTED_QUEUE_FULL: &str = "daemon.rejected.queue_full";
/// Submits refused by a per-tenant open-job quota.
pub const DAEMON_REJECTED_TENANT_QUOTA: &str = "daemon.rejected.tenant_quota";
/// Submits refused by an exhausted tenant wall-clock budget.
pub const DAEMON_REJECTED_BUDGET: &str = "daemon.rejected.budget_exhausted";
/// Submits refused because the daemon is draining.
pub const DAEMON_REJECTED_DRAINING: &str = "daemon.rejected.draining";
/// Connections refused by the global connection limit.
pub const DAEMON_REJECTED_CONN_LIMIT: &str = "daemon.rejected.conn_limit";
/// Drain requests honoured.
pub const DAEMON_DRAINS: &str = "daemon.drains";
/// Artifacts quarantined as corrupt.
pub const DAEMON_QUARANTINED: &str = "daemon.quarantined";
/// Jobs that reached `Completed`.
pub const DAEMON_COMPLETED: &str = "daemon.completed";
/// Jobs that reached `Failed`.
pub const DAEMON_FAILED: &str = "daemon.failed";
/// Jobs completed only after at least one crash/interrupt resume.
pub const DAEMON_CRASH_RESUMED: &str = "daemon.crash_resumed";
/// Per-job wall time (seconds).
pub const DAEMON_JOB_WALL: &str = "daemon.job_wall";
/// Jobs waiting in the queue right now.
pub const DAEMON_QUEUE_DEPTH: &str = "daemon.queue_depth";
/// Jobs executing right now.
pub const DAEMON_RUNNING: &str = "daemon.running";
/// Submit-to-claim queue wait (seconds).
pub const DAEMON_QUEUE_WAIT_SECONDS: &str = "daemon.queue_wait_seconds";

// --- service WAL -------------------------------------------------------

/// WAL segment rotations.
pub const WAL_ROTATIONS: &str = "wal.rotations";
/// Startup compactions performed.
pub const WAL_COMPACTIONS: &str = "wal.compactions";
/// Per-record append+fsync latency (seconds).
pub const WAL_APPEND_SECONDS: &str = "wal.append_seconds";
/// Live WAL segment files.
pub const WAL_SEGMENTS: &str = "wal.segments";

// --- service net -------------------------------------------------------

/// TCP connections accepted.
pub const NET_CONNS_ACCEPTED: &str = "net.conns.accepted";
/// Connections refused by the global cap.
pub const NET_CONNS_REFUSED: &str = "net.conns.refused";
/// Connections closed for idleness.
pub const NET_CONNS_IDLE_CLOSED: &str = "net.conns.idle_closed";
/// Connections refused by a per-tenant cap.
pub const NET_CONNS_TENANT_REFUSED: &str = "net.conns.tenant_refused";
/// Frames rejected at the wire layer (CRC, size, truncation).
pub const NET_FRAMES_REJECTED: &str = "net.frames.rejected";
/// Requests that failed to parse.
pub const NET_REQUESTS_BAD: &str = "net.requests.bad";
/// `Ping` requests served.
pub const NET_REQUESTS_PING: &str = "net.requests.ping";
/// `Submit` requests served.
pub const NET_REQUESTS_SUBMIT: &str = "net.requests.submit";
/// Submits answered from the idempotency table.
pub const NET_REQUESTS_DEDUPED: &str = "net.requests.deduped";
/// Submits answered with a rejection.
pub const NET_REQUESTS_REJECTED: &str = "net.requests.rejected";
/// `Status` requests served.
pub const NET_REQUESTS_STATUS: &str = "net.requests.status";
/// `Subscribe` requests served.
pub const NET_REQUESTS_SUBSCRIBE: &str = "net.requests.subscribe";
/// `Drain` requests served.
pub const NET_REQUESTS_DRAIN: &str = "net.requests.drain";
/// `Metrics` requests served.
pub const NET_REQUESTS_METRICS: &str = "net.requests.metrics";
/// `Flight` requests served.
pub const NET_REQUESTS_FLIGHT: &str = "net.requests.flight";
/// Request handling latency (seconds).
pub const NET_REQUEST_LATENCY: &str = "net.request_latency";
/// Client-side structured rejections observed.
pub const NET_CLIENT_REJECTED: &str = "net.client.rejected";
/// Client-side transient wire faults observed.
pub const NET_CLIENT_TRANSIENT: &str = "net.client.transient";

// --- derived (computed at exposition time, never registered) ----------

/// Evalcache hit ratio, `hits / (hits + misses)`.
pub const CACHE_HIT_RATIO: &str = "cache.hit_ratio";

/// Every metric name in the workspace with its kind. The registry
/// itself is kind-blind (a name is whatever the first caller makes of
/// it), so this table — and the test over it — is what prevents two
/// call sites from silently splitting one name across kinds.
pub const ALL: &[(&str, Kind)] = &[
    (CACHE_HITS, Kind::Counter),
    (CACHE_MISSES, Kind::Counter),
    (CACHE_DISK_CORRUPT, Kind::Counter),
    (CACHE_HIT_SECONDS, Kind::Histogram),
    (CACHE_MISS_SECONDS, Kind::Histogram),
    (CACHE_HIT_RATIO, Kind::Gauge),
    (POOL_TASKS, Kind::Counter),
    (POOL_RETRIES, Kind::Counter),
    (POOL_PANICS, Kind::Counter),
    (POOL_TIMEOUTS, Kind::Counter),
    (POOL_CANCELLED, Kind::Counter),
    (POOL_QUEUE_WAIT_SECONDS, Kind::Histogram),
    (POOL_TASK_SECONDS, Kind::Histogram),
    (MOEA_EVALUATIONS, Kind::Counter),
    (MOEA_GENERATION_SECONDS, Kind::Histogram),
    (MC_SAMPLES, Kind::Counter),
    (MC_FAILURES_PANICKED, Kind::Counter),
    (MC_FAILURES_TIMED_OUT, Kind::Counter),
    (MC_FAILURES_CANCELLED, Kind::Counter),
    (MC_FAILURES_TRANSIENT, Kind::Counter),
    (MC_FAILURES_PERMANENT, Kind::Counter),
    (SIM_SPARSE_ANALYZE, Kind::Counter),
    (SIM_SPARSE_FACTOR, Kind::Counter),
    (SIM_SPARSE_REFACTOR, Kind::Counter),
    (SIM_SPARSE_REFACTOR_FALLBACK, Kind::Counter),
    (SIM_NEWTON_ITERATIONS_DC, Kind::Histogram),
    (SIM_NEWTON_ITERATIONS_TRANSIENT, Kind::Histogram),
    (SIM_NEWTON_ITERATIONS_OTHER, Kind::Histogram),
    (SIM_NEWTON_NONCONVERGENCE, Kind::Counter),
    (SIM_SUBSTEP_DEPTH, Kind::Histogram),
    (SIM_STEP_LIMIT, Kind::Counter),
    (PLL_LOOPS, Kind::Counter),
    (PLL_REF_CYCLES, Kind::Counter),
    (FLOW_RETRY_ATTEMPTS, Kind::Counter),
    (DAEMON_RECOVERED_JOBS, Kind::Counter),
    (DAEMON_DEDUPED, Kind::Counter),
    (DAEMON_SUBMITTED, Kind::Counter),
    (DAEMON_REJECTED, Kind::Counter),
    (DAEMON_REJECTED_QUEUE_FULL, Kind::Counter),
    (DAEMON_REJECTED_TENANT_QUOTA, Kind::Counter),
    (DAEMON_REJECTED_BUDGET, Kind::Counter),
    (DAEMON_REJECTED_DRAINING, Kind::Counter),
    (DAEMON_REJECTED_CONN_LIMIT, Kind::Counter),
    (DAEMON_DRAINS, Kind::Counter),
    (DAEMON_QUARANTINED, Kind::Counter),
    (DAEMON_COMPLETED, Kind::Counter),
    (DAEMON_FAILED, Kind::Counter),
    (DAEMON_CRASH_RESUMED, Kind::Counter),
    (DAEMON_JOB_WALL, Kind::Histogram),
    (DAEMON_QUEUE_DEPTH, Kind::Gauge),
    (DAEMON_RUNNING, Kind::Gauge),
    (DAEMON_QUEUE_WAIT_SECONDS, Kind::Histogram),
    (WAL_ROTATIONS, Kind::Counter),
    (WAL_COMPACTIONS, Kind::Counter),
    (WAL_APPEND_SECONDS, Kind::Histogram),
    (WAL_SEGMENTS, Kind::Gauge),
    (NET_CONNS_ACCEPTED, Kind::Counter),
    (NET_CONNS_REFUSED, Kind::Counter),
    (NET_CONNS_IDLE_CLOSED, Kind::Counter),
    (NET_CONNS_TENANT_REFUSED, Kind::Counter),
    (NET_FRAMES_REJECTED, Kind::Counter),
    (NET_REQUESTS_BAD, Kind::Counter),
    (NET_REQUESTS_PING, Kind::Counter),
    (NET_REQUESTS_SUBMIT, Kind::Counter),
    (NET_REQUESTS_DEDUPED, Kind::Counter),
    (NET_REQUESTS_REJECTED, Kind::Counter),
    (NET_REQUESTS_STATUS, Kind::Counter),
    (NET_REQUESTS_SUBSCRIBE, Kind::Counter),
    (NET_REQUESTS_DRAIN, Kind::Counter),
    (NET_REQUESTS_METRICS, Kind::Counter),
    (NET_REQUESTS_FLIGHT, Kind::Counter),
    (NET_REQUEST_LATENCY, Kind::Histogram),
    (NET_CLIENT_REJECTED, Kind::Counter),
    (NET_CLIENT_TRANSIENT, Kind::Counter),
];

/// The kind registered for `name`, when the table knows it.
#[must_use]
pub fn kind_of(name: &str) -> Option<Kind> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariant the table exists to enforce: one name, one kind.
    /// A duplicate entry at the *same* kind is also a bug (two
    /// constants aliasing one string), so any repeat fails.
    #[test]
    fn no_name_registers_under_two_kinds() {
        let mut seen: std::collections::BTreeMap<&str, Kind> = std::collections::BTreeMap::new();
        for (name, kind) in ALL {
            if let Some(prior) = seen.insert(name, *kind) {
                panic!("metric name {name:?} appears twice (as {prior:?} and {kind:?})");
            }
        }
    }

    #[test]
    fn names_are_exposition_safe() {
        for (name, _) in ALL {
            assert!(!name.is_empty());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name:?} contains characters the exposition sanitiser would collide"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'), "{name:?}");
        }
    }

    #[test]
    fn kind_lookup_round_trips() {
        assert_eq!(kind_of(DAEMON_QUEUE_DEPTH), Some(Kind::Gauge));
        assert_eq!(kind_of(WAL_APPEND_SECONDS), Some(Kind::Histogram));
        assert_eq!(kind_of(CACHE_HITS), Some(Kind::Counter));
        assert_eq!(kind_of("no.such.metric"), None);
    }
}
