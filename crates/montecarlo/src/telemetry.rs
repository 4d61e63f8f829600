//! Cached telemetry handles for the runner and pool hot paths.
//!
//! Handles into the [`obs::global`] registry are resolved once per process
//! (a `OnceLock` each) so instrumented code never touches the registry
//! lock. Everything recorded here is strictly out-of-band — chunk- or
//! ticket-granularity counters and timings that cannot influence RNG
//! streams, chunk tiling, or merge order. While [`obs::set_recording`]
//! is off, every update is dropped.

use std::sync::OnceLock;

/// Runner-level metrics (`mc.runner.*`).
pub(crate) struct RunnerMetrics {
    /// Runs started through `Runner::run`.
    pub runs: obs::Counter,
    /// Trials that contributed to merged results.
    pub trials_completed: obs::Counter,
    /// Chunks claimed and executed (excludes cancelled empty chunks).
    pub chunks_claimed: obs::Counter,
    /// Chunks that panicked and were dropped from the merge under a
    /// degrade-on-exhaustion policy.
    pub chunks_abandoned: obs::Counter,
    /// Wall time of one chunk, microseconds.
    pub chunk_wall_us: obs::Histogram,
}

pub(crate) fn runner() -> &'static RunnerMetrics {
    static METRICS: OnceLock<RunnerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = obs::global();
        RunnerMetrics {
            runs: g.counter("mc.runner.runs"),
            trials_completed: g.counter("mc.runner.trials_completed"),
            chunks_claimed: g.counter("mc.runner.chunks_claimed"),
            chunks_abandoned: g.counter("mc.runner.chunks_abandoned"),
            chunk_wall_us: g.histogram("mc.runner.chunk_wall_us"),
        }
    })
}

/// Crash dossiers written (`mc.flight.dossiers`).
pub(crate) fn dossiers() -> &'static obs::Counter {
    static DOSSIERS: OnceLock<obs::Counter> = OnceLock::new();
    DOSSIERS.get_or_init(|| obs::global().counter("mc.flight.dossiers"))
}

/// Pool-level metrics (`mc.pool.*`).
pub(crate) struct PoolMetrics {
    /// `scatter` dispatches.
    pub scatter_calls: obs::Counter,
    /// Tickets enqueued (scatter helpers requested of the pool).
    pub tickets_submitted: obs::Counter,
    /// Tickets a pool worker finished running.
    pub tickets_run: obs::Counter,
    /// Workers ever spawned (high-water mark of requested concurrency).
    pub workers_spawned: obs::Gauge,
    /// Workers currently running a ticket (occupancy; excludes the
    /// submitting thread, which always participates directly).
    pub workers_busy: obs::Gauge,
    /// Queue wait from submit to pop, microseconds.
    pub queue_wait_us: obs::Histogram,
    /// Time a worker spent inside one ticket, microseconds.
    pub ticket_busy_us: obs::Histogram,
}

pub(crate) fn pool() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = obs::global();
        PoolMetrics {
            scatter_calls: g.counter("mc.pool.scatter_calls"),
            tickets_submitted: g.counter("mc.pool.tickets_submitted"),
            tickets_run: g.counter("mc.pool.tickets_run"),
            workers_spawned: g.gauge("mc.pool.workers_spawned"),
            workers_busy: g.gauge("mc.pool.workers_busy"),
            queue_wait_us: g.histogram("mc.pool.queue_wait_us"),
            ticket_busy_us: g.histogram("mc.pool.ticket_busy_us"),
        }
    })
}
