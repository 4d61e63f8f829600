//! Cache observability: the `mc.cache.*` counters.
//!
//! Same pattern as `montecarlo::telemetry` — handles are resolved once
//! against the global registry and cached in a `OnceLock`, so the hot
//! lookup path never touches the registry lock. All names emitted here
//! are documented in `METRICS.md` (the `mmr-bench` metrics-doc test
//! cross-checks that).

use obs::Counter;
use std::sync::OnceLock;

/// Cached handles for the cache metrics.
pub(crate) struct CacheMetrics {
    /// `mc.cache.hits` — exact request-key hits served as pure lookups.
    pub hits: Counter,
    /// `mc.cache.misses` — requests the cache could not help with.
    pub misses: Counter,
    /// `mc.cache.extends` — requests resumed from a cached chunk prefix.
    pub extends: Counter,
    /// `mc.cache.errors` — degraded-but-survivable cache faults.
    pub errors: Counter,
}

pub(crate) fn cache() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = obs::global();
        CacheMetrics {
            hits: g.counter("mc.cache.hits"),
            misses: g.counter("mc.cache.misses"),
            extends: g.counter("mc.cache.extends"),
            errors: g.counter("mc.cache.errors"),
        }
    })
}
