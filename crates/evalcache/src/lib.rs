//! Content-addressed evaluation memoisation.
//!
//! The hierarchical flow pays for the same transistor-level evaluation
//! many times over: NSGA-II populations carry duplicate genomes across
//! generations, Monte-Carlo re-runs share nominal points, and a resumed
//! flow re-characterises points it already solved. This crate provides
//! the shared memo layer those call sites opt into:
//!
//! * [`key`] — FNV-1a digests (the same scheme as checkpoint manifests)
//!   over quantised design points; [`KeyQuantiser`] defaults to exact
//!   bit-pattern keys so a hit is bit-identical to re-evaluation.
//! * [`lru`] — a sharded, mutex-per-shard LRU sized for the exec pool's
//!   worker threads.
//! * [`disk`] — an optional one-file-per-entry JSON tier (atomic
//!   temp-file + rename writes) living in the flow run directory, so
//!   resume reuses individual evaluations, not just whole stages.
//! * [`cache`] — [`EvalCache`], tying the three together with
//!   hit/miss/evict counters ([`CacheCounters`]).
//!
//! Nothing in this crate decides *what* to cache: callers derive a
//! config digest covering everything but the design point, and any
//! config change makes old entries unaddressable (invalidation by
//! construction, never by scanning).

pub mod cache;
pub mod disk;
pub mod key;
pub mod lru;

pub use cache::{CacheCounters, EvalCache};
pub use disk::{DiskLoad, DiskTier};
pub use key::{fnv1a, fnv1a_extend, mix_word, CacheKey, KeyQuantiser};

/// Reads the `HIERSIZER_EVALCACHE` environment override with
/// [`telemetry::parse_switch`]: `1`/`true`/`on`/`yes` enable,
/// `0`/`false`/`off`/`no` disable, and unset, empty or anything else
/// falls back to `default`. Mirrors `exec::threads_from_env` so CI can
/// run the same binary with and without caching.
#[must_use]
pub fn enabled_from_env(default: bool) -> bool {
    telemetry::parse_switch(
        std::env::var("HIERSIZER_EVALCACHE").ok().as_deref(),
        default,
    )
}

#[cfg(test)]
mod tests {
    use telemetry::parse_switch;

    #[test]
    fn env_override_parses_common_spellings() {
        // Strings, not the process environment: the CI matrix sets the
        // variable, and no assertion may depend on its value.
        for on in ["1", "true", "on", "yes", " TRUE ", "On"] {
            assert!(parse_switch(Some(on), false), "{on:?}");
        }
        for off in ["0", "false", "off", "no", " OFF", "No"] {
            assert!(!parse_switch(Some(off), true), "{off:?}");
        }
        for fallback in [None, Some(""), Some("  "), Some("auto"), Some("2")] {
            assert!(parse_switch(fallback, true), "{fallback:?}");
            assert!(!parse_switch(fallback, false), "{fallback:?}");
        }
    }
}
