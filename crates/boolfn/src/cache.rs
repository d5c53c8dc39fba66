//! Process-wide cache policy and hit/miss accounting.
//!
//! Four caching layers share this module as their single policy
//! switch: the NPN canonicalization memo ([`crate::CanonCache`]), the
//! rewrite pass's library-lookup memo in `cntfet-synth`, the
//! dirty-region incremental cut enumeration in `cntfet-aig`, and the
//! batch service's fingerprint-keyed result cache in `cntfet-bench`.
//! Setting the environment variable `CNTFET_NO_CACHE=1` before the
//! process starts disables all of them at once — every consumer falls
//! back to its from-scratch path, which is the escape hatch CI uses to
//! prove that cached and uncached runs produce bitwise identical
//! results. No memo in the workspace ignores the switch.
//!
//! The variable is read once per process; changing it afterwards has
//! no effect (the engines must never observe the policy flipping
//! mid-run).

use std::sync::OnceLock;

/// True unless `CNTFET_NO_CACHE` was set to a non-empty value other
/// than `0` when first queried. All caching layers consult this before
/// memoizing; when false they compute from scratch every time.
pub fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var_os("CNTFET_NO_CACHE") {
        None => true,
        Some(v) => v.is_empty() || v == *"0",
    })
}

/// Hit/miss counters of one caching layer, in the same spirit as the
/// SAT solver's `SolverStats`: monotonically accumulated, cheap to
/// read, surfaced by `perfsnap` into the committed benchmark snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and, when the layer stores
    /// results, insert).
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`; `0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_rates() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn enabled_is_stable() {
        // Whatever the ambient environment says, repeated queries must
        // agree (the switch is latched on first use).
        assert_eq!(enabled(), enabled());
    }
}
