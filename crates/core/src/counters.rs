//! Cache hit/miss counters shared across the search worker pool.
//!
//! The price→assemble fast paths ([`crate::costs::CostTable`], the
//! pipeline table, and its report memo) are the levers that
//! make design-space searches cheap — and, until now, were invisible:
//! there was no way to tell whether a slow search was re-pricing
//! candidates or reusing the table as intended. [`CacheCounters`] is the
//! instrument: a pair of relaxed atomics bumped on the hot path (one
//! `fetch_add` per event, no branches, no locks) that any number of
//! worker threads can share through `&CostTable`.
//!
//! **Sharing contract**: counters are monotonic and never reset; readers
//! take a [`CacheStats`] snapshot *after* the worker pool joins, so the
//! totals are exact (relaxed ordering is sufficient because the
//! `thread::scope` join provides the happens-before edge). Snapshots are
//! plain serializable data and feed `madmax-obs`'s `SearchTelemetry`.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Monotonic hit/miss tally for one cache (price table, memo, ...).
///
/// Increment methods take `&self` so a read-only shared table can still
/// count: `CostTable` is shared as `&CostTable` across the worker pool
/// and its pricing happens behind `&mut self`, but assembly-time reuse
/// is observed from `&self` on every worker.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounters {
    /// A zeroed counter pair.
    pub const fn new() -> Self {
        Self {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Records one cache hit (work was reused).
    #[inline]
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cache miss (work was priced/built fresh).
    #[inline]
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the current totals as plain data.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Clone for CacheCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        Self {
            hits: AtomicU64::new(s.hits),
            misses: AtomicU64::new(s.misses),
        }
    }
}

/// A point-in-time snapshot of a [`CacheCounters`] pair: plain
/// serializable data for telemetry reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Events that reused cached work.
    pub hits: u64,
    /// Events that paid for the work fresh.
    pub misses: u64,
}

impl CacheStats {
    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of events served from cache; `None` before any event.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = CacheCounters::new();
        c.hit();
        c.hit();
        c.miss();
        let s = c.snapshot();
        assert_eq!(s, CacheStats { hits: 2, misses: 1 });
        assert_eq!(s.total(), 3);
        assert!((s.hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), None);
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let c = CacheCounters::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.hit();
                        c.miss();
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses), (4000, 4000));
    }

    #[test]
    fn stats_serde_round_trip() {
        let s = CacheStats { hits: 7, misses: 3 };
        let js = serde_json::to_string(&s).unwrap();
        assert_eq!(js, r#"{"hits":7,"misses":3}"#);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = CacheStats { hits: 1, misses: 2 };
        a.absorb(CacheStats { hits: 3, misses: 4 });
        assert_eq!(a, CacheStats { hits: 4, misses: 6 });
    }
}
