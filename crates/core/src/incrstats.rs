//! Plain counters describing incremental sub-artifact activity.
//!
//! The incremental persistence layer lives in `rock-supervisor` (its
//! `incr` module); the counter struct lives here, next to
//! [`crate::CorpusStats`] and [`crate::StoreStats`], so every layer
//! above it can name it. [`IncrStats::record`] puts the counts into a
//! metrics registry.

use rock_trace::{names, MetricsRegistry};

/// Counters for one incremental preload/flush cycle.
///
/// Like store counters, these are observability only: they ride in
/// batch and daemon registries and report lines, but never enter the
/// pipeline's own registry or diagnostics — an incremental run stays
/// byte-identical to a cold run everywhere that matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Sub-artifacts restored into the corpus cache at preload.
    pub preloaded: u64,
    /// Sub-artifacts newly written to disk at flush.
    pub flushed: u64,
    /// Sub-artifacts already on disk and skipped at flush.
    pub unchanged: u64,
    /// Sub-artifacts rejected at preload (bad frame, failed checksum,
    /// or a payload that does not reproduce its own key) — each one
    /// simply recomputes.
    pub corrupt_skipped: u64,
    /// Sub-artifact reads or writes abandoned on an i/o error.
    pub io_errors: u64,
}

impl IncrStats {
    /// Component-wise accumulation (preload + flush phases).
    pub fn add(&mut self, other: &IncrStats) {
        self.preloaded += other.preloaded;
        self.flushed += other.flushed;
        self.unchanged += other.unchanged;
        self.corrupt_skipped += other.corrupt_skipped;
        self.io_errors += other.io_errors;
    }

    /// Adds these counts to `metrics` under the `incr.*` names — the
    /// only code that writes them into a registry. Adding (not setting)
    /// lets a daemon fold in every flush.
    pub fn record(&self, metrics: &mut MetricsRegistry) {
        for (name, v) in [
            (names::INCR_PRELOADED, self.preloaded),
            (names::INCR_FLUSHED, self.flushed),
            (names::INCR_UNCHANGED, self.unchanged),
            (names::INCR_CORRUPT_SKIPPED, self.corrupt_skipped),
            (names::INCR_IO_ERRORS, self.io_errors),
        ] {
            metrics.add(name, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_componentwise() {
        let mut a = IncrStats { preloaded: 3, flushed: 1, ..Default::default() };
        a.add(&IncrStats { preloaded: 2, corrupt_skipped: 1, ..Default::default() });
        assert_eq!(
            a,
            IncrStats { preloaded: 5, flushed: 1, corrupt_skipped: 1, ..Default::default() }
        );
    }
}
