//! Plain counters describing artifact-store activity.
//!
//! The store itself lives in `rock-supervisor`; the counter struct
//! lives here, next to [`crate::CorpusStats`], so every layer above the
//! store can name it. All fields are per-process totals; use
//! [`StoreStats::since`] for per-job deltas and [`StoreStats::record`]
//! to put them into a metrics registry.

use rock_trace::{names, MetricsRegistry};

/// Counters for one artifact store (or a delta between two snapshots).
///
/// Store counters are observability only: they ride in job-level
/// metrics documents, `--timings`, and job reports, but never enter
/// the pipeline's own registry or diagnostics — warm and cold runs
/// stay byte-identical there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Orphaned `.art.tmp` files removed (open-time sweep or scrub).
    pub tmp_swept: u64,
    /// Checkpoint saves re-attempted after a transient i/o fault.
    pub write_retries: u64,
    /// Checkpoint saves abandoned after retries — resume for that
    /// stage is lost but the job keeps running.
    pub write_failures: u64,
    /// Artifact loads re-attempted after a transient i/o fault.
    pub read_retries: u64,
    /// Artifact loads abandoned after retries — the job recomputes.
    pub read_failures: u64,
    /// Artifacts whose checksum or frame failed verification.
    pub corrupt_detected: u64,
    /// Checkpoint saves skipped after the supervisor degraded a job to
    /// recompute-without-checkpointing (persistent storage fault).
    pub checkpoints_skipped: u64,
    /// Backoff milliseconds scheduled for store retries (recorded even
    /// when the store does not actually sleep).
    pub retry_backoff_ms: u64,
}

impl StoreStats {
    /// Component-wise `self - earlier` (for per-job deltas).
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            tmp_swept: self.tmp_swept - earlier.tmp_swept,
            write_retries: self.write_retries - earlier.write_retries,
            write_failures: self.write_failures - earlier.write_failures,
            read_retries: self.read_retries - earlier.read_retries,
            read_failures: self.read_failures - earlier.read_failures,
            corrupt_detected: self.corrupt_detected - earlier.corrupt_detected,
            checkpoints_skipped: self.checkpoints_skipped - earlier.checkpoints_skipped,
            retry_backoff_ms: self.retry_backoff_ms - earlier.retry_backoff_ms,
        }
    }

    /// Adds these counts to `metrics` under the `store.*` names — the
    /// only code that writes them into a registry.
    pub fn record(&self, metrics: &mut MetricsRegistry) {
        for (name, v) in [
            (names::STORE_TMP_SWEPT, self.tmp_swept),
            (names::STORE_WRITE_RETRIES, self.write_retries),
            (names::STORE_WRITE_FAILURES, self.write_failures),
            (names::STORE_READ_RETRIES, self.read_retries),
            (names::STORE_READ_FAILURES, self.read_failures),
            (names::STORE_CORRUPT_DETECTED, self.corrupt_detected),
            (names::STORE_CHECKPOINTS_SKIPPED, self.checkpoints_skipped),
            (names::STORE_RETRY_BACKOFF_MS, self.retry_backoff_ms),
        ] {
            metrics.add(name, v);
        }
    }

    /// True when any fault-path counter is non-zero (sweeps count:
    /// a swept tmp is evidence of an earlier interrupted commit).
    pub fn has_activity(&self) -> bool {
        *self != StoreStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_componentwise() {
        let a = StoreStats {
            tmp_swept: 3,
            write_retries: 5,
            write_failures: 1,
            read_retries: 2,
            read_failures: 1,
            corrupt_detected: 4,
            checkpoints_skipped: 2,
            retry_backoff_ms: 700,
        };
        let b = StoreStats {
            tmp_swept: 1,
            write_retries: 2,
            write_failures: 0,
            read_retries: 1,
            read_failures: 1,
            corrupt_detected: 1,
            checkpoints_skipped: 0,
            retry_backoff_ms: 100,
        };
        let d = a.since(&b);
        assert_eq!(d.tmp_swept, 2);
        assert_eq!(d.write_retries, 3);
        assert_eq!(d.write_failures, 1);
        assert_eq!(d.read_retries, 1);
        assert_eq!(d.read_failures, 0);
        assert_eq!(d.corrupt_detected, 3);
        assert_eq!(d.checkpoints_skipped, 2);
        assert_eq!(d.retry_backoff_ms, 600);
    }

    #[test]
    fn activity_gate() {
        assert!(!StoreStats::default().has_activity());
        assert!(StoreStats { tmp_swept: 1, ..Default::default() }.has_activity());
        assert!(StoreStats { retry_backoff_ms: 50, ..Default::default() }.has_activity());
    }
}
