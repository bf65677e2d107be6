//! The metric catalogue and the result lines a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{beyond, median, percentile, ratio};
use crate::trace::Recorder;
use crate::Args;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["skype_scale", "patch_rerun"];

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. Each workload defines its operation (one cold
/// reconstruction, one served job, one incremental edit); `op_*` and
/// `ops_per_s` are taken over those operations.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("app_missing", "count"),
    ("app_added", "count"),
];

/// Per-layer metrics from the traced run, grouped by crate: `(name,
/// unit)`. A workload that bypasses a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 40] = [
    // loader
    ("loader.load_ms", "ms"),
    ("loader.vtables", "count"),
    // analysis
    ("analysis.busy_ms", "ms"),
    ("analysis.functions_analyzed", "count"),
    ("analysis.events", "count"),
    // slm: training
    ("training.busy_ms", "ms"),
    ("slm.models_trained", "count"),
    ("slm.arena_bytes", "bytes"),
    // slm: distances
    ("distances.busy_ms", "ms"),
    ("distances.pairs_scored", "count"),
    ("distances.cache_hit_ratio", "ratio"),
    // graph: lifting
    ("lifting.busy_ms", "ms"),
    ("distances.edges", "count"),
    ("lifting.tie_variants", "count"),
    // core
    ("finish.busy_ms", "ms"),
    // corpus cache
    ("corpus.tracelet_hit_ratio", "ratio"),
    ("corpus.slm_hit_ratio", "ratio"),
    ("corpus.distance_hit_ratio", "ratio"),
    ("corpus.lifting_hit_ratio", "ratio"),
    ("corpus.bytes_stored", "bytes"),
    ("corpus.evicted", "count"),
    // supervisor and artifact store
    ("supervisor.job_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.bytes_on_disk", "bytes"),
    ("store.files", "count"),
    ("store.retries", "count"),
    // incremental sub-artifacts
    ("incr.preload_ms", "ms"),
    ("incr.flush_ms", "ms"),
    ("incr.preloaded", "count"),
    ("incr.flushed", "count"),
    ("incr.reuse_ratio", "ratio"),
    // serve daemon
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.rejected", "count"),
    ("serve.overhead_ms", "ms"),
    // the benchmark's own tracing
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans", "count"),
    // failures
    ("ops_failed_share", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed (see each workload for the definition).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Provenance and workload-named figures: key and a rendered JSON value.
    pub provenance: Vec<(String, String)>,
    /// Gate mismatches, one line each.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a numeric provenance entry.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Adds a string provenance entry.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.provenance.push((key.to_string(), format!("\"{value}\"")));
    }

    /// Adds the provenance every run carries: cores, resolved worker
    /// threads, and the code measured.
    pub fn note_run(&mut self, threads: usize) {
        self.note("nproc", crate::util::nproc());
        self.note("threads", threads);
        self.note_str("git_rev", &crate::util::git_rev());
        self.note_str("source_fp", &crate::util::source_fingerprint());
    }

    /// Records gate results: the run is correct iff there are none.
    pub fn gate(&mut self, mismatches: Vec<String>) {
        self.correct = mismatches.is_empty();
        self.mismatches = mismatches;
    }

    /// The final result line.
    pub fn result_line(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                // Per-layer metrics of a bypassed layer read 0; every
                // end-to-end metric must be measured.
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        s.push_str("}}");
        s
    }

    /// Prints the provenance line, then the result as the last line.
    pub fn emit(&self, args: &Args) {
        for m in &self.mismatches {
            eprintln!("rockbench: MISMATCH {m}");
        }
        let mut prov = format!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
            args.workload, args.seed, args.seconds, u8::from(args.trace)
        );
        for (k, v) in &self.provenance {
            let _ = write!(prov, ", \"{k}\": {v}");
        }
        let _ = write!(prov, ", \"mismatches\": {}}}}}", self.mismatches.len());
        println!("{prov}");
        println!("{}", self.result_line(args.trace));
    }
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd<'a> {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Every operation's time, ms.
    pub ms: &'a [f64],
    /// The nearest-rank percentile reported as `op_tail_ms`.
    pub tail: f64,
    /// Operations completed per second of the timed region.
    pub ops_per_s: f64,
    /// Peak resident memory after the timed region, MiB.
    pub peak_rss_mb: f64,
    /// Mean application distance: (missing, added).
    pub app: (f64, f64),
    /// Operations attempted and failed.
    pub ops: (u64, u64),
}

impl Report {
    /// Sets the end-to-end metrics, the counts, and the sample counts
    /// behind the percentiles.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        (self.attempted, self.failed) = e.ops;
        let failed_share = ratio(e.ops.1, e.ops.0);
        self.set("setup_s", e.setup_s);
        self.set("op_p50_ms", median(e.ms));
        self.set("op_tail_ms", percentile(e.ms, e.tail));
        self.set("ops_per_s", e.ops_per_s);
        self.set("peak_rss_mb", e.peak_rss_mb);
        self.set("app_missing", e.app.0);
        self.set("app_added", e.app.1);
        self.set("ops_failed_share", failed_share);
        self.note("samples", e.ms.len());
        self.note_str("tail", &format!("p{}", e.tail));
        self.note("beyond_tail", beyond(e.ms.len(), e.tail));
        self.note("ops_failed_share", failed_share);
    }

    /// Sets the metrics of the benchmark's own tracing and writes the
    /// spans. `ms` and `traced` are every operation's time and whether
    /// it was recorded; `root` names the operations' root span.
    pub fn tracing(
        &mut self,
        args: &Args,
        rec: &Recorder,
        root: &str,
        (ms, traced): (&[f64], &[bool]),
    ) -> Result<(), String> {
        let pick = |want: bool| -> Vec<f64> {
            ms.iter().zip(traced).filter(|(_, &t)| t == want).map(|(&m, _)| m).collect()
        };
        self.set("trace.overhead_pct", (median(&pick(true)) / median(&pick(false)) - 1.0) * 100.0);
        let outside = crate::trace::self_times(rec.spans()).get(root).copied().unwrap_or(0.0);
        let total: f64 = rec.durations(root).iter().sum();
        self.set("trace.unattributed_pct", ratio_f(outside, total) * 100.0);
        self.set("trace.spans", rec.spans().len() as f64);
        write_trace(args, rec)
    }
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Writes the traced run's spans to `out/trace-<workload>-<seed>.json`.
fn write_trace(args: &Args, rec: &Recorder) -> Result<(), String> {
    let dir = crate::util::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, crate::trace::to_json(&args.workload, args.seed, rec.spans()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("rockbench: spans written to {}", path.display());
    Ok(())
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json lists exactly the metrics this package reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squashed: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            squashed.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics this package does not report"
        );
        for w in WORKLOADS {
            assert!(squashed.contains(&format!("{{\"name\":\"{w}\"")), "workload {w} missing");
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut r = Report { correct: true, attempted: 3, ..Report::default() };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}")));
        }
        let traced = r.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
