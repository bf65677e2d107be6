//! Per-stage wall clock for one reconstruction run, and the one
//! `--timings` renderer.

use std::fmt::Write as _;
use std::time::Duration;

use rock_trace::{names, MetricsRegistry};

/// Wall-clock time of each pipeline stage of a single
/// [`crate::Rock::reconstruct`] call.
///
/// Related binary-lifting systems (VPS; the GrammaTech type-inference
/// work) report analysis wall-clock as a first-class result; this struct
/// makes the same numbers available here — per stage, so regressions can
/// be pinned to tracelet extraction vs. model training vs. lifting rather
/// than observed only as an end-to-end blur. It holds clocks only: every
/// work count lives in a [`MetricsRegistry`], and [`render_timings`]
/// joins the two for `rock reconstruct --timings` and the benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Behavioral analysis: tracelet extraction + ctor recognition (§3).
    pub analysis: Duration,
    /// Structural analysis: families + possible parents (§5).
    pub structural: Duration,
    /// Per-vtable SLM training (§3.1).
    pub training: Duration,
    /// Per-family distance-matrix computation (§4.2.1).
    pub distances: Duration,
    /// Per-family arborescence search + tie resolution (§4.2.2).
    pub lifting: Duration,
    /// Cross-family repartitioning (§6.4 extension; zero when disabled).
    pub repartition: Duration,
    /// End-to-end wall clock for the whole `reconstruct` call.
    pub total: Duration,
    /// Worker threads the parallel stages resolved to.
    pub threads: usize,
}

/// How `--timings[=json]` renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingsFormat {
    /// The aligned per-stage table.
    Text,
    /// One flat JSON object: clocks as integer microseconds, then every
    /// counter of the registry under its registry name.
    Json,
}

/// Renders one run's `--timings` report from its clocks and its
/// counters. `rock reconstruct`, `rock batch` and the benchmarks all go
/// through here; a batch job passes its pipeline registry merged with
/// the job-level `supervisor.*` / `corpus.*` / `store.*` counters.
pub fn render_timings(
    timings: &StageTimings,
    metrics: &MetricsRegistry,
    format: TimingsFormat,
) -> String {
    match format {
        TimingsFormat::Text => render_text(timings, metrics),
        TimingsFormat::Json => {
            let us = |d: Duration| d.as_micros();
            let mut s = format!(
                "{{\"threads\":{},\"analysis_us\":{},\"structural_us\":{},\"training_us\":{},\
                 \"distances_us\":{},\"lifting_us\":{},\"repartition_us\":{},\"total_us\":{}",
                timings.threads,
                us(timings.analysis),
                us(timings.structural),
                us(timings.training),
                us(timings.distances),
                us(timings.lifting),
                us(timings.repartition),
                us(timings.total),
            );
            s.push_str(&json_counter_fields(metrics));
            s.push('}');
            s
        }
    }
}

/// `,"name":value` for every counter of `metrics`, in name order: the
/// counter half of each `--timings=json` object (per run and per batch).
pub fn json_counter_fields(metrics: &MetricsRegistry) -> String {
    metrics.counters().map(|(name, v)| format!(",\"{name}\":{v}")).collect()
}

fn render_text(t: &StageTimings, m: &MetricsRegistry) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let c = |name| m.counter(name);
    let mut s = String::new();
    let _ = writeln!(s, "stage timings ({} thread(s)):", t.threads);
    let _ = writeln!(s, "  analysis     {:>10.3} ms", ms(t.analysis));
    let _ = writeln!(s, "  structural   {:>10.3} ms", ms(t.structural));
    let _ = writeln!(
        s,
        "  training     {:>10.3} ms  ({} SLMs)",
        ms(t.training),
        c(names::SLM_MODELS_TRAINED)
    );
    let _ = writeln!(
        s,
        "  slm arenas   {} nodes, {} edges, ~{:.1} KiB, {}/{} unique words",
        c(names::SLM_ARENA_NODES),
        c(names::SLM_ARENA_EDGES),
        c(names::SLM_ARENA_BYTES) as f64 / 1024.0,
        c(names::SLM_WORDS_UNIQUE),
        c(names::SLM_WORDS_TOTAL)
    );
    let _ = writeln!(
        s,
        "  distances    {:>10.3} ms  ({} edges)",
        ms(t.distances),
        c(names::DISTANCES_EDGES)
    );
    let _ = writeln!(s, "  lifting      {:>10.3} ms", ms(t.lifting));
    let _ = writeln!(s, "  repartition  {:>10.3} ms", ms(t.repartition));
    let foreign = c(names::DISTANCES_FOREIGN_CANDIDATES);
    if foreign > 0 {
        let _ = writeln!(s, "  skipped foreign candidates: {foreign}");
    }
    s.push_str(&render_layers(m));
    let _ = writeln!(
        s,
        "  robustness   {} skipped fns ({} fuel-starved), {} rejected vtables, \
         {} diagnostic bytes",
        c(names::ANALYSIS_FUNCTIONS_SKIPPED),
        c(names::ANALYSIS_FUEL_EXHAUSTED),
        c(names::LOAD_VTABLES_REJECTED),
        c(names::DIAGNOSTICS_BYTES)
    );
    let _ = write!(s, "  total        {:>10.3} ms", ms(t.total));
    s
}

/// The runtime-layer lines of the text report — corpus cache,
/// incremental sub-artifacts, artifact store — one block per layer
/// with a nonzero `corpus.*` / `incr.*` / `store.*` counter (empty when
/// none has). Batch and daemon totals print these on their own.
pub fn render_layers(m: &MetricsRegistry) -> String {
    let c = |name| m.counter(name);
    let active = |prefix: &str| m.counters().any(|(name, v)| v > 0 && name.starts_with(prefix));
    let mut s = String::new();
    if active("corpus.") {
        let hit_of = |hit, miss| format!("{}/{}", c(hit), c(hit) + c(miss));
        let _ = writeln!(
            s,
            "  corpus       tracelets {} hit, slms {} hit, distances {} hit, liftings {} hit",
            hit_of(names::CORPUS_TRACELET_HIT, names::CORPUS_TRACELET_MISS),
            hit_of(names::CORPUS_SLM_HIT, names::CORPUS_SLM_MISS),
            hit_of(names::CORPUS_DISTANCE_HIT, names::CORPUS_DISTANCE_MISS),
            hit_of(names::CORPUS_LIFTING_HIT, names::CORPUS_LIFTING_MISS),
        );
        let _ = writeln!(
            s,
            "               {} bytes stored, {} corrupt entries dropped, {} evicted",
            c(names::CORPUS_BYTES_STORED),
            c(names::CORPUS_CORRUPT_DROPPED),
            c(names::CORPUS_EVICTED)
        );
    }
    if active("incr.") {
        let _ = writeln!(
            s,
            "  incr         {} preloaded, {} flushed, {} unchanged, \
             {} corrupt skipped, {} io errors",
            c(names::INCR_PRELOADED),
            c(names::INCR_FLUSHED),
            c(names::INCR_UNCHANGED),
            c(names::INCR_CORRUPT_SKIPPED),
            c(names::INCR_IO_ERRORS),
        );
    }
    if active("store.") {
        let _ = writeln!(
            s,
            "  store        {} tmp swept, {} write retries ({} lost), \
             {} read retries ({} lost), {} corrupt, {} saves skipped, {} ms backoff",
            c(names::STORE_TMP_SWEPT),
            c(names::STORE_WRITE_RETRIES),
            c(names::STORE_WRITE_FAILURES),
            c(names::STORE_READ_RETRIES),
            c(names::STORE_READ_FAILURES),
            c(names::STORE_CORRUPT_DETECTED),
            c(names::STORE_CHECKPOINTS_SKIPPED),
            c(names::STORE_RETRY_BACKOFF_MS),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_of(m: &MetricsRegistry) -> String {
        let t = StageTimings {
            analysis: Duration::from_millis(12),
            training: Duration::from_micros(1500),
            threads: 4,
            ..StageTimings::default()
        };
        render_timings(&t, m, TimingsFormat::Text)
    }

    fn json_of(m: &MetricsRegistry) -> String {
        render_timings(&StageTimings::default(), m, TimingsFormat::Json)
    }

    fn pipeline_counters() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (name, v) in [
            (names::SLM_MODELS_TRAINED, 39),
            (names::SLM_ARENA_NODES, 410),
            (names::SLM_ARENA_EDGES, 380),
            (names::SLM_ARENA_BYTES, 4096),
            (names::SLM_WORDS_UNIQUE, 57),
            (names::SLM_WORDS_TOTAL, 200),
            (names::DISTANCES_EDGES, 120),
            (names::ANALYSIS_FUNCTIONS_SKIPPED, 2),
            (names::ANALYSIS_FUEL_EXHAUSTED, 1),
            (names::LOAD_VTABLES_REJECTED, 3),
            (names::DIAGNOSTICS_BYTES, 96),
        ] {
            m.set(name, v);
        }
        m
    }

    #[test]
    fn renders_every_stage() {
        let m = pipeline_counters();
        let text = text_of(&m);
        for needle in [
            "4 thread(s)",
            "analysis",
            "structural",
            "39 SLMs",
            "410 nodes, 380 edges, ~4.0 KiB, 57/200 unique words",
            "120 edges)",
            "lifting",
            "repartition",
            "2 skipped fns (1 fuel-starved), 3 rejected vtables, 96 diagnostic bytes",
            "total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The foreign-candidate line only appears when something was skipped.
        assert!(!text.contains("foreign"));
        let mut skipped = m.clone();
        skipped.set(names::DISTANCES_FOREIGN_CANDIDATES, 2);
        assert!(text_of(&skipped).contains("skipped foreign candidates: 2"));
        // The layer lines only appear when their layer saw traffic.
        assert!(!text.contains("corpus"));
        assert!(!text.contains("store "));
        assert!(!text.contains("incr "));
    }

    #[test]
    fn json_carries_clocks_and_every_counter_by_registry_name() {
        let m = pipeline_counters();
        let doc = json_of(&m);
        assert!(doc.starts_with("{\"threads\":0,\"analysis_us\":0,"), "{doc}");
        assert!(doc.contains("\"total_us\":0,"), "{doc}");
        for (name, v) in m.counters() {
            assert!(doc.contains(&format!("\"{name}\":{v}")), "missing {name} in {doc}");
        }
        assert!(doc.ends_with('}'));
    }

    #[test]
    fn corpus_stats_record_into_the_registry() {
        let delta = crate::CorpusStats {
            tracelet_hits: 9,
            tracelet_misses: 1,
            slm_hits: 4,
            slm_misses: 2,
            distance_hits: 3,
            distance_misses: 3,
            lifting_hits: 2,
            lifting_misses: 1,
            bytes_stored: 2048,
            corrupt_dropped: 0,
            evicted: 6,
        };
        let mut m = pipeline_counters();
        delta.record(&mut m);
        assert_eq!(m.counter(names::CORPUS_SLM_HIT), 4);
        assert_eq!(m.counter(names::CORPUS_LIFTING_HIT), 2);
        assert_eq!(m.counter(names::CORPUS_DISTANCE_MISS), 3);
        assert_eq!(m.counter(names::CORPUS_LIFTING_MISS), 1);
        assert_eq!(m.counter(names::CORPUS_EVICTED), 6);
        let text = text_of(&m);
        assert!(text.contains("tracelets 9/10 hit, slms 4/6 hit, distances 3/6 hit"), "{text}");
        assert!(text.contains("2048 bytes stored, 0 corrupt entries dropped, 6 evicted"), "{text}");
        assert!(json_of(&m).contains("\"corpus.tracelet_hit\":9"));
    }

    #[test]
    fn store_stats_record_into_the_registry() {
        let delta = crate::StoreStats {
            tmp_swept: 2,
            write_retries: 3,
            write_failures: 1,
            read_retries: 4,
            read_failures: 2,
            corrupt_detected: 1,
            checkpoints_skipped: 5,
            retry_backoff_ms: 700,
        };
        let mut m = MetricsRegistry::new();
        // The store line only appears when the fault paths fired.
        crate::StoreStats::default().record(&mut m);
        assert!(render_layers(&m).is_empty());
        delta.record(&mut m);
        assert_eq!(m.counter(names::STORE_WRITE_RETRIES), 3);
        assert_eq!(m.counter(names::STORE_CHECKPOINTS_SKIPPED), 5);
        assert_eq!(m.counter(names::STORE_TMP_SWEPT), 2);
        assert_eq!(m.counter(names::STORE_RETRY_BACKOFF_MS), 700);
        let text = text_of(&m);
        assert!(text.contains("2 tmp swept, 3 write retries (1 lost)"), "{text}");
        assert!(text.contains("1 corrupt, 5 saves skipped, 700 ms backoff"), "{text}");
        assert!(json_of(&m).contains("\"store.read_retries\":4"));
    }

    #[test]
    fn incr_stats_record_into_the_registry() {
        let delta = crate::IncrStats {
            preloaded: 12,
            flushed: 3,
            unchanged: 9,
            corrupt_skipped: 1,
            io_errors: 0,
        };
        let mut m = MetricsRegistry::new();
        // The incr line only appears when the layer saw traffic.
        assert!(!render_layers(&m).contains("incr "));
        delta.record(&mut m);
        assert_eq!(m.counter(names::INCR_PRELOADED), 12);
        assert_eq!(m.counter(names::INCR_UNCHANGED), 9);
        assert_eq!(m.counter(names::INCR_CORRUPT_SKIPPED), 1);
        let text = render_layers(&m);
        assert!(text.contains("12 preloaded, 3 flushed, 9 unchanged"), "{text}");
        assert!(json_of(&m).contains("\"incr.preloaded\":12"));
        // Recording accumulates, so a daemon can fold in every flush.
        delta.record(&mut m);
        assert_eq!(m.counter(names::INCR_PRELOADED), 24);
    }
}
