//! The staged pipeline as the benchmark drives it: `Rock::begin`, one
//! `StagedRun::advance` per stage, then `finish`, with a span around each
//! call, plus the per-layer counters read from the run's public metrics.

use rock_core::{CorpusStats, Reconstruction, Rock, StageId};
use rock_loader::LoadedBinary;
use rock_supervisor::JobOutput;

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::Recorder;

/// Span names of the pipeline calls, in execution order.
pub const STAGE_SPANS: [&str; 5] =
    ["analysis.advance", "training.advance", "distances.advance", "lifting.advance", "core.finish"];

fn stage_span(stage: StageId) -> &'static str {
    match stage {
        StageId::Analysis => STAGE_SPANS[0],
        StageId::Training => STAGE_SPANS[1],
        StageId::Distances => STAGE_SPANS[2],
        StageId::Lifting => STAGE_SPANS[3],
    }
}

/// Runs every stage of `loaded` on `rock`, one span per call.
pub fn run_staged(
    rock: &Rock,
    loaded: &LoadedBinary,
    rec: &mut Recorder,
    op: u64,
) -> Result<Reconstruction, String> {
    let mut run = rock.begin(loaded);
    while let Some(stage) = run.pending() {
        rec.time(stage_span(stage), op, || run.advance())
            .map_err(|e| format!("stage {stage} failed: {e}"))?;
    }
    Ok(rec.time(STAGE_SPANS[4], op, || run.finish()))
}

/// The content fingerprint the serve daemon reports as `result_fp`:
/// hierarchy edges, distance bits, structural pins and coverage.
pub fn fingerprint(recon: Reconstruction) -> (u64, Reconstruction) {
    let output = JobOutput::Full(Box::new(recon));
    let fp = rock_serve::result_fp(&output);
    match output {
        JobOutput::Full(recon) => (fp, *recon),
        _ => unreachable!("constructed as Full"),
    }
}

/// Work counters summed over reconstructions, from their public metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    runs: u64,
    functions_analyzed: u64,
    events: u64,
    models_trained: u64,
    arena_bytes: u64,
    pairs_scored: u64,
    edges: u64,
    tie_variants: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counters {
    /// Adds one reconstruction's counters.
    pub fn add(&mut self, recon: &Reconstruction) {
        let m = &recon.metrics;
        self.runs += 1;
        self.functions_analyzed += m.counter("analysis.functions_analyzed");
        self.events += m.counter("analysis.events");
        self.models_trained += m.counter("slm.models_trained");
        self.arena_bytes += m.counter("slm.arena_bytes");
        self.pairs_scored += m.counter("distances.pairs_scored");
        self.edges += m.counter("distances.edges");
        self.tie_variants += m.counter("lifting.tie_variants");
        self.cache_hits += m.counter("distances.cache_hit");
        self.cache_misses += m.counter("distances.cache_miss");
    }

    /// Sets the per-reconstruction means and the stage busy times (median
    /// span durations) on `report`.
    pub fn report(&self, rec: &Recorder, report: &mut Report) {
        let per_run = |v: u64| ratio(v, self.runs);
        report.set("analysis.functions_analyzed", per_run(self.functions_analyzed));
        report.set("analysis.events", per_run(self.events));
        report.set("slm.models_trained", per_run(self.models_trained));
        report.set("slm.arena_bytes", per_run(self.arena_bytes));
        report.set("distances.pairs_scored", per_run(self.pairs_scored));
        report.set("distances.edges", per_run(self.edges));
        report.set("lifting.tie_variants", per_run(self.tie_variants));
        report.set(
            "distances.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        for (span, metric) in STAGE_SPANS.iter().zip([
            "analysis.busy_ms",
            "training.busy_ms",
            "distances.busy_ms",
            "lifting.busy_ms",
            "finish.busy_ms",
        ]) {
            report.set(metric, median(&rec.durations(span)));
        }
    }
}

/// Loads each of `images` under a `loader.load` span, reports the median
/// load time and the mean vtable count, and returns the loaded binaries.
pub fn trace_loads(
    images: Vec<rock_binary::BinaryImage>,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Vec<LoadedBinary>, String> {
    let mut loaded = Vec::with_capacity(images.len());
    for (i, image) in images.into_iter().enumerate() {
        let binary = rec
            .time("loader.load", i as u64, || LoadedBinary::load(image))
            .map_err(|e| format!("image {i} does not load: {e}"))?;
        loaded.push(binary);
    }
    let vtables: Vec<f64> = loaded.iter().map(|l| l.vtables().len() as f64).collect();
    report.set("loader.load_ms", median(&rec.durations("loader.load")));
    report.set("loader.vtables", crate::stats::mean(&vtables));
    Ok(loaded)
}

/// Reports the corpus cache's hit ratio per tier, its evictions, and
/// `bytes_stored` as `corpus.bytes_stored`.
pub fn report_corpus(c: &CorpusStats, bytes_stored: f64, report: &mut Report) {
    let hit_ratio = |hits: u64, misses: u64| ratio(hits, hits + misses);
    report.set("corpus.tracelet_hit_ratio", hit_ratio(c.tracelet_hits, c.tracelet_misses));
    report.set("corpus.slm_hit_ratio", hit_ratio(c.slm_hits, c.slm_misses));
    report.set("corpus.distance_hit_ratio", hit_ratio(c.distance_hits, c.distance_misses));
    report.set("corpus.lifting_hit_ratio", hit_ratio(c.lifting_hits, c.lifting_misses));
    report.set("corpus.bytes_stored", bytes_stored);
    report.set("corpus.evicted", c.evicted as f64);
}
