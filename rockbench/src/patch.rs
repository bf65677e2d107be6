//! `patch_rerun`: the patch-and-rerun loop. A base image from
//! `suite::delta_spec(12, 10, seed)` (120 classes) is reconstructed cold
//! and flushed into a store during set-up. The timed region then applies
//! a cumulative sequence of edits of the five kinds the incremental suite
//! draws (body edit, added or removed method, slot reorder, new class,
//! flipped call target; `gen::edit_sequence` says why its shape is the
//! same under every seed), each run the way
//! `rock batch --incremental` runs it: a fresh `Supervisor` and
//! `CorpusCache` that open the store, preload its sub-artifacts, run the
//! job, and flush what is new. Store reads (`ROCKSUB` files and
//! `snapshot.pack`) sit beside writes and a dirty-closure recompute. The
//! timed region bypasses the daemon; the traced run also serves every
//! edited image once to measure the serve layer (see [`crate::serve`]).
//!
//! The edit count is fixed per run ([`EDITS_PER_SECOND`] per second of
//! `--seconds`), not timed, because the store grows with every edit: a
//! time-bounded loop would make a faster program measure a larger store.
//! The sequence is replayed [`ROUNDS`] times, each on a freshly built base
//! store (untimed), so a run's edit timings span more of the host's
//! contention phases without the store growing further.
//! Set-up generates and compiles the base image and every edited image,
//! and builds the base store. The store's flush is thousands of small file
//! writes whose kernel time varied by half between runs on a virtual
//! machine; compiling the edited images, which are inputs like the base,
//! is most of the set-up.
//!
//! Operation: one edit's rerun, store open to flush.
//! Tail: p90; a run makes at least [`ROUNDS`] × [`MIN_EDITS`] edits, so
//! that ten samples lie beyond it.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rock_binary::{image_from_bytes, BinaryImage};
use rock_core::suite::{self, DeltaSpec};
use rock_core::{CorpusCache, CorpusStats, Parallelism, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_minicpp::Compiled;
use rock_supervisor::{
    preload_subartifacts, ArtifactStore, JobOutcome, Supervisor, SupervisorOptions,
};

use crate::pipeline::{self, Counters};
use crate::report::{EndToEnd, Report};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::Recorder;
use crate::util::{self, Scratch};
use crate::{gate, gen, serve, Args};

/// Edits per second of `--seconds`.
pub const EDITS_PER_SECOND: u64 = 6;
/// Fewest edits in the sequence: replayed [`ROUNDS`] times, ten timings
/// lie beyond p90.
pub const MIN_EDITS: usize = 55;
/// Times a run replays the edit sequence, each on a fresh base store.
pub const ROUNDS: usize = 2;
/// The base image: families and classes per family.
const BASE: (usize, usize) = (12, 10);

/// The generated edit sequence.
pub struct Inputs {
    /// The base image.
    pub base: Vec<u8>,
    /// The spec after each edit.
    pub specs: Vec<DeltaSpec>,
    /// The stripped image after each edit, as the rerun reads it.
    pub edited: Vec<Vec<u8>>,
}

/// Generates and compiles the base image and `edits` cumulative edits for
/// `seed`, for tests; a run builds the base store in between.
#[cfg(test)]
pub fn inputs(seed: u64, base: (usize, usize), edits: usize) -> Inputs {
    let spec = suite::delta_spec(base.0, base.1, seed);
    let base = bytes(&gen::delta_image(&spec));
    with_edits(&spec, base, edits)
}

/// Generates and compiles `edits` cumulative edits of `spec`, whose
/// compiled image is `base`.
fn with_edits(spec: &DeltaSpec, base: Vec<u8>, edits: usize) -> Inputs {
    let specs = gen::edit_sequence(spec, edits);
    let edited = specs.iter().map(|s| bytes(&gen::delta_image(s))).collect();
    Inputs { base, specs, edited }
}

fn bytes(compiled: &Compiled) -> Vec<u8> {
    rock_binary::image_to_bytes(&compiled.stripped_image())
}

fn image(bytes: &[u8]) -> Result<BinaryImage, String> {
    image_from_bytes(bytes).map_err(|e| format!("edited image: {e}"))
}

/// Incremental reruns need content-keyed calls, as `--incremental` sets.
pub fn config(threads: usize) -> RockConfig {
    RockConfig::paper().with_canonical_calls().with_parallelism(Parallelism::Threads(threads))
}

fn options() -> SupervisorOptions {
    SupervisorOptions { incremental: true, ..SupervisorOptions::default() }
}

fn supervisor(config: RockConfig, store: ArtifactStore) -> Supervisor {
    Supervisor::new(config, store, options()).with_corpus(Arc::new(CorpusCache::new()))
}

fn open(dir: &Path) -> Result<ArtifactStore, String> {
    ArtifactStore::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// A fresh store holding the cold run of the base image `base`.
pub fn prepare(base: &[u8], config: RockConfig) -> Result<Scratch, String> {
    let scratch = Scratch::new("patch-store")?;
    let sup = supervisor(config, open(scratch.path())?);
    sup.preload_incremental();
    let base = sup.run_job("base", base);
    if base.report.outcome != JobOutcome::Ok {
        return Err(format!("base run ended {}", base.report.outcome.name()));
    }
    let flushed = sup.flush_incremental();
    if flushed.io_errors > 0 || flushed.flushed == 0 {
        return Err(format!("base flush: {flushed:?}"));
    }
    Ok(scratch)
}

/// One edit's rerun.
#[derive(Debug)]
pub struct Edit {
    /// Position in the edit sequence.
    pub input: usize,
    /// Store open to flush, ms.
    pub ms: f64,
    /// Result fingerprint.
    pub fp: u64,
    /// `ok` outcome, no store incident, no sub-artifact I/O error.
    pub ok: bool,
    /// Sub-artifacts preloaded and flushed.
    pub incr: (u64, u64),
    /// The rerun's corpus traffic.
    pub corpus: CorpusStats,
    /// Store read and write retries.
    pub retries: u64,
    /// Whether the edit's spans were recorded.
    pub traced: bool,
}

/// Reruns every edit against the store in `dir`, as replay `round` of the
/// sequence. Each edit that `rec` records is first loaded and decomposed
/// into pipeline stages on a second cache preloaded from the same store,
/// outside the edit's own span.
pub fn rerun(
    inputs: &Inputs,
    (dir, round): (&Path, usize),
    config: RockConfig,
    rec: &mut Recorder,
    counters: &mut Counters,
    loaded_vtables: &mut Vec<f64>,
) -> Result<Vec<Edit>, String> {
    let mut edits = Vec::with_capacity(inputs.specs.len());
    for (k, bytes) in inputs.edited.iter().enumerate() {
        let op = (round * inputs.edited.len() + k) as u64;
        let traced = rec.alternate(op);
        if traced {
            let corpus = Arc::new(CorpusCache::new());
            preload_subartifacts(&open(dir)?, &corpus);
            let image = image(bytes)?;
            let loaded = rec
                .time("loader.load", op, || LoadedBinary::load(image))
                .map_err(|e| format!("edit {k}: {e}"))?;
            loaded_vtables.push(loaded.vtables().len() as f64);
            let rock = Rock::new(config).with_corpus_cache(corpus);
            counters.add(&pipeline::run_staged(&rock, &loaded, rec, op)?);
        }
        let t = Instant::now();
        rec.enter("op.edit", op);
        let store = rec.time("store.open", op, || open(dir));
        let result = store.map(|store| {
            let sup = supervisor(config, store);
            let pre = rec.time("incr.preload", op, || sup.preload_incremental());
            let job =
                rec.time("supervisor.run_job", op, || sup.run_job(&format!("edit-{k}"), bytes));
            let flush = rec.time("incr.flush", op, || sup.flush_incremental());
            (sup, pre, job, flush)
        });
        rec.exit();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (sup, pre, job, flush) = result?;
        let store = sup.store().stats();
        edits.push(Edit {
            input: k,
            ms,
            fp: rock_serve::result_fp(&job.output),
            ok: job.report.outcome == JobOutcome::Ok
                && job.report.store_incidents.is_empty()
                && pre.io_errors + flush.io_errors == 0,
            incr: (pre.preloaded, flush.flushed),
            corpus: sup.corpus().map(|c| c.stats()).unwrap_or_default(),
            retries: store.write_retries + store.read_retries,
            traced,
        });
    }
    rec.resume();
    Ok(edits)
}

/// The reference: a cold reconstruction of every edited image, no store
/// and no corpus cache. Returns each fingerprint and the mean
/// application distance over the edited images.
pub fn reference(inputs: &Inputs, config: RockConfig) -> Result<(Vec<u64>, (f64, f64)), String> {
    let mut fps = Vec::new();
    let (mut missing, mut added) = (Vec::new(), Vec::new());
    for (spec, bytes) in inputs.specs.iter().zip(&inputs.edited) {
        let loaded = LoadedBinary::load(image(bytes)?).map_err(|e| format!("edited image: {e}"))?;
        let (fp, recon) = pipeline::fingerprint(Rock::new(config).reconstruct(&loaded));
        let compiled = gen::delta_image(spec);
        fps.push(fp);
        let eval = rock_core::evaluate(&compiled, &recon);
        missing.push(eval.with_slm.avg_missing);
        added.push(eval.with_slm.avg_added);
    }
    Ok((fps, (mean(&missing), mean(&added))))
}

/// The gate: every incremental result equals the cold reconstruction of
/// the same edited image.
pub fn verify(edits: &[Edit], reference: &[u64]) -> Vec<String> {
    let observed: Vec<(usize, u64)> = edits.iter().map(|e| (e.input, e.fp)).collect();
    gate::compare("edit", &observed, reference)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let threads = util::nproc();
    let config = config(threads);
    let count = ((EDITS_PER_SECOND * args.seconds) as usize).max(MIN_EDITS);
    let ((inputs, mut store), setup_s) = util::repeat_setup(|| {
        // The base store is built before the edits are compiled: with the
        // compiled edits (some 40 MB) already resident, the base run's
        // peak memory varied by a quarter between runs.
        let spec = suite::delta_spec(BASE.0, BASE.1, args.seed);
        let base = bytes(&gen::delta_image(&spec));
        let store = prepare(&base, config)?;
        Ok((with_edits(&spec, base, count), store))
    })?;
    let mut rec = Recorder::new(args.trace);
    let mut counters = Counters::default();
    let mut vtables = Vec::new();
    let mut edits = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            drop(store);
            store = prepare(&inputs.base, config)?;
        }
        let dir = (store.path(), round);
        edits.extend(rerun(&inputs, dir, config, &mut rec, &mut counters, &mut vtables)?);
    }
    let peak_rss_mb = util::peak_rss_mb();
    let usage = util::dir_usage(store.path());
    drop(store);

    let mut report = Report::default();
    let (reference_fps, app) = reference(&inputs, config)?;
    let mut mismatches = verify(&edits, &reference_fps);
    let ms: Vec<f64> = edits.iter().map(|e| e.ms).collect();
    let failed = edits.iter().filter(|e| !e.ok).count() as u64;
    report.end_to_end(EndToEnd {
        setup_s,
        ms: &ms,
        tail: 90.0,
        ops_per_s: ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        peak_rss_mb,
        app,
        ops: (ms.len() as u64, failed),
    });
    if args.trace {
        let traced: Vec<bool> = edits.iter().map(|e| e.traced).collect();
        let edits: Vec<&Edit> = edits.iter().filter(|e| e.traced).collect();
        report.set("loader.load_ms", median(&rec.durations("loader.load")));
        report.set("loader.vtables", mean(&vtables));
        counters.report(&rec, &mut report);
        let mut c = CorpusStats::default();
        for e in &edits {
            add_corpus(&mut c, &e.corpus);
        }
        pipeline::report_corpus(&c, ratio(c.bytes_stored, edits.len() as u64), &mut report);
        report.set("incr.reuse_ratio", c.hit_rate());
        report.set("supervisor.job_ms", median(&rec.durations("supervisor.run_job")));
        report.set("store.open_ms", median(&rec.durations("store.open")));
        report.set("store.files", usage.0 as f64);
        report.set("store.bytes_on_disk", usage.1 as f64);
        report.set("store.retries", edits.iter().map(|e| e.retries).sum::<u64>() as f64);
        report.set("incr.preload_ms", median(&rec.durations("incr.preload")));
        report.set("incr.flush_ms", median(&rec.durations("incr.flush")));
        let preloaded: Vec<f64> = edits.iter().map(|e| e.incr.0 as f64).collect();
        let flushed: Vec<f64> = edits.iter().map(|e| e.incr.1 as f64).collect();
        report.set("incr.preloaded", mean(&preloaded));
        report.set("incr.flushed", mean(&flushed));
        mismatches.extend(serve::measure(&inputs.edited, &reference_fps, &mut rec, &mut report)?);
        report.tracing(args, &rec, "op.edit", (&ms, &traced))?;
    }
    report.gate(mismatches);
    report.note_run(threads);
    report.note("vtables", BASE.0 * BASE.1);
    report.note("images", inputs.specs.len() + 1);
    report.note("edits", inputs.specs.len());
    report.note("rounds", ROUNDS);
    report.note("edit_p50_ms", median(&ms));
    report.note("edit_p90_ms", percentile(&ms, 90.0));
    Ok(report)
}

/// Adds `c`'s counters into `total`.
fn add_corpus(total: &mut CorpusStats, c: &CorpusStats) {
    total.tracelet_hits += c.tracelet_hits;
    total.tracelet_misses += c.tracelet_misses;
    total.slm_hits += c.slm_hits;
    total.slm_misses += c.slm_misses;
    total.distance_hits += c.distance_hits;
    total.distance_misses += c.distance_misses;
    total.lifting_hits += c.lifting_hits;
    total.lifting_misses += c.lifting_misses;
    total.bytes_stored += c.bytes_stored;
    total.corrupt_dropped += c.corrupt_dropped;
    total.evicted += c.evicted;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small base with a few edits through the incremental loop and the
    /// gate: cold references pass, a wrong reference fails the run.
    #[test]
    fn gate_fails_on_a_wrong_reference() {
        let inputs = inputs(4, (3, 4), 5);
        let config = config(2);
        let store = prepare(&inputs.base, config).expect("base store");
        let mut rec = Recorder::new(false);
        let edits = rerun(
            &inputs,
            (store.path(), 0),
            config,
            &mut rec,
            &mut Counters::default(),
            &mut Vec::new(),
        )
        .expect("reruns");
        assert_eq!(edits.len(), 5);
        assert!(edits.iter().all(|e| e.ok), "{edits:?}");
        let (mut fps, _) = reference(&inputs, config).expect("reference");
        assert!(verify(&edits, &fps).is_empty());
        fps[2] ^= 1;
        assert_eq!(verify(&edits, &fps).len(), 1, "a wrong reference must fail the gate");
    }
}
