//! `skype_scale`: the paper's soak regime (§6.1). One image shaped like
//! `stress_program(1, 4, 7)`, a single 400-vtable family with about 100k
//! candidate edges, reconstructed cold on the bare pipeline with one
//! worker per hardware thread. Lifting and distances do almost all the
//! work; the corpus cache, the store and the daemon are bypassed.
//!
//! Operation: one cold reconstruction, `Rock::begin` to `finish`.
//! Tail: p90 by nearest rank. A run holds too few reconstructions for any
//! percentile to have ten samples beyond it, so the tail here is a
//! within-run spread, not a latency objective.

use std::time::{Duration, Instant};

use rock_core::{Parallelism, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_minicpp::Compiled;

use crate::pipeline::{self, Counters};
use crate::report::{EndToEnd, Report};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{gate, gen, util, Args};

/// Fewest reconstructions a run makes, however long they take.
const MIN_OPS: usize = 3;
/// The image shape: families, depth, fan-out.
const SHAPE: (usize, usize, usize) = (1, 4, 7);

/// What one timed pass observed.
pub struct Pass {
    /// Per-reconstruction wall time, ms.
    pub ms: Vec<f64>,
    /// Result fingerprint per reconstruction.
    pub fps: Vec<u64>,
    /// Functions attempted and failed (skipped or fuel-exhausted).
    pub functions: (u64, u64),
    /// Work counters.
    pub counters: Counters,
    /// Whether each reconstruction was traced.
    pub traced: Vec<bool>,
    /// The last reconstruction, for the accuracy evaluation.
    pub last: Option<rock_core::Reconstruction>,
    /// Wall time of the whole pass, s.
    pub elapsed_s: f64,
}

/// Reconstructs `loaded` cold, again and again, for `seconds`.
pub fn timed(config: &RockConfig, loaded: &LoadedBinary, seconds: f64, rec: &mut Recorder) -> Pass {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut pass = Pass {
        ms: Vec::new(),
        fps: Vec::new(),
        functions: (0, 0),
        counters: Counters::default(),
        traced: Vec::new(),
        last: None,
        elapsed_s: 0.0,
    };
    let total = loaded.functions().len() as u64;
    while pass.ms.len() < MIN_OPS || Instant::now() < deadline {
        let op = pass.ms.len() as u64;
        // A fresh `Rock` per operation: its distance cache starts empty.
        let rock = Rock::new(*config);
        let traced = rec.alternate(op);
        let t = Instant::now();
        rec.enter("op.reconstruct", op);
        let result = pipeline::run_staged(&rock, loaded, rec, op);
        rec.exit();
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.traced.push(traced);
        pass.functions.0 += total;
        match result {
            Ok(recon) => {
                let c = recon.coverage;
                pass.functions.1 += (c.functions_skipped + c.functions_timed_out) as u64;
                if traced {
                    pass.counters.add(&recon);
                }
                let (fp, recon) = pipeline::fingerprint(recon);
                pass.fps.push(fp);
                pass.last = Some(recon);
            }
            Err(e) => {
                eprintln!("rockbench: reconstruction {op} failed: {e}");
                pass.functions.1 += total;
            }
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    rec.resume();
    pass
}

/// The reference fingerprint: an independent serial reconstruction.
pub fn reference_fp(config: &RockConfig, loaded: &LoadedBinary) -> u64 {
    let serial = config.with_parallelism(Parallelism::Serial);
    pipeline::fingerprint(Rock::new(serial).reconstruct(loaded)).0
}

/// The gate: every timed reconstruction matches the reference, and the
/// accuracy evaluation saw a complete reconstruction.
pub fn verify(pass: &Pass, reference: u64, compiled: &Compiled) -> (Vec<String>, (f64, f64)) {
    let observed: Vec<(usize, u64)> = pass.fps.iter().map(|&fp| (0, fp)).collect();
    let mut mismatches = gate::compare("skype image", &observed, &[reference]);
    if pass.fps.len() != pass.ms.len() {
        mismatches.push(format!("{} reconstructions failed", pass.ms.len() - pass.fps.len()));
    }
    let app = match &pass.last {
        Some(recon) => {
            let eval = rock_core::evaluate(compiled, recon);
            if eval.num_types != compiled.vtables().len() {
                mismatches.push(format!(
                    "evaluation covered {} of {} ground-truth types",
                    eval.num_types,
                    compiled.vtables().len()
                ));
            }
            (eval.with_slm.avg_missing, eval.with_slm.avg_added)
        }
        None => (0.0, 0.0),
    };
    (mismatches, app)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let threads = util::nproc();
    let config = RockConfig::paper().with_parallelism(Parallelism::Threads(threads));
    let ((compiled, loaded), setup_s) = util::repeat_setup(|| {
        let compiled = gen::stress_image(args.seed, SHAPE.0, SHAPE.1, SHAPE.2);
        let loaded = LoadedBinary::load(compiled.stripped_image())
            .map_err(|e| format!("skype image does not load: {e}"))?;
        Ok((compiled, loaded))
    })?;
    let mut rec = Recorder::new(args.trace);
    let pass = timed(&config, &loaded, args.seconds as f64, &mut rec);
    let peak_rss_mb = util::peak_rss_mb();

    let mut report = Report::default();
    let (mismatches, app) = verify(&pass, reference_fp(&config, &loaded), &compiled);
    report.gate(mismatches);
    report.end_to_end(EndToEnd {
        setup_s,
        ms: &pass.ms,
        tail: 90.0,
        ops_per_s: pass.ms.len() as f64 / pass.elapsed_s,
        peak_rss_mb,
        app,
        ops: pass.functions,
    });
    if args.trace {
        pipeline::trace_loads(vec![compiled.stripped_image()], &mut rec, &mut report)?;
        pass.counters.report(&rec, &mut report);
        report.tracing(args, &rec, "op.reconstruct", (&pass.ms, &pass.traced))?;
    }
    report.note_run(threads);
    report.note("vtables", loaded.vtables().len());
    report.note("images", 1);
    report.note("recon_s", median(&pass.ms) / 1e3);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small stress image through the timed path and the gate: the
    /// right reference passes, a wrong one fails the run.
    #[test]
    fn gate_fails_on_a_wrong_reference() {
        let compiled = gen::stress_image(11, 1, 3, 3);
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
        let config = RockConfig::paper().with_parallelism(Parallelism::Threads(2));
        let pass = timed(&config, &loaded, 0.0, &mut Recorder::new(false));
        assert_eq!(pass.ms.len(), MIN_OPS);
        let reference = reference_fp(&config, &loaded);
        let (ok, app) = verify(&pass, reference, &compiled);
        assert!(ok.is_empty(), "{ok:?}");
        assert!(app.0.is_finite() && app.1.is_finite());
        let (bad, _) = verify(&pass, reference ^ 1, &compiled);
        assert_eq!(bad.len(), MIN_OPS, "every reconstruction mismatches: {bad:?}");
    }
}
