//! The serve layer, measured in `patch_rerun`'s traced run. Every edited
//! image is submitted once, in order, to an in-process daemon on a fresh
//! store by one closed-loop client that polls its status at a fixed
//! interval until `Done`. After each served job the same image runs
//! directly through `Supervisor::run_job` with the daemon's configuration,
//! so host drift hits both alike; `serve.overhead_ms` is the difference of
//! the two medians. Every served result must equal the cold reference of
//! its image.
//!
//! Served jobs are not an end-to-end workload: a fleet of small images,
//! whose jobs last a few milliseconds, spread its latency by a third to
//! two thirds of the median between runs on a two-core virtual machine.
//! See `rockbench/README.md`.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rock_core::CorpusCache;
use rock_serve::wire::{JobState, Response};
use rock_serve::{QuotaConfig, ServeClient, ServeConfig, Server};
use rock_supervisor::{ArtifactStore, Supervisor};

use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Recorder;
use crate::util::Scratch;

/// The client's status-poll interval: small against a job's latency,
/// which is rounded up to the next poll.
const POLL: Duration = Duration::from_micros(500);
/// A job that takes longer than this counts as lost.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Span operation ids of served jobs start here, clear of the edits' ids.
const OP_BASE: u64 = 1 << 40;

/// The daemon configuration: `ServeConfig::new` with one worker, no quota
/// and resume off, so every job computes through the corpus cache.
pub fn serve_config(store: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(store);
    cfg.workers = 1;
    cfg.quota = QuotaConfig { burst: 0, refill_per_sec: 0, max_inflight: 0 };
    cfg.options.resume = false;
    cfg
}

/// How one served job ended.
#[derive(Debug)]
enum End {
    /// `Done`, with whether the outcome was `ok` and the result fingerprint.
    Done { ok: bool, fp: u64 },
    /// Shed at admission.
    Rejected,
    /// Cancelled while queued.
    Cancelled,
    /// The daemon lost the job, or it timed out.
    Lost,
}

/// One served job as the client saw it.
#[derive(Debug)]
struct Job {
    /// Submit to terminal state, ms.
    ms: f64,
    /// Status requests made.
    polls: u64,
    end: End,
    /// The same image's direct `run_job`, ms.
    direct_ms: f64,
}

fn wait(client: &mut ServeClient, job: u64, polls: &mut u64) -> Result<End, String> {
    let start = Instant::now();
    loop {
        *polls += 1;
        match client.status(job).map_err(|e| format!("status: {e}"))? {
            JobState::Done { outcome, result_fp, .. } => {
                return Ok(End::Done { ok: outcome == "ok", fp: result_fp })
            }
            JobState::Cancelled => return Ok(End::Cancelled),
            JobState::Unknown => return Ok(End::Lost),
            JobState::Queued { .. } | JobState::Running => {}
        }
        if start.elapsed() > JOB_TIMEOUT {
            return Ok(End::Lost);
        }
        std::thread::sleep(POLL);
    }
}

/// Submits every image once, in order, waits for each, and then runs it
/// directly on `direct`.
fn client(
    addr: SocketAddr,
    images: &[Vec<u8>],
    direct: &Supervisor,
    rec: &mut Recorder,
) -> Result<Vec<Job>, String> {
    let mut client = ServeClient::connect(addr, "bench").map_err(|e| format!("connect: {e}"))?;
    let mut jobs = Vec::with_capacity(images.len());
    for (k, image) in images.iter().enumerate() {
        let op = OP_BASE + k as u64;
        let mut polls = 0;
        let t = Instant::now();
        let end = match rec.time("serve.submit", op, || client.submit(&format!("job-{k}"), 0, image))
        {
            Ok(Response::Accepted { job }) => {
                rec.time("serve.wait", op, || wait(&mut client, job, &mut polls))?
            }
            Ok(Response::Rejected { .. }) => End::Rejected,
            Ok(other) => return Err(format!("unexpected answer to submit: {other:?}")),
            Err(e) => return Err(format!("submit: {e}")),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        direct.run_job(&format!("direct-{k}"), image);
        jobs.push(Job { ms, polls, end, direct_ms: t.elapsed().as_secs_f64() * 1e3 });
    }
    Ok(jobs)
}

/// Serves `images` from a daemon on a fresh store, then drains it; the
/// direct runs use a second fresh store and a corpus cache of the daemon's
/// capacity. Returns every job and the number of submissions the daemon
/// shed.
fn serve(images: &[Vec<u8>], rec: &mut Recorder) -> Result<(Vec<Job>, u64), String> {
    let scratch = Scratch::new("serve-direct")?;
    let cfg = serve_config(scratch.path());
    let store = ArtifactStore::open(scratch.path()).map_err(|e| format!("direct store: {e}"))?;
    let direct = Supervisor::new(cfg.config, store, cfg.options.clone())
        .with_corpus(Arc::new(CorpusCache::bounded(cfg.corpus_capacity)));
    let store = Scratch::new("serve-store")?;
    let server = Server::bind(serve_config(store.path()), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let handle = server.handle();
    let (jobs, summary) = std::thread::scope(|s| {
        let daemon = s.spawn(move || server.run());
        let jobs = client(addr, images, &direct, rec);
        // Drain even when the client failed, so the daemon thread ends.
        handle.drain();
        (jobs, daemon.join().map_err(|_| "daemon thread panicked".to_string()))
    });
    let summary = summary?.map_err(|e| format!("daemon: {e}"))?;
    Ok((jobs?, summary.rejected))
}

/// The gate: every served job ended `ok` with its image's reference
/// fingerprint.
fn verify(jobs: &[Job], reference: &[u64]) -> Vec<String> {
    let mut observed = Vec::new();
    let mut failed = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        match job.end {
            End::Done { ok: true, fp } => observed.push((k, fp)),
            ref end => failed.push(format!("served job {k} ended {end:?}")),
        }
    }
    failed.extend(crate::gate::compare("served image", &observed, reference));
    failed
}

/// Serves `images`, runs them directly, sets the `serve.*` metrics and
/// returns the gate's mismatches against `reference`.
pub fn measure(
    images: &[Vec<u8>],
    reference: &[u64],
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Vec<String>, String> {
    let (jobs, rejected) = serve(images, rec)?;
    let ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
    let direct_ms: Vec<f64> = jobs.iter().map(|j| j.direct_ms).collect();
    let polls: Vec<f64> = jobs.iter().map(|j| j.polls as f64).collect();
    report.set("serve.submit_ms", median(&rec.durations("serve.submit")));
    report.set("serve.wait_ms", median(&rec.durations("serve.wait")));
    report.set("serve.polls_per_job", mean(&polls));
    report.set("serve.rejected", rejected as f64);
    report.set("serve.overhead_ms", median(&ms) - median(&direct_ms));
    Ok(verify(&jobs, reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch;

    /// A few edited images served and gated: the cold references pass, a
    /// wrong reference fails.
    #[test]
    fn gate_fails_on_a_wrong_reference() {
        let inputs = patch::inputs(5, (3, 4), 3);
        let (mut fps, _) = patch::reference(&inputs, patch::config(2)).expect("reference");
        let mut rec = Recorder::new(true);
        let (jobs, rejected) = serve(&inputs.edited, &mut rec).expect("served");
        assert_eq!((jobs.len(), rejected), (3, 0));
        assert!(verify(&jobs, &fps).is_empty(), "{jobs:?}");
        assert_eq!(rec.durations("serve.submit").len(), 3);
        fps[1] ^= 1;
        assert_eq!(verify(&jobs, &fps).len(), 1, "a wrong reference must fail the gate");
    }
}
