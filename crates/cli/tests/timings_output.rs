//! Pins the `--timings` text of `rock reconstruct` and `rock batch`
//! line for line (clock readings masked, column padding collapsed), and
//! checks the JSON form against the `--metrics` document of the same
//! run: one counter plane, one set of names and values.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use rock_trace::{parse_json, Json};

fn rock(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rock")).args(args).output().expect("spawn rock");
    assert!(out.status.success(), "rock {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A scratch dir holding a generated `streams` image.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> (Scratch, String) {
        let dir = std::env::temp_dir().join(format!("rock-timings-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let s = Scratch(dir);
        let image = s.path("s.rkb");
        rock(&["gen", "streams", &image]);
        (s, image)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Asserts the lines of `stdout` from the first one starting with
/// `first` to the end, after collapsing whitespace and replacing each
/// clock value (a number before `ms`, the `jobs/s` rate) with `<t>`.
fn assert_timings_text(stdout: &str, first: &str, want: &[&str]) {
    let mask = |line: &str| {
        let words: Vec<&str> = line.split_whitespace().collect();
        let masked = words.iter().enumerate().map(|(i, w)| {
            let next = words.get(i + 1).copied().unwrap_or("");
            let clock = next.starts_with("ms") || next.starts_with("jobs/s");
            let digits = |c: char| c.is_ascii_digit() || c == '.';
            match w.trim_start_matches('(').parse::<f64>() {
                Ok(_) if clock => format!("{}<t>", w.trim_end_matches(digits)),
                _ => w.to_string(),
            }
        });
        masked.collect::<Vec<_>>().join(" ")
    };
    let got: Vec<String> = stdout.lines().skip_while(|l| !l.starts_with(first)).map(mask).collect();
    assert_eq!(got, want, "timings text drifted in:\n{stdout}");
}

const STAGES: [&str; 8] = [
    "stage timings (2 thread(s)):",
    "analysis <t> ms",
    "structural <t> ms",
    "training <t> ms (3 SLMs)",
    "slm arenas 30 nodes, 27 edges, ~2.5 KiB, 7/16 unique words",
    "distances <t> ms (3 edges)",
    "lifting <t> ms",
    "repartition <t> ms",
];
const ROBUSTNESS: &str =
    "robustness 0 skipped fns (0 fuel-starved), 0 rejected vtables, 0 diagnostic bytes";

#[test]
fn reconstruct_timings_text_is_pinned() {
    let (_s, image) = Scratch::new("reconstruct");
    let out = rock(&["reconstruct", &image, "--threads", "2", "--timings"]);
    assert_timings_text(
        &out,
        "stage timings",
        &[&STAGES[..], &[ROBUSTNESS, "total <t> ms"]].concat(),
    );
}

#[test]
fn incremental_batch_timings_text_is_pinned() {
    let (s, image) = Scratch::new("batch");
    let store = s.path("store");
    let args = ["batch", &image, "--store", &store, "--incremental", "--threads", "2", "--timings"];
    // Cold: every sub-artifact is computed and flushed. Warm: the second
    // process preloads everything the first flushed.
    for (corpus, stored, incr) in [
        ("tracelets 12/28 hit, slms 0/3 hit, distances 0/3 hit, liftings 0/1 hit", 339, (0, 23)),
        ("tracelets 28/28 hit, slms 3/3 hit, distances 3/3 hit, liftings 1/1 hit", 0, (23, 0)),
    ] {
        let corpus = format!("corpus {corpus}");
        let stored = format!("{stored} bytes stored, 0 corrupt entries dropped, 0 evicted");
        let batch = format!(
            "batch: 1 jobs in <t> ms (<t> jobs/s), 0 stages restored from checkpoints, \
             incr {} preloaded / {} flushed, exit code 0",
            incr.0, incr.1
        );
        let tail = [corpus.as_str(), &stored, ROBUSTNESS, "total <t> ms", &batch];
        assert_timings_text(&rock(&args), "[s]", &[&["[s]"], &STAGES[..], &tail].concat());
    }
}

fn json_line(line: &str) -> Json {
    parse_json(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e:?}"))
}

/// Every counter of a JSON object: its registry-named (dotted) keys.
fn counters(obj: &Json) -> BTreeMap<String, f64> {
    let num = |v: &Json| v.as_num().expect("numeric counter");
    let obj = obj.as_obj().expect("JSON object");
    obj.iter().filter(|(k, _)| k.contains('.')).map(|(k, v)| (k.clone(), num(v))).collect()
}

/// The counters of a timings object, whose only other keys are clocks.
fn timings_counters(timings: &Json) -> BTreeMap<String, f64> {
    for key in timings.as_obj().expect("timings object").keys().filter(|k| !k.contains('.')) {
        assert!(key == "threads" || key.ends_with("_us"), "non-registry key {key:?}");
    }
    counters(timings)
}

fn doc_counters(doc: &Json) -> BTreeMap<String, f64> {
    counters(doc.get("counters").expect("metrics counters"))
}

#[test]
fn reconstruct_timings_json_counters_are_the_metrics_counters() {
    let (s, image) = Scratch::new("recon-json");
    for threads in ["1", "8"] {
        let metrics = s.path(&format!("metrics-{threads}.json"));
        let metrics_flag = format!("--metrics={metrics}");
        let out =
            rock(&["reconstruct", &image, "--threads", threads, "--timings=json", &metrics_flag]);
        let line = out.lines().find(|l| l.starts_with("{\"threads\"")).expect("timings line");
        let timings = timings_counters(&json_line(line));
        assert!(timings.contains_key("distances.pairs_scored"), "{timings:?}");
        let doc = doc_counters(&json_line(&fs::read_to_string(&metrics).unwrap()));
        assert_eq!(timings, doc, "--timings=json vs --metrics at --threads {threads}");
    }
}

#[test]
fn batch_job_timings_counters_are_the_report_metrics_counters() {
    let (s, image) = Scratch::new("batch-json");
    let store = s.path("store");
    let args = ["batch", &image, "--store", &store, "--incremental", "--metrics", "--timings=json"];
    // Cold then warm: the warm batch preloads what the cold one flushed.
    for (preloaded, flushed) in [(0.0, 23.0), (23.0, 0.0)] {
        let out = rock(&args);
        let lines: Vec<Json> = out.lines().filter(|l| l.starts_with('{')).map(json_line).collect();
        let find = |key| lines.iter().find_map(|j| j.get(key)).expect(key);
        let timings = timings_counters(find("timings"));
        assert_eq!(timings, doc_counters(find("metrics")), "job timings vs report metrics");
        // Incremental preload/flush is batch-wide: it renders once, on
        // the batch line, and never as per-job zeros.
        assert!(timings.keys().all(|k| !k.starts_with("incr.")), "{timings:?}");
        let batch = counters(find("batch"));
        assert_eq!(batch.get("incr.preloaded"), Some(&preloaded), "{out}");
        assert_eq!(batch.get("incr.flushed"), Some(&flushed), "{out}");
    }
}
