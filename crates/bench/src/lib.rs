//! Benchmark and table/figure regeneration harness for the Rock
//! reproduction.
//!
//! Binaries (run with `cargo run -p rock-bench --bin <name>`):
//!
//! * `table2` — regenerates Table 2 (application distance per benchmark,
//!   with vs. without SLMs, measured vs. paper);
//! * `fig6` — the running example's D_KL ranking (Fig. 6 / §2.2);
//! * `metric_ablation` — KL vs. JS-divergence vs. JS-distance (§6.4
//!   "Other Metrics");
//! * `sweeps` — tracelet-length and SLM-depth sensitivity (design
//!   ablations called out in DESIGN.md).
//!
//! Criterion benches live in `benches/` (arborescence scaling, analysis
//! scalability, pipeline end-to-end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use rock_core::suite::Benchmark;
use rock_core::{evaluate, Evaluation, Rock, RockConfig};
use rock_loader::LoadedBinary;

/// Whether the benches run their CI smoke subset (`ROCK_BENCH_SMOKE`
/// set): fewer samples, smaller workloads, and the CI gates enforced.
pub fn smoke() -> bool {
    std::env::var_os("ROCK_BENCH_SMOKE").is_some()
}

/// Writes a bench summary named `file` and returns where it went. A full
/// run writes it at the workspace root, next to the committed record; a
/// smoke run writes it under `target/`, so a CI subset never overwrites
/// a full-mode record.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(file: &str, json: &str) -> PathBuf {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = if smoke() { root.join("target") } else { root };
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    let path = dir.join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Compiles, strips, loads, reconstructs and evaluates one benchmark.
///
/// # Panics
///
/// Panics if the benchmark fails to compile or load (suite programs never
/// should).
pub fn run_benchmark(bench: &Benchmark, config: RockConfig) -> Evaluation {
    let compiled = bench.compile().expect("suite benchmarks compile");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("compiled images load");
    let recon = Rock::new(config).reconstruct(&loaded);
    evaluate(&compiled, &recon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_core::suite;

    #[test]
    fn streams_example_runs_clean() {
        let eval = run_benchmark(&suite::streams_example(), RockConfig::paper());
        assert_eq!(eval.with_slm.avg_missing, 0.0);
        assert_eq!(eval.with_slm.avg_added, 0.0);
    }
}
