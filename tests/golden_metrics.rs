//! Golden-file pinning of the metrics registry: a fixed program under a
//! fixed config must reproduce the checked-in snapshot **byte for byte**
//! — any counter drift (a dropped scored pair, an extra trained model, a
//! changed histogram bucket) fails loudly with a diffable document.
//!
//! Two snapshots live under `tests/golden/`:
//!
//! * `metrics_stress_2x2x2.json` — a cold run of the 2×2×2 stress
//!   program;
//! * `metrics_incremental_1edit.json` — a *warm incremental* run of a
//!   1-function-edited delta image against the base image's
//!   sub-artifacts. The warm ≡ cold invariant means this doc must also
//!   equal a cold run of the same image, which the test asserts before
//!   comparing against the snapshot — so the file pins both the delta
//!   workload's counters and the invariant itself.
//!
//! To bless an intentional change (rewrites **both** snapshots):
//!
//! ```text
//! ROCK_BLESS=1 cargo test --test golden_metrics
//! ```

use std::sync::Arc;

use rock::core::{suite, CorpusCache, Parallelism, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::trace::validate_metrics_doc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_stress_2x2x2.json");
const GOLDEN_INCR: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_incremental_1edit.json");

fn current_doc() -> String {
    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    // Serial here, but the determinism suite proves the registry is
    // identical at every thread count, so this pins all of them.
    let recon =
        Rock::new(RockConfig::paper().with_parallelism(Parallelism::Serial)).reconstruct(&loaded);
    recon.metrics.to_json()
}

#[test]
fn metrics_match_golden_snapshot() {
    let doc = current_doc();
    validate_metrics_doc(&doc).expect("exported metrics must satisfy the schema");
    if std::env::var_os("ROCK_BLESS").is_some() {
        std::fs::write(GOLDEN, format!("{doc}\n")).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden snapshot — run ROCK_BLESS=1 cargo test --test golden_metrics");
    assert_eq!(
        doc,
        golden.trim_end(),
        "metrics drifted from the golden snapshot; if intentional, re-bless with \
         ROCK_BLESS=1 cargo test --test golden_metrics"
    );
}

#[test]
fn incremental_metrics_match_golden_snapshot() {
    // The 1-function edit of the delta workload: one method body in a
    // leaf class of family 1 rewritten, everything else byte-identical.
    let base_spec = suite::delta_spec(3, 5, 5);
    let mut edited_spec = base_spec.clone();
    suite::apply_delta(
        &mut edited_spec,
        suite::DeltaEdit::EditBody { family: 1, class: 4, method: 0 },
    );
    let load = |spec: &suite::DeltaSpec| {
        let compiled = suite::delta_program(spec).compile().expect("compiles");
        LoadedBinary::load(compiled.stripped_image()).expect("loads")
    };
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial).with_canonical_calls();

    // Warm incremental run: the base image populates the shared cache,
    // the patched image runs against it. (The disk round trip of those
    // sub-artifacts is pinned separately by tests/incremental_delta.rs;
    // the registry cannot tell the difference by design.)
    let cache = Arc::new(CorpusCache::new());
    Rock::new(config).with_corpus_cache(Arc::clone(&cache)).reconstruct(&load(&base_spec));
    let edited = load(&edited_spec);
    let warm = Rock::new(config).with_corpus_cache(cache).reconstruct(&edited);
    let doc = warm.metrics.to_json();
    validate_metrics_doc(&doc).expect("exported metrics must satisfy the schema");

    // The invariant the snapshot rides on: incremental reuse must be
    // invisible in the metrics document.
    let cold = Rock::new(config).reconstruct(&edited);
    assert_eq!(doc, cold.metrics.to_json(), "warm metrics diverged from cold");

    if std::env::var_os("ROCK_BLESS").is_some() {
        std::fs::write(GOLDEN_INCR, format!("{doc}\n")).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_INCR)
        .expect("missing golden snapshot — run ROCK_BLESS=1 cargo test --test golden_metrics");
    assert_eq!(
        doc,
        golden.trim_end(),
        "incremental metrics drifted from the golden snapshot; if intentional, re-bless with \
         ROCK_BLESS=1 cargo test --test golden_metrics"
    );
}

#[test]
fn golden_snapshot_is_schema_valid_and_sane() {
    // Guards the checked-in file itself (e.g. against a hand edit): it
    // must parse, satisfy the schema, and carry the structural
    // invariants a 2×2×2 stress program implies.
    // Under ROCK_BLESS the snapshot may be mid-rewrite by the other
    // test; validate the freshly generated document instead.
    let golden = if std::env::var_os("ROCK_BLESS").is_some() {
        current_doc()
    } else {
        std::fs::read_to_string(GOLDEN)
            .expect("missing golden snapshot — run ROCK_BLESS=1 cargo test --test golden_metrics")
    };
    validate_metrics_doc(&golden).expect("golden snapshot must satisfy the schema");

    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    let recon =
        Rock::new(RockConfig::paper().with_parallelism(Parallelism::Serial)).reconstruct(&loaded);
    let m = &recon.metrics;
    let n_types = loaded.vtables().len() as u64;
    assert_eq!(m.counter("slm.models_trained"), n_types, "one SLM per vtable");
    assert!(m.counter("analysis.functions_analyzed") > 0);
    assert!(m.counter("distances.pairs_scored") > 0);
    let hist = m.histogram("slm.nodes_per_model").expect("nodes-per-model histogram");
    assert_eq!(hist.count(), n_types, "one histogram observation per trained model");
}
