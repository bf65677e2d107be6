//! §4.2.2 runtime claim: "it takes only a few minutes to construct the
//! weighted graph and find an arborescence" — here, the lifting step is
//! benchmarked on growing complete candidate graphs (the worst case:
//! every pair of types in one family), up to the 585-type families of
//! the Skype-scale sweep.
//!
//! Two graph kinds: distinct pseudo-random weights, and tie-heavy
//! weights quantised to eight levels. Each size has three rows:
//! `min_spanning_forest`, `co_optimal_forests` (the pipeline's default
//! tie handling: `eps = 1e-9`, at most 8 variants), and `reference` (the
//! seed solver's `min_spanning_forest`, the before-side of the batched
//! solver).
//!
//! Set `ROCK_BENCH_SMOKE=1` to stop the sweep at 64 nodes (CI smoke).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_graph::{co_optimal_forests, min_spanning_forest, reference, DiGraph};

/// Complete digraph over `n` nodes with deterministic pseudo-random
/// weights (mimicking a one-family KL matrix). With `levels`, weights
/// are quantised to that many values, so exact ties are everywhere.
fn complete_graph(n: usize, levels: Option<u64>) -> DiGraph {
    let mut g = DiGraph::new(n);
    let mut state = 0x12345678u64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let w = match levels {
                    Some(l) => (1 + (state >> 33) % l) as f64 / l as f64,
                    None => (state >> 33) as f64 / (1u64 << 31) as f64,
                };
                g.add_edge(i, j, w);
            }
        }
    }
    g
}

fn bench_arborescence(c: &mut Criterion) {
    let smoke = rock_bench::smoke();
    let sizes: &[usize] =
        if smoke { &[8, 16, 32, 64] } else { &[8, 16, 32, 64, 128, 256, 400, 585] };
    for (kind, levels) in [("distinct", None), ("tie_heavy", Some(8))] {
        let mut group = c.benchmark_group(format!("arborescence_{kind}"));
        for &n in sizes {
            let g = complete_graph(n, levels);
            // The reference solver takes seconds per solve at the top sizes.
            group.sample_size(if n >= 256 { 3 } else { 10 });
            group.bench_with_input(BenchmarkId::new("min_spanning_forest", n), &g, |b, g| {
                b.iter(|| {
                    let r = min_spanning_forest(std::hint::black_box(g));
                    assert_eq!(r.parent.len(), g.node_count());
                    r
                });
            });
            group.bench_with_input(BenchmarkId::new("co_optimal_forests", n), &g, |b, g| {
                b.iter(|| {
                    let variants = co_optimal_forests(std::hint::black_box(g), 1e-9, 8);
                    assert!(!variants.is_empty());
                    variants
                });
            });
            group.bench_with_input(BenchmarkId::new("reference", n), &g, |b, g| {
                b.iter(|| {
                    let r = reference::min_spanning_forest(std::hint::black_box(g));
                    assert_eq!(r.parent.len(), g.node_count());
                    r
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_arborescence);
criterion_main!(benches);
