//! Differential test: the batched solver and clone-free tie enumeration
//! against the seed implementation kept in `rock_graph::reference`.
//!
//! Weights are quantised (multiples of 0.1 or of 1/64 over a handful of
//! levels), so exact ties and rounding in the reduced weights are common:
//! any drift in the first-minimal-edge rule or in the order of the
//! `w - best.weight` subtractions changes a chosen parent. Required
//! identical: `min_spanning_forest` and `min_arborescence` parents
//! (including `None` for an unreachable node), the `co_optimal_forests`
//! variant lists, and the `vote_select` pick. Totals are compared within
//! 1e-9, because the new solver sums them in child order.
//!
//! Seeds come from `ROCK_FUZZ_SEEDS` (`"a..b"` range or comma list), else
//! `0..4`. Each seed runs a batch of dense and sparse graphs of up to 40
//! nodes; one 400-node graph shaped like a single-family Skype-scale
//! image (child-major edge order, ~65% of ordered pairs) runs once.

use rock_graph::{
    co_optimal_forests, min_arborescence, min_spanning_forest, reference, vote_select,
    ArborescenceResult, DiGraph,
};

/// Seeds to sweep: `ROCK_FUZZ_SEEDS="0..64"` or `"1,5,9"`, else `0..4`.
fn seeds() -> Vec<u64> {
    let Ok(spec) = std::env::var("ROCK_FUZZ_SEEDS") else {
        return (0..4).collect();
    };
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.trim().parse().expect("bad ROCK_FUZZ_SEEDS lower bound");
        let hi: u64 = hi.trim().parse().expect("bad ROCK_FUZZ_SEEDS upper bound");
        (lo..hi).collect()
    } else {
        spec.split(',').map(|s| s.trim().parse().expect("bad ROCK_FUZZ_SEEDS entry")).collect()
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random graph of up to 40 nodes: dense or sparse, a few weight
/// levels, the occasional parallel edge.
fn random_graph(rng: &mut Rng) -> DiGraph {
    let n = 1 + rng.below(40) as usize;
    let density = if rng.chance(50) { 60 + rng.below(40) } else { 5 + rng.below(25) };
    let levels = 1 + rng.below(6);
    let quantum = if rng.chance(50) { 0.1 } else { 1.0 / 64.0 };
    let mut g = DiGraph::new(n);
    for to in 0..n {
        for from in 0..n {
            if from == to || !rng.chance(density) {
                continue;
            }
            for _ in 0..1 + u64::from(rng.chance(5)) {
                g.add_edge(from, to, (1 + rng.below(levels)) as f64 * quantum);
            }
        }
    }
    g
}

/// A 400-node one-family graph: a hidden tree of depth 4 and fan-out 7,
/// candidate edges for ~65% of ordered pairs in child-major order, and
/// weights that grow with tree distance, quantised to 1/1024 (ties are
/// occasional, as between real KL divergences).
fn family_graph(seed: u64) -> DiGraph {
    const N: usize = 400;
    let parent: Vec<Option<usize>> =
        (0..N).map(|v| if v == 0 { None } else { Some((v - 1) / 7) }).collect();
    let depth = |mut v: usize| {
        let mut d = 0;
        while let Some(p) = parent[v] {
            v = p;
            d += 1;
        }
        d
    };
    let distance = |mut a: usize, mut b: usize| {
        let mut d = 0;
        while a != b {
            if depth(a) >= depth(b) {
                a = parent[a].expect("non-root");
            } else {
                b = parent[b].expect("non-root");
            }
            d += 1;
        }
        d
    };
    let mut rng = Rng(seed ^ 0x0FA1_11E5);
    let mut g = DiGraph::new(N);
    for child in 0..N {
        for cand in 0..N {
            if cand == child || !rng.chance(65) {
                continue;
            }
            let noise = rng.below(384) as f64;
            g.add_edge(cand, child, (256.0 * distance(cand, child) as f64 + noise) / 1024.0);
        }
    }
    g
}

fn same_totals(what: &str, new: &ArborescenceResult, old: &ArborescenceResult) {
    assert!(
        (new.total_weight - old.total_weight).abs() <= 1e-9,
        "{what}: total {} vs reference {}",
        new.total_weight,
        old.total_weight
    );
}

/// Compares rooted arborescences at `roots` and the co-optimal variant
/// lists for each `(eps, limit)` in `ties`. A variant list starts with
/// the graph's minimum spanning forest, so that is compared too.
fn check(g: &DiGraph, ctx: &str, roots: &[usize], ties: &[(f64, usize)]) {
    for &root in roots {
        match (min_arborescence(g, root), reference::min_arborescence(g, root)) {
            (Some(new), Some(old)) => {
                assert_eq!(new.parent, old.parent, "{ctx}: min_arborescence({root}) parents");
                same_totals(ctx, &new, &old);
            }
            (None, None) => {}
            (new, old) => panic!("{ctx}: min_arborescence({root}) {new:?} vs reference {old:?}"),
        }
    }

    let forest = min_spanning_forest(g);
    for &(eps, limit) in ties {
        let new = co_optimal_forests(g, eps, limit);
        let old = reference::co_optimal_forests(g, eps, limit);
        assert_eq!(new[0], forest, "{ctx}: the base variant is min_spanning_forest");
        let parents = |v: &[ArborescenceResult]| v.iter().map(|r| r.parent.clone()).collect();
        let (new_parents, old_parents): (Vec<_>, Vec<_>) = (parents(&new), parents(&old));
        assert_eq!(new_parents, old_parents, "{ctx}: co_optimal_forests({eps}, {limit})");
        for (a, b) in new.iter().zip(&old) {
            same_totals(ctx, a, b);
        }
        assert_eq!(
            vote_select(&new).parent,
            vote_select(&old).parent,
            "{ctx}: vote_select({eps}, {limit})"
        );
    }
}

#[test]
fn random_tie_heavy_graphs_match_the_reference() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        for case in 0..40 {
            let g = random_graph(&mut rng);
            let ctx = format!("seed {seed} case {case}");
            check(&g, &ctx, &[0, g.node_count() / 2], &[(1e-9, 8), (1e-9, 3), (0.05, 8)]);
        }
    }
}

#[test]
fn family_graph_matches_the_reference() {
    let g = family_graph(1);
    assert!(g.edge_count() > 100_000, "{} edges", g.edge_count());
    check(&g, "400-node family graph", &[0], &[(1e-9, 8)]);
}
