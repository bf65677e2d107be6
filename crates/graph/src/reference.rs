//! The seed Chu-Liu/Edmonds solver and tie enumeration, kept verbatim as
//! a **reference oracle** for the batched solver in [`crate::min_spanning_forest`]
//! and the clone-free [`crate::co_optimal_forests`].
//!
//! The differential test (`tests/reference_diff.rs`) runs both on random
//! tie-heavy graphs and a Skype-sized family graph and requires identical
//! parent vectors and variant lists; the arborescence microbenchmark uses
//! it as the before-side. It is not wired into the pipeline and should
//! not grow features.
//!
//! This solver contracts one cycle per recursion level, rebuilds the whole
//! edge list at each level and tests cycle membership with `Vec::contains`,
//! so it costs O(V · E) or worse; its `total_weight` is summed in the order
//! the recursion finalises edges.

use crate::{ArborescenceResult, DiGraph};

#[derive(Clone, Copy, Debug)]
struct WorkEdge {
    from: usize,
    to: usize,
    weight: f64,
    /// Index into the original edge list (usize::MAX for virtual edges).
    orig: usize,
}

/// Finds a minimum-weight spanning arborescence of `graph` rooted at
/// `root`, or `None` if some node is unreachable from `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
///
/// # Example
///
/// ```
/// use rock_graph::{DiGraph, reference::min_arborescence};
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(0, 2, 5.0);
/// g.add_edge(1, 2, 1.0);
/// let r = min_arborescence(&g, 0).unwrap();
/// assert_eq!(r.parent, vec![None, Some(0), Some(1)]);
/// assert_eq!(r.total_weight, 2.0);
/// ```
pub fn min_arborescence(graph: &DiGraph, root: usize) -> Option<ArborescenceResult> {
    assert!(root < graph.node_count(), "root out of range");
    let edges: Vec<WorkEdge> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| WorkEdge { from: e.from, to: e.to, weight: e.weight, orig: i })
        .collect();
    let chosen = solve(graph.node_count(), edges, root)?;
    let mut parent = vec![None; graph.node_count()];
    let mut total = 0.0;
    for orig in chosen {
        let e = graph.edges()[orig];
        parent[e.to] = Some(e.from);
        total += e.weight;
    }
    Some(ArborescenceResult { parent, total_weight: total })
}

/// Finds a minimum-weight **maximal forest**: every node that has at least
/// one feasible parent gets the best one consistent with global
/// tree-ness; nodes with no feasible parent become roots.
///
/// This is the paper's per-family lifting step (§4.2.2).
///
/// # Example
///
/// ```
/// use rock_graph::{DiGraph, reference::min_spanning_forest};
/// let mut g = DiGraph::new(4);
/// g.add_edge(0, 1, 0.3);
/// g.add_edge(1, 0, 0.9);
/// g.add_edge(0, 2, 0.2);
/// // node 3 has no incoming edges: it stays a root.
/// let r = min_spanning_forest(&g);
/// assert_eq!(r.parent, vec![None, Some(0), Some(0), None]);
/// ```
pub fn min_spanning_forest(graph: &DiGraph) -> ArborescenceResult {
    let n = graph.node_count();
    if n == 0 {
        return ArborescenceResult { parent: vec![], total_weight: 0.0 };
    }
    // Virtual super-root n, connected to every node with a weight so large
    // that minimizing weight first minimizes the number of virtual edges.
    let big: f64 = graph.edges().iter().map(|e| e.weight.abs()).sum::<f64>() + 1.0;
    let mut edges: Vec<WorkEdge> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| WorkEdge { from: e.from, to: e.to, weight: e.weight, orig: i })
        .collect();
    for v in 0..n {
        edges.push(WorkEdge { from: n, to: v, weight: big, orig: usize::MAX });
    }
    let chosen = solve(n + 1, edges, n).expect("virtual root reaches every node");
    let mut parent = vec![None; n];
    let mut total = 0.0;
    for orig in chosen {
        if orig == usize::MAX {
            continue; // virtual edge: the child stays a root
        }
        let e = graph.edges()[orig];
        parent[e.to] = Some(e.from);
        total += e.weight;
    }
    ArborescenceResult { parent, total_weight: total }
}

/// Core recursive Chu-Liu/Edmonds. Returns the original indices of the
/// selected edges (virtual edges keep `usize::MAX`), or `None` if some
/// node has no incoming edge.
fn solve(n: usize, edges: Vec<WorkEdge>, root: usize) -> Option<Vec<usize>> {
    // 1. Cheapest incoming edge per node (deterministic tie-break: first
    //    minimal edge in insertion order — the paper's multiple-minima
    //    case resolves to a stable choice; see DESIGN.md).
    let mut best: Vec<Option<usize>> = vec![None; n]; // index into `edges`
    for (i, e) in edges.iter().enumerate() {
        if e.to == root || e.from == e.to {
            continue;
        }
        match best[e.to] {
            None => best[e.to] = Some(i),
            Some(j) => {
                if e.weight < edges[j].weight {
                    best[e.to] = Some(i);
                }
            }
        }
    }
    for (v, b) in best.iter().enumerate() {
        if v != root && b.is_none() {
            return None; // unreachable node
        }
    }

    // 2. Detect a cycle among the chosen edges.
    let cycle = find_cycle(n, root, &best, &edges);
    let Some(cycle_nodes) = cycle else {
        // No cycle: the chosen edges form the arborescence.
        return Some(
            best.iter()
                .enumerate()
                .filter(|(v, _)| *v != root)
                .map(|(_, b)| edges[b.expect("checked")].orig)
                .collect(),
        );
    };

    // 3. Contract the cycle into a fresh node: relabel every non-cycle
    // node densely, map all cycle members to one id `c`.
    let in_cycle = |v: usize| cycle_nodes.contains(&v);
    let mut relabel = vec![usize::MAX; n];
    let mut next = 0usize;
    for (v, slot) in relabel.iter_mut().enumerate() {
        if !in_cycle(v) {
            *slot = next;
            next += 1;
        }
    }
    let c = next;
    for &v in &cycle_nodes {
        relabel[v] = c;
    }
    let new_root = relabel[root];

    // Contracted edge list; `orig` now indexes into *this* level's `edges`
    // so the expansion below can recover original identities.
    let mut contracted: Vec<WorkEdge> = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        let (fu, fv) = (in_cycle(e.from), in_cycle(e.to));
        if fu && fv {
            continue;
        }
        let weight = if !fu && fv {
            // Entering the cycle: reduce by the cycle edge it displaces.
            e.weight - edges[best[e.to].expect("cycle node has best")].weight
        } else {
            e.weight
        };
        contracted.push(WorkEdge { from: relabel[e.from], to: relabel[e.to], weight, orig: i });
    }

    let sub = solve(c + 1, contracted, new_root)?;

    // 4. Expand: `sub` holds indices into this level's `edges`. Exactly
    // one selected edge enters the contracted node.
    let mut selected: Vec<usize> = Vec::new(); // indices into `edges`
    let mut entering_cycle: Option<usize> = None;
    for idx in sub {
        if in_cycle(edges[idx].to) {
            entering_cycle = Some(idx);
        }
        selected.push(idx);
    }
    let entering = entering_cycle.expect("an arborescence must enter the contracted node");
    // Add all cycle edges except the one displaced by `entering`.
    let displaced_target = edges[entering].to;
    for &v in &cycle_nodes {
        if v == displaced_target {
            continue;
        }
        selected.push(best[v].expect("cycle node has best"));
    }
    Some(selected.into_iter().map(|i| edges[i].orig).collect())
}

/// Finds one cycle formed by the chosen best-incoming edges, if any.
fn find_cycle(
    n: usize,
    root: usize,
    best: &[Option<usize>],
    edges: &[WorkEdge],
) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unseen,
        InProgress(u32),
        Done,
    }
    let mut marks = vec![Mark::Unseen; n];
    for start in 0..n {
        if start == root || marks[start] != Mark::Unseen {
            continue;
        }
        let stamp = start as u32;
        let mut v = start;
        loop {
            if v == root {
                break;
            }
            match marks[v] {
                Mark::Done => break,
                Mark::InProgress(s) if s == stamp => {
                    // Found a cycle: walk it again to collect members.
                    let mut cycle = vec![v];
                    let mut u = edges[best[v].expect("has best")].from;
                    while u != v {
                        cycle.push(u);
                        u = edges[best[u].expect("has best")].from;
                    }
                    return Some(cycle);
                }
                Mark::InProgress(_) => break,
                Mark::Unseen => {
                    marks[v] = Mark::InProgress(stamp);
                    v = edges[best[v].expect("has best")].from;
                }
            }
        }
        // Mark the walked path done.
        let mut v = start;
        while v != root && marks[v] == Mark::InProgress(stamp) {
            marks[v] = Mark::Done;
            v = edges[best[v].expect("has best")].from;
        }
    }
    None
}

/// Enumerates up to `limit` distinct minimum-weight maximal forests whose
/// total weight is within `eps` of the optimum.
///
/// The base solution is always first. Alternatives are generated by
/// removing, one at a time, a chosen parent edge that has a competitor of
/// (nearly) equal weight, and re-solving.
pub fn co_optimal_forests(graph: &DiGraph, eps: f64, limit: usize) -> Vec<ArborescenceResult> {
    let base = min_spanning_forest(graph);
    let mut out = vec![base.clone()];
    if limit <= 1 {
        return out;
    }

    for (child, parent) in base.parent.iter().enumerate() {
        let Some(parent) = parent else { continue };
        let chosen_weight = graph
            .in_edges(child)
            .filter(|e| e.from == *parent)
            .map(|e| e.weight)
            .fold(f64::INFINITY, f64::min);
        // Any competitor within eps of the chosen edge?
        let has_tie = graph
            .in_edges(child)
            .any(|e| e.from != *parent && (e.weight - chosen_weight).abs() <= eps);
        if !has_tie {
            continue;
        }
        // Re-solve without the chosen edge.
        let mut alt_graph = graph.clone();
        alt_graph.retain_edges(|e| !(e.from == *parent && e.to == child));
        let alt = min_spanning_forest(&alt_graph);
        if (alt.total_weight - base.total_weight).abs() <= eps
            && !out.iter().any(|r| r.parent == alt.parent)
        {
            out.push(alt);
            if out.len() >= limit {
                break;
            }
        }
    }
    out
}
