//! Chu-Liu/Edmonds minimum-weight spanning arborescence, and the
//! minimum-weight **maximal forest** variant the paper actually solves.
//!
//! The paper's Heuristic 4.1 ("it is more plausible for a binary type to
//! be a derived type than a root type") is implemented by
//! [`min_spanning_forest`]: a virtual super-root is connected to every
//! node with a weight larger than the sum of all real edge weights, so the
//! optimal arborescence uses as few virtual edges as possible — every node
//! with *any* feasible parent receives one, and only genuinely
//! unreachable nodes become roots (Remark 4.2).
//!
//! # Algorithm
//!
//! The solver is a loop of *rounds* over two reusable edge buffers. Each
//! round
//!
//! 1. picks the best incoming edge of every node: the **first minimal**
//!    edge in edge-list order (strict `<`), never an edge into the root;
//! 2. finds *every* cycle of that functional graph in one pass, giving
//!    each cycle member the cycle's id as its next-round label;
//! 3. contracts all cycles together in one order-preserving pass: edges
//!    inside a cycle are dropped, and an edge entering a cycle member `v`
//!    has its weight reduced to `w - best(v).weight`.
//!
//! When a round finds no cycle, its best edges form the arborescence of
//! the contracted graph, and the rounds are unwound: each cycle keeps the
//! edge chosen to enter it and all of its best edges except the one into
//! the node that edge enters. A round costs O(E), so a solve costs
//! O(E · rounds). Because a round contracts every cycle at once, the
//! pipeline's family graphs need few rounds (8 at 400 types and 103k
//! edges, 20 at 585 types and 217k edges); complete graphs with random
//! weights need more, since a random best-edge graph has few cycles.
//!
//! # Tie-order invariant
//!
//! Contracting disjoint cycles together gives the same graph as
//! contracting them one at a time in any order: edges keep their
//! relative order, and every entering edge undergoes exactly the same
//! `w - best.weight` subtractions in the same sequence. Every tie
//! comparison therefore sees the same bits as the one-cycle-per-level
//! seed solver in [`crate::reference`], and the chosen edges are
//! identical; `tests/reference_diff.rs` holds the two to that.

use crate::{DiGraph, Edge};

/// "No edge" / "no label" marker in the solver's index arrays.
const NONE: usize = usize::MAX;

/// An edge of the current round: endpoints in this round's node labels,
/// reduced weight, and its position in the solve's input list.
#[derive(Clone, Copy, Debug)]
struct Live {
    from: usize,
    to: usize,
    weight: f64,
    id: usize,
}

/// What unwinding one contraction round needs.
#[derive(Debug)]
struct Round {
    root: usize,
    /// Next-round label of each node; cycle members carry their cycle's
    /// id, which is below the round's cycle count.
    label: Vec<usize>,
    /// Input position of each cycle member's best edge (`NONE` off cycles).
    cycle_best: Vec<usize>,
}

/// The batched solver's reusable buffers. One instance serves many
/// solves (the tie enumeration re-solves the same family repeatedly).
#[derive(Debug, Default)]
pub(crate) struct Solver {
    cur: Vec<Live>,
    next: Vec<Live>,
    best: Vec<usize>,
    best_w: Vec<f64>,
    mark: Vec<usize>,
    rounds: Vec<Round>,
    sel: Vec<usize>,
    next_sel: Vec<usize>,
}

impl Solver {
    /// Minimum-weight arborescence of `input` over `n` nodes rooted at
    /// `root`: for each node, the position in `input` of its chosen
    /// incoming edge (`usize::MAX` for the root), or `None` if some node
    /// is unreachable from `root`.
    pub(crate) fn solve(&mut self, n: usize, input: &[Edge], root: usize) -> Option<&[usize]> {
        self.cur.clear();
        self.cur.extend(input.iter().enumerate().map(|(id, e)| Live {
            from: e.from,
            to: e.to,
            weight: e.weight,
            id,
        }));
        self.rounds.clear();
        let (mut n, mut root) = (n, root);
        loop {
            if !self.pick_best(n, root) {
                return None; // unreachable node
            }
            let (label, cycles) = self.find_cycles(n, root);
            if cycles == 0 {
                break;
            }
            (n, root) = self.contract(n, root, label, cycles);
        }
        self.expand(input, n, root);
        Some(&self.sel)
    }

    /// Step 1: the first minimal incoming edge of every node. Returns
    /// `false` if a non-root node has none.
    fn pick_best(&mut self, n: usize, root: usize) -> bool {
        let (best, best_w) = (&mut self.best, &mut self.best_w);
        best.clear();
        best.resize(n, NONE);
        best_w.clear();
        best_w.resize(n, 0.0);
        for (i, e) in self.cur.iter().enumerate() {
            if e.to == root || e.from == e.to {
                continue;
            }
            if best[e.to] == NONE || e.weight < best_w[e.to] {
                best[e.to] = i;
                best_w[e.to] = e.weight;
            }
        }
        best.iter().enumerate().all(|(v, &b)| v == root || b != NONE)
    }

    /// Step 2: labels the members of every cycle of the best-edge graph
    /// with the cycle's id (others get `NONE`); returns the labels and
    /// the cycle count.
    fn find_cycles(&mut self, n: usize, root: usize) -> (Vec<usize>, usize) {
        let mut label = vec![NONE; n];
        let (cur, best, mark) = (&self.cur, &self.best, &mut self.mark);
        mark.clear();
        mark.resize(n, NONE);
        let mut cycles = 0;
        for start in 0..n {
            // Walk parent pointers, stamping fresh nodes with `start`; a
            // walk that comes back to its own stamp has closed a cycle.
            let mut v = start;
            while v != root && mark[v] == NONE {
                mark[v] = start;
                v = cur[best[v]].from;
            }
            if v != root && mark[v] == start {
                let mut u = v;
                loop {
                    label[u] = cycles;
                    u = cur[best[u]].from;
                    if u == v {
                        break;
                    }
                }
                cycles += 1;
            }
        }
        (label, cycles)
    }

    /// Step 3: contracts every labelled cycle in one order-preserving
    /// pass. Returns the next round's node count and root.
    fn contract(
        &mut self,
        n: usize,
        root: usize,
        mut label: Vec<usize>,
        cycles: usize,
    ) -> (usize, usize) {
        let mut cycle_best = vec![NONE; n];
        let mut next_n = cycles;
        for v in 0..n {
            if label[v] == NONE {
                label[v] = next_n;
                next_n += 1;
            } else {
                cycle_best[v] = self.cur[self.best[v]].id;
            }
        }
        self.next.clear();
        for e in &self.cur {
            let (from, to) = (label[e.from], label[e.to]);
            if from == to {
                continue; // inside one cycle
            }
            // Entering a cycle: reduce by the cycle edge it displaces.
            let weight = if to < cycles { e.weight - self.best_w[e.to] } else { e.weight };
            self.next.push(Live { from, to, weight, id: e.id });
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        let next_root = label[root];
        self.rounds.push(Round { root, label, cycle_best });
        (next_n, next_root)
    }

    /// Step 4: selects the best edges of the final round and unwinds the
    /// contractions into `sel`, one input position per original node.
    fn expand(&mut self, input: &[Edge], n: usize, root: usize) {
        self.sel.clear();
        self.sel.extend((0..n).map(|v| if v == root { NONE } else { self.cur[self.best[v]].id }));
        for r in (0..self.rounds.len()).rev() {
            let (outer, round) = (&self.rounds[..r], &self.rounds[r]);
            self.next_sel.clear();
            for v in 0..round.label.len() {
                let entering = self.sel[round.label[v]];
                let pick = if v == round.root {
                    NONE
                } else if round.cycle_best[v] == NONE {
                    entering
                } else {
                    // The edge entering `v`'s cycle displaces `v`'s own best
                    // edge only if it lands on `v` in this round's labels.
                    let target = outer.iter().fold(input[entering].to, |t, o| o.label[t]);
                    if target == v {
                        entering
                    } else {
                        round.cycle_best[v]
                    }
                };
                self.next_sel.push(pick);
            }
            std::mem::swap(&mut self.sel, &mut self.next_sel);
        }
    }
}

/// The outcome of an arborescence computation.
#[derive(Clone, Debug, PartialEq)]
pub struct ArborescenceResult {
    /// `parent[v]` is `v`'s parent node, or `None` for the root(s).
    pub parent: Vec<Option<usize>>,
    /// Total weight of the selected real edges, summed in child order
    /// (`v = 0, 1, ..`) so its bits depend only on the selected edges,
    /// never on the order the solver settled them.
    pub total_weight: f64,
}

impl ArborescenceResult {
    /// Nodes with no parent.
    pub fn roots(&self) -> Vec<usize> {
        self.parent.iter().enumerate().filter(|(_, p)| p.is_none()).map(|(i, _)| i).collect()
    }

    /// Builds the result for nodes `0..n` from the solver's per-node
    /// input positions. Edges from node `n` or above are virtual.
    fn from_selection(n: usize, input: &[Edge], sel: &[usize]) -> Self {
        let mut parent = vec![None; n];
        let mut total = 0.0;
        for (v, &pos) in sel.iter().enumerate().take(n) {
            if pos == NONE || input[pos].from >= n {
                continue; // the root, or a virtual edge: `v` stays a root
            }
            parent[v] = Some(input[pos].from);
            total += input[pos].weight;
        }
        ArborescenceResult { parent, total_weight: total }
    }
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
/// use rock_graph::{DiGraph, min_arborescence};
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
    let n = graph.node_count();
    let mut solver = Solver::default();
    let sel = solver.solve(n, graph.edges(), root)?;
    Some(ArborescenceResult::from_selection(n, graph.edges(), sel))
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
/// use rock_graph::{DiGraph, min_spanning_forest};
/// let mut g = DiGraph::new(4);
/// g.add_edge(0, 1, 0.3);
/// g.add_edge(1, 0, 0.9);
/// g.add_edge(0, 2, 0.2);
/// // node 3 has no incoming edges: it stays a root.
/// let r = min_spanning_forest(&g);
/// assert_eq!(r.parent, vec![None, Some(0), Some(0), None]);
/// ```
pub fn min_spanning_forest(graph: &DiGraph) -> ArborescenceResult {
    spanning_forest(&mut Solver::default(), &mut Vec::new(), graph, None)
}

/// [`min_spanning_forest`] of `graph` without its `parent → child` edges
/// (`exclude`), reusing `solver` and the `input` buffer. Identical to
/// solving a copy of `graph` with those edges removed.
pub(crate) fn spanning_forest(
    solver: &mut Solver,
    input: &mut Vec<Edge>,
    graph: &DiGraph,
    exclude: Option<(usize, usize)>,
) -> ArborescenceResult {
    let n = graph.node_count();
    if n == 0 {
        return ArborescenceResult { parent: vec![], total_weight: 0.0 };
    }
    let kept = |e: &&Edge| exclude != Some((e.from, e.to));
    // Virtual super-root n, connected to every node with a weight so large
    // that minimizing weight first minimizes the number of virtual edges.
    let big: f64 = graph.edges().iter().filter(kept).map(|e| e.weight.abs()).sum::<f64>() + 1.0;
    input.clear();
    input.extend(graph.edges().iter().filter(kept).copied());
    input.extend((0..n).map(|v| Edge { from: n, to: v, weight: big }));
    let sel = solver.solve(n + 1, input, n).expect("virtual root reaches every node");
    ArborescenceResult::from_selection(n, input, sel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node() {
        let g = DiGraph::new(1);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.parent, vec![None]);
        assert_eq!(r.total_weight, 0.0);
        let f = min_spanning_forest(&g);
        assert_eq!(f.parent, vec![None]);
    }

    #[test]
    fn unreachable_node_fails_rooted() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        assert!(min_arborescence(&g, 0).is_none());
    }

    #[test]
    fn simple_chain() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 10.0);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.parent, vec![None, Some(0), Some(1)]);
        assert_eq!(r.total_weight, 3.0);
    }

    #[test]
    fn cycle_contraction() {
        // Classic example requiring contraction: 0 is root; 1 and 2 prefer
        // each other, but the arborescence must break the 1<->2 cycle.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 1, 1.0);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.total_weight, 11.0);
        // Either 0->1->2 or 0->2->1.
        let ok =
            r.parent == vec![None, Some(0), Some(1)] || r.parent == vec![None, Some(2), Some(0)];
        assert!(ok, "got {:?}", r.parent);
    }

    #[test]
    fn nested_cycles() {
        // 4 nodes, cycle 1->2->3->1 cheap, root edges expensive.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(0, 2, 101.0);
        g.add_edge(0, 3, 102.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 1, 1.0);
        let r = min_arborescence(&g, 0).unwrap();
        // Must pick the cheapest entry (0->1) and two cycle edges.
        assert_eq!(r.total_weight, 102.0);
        assert_eq!(r.parent[1], Some(0));
        assert_eq!(r.parent[2], Some(1));
        assert_eq!(r.parent[3], Some(2));
    }

    #[test]
    fn forest_leaves_unparented_nodes_as_roots() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 0.3);
        g.add_edge(0, 2, 0.2);
        // 3 is isolated.
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0), Some(0), None]);
        assert_eq!(r.roots(), vec![0, 3]);
        assert!((r.total_weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forest_prefers_derived_over_root() {
        // Heuristic 4.1: even an expensive real parent beats becoming a
        // root.
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1e6);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0)]);
    }

    #[test]
    fn forest_breaks_two_cycles_into_two_trees() {
        // Two independent 2-cycles: each must become a 2-node tree.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 2, 2.0);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0), None, Some(2)]);
        assert_eq!(r.roots(), vec![0, 2]);
        assert_eq!(r.total_weight, 2.0);
    }

    #[test]
    fn asymmetric_weights_pick_the_cheap_direction() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0.07);
        g.add_edge(1, 0, 0.21);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0)]);
        assert!((r.total_weight - 0.07).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        let r = min_spanning_forest(&g);
        assert!(r.parent.is_empty());
        assert_eq!(r.total_weight, 0.0);
    }

    /// Brute force: enumerate all parent assignments for tiny graphs and
    /// verify optimality of the rooted arborescence.
    #[test]
    fn matches_brute_force_on_small_graphs() {
        use std::collections::HashMap;
        let cases: Vec<Vec<(usize, usize, f64)>> = vec![
            vec![(0, 1, 3.0), (0, 2, 1.0), (1, 2, 0.5), (2, 1, 0.5)],
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0), (3, 1, 0.1)],
            vec![(0, 1, 5.0), (0, 2, 5.0), (1, 2, 0.1), (2, 1, 0.1), (0, 3, 1.0), (3, 2, 0.2)],
        ];
        for edges in cases {
            let n = edges.iter().map(|e| e.0.max(e.1)).max().unwrap() + 1;
            let mut g = DiGraph::new(n);
            for (f, t, w) in &edges {
                g.add_edge(*f, *t, *w);
            }
            let got = min_arborescence(&g, 0).map(|r| r.total_weight);
            let want = brute_force(n, &edges);
            match (got, want) {
                (Some(gw), Some(ww)) => {
                    assert!((gw - ww).abs() < 1e-9, "edmonds {gw} vs brute {ww} for {edges:?}")
                }
                (None, None) => {}
                other => panic!("feasibility mismatch {other:?} for {edges:?}"),
            }
        }

        fn brute_force(n: usize, edges: &[(usize, usize, f64)]) -> Option<f64> {
            // Enumerate, for each non-root node, which incoming edge it
            // uses; check acyclicity/reachability.
            let mut best: Option<f64> = None;
            let mut incoming: Vec<Vec<(usize, f64)>> = vec![vec![]; n];
            for (f, t, w) in edges {
                incoming[*t].push((*f, *w));
            }
            let mut choice = vec![0usize; n];
            loop {
                // Evaluate current choice if every node has an option.
                if (1..n).all(|v| !incoming[v].is_empty()) {
                    let mut parent: HashMap<usize, usize> = HashMap::new();
                    let mut weight = 0.0;
                    for v in 1..n {
                        let (p, w) = incoming[v][choice[v]];
                        parent.insert(v, p);
                        weight += w;
                    }
                    // Reachability from 0 following parents upward.
                    let mut ok = true;
                    for v in 1..n {
                        let mut cur = v;
                        let mut steps = 0;
                        while cur != 0 {
                            match parent.get(&cur) {
                                Some(p) => cur = *p,
                                None => break,
                            }
                            steps += 1;
                            if steps > n {
                                ok = false;
                                break;
                            }
                        }
                        if cur != 0 {
                            ok = false;
                        }
                        if !ok {
                            break;
                        }
                    }
                    if ok {
                        best = Some(match best {
                            None => weight,
                            Some(b) => b.min(weight),
                        });
                    }
                } else {
                    return None;
                }
                // Next combination.
                let mut v = 1;
                loop {
                    if v >= n {
                        return best;
                    }
                    choice[v] += 1;
                    if choice[v] < incoming[v].len() {
                        break;
                    }
                    choice[v] = 0;
                    v += 1;
                }
            }
        }
    }
}
