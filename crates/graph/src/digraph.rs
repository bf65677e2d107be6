//! A small directed weighted multigraph over dense node indices.

use std::fmt;

/// A weighted directed edge `from → to`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Source node (the candidate parent, in hierarchy graphs).
    pub from: usize,
    /// Target node (the candidate child).
    pub to: usize,
    /// Edge weight (e.g. a KL divergence); must be finite.
    pub weight: f64,
}

/// A directed weighted multigraph with `n` nodes indexed `0..n`.
///
/// # Example
///
/// ```
/// use rock_graph::DiGraph;
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 0.5);
/// g.add_edge(0, 2, 1.5);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.in_edges(1).count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiGraph {
    node_count: usize,
    edges: Vec<Edge>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph { node_count: n, edges: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Adds an edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the weight is not finite, or
    /// `from == to` (self-loops are meaningless for hierarchies).
    pub fn add_edge(&mut self, from: usize, to: usize, weight: f64) {
        assert!(from < self.node_count, "edge source {from} out of range");
        assert!(to < self.node_count, "edge target {to} out of range");
        assert!(from != to, "self-loop {from} -> {to}");
        assert!(weight.is_finite(), "non-finite weight {weight}");
        self.edges.push(Edge { from, to, weight });
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edges entering `node`, in insertion order. An O(E) scan over
    /// every edge: keep it off hot loops.
    pub fn in_edges(&self, node: usize) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == node)
    }

    /// Edges leaving `node`, in insertion order. An O(E) scan over
    /// every edge: keep it off hot loops.
    pub fn out_edges(&self, node: usize) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == node)
    }

    /// Removes every edge for which `pred` returns `false`.
    pub fn retain_edges(&mut self, pred: impl FnMut(&Edge) -> bool) {
        self.edges.retain(pred);
    }
}

impl fmt::Display for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "digraph: {} nodes, {} edges", self.node_count, self.edges.len())?;
        for e in &self.edges {
            writeln!(f, "  {} -> {} [{:.4}]", e.from, e.to, e.weight)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_queries() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(3, 1, 0.5);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.in_edges(1).count(), 2);
        assert_eq!(g.out_edges(0).count(), 2);
        assert_eq!(g.in_edges(3).count(), 0);
    }

    #[test]
    fn retain_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 9.0);
        g.retain_edges(|e| e.weight < 5.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges()[0].to, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_weight_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn display() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0.25);
        let s = g.to_string();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("0 -> 1 [0.2500]"));
    }
}
