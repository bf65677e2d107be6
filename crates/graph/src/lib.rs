//! Graph algorithms for hierarchy lifting (Rock, ASPLOS'18 §4.2.2).
//!
//! The paper reduces "find the most likely class hierarchy" to finding a
//! **minimum-weight spanning arborescence** in a directed weighted graph
//! whose edge `a → b` (weight `D_KL(SLM(a) ‖ SLM(b))`… historically
//! written child-ward; here weights come from the caller) means *a is a
//! possible parent of b*.
//!
//! This crate provides:
//!
//! * [`DiGraph`] — a small directed weighted multigraph over dense node
//!   indices;
//! * [`min_arborescence`] — Chu-Liu/Edmonds rooted at an explicit root;
//! * [`min_spanning_forest`] — the paper's actual problem: a
//!   minimum-weight **maximal forest** (every node that *can* have a
//!   parent gets one — Heuristic 4.1), implemented with a virtual
//!   super-root;
//! * [`co_optimal_forests`] and [`vote_select`] — the §4.2.2 tie
//!   handling: enumerate co-optimal forests, pick by majority vote;
//! * [`UnionFind`] — used by the structural family clustering (§5.1);
//! * [`Forest`] — a node-labelled directed forest (NLD-forest, §4.1) with
//!   the successor queries the evaluation needs;
//! * [`reference`] — the seed solver and tie enumeration, kept as a test
//!   oracle and benchmark baseline.
//!
//! # Cost
//!
//! The solver contracts *every* cycle of the best-incoming-edge graph in
//! one O(E) round and loops over reusable buffers, so a solve costs
//! O(E · rounds), with a handful of rounds on real family graphs. Tie
//! enumeration adds two O(E) passes and one solve per tied child. Both
//! pick exactly the edges [`reference`] picks: the best incoming edge is
//! always the first minimal one in edge-list order, and every reduced
//! weight is computed by the same subtractions in the same order (see
//! the `edmonds` module). [`DiGraph::in_edges`] and
//! [`DiGraph::out_edges`] are O(E) scans; the solvers never call them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod edmonds;
mod forest;
pub mod reference;
mod ties;
mod unionfind;

pub use digraph::{DiGraph, Edge};
pub use edmonds::{min_arborescence, min_spanning_forest, ArborescenceResult};
pub use forest::Forest;
pub use ties::{co_optimal_forests, majority_vote, vote_select};
pub use unionfind::UnionFind;
