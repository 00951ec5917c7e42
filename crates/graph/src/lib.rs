//! Graph substrate for the DC-MBQC workspace.
//!
//! The paper's entire pipeline operates on graphs: the MBQC *graph state*
//! is an undirected graph, the measurement *dependency structure* is a DAG,
//! and the partitioner, compiler and scheduler all manipulate these
//! structures. This crate provides those foundations from scratch (no
//! external graph crates):
//!
//! * [`Graph`] — undirected graph with node and edge weights, the
//!   representation of computation graphs and graph states.
//! * [`CsrGraph`] — a frozen compressed-sparse-row view of a [`Graph`];
//!   the cache-friendly representation every partitioner hot path
//!   iterates.
//! * [`DiGraph`] — a frozen CSR directed graph, built once from an edge
//!   list, with topological sorting and longest-path queries: the
//!   representation of measurement dependency graphs.
//! * [`algo`] — connected components and BFS distances.
//! * [`generate`] — structured graph generators (paths, cycles, stars,
//!   grids, complete graphs) used by the benchmark circuits and tests.
//!
//! # Examples
//!
//! ```
//! use mbqc_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b);
//! assert_eq!(g.degree(a), 1);
//! assert!(g.has_edge(b, a));
//! ```

pub mod algo;
pub mod csr;
pub mod digraph;
pub mod generate;
pub mod graph;
pub mod node;

pub use csr::CsrGraph;
pub use digraph::DiGraph;
pub use graph::Graph;
pub use node::NodeId;
