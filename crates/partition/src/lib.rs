//! Graph partitioning for DC-MBQC.
//!
//! The paper's workload-distribution stage (Section IV-A) partitions the
//! MBQC computation graph across QPUs, co-optimizing two competing
//! objectives: *minimized communication* (cut edges are costly inter-QPU
//! connections) and *preserved local structure* (high-modularity
//! subgraphs compile better on a single QPU). Its Algorithm 2 searches
//! the imbalance–modularity trade-off by repeatedly calling a balanced
//! k-way partitioner (METIS in the paper) under a relaxing balance
//! factor `α`.
//!
//! This crate implements the whole stack from scratch:
//!
//! * [`partition`] — the [`Partition`] type with cut/balance accounting.
//! * [`modularity`] — Newman modularity `Q`.
//! * [`coarsen`] / [`refine`] / [`kway`] — a multilevel k-way
//!   partitioner in the Karypis–Kumar style (heavy-edge matching,
//!   greedy graph growing, boundary refinement) standing in for METIS.
//!   The hot paths iterate frozen [`CsrGraph`](mbqc_graph::CsrGraph)
//!   slices and maintain per-node gain state incrementally (the
//!   crate-private `GainTable` of [`refine`]).
//! * [`louvain`] — Louvain community detection (the modularity-first
//!   extreme of the trade-off, used for comparison).
//! * [`adaptive`] — the paper's Algorithm 2.
//!
//! Every partition is a pure function of the graph and the seed: one
//! coarsening path, one coarse-graph rebuild, no feature that changes
//! results. The pre-optimization adjacency-list partitioner lives in
//! this crate's `tests/common` as the bit-identity oracle; it is not
//! compiled into the library.
//!
//! # Kernel design
//!
//! ## Heavy-edge matching
//!
//! The matching pass ([`coarsen::heavy_edge_matching`]) is the dominant
//! fraction of `multilevel_kway` runtime — it touches every CSR row of
//! every coarsening level. It is one direct scalar scan with zero side
//! structures: `mate[v].is_none()` is the liveness probe, and on the
//! level sizes the pipeline meets (the largest benchmark pattern,
//! QFT-36, has 3 692 nodes) the mate array stays cache-resident. It
//! makes exactly the max-weight-then-smallest-index decisions of the
//! test oracle's plain loop and is **pinned bit-identical** to it by a
//! 256-case proptest over random graphs including wide-weight and
//! isolated-node corners — identical mates mean identical coarse graphs
//! mean identical partitions.
//!
//! ## Decision-invariant driver plumbing
//!
//! The rest of the `multilevel_kway` win comes from changes that are
//! *provably invisible* to the move sequence and RNG stream, so the
//! partitioning proptests pin them for free:
//!
//! * **Hash-free coarse rebuild** — the one coarse-graph rebuild
//!   ([`coarsen::coarsen_to_csr_with`]) reproduces the oracle's
//!   `add_edge_weighted` insertion order with a 3-pass bucket scatter +
//!   per-node stamp dedup instead of a dedup hash table (order depends
//!   only on the fine-edge scan, not on how duplicates are detected).
//! * **Boundary-flag refinement** — greedy refinement skips nodes
//!   where no part's connectivity beats the home part's; such nodes
//!   can never yield a positive-gain move, and the flag is maintained
//!   exactly (recomputed for the mover and its neighbors only).
//! * **One hierarchy per α-walk** — the coarsening hierarchy depends
//!   only on the graph, `k` and the seed, never on `α`, so
//!   [`adaptive::adaptive_partition_csr_with`] coarsens once and runs
//!   every probe as the uncoarsening half of
//!   [`kway::multilevel_kway_csr_with`] on the shared levels, from a
//!   clone of the RNG state coarsening left.
//! * **Indexed FM selection** — FM keeps every candidate move in a
//!   flat block-max index: per target part, one 64-bit key per node
//!   (gain above the complement of the node index, the oracle's
//!   (gain, lowest index) order) in ascending (weight, index) order, so
//!   the moves that fit a part's room are a prefix, plus the maximum of
//!   each block of 16 keys. A step reads each part's cached fitting
//!   prefix (whole-block maxima and one partial block) and re-keys the
//!   mover's neighbors, instead of scanning the boundary; the oracle's
//!   lowest-part tie-break falls out of comparing the `k` answers in
//!   part order. The (weight, index) sort of each FM-refined level is
//!   built once per partition call and shared by every α probe and
//!   restart.
//! * **Indexed rebalance** — rebalancing keeps each overloaded-part
//!   node's best fitting move in a lazily invalidated heap keyed by
//!   (gain, shuffled position, part). It is exact because a part
//!   brought under the bound never exceeds it again and the other
//!   parts only gain weight while one part drains, so a move is
//!   re-keyed only when a neighbor moves or its target fills up.
//! * **Workspace reuse everywhere** — coarsening scratch, the
//!   connectivity table, and the FM and rebalance
//!   buffers live in [`kway::KwayWorkspace`] and survive across levels
//!   and calls.
//!
//! # Examples
//!
//! ```
//! use mbqc_graph::generate;
//! use mbqc_partition::{adaptive, kway};
//!
//! let g = generate::grid_graph(10, 10);
//! let cfg = adaptive::AdaptiveConfig::new(4);
//! let result = adaptive::adaptive_partition(&g, &cfg);
//! assert_eq!(result.partition.k(), 4);
//! assert!(result.modularity > 0.3);
//! ```

pub mod adaptive;
pub mod coarsen;
pub mod kway;
pub mod louvain;
pub mod modularity;
pub mod partition;
pub mod refine;

pub use adaptive::{
    adaptive_partition, adaptive_partition_csr, adaptive_partition_csr_with, AdaptiveConfig,
};
pub use kway::{
    multilevel_kway, multilevel_kway_csr, multilevel_kway_csr_with, KwayConfig, KwayWorkspace,
};
pub use partition::Partition;
pub use refine::FmCounters;
