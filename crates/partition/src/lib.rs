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
//!   slices and maintain per-node gain state incrementally
//!   ([`refine::GainTable`]).
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
//! ## Adaptive word-parallel heavy-edge matching
//!
//! The matching pass ([`coarsen::heavy_edge_matching`]) is the dominant
//! fraction of `multilevel_kway` runtime — it touches every CSR row of
//! every coarsening level. It picks one of two bit-identical strategies
//! by level size. Below the threshold the mate array is L1-resident and
//! a plain scalar `mate[v].is_none()` probe is already as fast as a
//! load can be, so the pass runs the direct scalar scan with zero side
//! structures. At or above the threshold (`2^16` nodes — measured
//! break-even on grid graphs: parity at ~90k nodes, 1.1–1.4× at ~360k
//! depending on measurement-window load)
//! the mate array spills out of cache and the liveness probe switches
//! to a packed `u64` bitset (bit `i` set ⇔ node `i` unmatched), so one
//! cached word answers the probe for 64 nodes instead of one
//! `Option<NodeId>` load per neighbor. Both branches make exactly the
//! max-weight-then-smallest-index decisions of a plain scalar loop (the
//! test oracle's) and are **pinned bit-identical** to it by a 256-case
//! proptest over random graphs including wide-weight and isolated-node
//! corners (the bitset branch is exercised directly via
//! `coarsen::heavy_edge_matching_bitset`) — identical mates mean
//! identical coarse graphs mean identical partitions.
//!
//! ## Decision-invariant driver plumbing
//!
//! The rest of the `multilevel_kway` win comes from changes that are
//! *provably invisible* to the move sequence and RNG stream, so the
//! partitioning proptests pin them for free:
//!
//! * **Hash-free coarse rebuild** — the one coarse-graph rebuild
//!   ([`coarsen::coarsen_to_csr`]) reproduces the oracle's
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
//!   every probe (the speculative one included) as the uncoarsening
//!   half of [`kway::multilevel_kway_csr_with`] on the shared levels,
//!   from a clone of the RNG state coarsening left.
//! * **Indexed FM selection** — FM keeps every candidate move in one
//!   max tournament tree per target part, keyed by the oracle's
//!   (gain, lowest index) order, with the leaves sorted by node weight
//!   so the moves that fit a part's room are a prefix. A step is `k`
//!   prefix maxima plus the re-keying of the mover's neighbors, instead
//!   of a scan of the boundary; the oracle's lowest-part tie-break
//!   falls out of comparing the `k` answers in part order.
//! * **Indexed rebalance** — rebalancing keeps each overloaded-part
//!   node's best fitting move in a lazily invalidated heap keyed by
//!   (gain, shuffled position, part). It is exact because a part
//!   brought under the bound never exceeds it again and the other
//!   parts only gain weight while one part drains, so a move is
//!   re-keyed only when a neighbor moves or its target fills up.
//! * **Workspace reuse everywhere** — coarsening scratch, the
//!   connectivity [`refine::GainTable`], and the FM and rebalance
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
    multilevel_kway, multilevel_kway_csr, multilevel_kway_csr_with, resolve_workers, KwayConfig,
    KwayWorkspace,
};
pub use partition::Partition;
