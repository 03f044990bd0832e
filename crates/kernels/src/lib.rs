//! # mnd-kernels — MST kernels for the MND-MST reproduction
//!
//! Everything algorithmic that runs *inside one device* lives here:
//!
//! * [`dsu`] — sequential union-find (the oracle's and the checkers'),
//! * [`filter`] — filter-Boruvka: exact, deterministic pruning of
//!   provably-non-MST rows from a dense level-0 holding before the
//!   distributed pipeline,
//! * [`oracle`] — Kruskal, the correctness oracle every distributed test
//!   compares against,
//! * [`cgraph`] — the *contracted graph* representation all merging levels
//!   of MND-MST operate on (components + inter-component edges carrying
//!   original-edge provenance),
//! * [`boruvka`] — the CPU kernel of §3.5: a worklist Boruvka with one
//!   shrink-and-elect sweep per round (chunked across threads with an
//!   atomic min-edge election), run whole-graph or under the paper's
//!   *exception condition* (§3.2) that freezes a component whose lightest
//!   edge is a cut edge,
//! * [`reduce`] — self-edge and multi-edge removal (§3.3),
//! * [`idset`] — the id-set filter the sweeps of a quiet round test both
//!   ends of a row against before doing any real work on it,
//! * [`scan`] — the standalone min-edge election over the holding's SoA
//!   columns, sequential and lock-free chunked,
//! * [`binning`] — degree-binned adjacency scheduling (the "hierarchical
//!   strategy for processing adjacency lists" of §3.5),
//! * [`policy`] — the seq/par kernel policy and the diminishing-benefits
//!   stop policy (§4.3.2),
//! * [`msf`] — result types and validity checking.

pub mod binning;
pub mod boruvka;
pub mod cgraph;
pub mod dsu;
pub mod filter;
pub mod idset;
mod index_table;
pub mod lockfree;
pub mod msf;
pub mod oracle;
pub mod policy;
pub mod reduce;
pub mod scan;

pub use boruvka::{boruvka_msf, local_boruvka, LocalOutput};
pub use cgraph::{CEdge, CGraph, CompId};
pub use dsu::DisjointSets;
pub use filter::{certified_forest, filter_holding, FilterStats};
pub use msf::{verify_msf, MsfResult};
pub use oracle::kruskal_msf;
pub use policy::{ExcpCond, KernelPolicy, StopPolicy};
pub use scan::min_edge_scan;
