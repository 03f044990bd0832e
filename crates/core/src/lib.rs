//! # mnd-mst — the Multi-Node Multi-Device MST algorithm
//!
//! This crate is the paper's primary contribution: a divide-and-conquer
//! distributed minimum-spanning-forest algorithm that avoids the BSP
//! model's per-superstep synchronisation (Panja & Vadhiyar, ICPP 2018).
//!
//! The pipeline, per §3 of the paper:
//!
//! 1. **Partitioning** — Gemini-style parallel read + degree allreduce +
//!    contiguous 1D cuts across ranks; within a node a calibrated CPU/GPU
//!    cut (via `mnd-hypar`).
//! 2. **Independent computations** — each device runs Boruvka with the
//!    border-edge exception; components whose lightest edge leaves the
//!    partition freeze (`mnd-kernels`).
//! 3. **mergeParts** — self-edge removal, ghost-parent exchange through a
//!    [`ghost::GhostDirectory`], multi-edge removal.
//! 4. **Hierarchical merging** — groups of ranks ring-exchange component
//!    segments ([`segment`]) and collaboratively re-run Boruvka until the
//!    group's data converges (§4.3.4), then collapse to the group leader;
//!    leaders form the next level's groups, until one rank remains.
//! 5. **postProcess** — the final rank finishes the MSF with a whole-
//!    holding Boruvka run.
//!
//! The driver ([`runner::MndMstRunner`]) executes all of this over the
//! simulated cluster of `mnd-net`, producing the global MSF (validated
//! edge-for-edge against Kruskal in the tests) together with the per-phase
//! simulated-time breakdown the paper's figures report.
//!
//! ```
//! use mnd_mst::runner::MndMstRunner;
//! use mnd_graph::gen;
//!
//! let el = gen::gnm(500, 2500, 42);
//! let report = MndMstRunner::new(4).run(&el);
//! let oracle = mnd_kernels::kruskal_msf(&el);
//! assert_eq!(report.msf, oracle);
//! ```

pub mod bfs;
pub mod cc;
pub mod checkpoint;
pub mod engine;
pub mod ghost;
pub mod phases;
pub mod result;
pub mod runner;
pub mod segment;

pub use cc::{distributed_components, CcReport};
pub use result::{MndMstReport, PhaseTimes};
pub use runner::MndMstRunner;
