//! # mnd-pregel — the BSP (Pregel+) baseline
//!
//! The paper compares MND-MST against Pregel+ (Yan et al., WWW'15), the
//! best-performing BSP distributed graph system of its time. Pregel+ is a
//! C++/Hadoop codebase that cannot run here, so this crate implements the
//! substitute described in DESIGN.md: a faithful **bulk-synchronous
//! vertex-centric minimum-spanning-forest** over the same simulated
//! cluster (`mnd-net`) and the same device cost models, so the comparison
//! is apples-to-apples — what differs is exactly what the paper credits:
//! the execution model.
//!
//! The algorithm is the standard BSP Boruvka/MSF used by Pregel+ and GPS:
//! per Boruvka round,
//!
//! 1. every vertex elects the lightest edge leaving its supervertex and
//!    messages the candidate to its supervertex root (with **message
//!    combining** — Pregel+'s first optimisation),
//! 2. roots pick the component minimum and exchange merge proposals;
//!    mutual proposals resolve to the smaller root (conjoined-tree
//!    resolution),
//! 3. **pointer-jumping supersteps** compress every vertex's parent to the
//!    new root,
//! 4. vertices whose supervertex changed broadcast the new id to the
//!    workers holding their neighbours (**LALP-style mirroring** — one
//!    message per worker instead of per edge — Pregel+'s second
//!    optimisation), and stale/internal adjacency entries are pruned.
//!
//! Rounds repeat until no component can grow. Every round costs a handful
//! of global supersteps with `O(V + E_cut)` messages — the per-superstep
//! synchronisation and traffic that §5.2 of the paper measures as 75% of
//! Pregel+'s runtime.

//!
//! Chaos-armed entry points ([`pregel_msf_chaos`], [`pregel_bfs_chaos`])
//! run the same algorithms under an injected fault schedule with
//! superstep-boundary checkpoints and mid-superstep crash rollback — the
//! BSP half of the resilience comparison, armed with an
//! [`mnd_engine::EngineChaos`] (DESIGN.md §5g).

pub mod bfs;
pub mod engine;
pub mod framework;
pub mod msf;

pub use bfs::{pregel_bfs, pregel_bfs_chaos, BspBfsReport};
pub use engine::BspEngine;
pub use framework::{BspConfig, BspStats};
pub use msf::{pregel_msf, pregel_msf_chaos, PregelReport};
