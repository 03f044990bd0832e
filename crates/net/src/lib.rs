//! # mnd-net — simulated distributed-memory message passing
//!
//! The MND-MST paper runs on MPI over 16-node clusters. MPI (and a cluster)
//! are unavailable in this environment, so this crate provides the
//! substitute substrate described in DESIGN.md:
//!
//! * every **rank** is an OS thread with a private mailbox
//!   ([`Cluster::run`] spawns them and joins their results),
//! * ranks exchange **typed messages** through [`Comm::send`] /
//!   [`Comm::recv`] with MPI-like `(source, tag)` matching,
//! * each rank keeps a **virtual clock** advanced by modelled computation
//!   ([`Comm::compute`]) and by message costs from a LogGP-style
//!   [`CostModel`]; a receive waits (in virtual time) for the message's
//!   arrival, exactly like wall-clock time composes on a real cluster,
//! * [`collectives`] builds barrier / broadcast / reduce / allreduce /
//!   gather / allgather from point-to-point messages so their simulated
//!   cost emerges from the same model,
//! * per-rank [`RankStats`] split time into compute vs. communication and
//!   count bytes/messages — the quantities behind the paper's Figures 5
//!   and 7,
//! * an optional **fault plane** ([`fault`]) interposes on every
//!   transmission: drops surface as retransmission latency, duplicates and
//!   out-of-order copies are filtered by sequence number, all charged to
//!   the same virtual clocks and counted in [`RankStats`].
//!
//! Everything is deterministic: virtual timestamps depend only on the
//! communication DAG, never on OS scheduling (tests assert bit-equal clocks
//! across repeated runs).
//!
//! ```
//! use mnd_net::{Cluster, CostModel};
//!
//! let outcomes = Cluster::new(4, CostModel::default_cluster()).run(|comm| {
//!     // Each rank computes for 1ms, then everyone allreduces a sum.
//!     comm.compute(1e-3);
//!     comm.allreduce_u64(comm.rank() as u64 + 1, |a, b| a + b)
//! });
//! assert!(outcomes.iter().all(|o| o.result == 10));
//! ```

pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod group;
pub mod mailbox;
pub mod replay;
pub mod stats;

pub use cluster::{Cluster, RankOutcome};
pub use comm::{Comm, Tag};
pub use cost::CostModel;
pub use fault::{FaultInjector, InjectorHook, SendFate};
pub use group::Group;
pub use mnd_wire::Wire;
pub use replay::{install_quiet_crash_hook, MidPhaseCrash};
pub use stats::{RankStats, TagTraffic};
