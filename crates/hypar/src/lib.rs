//! # mnd-hypar — the HyPar hybrid CPU-GPU framework (§4 of the paper)
//!
//! HyPar is the programming and runtime framework MND-MST is built on. It
//! exposes four functions (Table 1 of the paper):
//!
//! | paper function | here |
//! |---|---|
//! | `partGraph`    | [`api::part_graph`] — 1D degree-balanced inter-node partitioning plus the calibrated intra-node CPU/GPU cut |
//! | `indComp`      | [`api::ind_comp`] — simultaneous independent Boruvka on the node's CPU and GPU partitions with an exception condition |
//! | `mergeParts`   | intra-node half here ([`api::merge_devices`]); the inter-node half (ghost exchange, ring merging) lives in `mnd-mst` because it needs the communicator |
//! | `postProcess`  | [`api::post_process`] — final whole-holding Boruvka on one device |
//!
//! The runtime strategies of §4.3 are provided by [`config::HyParConfig`]
//! (partition-ratio calibration, diminishing-benefit termination, the
//! recursion threshold, and the hierarchical-merge convergence threshold)
//! and [`runtime`].

pub mod api;
pub mod chaos;
pub mod config;
pub mod observe;
pub mod runtime;

pub use api::{ind_comp, merge_devices, part_graph, post_process, NodeIndComp, NodePartition};
pub use chaos::{ChaosControl, ChaosEvent, ChaosEventKind, ChaosHook};
pub use config::HyParConfig;
pub use observe::{ObserverHook, PhaseKind, PhaseObserver, PhaseSample, StepSample};
