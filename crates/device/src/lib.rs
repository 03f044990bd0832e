//! # mnd-device — CPU and simulated-GPU executors
//!
//! The paper runs its per-partition Boruvka kernel on two devices per node:
//! the CPU cores (Galois-style worklist, OpenMP) and an NVIDIA K40 (CUDA
//! worklist kernels with degree-binned scheduling). Neither CUDA nor a GPU
//! exists in this environment, so this crate provides the substitution
//! described in DESIGN.md:
//!
//! * the **kernel really runs** (via `mnd-kernels`), so results are exact;
//! * the **time** a device took is derived from the kernel's
//!   [`WorkProfile`](mnd_kernels::policy::WorkProfile) through a
//!   [`DeviceModel`]: per-iteration launch overhead, edge throughput,
//!   parallel efficiency, and — for the GPU — a degree-skew occupancy
//!   term (§3.5's hierarchical adjacency strategy, toggleable for the
//!   ablation) plus PCIe transfer charges;
//! * [`calibrate`] reproduces §4.3.1: sample induced subgraphs (~5% of
//!   vertices), execute on both device models, average the performance
//!   ratios, and cap the GPU share by its memory.
//!
//! Platform presets ([`platform`]) mirror the paper's two testbeds: the
//! 8-core AMD cluster node (CPU only) and the Cray XC40 node (12-core Xeon
//! + K40).

pub mod calibrate;
pub mod exec;
pub mod model;
pub mod platform;

pub use calibrate::{calibrate_split, DeviceSplit};
pub use exec::{ExecDevice, IndCompRun};
pub use model::{DeviceKind, DeviceModel};
pub use platform::NodePlatform;
