//! Device timing models.
//!
//! A device converts a kernel's [`WorkProfile`] into simulated seconds. The
//! model is deliberately simple — launch overhead + work/throughput with a
//! parallel-efficiency and (GPU) occupancy factor — because the paper's
//! results depend on the *ratios* between devices and between computation
//! and communication, not on cycle-accurate magnitudes.

use mnd_kernels::policy::WorkProfile;
use mnd_net::CostModel;

/// What kind of device this is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceKind {
    /// Multicore CPU with this many cores.
    Cpu {
        /// Physical cores used by the worklist kernel.
        cores: u32,
    },
    /// A GPU-like throughput device.
    Gpu {
        /// Whether the degree-binned hierarchical adjacency schedule
        /// (§3.5) is enabled; disabling it models the unoptimised kernel
        /// for the ablation.
        binning: bool,
    },
}

/// A device's cost parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Human-readable name (printed by the harness).
    pub name: &'static str,
    /// Kind and kind-specific parameters.
    pub kind: DeviceKind,
    /// Peak edge-scan throughput in edges/second (whole device).
    pub edge_throughput: f64,
    /// Fixed cost per kernel iteration (launch latency on GPUs, loop/sync
    /// overhead on CPUs).
    pub iteration_overhead: f64,
    /// Parallel efficiency in `(0, 1]` applied to the throughput.
    pub efficiency: f64,
    /// Device memory in bytes (caps partition sizes; §4.3.1 mentions GPU
    /// memory as a constraint on the split).
    pub mem_bytes: u64,
    /// Cost model for moving data on/off the device (PCIe for the GPU;
    /// free for the CPU, which owns host memory).
    pub transfer: CostModel,
    /// Simulation scale: kernel work items and transfer bytes are
    /// multiplied by this factor when charging time. Experiments that
    /// shrink the paper's graphs by `scale_div` set `work_scale =
    /// scale_div` so launch overheads keep their paper-scale ratio to the
    /// useful work — see DESIGN.md ("simulation scale").
    pub work_scale: f64,
}

impl DeviceModel {
    /// The paper's AMD Opteron 3380 node: 8 cores @ 2.6 GHz, 32 GB.
    /// Throughput chosen so a ~1B-edge scan takes seconds, matching the
    /// per-phase magnitudes of Table 3 at full scale.
    pub fn cpu_amd_opteron() -> Self {
        DeviceModel {
            name: "AMD Opteron 3380 (8 cores)",
            kind: DeviceKind::Cpu { cores: 8 },
            edge_throughput: 8.0 * 45.0e6,
            iteration_overhead: 8e-6,
            efficiency: 0.70,
            mem_bytes: 32 << 30,
            transfer: CostModel::free(),
            work_scale: 1.0,
        }
    }

    /// The Cray node's Intel Xeon E5-2695 v2: 12 cores @ 2.4 GHz, 64 GB.
    pub fn cpu_xeon_ivybridge() -> Self {
        DeviceModel {
            name: "Intel Xeon E5-2695v2 (12 cores)",
            kind: DeviceKind::Cpu { cores: 12 },
            edge_throughput: 12.0 * 55.0e6,
            iteration_overhead: 5e-6,
            efficiency: 0.72,
            mem_bytes: 64 << 30,
            transfer: CostModel::free(),
            work_scale: 1.0,
        }
    }

    /// NVIDIA Tesla K40: 2880 cores, 12 GB, PCIe-attached. Edge throughput
    /// reflects the ~4-5x memory-bandwidth edge over the host Xeon that
    /// graph kernels actually realise, minus divergence losses.
    pub fn gpu_k40() -> Self {
        DeviceModel {
            name: "NVIDIA Tesla K40",
            kind: DeviceKind::Gpu { binning: true },
            edge_throughput: 2.2e9,
            iteration_overhead: 25e-6,
            efficiency: 0.85,
            mem_bytes: 12 << 30,
            transfer: CostModel::pcie(),
            work_scale: 1.0,
        }
    }

    /// The K40 model with the degree-binned schedule disabled (ablation).
    pub fn gpu_k40_unbinned() -> Self {
        DeviceModel {
            kind: DeviceKind::Gpu { binning: false },
            ..Self::gpu_k40()
        }
    }

    /// Returns this model with a simulation scale applied (see
    /// [`DeviceModel::work_scale`]).
    pub fn scaled(mut self, work_scale: f64) -> Self {
        assert!(work_scale >= 1.0, "work_scale must be >= 1");
        self.work_scale = work_scale;
        self.transfer = self.transfer.scaled(work_scale);
        self
    }

    /// Simulated seconds to execute a kernel invocation with the given work
    /// profile on a holding whose degree-skew fraction is `skew`
    /// (fraction of edges in warp/block-sized bins; see
    /// [`mnd_kernels::binning`]).
    pub fn kernel_time(&self, work: &WorkProfile, skew: f64) -> f64 {
        let occupancy = self.occupancy(skew);
        let effective = self.edge_throughput * self.efficiency * occupancy;
        let mut t = 0.0;
        for it in &work.iters {
            // A tiny serial floor (min-edge resolution) keeps tiny
            // iterations from costing literally zero.
            let serial = it.unions as f64 * self.work_scale * 2.0e-9;
            t += self.iteration_overhead
                + it.edges_scanned as f64 * self.work_scale / effective
                + serial;
        }
        t
    }

    /// Occupancy factor from degree skew. CPUs are insensitive (work
    /// stealing balances skew); an unbinned GPU loses up to ~70% of its
    /// throughput on hub-heavy graphs (single thread crawling a multi-
    /// million-degree adjacency), the binned schedule recovers most of it.
    pub fn occupancy(&self, skew: f64) -> f64 {
        let skew = skew.clamp(0.0, 1.0);
        match self.kind {
            DeviceKind::Cpu { .. } => 1.0,
            DeviceKind::Gpu { binning: true } => 1.0 - 0.15 * skew,
            DeviceKind::Gpu { binning: false } => 1.0 - 0.70 * skew,
        }
    }

    /// Whether [`DeviceModel::occupancy`] reads the skew it is given: where
    /// it does not (a CPU), a caller need not measure the holding's skew.
    pub fn skew_sensitive(&self) -> bool {
        matches!(self.kind, DeviceKind::Gpu { .. })
    }

    /// Simulated seconds to move `bytes` onto or off the device.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if self.transfer.bandwidth.is_infinite() && self.transfer.latency == 0.0 {
            return 0.0;
        }
        self.transfer.transit(bytes) + self.transfer.overhead
    }

    /// True if a holding of `bytes` fits in device memory.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_kernels::policy::{IterWork, WorkProfile};

    fn profile(scans: &[u64]) -> WorkProfile {
        WorkProfile {
            iters: scans
                .iter()
                .map(|&s| IterWork {
                    active_components: 1,
                    edges_scanned: s,
                    unions: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn gpu_is_faster_than_cpu_on_bulk_work() {
        let w = profile(&[10_000_000, 5_000_000, 2_500_000]);
        let cpu = DeviceModel::cpu_xeon_ivybridge().kernel_time(&w, 0.0);
        let gpu = DeviceModel::gpu_k40().kernel_time(&w, 0.0);
        assert!(gpu < cpu, "gpu {gpu} vs cpu {cpu}");
    }

    #[test]
    fn cpu_wins_on_tiny_iterations() {
        // Many near-empty iterations: launch overhead dominates the GPU.
        let w = profile(&[100; 200]);
        let cpu = DeviceModel::cpu_xeon_ivybridge();
        let gpu = DeviceModel::gpu_k40();
        // Kernel-launch latency (25µs) dominates the GPU; the CPU's loop
        // overhead (5µs) is 5x cheaper, so the CPU wins outright.
        let t_cpu = cpu.kernel_time(&w, 0.0);
        let t_gpu = gpu.kernel_time(&w, 0.0);
        assert!(t_cpu < t_gpu, "cpu {t_cpu} vs gpu {t_gpu}");
    }

    #[test]
    fn skew_hurts_unbinned_gpu_most() {
        let w = profile(&[50_000_000]);
        let binned = DeviceModel::gpu_k40().kernel_time(&w, 0.8);
        let unbinned = DeviceModel::gpu_k40_unbinned().kernel_time(&w, 0.8);
        let cpu_flat = DeviceModel::cpu_xeon_ivybridge().kernel_time(&w, 0.0);
        let cpu_skew = DeviceModel::cpu_xeon_ivybridge().kernel_time(&w, 0.8);
        assert!(unbinned > 1.5 * binned);
        assert_eq!(cpu_flat, cpu_skew, "CPU must be skew-insensitive");
    }

    #[test]
    fn transfer_costs_are_gpu_only() {
        assert_eq!(
            DeviceModel::cpu_xeon_ivybridge().transfer_time(1 << 30),
            0.0
        );
        let t = DeviceModel::gpu_k40().transfer_time(1 << 30);
        assert!(t > 0.05, "1 GiB over PCIe should take ~90ms, got {t}");
    }

    #[test]
    fn memory_fit() {
        let gpu = DeviceModel::gpu_k40();
        assert!(gpu.fits(8 << 30));
        assert!(!gpu.fits(16 << 30));
    }

    #[test]
    fn kernel_time_monotone_in_work() {
        let small = profile(&[1000]);
        let big = profile(&[1000, 1000]);
        let m = DeviceModel::cpu_amd_opteron();
        assert!(m.kernel_time(&big, 0.0) > m.kernel_time(&small, 0.0));
    }
}
