//! HyPar runtime configuration (§4.3).

use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};

use crate::observe::ObserverHook;

/// All tunables of the HyPar runtime, with the paper's defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct HyParConfig {
    /// Hierarchical-merge group size (§3.4: 2/4/8/16 studied, 4 chosen).
    pub group_size: usize,
    /// Exception condition for independent computations (§4.1.2).
    pub excp: ExcpCond,
    /// Freeze interpretation (paper-literal sticky vs. recheck).
    pub freeze: FreezePolicy,
    /// Stop policy for device iterations (§4.3.2: diminishing benefits).
    pub stop: StopPolicy,
    /// Recursion threshold in **paper-scale** edges (§4.3.3: re-enter
    /// partition→indComp→merge while the reduced graph exceeds this; the
    /// paper uses 100M edges). [`crate::runtime::should_recurse`] applies
    /// it.
    pub recursion_edge_threshold: u64,
    /// Hierarchical-merge convergence (§4.3.4): stop ring exchanges and
    /// merge to the leader once an exchange round shrinks the group's data
    /// by less than this fraction.
    pub merge_min_shrink: f64,
    /// Group data threshold in paper-scale edges: below this the group's
    /// components are moved to the leader outright (Algorithm 1 line 7's
    /// `gEdges > threshold` test). §3.4 ties it to node capacity — ring
    /// exchange runs only "until all the components in a group can be
    /// accommodated in a single node" — so the default corresponds to a
    /// 32 GB node at ~20 bytes/edge with headroom for working structures.
    pub group_edge_threshold: u64,
    /// Simulation scale: our stand-in graphs are `1/sim_scale` of the
    /// paper's; device work and message bytes are multiplied by this so
    /// fixed overheads keep their paper-scale ratios (DESIGN.md).
    pub sim_scale: f64,
    /// Maximum ring-exchange rounds per level (a safety valve; the
    /// convergence test normally fires first).
    pub max_exchange_rounds: usize,
    /// Optional phase observer: fired by the driver at every phase boundary
    /// with the phase's time/traffic sample (see [`crate::observe`]).
    pub observer: ObserverHook,
    /// Filter-Boruvka on the level-0 holdings (DESIGN.md §8): right after
    /// partitioning, a rank whose holding has at least two rows per
    /// resident vertex drops every internal row it can certify as non-MSF
    /// (`mnd_kernels::filter::filter_holding`). On by default; the paper's
    /// algorithm (`repro`'s tables) runs without it. Exact either way —
    /// only which rows the pipeline carries changes.
    pub level0_filter: bool,
    /// Recovery points between checkpoints when a chaos schedule is armed:
    /// the driver reaches a recovery point after partitioning and after
    /// every mergeParts pass, and takes every `checkpoint_interval`-th one
    /// as a checkpoint boundary. The default of 1 checkpoints at every
    /// recovery point (the historic behaviour); larger values trade
    /// checkpoint overhead for more re-execution after a crash (see
    /// `repro checkpoint-sweep`). Ignored on fault-free runs.
    pub checkpoint_interval: u64,
}

impl Default for HyParConfig {
    fn default() -> Self {
        HyParConfig {
            group_size: 4,
            excp: ExcpCond::BorderEdge,
            freeze: FreezePolicy::Sticky,
            stop: StopPolicy::DiminishingBenefit {
                min_improvement: 0.05,
            },
            recursion_edge_threshold: 100_000_000,
            merge_min_shrink: 0.10,
            group_edge_threshold: 1_000_000_000,
            sim_scale: 1.0,
            max_exchange_rounds: 8,
            observer: ObserverHook::none(),
            level0_filter: true,
            checkpoint_interval: 1,
        }
    }
}

impl HyParConfig {
    /// Config with a simulation scale (see [`HyParConfig::sim_scale`]).
    pub fn with_sim_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0);
        self.sim_scale = scale;
        self
    }

    /// The recursion threshold expressed in *our* (scaled-down) edges.
    pub fn scaled_recursion_threshold(&self) -> u64 {
        ((self.recursion_edge_threshold as f64 / self.sim_scale).ceil() as u64).max(1)
    }

    /// The group-merge threshold in scaled-down edges.
    pub fn scaled_group_threshold(&self) -> u64 {
        ((self.group_edge_threshold as f64 / self.sim_scale).ceil() as u64).max(1)
    }

    /// Attaches a phase observer (see [`crate::observe::PhaseObserver`]).
    pub fn with_observer(
        mut self,
        observer: std::sync::Arc<dyn crate::observe::PhaseObserver>,
    ) -> Self {
        self.observer = ObserverHook::new(observer);
        self
    }

    /// Sets the checkpoint cadence at recovery points (see
    /// [`HyParConfig::checkpoint_interval`]).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_filters_level0_holdings() {
        let c = HyParConfig::default();
        assert_eq!(c.group_size, 4);
        // §4.3.3: recurse while the reduced graph exceeds 100M edges.
        assert_eq!(c.recursion_edge_threshold, 100_000_000);
        assert_eq!(c.excp, ExcpCond::BorderEdge);
        // The level-0 filter (DESIGN.md §8) is on by default; `repro`'s
        // `ExpContext` turns it off to run the paper's algorithm.
        assert!(c.level0_filter);
    }

    #[test]
    fn scaled_thresholds_divide_by_sim_scale() {
        let c = HyParConfig::default().with_sim_scale(2048.0);
        assert_eq!(
            c.scaled_recursion_threshold(),
            (100_000_000f64 / 2048.0).ceil() as u64
        );
        assert!(c.scaled_group_threshold() >= 1);
    }

    #[test]
    fn thresholds_never_zero() {
        let c = HyParConfig {
            recursion_edge_threshold: 1,
            group_edge_threshold: 1,
            ..Default::default()
        }
        .with_sim_scale(1e9);
        assert_eq!(c.scaled_recursion_threshold(), 1);
        assert_eq!(c.scaled_group_threshold(), 1);
    }
}
