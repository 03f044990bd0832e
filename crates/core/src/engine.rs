//! The D&C driver as a registered [`mnd_engine::Engine`].
//!
//! [`MndMstRunner`] is itself the engine object: `run_chaos` is
//! [`MndMstRunner::run_armed`] with the driver's report mapped onto the
//! common [`EngineReport`]. "Recovered units" for this engine are
//! checkpoint restores — each one is a resumed recovery boundary after a
//! crash-at-boundary or mid-phase rollback.

use mnd_engine::{Engine, EngineChaos, EngineReport};
use mnd_graph::EdgeList;

use crate::runner::MndMstRunner;

impl Engine for MndMstRunner {
    fn name(&self) -> &'static str {
        "mnd-mst"
    }

    fn description(&self) -> &'static str {
        "divide-and-conquer Boruvka across nodes with per-device local MSTs (the paper's algorithm)"
    }

    fn run_chaos(&self, el: &EdgeList, chaos: &EngineChaos) -> EngineReport {
        let report = self.run_armed(el, chaos);
        let recovered_units = report
            .rank_stats
            .iter()
            .map(|s| s.checkpoint_restores)
            .sum();
        EngineReport {
            msf: report.msf,
            total_time: report.total_time,
            comm_time: report.comm_time,
            rank_stats: report.rank_stats,
            recovered_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    #[test]
    fn engine_adapter_matches_direct_run() {
        let el = gen::gnm(300, 1500, 7);
        let runner = MndMstRunner::new(4);
        let direct = runner.run(&el);
        let via_engine = Engine::run(&runner, &el);
        assert_eq!(direct.msf, via_engine.msf);
        assert!((direct.total_time - via_engine.total_time).abs() < 1e-9);
        assert_eq!(runner.name(), "mnd-mst");
    }

    #[test]
    fn engine_trait_object_runs_fault_free() {
        let el = gen::gnm(200, 900, 11);
        let engine: Box<dyn Engine> = Box::new(MndMstRunner::new(3));
        let report = engine.run(&el);
        let oracle = mnd_kernels::kruskal_msf(&el);
        assert_eq!(report.msf, oracle);
        assert_eq!(report.recovered_units, 0);
    }
}
