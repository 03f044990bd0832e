//! The post-processing phase (§4.1.4): final whole-holding contraction on
//! the last remaining rank, then the MSF gather.

use mnd_graph::types::WEdge;
use mnd_hypar::api::post_process;
use mnd_hypar::observe::PhaseKind;
use mnd_kernels::filter::certified_forest;
use mnd_kernels::msf::MsfResult;

use crate::phases::{Phase, RankCtx, RankRecovery};

/// Finishes the forest on the final rank — rank 0 unless chaos leader
/// failovers re-routed the merge hierarchy ([`RankCtx::final_rank`]) —
/// and gathers the MSF there, setting [`RankCtx::msf`].
///
/// With the level-0 filter on, the final holding — whose rows have no
/// ghost ends — is certified by the filter's one sweep instead of
/// contracted by Boruvka rounds: its survivors are its forest (DESIGN.md
/// §8). With the filter off (the paper's configuration) `postProcess`
/// runs Boruvka on the device the model picks.
#[derive(Debug, Default)]
pub struct PostProcess;

impl Phase for PostProcess {
    fn kind(&self) -> PhaseKind {
        PhaseKind::PostProcess
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, _rec: &mut RankRecovery<'_>) {
        cx.observed(PhaseKind::PostProcess, |cx| {
            let comm = cx.comm;
            let final_rank = cx.final_rank;
            if comm.rank() == final_rank && !cx.cg.is_empty() {
                debug_assert_eq!(
                    cx.cg.num_cut_edges(),
                    0,
                    "final holding must be self-contained"
                );
                // Every other rank waits in the gather below: the final
                // rank has the host to itself.
                let (edges, t) = cx.alone(1, |cx| {
                    cx.step(PhaseKind::PostProcess, "post_process_kernel", |cx| {
                        let runner = cx.runner;
                        if runner.config.level0_filter {
                            let rows = cx.cg.num_edges() as u64;
                            let forest = certified_forest(std::mem::take(&mut cx.cg));
                            (forest, runner.sweep_seconds(rows))
                        } else {
                            post_process(&mut cx.cg, &runner.platform, &runner.config)
                        }
                    })
                });
                comm.compute(t);
                cx.msf_local.extend(edges);
            }

            // Gather the MSF at the final rank.
            let msf_local = std::mem::take(&mut cx.msf_local);
            let gathered = cx.step(PhaseKind::PostProcess, "msf_gather", |_| {
                comm.gather_vec(final_rank, msf_local)
            });
            cx.msf = gathered.map(|parts| {
                let all: Vec<WEdge> = parts.into_iter().flatten().collect();
                MsfResult::from_edges(cx.el.num_vertices(), all)
            });
        });
    }
}
