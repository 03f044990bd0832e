//! The independent-computation phase (§3.2 / §4.1.2): device kernel runs
//! with recursion (§4.3.3), each followed by a [`MergeParts`] pass.

use mnd_hypar::api::ind_comp;
use mnd_hypar::observe::PhaseKind;
use mnd_hypar::runtime::{exchange_converged, should_recurse};

use crate::phases::{MergeParts, Phase, RankCtx, RankRecovery};

/// Cap on the kernel → mergeParts rounds inside one computation step
/// (§4.3.3).
const MAX_RECURSION_ROUNDS: usize = 3;

/// One *computation step*: `indComp` on the node's device(s), ghost-parent
/// exchange, self/multi-edge reduction — repeated while the global maximum
/// reduced size stays over the recursion threshold and some rank's round
/// shrank its holding significantly (the §4.3.4 rule).
/// Called in lockstep by every rank; empty holdings make every part a
/// no-op.
#[derive(Debug, Default)]
pub struct IndComp {
    merge: MergeParts,
}

impl IndComp {
    /// A computation step with a fresh `mergeParts` stage.
    pub fn new() -> Self {
        IndComp::default()
    }
}

impl Phase for IndComp {
    fn kind(&self) -> PhaseKind {
        PhaseKind::IndComp
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, rec: &mut RankRecovery<'_>) {
        for _round in 0..MAX_RECURSION_ROUNDS {
            let before = cx.cg.num_edges() as u64;
            // Independent computations on the node's device(s).
            let unions = cx.observed(PhaseKind::IndComp, |cx| {
                let run = cx.step(PhaseKind::IndComp, "kernel", |cx| {
                    let runner = cx.runner;
                    ind_comp(&mut cx.cg, &runner.platform, &cx.split, &runner.config)
                });
                cx.comm.compute(run.compute_time + run.transfer_time);
                cx.msf_local.extend(run.msf_edges.iter().copied());
                self.merge.relabel = run.relabel;
                run.msf_edges.len() as u64
            });

            // Ghost-parent exchange + reduction (§3.3).
            self.merge.run(cx, rec);
            rec.step(cx);

            // Global recursion decision (§4.3.3): recurse while any rank's
            // reduced holding is still over the paper's threshold AND some
            // rank's round paid off. A rank whose holding shrank less than
            // §4.3.4's significant fraction votes no progress, unions or
            // not: another round would cost a full sweep for a few rows.
            // Both inputs are allreduced, so every rank decides alike.
            let after = cx.cg.num_edges() as u64;
            let progress = if exchange_converged(cx.cfg(), before, after) {
                0
            } else {
                unions
            };
            let (max_edges, total_progress) = cx.observed(PhaseKind::IndComp, |cx| {
                cx.step(PhaseKind::IndComp, "recursion_vote", |cx| {
                    (
                        cx.comm.allreduce_u64(after, u64::max),
                        cx.comm.allreduce_u64(progress, |a, b| a + b),
                    )
                })
            });
            if total_progress == 0 || !should_recurse(&cx.runner.config, max_edges) {
                break;
            }
        }
        cx.note_holding();
    }
}
