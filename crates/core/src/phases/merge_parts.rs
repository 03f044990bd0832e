//! The `mergeParts` phase (§3.3): ghost-parent exchange plus self/multi-edge
//! reduction, applied after every independent computation.

use mnd_hypar::observe::PhaseKind;
use mnd_kernels::cgraph::CompId;
use mnd_kernels::reduce::{
    apply_ghost_parents, ghost_parent_message, ghost_parents_are_chain_free, reduce_holding,
};
use mnd_wire::PackedPairs;

use crate::ghost::relabel_buckets;
use crate::phases::{Phase, RankCtx, RankRecovery};

/// Consumes the relabels of the preceding `indComp` (stored in
/// [`MergeParts::relabel`] by the caller), exchanges ghost parents, and
/// reduces the holding in place.
#[derive(Debug, Default)]
pub struct MergeParts {
    /// `(old, new)` component renames produced by the last kernel run;
    /// taken (and normalised in place) when the phase executes.
    pub relabel: Vec<(CompId, CompId)>,
}

impl Phase for MergeParts {
    fn kind(&self) -> PhaseKind {
        PhaseKind::MergeParts
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, _rec: &mut RankRecovery<'_>) {
        let mut relabel = std::mem::take(&mut self.relabel);
        cx.observed(PhaseKind::MergeParts, |cx| {
            let comm = cx.comm;
            // Normalise the outgoing ghost-parent message in place (the
            // device results may repeat pairs; §3.3 sends each once).
            ghost_parent_message(&mut relabel);

            let buckets = cx.step(PhaseKind::MergeParts, "relabel_buckets", |cx| {
                relabel_buckets(&cx.cg, &relabel, &cx.dir, comm.rank(), comm.size())
            });
            // Rename pairs reference few surviving components per round:
            // the dictionary codec densifies them to small indexes on the
            // wire, inverted on receipt.
            let received = cx.step(PhaseKind::MergeParts, "ghost_exchange", |cx| {
                comm.alltoallv_phased(
                    buckets,
                    cx.runner.ghost_phase_size,
                    PackedPairs::encode,
                    PackedPairs::into_pairs,
                )
            });
            cx.dir.apply_relabels(&relabel);
            // One relabel sweep for the pairs of every sender: a rank
            // renames only its own residents, so pairs from different
            // senders neither collide nor chain.
            let pairs = received.concat();
            debug_assert!(
                ghost_parents_are_chain_free(&pairs),
                "ghost parents of different senders collide or chain"
            );
            cx.step(PhaseKind::MergeParts, "apply_ghost_parents", |cx| {
                apply_ghost_parents(&mut cx.cg, &pairs)
            });
            cx.dir.apply_relabels(&pairs);

            // Reduce: self-edge removal + multi-edge removal, in place.
            let stats = cx.step(PhaseKind::MergeParts, "reduce_holding", |cx| {
                reduce_holding(&mut cx.cg)
            });
            comm.compute(cx.runner.sweep_seconds(stats.edges_before));
        });
    }
}
