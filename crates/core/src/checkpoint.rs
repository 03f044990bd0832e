//! Phase-boundary checkpoints for crash recovery.
//!
//! When a chaos schedule is armed ([`crate::MndMstRunner::run_armed`]),
//! every rank serializes its recoverable state at each *recovery point* —
//! the Partition → IndComp boundary and the boundary after every
//! mergeParts pass — through the shared recovery driver
//! ([`mnd_engine::Recovery`]; the context implements
//! [`mnd_engine::Recoverable`] with this type as its checkpoint payload).
//! An injected crash then restarts the rank from the checkpoint instead of
//! aborting the run.
//!
//! The holding travels in the same [`SegmentMsg`] wire format the ring
//! exchange uses, so a checkpoint's cost is measured in exactly the bytes
//! the fabric would charge for shipping the same state.

use mnd_graph::types::WEdge;
use mnd_net::Wire;

use crate::ghost::GhostDirectory;
use crate::phases::RankCtx;
use crate::segment::SegmentMsg;

/// Everything a rank needs to resume from a recovery point: the evolving
/// holding and directory plus the accumulated outputs. The immutable run
/// inputs (edge list, configuration) are re-read from the
/// shared context on restart, exactly like a real job re-reading its
/// input from the parallel filesystem.
#[derive(Clone, Debug)]
pub struct RankCheckpoint {
    /// The rank's holding, in ring-exchange wire format.
    pub holding: SegmentMsg,
    /// Component → owner directory.
    pub dir: GhostDirectory,
    /// MSF edges contracted by this rank so far.
    pub msf_local: Vec<WEdge>,
    /// Hierarchical-merge levels completed.
    pub levels: usize,
    /// Ring-exchange rounds executed.
    pub exchange_rounds: usize,
}

impl RankCheckpoint {
    /// Snapshots the recoverable state of `cx`.
    pub fn capture(cx: &RankCtx<'_>) -> Self {
        RankCheckpoint {
            holding: SegmentMsg::from_holding(cx.cg.clone()),
            dir: cx.dir.clone(),
            msf_local: cx.msf_local.clone(),
            levels: cx.levels,
            exchange_rounds: cx.exchange_rounds,
        }
    }

    /// Rebuilds the context's recoverable state from this checkpoint.
    pub fn restore(self, cx: &mut RankCtx<'_>) {
        cx.cg = self.holding.into_holding();
        cx.dir = self.dir;
        cx.msf_local = self.msf_local;
        cx.levels = self.levels;
        cx.exchange_rounds = self.exchange_rounds;
    }
}

impl Wire for RankCheckpoint {
    /// Serialized size: the holding in segment format plus the directory,
    /// the local MSF, and the resume metadata.
    fn wire_bytes(&self) -> u64 {
        self.holding.wire_bytes()
            + self.dir.approx_wire_bytes()
            + self.msf_local.wire_bytes()
            + self.levels.wire_bytes()
            + self.exchange_rounds.wire_bytes()
    }
}
