//! Message logging for rollback recovery (DESIGN.md §5f).
//!
//! When a chaos plan can kill a rank mid-phase, every rank keeps a
//! `ReplayLog`: a receiver-side log of delivered payloads and a
//! sender-side tally of transmitted messages, both organised by *epoch*
//! (the number of recovery points the rank has passed). After a crash the
//! rank restores the checkpoint written *before* the interrupted epoch and
//! re-executes the pipeline deterministically; the log lets it
//!
//! * serve its own inbound messages again without touching the fabric
//!   (no bytes are re-charged, peers are never consulted), and
//! * suppress outbound messages the fabric already carried (the receivers
//!   hold — or already consumed — the original copies).
//!
//! The send tally is garbage-collected when a checkpoint commits: epochs at
//! or before the committed boundary are folded into a per-channel base
//! count, since a future rollback can never re-enter them. Receive entries
//! cannot be trimmed epoch-by-epoch — recovery replays the *whole* prefix
//! of the pipeline (in zero-cost fast-forward) to rebuild control flow, so
//! even garbage-collected epochs' payloads are read again. They *can* be
//! dropped wholesale: once the rank's epoch passes the last point at which
//! the active chaos plan could still crash it mid-phase (the plan's
//! *replay horizon*, `mnd_hypar::ChaosControl::replay_horizon`), no
//! future rollback can consume any logged payload, and the driver retires
//! the entire log via `Comm::retire_replay_log`. That bound keeps the
//! log's footprint proportional to the faulty prefix of a run instead of
//! its whole length.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Once;

use crate::comm::Tag;

/// Panic payload raised by [`crate::Comm`] when the chaos plane kills a
/// rank mid-phase. The driver catches it (`catch_unwind`), restores the
/// previous checkpoint, and re-executes; it must never escape a rank
/// closure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MidPhaseCrash {
    /// Epoch (recovery points passed) in which the crash fired.
    pub epoch: u32,
    /// Fabric-op ordinal within the epoch at which the crash fired (the op
    /// itself never executed).
    pub op: u64,
}

/// Payloads travel as `Box<dyn Any>`, which cannot be cloned; the typed
/// receive path logs a clone *factory* built from a `T: Clone` copy, so the
/// log can mint a fresh boxed payload per replay.
pub(crate) type CloneFactory = Box<dyn Fn() -> Box<dyn Any + Send> + Send>;

/// One logged inbound message.
pub(crate) struct LoggedRecv {
    /// Sender's epoch when the message was deposited (envelope tag).
    #[allow(dead_code)]
    pub epoch: u32,
    /// Wire bytes originally charged for the delivery.
    pub bytes: u64,
    /// Mints a fresh boxed copy of the payload.
    pub make: CloneFactory,
}

/// Per-rank send/recv log, keyed by `(epoch, tag, peer, seq)`.
#[derive(Default)]
pub(crate) struct ReplayLog {
    /// Inbound payloads by channel, keyed by delivery sequence number.
    recvs: HashMap<(usize, Tag), BTreeMap<u64, LoggedRecv>>,
    /// Messages this rank transmitted, per epoch and channel; compacted
    /// into `sent_base` when the epoch's checkpoint commits.
    sends: BTreeMap<u32, HashMap<(usize, Tag), u64>>,
    /// Transmission counts of garbage-collected epochs.
    sent_base: HashMap<(usize, Tag), u64>,
}

impl ReplayLog {
    /// Books one transmitted message on `(dst, tag)` under `epoch`.
    pub fn record_send(&mut self, epoch: u32, dst: usize, tag: Tag) {
        *self
            .sends
            .entry(epoch)
            .or_default()
            .entry((dst, tag))
            .or_insert(0) += 1;
    }

    /// Logs one delivered payload on `(src, tag)` at sequence `seq`.
    pub fn record_recv(
        &mut self,
        epoch: u32,
        src: usize,
        tag: Tag,
        seq: u64,
        bytes: u64,
        make: CloneFactory,
    ) {
        self.recvs
            .entry((src, tag))
            .or_default()
            .insert(seq, LoggedRecv { epoch, bytes, make });
    }

    /// How many messages this rank has ever transmitted on `(dst, tag)`.
    /// A re-executing send with `seq < transmitted` is suppressed.
    pub fn transmitted(&self, dst: usize, tag: Tag) -> u64 {
        self.sent_base.get(&(dst, tag)).copied().unwrap_or(0)
            + self
                .sends
                .values()
                .filter_map(|m| m.get(&(dst, tag)))
                .sum::<u64>()
    }

    /// Number of logged inbound payloads currently held (across all
    /// channels). Drivers use this to assert the GC bound.
    pub fn recv_entries(&self) -> usize {
        self.recvs.values().map(|m| m.len()).sum()
    }

    /// Serves a logged inbound payload, if present.
    pub fn replay_recv(
        &self,
        src: usize,
        tag: Tag,
        seq: u64,
    ) -> Option<(u64, Box<dyn Any + Send>)> {
        self.recvs
            .get(&(src, tag))
            .and_then(|m| m.get(&seq))
            .map(|r| (r.bytes, (r.make)()))
    }

    /// Garbage-collects the send tally at a checkpoint commit: epochs
    /// `<= epoch` can never be re-entered, so their per-channel counts fold
    /// into the base. Receive entries are retained (see module docs).
    pub fn gc_sends_through(&mut self, epoch: u32) {
        let keep = self.sends.split_off(&(epoch + 1));
        for (_, counts) in std::mem::replace(&mut self.sends, keep) {
            for (key, n) in counts {
                *self.sent_base.entry(key).or_insert(0) += n;
            }
        }
    }
}

/// Quietens the default panic hook for [`MidPhaseCrash`] payloads: an
/// injected crash is control flow (caught and recovered by the driver),
/// not a bug report. Installed once per process; every other panic still
/// reaches the previous hook.
pub fn install_quiet_crash_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<MidPhaseCrash>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_tally_survives_gc_as_base_counts() {
        let mut log = ReplayLog::default();
        let t = Tag::user(1);
        log.record_send(0, 1, t);
        log.record_send(0, 1, t);
        log.record_send(1, 1, t);
        log.record_send(2, 2, t);
        assert_eq!(log.transmitted(1, t), 3);
        assert_eq!(log.transmitted(2, t), 1);
        log.gc_sends_through(1);
        assert_eq!(log.transmitted(1, t), 3, "gc must not lose counts");
        assert_eq!(log.transmitted(2, t), 1);
        assert!(log.sends.len() == 1, "epochs <= 1 folded into base");
    }

    #[test]
    fn recv_log_mints_fresh_payload_copies() {
        let mut log = ReplayLog::default();
        let t = Tag::user(0);
        let v = vec![7u32, 8, 9];
        let copy = v.clone();
        log.record_recv(0, 2, t, 5, 12, Box::new(move || Box::new(copy.clone())));
        for _ in 0..2 {
            let (bytes, payload) = log.replay_recv(2, t, 5).expect("logged");
            assert_eq!(bytes, 12);
            assert_eq!(*payload.downcast::<Vec<u32>>().unwrap(), v);
        }
        assert!(log.replay_recv(2, t, 6).is_none());
        assert!(log.replay_recv(0, t, 5).is_none());
    }
}
