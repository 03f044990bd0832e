//! The per-rank communicator handle.
//!
//! A [`Comm`] is what a rank's closure receives from [`crate::Cluster`]:
//! its identity (`rank`, `size`), typed point-to-point messaging, the
//! virtual clock, and accounting. Collectives live in
//! [`crate::collectives`] as inherent methods implemented over these
//! primitives.
//!
//! Every payload type must implement [`Wire`]; the cost-model byte size of
//! a message is derived from the payload itself (`Wire::wire_bytes`) at the
//! single point where it enters the fabric — call sites never supply byte
//! counts, so accounting cannot drift from the data.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use mnd_wire::Wire;

use crate::cost::CostModel;
use crate::fault::InjectorHook;
use crate::mailbox::{Envelope, Mailbox};
use crate::replay::{MidPhaseCrash, ReplayLog};
use crate::stats::RankStats;

/// Message tag. User code uses [`Tag::user`]; the collectives reserve the
/// upper tag space so they can never collide with application traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub(crate) u32);

impl Tag {
    const COLLECTIVE_BASE: u32 = 0x8000_0000;

    /// A user-space tag (`id < 2^31`; the upper half is reserved for the
    /// collectives in [`crate::collectives`]).
    pub const fn user(id: u32) -> Tag {
        assert!(id < Self::COLLECTIVE_BASE, "user tags must be < 2^31");
        Tag(id)
    }

    /// The raw tag id (collective tags keep their high bit set).
    pub const fn id(self) -> u32 {
        self.0
    }

    /// Whether this tag belongs to the reserved collective space.
    pub const fn is_collective(self) -> bool {
        self.0 & Self::COLLECTIVE_BASE != 0
    }

    /// Human-readable name for traffic tables: collective tags get their
    /// collective's name, user tags print as `user(id)`.
    pub fn name(self) -> String {
        if self.is_collective() {
            match self.0 & !Self::COLLECTIVE_BASE {
                0 => "barrier".to_string(),
                1 => "reduce".to_string(),
                2 => "bcast".to_string(),
                3 => "gather".to_string(),
                4 => "alltoall".to_string(),
                5 => "reduce_vec".to_string(),
                6 => "phased".to_string(),
                7 => "allgather".to_string(),
                other => format!("collective({other})"),
            }
        } else {
            format!("user({})", self.0)
        }
    }
}

/// Shared (read-only) cluster state.
pub(crate) struct Fabric {
    pub mailboxes: Vec<Mailbox>,
    pub cost: CostModel,
    /// Fault plane (clean fabric when empty) — see [`crate::fault`].
    pub faults: InjectorHook,
}

/// The payload of a redundant copy injected by the fault plane; carries no
/// data because the receiver discards duplicates without downcasting.
struct DupGhost;

/// One rank's state: identity, clock, statistics — plus, when rollback
/// recovery is armed, the current epoch, the replay log, and the recovery
/// mode flags (see [`crate::replay`] and DESIGN.md §5f).
pub struct Comm {
    rank: usize,
    size: usize,
    fabric: Arc<Fabric>,
    clock: RefCell<f64>,
    stats: RefCell<RankStats>,
    /// Next send sequence number per `(dst, tag)`.
    send_seq: RefCell<HashMap<(usize, Tag), u64>>,
    /// Next expected delivery sequence number per `(src, tag)`.
    recv_seq: RefCell<HashMap<(usize, Tag), u64>>,
    /// Recovery points passed so far (drives replay-log keying and
    /// mid-phase crash scheduling).
    epoch: Cell<u32>,
    /// Fabric ops (sends + recvs) issued in the current epoch.
    ops_in_epoch: Cell<u64>,
    /// Op ordinal at which an injected mid-phase crash fires this epoch.
    armed_crash: Cell<Option<u64>>,
    /// Re-executing already-charged epochs after a crash: every charge is
    /// suppressed, sends are swallowed, recvs come from the log.
    fast_forward: Cell<bool>,
    /// Re-executing the interrupted epoch: compute is charged (and tracked
    /// as replayed), logged traffic is served free, first un-logged op
    /// drops back to live execution.
    replay_live: Cell<bool>,
    /// Send/recv log; `Some` once [`Comm::enable_replay_log`] ran.
    replay: RefCell<Option<ReplayLog>>,
}

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, fabric: Arc<Fabric>) -> Self {
        Comm {
            rank,
            size,
            fabric,
            clock: RefCell::new(0.0),
            stats: RefCell::new(RankStats::default()),
            send_seq: RefCell::new(HashMap::new()),
            recv_seq: RefCell::new(HashMap::new()),
            epoch: Cell::new(0),
            ops_in_epoch: Cell::new(0),
            armed_crash: Cell::new(None),
            fast_forward: Cell::new(false),
            replay_live: Cell::new(false),
            replay: RefCell::new(None),
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cluster's cost model.
    #[inline]
    pub fn cost_model(&self) -> CostModel {
        self.fabric.cost
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> f64 {
        *self.clock.borrow()
    }

    /// Snapshot of the accumulated statistics.
    #[inline]
    pub fn stats(&self) -> RankStats {
        self.stats.borrow().clone()
    }

    /// Advances the clock by `seconds` of modelled computation. Suppressed
    /// entirely in fast-forward (the work was charged before the crash);
    /// during replay of the interrupted epoch the re-execution is real
    /// recovery cost — charged normally and additionally tracked in
    /// [`RankStats::replayed_compute`].
    pub fn compute(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute time");
        if self.fast_forward.get() {
            return;
        }
        *self.clock.borrow_mut() += seconds;
        let mut s = self.stats.borrow_mut();
        s.compute_time += seconds;
        if self.replay_live.get() {
            s.replayed_compute += seconds;
        }
    }

    /// Advances the clock by `seconds` booked as *communication* — for
    /// modelled messaging-stack overheads (serialisation, envelopes) that
    /// are not captured by the per-payload cost model. Suppressed in
    /// fast-forward like [`Comm::compute`].
    pub fn charge_comm(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative comm time");
        if self.fast_forward.get() {
            return;
        }
        *self.clock.borrow_mut() += seconds;
        self.stats.borrow_mut().comm_time += seconds;
    }

    /// Advances the clock by `seconds` of injected stall: booked as
    /// communication (dead air on the fabric) and additionally tracked in
    /// [`RankStats::stall_time`] so chaos runs can separate fault latency
    /// from real traffic. Suppressed in fast-forward.
    pub fn stall(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative stall time");
        if self.fast_forward.get() {
            return;
        }
        *self.clock.borrow_mut() += seconds;
        let mut s = self.stats.borrow_mut();
        s.comm_time += seconds;
        s.stall_time += seconds;
    }

    /// Counts one phase-boundary checkpoint write of `bytes` wire bytes
    /// (the time cost is charged separately by the caller, which owns the
    /// storage model).
    pub fn note_checkpoint_write(&self, bytes: u64) {
        let mut s = self.stats.borrow_mut();
        s.checkpoint_writes += 1;
        s.checkpoint_bytes += bytes;
    }

    /// Counts one checkpoint restore after an injected crash.
    pub fn note_checkpoint_restore(&self) {
        self.stats.borrow_mut().checkpoint_restores += 1;
    }

    /// Turns on the send/recv replay log (no-op if already on). Armed by
    /// the driver whenever a chaos plan is attached; logging itself never
    /// touches the virtual clock, so fault-free results are unchanged.
    pub fn enable_replay_log(&self) {
        let mut replay = self.replay.borrow_mut();
        if replay.is_none() {
            *replay = Some(ReplayLog::default());
        }
    }

    /// Drops the replay log (end of run).
    pub fn clear_replay_log(&self) {
        *self.replay.borrow_mut() = None;
    }

    /// Retires the replay log because the active chaos plan can no longer
    /// crash this rank mid-phase (the rank's epoch passed the plan's
    /// *replay horizon*): all logged payloads and send tallies are dropped
    /// and no further traffic is logged. Unlike [`Comm::clear_replay_log`]
    /// this is a GC decision taken mid-run — it is only sound when the
    /// horizon really covers every scheduled crash (see
    /// [`crate::replay`] module docs).
    pub fn retire_replay_log(&self) {
        *self.replay.borrow_mut() = None;
    }

    /// Number of inbound payloads currently held by the replay log
    /// (0 when the log is off or retired). Lets tests assert the
    /// replay-horizon GC keeps the log bounded.
    pub fn replay_recv_entries(&self) -> usize {
        self.replay
            .borrow()
            .as_ref()
            .map_or(0, |log| log.recv_entries())
    }

    /// Current epoch: the number of recovery points this rank has passed.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch.get()
    }

    /// Enters the next epoch (called by the driver at each recovery
    /// point): the per-epoch op counter restarts and any armed mid-phase
    /// crash is disarmed (it belonged to the epoch that just ended).
    pub fn advance_epoch(&self) {
        self.epoch.set(self.epoch.get() + 1);
        self.ops_in_epoch.set(0);
        self.armed_crash.set(None);
    }

    /// Arms an injected crash at fabric-op `at_op` of the current epoch.
    /// The crash fires *before* the op executes, as a
    /// [`MidPhaseCrash`] panic the driver catches.
    pub fn arm_mid_phase_crash(&self, at_op: u64) {
        self.armed_crash.set(Some(at_op));
    }

    /// Enters/leaves fast-forward: zero-cost re-execution of epochs that
    /// were fully charged before a crash (sends swallowed, recvs served
    /// from the log, no clock or stats movement).
    pub fn set_fast_forward(&self, on: bool) {
        self.fast_forward.set(on);
    }

    /// Whether the rank is fast-forwarding (drivers gate observation and
    /// checkpointing off while it is).
    #[inline]
    pub fn fast_forward(&self) -> bool {
        self.fast_forward.get()
    }

    /// Enters/leaves replay of the interrupted epoch: compute is charged
    /// (and tracked as replayed), logged traffic is free, and the first
    /// op beyond the log drops back to live execution automatically.
    pub fn set_replay_live(&self, on: bool) {
        self.replay_live.set(on);
    }

    /// Whether the rank is replaying the interrupted epoch.
    #[inline]
    pub fn replay_live(&self) -> bool {
        self.replay_live.get()
    }

    /// Resets message sequence numbers, epoch, and op counters for a
    /// from-the-top re-execution after a crash. The sequence maps double
    /// as the replay cursors: they re-advance through the log and the
    /// first miss marks the op where the crash interrupted the rank.
    pub fn reset_sequences(&self) {
        self.send_seq.borrow_mut().clear();
        self.recv_seq.borrow_mut().clear();
        self.epoch.set(0);
        self.ops_in_epoch.set(0);
        self.armed_crash.set(None);
    }

    /// Garbage-collects the send-side replay tally for epochs `<= epoch`
    /// (called when the checkpoint ending `epoch` commits — rollback can
    /// never re-enter those epochs).
    pub fn gc_replay_sends(&self, epoch: u32) {
        if let Some(log) = self.replay.borrow_mut().as_mut() {
            log.gc_sends_through(epoch);
        }
    }

    /// Books one fabric op (send or recv): the mid-phase crash trigger.
    /// Not counted during fast-forward — op ordinals are defined over the
    /// charged execution, and fast-forward replays ops that were already
    /// counted before the crash.
    fn fabric_op(&self) {
        if self.fast_forward.get() {
            return;
        }
        let op = self.ops_in_epoch.get();
        self.ops_in_epoch.set(op + 1);
        if self.armed_crash.get() == Some(op) {
            self.armed_crash.set(None);
            std::panic::panic_any(MidPhaseCrash {
                epoch: self.epoch.get(),
                op,
            });
        }
    }

    /// Sends `value` to `dst`. The payload size charged to the cost model
    /// and to [`RankStats`] is `value.wire_bytes()`.
    ///
    /// The sender's clock advances by the send busy time; the message's
    /// arrival time at `dst` is `now + latency + bytes/bandwidth`.
    ///
    /// When a fault injector is installed ([`crate::fault`]), the
    /// transmission's [`crate::fault::SendFate`] may perturb this: each
    /// drop costs the sender a retransmission (busy time plus
    /// [`CostModel::retry_timeout`] of dead air, counted in
    /// [`RankStats::retries`]), delivery may pick up extra transit skew,
    /// and duplicate copies may be deposited for the receiver to discard.
    /// Delivery itself stays reliable and in order — faults perturb time
    /// and accounting, never the payload stream.
    ///
    /// # Panics
    ///
    /// If `dst` is out of range or equal to this rank (use a local variable
    /// instead of a self-send).
    pub fn send<T: Wire>(&self, dst: usize, tag: Tag, value: T) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        assert_ne!(
            dst, self.rank,
            "self-send unsupported (use a local variable)"
        );
        self.fabric_op();
        let bytes = value.wire_bytes();
        let cost = &self.fabric.cost;
        let seq = {
            let mut m = self.send_seq.borrow_mut();
            let slot = m.entry((dst, tag)).or_insert(0);
            let seq = *slot;
            *slot += 1;
            seq
        };
        if self.fast_forward.get() || self.replay_live.get() {
            // Re-execution after a crash: a copy with this sequence number
            // may already be on the fabric (the receiver holds or consumed
            // it) — depositing again would corrupt the stream and double-
            // charge bytes. Suppress it; the sequence number stays burned.
            let transmitted = self
                .replay
                .borrow()
                .as_ref()
                .map_or(0, |log| log.transmitted(dst, tag));
            if seq < transmitted {
                return;
            }
            if self.fast_forward.get() {
                panic!(
                    "rank {}: fast-forward reached an unsent message to rank {dst} \
                     tag {tag:?} seq {seq} — non-deterministic re-execution",
                    self.rank
                );
            }
            // Replay caught up with the crash point: this op never made it
            // onto the fabric, so execution is live again from here on.
            self.replay_live.set(false);
        }
        if let Some(log) = self.replay.borrow_mut().as_mut() {
            log.record_send(self.epoch.get(), dst, tag);
        }
        let fate = self.fabric.faults.fate(self.rank, dst, tag, seq, bytes);
        let depart = self.now();
        let busy = cost.send_busy(bytes);
        // Each dropped copy costs a full (re)serialisation plus a
        // retransmission timeout of dead air before the next attempt.
        let retry_wait: f64 = (0..fate.retries).map(|k| cost.retry_timeout(k)).sum();
        let total_busy = busy * (1 + fate.retries) as f64 + retry_wait;
        *self.clock.borrow_mut() += total_busy;
        {
            let mut s = self.stats.borrow_mut();
            s.comm_time += total_busy;
            s.record_send(tag, bytes);
            s.record_retries(tag, fate.retries as u64);
        }
        // The surviving copy departs at the start of the last attempt.
        let arrival =
            depart + busy * fate.retries as f64 + retry_wait + cost.transit(bytes) + fate.delay;
        let mailbox = &self.fabric.mailboxes[dst];
        let epoch = self.epoch.get();
        let ghost = |arrival: f64| Envelope {
            payload: Box::new(DupGhost),
            arrival,
            bytes,
            seq,
            epoch,
            dup: true,
        };
        if fate.reorder {
            // A stale copy races ahead of the real one: deposited first, so
            // the receiver encounters it out of order and must filter it.
            mailbox.deposit(self.rank, tag, ghost(arrival));
        }
        mailbox.deposit(
            self.rank,
            tag,
            Envelope {
                payload: Box::new(value),
                arrival,
                bytes,
                seq,
                epoch,
                dup: false,
            },
        );
        for k in 0..fate.duplicates {
            mailbox.deposit(self.rank, tag, ghost(arrival + cost.retry_timeout(k)));
        }
    }

    /// Receives the next message from `(src, tag)`, blocking until it is
    /// available. The virtual clock advances to at least the message's
    /// arrival time (the wait is booked as communication), plus the
    /// receiver overhead.
    ///
    /// During post-crash re-execution, deliveries the rank already
    /// consumed are served from the replay log instead of the fabric: no
    /// wait, no byte accounting (the bytes were charged at first
    /// delivery), with the replayed volume tracked in
    /// [`RankStats::replayed_in_bytes`] while the interrupted epoch
    /// re-runs. The payload must be `Clone` so the log can keep a copy.
    ///
    /// # Panics
    ///
    /// If the payload's type is not `T` (datatype mismatch), if `src` is
    /// out of range or equal to this rank, or — after a generous wall-clock
    /// timeout — if the message never arrives (distributed deadlock).
    pub fn recv<T: Clone + Send + 'static>(&self, src: usize, tag: Tag) -> T {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        assert_ne!(src, self.rank, "self-recv unsupported");
        self.fabric_op();
        let cost = &self.fabric.cost;
        if self.fast_forward.get() || self.replay_live.get() {
            let seq = self
                .recv_seq
                .borrow()
                .get(&(src, tag))
                .copied()
                .unwrap_or(0);
            let served = self
                .replay
                .borrow()
                .as_ref()
                .and_then(|log| log.replay_recv(src, tag, seq));
            match served {
                Some((bytes, payload)) => {
                    *self.recv_seq.borrow_mut().entry((src, tag)).or_insert(0) = seq + 1;
                    if self.replay_live.get() {
                        self.stats.borrow_mut().replayed_in_bytes += bytes;
                    }
                    return *payload.downcast::<T>().unwrap_or_else(|_| {
                        panic!(
                            "rank {}: type mismatch replaying from rank {src} tag {tag:?} \
                             (expected {})",
                            self.rank,
                            std::any::type_name::<T>()
                        )
                    });
                }
                None if self.fast_forward.get() => panic!(
                    "rank {}: fast-forward missed a logged message from rank {src} \
                     tag {tag:?} seq {seq} — non-deterministic re-execution",
                    self.rank
                ),
                None => {
                    // First delivery beyond the log: the crash interrupted
                    // the rank before this op, so execution is live again.
                    self.replay_live.set(false);
                }
            }
        }
        let env = loop {
            let env = self.fabric.mailboxes[self.rank].take(src, tag, self.rank);
            if !env.dup {
                break env;
            }
            // A redundant copy injected by the fault plane: examine (pay
            // the receive overhead at its arrival) and discard.
            let mut clock = self.clock.borrow_mut();
            let mut s = self.stats.borrow_mut();
            let before = *clock;
            *clock = env.arrival.max(before) + cost.recv_busy();
            s.comm_time += *clock - before;
            s.record_redelivery(tag);
        };
        {
            let mut expected = self.recv_seq.borrow_mut();
            let slot = expected.entry((src, tag)).or_insert(0);
            debug_assert_eq!(
                env.seq, *slot,
                "rank {}: out-of-sequence delivery from rank {src} tag {tag:?}",
                self.rank
            );
            *slot = env.seq + 1;
        }
        {
            let mut clock = self.clock.borrow_mut();
            let mut s = self.stats.borrow_mut();
            let before = *clock;
            let ready = env.arrival.max(before);
            *clock = ready + cost.recv_busy();
            s.comm_time += *clock - before;
            s.record_recv(tag, env.bytes);
        }
        let value = *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving from rank {src} tag {tag:?} (expected {})",
                self.rank,
                std::any::type_name::<T>()
            )
        });
        if let Some(log) = self.replay.borrow_mut().as_mut() {
            let copy = value.clone();
            log.record_recv(
                env.epoch,
                src,
                tag,
                env.seq,
                env.bytes,
                Box::new(move || Box::new(copy.clone())),
            );
        }
        value
    }

    /// Sends to `dst` and receives from `src` — the deadlock-free pairwise
    /// exchange used by ring steps (send is non-blocking in this model, so
    /// ordering is safe; the helper exists for readability).
    pub fn send_recv<T: Wire, U: Clone + Send + 'static>(
        &self,
        dst: usize,
        send_tag: Tag,
        value: T,
        src: usize,
        recv_tag: Tag,
    ) -> U {
        self.send(dst, send_tag, value);
        self.recv(src, recv_tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn clock_advances_with_compute() {
        let out = Cluster::new(1, CostModel::free()).run(|c| {
            c.compute(2.5);
            c.now()
        });
        assert_eq!(out[0].result, 2.5);
        assert_eq!(out[0].stats.compute_time, 2.5);
    }

    #[test]
    fn message_bytes_derive_from_payload() {
        let cost = CostModel {
            latency: 1e-3,
            bandwidth: 1e6,
            overhead: 0.0,
            byte_scale: 1.0,
        };
        let out = Cluster::new(2, cost).run(|c| {
            if c.rank() == 0 {
                c.send(1, Tag::user(0), vec![7u32; 250]); // 1000 wire bytes
                0u32
            } else {
                let v: Vec<u32> = c.recv(0, Tag::user(0));
                assert_eq!(v.len(), 250);
                // Arrival = 0 + 1ms latency + 1ms serialisation.
                assert!((c.now() - 2e-3).abs() < 1e-9, "clock {}", c.now());
                v[0]
            }
        });
        assert_eq!(out[1].result, 7);
        assert_eq!(out[0].stats.bytes_sent, 1000);
        assert_eq!(out[0].stats.by_tag[&Tag::user(0)].bytes_sent, 1000);
        assert_eq!(out[1].stats.messages_received, 1);
        assert_eq!(out[1].stats.by_tag[&Tag::user(0)].bytes_received, 1000);
        assert!(out[1].stats.comm_time > 0.0);
    }

    #[test]
    fn receiver_waits_for_late_sender() {
        let cost = CostModel::free();
        let out = Cluster::new(2, cost).run(|c| {
            if c.rank() == 0 {
                c.compute(5.0); // sender is busy for 5 virtual seconds
                c.send(1, Tag::user(0), 1u8);
                c.now()
            } else {
                let _: u8 = c.recv(0, Tag::user(0));
                c.now() // must be >= 5.0 despite doing nothing itself
            }
        });
        assert!(out[1].result >= 5.0);
        assert_eq!(out[1].stats.comm_time, 5.0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Cluster::new(2, CostModel::free()).run(|c| {
            if c.rank() == 0 {
                c.send(1, Tag::user(0), 1u8);
            } else {
                let _: u64 = c.recv(0, Tag::user(0));
            }
        });
    }

    #[test]
    fn non_overtaking_same_key() {
        let out = Cluster::new(2, CostModel::free()).run(|c| {
            if c.rank() == 0 {
                for i in 0..10u32 {
                    c.send(1, Tag::user(3), i);
                }
                vec![]
            } else {
                (0..10)
                    .map(|_| c.recv::<u32>(0, Tag::user(3)))
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1].result, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tag_space_split() {
        assert_eq!(Tag::user(7).id(), 7);
        assert!(!Tag::user(7).is_collective());
        assert_eq!(Tag::user(7).name(), "user(7)");
    }

    mod replay_gc {
        use super::*;

        /// Drives a long multi-epoch exchange, committing a recovery point
        /// per epoch, and returns (peak, final) recv-log sizes. With a
        /// finite horizon the log must be retired once the epoch passes
        /// it; with no horizon it grows for the whole run.
        fn run_epochs(epochs: u32, horizon: Option<u32>) -> Vec<(usize, usize)> {
            Cluster::new(2, CostModel::free())
                .run(move |c| {
                    c.enable_replay_log();
                    let peer = 1 - c.rank();
                    let mut peak = 0usize;
                    for e in 0..epochs {
                        c.send(peer, Tag::user(0), vec![e; 4]);
                        let _: Vec<u32> = c.recv(peer, Tag::user(0));
                        peak = peak.max(c.replay_recv_entries());
                        // Recovery-point commit, as the drivers do it.
                        c.gc_replay_sends(c.epoch());
                        c.advance_epoch();
                        if let Some(h) = horizon {
                            if c.epoch() >= h {
                                c.retire_replay_log();
                            }
                        }
                    }
                    (peak, c.replay_recv_entries())
                })
                .into_iter()
                .map(|o| o.result)
                .collect()
        }

        #[test]
        fn replay_horizon_bounds_the_recv_log() {
            // Last possible mid-phase crash in epoch 2 => horizon 3: the
            // log holds at most the 3 faulty-prefix epochs' messages and
            // is empty from the horizon on.
            for (peak, fin) in run_epochs(64, Some(3)) {
                assert!(peak <= 3, "log grew past the faulty prefix: {peak}");
                assert_eq!(fin, 0, "log must be retired at the horizon");
            }
            // Without a horizon the log keeps every delivery of the run —
            // the unbounded growth the GC exists to prevent.
            for (peak, fin) in run_epochs(64, None) {
                assert_eq!(peak, 64);
                assert_eq!(fin, 64);
            }
        }
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultInjector, SendFate};
        use std::sync::Arc;

        /// Drops the first copy of every message once.
        struct DropOnce;
        impl FaultInjector for DropOnce {
            fn fate(&self, _: usize, _: usize, _: Tag, _: u64, _: u64) -> SendFate {
                SendFate {
                    retries: 1,
                    ..SendFate::CLEAN
                }
            }
        }

        /// Duplicates every message and races one stale copy ahead.
        struct DupAndReorder;
        impl FaultInjector for DupAndReorder {
            fn fate(&self, _: usize, _: usize, _: Tag, _: u64, _: u64) -> SendFate {
                SendFate {
                    duplicates: 1,
                    reorder: true,
                    ..SendFate::CLEAN
                }
            }
        }

        #[test]
        fn drops_charge_retry_latency_and_count() {
            let run = |faulty: bool| {
                let cost = CostModel::default_cluster();
                let mut cluster = Cluster::new(2, cost);
                if faulty {
                    cluster = cluster.with_fault_injector(Arc::new(DropOnce));
                }
                cluster.run(|c| {
                    if c.rank() == 0 {
                        c.send(1, Tag::user(0), vec![1u8; 512]);
                    } else {
                        let v: Vec<u8> = c.recv(0, Tag::user(0));
                        assert_eq!(v.len(), 512);
                    }
                })
            };
            let clean = run(false);
            let faulty = run(true);
            assert_eq!(clean[0].stats.retries, 0);
            assert_eq!(faulty[0].stats.retries, 1);
            assert_eq!(faulty[0].stats.by_tag[&Tag::user(0)].retries, 1);
            // One retransmission: at least one retry timeout of extra time
            // on both the sender and the (waiting) receiver.
            let rto = CostModel::default_cluster().retry_timeout(0);
            assert!(faulty[0].final_clock >= clean[0].final_clock + rto);
            assert!(faulty[1].final_clock >= clean[1].final_clock + rto);
            // Payload accounting is unchanged: one logical message.
            assert_eq!(faulty[0].stats.messages_sent, 1);
            assert_eq!(faulty[0].stats.bytes_sent, 512);
        }

        #[test]
        fn duplicates_are_discarded_in_order() {
            let out = Cluster::new(2, CostModel::free())
                .with_fault_injector(Arc::new(DupAndReorder))
                .run(|c| {
                    if c.rank() == 0 {
                        for i in 0..5u32 {
                            c.send(1, Tag::user(3), i);
                        }
                        vec![]
                    } else {
                        (0..5)
                            .map(|_| c.recv::<u32>(0, Tag::user(3)))
                            .collect::<Vec<_>>()
                    }
                });
            // The payload stream is intact and in order...
            assert_eq!(out[1].result, (0..5).collect::<Vec<_>>());
            // ...and the receiver discarded the racing copies it saw: all 5
            // reordered ghosts arrive ahead of their real copy; trailing
            // duplicates of the final message linger undisturbed.
            assert!(out[1].stats.redeliveries >= 5);
            assert_eq!(out[1].stats.messages_received, 5);
        }

        #[test]
        fn fault_schedule_is_deterministic() {
            let run = || {
                Cluster::new(3, CostModel::default_cluster())
                    .with_fault_injector(Arc::new(DropOnce))
                    .run(|c| {
                        let n = c.size();
                        let me = c.rank();
                        for round in 0..3u32 {
                            c.send((me + 1) % n, Tag::user(round), vec![0u8; 256]);
                            let _: Vec<u8> = c.recv((me + n - 1) % n, Tag::user(round));
                        }
                        c.now()
                    })
                    .iter()
                    .map(|o| (o.result, o.stats.retries, o.stats.redeliveries))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(), run(), "fault schedule must be replayable");
        }
    }
}
