//! Seeded fault plans.
//!
//! A [`FaultPlan`] is built once, wrapped in an `Arc`, and handed to both
//! fault layers: `Cluster::with_fault_injector(plan.clone())` for the
//! message plane and the phase plane's `ChaosControl` hook — both at once
//! through `EngineChaos::from_plan(plan)`.
//! The plan itself is immutable; all randomness is hash-derived from the
//! seed and the decision's identity (see [`crate::rng`]).

use std::collections::{BTreeMap, BTreeSet};

use mnd_hypar::ChaosControl;
use mnd_net::{FaultInjector, SendFate, Tag};

use crate::rng::{mix, unit};

/// Where in the pipeline a scheduled crash kills a rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashPoint {
    /// At a checkpoint boundary: the classic same-boundary wipe/restore
    /// (no modelled work is lost).
    Boundary(u32),
    /// Inside a phase, just before fabric op `op` of `epoch`: the rank
    /// rolls back to the checkpoint *before* the epoch and replays
    /// (DESIGN.md §5f).
    MidPhase {
        /// Epoch (recovery points passed) in which the crash fires.
        epoch: u32,
        /// Fabric-op ordinal within the epoch.
        op: u64,
    },
}

/// Message-fault probabilities for one traffic class. Rates are per
/// transmission, in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// Probability that a copy of the message is lost (each loss costs the
    /// sender a retransmission; losses repeat geometrically up to
    /// `max_retries`).
    pub drop_rate: f64,
    /// Cap on forced retransmissions per message.
    pub max_retries: u32,
    /// Probability of extra transit skew on the delivered copy.
    pub delay_rate: f64,
    /// Maximum skew (virtual seconds); the actual skew is uniform in
    /// `[0, max_delay)`.
    pub max_delay: f64,
    /// Probability that a stale duplicate arrives after the real copy.
    pub duplicate_rate: f64,
    /// Probability that a stale duplicate races *ahead* of the real copy.
    pub reorder_rate: f64,
}

impl Default for FaultRule {
    /// A clean rule: no faults, retry cap 3.
    fn default() -> Self {
        FaultRule {
            drop_rate: 0.0,
            max_retries: 3,
            delay_rate: 0.0,
            max_delay: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
        }
    }
}

/// A deterministic, seedable fault schedule for one run.
///
/// Message faults are governed by [`FaultRule`]s — the most specific rule
/// wins: a per-tag rule, else a per-source-rank rule, else the default
/// rule. Phase-level faults (stalls, crashes, dead leaders) are explicit
/// schedule entries keyed by `(rank, boundary)` / `(rank, level)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_rule: FaultRule,
    by_tag: BTreeMap<u32, FaultRule>,
    by_src: BTreeMap<usize, FaultRule>,
    stalls: BTreeMap<(usize, u32), f64>,
    crashes: BTreeSet<(usize, u32)>,
    mid_phase_crashes: BTreeMap<(usize, u32), u64>,
    dead_leaders: BTreeSet<(usize, u32)>,
}

impl FaultPlan {
    /// An empty (no-fault) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_rule: FaultRule::default(),
            by_tag: BTreeMap::new(),
            by_src: BTreeMap::new(),
            stalls: BTreeMap::new(),
            crashes: BTreeSet::new(),
            mid_phase_crashes: BTreeMap::new(),
            dead_leaders: BTreeSet::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the default message-fault rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.default_rule = rule;
        self
    }

    /// Sets the default drop rate.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.default_rule.drop_rate = rate;
        self
    }

    /// Sets the default delay rate and maximum skew.
    pub fn with_delay(mut self, rate: f64, max_delay: f64) -> Self {
        self.default_rule.delay_rate = rate;
        self.default_rule.max_delay = max_delay;
        self
    }

    /// Sets the default duplicate rate.
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        self.default_rule.duplicate_rate = rate;
        self
    }

    /// Sets the default reorder rate.
    pub fn with_reorder(mut self, rate: f64) -> Self {
        self.default_rule.reorder_rate = rate;
        self
    }

    /// Overrides the rule for one tag (beats the per-source rule).
    pub fn with_rule_for_tag(mut self, tag: Tag, rule: FaultRule) -> Self {
        self.by_tag.insert(tag.id(), rule);
        self
    }

    /// Overrides the rule for messages *sent by* `src`.
    pub fn with_rule_for_src(mut self, src: usize, rule: FaultRule) -> Self {
        self.by_src.insert(src, rule);
        self
    }

    /// Schedules a stall of `seconds` on `rank` at checkpoint boundary
    /// `boundary`.
    pub fn with_stall(mut self, rank: usize, boundary: u32, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "stall must be non-negative");
        self.stalls.insert((rank, boundary), seconds);
        self
    }

    /// Schedules a crash (with checkpoint restart) on `rank` at checkpoint
    /// boundary `boundary`.
    pub fn with_crash(mut self, rank: usize, boundary: u32) -> Self {
        self.crashes.insert((rank, boundary));
        self
    }

    /// Schedules a crash on `rank` *inside* a phase: the rank dies just
    /// before issuing fabric op `op` of `epoch` (epoch = recovery points
    /// passed; epoch 0 is Partition). It restores the checkpoint written
    /// before the epoch, replays logged traffic, and re-executes.
    pub fn with_mid_phase_crash(mut self, rank: usize, epoch: u32, op: u64) -> Self {
        self.mid_phase_crashes.insert((rank, epoch), op);
        self
    }

    /// Schedules a crash at an arbitrary [`CrashPoint`].
    pub fn with_crash_point(self, rank: usize, point: CrashPoint) -> Self {
        match point {
            CrashPoint::Boundary(b) => self.with_crash(rank, b),
            CrashPoint::MidPhase { epoch, op } => self.with_mid_phase_crash(rank, epoch, op),
        }
    }

    /// Marks `rank` as down for leader duty at merge level `level`, forcing
    /// its group to elect another leader.
    pub fn with_dead_leader(mut self, rank: usize, level: u32) -> Self {
        self.dead_leaders.insert((rank, level));
        self
    }

    /// The rule governing a transmission: tag override, else source-rank
    /// override, else the default.
    fn rule_for(&self, src: usize, tag: Tag) -> &FaultRule {
        self.by_tag
            .get(&tag.id())
            .or_else(|| self.by_src.get(&src))
            .unwrap_or(&self.default_rule)
    }

    /// Hash stream for one transmission; `salt` separates the independent
    /// decisions drawn from it.
    fn draw(&self, src: usize, dst: usize, tag: Tag, seq: u64, salt: u64) -> f64 {
        let mut h = mix(self.seed);
        h = mix(h ^ src as u64);
        h = mix(h ^ dst as u64);
        h = mix(h ^ tag.id() as u64);
        h = mix(h ^ seq);
        unit(mix(h ^ salt))
    }
}

impl FaultInjector for FaultPlan {
    fn fate(&self, src: usize, dst: usize, tag: Tag, seq: u64, _bytes: u64) -> SendFate {
        let rule = self.rule_for(src, tag);
        // Geometric losses: each copy is dropped independently until one
        // survives or the retry cap is hit.
        let mut retries = 0u32;
        while retries < rule.max_retries
            && self.draw(src, dst, tag, seq, 0x10 + retries as u64) < rule.drop_rate
        {
            retries += 1;
        }
        let delay = if rule.max_delay > 0.0 && self.draw(src, dst, tag, seq, 0x20) < rule.delay_rate
        {
            self.draw(src, dst, tag, seq, 0x21) * rule.max_delay
        } else {
            0.0
        };
        let duplicates = u32::from(self.draw(src, dst, tag, seq, 0x30) < rule.duplicate_rate);
        let reorder = self.draw(src, dst, tag, seq, 0x40) < rule.reorder_rate;
        SendFate {
            retries,
            delay,
            duplicates,
            reorder,
        }
    }
}

impl ChaosControl for FaultPlan {
    fn stall_seconds(&self, rank: usize, boundary: u32) -> f64 {
        self.stalls.get(&(rank, boundary)).copied().unwrap_or(0.0)
    }

    fn crashes_at(&self, rank: usize, boundary: u32) -> bool {
        self.crashes.contains(&(rank, boundary))
    }

    fn leader_down(&self, rank: usize, level: u32) -> bool {
        self.dead_leaders.contains(&(rank, level))
    }

    fn mid_phase_crash(&self, rank: usize, epoch: u32) -> Option<u64> {
        self.mid_phase_crashes.get(&(rank, epoch)).copied()
    }

    /// The schedule is an explicit table, so the horizon is exact: one
    /// past the last epoch with a scheduled mid-phase crash on `rank`
    /// (`Some(0)` when the plan never crashes `rank` mid-phase).
    fn replay_horizon(&self, rank: usize) -> Option<u32> {
        Some(
            self.mid_phase_crashes
                .keys()
                .filter(|&&(r, _)| r == rank)
                .map(|&(_, epoch)| epoch + 1)
                .max()
                .unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(99)
            .with_drop_rate(0.3)
            .with_delay(0.5, 1e-3)
            .with_duplicates(0.2)
            .with_reorder(0.1);
        let b = a.clone();
        for seq in 0..200 {
            assert_eq!(
                a.fate(0, 1, Tag::user(2), seq, 64),
                b.fate(0, 1, Tag::user(2), seq, 64)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with_drop_rate(0.5);
        let b = FaultPlan::new(2).with_drop_rate(0.5);
        let fates_a: Vec<_> = (0..64).map(|s| a.fate(0, 1, Tag::user(0), s, 8)).collect();
        let fates_b: Vec<_> = (0..64).map(|s| b.fate(0, 1, Tag::user(0), s, 8)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(7).with_drop_rate(0.25);
        let n = 4000;
        let dropped = (0..n)
            .filter(|&s| plan.fate(0, 1, Tag::user(0), s, 8).retries > 0)
            .count();
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.05, "drop fraction {frac}");
    }

    #[test]
    fn retries_respect_the_cap() {
        let plan = FaultPlan::new(3).with_rule(FaultRule {
            drop_rate: 1.0,
            max_retries: 2,
            ..Default::default()
        });
        for seq in 0..32 {
            assert_eq!(plan.fate(0, 1, Tag::user(0), seq, 8).retries, 2);
        }
    }

    #[test]
    fn rule_precedence_tag_then_src_then_default() {
        let noisy = FaultRule {
            drop_rate: 1.0,
            max_retries: 1,
            ..Default::default()
        };
        let plan = FaultPlan::new(5)
            .with_rule_for_tag(Tag::user(9), noisy)
            .with_rule_for_src(2, noisy);
        // Tag rule fires regardless of source.
        assert_eq!(plan.fate(0, 1, Tag::user(9), 0, 8).retries, 1);
        // Source rule fires for other tags from rank 2.
        assert_eq!(plan.fate(2, 1, Tag::user(0), 0, 8).retries, 1);
        // Everything else is clean.
        assert!(plan.fate(0, 1, Tag::user(0), 0, 8).is_clean());
    }

    #[test]
    fn phase_schedule_lookups() {
        let plan = FaultPlan::new(0)
            .with_stall(2, 1, 0.75)
            .with_crash(3, 4)
            .with_mid_phase_crash(1, 2, 17)
            .with_dead_leader(0, 1);
        assert_eq!(plan.stall_seconds(2, 1), 0.75);
        assert_eq!(plan.stall_seconds(2, 2), 0.0);
        assert!(plan.crashes_at(3, 4));
        assert!(!plan.crashes_at(3, 5));
        assert_eq!(plan.mid_phase_crash(1, 2), Some(17));
        assert_eq!(plan.mid_phase_crash(1, 3), None);
        assert_eq!(plan.mid_phase_crash(0, 2), None);
        assert!(plan.leader_down(0, 1));
        assert!(!plan.leader_down(1, 1));
    }

    #[test]
    fn replay_horizon_covers_the_crash_schedule() {
        let plan = FaultPlan::new(0)
            .with_mid_phase_crash(1, 2, 17)
            .with_mid_phase_crash(1, 5, 3)
            .with_mid_phase_crash(2, 0, 9);
        // One past the last scheduled crash epoch, per rank.
        assert_eq!(plan.replay_horizon(1), Some(6));
        assert_eq!(plan.replay_horizon(2), Some(1));
        // No mid-phase crashes scheduled: the log is never needed.
        assert_eq!(plan.replay_horizon(0), Some(0));
        assert_eq!(FaultPlan::new(1).replay_horizon(3), Some(0));
    }

    #[test]
    fn crash_points_route_to_both_planes() {
        let plan = FaultPlan::new(0)
            .with_crash_point(2, CrashPoint::Boundary(1))
            .with_crash_point(3, CrashPoint::MidPhase { epoch: 1, op: 5 });
        assert!(plan.crashes_at(2, 1));
        assert_eq!(plan.mid_phase_crash(3, 1), Some(5));
    }

    #[test]
    fn delay_is_bounded_by_max() {
        let plan = FaultPlan::new(11).with_delay(1.0, 2e-3);
        for seq in 0..256 {
            let f = plan.fate(1, 0, Tag::user(4), seq, 8);
            assert!(f.delay >= 0.0 && f.delay < 2e-3);
        }
    }
}
