//! The hierarchical-merging phase (§3.4): ring segment exchanges inside
//! groups, collaborative merging, and the collapse of each group onto its
//! leader, level by level until one rank holds everything.

use mnd_hypar::chaos::ChaosEventKind;
use mnd_hypar::observe::PhaseKind;
use mnd_hypar::runtime::ExchangeMonitor;
use mnd_kernels::cgraph::CompId;
use mnd_net::{Comm, Group, Tag};

use crate::phases::{IndComp, Phase, RankCtx, RankRecovery};
use crate::segment::{choose_segment, SegmentMsg};

/// Ring-segment messages.
const TAG_SEG: Tag = Tag::user(1);
/// Whole-holding transfers to the group leader.
const TAG_MERGE: Tag = Tag::user(2);

/// Executes the merge hierarchy. Owns an [`IndComp`] stage for the
/// collaborative-merging computation steps between exchanges.
#[derive(Debug, Default)]
pub struct HierMerge {
    comp: IndComp,
}

impl HierMerge {
    /// A fresh hierarchy runner.
    pub fn new() -> Self {
        HierMerge::default()
    }

    /// One ring shift within the exchanging groups; returns the ownership
    /// announcements and whether this rank absorbed a non-empty segment.
    fn ring_shift(
        cx: &mut RankCtx<'_>,
        comm: &Comm,
        my_group: &Option<Group>,
        groups: &[Group],
        flags: &[bool],
    ) -> (Vec<(CompId, u32)>, bool) {
        let me = comm.rank();
        let mut my_moves: Vec<(CompId, u32)> = Vec::new();
        let mut received_any = false;
        if let Some(g) = my_group {
            let gi = groups.iter().position(|x| x == g).expect("own group");
            if flags[gi] {
                cx.exchange_rounds += 1;
                let left = g.left_of(me);
                let right = g.right_of(me);
                let cap = cx.runner.segment_cap_bytes();
                let take = cx.step(PhaseKind::HierMerge, "choose_segment", |cx| {
                    choose_segment(&mut cx.cg, cap)
                });
                let seg = cx.step(PhaseKind::HierMerge, "split_off", |cx| {
                    cx.cg.split_off(&take)
                });
                let msg = SegmentMsg::from_holding(seg);
                my_moves = take.iter().map(|&c| (c, left as u32)).collect();
                let incoming: SegmentMsg = cx.step(PhaseKind::HierMerge, "ring_send_recv", |_| {
                    comm.send_recv(left, TAG_SEG, msg, right, TAG_SEG)
                });
                if !incoming.is_empty() {
                    received_any = true;
                    cx.step(PhaseKind::HierMerge, "ring_absorb", |cx| {
                        cx.cg.absorb(incoming.into_holding())
                    });
                }
            }
        }
        (my_moves, received_any)
    }
}

impl Phase for HierMerge {
    fn kind(&self) -> PhaseKind {
        PhaseKind::HierMerge
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, rec: &mut RankRecovery<'_>) {
        let comm = cx.comm;
        let me = comm.rank();
        let p = comm.size();
        let mut active: Vec<usize> = (0..p).collect();
        while active.len() > 1 {
            cx.levels += 1;
            // group_size 1 would make every rank its own leader and the
            // hierarchy would never shrink; 2 is the smallest group that
            // makes progress (the paper studies 2/4/8/16).
            let groups = Group::partition(&active, cx.cfg().group_size.max(2));
            let my_group = Group::find(&groups, me).cloned();
            let mut monitors: Vec<ExchangeMonitor> =
                groups.iter().map(|_| ExchangeMonitor::new()).collect();

            // --- Ring-exchange rounds (all ranks in lockstep). ---
            loop {
                // Replicated group sizes: one slot per group; every rank
                // evaluates every group's §4.3.4 decision from the same
                // data -> identical flags everywhere.
                let flags: Vec<bool> = cx.observed(PhaseKind::HierMerge, |cx| {
                    let mut sizes = vec![0u64; groups.len()];
                    if let Some(g) = &my_group {
                        let gi = groups.iter().position(|x| x == g).expect("own group");
                        sizes[gi] = cx.cg.num_edges() as u64;
                    }
                    let totals = comm.allreduce_vec_u64(sizes, |a, b| a + b);
                    groups
                        .iter()
                        .zip(monitors.iter_mut())
                        .zip(totals.iter())
                        .map(|((g, mon), &total)| {
                            !g.is_singleton() && mon.observe_and_continue(cx.cfg(), total)
                        })
                        .collect()
                });
                if !flags.iter().any(|&f| f) {
                    break;
                }

                // Ring shift + global ownership announcements (includes
                // empties, keeping the collective in lockstep).
                cx.observed(PhaseKind::HierMerge, |cx| {
                    let (my_moves, received_any) =
                        Self::ring_shift(cx, comm, &my_group, &groups, &flags);
                    let all_moves = comm.allgather_vec(my_moves);
                    for moves in &all_moves {
                        cx.dir.apply_moves(moves);
                    }
                    if received_any {
                        // New residents can unfreeze old borders.
                        cx.cg.clear_frozen();
                    }
                });
                cx.note_holding();

                // Collaborative merging: indComp + ghost + reduce.
                self.comp.run(cx, rec);
            }

            // --- Leader (re-)election. Default leaders are the first
            // group members; with a chaos schedule armed, liveness bits
            // are allreduced (modelling the failure-detector round) and
            // each group elects its first *healthy* member. Every rank
            // evaluates every group from the same replicated data, so the
            // election needs no extra coordination. ---
            let leaders: Vec<usize> = if cx.cfg().chaos.is_set() {
                cx.observed(PhaseKind::HierMerge, |cx| {
                    let chaos = &cx.cfg().chaos;
                    let level = cx.levels as u32;
                    let mut down = vec![0u64; p];
                    if chaos.leader_down(me, level) {
                        down[me] = 1;
                    }
                    let down = comm.allreduce_vec_u64(down, |a, b| a + b);
                    groups
                        .iter()
                        .map(|g| {
                            g.members()
                                .iter()
                                .copied()
                                .find(|&m| down[m] == 0)
                                .unwrap_or_else(|| g.leader())
                        })
                        .collect()
                })
            } else {
                groups.iter().map(|g| g.leader()).collect()
            };
            if let Some(g) = &my_group {
                let gi = groups.iter().position(|x| x == g).expect("own group");
                if leaders[gi] != g.leader() && me == leaders[gi] {
                    cx.emit_chaos(ChaosEventKind::LeaderFailover, 0, leaders[gi] as u64);
                }
            }

            // --- Merge each group to its leader. ---
            let merging = groups.iter().filter(|g| !g.is_singleton()).count();
            cx.observed(PhaseKind::HierMerge, |cx| {
                let mut my_moves: Vec<(CompId, u32)> = Vec::new();
                if let Some(g) = &my_group {
                    let gi = groups.iter().position(|x| x == g).expect("own group");
                    let leader = leaders[gi];
                    if me == leader {
                        // Every member's holding, in member order, into
                        // one merge — on the threads of the members, who
                        // wait for the leader from here on.
                        cx.alone(merging, |cx| {
                            let parts = cx.step(PhaseKind::HierMerge, "leader_recv", |_| {
                                let members = g.members().iter().filter(|&&member| member != me);
                                members
                                    .map(|&member| {
                                        let msg: SegmentMsg = comm.recv(member, TAG_MERGE);
                                        msg.into_holding()
                                    })
                                    .collect::<Vec<_>>()
                            });
                            cx.step(PhaseKind::HierMerge, "absorb_all", |cx| {
                                cx.cg.absorb_all(parts)
                            });
                        });
                        cx.cg.clear_frozen();
                    } else {
                        let whole = std::mem::take(&mut cx.cg);
                        my_moves = whole
                            .resident()
                            .iter()
                            .map(|&c| (c, leader as u32))
                            .collect();
                        comm.send(leader, TAG_MERGE, SegmentMsg::from_holding(whole));
                    }
                }
                let all_moves = comm.allgather_vec(my_moves);
                for moves in &all_moves {
                    cx.dir.apply_moves(moves);
                }
            });
            cx.note_holding();

            active = leaders;

            // Leaders run independent computations on the merged data
            // before the next level ("We again perform independent
            // computation steps on the leader nodes").
            if active.len() > 1 {
                self.comp.run(cx, rec);
            }
        }
        // Where the fully merged data ended up — rank 0 unless a failover
        // re-routed a merge. Replicated computation: identical everywhere.
        cx.final_rank = active[0];
    }
}
