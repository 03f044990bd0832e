//! The hierarchical-merging phase (§3.4): ring segment exchanges inside
//! groups, collaborative merging, and the collapse of each group onto its
//! leader, level by level until one rank holds everything.

use mnd_hypar::chaos::ChaosEventKind;
use mnd_hypar::observe::PhaseKind;
use mnd_hypar::runtime::ExchangeMonitor;
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_net::{Comm, Group, Tag};

use crate::ghost::GhostDirectory;
use crate::phases::{IndComp, Phase, RankCtx, RankRecovery};
use crate::segment::{choose_segment, SegmentMsg};

/// Ring-segment messages.
const TAG_SEG: Tag = Tag::user(1);
/// Members' shares of a group merge, to the leader.
const TAG_MERGE: Tag = Tag::user(2);

/// What non-leader member `me` of `group` sends its leader at a group
/// merge, so that every row of the group's holdings reaches the leader
/// exactly once: every resident and frozen mark, every row with both ends
/// resident, and every cut row whose ghost end the directory places
///
/// * outside the group — the leader gets it from no one else;
/// * at another non-leader member — which holds the same row, so only the
///   side [`ships_shared`] picks sends it;
///
/// but no cut row whose ghost end the leader owns: the leader holds it.
/// The two copies of a cut row are identical (mergeParts renames both
/// ends on both sides, and reductions keep the same survivor), so the
/// leader's merged holding is the one whole holdings would give.
fn merge_share(
    cg: &CGraph,
    dir: &GhostDirectory,
    group: &Group,
    leader: usize,
    me: usize,
) -> SegmentMsg {
    let ships = |row: usize| {
        let e = cg.edge(row);
        let ghost = if cg.is_resident(e.a) { e.b } else { e.a };
        let owner = dir.owner(ghost) as usize;
        debug_assert!(owner != me, "cut row {e:?} has its ghost end here");
        owner != leader && (group.position(owner).is_none() || ships_shared(me, owner))
    };
    let mut edges = Vec::with_capacity(cg.num_edges());
    let mut from = 0;
    for &row in cg.cut_rows() {
        let row = row as usize;
        edges.extend((from..row).map(|i| cg.edge(i)));
        if ships(row) {
            edges.push(cg.edge(row));
        }
        from = row + 1;
    }
    edges.extend((from..cg.num_edges()).map(|i| cg.edge(i)));
    SegmentMsg::new(cg.resident().to_vec(), edges, cg.frozen().to_vec())
}

/// Whether member `me` ships the cut rows it shares with member `other`
/// (neither the leader): the lower rank does iff the two sum to an even
/// number. Both sides decide alike without communicating, and among three
/// members each ships the rows of exactly one pair.
fn ships_shared(me: usize, other: usize) -> bool {
    let lower_ships = (me + other).is_multiple_of(2);
    (me < other) == lower_ships
}

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
            let leaders: Vec<usize> = if cx.chaos.is_set() {
                cx.observed(PhaseKind::HierMerge, |cx| {
                    let chaos = cx.chaos;
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

            // --- Merge each group to its leader: each row of the group
            // reaches it once (see `merge_share`), and every rank derives
            // the ownership change from the groups and the election. ---
            let merging = groups.iter().filter(|g| !g.is_singleton()).count();
            cx.observed(PhaseKind::HierMerge, |cx| {
                if let Some(g) = &my_group {
                    let gi = groups.iter().position(|x| x == g).expect("own group");
                    let leader = leaders[gi];
                    if me == leader {
                        // Every member's share, in member order, into one
                        // merge — on the threads of the members, who wait
                        // for the leader from here on.
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
                                let given = cx.cg.num_edges()
                                    + parts.iter().map(CGraph::num_edges).sum::<usize>();
                                cx.cg.absorb_all(parts);
                                debug_assert_eq!(
                                    cx.cg.num_edges(),
                                    given,
                                    "a row reached the leader twice"
                                );
                            });
                        });
                        cx.cg.clear_frozen();
                    } else {
                        let share = cx.step(PhaseKind::HierMerge, "merge_share", |cx| {
                            merge_share(&std::mem::take(&mut cx.cg), &cx.dir, g, leader, me)
                        });
                        comm.send(leader, TAG_MERGE, share);
                    }
                }
                cx.dir.merge_groups(&groups, &leaders);
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

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    use mnd_graph::gen;
    use mnd_graph::partition::VertexRange;
    use mnd_graph::presets::{scramble_ids, Preset};
    use mnd_graph::EdgeList;
    use mnd_hypar::observe::{PhaseObserver, PhaseSample, StepSample};
    use mnd_hypar::HyParConfig;
    use mnd_kernels::cgraph::CEdge;
    use mnd_kernels::oracle::kruskal_msf;

    use super::*;
    use crate::runner::MndMstRunner;

    #[test]
    fn three_members_ship_one_shared_pair_each() {
        let pairs = [(1, 2), (1, 3), (2, 3)];
        for me in 1..=3 {
            let mine = pairs.iter().filter(|&&(x, y)| {
                (x == me && ships_shared(x, y)) || (y == me && ships_shared(y, x))
            });
            assert_eq!(mine.count(), 1, "member {me}");
        }
        for (x, y) in pairs {
            assert_ne!(
                ships_shared(x, y),
                ships_shared(y, x),
                "exactly one side of {x}~{y}"
            );
        }
    }

    fn family(kind: u32, seed: u64) -> EdgeList {
        match kind {
            0 => gen::web_crawl(600, 3000, gen::CrawlParams::default(), seed),
            1 => scramble_ids(
                &gen::web_crawl(600, 3000, gen::CrawlParams::default(), seed),
                seed,
            ),
            2 => gen::gnm(500, 2500, seed),
            _ => gen::road_grid(24, 20, 0.1, 0.05, seed),
        }
    }

    /// Every row of `holding` (original edges only).
    fn origs(holding: &CGraph) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        holding.iter_edges().map(|e: CEdge| e.key())
    }

    /// Replays a merge hierarchy on real holdings without the kernels:
    /// level-0 holdings of an even 1D cut, `ring_rounds` announced ring
    /// shifts inside every group before each merge, then every group's
    /// merge through `merge_share` to its leader (the last member when
    /// `failover`, as an election would pick after the first went down).
    /// At each merge, every original edge the group holds reaches the
    /// leader exactly once, and the leader's holding is the one the whole
    /// holdings would give; at the end one rank holds every edge.
    fn replay(el: &EdgeList, p: usize, group_size: usize, ring_rounds: usize, failover: bool) {
        let n = el.num_vertices();
        let ranges: Vec<VertexRange> = (0..p as u32)
            .map(|i| VertexRange {
                start: n * i / p as u32,
                end: n * (i + 1) / p as u32,
            })
            .collect();
        let mut holdings = CGraph::level0(el, &ranges, 0..p);
        let mut dir = GhostDirectory::from_ranges(ranges);
        let mut active: Vec<usize> = (0..p).collect();
        while active.len() > 1 {
            let groups = Group::partition(&active, group_size);
            for _ in 0..ring_rounds {
                let mut moves = Vec::new();
                let mut inbound = Vec::new();
                for g in groups.iter().filter(|g| !g.is_singleton()) {
                    for &m in g.members() {
                        let take = choose_segment(&mut holdings[m], u64::MAX);
                        let left = g.left_of(m);
                        moves.extend(take.iter().map(|&c| (c, left as u32)));
                        let seg = SegmentMsg::from_holding(holdings[m].split_off(&take));
                        inbound.push((left, seg));
                    }
                }
                for (to, seg) in inbound {
                    holdings[to].absorb(seg.into_holding());
                }
                dir.apply_moves(&moves);
            }
            let leaders: Vec<usize> = groups
                .iter()
                .map(|g| {
                    if failover {
                        g.members()[g.len() - 1]
                    } else {
                        g.leader()
                    }
                })
                .collect();
            for (g, &leader) in groups.iter().zip(&leaders) {
                let mut reached: HashMap<(u32, u32, u32), usize> = HashMap::new();
                for key in origs(&holdings[leader]) {
                    *reached.entry(key).or_default() += 1;
                }
                let mut held = reached.clone();
                let mut shares = Vec::new();
                for &m in g.members().iter().filter(|&&m| m != leader) {
                    let share = merge_share(&holdings[m], &dir, g, leader, m).into_holding();
                    for key in origs(&holdings[m]) {
                        held.entry(key).or_default();
                        reached.entry(key).or_default();
                    }
                    for key in origs(&share) {
                        *reached.entry(key).or_default() += 1;
                    }
                    shares.push(share);
                }
                assert_eq!(reached.len(), held.len(), "a shipped row no member held");
                for (key, times) in &reached {
                    assert_eq!(*times, 1, "{key:?} reached the leader {times} times");
                }
                let mut today = holdings[leader].clone();
                today.absorb_all(
                    g.members()
                        .iter()
                        .filter(|&&m| m != leader)
                        .map(|&m| std::mem::take(&mut holdings[m])),
                );
                let given = holdings[leader].num_edges()
                    + shares.iter().map(CGraph::num_edges).sum::<usize>();
                holdings[leader].absorb_all(shares);
                assert_eq!(holdings[leader].num_edges(), given, "a copy crossed");
                assert_eq!(holdings[leader], today, "the merged holding moved");
            }
            dir.merge_groups(&groups, &leaders);
            active = leaders;
        }
        let last = &holdings[active[0]];
        last.validate().unwrap();
        let mut want: Vec<_> = el
            .edges()
            .iter()
            .filter(|e| e.u != e.v)
            .map(|e| e.key())
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut got: Vec<_> = origs(last).collect();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    proptest::proptest! {
        /// Crawl (plain and id-scrambled), gnm and road graphs on 2–8
        /// ranks, groups of 2, 4 and 8, with and without ring rounds and
        /// with the first or the last member leading.
        #[test]
        fn every_row_reaches_the_leader_once(
            kind in 0u32..4,
            p in 2usize..9,
            group in 0u32..3,
            ring_rounds in 0usize..3,
            failover in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            replay(&family(kind, seed), p, 2 << group, ring_rounds, failover);
        }
    }

    /// Step samples of `merge_share`: each member's holding rows at its
    /// merges, per rank.
    #[derive(Default)]
    struct MergeShares(Mutex<HashMap<u32, u64>>);

    impl PhaseObserver for MergeShares {
        fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
        fn on_step(&self, step: &StepSample) {
            if step.name == "merge_share" {
                *self.0.lock().unwrap().entry(step.rank).or_default() += step.rows_in;
            }
        }
    }

    /// On a scrambled crawl at 4 ranks (one group of 4: three members),
    /// a member's merge messages cost at most a quarter of its holding's
    /// raw 20-byte rows (they cost 14 %). Whole holdings would not pass,
    /// raw or packed: packed, they cost 38 % of raw here.
    #[test]
    fn members_ship_at_most_a_quarter_of_their_holdings_raw_bytes() {
        let el = Preset::Gsh2015Tpd.generate(8192, 3);
        let shares = Arc::new(MergeShares::default());
        let cfg = HyParConfig::default().with_observer(shares.clone());
        let report = MndMstRunner::new(4).with_config(cfg).run(&el);
        assert_eq!(report.msf, kruskal_msf(&el));
        let rows = shares.0.lock().unwrap().clone();
        assert_eq!(rows.len(), 3, "three members: {rows:?}");
        for (rank, rows) in rows {
            let sent = report.rank_stats[rank as usize].by_tag[&TAG_MERGE].bytes_sent;
            let raw = rows * std::mem::size_of::<CEdge>() as u64;
            assert!(rows > 1000, "rank {rank} held {rows} rows");
            assert!(
                4 * sent <= raw,
                "rank {rank}: {sent} B shipped of {raw} B raw"
            );
        }
    }
}
