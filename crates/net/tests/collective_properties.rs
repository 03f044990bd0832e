//! Property tests of the collectives: against reference folds, and the
//! virtual-clock invariants every collective must preserve.

use std::sync::Arc;

use mnd_net::fault::{FaultInjector, SendFate};
use mnd_net::{Cluster, CostModel, Group, RankStats, Tag, Wire};
use proptest::prelude::*;

/// Bucket shapes for the all-to-all properties: `lens[me][d]` items from
/// rank `me` to rank `d`, or one of the degenerate shapes the generator
/// forces in — every bucket empty, a single non-empty bucket (`pick`'s
/// source and destination), or a single hot destination that every rank
/// ships to and nowhere else.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Arbitrary,
    AllEmpty,
    SingleBucket,
    HotDestination,
}

fn shaped_buckets(
    me: usize,
    p: usize,
    lens: &[Vec<usize>],
    shape: Shape,
    pick: (usize, usize),
) -> Vec<Vec<u32>> {
    (0..p)
        .map(|d| {
            let len = match shape {
                Shape::Arbitrary => lens[me][d],
                Shape::AllEmpty => 0,
                Shape::SingleBucket if (me, d) == (pick.0 % p, pick.1 % p) => lens[me][d].max(1),
                Shape::SingleBucket => 0,
                Shape::HotDestination if d == pick.1 % p => lens[me][d],
                Shape::HotDestination => 0,
            };
            (0..len as u32)
                .map(|i| (me * 1000 + d * 100) as u32 + i)
                .collect()
        })
        .collect()
}

/// Messages a rank sent on the all-to-all payload tag.
fn payload_messages(stats: &RankStats) -> u64 {
    stats
        .by_tag
        .iter()
        .filter(|(tag, _)| tag.name() == "alltoall")
        .map(|(_, t)| t.messages_sent)
        .sum()
}

/// Drops the first copy of every stream's first and fourth transmissions
/// and duplicates every fifth — deterministic, so the faulted run is
/// reproducible, and seq 0 guarantees at least one fault per stream.
struct DropAndDupe;
impl FaultInjector for DropAndDupe {
    fn fate(&self, _src: usize, _dst: usize, _tag: Tag, seq: u64, _bytes: u64) -> SendFate {
        SendFate {
            retries: u32::from(seq.is_multiple_of(3)),
            duplicates: u32::from(seq % 5 == 4),
            ..SendFate::CLEAN
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-shot and every phased exchange (phase sizes 1–5, with and
    /// without a codec) deliver exactly the transpose of the sent buckets
    /// for p = 1–8 — including all-empty exchanges, a single non-empty
    /// bucket and a single hot destination. Every phase ships exactly
    /// p(p−1) payload messages, empty buckets included, and a fault
    /// injector changes neither what arrives nor the logical count.
    #[test]
    fn every_exchange_schedule_routes_identically(
        p in 1usize..9,
        lens in proptest::collection::vec(proptest::collection::vec(0usize..6, 8..9), 8..9),
        shape_sel in 0usize..4,
        pick in (0usize..8, 0usize..8),
    ) {
        let shape = [Shape::Arbitrary, Shape::AllEmpty, Shape::SingleBucket, Shape::HotDestination]
            [shape_sel];
        let mk = {
            let lens = lens.clone();
            move |me: usize| shaped_buckets(me, p, &lens, shape, pick)
        };
        // result[me][src] must be what `src` addressed to `me`.
        let transpose: Vec<Vec<Vec<u32>>> = (0..p)
            .map(|me| (0..p).map(|src| mk(src)[me].clone()).collect())
            .collect();
        let pairs = (p * (p - 1)) as u64;

        let mk2 = mk.clone();
        let once = Cluster::new(p, CostModel::free())
            .run(move |c| (c.alltoallv(mk2(c.rank())), payload_messages(&c.stats())));
        for (me, o) in once.iter().enumerate() {
            prop_assert_eq!(&o.result.0, &transpose[me]);
        }
        prop_assert_eq!(once.iter().map(|o| o.result.1).sum::<u64>(), pairs);

        let longest = (0..p)
            .flat_map(|me| mk(me).into_iter().map(|b| b.len()))
            .max()
            .unwrap_or(0);
        for phase_size in 1usize..=5 {
            let mk2 = mk.clone();
            let phased = Cluster::new(p, CostModel::free()).run(move |c| {
                let got = c.alltoallv_phased(mk2(c.rank()), phase_size, |b| b, |b| b);
                (got, payload_messages(&c.stats()))
            });
            for (me, o) in phased.iter().enumerate() {
                prop_assert_eq!(&o.result.0, &transpose[me], "phase {}", phase_size);
            }
            let phases = longest.div_ceil(phase_size) as u64;
            prop_assert_eq!(
                phased.iter().map(|o| o.result.1).sum::<u64>(),
                phases * pairs,
                "phase {}", phase_size
            );
            let mk2 = mk.clone();
            let enc = Cluster::new(p, CostModel::free()).run(move |c| {
                c.alltoallv_phased(
                    mk2(c.rank()),
                    phase_size,
                    mnd_wire::PackedIds::encode,
                    mnd_wire::PackedIds::into_ids,
                )
            });
            for (me, o) in enc.iter().enumerate() {
                prop_assert_eq!(&o.result, &transpose[me], "enc phase {}", phase_size);
            }
        }
        // Chaos: drops + duplicates on the fabric must not change what the
        // exchange delivers, only the retry/redelivery counters.
        let mk2 = mk.clone();
        let chaotic = Cluster::new(p, CostModel::default_cluster())
            .with_fault_injector(Arc::new(DropAndDupe))
            .run(move |c| {
                let got = c.alltoallv(mk2(c.rank()));
                let stats = c.stats();
                (got, stats.messages_sent, stats.retries + stats.redeliveries)
            });
        let clean = Cluster::new(p, CostModel::default_cluster()).run(move |c| {
            let got = c.alltoallv(mk(c.rank()));
            (got, c.stats().messages_sent)
        });
        for (cl, ch) in clean.iter().zip(&chaotic) {
            prop_assert_eq!(&cl.result.0, &ch.result.0, "faults changed routing");
            prop_assert_eq!(cl.result.1, ch.result.1, "faults changed the logical message count");
        }
        let faults: u64 = chaotic.iter().map(|o| o.result.2).sum();
        let msgs: u64 = clean.iter().map(|o| o.result.1).sum();
        if msgs >= 1 {
            prop_assert!(faults > 0, "injector never fired over {} messages", msgs);
        }
    }

    #[test]
    fn allreduce_equals_fold(values in proptest::collection::vec(0u64..1000, 1..9)) {
        let p = values.len();
        let vals = values.clone();
        let out = Cluster::new(p, CostModel::free()).run(move |c| {
            c.allreduce_u64(vals[c.rank()], |a, b| a + b)
        });
        let expect: u64 = values.iter().sum();
        for o in &out {
            prop_assert_eq!(o.result, expect);
        }
    }

    #[test]
    fn allreduce_max_and_min_style_ops(values in proptest::collection::vec(0u64..10_000, 1..8)) {
        let p = values.len();
        let vals = values.clone();
        let out = Cluster::new(p, CostModel::free()).run(move |c| {
            (
                c.allreduce_u64(vals[c.rank()], u64::max),
                c.allreduce_u64(vals[c.rank()], u64::min),
            )
        });
        let mx = *values.iter().max().unwrap();
        let mn = *values.iter().min().unwrap();
        for o in &out {
            prop_assert_eq!(o.result, (mx, mn));
        }
    }

    /// Every rank gets each rank's ragged or empty vector, in rank order,
    /// for p = 1–8. With q the largest power of two ≤ p, that takes the
    /// log₂ q swaps' hops on powers of two and at most two more (the fold
    /// and the hand-back) otherwise; no rank sends more than ⌈log₂ p⌉
    /// messages.
    #[test]
    fn allgather_returns_everything_in_order(
        lens in proptest::collection::vec(0usize..6, 1..9),
    ) {
        let p = lens.len();
        let lens2 = lens.clone();
        let out = Cluster::new(p, hops_only()).run(move |c| {
            let mine: Vec<u32> = (0..lens2[c.rank()] as u32).map(|i| c.rank() as u32 * 100 + i).collect();
            (c.allgather_vec(mine), c.now(), sent_on(&c.stats(), "allgather").1)
        });
        for o in &out {
            prop_assert_eq!(o.result.0.len(), p);
            for (src, bucket) in o.result.0.iter().enumerate() {
                let expect: Vec<u32> = (0..lens[src] as u32).map(|i| src as u32 * 100 + i).collect();
                prop_assert_eq!(bucket, &expect);
            }
            prop_assert!(o.result.2 <= ceil_log2(p), "{} messages", o.result.2);
        }
        let swaps = u64::from(p.ilog2());
        let hops = swaps + if p.is_power_of_two() { 0 } else { 2 };
        let makespan = out.iter().map(|o| o.result.1).fold(0.0, f64::max);
        prop_assert!(makespan <= hops as f64, "{} hops", makespan);
        if p.is_power_of_two() {
            prop_assert_eq!(makespan, hops as f64);
        }
    }

    #[test]
    fn clocks_never_go_backwards(
        p in 2usize..6,
        computes in proptest::collection::vec(0u64..100, 2..10),
    ) {
        let computes2 = computes.clone();
        let out = Cluster::new(p, CostModel::default_cluster()).run(move |c| {
            let mut last = c.now();
            let mut monotone = true;
            for (i, &dt) in computes2.iter().enumerate() {
                c.compute(dt as f64 * 1e-6);
                c.barrier();
                if c.rank() == 0 && i.is_multiple_of(2) {
                    c.send(1 % c.size(), Tag::user(9), vec![0u8; dt as usize]);
                } else if c.rank() == 1 % c.size() && i.is_multiple_of(2) {
                    let _: Vec<u8> = c.recv(0, Tag::user(9));
                }
                let now = c.now();
                monotone &= now >= last;
                last = now;
            }
            monotone
        });
        for o in &out {
            prop_assert!(o.result, "virtual clock went backwards");
        }
    }

    #[test]
    fn broadcast_any_root_any_size(p in 1usize..8, root_seed in 0usize..100, payload in 0u64..1000) {
        let root = root_seed % p;
        let out = Cluster::new(p, CostModel::free()).run(move |c| {
            c.broadcast(root, (c.rank() == root).then_some(payload))
        });
        for o in &out {
            prop_assert_eq!(o.result, payload);
        }
    }

    #[test]
    fn stats_bytes_equal_sum_of_wire_bytes(
        scalars in proptest::collection::vec(0u64..1_000_000, 1..6),
        lens in proptest::collection::vec(0usize..40, 1..6),
        pairs in proptest::collection::vec((0u32..1000, 0u64..1000), 0..8),
    ) {
        // Every rank sends a mix of payload shapes to its right neighbour
        // and tallies `Wire::wire_bytes` at each call site; the totals in
        // RankStats (and the per-tag breakdown) must match exactly — no
        // send path may charge anything else.
        let out = Cluster::new(3, CostModel::default_cluster()).run(move |c| {
            let right = (c.rank() + 1) % 3;
            let left = (c.rank() + 2) % 3;
            let mut expected = 0u64;
            let mut send = |_tag: Tag, v: &dyn Wire| expected += v.wire_bytes();
            for &s in &scalars {
                send(Tag::user(0), &s);
                c.send(right, Tag::user(0), s);
            }
            for &n in &lens {
                let v: Vec<u32> = (0..n as u32).collect();
                send(Tag::user(1), &v);
                c.send(right, Tag::user(1), v);
            }
            send(Tag::user(2), &pairs.clone());
            c.send(right, Tag::user(2), pairs.clone());
            let nested: Vec<Vec<u64>> = lens.iter().map(|&n| vec![7u64; n]).collect();
            send(Tag::user(3), &nested);
            c.send(right, Tag::user(3), nested);
            // Drain the matching receives so the run terminates cleanly.
            for _ in &scalars {
                let _: u64 = c.recv(left, Tag::user(0));
            }
            for _ in &lens {
                let _: Vec<u32> = c.recv(left, Tag::user(1));
            }
            let _: Vec<(u32, u64)> = c.recv(left, Tag::user(2));
            let _: Vec<Vec<u64>> = c.recv(left, Tag::user(3));
            (expected, c.stats())
        });
        for o in &out {
            let (expected, stats) = &o.result;
            prop_assert_eq!(stats.bytes_sent, *expected);
            // Symmetric ring: every rank also receives exactly one copy of
            // each shape, so received bytes match the same sum.
            prop_assert_eq!(stats.bytes_received, *expected);
            let tag_sent: u64 = stats.by_tag.values().map(|t| t.bytes_sent).sum();
            let tag_msgs: u64 = stats.by_tag.values().map(|t| t.messages_sent).sum();
            prop_assert_eq!(tag_sent, stats.bytes_sent);
            prop_assert_eq!(tag_msgs, stats.messages_sent);
        }
    }

    #[test]
    fn group_partition_is_a_partition(active_len in 1usize..40, gsize in 1usize..10) {
        let active: Vec<usize> = (0..active_len).map(|i| i * 3).collect();
        let groups = Group::partition(&active, gsize);
        let flat: Vec<usize> = groups.iter().flat_map(|g| g.members().to_vec()).collect();
        prop_assert_eq!(flat, active);
        for g in &groups {
            prop_assert!(g.len() <= gsize);
            // Ring closes: following right_of len times returns home.
            let mut cur = g.leader();
            for _ in 0..g.len() {
                cur = g.right_of(cur);
            }
            prop_assert_eq!(cur, g.leader());
        }
    }
}

/// Entry `i` of rank `me`'s partial vector (`i < 24`, `me < 8`), from a
/// flat table of `(kind, raw)` draws: mostly small counts (a degree
/// vector's shape), some wide values, and `u64::MAX`, whose ten varint
/// bytes force the raw fallback.
fn entry(table: &[(usize, u64)], me: usize, i: usize) -> u64 {
    let (kind, raw) = table[me * 24 + i];
    match kind {
        0 | 1 => raw % 128,
        2 => raw,
        _ => u64::MAX,
    }
}

/// A cost model in which every message costs one second of latency and
/// nothing else, so the makespan counts the sequential hops.
fn hops_only() -> CostModel {
    CostModel {
        latency: 1.0,
        ..CostModel::free()
    }
}

fn ceil_log2(p: usize) -> u64 {
    u64::from(p.next_power_of_two().ilog2())
}

/// Bytes and messages a rank sent under the named collective tag.
fn sent_on(stats: &RankStats, name: &str) -> (u64, u64) {
    stats
        .by_tag
        .iter()
        .filter(|(tag, _)| tag.name() == name)
        .fold((0, 0), |(b, m), (_, t)| {
            (b + t.bytes_sent, m + t.messages_sent)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `allreduce_vec_u64` for p = 1–8: under a wrapping sum and under max
    /// every rank gets the sequential fold of all partials, for lengths 0
    /// to 3p (so also fewer entries than ranks). It takes exactly
    /// 2⌈log₂ p⌉ sequential hops and no rank sends more messages than
    /// that. On raw-sized values at power-of-two p no rank sends more than
    /// 2(p−1)/p · 8n bytes plus O(p) format flags and rounding.
    #[test]
    fn vector_allreduce_matches_sequential_folds(
        p in 1usize..9,
        len_sel in 0usize..25,
        table in proptest::collection::vec((0usize..4, 0u64..(1 << 62)), 192..193),
    ) {
        let n = len_sel % (3 * p + 1);
        let mk = {
            let table = table.clone();
            move |me: usize| (0..n).map(|i| entry(&table, me, i)).collect::<Vec<u64>>()
        };
        let sum: Vec<u64> = (0..n)
            .map(|i| (0..p).fold(0u64, |a, me| a.wrapping_add(entry(&table, me, i))))
            .collect();
        let max: Vec<u64> = (0..n)
            .map(|i| (0..p).map(|me| entry(&table, me, i)).max().unwrap_or(0))
            .collect();
        let out = Cluster::new(p, hops_only()).run(move |c| {
            let s = c.allreduce_vec_u64(mk(c.rank()), u64::wrapping_add);
            let (after_sum, msgs) = (c.now(), sent_on(&c.stats(), "reduce_vec").1);
            let m = c.allreduce_vec_u64(mk(c.rank()), u64::max);
            (s, m, after_sum, msgs)
        });
        let hops = 2 * ceil_log2(p);
        for (me, o) in out.iter().enumerate() {
            prop_assert_eq!(&o.result.0, &sum, "sum, rank {}", me);
            prop_assert_eq!(&o.result.1, &max, "max, rank {}", me);
            prop_assert!(o.result.3 <= hops, "rank {} sent {} messages", me, o.result.3);
        }
        let sum_hops = out.iter().map(|o| o.result.2).fold(0.0, f64::max);
        prop_assert_eq!(sum_hops, hops as f64);

        if p.is_power_of_two() {
            let out = Cluster::new(p, CostModel::free()).run(move |c| {
                c.allreduce_vec_u64(vec![u64::MAX; n], u64::max);
                sent_on(&c.stats(), "reduce_vec").0
            });
            let flags = 2.0 * f64::from(p.ilog2());
            let bound = 16.0 * (p - 1) as f64 * n as f64 / p as f64 + 16.0 + flags;
            for (me, o) in out.iter().enumerate() {
                prop_assert!(o.result as f64 <= bound, "rank {} sent {} > {} bytes", me, o.result, bound);
            }
        }
    }
}

#[test]
fn stats_account_every_byte() {
    // Sum of bytes_sent == sum of bytes_received over any closed exchange.
    let out = Cluster::new(4, CostModel::default_cluster()).run(|c| {
        let buckets: Vec<Vec<u64>> = (0..4).map(|d| vec![d as u64; c.rank() + 1]).collect();
        let _ = c.alltoallv(buckets);
        c.barrier();
        c.stats()
    });
    let sent: u64 = out.iter().map(|o| o.result.bytes_sent).sum();
    let recv: u64 = out.iter().map(|o| o.result.bytes_received).sum();
    assert_eq!(sent, recv);
}

#[test]
fn makespan_dominates_all_clocks() {
    let out = Cluster::new(5, CostModel::default_cluster()).run(|c| {
        c.compute(c.rank() as f64 * 0.01);
        c.barrier();
        c.now()
    });
    let makespan = Cluster::makespan(&out);
    for o in &out {
        assert!(o.final_clock <= makespan + 1e-12);
    }
}
