//! Collective operations, built from point-to-point messages so their
//! simulated cost (binomial-tree latency, bandwidth terms) emerges from the
//! same LogGP model as everything else.
//!
//! All collectives must be called by **every** rank of the cluster, in the
//! same order — the usual MPI contract. Tags are taken from the reserved
//! collective space and matching is FIFO per `(source, tag)`, so back-to-
//! back collectives of the same kind cannot cross-talk.

use mnd_wire::{PackedCounts, Wire};

use crate::comm::{Comm, Tag};

const TAG_BARRIER: Tag = tag(0);
const TAG_REDUCE: Tag = tag(1);
const TAG_BCAST: Tag = tag(2);
const TAG_GATHER: Tag = tag(3);
const TAG_ALLTOALL: Tag = tag(4);
const TAG_REDUCE_VEC: Tag = tag(5);
const TAG_PHASED: Tag = tag(6);
const TAG_ALLGATHER: Tag = tag(7);

/// The largest power of two `q ≤ p`: the ranks a vector collective runs
/// its butterfly on, after ranks `q..p` folded into ranks `0..p − q`.
fn fold_width(p: usize) -> usize {
    1 << p.ilog2()
}

/// Builds a tag in the reserved collective space (upper half of the tag
/// range, which [`Tag::user`] rejects).
const fn tag(id: u32) -> Tag {
    Tag(0x8000_0000 | id)
}

impl Comm {
    /// Synchronises all ranks: no rank leaves before every rank entered.
    /// Binomial reduce + broadcast of zero-byte tokens.
    pub fn barrier(&self) {
        self.reduce_u64_with_tag(0, |a, _| a, 0, TAG_BARRIER);
        self.broadcast_from(
            0,
            if self.rank() == 0 { Some(0u8) } else { None },
            TAG_BARRIER,
        );
    }

    /// Reduces `value` with `op` onto rank `root`; returns `Some(total)` on
    /// the root, `None` elsewhere.
    pub fn reduce_u64(&self, value: u64, op: impl Fn(u64, u64) -> u64, root: usize) -> Option<u64> {
        let v = self.reduce_u64_with_tag(value, op, root, TAG_REDUCE);
        (self.rank() == root).then_some(v)
    }

    /// Allreduce: every rank gets the reduction of all values.
    pub fn allreduce_u64(&self, value: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        let v = self.reduce_u64_with_tag(value, op, 0, TAG_REDUCE);
        self.broadcast_from(0, (self.rank() == 0).then_some(v), TAG_BCAST)
    }

    /// Element-wise vector allreduce (e.g. the Gemini-style global degree
    /// computation of §3.1). All ranks must pass equal-length vectors, and
    /// `op` must be commutative and associative (sums, maxima): the
    /// partials are combined in no fixed order.
    ///
    /// Rabenseifner's algorithm over the largest power of two `q ≤ p`: a
    /// rank `r ≥ q` first folds its vector into rank `r − q`; the `q`
    /// ranks then run a recursive-halving reduce-scatter, after which rank
    /// `i` holds block `[i·n/q, (i+1)·n/q)` fully reduced, and a
    /// recursive-doubling allgather of those blocks; rank `r − q` finally
    /// hands the result back. That is 2⌈log₂ p⌉ sequential hops: as many
    /// as a binomial reduce plus broadcast (2⌊log₂ p⌋) when p is a power
    /// of two, two more (the fold and the hand-back) otherwise. But a rank
    /// below `q` sends 2(q−1)/q · n entries where the tree ships whole
    /// vectors at every hop. Every partial ships as a [`PackedCounts`].
    pub fn allreduce_vec_u64(&self, mut value: Vec<u64>, op: impl Fn(u64, u64) -> u64) -> Vec<u64> {
        let me = self.rank();
        let q = fold_width(self.size());
        let recv = |src: usize| -> Vec<u64> {
            self.recv::<PackedCounts>(src, TAG_REDUCE_VEC).into_counts()
        };
        let combine = |mine: &mut [u64], theirs: Vec<u64>| {
            assert_eq!(mine.len(), theirs.len(), "allreduce_vec length mismatch");
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = op(*a, b);
            }
        };
        if me >= q {
            self.send(me - q, TAG_REDUCE_VEC, PackedCounts::encode(value));
            return recv(me - q);
        }
        let folded = me + q < self.size();
        if folded {
            combine(&mut value, recv(me + q));
        }
        let n = value.len();
        // The entries of the `d` blocks that rank `r` holds at step `d`:
        // the aligned run of blocks containing block `r`.
        let span = |r: usize, d: usize| {
            let lo = r & !(d - 1);
            lo * n / q..(lo + d) * n / q
        };
        let steps = q.ilog2();
        for d in (0..steps).rev().map(|k| 1 << k) {
            let out = PackedCounts::encode(value[span(me ^ d, d)].to_vec());
            self.send(me ^ d, TAG_REDUCE_VEC, out);
            combine(&mut value[span(me, d)], recv(me ^ d));
        }
        for d in (0..steps).map(|k| 1 << k) {
            let out = PackedCounts::encode(value[span(me, d)].to_vec());
            self.send(me ^ d, TAG_REDUCE_VEC, out);
            value[span(me ^ d, d)].copy_from_slice(&recv(me ^ d));
        }
        if folded {
            self.send(me + q, TAG_REDUCE_VEC, PackedCounts::encode(value.clone()));
        }
        value
    }

    fn reduce_u64_with_tag(
        &self,
        value: u64,
        op: impl Fn(u64, u64) -> u64,
        root: usize,
        tag: Tag,
    ) -> u64 {
        let p = self.size();
        let rel = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut k = 1usize;
        while k < p {
            if rel & k != 0 {
                let dst = (rel - k + root) % p;
                self.send(dst, tag, acc);
                return acc; // non-root contribution delivered
            } else if rel + k < p {
                let src = (rel + k + root) % p;
                let other: u64 = self.recv(src, tag);
                acc = op(acc, other);
            }
            k <<= 1;
        }
        acc
    }

    /// Broadcasts from `root`: the root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value. Binomial tree.
    pub fn broadcast<T: Wire + Clone>(&self, root: usize, value: Option<T>) -> T {
        self.broadcast_from(root, value, TAG_BCAST)
    }

    fn broadcast_from<T: Wire + Clone>(&self, root: usize, value: Option<T>, tag: Tag) -> T {
        let p = self.size();
        let rel = (self.rank() + p - root) % p;
        let mut have: Option<T> = value;
        if rel == 0 {
            assert!(have.is_some(), "broadcast root must supply the value");
        }
        // Highest power of two <= p.
        let mut top = 1usize;
        while top << 1 < p {
            top <<= 1;
        }
        // Receive once (if non-root), then forward down the tree.
        let mut k = top;
        while k >= 1 {
            if rel & (k - 1) == 0 {
                // Participant at this level.
                if rel & k != 0 {
                    // Our parent is rel - k.
                    if have.is_none() {
                        let src = (rel - k + root) % p;
                        let v: T = self.recv(src, tag);
                        have = Some(v);
                    }
                } else if rel + k < p {
                    if let Some(v) = &have {
                        let dst = (rel + k + root) % p;
                        self.send(dst, tag, v.clone());
                    }
                }
            }
            k >>= 1;
        }
        have.expect("broadcast value must have propagated")
    }

    /// Gathers every rank's vector at `root` (rank order). Root returns
    /// `Some(vec of per-rank vectors)`, others `None`.
    pub fn gather_vec<T: Wire + Clone>(&self, root: usize, value: Vec<T>) -> Option<Vec<Vec<T>>> {
        if self.rank() == root {
            let mut value = Some(value);
            let out: Vec<Vec<T>> = (0..self.size())
                .map(|src| {
                    if src == root {
                        value.take().expect("own contribution consumed once")
                    } else {
                        self.recv(src, TAG_GATHER)
                    }
                })
                .collect();
            Some(out)
        } else {
            self.send(root, TAG_GATHER, value);
            None
        }
    }

    /// Allgather: every rank receives every rank's vector, in rank order.
    ///
    /// Recursive doubling over the largest power of two `q ≤ p`, with the
    /// fold of [`Comm::allreduce_vec_u64`]: a rank `r ≥ q` hands its
    /// vector to rank `r − q` first and gets the whole result back at the
    /// end. At step `d` a rank swaps everything it holds with rank
    /// `r ⊕ d`: log₂ q sequential hops, plus at most the fold and the
    /// hand-back when p is not a power of two. A gather to rank 0 plus a
    /// binomial broadcast takes ⌊log₂ p⌋ + 1, with p − 1 receives queued
    /// at rank 0.
    pub fn allgather_vec<T: Wire + Clone>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size();
        let me = self.rank();
        let q = fold_width(p);
        if me >= q {
            self.send(me - q, TAG_ALLGATHER, value);
            return self.recv(me - q, TAG_ALLGATHER);
        }
        let mut slots: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        if me + q < p {
            slots[me + q] = Some(self.recv(me + q, TAG_ALLGATHER));
        }
        slots[me] = Some(value);
        // The vectors rank `r` holds before step `d`: those of the aligned
        // run of `d` ranks containing `r` and of the ranks folded into
        // them, in an order both sides of a swap agree on.
        let ranks = |r: usize, d: usize| {
            let lo = r & !(d - 1);
            (lo..lo + d).flat_map(move |r| std::iter::once(r).chain((r + q < p).then_some(r + q)))
        };
        for d in (0..q.ilog2()).map(|k| 1 << k) {
            let out: Vec<Vec<T>> = ranks(me, d)
                .map(|r| slots[r].clone().expect("held since an earlier step"))
                .collect();
            let got: Vec<Vec<T>> =
                self.send_recv(me ^ d, TAG_ALLGATHER, out, me ^ d, TAG_ALLGATHER);
            for (r, block) in ranks(me ^ d, d).zip(got) {
                slots[r] = Some(block);
            }
        }
        let all: Vec<Vec<T>> = slots
            .into_iter()
            .map(|s| s.expect("every rank's vector arrived"))
            .collect();
        if me + q < p {
            self.send(me + q, TAG_ALLGATHER, all.clone());
        }
        all
    }

    /// All-to-all personalised exchange in bounded phases: every rank
    /// splits its buckets into chunks of at most `phase_size` entries and
    /// the ranks run as many all-to-all rounds as the globally largest
    /// bucket requires (one max-reduction on the `phased` tag agrees on the
    /// count). This is the paper's multi-phase boundary exchange (§3.1/§3.3:
    /// boundary data is "communicated in multiple phases" to bound message
    /// sizes). Every phase is a full [`Comm::alltoallv`] round: a rank whose
    /// buckets are exhausted ships empty chunks.
    ///
    /// Each chunk passes through `enc` before it hits the wire (so the cost
    /// model charges the *encoded* size) and through `dec` on receipt. This
    /// is how the phase drivers ship compressed relabeling payloads
    /// ([`mnd_wire::PackedIds`]/[`mnd_wire::PackedPairs`]) without the
    /// collective layer knowing about component ids; `|c| c, |c| c` ships
    /// the chunks as they are.
    pub fn alltoallv_phased<T, W>(
        &self,
        mut per_dest: Vec<Vec<T>>,
        phase_size: usize,
        enc: impl Fn(Vec<T>) -> W,
        dec: impl Fn(W) -> Vec<T>,
    ) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        W: Wire + Clone,
    {
        assert!(phase_size >= 1);
        let p = self.size();
        assert_eq!(per_dest.len(), p, "alltoallv needs one bucket per rank");
        let my_phases = per_dest
            .iter()
            .map(|b| b.len().div_ceil(phase_size))
            .max()
            .unwrap_or(0) as u64;
        let phases = self.reduce_u64_with_tag(my_phases, u64::max, 0, TAG_PHASED);
        let phases = self.broadcast_from(0, (self.rank() == 0).then_some(phases), TAG_PHASED);
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for _ in 0..phases {
            let chunks: Vec<W> = per_dest
                .iter_mut()
                .map(|b| {
                    let take = b.len().min(phase_size);
                    enc(b.drain(..take).collect())
                })
                .collect();
            for (src, w) in self.alltoallv(chunks).into_iter().enumerate() {
                out[src].extend(dec(w));
            }
        }
        out
    }

    /// All-to-all personalised exchange: `per_dest[d]` goes to rank `d`;
    /// returns what every rank sent to us (`result[s]` came from rank `s`).
    /// The entry for our own rank is passed through locally.
    ///
    /// The schedule is dense: every rank ships one message to every other
    /// rank, empty or not — p(p−1) messages per call. Both sides of every
    /// pair know the schedule without a header collective, which at the
    /// 4–16 ranks of the paper's clusters costs less than the empty buckets
    /// a sparse schedule would save (DESIGN.md §8).
    ///
    /// # Panics
    ///
    /// If `per_dest.len() != self.size()` (one bucket per rank required),
    /// or if any rank fails to make the matching collective call.
    ///
    /// This is the paper's multi-phase ghost-vertex exchange primitive: the
    /// driver calls it once per phase with bounded message sizes.
    pub fn alltoallv<W: Wire + Clone>(&self, per_dest: Vec<W>) -> Vec<W> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(per_dest.len(), p, "alltoallv needs one bucket per rank");
        let mut slots: Vec<Option<W>> = per_dest.into_iter().map(Some).collect();
        let mine = slots[me].take();
        // Shifted schedule avoids hot-spotting rank 0 in the model: in step
        // s we send to (me + s) and receive from (me - s).
        for s in 1..p {
            let dst = (me + s) % p;
            let payload = slots[dst].take().expect("each bucket ships once");
            self.send(dst, TAG_ALLTOALL, payload);
        }
        slots[me] = mine;
        for s in 1..p {
            let src = (me + p - s) % p;
            slots[src] = Some(self.recv(src, TAG_ALLTOALL));
        }
        slots
            .into_iter()
            .map(|w| w.expect("every rank sent one bucket"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::TAG_ALLTOALL;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;

    #[test]
    fn allreduce_sum_and_max() {
        for p in [1, 2, 3, 5, 8] {
            let out = Cluster::new(p, CostModel::free()).run(|c| {
                let sum = c.allreduce_u64(c.rank() as u64 + 1, |a, b| a + b);
                let max = c.allreduce_u64(c.rank() as u64, u64::max);
                (sum, max)
            });
            let expect_sum = (p as u64) * (p as u64 + 1) / 2;
            for o in &out {
                assert_eq!(o.result, (expect_sum, p as u64 - 1), "p={p}");
            }
        }
    }

    #[test]
    fn reduce_only_root_gets_value() {
        let out = Cluster::new(4, CostModel::free()).run(|c| c.reduce_u64(1, |a, b| a + b, 2));
        for (r, o) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(o.result, Some(4));
            } else {
                assert_eq!(o.result, None);
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..4 {
            let out = Cluster::new(4, CostModel::free())
                .run(|c| c.broadcast(root, (c.rank() == root).then(|| vec![root as u32; 3])));
            for o in &out {
                assert_eq!(o.result, vec![root as u32; 3]);
            }
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Cluster::new(3, CostModel::free()).run(|c| {
            let local = vec![c.rank() as u64; 4];
            c.allreduce_vec_u64(local, |a, b| a + b)
        });
        for o in &out {
            assert_eq!(o.result, vec![3; 4]); // 0+1+2
        }
    }

    #[test]
    fn barrier_aligns_clocks_forward() {
        let out = Cluster::new(4, CostModel::free()).run(|c| {
            c.compute(c.rank() as f64); // staggered arrival
            c.barrier();
            c.now()
        });
        // After a free-cost barrier every clock is >= the slowest rank's.
        for o in &out {
            assert!(o.result >= 3.0, "clock {}", o.result);
        }
    }

    #[test]
    fn alltoallv_routes_buckets() {
        let out = Cluster::new(4, CostModel::default_cluster()).run(|c| {
            let me = c.rank();
            let per_dest: Vec<Vec<u32>> = (0..4).map(|d| vec![(me * 10 + d) as u32]).collect();
            c.alltoallv(per_dest)
        });
        for (me, o) in out.iter().enumerate() {
            for (src, bucket) in o.result.iter().enumerate() {
                assert_eq!(bucket, &vec![(src * 10 + me) as u32], "src {src} -> {me}");
            }
        }
    }

    /// Ragged fixture: rank `me`'s bucket for destination `d` holds
    /// `(me * 5 + d * 3) % 11` elements — lengths differ per (src, dst)
    /// pair, several buckets are empty, and ranks exhaust their payload in
    /// different phases.
    fn ragged_buckets(me: u32, p: u32) -> Vec<Vec<u32>> {
        (0..p)
            .map(|d| {
                let len = (me * 5 + d * 3) % 11;
                (0..len).map(|i| me * 1000 + d * 100 + i).collect()
            })
            .collect()
    }

    #[test]
    fn phased_alltoallv_matches_unphased() {
        for phase_size in [1usize, 3, 100] {
            let out = Cluster::new(4, CostModel::free()).run(move |c| {
                let me = c.rank() as u32;
                let per_dest: Vec<Vec<u32>> = (0..4)
                    .map(|d| (0..7).map(|i| me * 100 + d as u32 * 10 + i).collect())
                    .collect();
                c.alltoallv_phased(per_dest, phase_size, |b| b, |b| b)
            });
            for (me, o) in out.iter().enumerate() {
                for (src, bucket) in o.result.iter().enumerate() {
                    let expect: Vec<u32> = (0..7)
                        .map(|i| src as u32 * 100 + me as u32 * 10 + i)
                        .collect();
                    assert_eq!(bucket, &expect, "phase_size {phase_size}");
                }
            }
        }
    }

    #[test]
    fn phased_alltoallv_matches_unphased_on_ragged_buckets() {
        let oracle = Cluster::new(5, CostModel::free())
            .run(|c| c.alltoallv(ragged_buckets(c.rank() as u32, 5)));
        for phase_size in [1usize, 2, 4, 64] {
            let out = Cluster::new(5, CostModel::free()).run(move |c| {
                c.alltoallv_phased(ragged_buckets(c.rank() as u32, 5), phase_size, |b| b, |b| b)
            });
            for (rank, (o, expect)) in out.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    o.result, expect.result,
                    "rank {rank} phase_size {phase_size}"
                );
            }
        }
    }

    #[test]
    fn phased_alltoallv_charges_more_messages_per_phase() {
        let msgs = |phase_size: usize| {
            let out = Cluster::new(3, CostModel::default_cluster()).run(move |c| {
                let per_dest: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 10]).collect();
                c.alltoallv_phased(per_dest, phase_size, |b| b, |b| b);
                c.stats().messages_sent
            });
            out.iter().map(|o| o.result).sum::<u64>()
        };
        assert!(msgs(2) > msgs(100), "more phases -> more messages");
    }

    #[test]
    fn alltoallv_empty_buckets() {
        let out = Cluster::new(3, CostModel::free()).run(|c| {
            let per_dest: Vec<Vec<u8>> = vec![Vec::new(); 3];
            c.alltoallv(per_dest)
        });
        for o in &out {
            assert!(o.result.iter().all(|b| b.is_empty()));
        }
    }

    /// The dense schedule pays p(p−1) payload messages even for an
    /// all-empty exchange, and nothing else: no header collective.
    #[test]
    fn dense_oracle_still_ships_empty_buckets() {
        let p = 4usize;
        let out = Cluster::new(p, CostModel::default_cluster()).run(move |c| {
            let per_dest: Vec<Vec<u32>> = vec![Vec::new(); 4];
            c.alltoallv(per_dest);
            let stats = c.stats();
            let payload = stats
                .by_tag
                .get(&TAG_ALLTOALL)
                .map_or(0, |tr| tr.messages_sent);
            (payload, stats.messages_sent)
        });
        let payload: u64 = out.iter().map(|o| o.result.0).sum();
        let total: u64 = out.iter().map(|o| o.result.1).sum();
        assert_eq!(payload, (p * (p - 1)) as u64);
        assert_eq!(total, payload, "the exchange sends nothing but buckets");
    }

    /// The phased codec hook charges the encoded size: a codec that models
    /// 1-byte-per-element compression moves fewer wire bytes than the raw
    /// 4-byte path, and the decoded routing is unchanged.
    #[test]
    fn phased_enc_charges_encoded_bytes() {
        #[derive(Clone)]
        struct Squeezed(Vec<u32>);
        impl mnd_wire::Wire for Squeezed {
            fn wire_bytes(&self) -> u64 {
                self.0.len() as u64
            }
        }
        let run = |encode: bool| {
            Cluster::new(3, CostModel::default_cluster()).run(move |c| {
                let per_dest = ragged_buckets(c.rank() as u32, 3);
                let got = if encode {
                    c.alltoallv_phased(per_dest, 4, Squeezed, |w: Squeezed| w.0)
                } else {
                    c.alltoallv_phased(per_dest, 4, |b| b, |b| b)
                };
                (got, c.stats().bytes_sent)
            })
        };
        let raw = run(false);
        let packed = run(true);
        for (r, pk) in raw.iter().zip(&packed) {
            assert_eq!(r.result.0, pk.result.0, "codec must round-trip");
            assert!(
                pk.result.1 < r.result.1,
                "encoded {} < raw {}",
                pk.result.1,
                r.result.1
            );
        }
    }
}
