//! Collective operations, built from point-to-point messages so their
//! simulated cost (binomial-tree latency, bandwidth terms) emerges from the
//! same LogGP model as everything else.
//!
//! All collectives must be called by **every** rank of the cluster, in the
//! same order — the usual MPI contract. Tags are taken from the reserved
//! collective space and matching is FIFO per `(source, tag)`, so back-to-
//! back collectives of the same kind cannot cross-talk.

use mnd_wire::Wire;

use crate::comm::{Comm, Tag};

const TAG_BARRIER: Tag = tag(0);
const TAG_REDUCE: Tag = tag(1);
const TAG_BCAST: Tag = tag(2);
const TAG_GATHER: Tag = tag(3);
const TAG_ALLTOALL: Tag = tag(4);
const TAG_REDUCE_VEC: Tag = tag(5);
const TAG_PHASED: Tag = tag(6);
const TAG_SPARSE: Tag = tag(7);

/// Builds a tag in the reserved collective space (upper half of the tag
/// range, which [`Tag::user`] rejects).
const fn tag(id: u32) -> Tag {
    Tag(0x8000_0000 | id)
}

/// How an all-to-all exchange treats empty buckets.
///
/// [`ExchangeMode::Dense`] is the textbook schedule: every rank ships one
/// message to every other rank, empty or not — p(p−1) messages per round,
/// kept as the oracle against which the sparse path is verified.
/// [`ExchangeMode::Sparse`] first allreduces a small header on the
/// `sparse_hdr` tag so every pair agrees on who sends without an extra
/// handshake round, then ships only non-empty buckets: the one-shot
/// exchange uses a p×⌈p/64⌉-word sender bitmap, the phased exchange a p×p
/// count matrix that covers **all** phases with a single collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Send every bucket, including empty ones (the oracle path).
    Dense,
    /// Exchange a sender bitmap first, then send only non-empty buckets.
    Sparse,
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
    /// computation of §3.1). All ranks must pass equal-length vectors.
    pub fn allreduce_vec_u64(&self, value: Vec<u64>, op: impl Fn(u64, u64) -> u64) -> Vec<u64> {
        self.allreduce_vec_with_tags(value, op, TAG_REDUCE_VEC, TAG_BCAST)
    }

    /// Vector allreduce on explicit tags, so protocol-internal uses (the
    /// sparse exchange header) account their traffic under their own tag
    /// instead of polluting the `reduce_vec`/`bcast` rows.
    fn allreduce_vec_with_tags(
        &self,
        mut value: Vec<u64>,
        op: impl Fn(u64, u64) -> u64,
        reduce_tag: Tag,
        bcast_tag: Tag,
    ) -> Vec<u64> {
        let p = self.size();
        let me = self.rank();
        // Binomial tree reduce to 0.
        let mut k = 1usize;
        while k < p {
            if me & k != 0 {
                self.send(me - k, reduce_tag, value);
                value = Vec::new();
                break;
            } else if me + k < p {
                let other: Vec<u64> = self.recv(me + k, reduce_tag);
                assert_eq!(other.len(), value.len(), "allreduce_vec length mismatch");
                for (a, b) in value.iter_mut().zip(other) {
                    *a = op(*a, b);
                }
            }
            k <<= 1;
        }
        // Broadcast the result.
        self.broadcast_from(0, (me == 0).then_some(value), bcast_tag)
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
    pub fn allgather_vec<T: Wire + Clone>(&self, value: Vec<T>) -> Vec<Vec<T>> {
        let gathered = self.gather_vec(0, value);
        self.broadcast_from(0, gathered, TAG_BCAST)
    }

    /// All-to-all personalised exchange in bounded phases: every rank
    /// splits its buckets into chunks of at most `phase_size` entries and
    /// the ranks run as many all-to-all rounds as the globally largest
    /// bucket requires. This is the paper's multi-phase boundary exchange
    /// (§3.1/§3.3: boundary data is "communicated in multiple phases" to
    /// bound message sizes). Under [`ExchangeMode::Sparse`] ranks whose
    /// buckets are exhausted stop contributing payload messages; under
    /// [`ExchangeMode::Dense`] they ship empty chunks for every remaining
    /// global phase.
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
        mode: ExchangeMode,
        enc: impl Fn(Vec<T>) -> W,
        dec: impl Fn(W) -> Vec<T>,
    ) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        W: Wire + Clone,
    {
        assert!(phase_size >= 1);
        let p = self.size();
        let me = self.rank();
        assert_eq!(per_dest.len(), p, "alltoallv needs one bucket per rank");
        // Sparse: one count header for the *whole* phased exchange — entry
        // `d*p + s` is the number of items rank `s` ships to rank `d`.
        // Contributions occupy disjoint slots, so a sum-allreduce assembles
        // the full matrix everywhere. Chunks drain front-to-back, so sender
        // `s` hits destination `d` in exactly the first ⌈count/phase_size⌉
        // phases: every rank derives the global phase count *and* its
        // per-phase receive schedule locally, with no per-phase handshakes
        // (the dense path's TAG_PHASED max-round is subsumed too).
        let counts: Option<Vec<u64>> = match mode {
            ExchangeMode::Dense => None,
            ExchangeMode::Sparse => {
                let mut header = vec![0u64; p * p];
                for (d, b) in per_dest.iter().enumerate() {
                    if d != me {
                        header[d * p + me] = b.len() as u64;
                    }
                }
                Some(self.allreduce_vec_with_tags(header, |a, b| a + b, TAG_SPARSE, TAG_SPARSE))
            }
        };
        let phases = match &counts {
            None => {
                let my_phases = per_dest
                    .iter()
                    .map(|b| b.len().div_ceil(phase_size))
                    .max()
                    .unwrap_or(0) as u64;
                let phases = self.reduce_u64_with_tag(my_phases, u64::max, 0, TAG_PHASED);
                self.broadcast_from(0, (self.rank() == 0).then_some(phases), TAG_PHASED) as usize
            }
            Some(h) => {
                // Global max over the matrix covers every inter-rank chunk;
                // the own-rank bucket never travels, so it only extends the
                // local drain loop (extra iterations send/receive nothing).
                let global = h
                    .iter()
                    .map(|&c| (c as usize).div_ceil(phase_size))
                    .max()
                    .unwrap_or(0);
                global.max(per_dest[me].len().div_ceil(phase_size))
            }
        };
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for ph in 0..phases {
            let items: Vec<Option<W>> = per_dest
                .iter_mut()
                .map(|b| {
                    let take = b.len().min(phase_size);
                    let chunk: Vec<T> = b.drain(..take).collect();
                    match mode {
                        ExchangeMode::Dense => Some(enc(chunk)),
                        ExchangeMode::Sparse => (!chunk.is_empty()).then(|| enc(chunk)),
                    }
                })
                .collect();
            let routed = match &counts {
                None => self.alltoallv_items(items, ExchangeMode::Dense),
                Some(h) => {
                    let recv_mask: Vec<bool> = (0..p)
                        .map(|s| s != me && (h[me * p + s] as usize).div_ceil(phase_size) > ph)
                        .collect();
                    self.exchange_masked(items, &recv_mask, ExchangeMode::Sparse)
                }
            };
            for (src, item) in routed.into_iter().enumerate() {
                if let Some(w) = item {
                    out[src].extend(dec(w));
                }
            }
        }
        out
    }

    /// All-to-all personalised exchange: `per_dest[d]` goes to rank `d`;
    /// returns what every rank sent to us (`result[s]` came from rank `s`).
    /// The entry for our own rank is passed through locally.
    ///
    /// Default is the **sparse** schedule: a small bitmap header (one
    /// vector allreduce on the `sparse_hdr` tag) tells every pair who
    /// sends, and empty buckets cost nothing on the wire. The previous
    /// always-send behaviour survives as [`Comm::alltoallv_dense`], the
    /// oracle the sparse path is tested against.
    ///
    /// # Panics
    ///
    /// If `per_dest.len() != self.size()` (one bucket per rank required),
    /// or if any rank fails to make the matching collective call.
    ///
    /// This is the paper's multi-phase ghost-vertex exchange primitive: the
    /// driver calls it once per phase with bounded message sizes.
    pub fn alltoallv<T: Wire + Clone>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.alltoallv_with(per_dest, ExchangeMode::Sparse)
    }

    /// Dense oracle: ships all p−1 buckets unconditionally, empty or not.
    pub fn alltoallv_dense<T: Wire + Clone>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.alltoallv_with(per_dest, ExchangeMode::Dense)
    }

    /// The bucket exchange of [`Comm::alltoallv`] and
    /// [`Comm::alltoallv_dense`] under `mode`.
    fn alltoallv_with<T: Wire + Clone>(
        &self,
        per_dest: Vec<Vec<T>>,
        mode: ExchangeMode,
    ) -> Vec<Vec<T>> {
        assert_eq!(
            per_dest.len(),
            self.size(),
            "alltoallv needs one bucket per rank"
        );
        let items: Vec<Option<Vec<T>>> = per_dest
            .into_iter()
            .map(|b| match mode {
                ExchangeMode::Dense => Some(b),
                ExchangeMode::Sparse => (!b.is_empty()).then_some(b),
            })
            .collect();
        self.alltoallv_items(items, mode)
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect()
    }

    /// The one exchange core both modes share: one optional item per rank.
    ///
    /// Dense mode requires every non-self slot to be `Some` and ships all
    /// of them. Sparse mode first OR-allreduces a p×⌈p/64⌉-word sender
    /// bitmap — row `d` holds the senders targeting rank `d` — so both
    /// sides of every pair agree on the schedule from one header
    /// collective, then sends only `Some` buckets over the same shifted
    /// schedule (step `s`: send to `me+s`, receive from `me−s`) the dense
    /// path uses.
    fn alltoallv_items<W: Wire + Clone>(
        &self,
        per_dest: Vec<Option<W>>,
        mode: ExchangeMode,
    ) -> Vec<Option<W>> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(per_dest.len(), p, "alltoallv needs one bucket per rank");
        let recv_mask: Vec<bool> = match mode {
            ExchangeMode::Dense => (0..p).map(|s| s != me).collect(),
            ExchangeMode::Sparse => {
                let words = p.div_ceil(64);
                let mut header = vec![0u64; p * words];
                for (d, bucket) in per_dest.iter().enumerate() {
                    if d != me && bucket.is_some() {
                        header[d * words + me / 64] |= 1 << (me % 64);
                    }
                }
                let header =
                    self.allreduce_vec_with_tags(header, |a, b| a | b, TAG_SPARSE, TAG_SPARSE);
                (0..p)
                    .map(|s| s != me && header[me * words + s / 64] >> (s % 64) & 1 == 1)
                    .collect()
            }
        };
        self.exchange_masked(per_dest, &recv_mask, mode)
    }

    /// The shifted send/receive schedule both modes and both header kinds
    /// share. `recv_mask[s]` says whether rank `s` has a message for us
    /// this round — the caller has already agreed on it collectively (the
    /// dense all-ones mask, the bitmap header, or one row of the phased
    /// count matrix).
    fn exchange_masked<W: Wire + Clone>(
        &self,
        mut per_dest: Vec<Option<W>>,
        recv_mask: &[bool],
        mode: ExchangeMode,
    ) -> Vec<Option<W>> {
        let p = self.size();
        let me = self.rank();
        let mine = per_dest[me].take();
        // Shifted schedule avoids hot-spotting rank 0 in the model: in step
        // s we send to (me + s) and receive from (me - s).
        for s in 1..p {
            let dst = (me + s) % p;
            match (mode, per_dest[dst].take()) {
                (_, Some(payload)) => self.send(dst, TAG_ALLTOALL, payload),
                (ExchangeMode::Dense, None) => {
                    panic!("dense alltoallv requires a payload for every rank")
                }
                (ExchangeMode::Sparse, None) => {}
            }
        }
        let mut out: Vec<Option<W>> = (0..p).map(|_| None).collect();
        out[me] = mine;
        for s in 1..p {
            let src = (me + p - s) % p;
            if recv_mask[src] {
                out[src] = Some(self.recv(src, TAG_ALLTOALL));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{ExchangeMode, TAG_ALLTOALL, TAG_SPARSE};
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
            for mode in [ExchangeMode::Dense, ExchangeMode::Sparse] {
                let out = Cluster::new(4, CostModel::free()).run(move |c| {
                    let me = c.rank() as u32;
                    let per_dest: Vec<Vec<u32>> = (0..4)
                        .map(|d| (0..7).map(|i| me * 100 + d as u32 * 10 + i).collect())
                        .collect();
                    c.alltoallv_phased(per_dest, phase_size, mode, |b| b, |b| b)
                });
                for (me, o) in out.iter().enumerate() {
                    for (src, bucket) in o.result.iter().enumerate() {
                        let expect: Vec<u32> = (0..7)
                            .map(|i| src as u32 * 100 + me as u32 * 10 + i)
                            .collect();
                        assert_eq!(bucket, &expect, "phase_size {phase_size} mode {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn phased_alltoallv_matches_unphased_on_ragged_buckets() {
        let oracle = Cluster::new(5, CostModel::free())
            .run(|c| c.alltoallv_dense(ragged_buckets(c.rank() as u32, 5)));
        for phase_size in [1usize, 2, 4, 64] {
            for mode in [ExchangeMode::Dense, ExchangeMode::Sparse] {
                let out = Cluster::new(5, CostModel::free()).run(move |c| {
                    c.alltoallv_phased(
                        ragged_buckets(c.rank() as u32, 5),
                        phase_size,
                        mode,
                        |b| b,
                        |b| b,
                    )
                });
                for (rank, (o, expect)) in out.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        o.result, expect.result,
                        "rank {rank} phase_size {phase_size} mode {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_alltoallv_matches_dense_on_ragged_buckets() {
        let dense = Cluster::new(5, CostModel::free())
            .run(|c| c.alltoallv_dense(ragged_buckets(c.rank() as u32, 5)));
        let sparse = Cluster::new(5, CostModel::free())
            .run(|c| c.alltoallv(ragged_buckets(c.rank() as u32, 5)));
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.result, s.result);
        }
    }

    #[test]
    fn phased_alltoallv_charges_more_messages_per_phase() {
        let msgs = |phase_size: usize| {
            let out = Cluster::new(3, CostModel::default_cluster()).run(move |c| {
                let per_dest: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 10]).collect();
                c.alltoallv_phased(per_dest, phase_size, ExchangeMode::Sparse, |b| b, |b| b);
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

    /// Regression for the empty-bucket bug: an all-empty sparse exchange
    /// must ship **zero** payload messages on the `alltoall` tag — only the
    /// 2(p−1) header messages of the bitmap allreduce remain.
    #[test]
    fn all_empty_sparse_exchange_ships_no_payload_messages() {
        let p = 4;
        let out = Cluster::new(p, CostModel::default_cluster()).run(move |c| {
            let per_dest: Vec<Vec<u32>> = vec![Vec::new(); 4];
            let got = c.alltoallv(per_dest);
            assert!(got.iter().all(|b| b.is_empty()));
            let stats = c.stats();
            let tag_msgs = |t| stats.by_tag.get(&t).map_or(0, |tr| tr.messages_sent);
            (tag_msgs(TAG_ALLTOALL), tag_msgs(TAG_SPARSE))
        });
        let payload: u64 = out.iter().map(|o| o.result.0).sum();
        let header: u64 = out.iter().map(|o| o.result.1).sum();
        assert_eq!(payload, 0, "empty buckets must not become messages");
        assert_eq!(header, 2 * (p as u64 - 1), "reduce + bcast of the bitmap");
    }

    /// The dense oracle still pays p(p−1) messages for the same all-empty
    /// exchange — the delta the sparse path exists to eliminate.
    #[test]
    fn dense_oracle_still_ships_empty_buckets() {
        let p = 4usize;
        let out = Cluster::new(p, CostModel::default_cluster()).run(move |c| {
            let per_dest: Vec<Vec<u32>> = vec![Vec::new(); 4];
            c.alltoallv_dense(per_dest);
            c.stats()
                .by_tag
                .get(&TAG_ALLTOALL)
                .map_or(0, |tr| tr.messages_sent)
        });
        let payload: u64 = out.iter().map(|o| o.result).sum();
        assert_eq!(payload, (p * (p - 1)) as u64);
    }

    /// Satellite 2: a rank whose buckets are exhausted stops contributing
    /// payload messages to later phases. Rank 0 ships 6 items to everyone
    /// (3 phases at size 2); the other ranks have nothing, so the sparse
    /// schedule carries exactly rank 0's 3 × (p−1) chunk messages instead
    /// of the dense 3 × p(p−1).
    #[test]
    fn phased_exhausted_ranks_stop_contributing_payload() {
        let run = |mode: ExchangeMode| {
            Cluster::new(4, CostModel::default_cluster()).run(move |c| {
                let per_dest: Vec<Vec<u32>> = (0..4)
                    .map(|d| {
                        if c.rank() == 0 && d != 0 {
                            (0..6).map(|i| d as u32 * 10 + i).collect()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                let got = c.alltoallv_phased(per_dest, 2, mode, |b| b, |b| b);
                let payload_msgs = c
                    .stats()
                    .by_tag
                    .get(&TAG_ALLTOALL)
                    .map_or(0, |tr| tr.messages_sent);
                (got, payload_msgs)
            })
        };
        let dense = run(ExchangeMode::Dense);
        let sparse = run(ExchangeMode::Sparse);
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.result.0, s.result.0, "routing must not change");
        }
        let dense_msgs: u64 = dense.iter().map(|o| o.result.1).sum();
        let sparse_msgs: u64 = sparse.iter().map(|o| o.result.1).sum();
        assert_eq!(dense_msgs, 3 * 4 * 3, "3 phases of p(p-1) dense messages");
        assert_eq!(sparse_msgs, 3 * 3, "only rank 0's non-empty chunks ship");
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
                    c.alltoallv_phased(
                        per_dest,
                        4,
                        ExchangeMode::Sparse,
                        Squeezed,
                        |w: Squeezed| w.0,
                    )
                } else {
                    c.alltoallv_phased(per_dest, 4, ExchangeMode::Sparse, |b| b, |b| b)
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
