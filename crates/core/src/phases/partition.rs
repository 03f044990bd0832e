//! The partitioning phase (§3.1): degree exchange, 1D cuts, holding
//! construction, device calibration, and the ghost-information exchange.

use std::sync::{Mutex, OnceLock};

use mnd_graph::partition::{partition_1d_by_degrees, VertexRange};
use mnd_graph::types::WEdge;
use mnd_graph::{CsrGraph, EdgeList};
use mnd_hypar::api::{part_graph, CALIBRATION_FRAC, CALIBRATION_SAMPLES};
use mnd_hypar::observe::PhaseKind;
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_kernels::filter::filter_holding;
use mnd_wire::PackedIds;

use crate::ghost::GhostDirectory;
use crate::phases::{Phase, RankCtx, RankRecovery};

/// The level-0 holdings of one run, built straight from the edge list a
/// *block* of contiguous ranks at a time ([`CGraph::level0`]): the first
/// rank of a block to ask builds the whole block's holdings in one pair of
/// passes over the list, the others find theirs waiting. The number of
/// whole-list passes therefore follows the block count — the host's kernel
/// threads — not the rank count, and nothing but a block's own lock is
/// waited on. A rank asking again (re-executing the phase after a crash)
/// rebuilds its own range with the same function.
pub struct Level0 {
    ranks_per_block: usize,
    blocks: Vec<OnceLock<Vec<Mutex<Option<CGraph>>>>>,
}

impl Level0 {
    /// An empty store for `nranks` ranks cut into at most `blocks` blocks.
    pub fn new(nranks: usize, blocks: usize) -> Self {
        assert!(nranks >= 1);
        let ranks_per_block = nranks.div_ceil(blocks.clamp(1, nranks));
        Level0 {
            ranks_per_block,
            blocks: (0..nranks.div_ceil(ranks_per_block))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Rank `rank`'s holding under the 1D cut `ranges` (the same on every
    /// rank: it comes out of an allreduce).
    fn take(&self, el: &EdgeList, ranges: &[VertexRange], rank: usize) -> CGraph {
        let block = rank / self.ranks_per_block;
        let first = block * self.ranks_per_block;
        let built = self.blocks[block].get_or_init(|| {
            let last = (first + self.ranks_per_block).min(ranges.len());
            CGraph::level0(el, ranges, first..last)
                .into_iter()
                .map(|cg| Mutex::new(Some(cg)))
                .collect()
        });
        let mine = built[rank - first]
            .lock()
            .expect("a rank only takes its own slot")
            .take();
        mine.unwrap_or_else(|| CGraph::level0(el, ranges, rank..rank + 1).remove(0))
    }
}

/// The subgraph a holding's range induces, vertices renumbered from 0 —
/// the §4.3.1 calibration sample — from the holding's internal rows. Those
/// ascend in their lower end and keep list order within it, the order
/// `CsrGraph::induced_subgraph` reads a mirrored CSR of the whole graph in,
/// so the two are equal byte for byte.
fn induced_csr(cg: &CGraph, range: VertexRange) -> CsrGraph {
    let ((ca, cb), orig) = (cg.endpoint_cols(), cg.orig_col());
    let mut cut = cg.cut_rows().iter().peekable();
    let edges: Vec<WEdge> = (0..cg.num_edges())
        .filter(|&i| cut.next_if(|&&c| c as usize == i).is_none())
        .map(|i| WEdge::new(ca[i] - range.start, cb[i] - range.start, orig[i].w))
        .collect();
    CsrGraph::from_edges(range.len() as u32, &edges)
}

/// `partGraph`: leaves the context with a level-0 holding, a seeded ghost
/// directory, and the calibrated CPU/GPU split.
#[derive(Debug, Default)]
pub struct Partition;

impl Phase for Partition {
    fn kind(&self) -> PhaseKind {
        PhaseKind::Partition
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, rec: &mut RankRecovery<'_>) {
        cx.observed(PhaseKind::Partition, |cx| {
            let comm = cx.comm;
            let runner = cx.runner;
            let cfg = cx.cfg();
            let me = comm.rank();
            let p = comm.size();

            // Gemini-style slice read + degree allreduce + 1D cuts.
            let m_edges = cx.el.len();
            let lo = me * m_edges / p;
            let hi = (me + 1) * m_edges / p;
            let mut partial = vec![0u64; cx.el.num_vertices() as usize];
            for e in &cx.el.edges()[lo..hi] {
                partial[e.u as usize] += 1;
                partial[e.v as usize] += 1;
            }
            comm.compute(runner.sweep_seconds((hi - lo) as u64));
            let degrees = comm.allreduce_vec_u64(partial, |a, b| a + b);
            let ranges = partition_1d_by_degrees(&degrees, p, 0.0);
            let my_range = ranges[me];

            cx.cg = cx.level0.take(cx.el, &ranges, me);

            // Intra-node device split (§4.3.1), calibrated on the local
            // partition's induced subgraph.
            cx.split = if runner.platform.is_hybrid() {
                let local = induced_csr(&cx.cg, my_range);
                let part = part_graph(&local, 1, &runner.platform, cfg);
                // Calibration runs 5-10 small kernels on both devices;
                // charge a sweep over the sampled edges.
                let sampled = (local.num_undirected_edges() as f64
                    * CALIBRATION_FRAC
                    * CALIBRATION_SAMPLES as f64) as u64;
                comm.compute(runner.sweep_seconds(sampled));
                part.split
            } else {
                mnd_device::DeviceSplit::cpu_only()
            };

            // Holding + ghost information.
            comm.compute(runner.sweep_seconds(cx.cg.num_edges() as u64));

            // Filter-Boruvka (DESIGN.md §8): a dense level-0 holding drops
            // its certified non-MST internal rows before any exchange pays
            // for them; cut rows are exempt (filter_holding says why). A
            // filtered holding pays one sweep, like a sorting reduction.
            if cfg.level0_filter {
                let rows = cx.cg.num_edges() as u64;
                if filter_holding(&mut cx.cg).is_some() {
                    comm.compute(runner.sweep_seconds(rows));
                }
            }

            cx.dir = GhostDirectory::from_ranges(ranges);
            cx.note_holding();

            // makeGhostInformation: exchange boundary vertex ids so every
            // rank can build its ghostList hash table (§3.1). Our
            // GhostDirectory derives owners from the ranges, so the payload
            // itself is only used as a consistency check — but the exchange
            // is performed for its (phased) communication cost, like the
            // paper's.
            let mut buckets: Vec<Vec<CompId>> = (0..p).map(|_| Vec::new()).collect();
            let (ca, cb) = cx.cg.endpoint_cols();
            for &row in cx.cg.cut_rows() {
                let (a, b) = (ca[row as usize], cb[row as usize]);
                // A cut edge has exactly one resident end.
                let (mine, ghost) = match (cx.cg.is_resident(a), cx.cg.is_resident(b)) {
                    (true, false) => (a, b),
                    (false, true) => (b, a),
                    _ => continue,
                };
                let owner = cx.dir.owner(ghost) as usize;
                // Rows arrive grouped by vertex: skipping an immediate
                // repeat keeps the buckets near their deduplicated size.
                if owner != me && buckets[owner].last() != Some(&mine) {
                    buckets[owner].push(mine);
                }
            }
            for b in &mut buckets {
                b.sort_unstable();
                b.dedup();
            }
            // Boundary ids are sorted + deduplicated per bucket, the shape
            // the delta-varint codec compresses best.
            let received = comm.alltoallv_phased(
                buckets,
                runner.ghost_phase_size,
                PackedIds::encode,
                PackedIds::into_ids,
            );
            // Consistency: every vertex a neighbour reports as its boundary
            // must be non-resident here and owned by that neighbour.
            for (src, verts) in received.iter().enumerate() {
                for &v in verts {
                    debug_assert_eq!(cx.dir.owner(v) as usize, src, "ghost table mismatch");
                }
            }
        });
        rec.step(cx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_graph::partition::partition_1d;

    /// The hybrid arm's calibration input: the sample read off a holding's
    /// internal rows is, byte for byte, the one `induced_subgraph` cut out
    /// of the whole graph's CSR — on a list in arrival order too.
    #[test]
    fn calibration_sample_from_the_holding_equals_induced_subgraph() {
        let mut shuffled = mnd_graph::EdgeList::new(300);
        for e in gen::gnm(300, 1500, 8).edges().iter().rev() {
            shuffled.push(e.v, e.u, e.w);
        }
        let crawl = gen::web_crawl(600, 5000, gen::CrawlParams::default(), 3);
        for el in [crawl, shuffled] {
            let csr = CsrGraph::from_edge_list(&el);
            let ranges = partition_1d(&csr, 5, 0.0);
            for (cg, &range) in CGraph::level0(&el, &ranges, 0..5).iter().zip(&ranges) {
                let keep: Vec<u32> = range.iter().collect();
                assert_eq!(induced_csr(cg, range), csr.induced_subgraph(&keep));
            }
        }
    }

    /// Whatever the block count, and whoever asks first, a rank gets the
    /// holding a build of its range alone would give it — also when it
    /// asks a second time.
    #[test]
    fn level0_store_hands_every_rank_its_own_holding() {
        let el = gen::web_crawl(500, 4000, gen::CrawlParams::default(), 9);
        let ranges = partition_1d(&CsrGraph::from_edge_list(&el), 7, 0.0);
        let alone = |rank: usize| CGraph::level0(&el, &ranges, rank..rank + 1).remove(0);
        for blocks in [1, 2, 3, 7, 64] {
            let store = Level0::new(7, blocks);
            assert!(store.blocks.len() <= blocks.min(7));
            for rank in [4, 0, 6, 1, 5, 2, 3, 4] {
                let got = store.take(&el, &ranges, rank);
                assert_eq!(got, alone(rank), "{blocks} blocks, rank {rank}");
                assert_eq!(got.cut_rows(), alone(rank).cut_rows());
            }
        }
    }
}
