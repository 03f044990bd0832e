//! Filter-Boruvka edge sampling (Sanders & Schimek, arXiv:2302.12199):
//! drop provably-non-MST edges *before* the expensive distributed pipeline.
//!
//! The scheme: sample each edge with probability `prob` by a deterministic
//! hash of its endpoints, build the minimum spanning forest of the sample
//! (Kruskal over the sampled edges), and discard every edge that is heavier
//! than the sample-forest path between its endpoints. We fuse the two steps
//! into one sweep: edges are visited in ascending `(w, u, v)` order while a
//! DSU accumulates the *kept sampled* edges; any edge whose endpoints are
//! already connected closes a cycle of strictly lighter real edges, making
//! it the unique cycle maximum — by the cycle property it cannot be in the
//! (unique) MSF, so dropping it is exact for **any** sample. `prob = 1.0`
//! degenerates to a full local Kruskal filter (only the local forest
//! survives); `prob = 0.0` disables the filter entirely.
//!
//! Determinism matters across ranks: a cut edge is held by both of its
//! endpoint owners, and both must make the same sampling decision. The
//! hash keys on the canonical `(u, v)` endpoints and a config seed, never
//! on rank state.

use mnd_graph::edgelist::splitmix64;
use mnd_graph::{EdgeList, WEdge};

use crate::cgraph::CGraph;
use crate::dsu::DisjointSets;

/// What one filtering sweep saw and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Edges examined.
    pub input_edges: usize,
    /// Edges the hash selected into the sample.
    pub sampled_edges: usize,
    /// Edges dropped as provable cycle maxima.
    pub dropped_edges: usize,
}

impl FilterStats {
    /// Edges that survived the sweep.
    pub fn kept_edges(&self) -> usize {
        self.input_edges - self.dropped_edges
    }
}

/// Deterministic per-edge sampling decision: hash of the canonical
/// endpoints and `seed`, compared against `prob`. Rank-independent by
/// construction so duplicated cut edges decide identically everywhere.
#[inline]
pub fn edge_sampled(seed: u64, prob: f64, e: &WEdge) -> bool {
    if prob >= 1.0 {
        return true;
    }
    if prob <= 0.0 {
        return false;
    }
    let h = splitmix64(seed ^ (((e.u as u64) << 32) | e.v as u64));
    // Top 53 bits give a uniform draw in [0, 1).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
}

/// Computes the per-edge keep mask for one filtering sweep, in the input's
/// storage order. Exact for any `prob`: a `false` entry is the unique
/// maximum of a cycle of strictly lighter kept sampled edges.
pub fn keep_mask(edges: &[WEdge], prob: f64, seed: u64) -> (Vec<bool>, FilterStats) {
    keep_mask_where(edges, prob, seed, |_| true)
}

/// [`keep_mask`] with a droppability predicate: row `i` can only be marked
/// `false` when `droppable(i)` holds. Non-droppable edges still feed the
/// certification forest when sampled — exactness never depends on the
/// predicate, only which certified-redundant edges we are *allowed* to shed.
pub fn keep_mask_where(
    edges: &[WEdge],
    prob: f64,
    seed: u64,
    droppable: impl Fn(usize) -> bool,
) -> (Vec<bool>, FilterStats) {
    let n = edges.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&i| edges[i].key());
    let mut dsu = DisjointSets::new(n);
    let mut keep = vec![true; edges.len()];
    let mut stats = FilterStats {
        input_edges: edges.len(),
        ..FilterStats::default()
    };
    for &i in &order {
        let e = &edges[i];
        let sampled = edge_sampled(seed, prob, e);
        if sampled {
            stats.sampled_edges += 1;
        }
        if dsu.same(e.u, e.v) {
            // Connected through strictly lighter kept sampled edges: `e`
            // closes a cycle it is the maximum of. Provably non-MSF.
            if droppable(i) {
                keep[i] = false;
                stats.dropped_edges += 1;
            }
        } else if sampled {
            dsu.union(e.u, e.v);
        }
    }
    (keep, stats)
}

/// Filters a holding in place (the per-rank hook: runs on the level-0
/// holding right after partitioning, before any exchange pays for the
/// dropped edges). Row order is preserved for the survivors.
///
/// Cut edges (a non-resident endpoint) are never dropped: each cut edge is
/// duplicated on both endpoint owners and the ghost-parent protocol relies
/// on both copies surviving — certification is rank-local (the DSU sees
/// only this holding), so the two holders could disagree on a drop, and
/// the rank that kept its copy would never hear about the other side's
/// renames. Fully-resident edges exist on exactly one rank, so shedding
/// them is safe; sampled cut edges still feed the certification forest.
pub fn filter_holding(cg: &mut CGraph, prob: f64, seed: u64) -> FilterStats {
    let internal: Vec<bool> = cg
        .iter_edges()
        .map(|e| cg.is_resident(e.a) && cg.is_resident(e.b))
        .collect();
    let (mask, stats) = keep_mask_where(cg.orig_col(), prob, seed, |i| internal[i]);
    cg.retain_edge_rows(&mask);
    stats
}

/// Filters a whole edge list (the single-node / oracle-side hook),
/// preserving the relative order of surviving edges.
pub fn filter_edge_list(el: &EdgeList, prob: f64, seed: u64) -> (EdgeList, FilterStats) {
    let (mask, stats) = keep_mask(el.edges(), prob, seed);
    let kept: Vec<WEdge> = el
        .edges()
        .iter()
        .zip(&mask)
        .filter_map(|(e, &k)| k.then_some(*e))
        .collect();
    (EdgeList::from_raw(el.num_vertices(), kept), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::kruskal_msf;
    use mnd_graph::gen;

    fn families() -> Vec<EdgeList> {
        vec![
            gen::path(50, 1),
            gen::cycle(40, 2),
            gen::complete(40, 3),
            gen::gnm(2000, 12_000, 4),
            gen::web_crawl(3000, 20_000, gen::CrawlParams::default(), 5),
            gen::disconnected_union(&[gen::gnm(500, 3000, 1), gen::path(20, 2)]),
        ]
    }

    #[test]
    fn filtered_msf_matches_oracle_at_every_probability() {
        for el in families() {
            let oracle = kruskal_msf(&el);
            for prob in [0.0, 0.1, 0.25, 0.5, 1.0] {
                let (kept, stats) = filter_edge_list(&el, prob, 0xF11);
                assert_eq!(
                    kruskal_msf(&kept),
                    oracle,
                    "prob {prob} changed the MSF (dropped {})",
                    stats.dropped_edges
                );
            }
        }
    }

    #[test]
    fn prob_zero_drops_nothing() {
        for el in families() {
            let (kept, stats) = filter_edge_list(&el, 0.0, 9);
            assert_eq!(kept.edges(), el.edges());
            assert_eq!(stats.sampled_edges, 0);
            assert_eq!(stats.dropped_edges, 0);
        }
    }

    #[test]
    fn prob_one_degenerates_to_kruskal() {
        // Every edge sampled: survivors are exactly the local MSF edges.
        for el in families() {
            let oracle = kruskal_msf(&el);
            let (kept, stats) = filter_edge_list(&el, 1.0, 9);
            assert_eq!(stats.sampled_edges, el.len());
            assert_eq!(stats.kept_edges(), oracle.edges.len());
            let mut kept_edges = kept.edges().to_vec();
            kept_edges.sort_unstable();
            let mut msf_edges = oracle.edges.clone();
            msf_edges.sort_unstable();
            assert_eq!(kept_edges, msf_edges);
        }
    }

    #[test]
    fn sampling_actually_prunes_dense_graphs() {
        // A complete graph is almost all non-MST edges: even a 25% sample's
        // forest should certify a large fraction of them away.
        let el = gen::complete(64, 7);
        let (_, stats) = filter_edge_list(&el, 0.25, 7);
        assert!(
            stats.dropped_edges > el.len() / 2,
            "dropped only {} of {}",
            stats.dropped_edges,
            el.len()
        );
    }

    #[test]
    fn mask_is_deterministic_and_seed_sensitive() {
        let el = gen::gnm(800, 6000, 11);
        let (a, _) = keep_mask(el.edges(), 0.3, 42);
        let (b, _) = keep_mask(el.edges(), 0.3, 42);
        assert_eq!(a, b);
        let (c, _) = keep_mask(el.edges(), 0.3, 43);
        assert_ne!(a, c, "different seeds should sample differently");
    }

    #[test]
    fn holding_filter_never_drops_cut_edges() {
        // Partition a dense graph across two ranks: every cut edge must
        // survive on the rank that filters, however redundant, because its
        // duplicate on the other rank would be certified differently.
        let el = gen::complete(60, 17);
        let range = mnd_graph::partition::VertexRange { start: 0, end: 30 };
        let mut cg = CGraph::level0(&el, &[range], 0..1).remove(0);
        let cut_before: Vec<WEdge> = cg
            .iter_edges()
            .filter(|e| !cg.is_resident(e.a) || !cg.is_resident(e.b))
            .map(|e| e.orig)
            .collect();
        assert!(!cut_before.is_empty(), "fixture must have cut edges");
        let stats = filter_holding(&mut cg, 0.5, 23);
        assert!(stats.dropped_edges > 0, "internal edges should shed");
        let cut_after: Vec<WEdge> = cg
            .iter_edges()
            .filter(|e| !cg.is_resident(e.a) || !cg.is_resident(e.b))
            .map(|e| e.orig)
            .collect();
        assert_eq!(cut_before, cut_after, "cut edges must all survive");
    }

    #[test]
    fn holding_filter_matches_edge_list_filter() {
        let el = gen::web_crawl(1500, 9000, gen::CrawlParams::default(), 13);
        let range = mnd_graph::partition::VertexRange {
            start: 0,
            end: el.num_vertices(),
        };
        let mut cg = CGraph::level0(&el, &[range], 0..1).remove(0);
        let before = cg.num_edges();
        let stats = filter_holding(&mut cg, 0.5, 21);
        assert_eq!(stats.input_edges, before);
        assert_eq!(cg.num_edges(), stats.kept_edges());
        // The survivors are exactly the edges the list-level filter keeps.
        let (kept_el, _) = filter_edge_list(&el, 0.5, 21);
        let mut held: Vec<WEdge> = cg.orig_col().to_vec();
        held.sort_unstable();
        let mut expect: Vec<WEdge> = kept_el.edges().to_vec();
        expect.sort_unstable();
        assert_eq!(held, expect);
    }
}
