//! Filter-Boruvka (Sanders & Schimek, arXiv:2302.12199): drop provably
//! non-MST rows from a rank's level-0 holding before any exchange, kernel
//! sweep or segment shipment pays for them.
//!
//! **Certification.** One sweep visits every row in ascending `(w, u, v)`
//! order while a union-find joins the ends of every row that closes no
//! cycle. A row whose ends are already joined closes a cycle of strictly
//! lighter rows: by the cycle property it is that cycle's unique maximum,
//! so it is not in the (unique) MSF and dropping it is exact. Every row is
//! certified — sampling only changes which non-cycle rows feed the
//! union-find, and the sweep visits every row either way, so a sample
//! drops a subset of what the full sweep drops at the same cost.
//!
//! **Cut rows are never dropped.** A cut row is held by the owners of both
//! ends, and the ghost-parent protocol relies on both copies: each holder
//! certifies against its own rows only, so the two could disagree, and a
//! holder that kept its copy would never hear of the other side's renames.
//! An internal row lives on one rank, so shedding it is safe; cut rows
//! still feed the union-find.
//!
//! **When.** `filter_pays` decides from the holding's row and resident
//! counts alone (DESIGN.md §8 derives it). A holding with no cut rows — the
//! final rank's — is certified whatever the rule says: nothing is exempt,
//! so its survivors are its minimum spanning forest (`certified_forest`).
//! **Order.** `weight_order` orders the rows in O(rows) passes.

use mnd_graph::WEdge;

use crate::cgraph::{CGraph, CompId};
#[cfg(test)]
use crate::dsu::DisjointSets;

/// An id in the span table of `certify` that no row references.
const UNNUMBERED: u32 = u32::MAX;

/// What one filtering sweep saw and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Rows examined.
    pub input_edges: usize,
    /// Rows dropped as certified cycle maxima.
    pub dropped_edges: usize,
}

impl FilterStats {
    /// Rows that survived the sweep.
    pub fn kept_edges(&self) -> usize {
        self.input_edges - self.dropped_edges
    }
}

/// The rule: a holding of `rows` rows over `resident` resident vertices is
/// worth a filtering sweep iff it has at least two rows per resident. A
/// sparser holding is mostly spanning forest — the sweep would keep most
/// of its rows and still cost a full pass.
#[inline]
fn filter_pays(rows: usize, resident: usize) -> bool {
    rows >= 2 * resident
}

/// Filters a holding in place when it has at least two rows per resident
/// vertex (the rule), dropping its certified non-MSF internal rows;
/// survivors keep their order and a known cut-row list follows them.
/// `None` when the rule leaves the holding alone. The sweep's id table
/// spans the ids of the residents and the ghost ends — at level 0, at most
/// the graph's vertex count.
pub fn filter_holding(cg: &mut CGraph) -> Option<FilterStats> {
    let input_edges = cg.num_edges();
    if !filter_pays(input_edges, cg.num_resident()) {
        return None;
    }
    let dropped_edges = cg.with_scratch(|cg, table, keep| {
        let dropped = certify(cg, table, keep);
        cg.retain_edge_rows(keep);
        dropped
    });
    Some(FilterStats {
        input_edges,
        dropped_edges,
    })
}

/// The minimum spanning forest of a holding with no cut rows, as the
/// original edges of its rows: one certification sweep, whose survivors
/// are exactly the rows that close no cycle of lighter rows.
pub fn certified_forest(mut cg: CGraph) -> Vec<WEdge> {
    debug_assert!(cg.cut_rows().is_empty(), "a holding with cut rows");
    cg.with_scratch(|cg, table, keep| {
        certify(cg, table, keep);
        let rows = cg.orig_col().iter().zip(keep.iter());
        rows.filter(|&(_, &k)| k).map(|(&e, _)| e).collect()
    })
}

/// The certification sweep: fills `keep` with one flag per row (`false`:
/// a certified internal cycle maximum) and returns the number of drops.
///
/// The union-find has one node per resident slot and one per ghost end the
/// cut rows reference, numbered after the slots in order of first
/// appearance; `table` (the holding's index-table scratch) maps every id in
/// the span of those ends to its node, so a row is internal iff both its
/// nodes are slots. It links the larger root under the smaller and halves
/// paths, in one column. Once every node is joined, every row left closes
/// a cycle.
fn certify(cg: &CGraph, table: &mut Vec<u32>, keep: &mut Vec<bool>) -> usize {
    let (ca, cb) = cg.endpoint_cols();
    let (resident, cut) = (cg.resident(), cg.cut_rows());
    let cut_ends = || cut.iter().flat_map(|&r| [ca[r as usize], cb[r as usize]]);
    let (lo, hi) = cut_ends()
        .chain(resident.first().copied())
        .chain(resident.last().copied())
        .fold((CompId::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
    table.clear();
    table.resize(hi.saturating_sub(lo) as usize + 1, UNNUMBERED);
    for (slot, &c) in resident.iter().enumerate() {
        table[(c - lo) as usize] = slot as u32;
    }
    // Every end still unnumbered is a ghost.
    let slots = resident.len() as u32;
    let mut nodes = slots;
    for c in cut_ends() {
        let at = &mut table[(c - lo) as usize];
        if *at == UNNUMBERED {
            (*at, nodes) = (nodes, nodes + 1);
        }
    }
    let node = |c: CompId| table[(c - lo) as usize];

    let mut parent: Vec<u32> = (0..nodes).collect();
    let find = |parent: &mut [u32], mut x: u32| {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    };
    keep.clear();
    keep.resize(cg.num_edges(), true);
    let order = weight_order(cg.orig_col());
    let (mut joins_left, mut dropped, mut next) = (parent.len().saturating_sub(1), 0, 0);
    while joins_left > 0 && next < order.len() {
        let i = order[next] as usize;
        next += 1;
        let (x, y) = (node(ca[i]), node(cb[i]));
        let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
        if rx != ry {
            parent[rx.max(ry) as usize] = rx.min(ry);
            joins_left -= 1;
        } else if x < slots && y < slots {
            keep[i] = false;
            dropped += 1;
        }
    }
    // Every node joined: drop the rows left, then give back the cut rows
    // among them (the only cut rows a flag is down for).
    let rest = &order[next..];
    for &i in rest {
        keep[i as usize] = false;
    }
    dropped += rest.len();
    if !rest.is_empty() {
        for &c in cut {
            if !keep[c as usize] {
                keep[c as usize] = true;
                dropped -= 1;
            }
        }
    }
    dropped
}

/// The row indexes of `edges` in ascending `(w, u, v)` order, identical
/// edges in row order, in O(rows): stable LSD counting passes on the
/// weight's 16-bit digits — none above the largest weight's top digit —
/// then each run of one weight ordered by `(u, v)`. Under the generators'
/// 2²⁰ weights that is two passes and runs of a few rows.
fn weight_order(edges: &[WEdge]) -> Vec<u32> {
    const DIGIT: u32 = 16;
    let top = edges.iter().map(|e| e.w).max().unwrap_or(0);
    let rows = u32::try_from(edges.len()).expect("row indexes are 32 bits");
    let mut order: Vec<u32> = (0..rows).collect();
    let mut spare = vec![0u32; order.len()];
    let mut count = vec![0u32; 1 << DIGIT];
    let mut shift = 0;
    while shift < u32::BITS && top >> shift != 0 {
        let digit = |i: u32| ((edges[i as usize].w >> shift) & ((1 << DIGIT) - 1)) as usize;
        count.fill(0);
        for &i in &order {
            count[digit(i)] += 1;
        }
        let mut at = 0;
        for c in &mut count {
            (*c, at) = (at, at + *c);
        }
        for &i in &order {
            let d = digit(i);
            spare[count[d] as usize] = i;
            count[d] += 1;
        }
        std::mem::swap(&mut order, &mut spare);
        shift += DIGIT;
    }
    for run in order.chunk_by_mut(|&i, &j| edges[i as usize].w == edges[j as usize].w) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&i| (edges[i as usize].u, edges[i as usize].v, i));
        }
    }
    order
}

/// The comparison-sorted certification the radix sweep replaced, kept as
/// the reference its tests compare against: an index permutation sorted by
/// `(w, u, v)` (stably, so identical edges drop alike) and a union-find over
/// the original vertex ids up to the largest one.
#[cfg(test)]
fn reference_keep_mask(edges: &[WEdge], droppable: impl Fn(usize) -> bool) -> Vec<bool> {
    let n = edges.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| edges[i].key());
    let mut dsu = DisjointSets::new(n);
    let mut keep = vec![true; edges.len()];
    for &i in &order {
        let e = &edges[i];
        if dsu.same(e.u, e.v) {
            keep[i] = !droppable(i);
        } else {
            dsu.union(e.u, e.v);
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boruvka::local_boruvka;
    use crate::oracle::kruskal_msf;
    use crate::policy::{ExcpCond, FreezePolicy, StopPolicy};
    use mnd_graph::gen;
    use mnd_graph::partition::{partition_1d, VertexRange};
    use mnd_graph::{CsrGraph, EdgeList};
    use proptest::prelude::*;

    fn families() -> Vec<EdgeList> {
        vec![
            gen::path(50, 1),
            gen::cycle(40, 2),
            gen::complete(40, 3),
            gen::gnm(2000, 12_000, 4),
            gen::web_crawl(3000, 20_000, gen::CrawlParams::default(), 5),
            gen::disconnected_union(&[gen::gnm(500, 3000, 1), gen::path(20, 2)]),
            gen::road_grid(30, 30, 0.02, 0.38, 6),
        ]
    }

    /// Every family cut into 1, 2, 3 and 5 level-0 holdings.
    fn holdings() -> Vec<(EdgeList, Vec<CGraph>)> {
        families()
            .into_iter()
            .flat_map(|el| {
                let csr = CsrGraph::from_edge_list(&el);
                [1, 2, 3, 5].map(|p| {
                    let ranges = partition_1d(&csr, p, 0.0);
                    (el.clone(), CGraph::level0(&el, &ranges, 0..p))
                })
            })
            .collect()
    }

    fn is_cut(cg: &CGraph, i: usize) -> bool {
        let e = cg.edge(i);
        !cg.is_resident(e.a) || !cg.is_resident(e.b)
    }

    /// The radix sweep's mask is the comparison-sorted reference's, row for
    /// row, on every holding (whatever the rule would say).
    #[test]
    fn certification_equals_the_comparison_sorted_reference() {
        for (_, held) in holdings() {
            for cg in held {
                let expect = reference_keep_mask(cg.orig_col(), |i| !is_cut(&cg, i));
                let mut got = cg.clone();
                let (mut table, mut keep) = (Vec::new(), Vec::new());
                let dropped = certify(&got, &mut table, &mut keep);
                assert_eq!(keep, expect);
                assert_eq!(dropped, expect.iter().filter(|&&k| !k).count());
                // Filtering the holding applies exactly that mask.
                let before = got.clone();
                if let Some(stats) = filter_holding(&mut got) {
                    assert_eq!(stats.dropped_edges, dropped);
                    let kept: Vec<WEdge> = (0..before.num_edges())
                        .filter(|&i| expect[i])
                        .map(|i| before.orig_col()[i])
                        .collect();
                    assert_eq!(got.orig_col(), &kept[..]);
                }
            }
        }
    }

    /// Cut into holdings, the survivors of all of them still carry the MSF.
    #[test]
    fn filtered_holdings_keep_the_msf() {
        for (el, held) in holdings() {
            let mut survivors: Vec<WEdge> = Vec::new();
            for mut cg in held {
                filter_holding(&mut cg);
                survivors.extend_from_slice(cg.orig_col());
            }
            survivors.sort_unstable();
            survivors.dedup();
            let filtered = EdgeList::from_raw(el.num_vertices(), survivors);
            assert_eq!(kruskal_msf(&filtered), kruskal_msf(&el));
        }
    }

    /// A whole-graph holding has no cut rows, so a filtered one keeps
    /// exactly its MSF.
    #[test]
    fn whole_graph_filter_keeps_exactly_the_msf() {
        let mut filtered = 0;
        for el in families() {
            let range = VertexRange {
                start: 0,
                end: el.num_vertices(),
            };
            let mut cg = CGraph::level0(&el, &[range], 0..1).remove(0);
            if filter_holding(&mut cg).is_none() {
                continue;
            }
            filtered += 1;
            let mut kept = cg.orig_col().to_vec();
            kept.sort_unstable();
            let mut msf = kruskal_msf(&el).edges;
            msf.sort_unstable();
            assert_eq!(kept, msf);
        }
        assert!(filtered >= 4, "only {filtered} dense families");
    }

    #[test]
    fn holding_filter_never_drops_cut_edges() {
        // Partition a dense graph across two ranks: every cut edge must
        // survive on the rank that filters, however redundant, because its
        // duplicate on the other rank would be certified differently.
        let el = gen::complete(60, 17);
        let range = VertexRange { start: 0, end: 30 };
        let mut cg = CGraph::level0(&el, &[range], 0..1).remove(0);
        let cut = |cg: &CGraph| -> Vec<WEdge> {
            cg.cut_rows()
                .iter()
                .map(|&i| cg.orig_col()[i as usize])
                .collect()
        };
        let cut_before = cut(&cg);
        assert!(!cut_before.is_empty(), "fixture must have cut edges");
        let stats = filter_holding(&mut cg).expect("a complete graph is dense");
        assert!(stats.dropped_edges > 0, "internal edges should shed");
        assert_eq!(cut_before, cut(&cg), "cut edges must all survive");
        // The cut-row list the filter carried over is the one a fresh
        // sweep finds.
        let rows = cg.cut_rows().to_vec();
        let fresh: Vec<u32> = (0..cg.num_edges())
            .filter(|&i| is_cut(&cg, i))
            .map(|i| i as u32)
            .collect();
        assert_eq!(rows, fresh);
    }

    /// The rule reads the counts: a road grid's holdings (≈ 1.3 rows per
    /// resident) are left alone, a web crawl's are filtered.
    #[test]
    fn rule_skips_road_grids_and_filters_crawls() {
        let cut = |el: &EdgeList| {
            let ranges = partition_1d(&CsrGraph::from_edge_list(el), 4, 0.0);
            CGraph::level0(el, &ranges, 0..4)
        };
        for mut cg in cut(&gen::road_grid(60, 60, 0.02, 0.38, 3)) {
            let before = cg.clone();
            assert!(cg.num_edges() < 2 * cg.num_resident());
            assert_eq!(filter_holding(&mut cg), None);
            assert_eq!(cg, before);
        }
        let crawl = gen::web_crawl(2000, 30_000, gen::CrawlParams::default(), 5);
        for mut cg in cut(&crawl) {
            let stats = filter_holding(&mut cg).expect("a crawl holding is dense");
            assert!(stats.dropped_edges > 0, "{stats:?}");
            assert_eq!(cg.num_edges(), stats.kept_edges());
        }
    }

    /// Family `f` of [`families`]' seven at about `n` vertices, seeded.
    fn family(f: usize, n: u32, seed: u64) -> EdgeList {
        let m = u64::from(n);
        match f {
            0 => gen::path(n, seed),
            1 => gen::cycle(n, seed),
            2 => gen::complete(n.min(40), seed),
            3 => gen::gnm(n, 6 * m, seed),
            4 => gen::web_crawl(n, 7 * m, gen::CrawlParams::default(), seed),
            5 => gen::disconnected_union(&[gen::gnm(n, 3 * m, seed), gen::path(20, seed)]),
            _ => gen::road_grid(n / 8 + 2, 8, 0.02, 0.38, seed),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A holding with no cut rows keeps exactly its forest, whatever
        /// the rule would say: on every family's whole graph (the path and
        /// the road grid too, which the rule leaves alone) and after a
        /// partial contraction (renamed ends, rows not yet reduced), the
        /// kernel's edges and the survivors are Kruskal's forest.
        #[test]
        fn certified_forest_of_a_closed_holding_is_kruskals(
            f in 0usize..7,
            n in 8u32..300,
            seed in 0u64..1_000,
            contract in proptest::bool::ANY,
        ) {
            let el = family(f, n, seed);
            let whole = VertexRange { start: 0, end: el.num_vertices() };
            let mut cg = CGraph::level0(&el, &[whole], 0..1).remove(0);
            let mut forest = Vec::new();
            if contract {
                let stop = StopPolicy::DiminishingBenefit { min_improvement: 0.9 };
                let out = local_boruvka(&mut cg, ExcpCond::None, FreezePolicy::Sticky, stop);
                forest = out.msf_edges;
            }
            forest.extend(certified_forest(cg));
            forest.sort_unstable();
            let mut msf = kruskal_msf(&el).edges;
            msf.sort_unstable();
            prop_assert_eq!(forest, msf);
        }

        /// The radix order is the comparison order, on lists with heavy
        /// weight ties (few weights, repeated pairs) and with weights that
        /// need both 16-bit digits.
        #[test]
        fn weight_order_equals_the_comparison_sort(
            raw in proptest::collection::vec((0u32..40, 0u32..40, 0u32..6), 0..300),
            high in 0u32..3,
        ) {
            let edges: Vec<WEdge> = raw
                .iter()
                .map(|&(u, v, w)| WEdge::new(u, v, w * [1, 40_503, 1 << 28][high as usize]))
                .collect();
            let got = weight_order(&edges);
            let mut expect: Vec<u32> = (0..edges.len() as u32).collect();
            expect.sort_unstable_by_key(|&i| edges[i as usize].key());
            let keys = |order: &[u32]| -> Vec<_> {
                order.iter().map(|&i| edges[i as usize].key()).collect()
            };
            prop_assert_eq!(keys(&got), keys(&expect));
            // Identical edges keep row order: the order is total.
            let mut stable: Vec<u32> = (0..edges.len() as u32).collect();
            stable.sort_by_key(|&i| edges[i as usize].key());
            prop_assert_eq!(got, stable);
        }
    }
}
