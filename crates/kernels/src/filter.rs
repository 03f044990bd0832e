//! Filter-Boruvka (Sanders & Schimek, arXiv:2302.12199): drop provably
//! non-MST rows from a rank's level-0 holding before any exchange, kernel
//! sweep or segment shipment pays for them.
//!
//! **Certification.** One sweep decides every row in ascending `(w, u, v)`
//! order while a union-find joins the ends of every row that closes no
//! cycle. A row whose ends are already joined closes a cycle of strictly
//! lighter rows: by the cycle property it is that cycle's unique maximum,
//! so it is not in the (unique) MSF and dropping it is exact. Every row is
//! certified — sampling rows into the union-find (as Sanders & Schimek do)
//! only changes which non-cycle rows feed it, and every row is decided
//! either way, so a sample drops a subset of what the full sweep drops at
//! the same cost.
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
//! **Order.** Only the rows that can still join are ordered, as in
//! Filter-Kruskal: `certify` orders a light slice of the undecided rows
//! (every row up to a sampled weight, a few times the joins still open)
//! with `weight_order`'s O(rows) passes and sweeps it, then settles every
//! heavier row whose ends are already joined with one `find`, and repeats
//! on the rest. The mask is the full ordered sweep's, bit for bit.

use mnd_graph::{WEdge, Weight};

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
/// paths, in one column.
///
/// The rows are swept in `(w, u, v, row)` order, but only those that can
/// still join are ordered (Filter-Kruskal): each round orders the light
/// slice — every undecided row up to a weight threshold, sampled to hold a
/// few times the joins still open — and sweeps it, then decides every
/// heavier row whose ends are already joined with one `find` (an internal
/// one is dropped, a cut one kept). Rows of one weight share a slice, so
/// every row meets the union-find in the state the full ordered sweep
/// would show it, and the mask is that sweep's. Once every node is joined,
/// every row left closes a cycle.
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
    let ends = |i: u32| {
        let i = i as usize;
        (table[(ca[i] - lo) as usize], table[(cb[i] - lo) as usize])
    };

    let mut parent: Vec<u32> = (0..nodes).collect();
    let find = |parent: &mut [u32], mut x: u32| {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    };
    let edges = cg.orig_col();
    let w = |i: u32| edges[i as usize].w;
    keep.clear();
    keep.resize(edges.len(), true);
    let rows = u32::try_from(edges.len()).expect("row indexes are 32 bits");
    let (mut joins_left, mut dropped) = (parent.len().saturating_sub(1), 0);
    let (mut live, mut order_all): (Vec<u32>, bool) = ((0..rows).collect(), false);
    while joins_left > 0 && !live.is_empty() {
        // The light slice: every live row up to weight `t`. The heavier
        // ones stay in `live`, in row order.
        let (mut t, mut heavier) = (Weight::MAX, 0);
        let slice = SLICE_PER_JOIN * (joins_left + 1);
        let light = if !order_all && live.len() >= 2 * slice {
            t = slice_threshold(edges, &live, slice);
            let light: Vec<u32> = live.iter().copied().filter(|&i| w(i) <= t).collect();
            heavier = live.len() - light.len();
            light
        } else {
            std::mem::take(&mut live)
        };
        let order = weight_order(edges, light);
        let mut next = 0;
        while joins_left > 0 && next < order.len() {
            let i = order[next];
            next += 1;
            let (x, y) = ends(i);
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            if rx != ry {
                parent[rx.max(ry) as usize] = rx.min(ry);
                joins_left -= 1;
            } else if x < slots && y < slots {
                keep[i as usize] = false;
                dropped += 1;
            }
        }
        if joins_left == 0 {
            // Every node joined: the rows left are the heavier rows and
            // the slice's rest.
            live.retain(|&i| w(i) > t);
            live.extend_from_slice(&order[next..]);
            break;
        }
        // One `find` per heavier row: joined ends decide it.
        live.retain(|&i| {
            if w(i) <= t {
                return false;
            }
            let (x, y) = ends(i);
            if find(&mut parent, x) != find(&mut parent, y) {
                return true;
            }
            if x < slots && y < slots {
                keep[i as usize] = false;
                dropped += 1;
            }
            false
        });
        // A pass that decided under half of what it scanned did not pay:
        // order the rest at once.
        order_all = 2 * live.len() > heavier;
    }
    // Drop the rows left (all close cycles), then give back the cut rows
    // among them (the only cut rows a flag is down for).
    for &i in &live {
        keep[i as usize] = false;
    }
    dropped += live.len();
    if !live.is_empty() {
        for &c in cut {
            if !keep[c as usize] {
                keep[c as usize] = true;
                dropped -= 1;
            }
        }
    }
    dropped
}

/// Light-slice rows per join still open (plus one): enough that a slice
/// usually closes most of the joins, few enough that ordering it is cheap
/// next to ordering the holding.
const SLICE_PER_JOIN: usize = 4;

/// Rows of `live` the threshold is sampled from, evenly spaced.
const SLICE_SAMPLE: usize = 256;

/// A weight `t` such that about `slice` rows of `live` weigh at most `t`:
/// the matching quantile of an evenly spaced sample. The sampled row of
/// weight `t` is among them, so the slice is never empty.
fn slice_threshold(edges: &[WEdge], live: &[u32], slice: usize) -> Weight {
    let mut sample: Vec<Weight> = (0..SLICE_SAMPLE)
        .map(|k| edges[live[k * live.len() / SLICE_SAMPLE] as usize].w)
        .collect();
    let q = (slice * SLICE_SAMPLE / live.len()).min(SLICE_SAMPLE - 1);
    *sample.select_nth_unstable(q).1
}

/// `rows` of `edges` in ascending `(w, u, v)` order, identical edges in row
/// order, in O(rows): stable LSD counting passes on the weight above the
/// lightest one — as few as its span needs at up to 16 bits each, the
/// bits split evenly between them — then each run of one weight ordered by
/// `(u, v, row)`. Under the generators' 2²⁰ weights that is at most two
/// passes of ten bits and runs of a few rows.
fn weight_order(edges: &[WEdge], mut rows: Vec<u32>) -> Vec<u32> {
    let w = |i: u32| edges[i as usize].w;
    let (min, max) = rows
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &i| (lo.min(w(i)), hi.max(w(i))));
    let bits = u32::BITS - max.saturating_sub(min).leading_zeros();
    let passes = bits.div_ceil(16);
    if passes > 0 {
        let digit = bits.div_ceil(passes);
        let mut spare = vec![0u32; rows.len()];
        let mut count = vec![0u32; 1 << digit];
        for pass in 0..passes {
            let shift = pass * digit;
            let bucket = |i: u32| (((w(i) - min) >> shift) & ((1 << digit) - 1)) as usize;
            count.fill(0);
            for &i in &rows {
                count[bucket(i)] += 1;
            }
            let mut at = 0;
            for c in &mut count {
                (*c, at) = (at, at + *c);
            }
            for &i in &rows {
                let d = bucket(i);
                spare[count[d] as usize] = i;
                count[d] += 1;
            }
            std::mem::swap(&mut rows, &mut spare);
        }
    }
    for run in rows.chunk_by_mut(|&i, &j| w(i) == w(j)) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&i| (edges[i as usize].u, edges[i as usize].v, i));
        }
    }
    rows
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
    use mnd_graph::gen::{self, GeoPreset};
    use mnd_graph::partition::{partition_1d, VertexRange};
    use mnd_graph::presets::Preset;
    use mnd_graph::{CsrGraph, EdgeList};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// The 4-rank level-0 holdings of the benchmark's filtered engine
    /// workloads at a quarter of their size (the presets keep the density;
    /// the benchmark divides by 256, 2048 and 128): every mask is the
    /// comparison-sorted reference's. The crawls' holdings are dense enough
    /// for light slices (rows ≥ twice the first slice), geo-knn's are
    /// ordered whole.
    #[test]
    fn benchmark_density_holdings_equal_the_reference() {
        let workloads = [
            ("crawl-dnc", Preset::Arabic2005.generate(4 * 256, 42), true),
            (
                "scramble-dnc",
                Preset::Gsh2015Tpd.generate(4 * 2048, 42),
                true,
            ),
            ("geo-knn", GeoPreset::Cluster3d.generate(4 * 128, 42), false),
        ];
        for (name, el, sliced) in workloads {
            let ranges = partition_1d(&CsrGraph::from_edge_list(&el), 4, 0.0);
            for cg in CGraph::level0(&el, &ranges, 0..4) {
                let (rows, resident) = (cg.num_edges(), cg.num_resident());
                let (ca, cb) = cg.endpoint_cols();
                let ghosts: BTreeSet<CompId> = (cg.cut_rows().iter())
                    .flat_map(|&r| [ca[r as usize], cb[r as usize]])
                    .filter(|&c| !cg.is_resident(c))
                    .collect();
                let first_slice = SLICE_PER_JOIN * (resident + ghosts.len());
                assert!(filter_pays(rows, resident), "{name}: {rows} rows");
                assert_eq!(rows >= 2 * first_slice, sliced, "{name}: {rows} rows");
                let expect = reference_keep_mask(cg.orig_col(), |i| !is_cut(&cg, i));
                let (mut table, mut keep) = (Vec::new(), Vec::new());
                let dropped = certify(&cg, &mut table, &mut keep);
                assert!(keep == expect, "{name}: the mask moved");
                assert_eq!(dropped, expect.iter().filter(|&&k| !k).count());
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

    /// `el` reweighted from 1..=4 (seeded), so each weight is shared by
    /// about a quarter of the rows and ties straddle every threshold a
    /// slice can pick; with `heavy: Some((h, g))`, every row from below
    /// `h` to `g` or above weighs 4. Cut at `h`, the lower holding then has
    /// ghost ends that only the heaviest rows reach, so it stays open after
    /// its light slices, and ghost ends in `h..g` that light rows join
    /// first, so the heavier pass meets joined cut rows.
    fn tied(el: &EdgeList, seed: u64, heavy: Option<(u32, u32)>) -> EdgeList {
        let mut el = el.clone();
        el.assign_random_weights(seed, 4);
        let Some((h, g)) = heavy else {
            return el;
        };
        let edges = el.edges().iter().map(|e| {
            let w = if e.u < h && e.v >= g { 4 } else { e.w };
            WEdge::new(e.u, e.v, w)
        });
        EdgeList::from_raw(el.num_vertices(), edges.collect())
    }

    /// The complete bipartite graph between `0..a` and `a..a + b`.
    fn bipartite(a: u32, b: u32) -> EdgeList {
        let edges = (0..a).flat_map(|u| (a..a + b).map(move |v| WEdge::new(u, v, 0)));
        EdgeList::from_raw(a + b, edges.collect())
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

        /// Dense holdings with weights 1..=4 take the sliced path, with
        /// ties straddling every threshold: holdings that connect inside
        /// the first slice (complete graphs, gnm with m ≥ 8n), holdings
        /// that never connect (a disconnected union cut inside one of its
        /// parts, so joined cut rows are never given back wholesale) or
        /// only through their heaviest rows (see [`tied`]), and all-cut
        /// holdings (a bipartite graph cut between its sides). Every mask
        /// is the comparison-sorted reference's, and the whole graph's
        /// survivors are Kruskal's.
        #[test]
        fn sliced_certification_equals_the_reference_on_tied_weights(
            case in 0usize..5,
            n in 16u32..64,
            seed in 0u64..1_000,
            parts in 1usize..4,
        ) {
            let (h, m) = (n / 2, 10 * u64::from(n));
            let (el, cut_at) = match case {
                0 => (gen::complete(n, seed), None),
                1 => (gen::gnm(n, m, seed), None),
                2 => {
                    let union = [gen::complete(n, seed), gen::complete(h, seed)];
                    (gen::disconnected_union(&union), Some(h))
                }
                3 => (gen::complete(n, seed), Some(h)),
                _ => (bipartite(h, n - h), Some(h)),
            };
            let el = tied(&el, seed, (case == 3).then_some((h, h + h / 2)));
            let ranges = match cut_at {
                Some(h) => {
                    let cut = |start, end| VertexRange { start, end };
                    vec![cut(0, h), cut(h, el.num_vertices())]
                }
                None => partition_1d(&CsrGraph::from_edge_list(&el), parts, 0.0),
            };
            for cg in CGraph::level0(&el, &ranges, 0..ranges.len()) {
                let expect = reference_keep_mask(cg.orig_col(), |i| !is_cut(&cg, i));
                let (mut table, mut keep) = (Vec::new(), Vec::new());
                let dropped = certify(&cg, &mut table, &mut keep);
                prop_assert_eq!(&keep, &expect);
                prop_assert_eq!(dropped, expect.iter().filter(|&&k| !k).count());
            }
            let whole = VertexRange { start: 0, end: el.num_vertices() };
            let mut forest = certified_forest(CGraph::level0(&el, &[whole], 0..1).remove(0));
            forest.sort_unstable();
            let mut msf = kruskal_msf(&el).edges;
            msf.sort_unstable();
            prop_assert_eq!(forest, msf);
        }

        /// The radix order of a row subset is the comparison order, on
        /// lists with heavy weight ties (few weights, repeated pairs), with
        /// weights that need both 16-bit digits and with weights far above
        /// zero.
        #[test]
        fn weight_order_equals_the_comparison_sort(
            raw in proptest::collection::vec((0u32..40, 0u32..40, 0u32..6), 0..300),
            high in 0u32..3,
            base in 0u32..2,
            stride in 1usize..4,
        ) {
            let edges: Vec<WEdge> = raw
                .iter()
                .map(|&(u, v, w)| {
                    WEdge::new(u, v, (base << 31) + w * [1, 40_503, 1 << 28][high as usize])
                })
                .collect();
            let rows: Vec<u32> = (0..edges.len() as u32).step_by(stride).collect();
            let got = weight_order(&edges, rows.clone());
            let mut expect = rows.clone();
            expect.sort_unstable_by_key(|&i| edges[i as usize].key());
            let keys = |order: &[u32]| -> Vec<_> {
                order.iter().map(|&i| edges[i as usize].key()).collect()
            };
            prop_assert_eq!(keys(&got), keys(&expect));
            // Identical edges keep row order: the order is total.
            let mut stable = rows;
            stable.sort_by_key(|&i| edges[i as usize].key());
            prop_assert_eq!(got, stable);
        }
    }
}
