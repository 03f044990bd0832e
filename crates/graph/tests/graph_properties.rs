//! Property tests on the graph substrate: serialisation round trips,
//! generator invariants, partitioning bounds, transform correctness.

use mnd_graph::components::forest_labels;
use mnd_graph::edgelist::splitmix64;
use mnd_graph::gen::{self, cut_fraction, CrawlParams};
use mnd_graph::io;
use mnd_graph::partition::{
    edge_imbalance, owner_of, partition_1d, split_range_by_ratio, VertexRange,
};
use mnd_graph::transform::{bfs_relabel, largest_component, sort_by_degree};
use mnd_graph::types::WEdge;
use mnd_graph::{connected_components, CsrGraph, EdgeList};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        1..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..10_000), 0..max_e),
    )
        .prop_map(|(n, raw)| {
            EdgeList::from_raw(
                n,
                raw.into_iter()
                    .map(|(a, b, w)| WEdge::new(a % n, b % n, w))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_io_round_trip(el in arb_edges(200, 600)) {
        let mut buf = Vec::new();
        io::write_binary(&el, &mut buf).unwrap();
        prop_assert_eq!(io::read_binary(&buf[..]).unwrap(), el);
    }

    #[test]
    fn text_io_round_trip(el in arb_edges(150, 400)) {
        let mut buf = Vec::new();
        io::write_text(&el, &mut buf).unwrap();
        prop_assert_eq!(io::read_text(&buf[..]).unwrap(), el);
    }

    #[test]
    fn csr_symmetry_and_arc_count(el in arb_edges(150, 500)) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_undirected_edges() as usize, el.len());
        let degree_sum: u64 = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_arcs());
    }

    #[test]
    fn owner_of_agrees_with_ranges(el in arb_edges(300, 800), parts in 1usize..10) {
        let g = CsrGraph::from_edge_list(&el);
        let ranges = partition_1d(&g, parts, 0.5);
        for v in 0..g.num_vertices() {
            let o = owner_of(&ranges, v);
            prop_assert!(ranges[o].contains(v));
        }
    }

    #[test]
    fn ratio_split_is_exhaustive_and_ordered(
        el in arb_edges(200, 600),
        ratio in 0.0f64..1.0,
    ) {
        let g = CsrGraph::from_edge_list(&el);
        let whole = VertexRange { start: 0, end: g.num_vertices() };
        let (a, b) = split_range_by_ratio(&g, whole, ratio);
        prop_assert_eq!(a.start, 0);
        prop_assert_eq!(a.end, b.start);
        prop_assert_eq!(b.end, g.num_vertices());
    }

    #[test]
    fn generators_respect_bounds(n in 4u32..200, m in 1u64..2000, seed in 0u64..50) {
        for el in [
            gen::gnm(n, m, seed),
            gen::web_crawl(n.max(2), m, CrawlParams::default(), seed),
        ] {
            for e in el.edges() {
                prop_assert!(e.u < e.v, "canonical order");
                prop_assert!(e.v < el.num_vertices());
                prop_assert!(e.w >= 1);
            }
        }
    }

    #[test]
    fn transforms_preserve_weight_multiset(el in arb_edges(120, 400)) {
        let weights = |e: &EdgeList| {
            let mut w: Vec<u32> = e.edges().iter().map(|x| x.w).collect();
            w.sort_unstable();
            w
        };
        let base = weights(&el);
        prop_assert_eq!(weights(&bfs_relabel(&el)), base.clone());
        prop_assert_eq!(weights(&sort_by_degree(&el)), base);
    }

    #[test]
    fn transforms_preserve_component_structure(el in arb_edges(100, 300)) {
        let comp_sizes = |e: &EdgeList| {
            let comp = connected_components(&CsrGraph::from_edge_list(e));
            let mut m = std::collections::HashMap::new();
            for c in comp {
                *m.entry(c).or_insert(0u32) += 1;
            }
            let mut sizes: Vec<u32> = m.into_values().collect();
            sizes.sort_unstable();
            sizes
        };
        prop_assert_eq!(comp_sizes(&bfs_relabel(&el)), comp_sizes(&el));
        // largest_component's vertex count equals the max size.
        let big = largest_component(&el);
        let sizes = comp_sizes(&el);
        prop_assert_eq!(big.num_vertices(), *sizes.last().unwrap_or(&0));
    }

    /// Labels straight from a forest's edge slice equal BFS labels over its
    /// CSR. Vertex `v > 0` hangs under a smaller vertex or stays a root
    /// (one in three), so the forests have isolated vertices in the middle
    /// and at the end of the id space; the edges arrive in a scrambled
    /// order, so roots are re-parented after their trees have grown.
    #[test]
    fn forest_labels_equal_bfs_labels_over_the_csr(
        n in 1u32..120,
        raw in proptest::collection::vec((0u32..1000, 0u32..3), 120..121),
        seed in 0u64..1000,
    ) {
        let mut edges: Vec<WEdge> = (1..n)
            .filter(|&v| raw[v as usize].1 != 0)
            .map(|v| WEdge::new(raw[v as usize].0 % v, v, v))
            .collect();
        edges.sort_by_key(|e| splitmix64(seed ^ e.v as u64));
        let bfs = connected_components(&CsrGraph::from_edges(n, &edges));
        prop_assert_eq!(forest_labels(n, &edges), bfs);
    }

    /// Nothing in the union-find needs the input to be acyclic.
    #[test]
    fn forest_labels_equal_bfs_labels_on_any_graph(el in arb_edges(100, 300)) {
        let bfs = connected_components(&CsrGraph::from_edge_list(&el));
        prop_assert_eq!(forest_labels(el.num_vertices(), el.edges()), bfs);
    }

    #[test]
    fn cut_fraction_in_unit_interval(el in arb_edges(100, 300), parts in 1u32..20) {
        let f = cut_fraction(&el, parts);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(cut_fraction(&el, 1), 0.0);
    }
}

#[test]
fn partition_balance_on_large_uniform_graph() {
    let g = CsrGraph::from_edge_list(&gen::gnm(20_000, 120_000, 1));
    for parts in [2, 4, 8, 16, 32] {
        let ranges = partition_1d(&g, parts, 0.0);
        let imb = edge_imbalance(&g, &ranges);
        assert!(imb < 1.1, "parts={parts} imbalance {imb}");
    }
}

#[test]
fn presets_generate_at_extreme_scales() {
    // No preset may panic at any plausible scale.
    for p in mnd_graph::presets::Preset::ALL {
        for scale in [4096, 16384, 262144, 10_000_000] {
            let el = p.generate(scale, 1);
            assert!(el.num_vertices() >= 2, "{} @{scale}", p.name());
        }
    }
}
