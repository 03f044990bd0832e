//! Adversarial-input tests: the full pipeline on degenerate, hostile, and
//! boundary-condition inputs. (Fault *injection* — message drops, crashes,
//! leader failures — lives in `tests/chaos.rs`.)

use mnd::device::NodePlatform;
use mnd::graph::{gen, EdgeList, WEdge};
use mnd::hypar::HyParConfig;
use mnd::kernels::kruskal_msf;
use mnd::mst::MndMstRunner;
use mnd::pregel::{pregel_msf, BspConfig};

fn both_match_oracle(el: &EdgeList, nranks: usize) {
    let oracle = kruskal_msf(el);
    let mnd = MndMstRunner::new(nranks).run(el);
    assert_eq!(mnd.msf, oracle, "MND-MST");
    let bsp = pregel_msf(
        el,
        nranks,
        &NodePlatform::amd_cluster(),
        &BspConfig::default(),
    );
    assert_eq!(bsp.msf, oracle, "BSP");
}

#[test]
fn empty_graph_zero_vertices() {
    let el = EdgeList::new(0);
    let r = MndMstRunner::new(3).run(&el);
    assert!(r.msf.edges.is_empty());
    assert_eq!(r.msf.num_components, 0);
}

#[test]
fn single_vertex_no_edges() {
    both_match_oracle(&EdgeList::new(1), 4);
}

#[test]
fn all_isolated_vertices() {
    let el = EdgeList::new(1000);
    let r = MndMstRunner::new(8).run(&el);
    assert_eq!(r.msf.num_components, 1000);
}

#[test]
fn single_edge_many_ranks() {
    let el = EdgeList::from_raw(2, vec![WEdge::new(0, 1, 7)]);
    both_match_oracle(&el, 8);
}

#[test]
fn input_with_self_loops_and_duplicates() {
    // from_raw canonicalises; the pipeline must cope with the result.
    let el = EdgeList::from_raw(
        10,
        vec![
            WEdge::new(0, 0, 5),
            WEdge::new(1, 2, 3),
            WEdge::new(2, 1, 9), // duplicate pair, heavier
            WEdge::new(3, 3, 1),
            WEdge::new(4, 5, 2),
        ],
    );
    both_match_oracle(&el, 4);
}

#[test]
fn pathological_weights_extremes() {
    let el = EdgeList::from_raw(
        6,
        vec![
            WEdge::new(0, 1, u32::MAX),
            WEdge::new(1, 2, 0),
            WEdge::new(2, 3, u32::MAX),
            WEdge::new(3, 4, 1),
            WEdge::new(4, 5, u32::MAX - 1),
        ],
    );
    both_match_oracle(&el, 3);
}

#[test]
fn everything_in_one_partition() {
    // All edges among the first few vertices: most ranks own edgeless
    // ranges and must still participate in every collective.
    let mut el = EdgeList::new(1000);
    for i in 0..20u32 {
        for j in (i + 1)..20 {
            el.push(i, j, 0);
        }
    }
    el.canonicalize();
    el.assign_random_weights(3, 1000);
    both_match_oracle(&el, 8);
}

#[test]
fn long_path_crossing_every_partition() {
    // A path is the maximum-cut-edge case for 1D partitioning chains.
    both_match_oracle(&gen::path(2000, 5), 16);
}

#[test]
fn two_cliques_joined_by_one_bridge() {
    let mut a = gen::complete(30, 1).into_edges();
    let b = gen::complete(30, 2);
    for e in b.edges() {
        a.push(WEdge::new(e.u + 30, e.v + 30, e.w));
    }
    a.push(WEdge::new(29, 30, 999_999)); // heavy bridge, still in MST
    let el = EdgeList::from_raw(60, a);
    let oracle = kruskal_msf(&el);
    assert!(oracle.edges.contains(&WEdge::new(29, 30, 999_999)));
    both_match_oracle(&el, 6);
}

#[test]
fn degenerate_config_values() {
    let el = gen::gnm(200, 800, 9);
    let oracle = kruskal_msf(&el);
    // Group size 1: every rank is its own leader; levels degenerate but
    // must terminate.
    let cfg = HyParConfig {
        group_size: 1,
        ..Default::default()
    };
    let r = MndMstRunner::new(4).with_config(cfg).run(&el);
    assert_eq!(r.msf, oracle);
    // Group size larger than the cluster.
    let cfg = HyParConfig {
        group_size: 64,
        ..Default::default()
    };
    let r = MndMstRunner::new(4).with_config(cfg).run(&el);
    assert_eq!(r.msf, oracle);
    // Zero-improvement stop policy threshold (never stop early).
    let cfg = HyParConfig {
        stop: mnd::kernels::policy::StopPolicy::DiminishingBenefit {
            min_improvement: 0.0,
        },
        ..Default::default()
    };
    let r = MndMstRunner::new(4).with_config(cfg).run(&el);
    assert_eq!(r.msf, oracle);
}

#[test]
fn tiny_ghost_phase_size_forces_many_phases() {
    let el = gen::web_crawl(1500, 12_000, gen::CrawlParams::default(), 13);
    let oracle = kruskal_msf(&el);
    let mut runner = MndMstRunner::new(6);
    runner.ghost_phase_size = 3; // pathological: tiny phases
    let r = runner.run(&el);
    assert_eq!(r.msf, oracle);
}

#[test]
fn bsp_with_all_optimisations_off() {
    let el = gen::gnm(300, 1500, 15);
    let oracle = kruskal_msf(&el);
    let cfg = BspConfig {
        combine: false,
        mirror_threshold: None,
        ..Default::default()
    };
    let r = pregel_msf(&el, 5, &NodePlatform::amd_cluster(), &cfg);
    assert_eq!(r.msf, oracle);
}

#[test]
fn weights_all_equal_distributed_ties() {
    let mut el = gen::rmat(256, 2048, gen::RmatProbs::MILD, 17);
    el.assign_random_weights(1, 1); // all weight 1: pure tie-breaking
    both_match_oracle(&el, 7);
}

/// A list built with `push` and never canonicalised: pairs at two and
/// three weights, in both orientations, the lightest copy not first. Two
/// rows of one pair at different weights are two original edges to a
/// holding (identity is the whole `(w, u, v)`): both must travel through
/// every recombination, and the lighter one win the pair. Every engine, at
/// rank counts that cut the list differently, and `mnd-mst` once more in
/// groups of two with a threshold low enough that ring levels run: the
/// forest is Kruskal's of the canonicalised list.
#[test]
fn uncanonicalised_list_with_pairs_at_several_weights() {
    use mnd::engines::{registry, EngineParams};

    let base = gen::gnm(120, 480, 21);
    let mut el = EdgeList::new(120);
    for (i, e) in base.edges().iter().enumerate() {
        match i % 4 {
            // Heavier copy first, reversed; then the original.
            0 => {
                el.push(e.v, e.u, e.w + 5);
                el.push(e.u, e.v, e.w);
            }
            // Three weights, the lightest in the middle.
            1 => {
                el.push(e.u, e.v, e.w + 2);
                el.push(e.v, e.u, e.w);
                el.push(e.u, e.v, e.w + 9);
            }
            2 => el.push(e.v, e.u, e.w),
            _ => el.push(e.u, e.v, e.w),
        }
    }
    assert!(el.len() > base.len());
    let mut canonical = el.clone();
    canonical.canonicalize();
    assert_eq!(canonical, base);
    let oracle = kruskal_msf(&canonical);

    for nranks in [1, 2, 4, 7] {
        for engine in registry(&EngineParams::new(nranks)) {
            let r = engine.run(&el);
            assert_eq!(r.msf, oracle, "{} on {nranks} ranks", engine.name());
        }
    }
    let cfg = HyParConfig {
        group_size: 2,
        group_edge_threshold: 16,
        merge_min_shrink: 0.0,
        ..Default::default()
    };
    let ring = MndMstRunner::new(4).with_config(cfg).run(&el);
    assert!(ring.exchange_rounds > 0 && ring.levels == 2);
    assert_eq!(ring.msf, oracle, "mnd-mst in groups of two");
}
