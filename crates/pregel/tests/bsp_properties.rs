//! Property tests of the BSP baseline: oracle equality across every
//! optimisation combination, and superstep-count structure.

use mnd_device::NodePlatform;
use mnd_graph::types::WEdge;
use mnd_graph::{gen, EdgeList};
use mnd_kernels::oracle::kruskal_msf;
use mnd_pregel::{pregel_bfs, pregel_msf, BspConfig};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        2..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..500), 0..max_e),
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn msf_matches_oracle_under_all_optimisation_combos(
        el in arb_edges(80, 250),
        nranks in 1usize..6,
        combine in proptest::bool::ANY,
        mirror in proptest::bool::ANY,
    ) {
        let cfg = BspConfig {
            combine,
            mirror_threshold: mirror.then_some(8),
            ..Default::default()
        };
        let r = pregel_msf(&el, nranks, &NodePlatform::amd_cluster(), &cfg);
        prop_assert_eq!(r.msf, kruskal_msf(&el));
    }

    #[test]
    fn bfs_matches_oracle_under_partitionings(
        el in arb_edges(60, 200),
        nranks in 1usize..5,
    ) {
        let r = pregel_bfs(&el, 0, nranks, &NodePlatform::amd_cluster(), &BspConfig::default());
        let oracle = mnd_graph::components::bfs_distances(
            &mnd_graph::CsrGraph::from_edge_list(&el),
            0,
        );
        prop_assert_eq!(r.dist, oracle);
    }

    #[test]
    fn msf_supersteps_scale_with_rounds(el in arb_edges(100, 300)) {
        let r = pregel_msf(&el, 4, &NodePlatform::amd_cluster(), &BspConfig::default());
        if r.rounds > 0 {
            // Each round: candidates + proposals + >=1 jump pair + update.
            prop_assert!(r.supersteps >= 5 * r.rounds);
            // …and a bounded number of jump pairs per round.
            prop_assert!(r.supersteps <= 80 * r.rounds + 4);
        }
    }
}

#[test]
fn per_message_cost_is_the_dominant_comm_knob() {
    let el = gen::web_crawl(2000, 16_000, gen::CrawlParams::default(), 5);
    let plat = NodePlatform::amd_cluster();
    let run = |per_message_cost: f64| {
        let cfg = BspConfig {
            per_message_cost,
            sim_scale: 2048.0,
            ..Default::default()
        };
        pregel_msf(&el, 8, &plat, &cfg)
    };
    let cheap = run(0.0);
    let costly = run(0.2e-6);
    assert_eq!(cheap.msf, costly.msf);
    assert!(
        costly.comm_time > 2.0 * cheap.comm_time,
        "stack cost must dominate: {} vs {}",
        costly.comm_time,
        cheap.comm_time
    );
}
