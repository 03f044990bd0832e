//! Driver-level invariant tests: multi-seed oracle sweeps, timing
//! consistency, and cross-application agreement.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mnd_device::NodePlatform;
use mnd_graph::{gen, CsrGraph};
use mnd_hypar::{HyParConfig, PhaseKind, PhaseObserver, PhaseSample, StepSample};
use mnd_kernels::oracle::kruskal_msf;
use mnd_kernels::policy::KernelPolicy;
use mnd_mst::bfs::distributed_bfs;
use mnd_mst::{distributed_components, MndMstRunner};

#[test]
fn ten_seed_oracle_sweep() {
    for seed in 0..10 {
        let el = gen::web_crawl(1200, 9000, gen::CrawlParams::default(), seed);
        let r = MndMstRunner::new(6).run(&el);
        assert_eq!(r.msf, kruskal_msf(&el), "seed {seed}");
    }
}

#[test]
fn cc_labels_consistent_with_msf_components() {
    let el = gen::disconnected_union(&[
        gen::web_crawl(300, 2000, gen::CrawlParams::default(), 1),
        gen::path(40, 2),
        gen::cycle(25, 3),
    ]);
    let runner = MndMstRunner::new(5);
    let msf = runner.run(&el).msf;
    let cc = distributed_components(&el, &runner);
    assert_eq!(cc.num_components, msf.num_components);
    // Two vertices share a label iff the forest connects them.
    let g = CsrGraph::from_edge_list(&el);
    let oracle = mnd_graph::connected_components(&g);
    assert_eq!(cc.labels, oracle);
}

#[test]
fn bfs_reaches_exactly_the_source_component() {
    let el = gen::disconnected_union(&[gen::cycle(30, 1), gen::gnm(100, 300, 2)]);
    let runner = MndMstRunner::new(4);
    let cc = distributed_components(&el, &runner);
    let bfs = distributed_bfs(&el, 0, 4, &NodePlatform::amd_cluster(), 1.0);
    for (v, (&label, &dist)) in cc.labels.iter().zip(bfs.dist.iter()).enumerate() {
        assert_eq!(
            label == cc.labels[0],
            dist != u64::MAX,
            "vertex {v}: label {label} dist {dist}"
        );
    }
}

#[test]
fn sim_scale_changes_times_not_results() {
    let el = gen::web_crawl(1000, 8000, gen::CrawlParams::default(), 7);
    let base = MndMstRunner::new(4).run(&el);
    let scaled = MndMstRunner::new(4)
        .with_config(HyParConfig::default().with_sim_scale(4096.0))
        .run(&el);
    assert_eq!(base.msf, scaled.msf, "scale must never affect the forest");
    assert!(
        scaled.total_time > base.total_time,
        "scaled runs charge more time"
    );
}

#[test]
fn platform_changes_times_not_results() {
    let el = gen::web_crawl(1000, 8000, gen::CrawlParams::default(), 9);
    let a = MndMstRunner::new(4).run(&el);
    let b = MndMstRunner::new(4)
        .with_platform(NodePlatform::cray_xc40(false))
        .run(&el);
    let c = MndMstRunner::new(4)
        .with_platform(NodePlatform::cray_xc40(true))
        .with_config(HyParConfig::default().with_sim_scale(4096.0))
        .run(&el);
    assert_eq!(a.msf, b.msf);
    assert_eq!(a.msf, c.msf);
}

#[test]
fn comm_time_grows_with_rank_count_on_fixed_graph() {
    // More partitions -> more boundary -> no less communication. (Weak
    // monotonicity: equal is fine, e.g. when everything fits one group.)
    let el = gen::web_crawl(4000, 30_000, gen::CrawlParams::default(), 11);
    let comm = |nranks| MndMstRunner::new(nranks).run(&el).comm_time;
    let c2 = comm(2);
    let c16 = comm(16);
    assert!(
        c16 >= c2 * 0.5,
        "16-rank comm {c16} unexpectedly below half of 2-rank comm {c2}"
    );
}

#[test]
fn report_counts_match_configuration() {
    let el = gen::gnm(500, 2000, 13);
    for nranks in [1, 3, 8] {
        let r = MndMstRunner::new(nranks).run(&el);
        assert_eq!(r.nranks, nranks);
        assert_eq!(r.phases.len(), nranks);
        assert_eq!(r.rank_stats.len(), nranks);
        if nranks == 1 {
            assert_eq!(r.levels, 0, "single rank needs no merge hierarchy");
            assert_eq!(r.comm_time, 0.0);
        } else {
            assert!(r.levels >= 1);
        }
    }
}

/// Ranks × kernel threads ≤ cores is a host-side rule: whatever share of
/// `RAYON_NUM_THREADS` a rank is given — one thread and the sequential arm
/// (4 ranks on 1, 2 or 3 threads), a pool of two (4 ranks on 8), a pool of
/// eight (1 rank on 8) — the forest, the clock and every rank's traffic are
/// the same bits. So is the level-0 build: the ranks read the edge list in
/// as many blocks as there are kernel threads (5 ranks: one block of five,
/// blocks of 3 + 2, of 2 + 2 + 1, a block a rank), and the holdings must
/// not depend on how they were cut. And so are the stretches in which a
/// rank works alone on the threads of those who wait for it: in groups of
/// two and of four the leaders of a level share the host (16 ranks on 8
/// threads: eight leaders a thread each, then four on two, two on four, one
/// on eight), and the final rank post-processes on all of them. A random
/// graph keeps its holdings fat up the hierarchy (≥ 17 K rows a rank at
/// level 0, 32–39 K at the last merge and in post-processing — asserted
/// to be past the policy's crossover), so a rank with a pool does take the
/// chunked sweeps. The variable is process-global, so the sweep is
/// sequential inside this one test; tests running beside it only see their
/// worker counts change.
#[test]
fn kernel_thread_budget_never_reaches_the_results() {
    /// The most rows a lent stretch was handed, per step name.
    #[derive(Default)]
    struct LentRows(Mutex<BTreeMap<&'static str, u64>>);
    impl PhaseObserver for LentRows {
        fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
        fn on_step(&self, s: &StepSample) {
            let mut rows = self.0.lock().unwrap();
            let most = rows.entry(s.name).or_default();
            *most = (*most).max(s.rows_in.max(s.rows_out));
        }
    }

    let el = gen::gnm(3000, 40_000, 5);
    let oracle = kruskal_msf(&el);
    let crossover = KernelPolicy::default().par_threshold as u64;
    for group_size in [4, 2] {
        for nranks in [4, 5, 1, 16] {
            let lent = Arc::new(LentRows::default());
            let runs: Vec<_> = ["1", "2", "3", "8"]
                .into_iter()
                .map(|threads| {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    let cfg = HyParConfig {
                        group_size,
                        ..HyParConfig::default()
                    };
                    let r = MndMstRunner::new(nranks)
                        .with_config(cfg.with_sim_scale(512.0).with_observer(lent.clone()))
                        .run(&el);
                    let traffic: Vec<(u64, u64)> = r
                        .rank_stats
                        .iter()
                        .map(|s| (s.bytes_sent, s.messages_sent))
                        .collect();
                    let clocks: Vec<u64> = r
                        .rank_stats
                        .iter()
                        .map(|s| s.compute_time.to_bits())
                        .collect();
                    (r.msf, r.total_time.to_bits(), traffic, clocks)
                })
                .collect();
            std::env::remove_var("RAYON_NUM_THREADS");
            let tag = format!("{nranks} ranks in groups of {group_size}");
            assert_eq!(runs[0].0, oracle, "{tag}");
            for (threads, run) in [2, 3, 8].into_iter().zip(&runs[1..]) {
                assert_eq!(run, &runs[0], "{tag} on {threads} threads");
            }
            let lent = lent.0.lock().unwrap();
            // One rank has every thread all along and nothing to borrow.
            let steps: &[&str] = match nranks {
                1 => &[],
                _ => &["post_process_kernel", "absorb_all"],
            };
            for step in steps {
                assert!(
                    lent.get(step).is_some_and(|&rows| rows > crossover),
                    "{tag}: the holding of {step} stayed under the crossover: {lent:?}"
                );
            }
        }
    }
}
