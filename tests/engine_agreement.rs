//! Cross-engine agreement: every engine in the registry (D&C driver, BSP
//! baseline, min-plus SpMV) computes the same forest over random graphs ×
//! seeds — fault-free and under a shared [`FaultPlan`] — and that forest
//! matches the Kruskal oracle. The registry is the single source of truth:
//! a fourth engine added there is automatically held to the same contract.
//!
//! The second half aims at the round-loop engines' dense round state
//! (`mnd_engine::election`): crashes that land while the scratch columns
//! are live, shapes that stress the slot columns, and the fault/bug
//! separation the recovery driver owes every engine.

use std::sync::Arc;

use mnd::chaos::FaultPlan;
use mnd::device::NodePlatform;
use mnd::engine::EngineChaos;
use mnd::engines::{registry, EngineParams};
use mnd::graph::{gen, EdgeList, WEdge};
use mnd::hypar::{ChaosEvent, ChaosEventKind, ObserverHook, PhaseKind, PhaseObserver, PhaseSample};
use mnd::kernels::kruskal_msf;
use mnd::pregel::{pregel_msf, BspConfig};
use mnd::spmsf::{spmsf_msf, SpmsfConfig};
use proptest::prelude::*;

/// Random canonical edge list over up to `max_v` vertices.
fn arb_edge_list(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        2..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..1000), 0..max_e),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .map(|(a, b, w)| WEdge::new(a % n, b % n, w))
                .collect::<Vec<_>>();
            EdgeList::from_raw(n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free: all registered engines agree with the oracle (and so
    /// with each other) on arbitrary graphs and rank counts.
    #[test]
    fn engines_agree_fault_free(
        el in arb_edge_list(100, 300),
        nranks in 1usize..6,
    ) {
        let oracle = kruskal_msf(&el);
        for engine in registry(&EngineParams::new(nranks)) {
            let r = engine.run(&el);
            prop_assert_eq!(
                &r.msf, &oracle,
                "{} disagrees with oracle on {} vertices",
                engine.name(), el.num_vertices()
            );
        }
    }

    /// Under a shared fault plan (message faults + a mid-phase crash),
    /// every engine still produces the oracle forest: whatever each
    /// engine's recovery path replays, the result is byte-identical.
    #[test]
    fn engines_agree_under_shared_faults(
        el in arb_edge_list(80, 240),
        seed in 0u64..1000,
    ) {
        let nranks = 4;
        let oracle = kruskal_msf(&el);
        for engine in registry(&EngineParams::new(nranks)) {
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with_drop_rate(0.02)
                    .with_duplicates(0.02)
                    .with_mid_phase_crash(seed as usize % nranks, 1, 1 + seed % 4),
            );
            let r = engine.run_chaos(&el, &EngineChaos::from_plan(plan));
            prop_assert_eq!(
                &r.msf, &oracle,
                "{} under plan seed {} disagrees with oracle",
                engine.name(), seed
            );
        }
    }
}

/// The mid-phase crash grid of `tests/chaos_recovery.rs`/`tests/bsp_chaos.rs`,
/// run through the registry: a crash at every early (epoch, op) cell must
/// leave every engine's forest byte-identical to its fault-free run.
#[test]
fn crash_grid_is_byte_identical_across_engines() {
    let el = mnd::graph::gen::gnm(400, 2400, 97);
    let oracle = kruskal_msf(&el);
    let nranks = 4;
    for engine in registry(&EngineParams::new(nranks)) {
        let clean = engine.run(&el);
        assert_eq!(clean.msf, oracle, "{} fault-free != oracle", engine.name());
        for epoch in [0u32, 1] {
            for op in [1u64, 3, 7] {
                let plan = Arc::new(FaultPlan::new(5).with_mid_phase_crash(2, epoch, op));
                let r = engine.run_chaos(&el, &EngineChaos::from_plan(plan));
                assert_eq!(
                    r.msf,
                    clean.msf,
                    "{} crash@(epoch {epoch}, op {op}): forest not byte-identical",
                    engine.name()
                );
            }
        }
    }
}

/// Engines accept the same `Arc<FaultPlan>` instance — the plan is shared
/// infrastructure, not per-engine configuration.
#[test]
fn one_plan_instance_drives_every_engine() {
    let el = mnd::graph::gen::gnm(300, 1500, 11);
    let oracle = kruskal_msf(&el);
    let plan = Arc::new(FaultPlan::new(23).with_drop_rate(0.05).with_reorder(0.05));
    for engine in registry(&EngineParams::new(3)) {
        let r = engine.run_chaos(&el, &EngineChaos::from_plan(plan.clone()));
        assert_eq!(r.msf, oracle, "{} != oracle", engine.name());
    }
}

/// A path whose Boruvka schedule is known by construction: the light edges
/// `(2i, 2i+1)` pair every vertex up in round 1 (one compress iteration),
/// and the heavy edges, increasing along the path, hook pair `i` onto pair
/// `i − 1` in round 2 — one chain of depth `n/2 − 1`, so ⌈log₂⌉ + 1 compress
/// / pointer-jumping iterations in a row. Round 3 finds nothing.
fn two_round_chain(n: u32) -> EdgeList {
    let mut el = EdgeList::new(n);
    for v in 0..n - 1 {
        let w = if v % 2 == 0 { v / 2 + 1 } else { 1000 + v / 2 };
        el.push(v, v + 1, w);
    }
    el
}

/// Mid-phase crashes inside the compress (`spmsf`) / pointer-jumping (`bsp`)
/// loop of round 2, and crashes *at* that loop's inner boundaries: the
/// engines' scratch columns are live there (`spmsf`'s `best`/`parent`) or
/// must have been reset on the way in (`bsp`), and none of it is in the
/// checkpoint. Every cell recovers to the clean run's forest and traffic.
#[test]
fn crashes_inside_the_round_two_jump_loop_recover() {
    let el = two_round_chain(512);
    let oracle = kruskal_msf(&el);
    let platform = NodePlatform::amd_cluster();
    let nranks = 4;
    // One checkpoint per progress unit, so every loop head past the very
    // first is a taken boundary.
    let params = EngineParams::new(nranks).with_checkpoint_interval(1);
    for engine in registry(&params) {
        let (rounds, units) = match engine.name() {
            "bsp" => {
                let r = pregel_msf(&el, nranks, &platform, &BspConfig::default());
                (r.rounds, r.supersteps)
            }
            "spmsf" => {
                let r = spmsf_msf(&el, nranks, &platform, &SpmsfConfig::default());
                (r.rounds, r.steps)
            }
            _ => continue,
        };
        let name = engine.name();
        // Both engines spend 3 units per round outside the jump loop and 2
        // per iteration inside it; round 1 jumps once.
        assert_eq!(rounds, 2, "{name}: the chain is built for two rounds");
        let jumps = (units - 8) / 2;
        assert!(
            jumps >= 8,
            "{name}: round 2 must jump a deep chain, got {jumps}"
        );

        let clean = engine.run(&el);
        assert_eq!(clean.msf, oracle, "{name} fault-free != oracle");
        // Taken boundaries: b0 = round 1's jump iteration, b1 = round 2's
        // top, b2..=b(jumps+1) = round 2's jump iterations, then round 3's
        // top. Epoch e runs from b(e−1) to b(e).
        let armed = engine.run_chaos(&el, &EngineChaos::from_plan(Arc::new(FaultPlan::new(5))));
        for s in &armed.rank_stats {
            assert_eq!(s.checkpoint_writes, jumps + 3, "{name}: boundary schedule");
        }

        let check = |what: String, rank: usize, plan: FaultPlan| {
            let r = engine.run_chaos(&el, &EngineChaos::from_plan(Arc::new(plan)));
            assert_eq!(r.msf, oracle, "{name} {what}: forest != oracle");
            assert_eq!(r.msf, clean.msf, "{name} {what}: not byte-identical");
            assert_eq!(
                r.rank_stats[rank].checkpoint_restores, 1,
                "{name} {what}: the crash must fire"
            );
            let traffic = |s: &mnd::net::RankStats| {
                (
                    s.bytes_sent,
                    s.messages_sent,
                    s.bytes_received,
                    s.messages_received,
                )
            };
            for (k, (a, b)) in clean.rank_stats.iter().zip(&r.rank_stats).enumerate() {
                assert_eq!(traffic(a), traffic(b), "{name} {what}: rank {k} traffic");
            }
            r.recovered_units
        };
        let first = 3u32;
        let last = jumps as u32 + 2;
        for rank in [0, 2] {
            for epoch in [first, (first + last) / 2, last] {
                for op in [1u64, 4, 9] {
                    let recovered = check(
                        format!("mid-phase crash r{rank} e{epoch} op{op}"),
                        rank,
                        FaultPlan::new(5).with_mid_phase_crash(rank, epoch, op),
                    );
                    assert!(recovered > 0, "{name}: interrupted epoch re-runs units");
                }
            }
            for boundary in [first - 1, last - 1] {
                check(
                    format!("crash at boundary r{rank} b{boundary}"),
                    rank,
                    FaultPlan::new(5).with_crash(rank, boundary),
                );
            }
        }
    }
}

/// ROADMAP 5(e): a genuine bug under an armed plan is a failure, never a
/// recovered unit. The observer below panics — a plain `panic!`, not the
/// fabric's injected `MidPhaseCrash` — on every rank's first checkpoint
/// write, while the plan also schedules a real mid-phase crash the driver
/// is entitled to recover from.
#[test]
fn a_planted_panic_is_not_mistaken_for_an_injected_fault() {
    struct PanicOnCheckpointWrite;
    impl PhaseObserver for PanicOnCheckpointWrite {
        fn on_phase(&self, _: PhaseKind, _: &PhaseSample) {}
        fn on_chaos(&self, event: &ChaosEvent) {
            if event.kind == ChaosEventKind::CheckpointWrite {
                panic!("planted bug: observer failed on a checkpoint write");
            }
        }
    }

    let el = gen::gnm(300, 1500, 3);
    for engine in registry(&EngineParams::new(4).with_checkpoint_interval(1)) {
        let chaos =
            EngineChaos::from_plan(Arc::new(FaultPlan::new(7).with_mid_phase_crash(1, 1, 3)))
                .with_observer(ObserverHook::new(Arc::new(PanicOnCheckpointWrite)));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_chaos(&el, &chaos)
        }));
        match outcome {
            Err(_) => {}
            Ok(r) => panic!(
                "{}: a planted panic was swallowed (recovered_units = {})",
                engine.name(),
                r.recovered_units
            ),
        }
    }
}

/// Shapes aimed at the dense tables: hubs whose one slot is min-reduced
/// from every leaf, double stars whose hubs elect each other across ranks,
/// paths (deep hook chains), an increasing path (one chain through every
/// vertex), unions with isolated vertices, and a dense random graph.
fn adversarial_shape(shape: usize, n: u32, seed: u64) -> EdgeList {
    match shape {
        0 => gen::star(n, seed),
        1 => {
            // Two hubs (0 and 1) joined by an edge, leaves alternating.
            let mut el = EdgeList::new(n);
            for v in 1..n {
                el.push(if v == 1 { 0 } else { v % 2 }, v, 0);
            }
            el.assign_random_weights(seed, 1000);
            el
        }
        2 => gen::path(n, seed),
        3 => {
            let mut el = EdgeList::new(n);
            for v in 1..n {
                el.push(v - 1, v, v);
            }
            el
        }
        4 => gen::disconnected_union(&[
            gen::star(n / 3 + 2, seed),
            EdgeList::new(n % 7),
            gen::path(n / 3 + 2, seed + 1),
            EdgeList::new(3),
            gen::gnm(n / 4 + 2, n as u64, seed + 2),
            EdgeList::new(1),
        ]),
        _ => gen::gnm(n.min(400), 6 * n.min(400) as u64, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every engine equals Kruskal on every shape, at rank counts that
    /// include `p > V` (empty ranges, zero-length owner columns), with
    /// random weights and with all weights equal (ties decided by
    /// `(w, u, v)` alone); and the BSP combiner changes the traffic, never
    /// the forest.
    #[test]
    fn dense_tables_survive_adversarial_shapes(
        shape in 0usize..6,
        size_class in 0usize..3,
        r in 0u32..1500,
        p_idx in 0usize..5,
        equal_weights in 0u32..2,
        seed in 0u64..1000,
    ) {
        let n = match size_class {
            0 => 2 + r % 5,
            1 => 20 + r % 200,
            _ => 1000 + r,
        };
        let nranks = [1usize, 2, 3, 5, 8][p_idx];
        let mut el = adversarial_shape(shape, n, seed);
        if equal_weights == 1 {
            let flat = el.edges().iter().map(|e| WEdge::new(e.u, e.v, 7)).collect();
            el = EdgeList::from_raw(el.num_vertices(), flat);
        }
        let oracle = kruskal_msf(&el);
        for engine in registry(&EngineParams::new(nranks)) {
            let got = engine.run(&el);
            prop_assert_eq!(
                &got.msf, &oracle,
                "{} != oracle: shape {} n {} p {} equal_weights {} seed {}",
                engine.name(), shape, n, nranks, equal_weights, seed
            );
        }
        let platform = NodePlatform::amd_cluster();
        let run = |combine: bool| {
            let cfg = BspConfig { combine, ..BspConfig::default() };
            pregel_msf(&el, nranks, &platform, &cfg)
        };
        let (on, off) = (run(true), run(false));
        prop_assert_eq!(&on.msf, &oracle, "combined: shape {} n {} p {}", shape, n, nranks);
        prop_assert_eq!(&off.msf, &oracle, "uncombined: shape {} n {} p {}", shape, n, nranks);
        prop_assert!(
            on.messages <= off.messages,
            "combining sent more ({} > {})", on.messages, off.messages
        );
    }
}
