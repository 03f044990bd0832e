//! The public configuration surface, one line per field. Each pattern
//! below names every field and has no `..`, so a new field does not
//! compile until its author adds it here with a comment naming what sets
//! it off its default: a caller outside the tests, or the golden or
//! fixture that does. A field nothing sets is a default, not a knob
//! (ROADMAP item 7).

use mnd::hypar::HyParConfig;
use mnd::mst::MndMstRunner;
use mnd::pregel::BspConfig;
use mnd::serve::ServeConfig;
use mnd::spmsf::SpmsfConfig;

#[test]
fn every_configuration_field_names_what_sets_it() {
    let HyParConfig {
        group_size: _,               // `repro ablation-group`, `mnd-cli run --group`
        excp: _,                     // `repro ablation-excp`
        freeze: _,                   // `repro ablation-excp`
        stop: _,                     // `repro ablation-thresh`
        recursion_edge_threshold: _, // `repro ablation-thresh`
        merge_min_shrink: _,         // fixtures: `runner::tests`, `runtime::tests`
        group_edge_threshold: _,     // `repro traffic`
        sim_scale: _,                // `ExpContext::hypar`, `EngineParams::with_sim_scale`
        max_exchange_rounds: _,      // fixtures: `runner::tests`, `runtime::tests`
        observer: _,                 // `repro --trace`, the benchmark's layer ledger
        level0_filter: _,            // `ExpContext::hypar` (off), `repro comm-sweep` (on)
        checkpoint_interval: _,      // `repro checkpoint-sweep`
    } = HyParConfig::default();

    let MndMstRunner {
        nranks: _,           // every caller
        platform: _,         // `repro fig8`, `mnd-cli run --gpu`
        config: _,           // every caller
        ghost_phase_size: _, // `sim_clock_golden.rs`, `adversarial_inputs.rs`
    } = MndMstRunner::new(1);

    let BspConfig {
        combine: _,             // `repro ablation-thresh` (`bsp no-combine`)
        mirror_threshold: _,    // `repro ablation-thresh` (`bsp no-mirror`)
        per_message_cost: _,    // fixture: `bsp_properties.rs`
        sim_scale: _,           // `ExpContext::bsp`, `EngineParams::with_sim_scale`
        checkpoint_interval: _, // `repro checkpoint-sweep`
    } = BspConfig::default();

    let SpmsfConfig {
        sim_scale: _,           // `EngineParams::with_sim_scale`
        checkpoint_interval: _, // `repro checkpoint-sweep`
    } = SpmsfConfig::default();

    let ServeConfig {
        nranks: _,         // every caller
        edges_per_rank: _, // fixture: `scheduler::tests`
        update_mode: _,    // `repro serve-sweep` (the recompute plane), `SERVE_GOLDEN`
    } = ServeConfig::new(1);
}
