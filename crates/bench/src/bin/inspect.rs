//! `inspect` — per-run diagnostics: where a distributed MND-MST run spends
//! its simulated time.
//!
//! ```text
//! inspect <preset> [--scale N] [--nodes N] [--gpu] [--per-rank]
//! ```

use mnd_bench::*;
use mnd_device::NodePlatform;
use mnd_graph::presets::Preset;

fn main() {
    let mut name = String::from("arabic-2005");
    let mut scale = 2048u64;
    let mut nodes = 16usize;
    let mut gpu = false;
    let mut per_rank = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = it.next().and_then(|v| v.parse().ok()).expect("--scale N"),
            "--nodes" => nodes = it.next().and_then(|v| v.parse().ok()).expect("--nodes N"),
            "--gpu" => gpu = true,
            "--per-rank" => per_rank = true,
            other => name = other.to_string(),
        }
    }
    let Some(preset) = Preset::from_name(&name) else {
        eprintln!(
            "unknown preset {name:?}; one of: {}",
            Preset::ALL.map(|p| p.name()).join(" ")
        );
        std::process::exit(1);
    };
    let ctx = ExpContext {
        scale,
        seed: 42,
        ..Default::default()
    };
    let el = ctx.graph(preset);
    println!(
        "{name} @1/{scale}: V={} E={} cut@{nodes}={:.0}%",
        el.num_vertices(),
        el.len(),
        100.0 * mnd_graph::gen::cut_fraction(&el, nodes as u32)
    );
    let platform = if gpu {
        NodePlatform::cray_xc40(true)
    } else {
        NodePlatform::amd_cluster()
    };
    let r = ctx.run_mnd(&ctx.mnd(nodes).with_platform(platform), &el, None);
    println!(
        "total={:.3}s comm(max)={:.3}s levels={} ring-rounds={} max-holding={}MB",
        r.total_time,
        r.comm_time,
        r.levels,
        r.exchange_rounds,
        r.max_holding_bytes >> 20
    );
    let pm = r.phase_max();
    println!(
        "phase max over ranks: indComp={:.3} merge={:.3} postProcess={:.3} comm={:.3}",
        pm.ind_comp, pm.merge, pm.post_process, pm.comm
    );
    if per_rank {
        for (i, (p, s)) in r.phases.iter().zip(&r.rank_stats).enumerate() {
            println!(
                "rank {i:>2}: indComp={:.3} merge={:.3} post={:.3} comm={:.3} sent={}KB msgs={}",
                p.ind_comp,
                p.merge,
                p.post_process,
                p.comm,
                s.bytes_sent >> 10,
                s.messages_sent
            );
        }
    }
    println!("result verified against Kruskal ✓");
}
