//! The simulated clock is a function of the inputs alone: every charge is
//! computed from row counts, work profiles and wire bytes, never from host
//! time. These goldens pin `MndMstReport::{total_time, comm_time}` and the
//! per-rank traffic of three fixed runs, so a host-side optimisation (a
//! faster lookup, a different reduction algorithm, a reordered sweep) that
//! silently moves the simulated clock — by changing what is sent, in which
//! chunks, or what is charged — fails here instead of in a benchmark.
//!
//! A deliberate cost-model or algorithm change re-pins them: the failure
//! message prints the observed values in the form the table below uses.

use mnd::device::NodePlatform;
use mnd::graph::{gen, presets::Preset, EdgeList};
use mnd::hypar::HyParConfig;
use mnd::kernels::kruskal_msf;
use mnd::mst::MndMstRunner;

struct Golden {
    total_time: f64,
    comm_time: f64,
    bytes_sent: &'static [u64],
    messages_sent: &'static [u64],
}

fn check(name: &str, runner: MndMstRunner, el: &EdgeList, expect: &Golden) {
    let report = runner.run(el);
    assert_eq!(report.msf, kruskal_msf(el), "{name}: wrong forest");
    let bytes: Vec<u64> = report.rank_stats.iter().map(|s| s.bytes_sent).collect();
    let msgs: Vec<u64> = report.rank_stats.iter().map(|s| s.messages_sent).collect();
    let observed = format!(
        "Golden {{\n    total_time: {:?},\n    comm_time: {:?},\n    bytes_sent: &{:?},\n    messages_sent: &{:?},\n}}",
        report.total_time, report.comm_time, bytes, msgs
    );
    // Bit-for-bit: the clock is deterministic, so there is no tolerance.
    assert!(
        report.total_time == expect.total_time
            && report.comm_time == expect.comm_time
            && bytes == expect.bytes_sent
            && msgs == expect.messages_sent,
        "{name}: the simulated clock moved; observed\n{observed}"
    );
}

/// A crawl with strong id locality on four CPU ranks — the kernel-bound
/// shape (big first `indComp`, few cut edges).
#[test]
fn crawl_on_four_cpu_ranks() {
    let el = Preset::Arabic2005.generate(8192, 42);
    let runner = MndMstRunner::new(4).with_config(HyParConfig::default().with_sim_scale(8192.0));
    check(
        "crawl x4",
        runner,
        &el,
        &Golden {
            total_time: 9.852512158476186,
            comm_time: 2.2127061909841204,
            bytes_sent: &[61079, 174860, 193192, 154284],
            messages_sent: &[35, 24, 37, 24],
        },
    );
}

/// A scrambled crawl on eight hybrid CPU+GPU ranks: device splits, the
/// intra-node merge and finishing pass, a two-level merge hierarchy with
/// ring exchanges.
#[test]
fn scrambled_crawl_on_eight_hybrid_ranks() {
    let el = Preset::Gsh2015Tpd.generate(32768, 7);
    let runner = MndMstRunner::new(8)
        .with_platform(NodePlatform::cray_xc40(true))
        .with_config(HyParConfig::default().with_sim_scale(32768.0));
    check(
        "scramble x8 hybrid",
        runner,
        &el,
        &Golden {
            total_time: 23.69274574473364,
            comm_time: 15.199705721185945,
            bytes_sent: &[
                51527, 133027, 150776, 129852, 300717, 136540, 151642, 133224,
            ],
            messages_sent: &[78, 37, 58, 37, 81, 37, 58, 37],
        },
    );
}

/// A road grid on three ranks with 32-item ghost phases: every ghost bucket
/// is cut into many chunks, so the *order* of the pairs inside a bucket
/// decides each chunk's dictionary and therefore its encoded size.
#[test]
fn road_grid_with_tiny_ghost_phases() {
    let el = gen::road_grid(80, 80, 0.02, 0.38, 3);
    let mut runner = MndMstRunner::new(3);
    runner.ghost_phase_size = 32;
    check(
        "road x3 phased",
        runner,
        &el,
        &Golden {
            total_time: 0.0036709457301587114,
            comm_time: 0.0035177368095237905,
            bytes_sent: &[112731, 86630, 85315],
            messages_sent: &[79, 76, 75],
        },
    );
}
