//! The host-speed reference: a fixed piece of work in the benchmark's own
//! files, timed beside every host-clock sample of an untraced run.
//!
//! The build host is a 2-core slice of a shared machine. Its neighbours'
//! memory traffic slows *everything* here, single-threaded set-up included,
//! by 30–50 % for minutes at a time: ten back-to-back runs of one commit on
//! one seed read a pass of `road-rounds` at 1.82–2.93 s (quartiles 47 % of
//! the median apart), and the acceptance driver saw 30 % twice. A pure ALU
//! loop timed beside those passes moved by a quarter of that — the
//! contention is for cache and memory, not for cycles. No bound survives
//! it, and neither a longer run nor a lower order statistic helps, because
//! whole runs sit inside a burst.
//!
//! So every host-clock sample is read against a clock that slows with the
//! host. The reference kernel is shaped like the program's own work (sort a
//! pseudo-random edge array, then union-find over it) so that it feels the
//! contention the way the program does; one reference sample runs it once
//! on one thread and once on every core at once. A sample of `x` seconds
//! taken between reference samples of `b` and `a` seconds is reported as
//! `x · NOMINAL_S ÷ ((b + a) / 2)`: seconds on a host on which the reference
//! takes `NOMINAL_S`, which is what it takes on the build host when the
//! neighbours are quiet. When a burst met the ten `geo-knn` runs of a set,
//! the passes as measured spread 37 % and the set-ups 54 %; corrected, 5 %
//! and 9 %. On a quiet host the correction costs a percent or two of added
//! jitter. The seconds as measured are printed and stored beside every
//! corrected figure (`*_raw_s`, `ref_s`).
//!
//! The reference is not part of the program: a change to the program moves
//! only the numerator.

use std::time::Instant;

use crate::workloads::Size;

/// Seconds one reference sample takes on the quiet build host: the unit
/// corrected seconds are expressed in.
pub const NOMINAL_S: f64 = 0.26;

/// Edges of the reference kernel's graph: 19 MB of keys plus a 5 MB parent
/// array, ≈ 0.1 s on one thread of the build host.
const EDGES: usize = 1_200_000;

/// Kruskal over a pseudo-random edge array: sort by key, then union-find
/// with path halving. Returns the number of forest edges.
fn kernel(edges: usize) -> u64 {
    let n = edges as u32;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut keyed: Vec<(u64, u32, u32)> = (0..edges)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x, (x >> 8) as u32 % n, (x >> 36) as u32 % n)
        })
        .collect();
    keyed.sort_unstable();
    let mut parent: Vec<u32> = (0..n).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grandparent = parent[parent[v as usize] as usize];
            parent[v as usize] = grandparent;
            v = grandparent;
        }
        v
    }
    let mut picked = 0;
    for &(_, u, v) in &keyed {
        let (a, b) = (find(&mut parent, u), find(&mut parent, v));
        if a != b {
            parent[a as usize] = b;
            picked += 1;
        }
    }
    picked
}

/// One reference sample: the kernel once on this thread, then once on each
/// core at the same time (at most four, the ranks an engine run occupies);
/// seconds for both. The threads live only inside this call, never while
/// the program runs.
pub fn sample() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(EDGES)));
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| std::hint::black_box(kernel(std::hint::black_box(EDGES))));
        }
    });
    start.elapsed().as_secs_f64()
}

/// The reference a run of `size` reads its host clock against. A smoke walk
/// measures nothing, so it skips the kernel and its figures stay raw.
pub fn for_size(size: Size) -> fn() -> f64 {
    match size {
        Size::Full => sample,
        Size::Smoke => || NOMINAL_S,
    }
}

/// Host-clock samples of one thing, each taken between two reference
/// samples.
pub struct Referenced {
    /// Seconds as measured.
    pub raw: Vec<f64>,
    /// Reference samples: `refs[i]` before `raw[i]`, `refs[i + 1]` after.
    pub refs: Vec<f64>,
}

impl Referenced {
    /// Runs `one` — which returns a value and the seconds it took —
    /// between samples of `reference`, until `min_repeats` are done and
    /// `min_seconds` spent on them (reference time not counted).
    pub fn measure<T>(
        reference: fn() -> f64,
        min_repeats: usize,
        min_seconds: f64,
        mut one: impl FnMut() -> (T, f64),
    ) -> (Vec<T>, Referenced) {
        let mut values = Vec::new();
        let mut timed = Referenced {
            raw: Vec::new(),
            refs: vec![reference()],
        };
        while values.len() < min_repeats.max(1) || timed.raw.iter().sum::<f64>() < min_seconds {
            let (value, seconds) = one();
            values.push(value);
            timed.raw.push(seconds);
            timed.refs.push(reference());
        }
        (values, timed)
    }

    /// Every sample in corrected seconds (see the module text).
    pub fn corrected(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(self.refs.windows(2))
            .map(|(raw, around)| raw * NOMINAL_S / ((around[0] + around[1]) / 2.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        // A spanning forest of a random graph with as many edges as
        // vertices: the same count every time.
        assert_eq!(kernel(10_000), kernel(10_000));
        assert!((5_000..10_000).contains(&kernel(10_000)));
    }

    #[test]
    fn a_slow_host_cancels_out() {
        // The same work on a host that is half as fast: twice the raw
        // seconds, twice the reference, the same corrected figure.
        let quiet = Referenced {
            raw: vec![1.0, 1.0],
            refs: vec![NOMINAL_S; 3],
        };
        let busy = Referenced {
            raw: vec![2.0, 1.5],
            refs: vec![2.0 * NOMINAL_S, 2.0 * NOMINAL_S, NOMINAL_S],
        };
        for corrected in [quiet.corrected(), busy.corrected()] {
            assert_eq!(corrected.len(), 2);
            assert!(corrected.iter().all(|s| (s - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    fn measure_brackets_every_sample_and_honours_both_minimums() {
        let mut calls = 0;
        let reference = for_size(Size::Smoke);
        let (values, timed) = Referenced::measure(reference, 3, 0.0, || {
            calls += 1;
            (calls, 0.25)
        });
        assert_eq!(values, vec![1, 2, 3]);
        assert_eq!((timed.raw.len(), timed.refs.len()), (3, 4));
        assert_eq!(timed.corrected(), timed.raw, "a smoke walk stays raw");
        // 0.25 s a repeat: a 1 s floor takes four.
        let (values, _) = Referenced::measure(reference, 1, 1.0, || ((), 0.25));
        assert_eq!(values.len(), 4);
    }
}
