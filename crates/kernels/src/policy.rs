//! Execution policies for the independent-computation kernel, plus the work
//! profile it reports to the cost model.
//!
//! [`KernelPolicy`] governs the *parallel holding plane*: every hot sweep
//! over a holding's SoA columns — min-edge election, permutation sorts,
//! compaction, ghost relabels, incident-count reductions — consults it to
//! decide sequential vs. rayon-chunked execution and, above the one
//! threshold, which chunk size to use.
//!
//! **Determinism contract:** for any policy, any chunk size and any worker
//! count, every kernel must produce output *byte-identical* to
//! [`KernelPolicy::seq`] — parallel merges are ordered by `(key, row)` so
//! they are associative, and sorts use injective keys. The oracle tests in
//! `tests/parallel_plane_oracle.rs` and `tests/lockfree_plane.rs` assert
//! this across adversarial chunkings.
//!
//! Every kernel has one public name, and it takes no policy: it reads
//! [`KernelPolicy::current`] itself. The threshold assumes the
//! caller has the host to itself: one that runs kernels from several
//! threads at once (the ranks of `mnd-mst`) shares the host between them
//! with [`with_kernel_threads`], and [`KernelPolicy::current`] hands a
//! thread left with one kernel thread [`KernelPolicy::seq`] — by the
//! contract, only wall-clock can tell. Tests that force a chunking on a
//! small fixture scope it with [`with_kernel_policy`].

use std::cell::Cell;

/// Seq/par threshold and chunk granularity for the holding-plane kernels
/// (election scans, permutation sorts, compactions, counts, relabels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Row count at or below which a sweep stays sequential (thread spawn
    /// and chunk bookkeeping would dominate).
    pub par_threshold: usize,
    /// Rows per parallel chunk above the threshold.
    pub chunk_rows: usize,
}

impl Default for KernelPolicy {
    /// One default chunk of slack before going parallel, 4K-row chunks.
    fn default() -> Self {
        KernelPolicy {
            par_threshold: 4096,
            chunk_rows: 4096,
        }
    }
}

impl KernelPolicy {
    /// A policy that never parallelises — the sequential reference the
    /// oracle tests compare against.
    pub fn seq() -> Self {
        KernelPolicy {
            par_threshold: usize::MAX,
            chunk_rows: usize::MAX,
        }
    }

    /// The policy for kernels called from the current thread: that of an
    /// enclosing [`with_kernel_policy`], else [`KernelPolicy::seq`] when the
    /// thread has one kernel thread (a parallel section would only run its
    /// chunks one after another), else [`KernelPolicy::default`].
    pub fn current() -> Self {
        if let Some(policy) = SCOPED.get() {
            policy
        } else if kernel_threads() == 1 {
            KernelPolicy::seq()
        } else {
            KernelPolicy::default()
        }
    }

    /// Whether a sweep over `rows` rows should take the parallel path.
    #[inline]
    pub fn use_par(&self, rows: usize) -> bool {
        rows > self.par_threshold
    }

    /// The row ranges a parallel sweep over `rows` rows is chunked into.
    pub fn chunk_ranges(&self, rows: usize) -> Vec<(usize, usize)> {
        let chunk = self.chunk_rows.max(1);
        (0..rows)
            .step_by(chunk)
            .map(|lo| (lo, lo.saturating_add(chunk).min(rows)))
            .collect()
    }
}

thread_local! {
    /// The policy of the innermost [`with_kernel_policy`] on this thread.
    static SCOPED: Cell<Option<KernelPolicy>> = const { Cell::new(None) };
}

/// Runs `f` with every kernel it calls on the calling thread under `policy`,
/// whatever the thread budget: the one way to force a chunking (tests run
/// the parallel arms on small fixtures with it). Nests, and restores the
/// enclosing policy when `f` returns or unwinds.
pub fn with_kernel_policy<R>(policy: KernelPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelPolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.set(self.0);
        }
    }
    let _restore = Restore(SCOPED.replace(Some(policy)));
    f()
}

/// Kernel threads the calling thread's parallel sections run on: the budget
/// of an enclosing [`with_kernel_threads`], else `RAYON_NUM_THREADS`, else
/// the host's cores.
pub fn kernel_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `f` with every parallel section it opens on the calling thread
/// confined to `threads` kernel threads (one: inline on the caller).
pub fn with_kernel_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool of kernel threads")
        .install(f)
}

/// Exception condition of the HyPar `indComp` API (§4.1.2).
///
/// Running plain Boruvka on a partition is incorrect because a component's
/// lightest edge may be a *cut edge* into another partition. The exception
/// condition says which expansions the kernel must refuse:
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExcpCond {
    /// No exception: the input is a whole graph (single-device execution or
    /// the final post-process step). Using this on a real partition produces
    /// wrong results — tests assert the kernel rejects it when cut edges are
    /// present.
    None,
    /// `EXCPT_BORDER_EDGE`: a component freezes exactly when its lightest
    /// incident edge is a cut edge (the semantics §3.2 describes). This is
    /// the default used by the MND-MST driver.
    #[default]
    BorderEdge,
    /// `EXCPT_BORDER_VERTEX`: more conservative — any component that *touches*
    /// the partition border (has at least one cut edge) freezes immediately,
    /// before expanding at all. Correct but leaves more components; the
    /// `ablation-excp` experiment quantifies the difference.
    BorderVertex,
}

/// How freezing interacts with later merges (paper §3.2 says a frozen
/// component "is not expanded further"; whether a *neighbour* may still
/// absorb it is left open, so both readings are provided).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FreezePolicy {
    /// Paper-literal: once frozen, a component never participates again this
    /// invocation, and a component formed by merging into a frozen one
    /// inherits the freeze.
    #[default]
    Sticky,
    /// Optimisation: a component's frozen status is re-derived every round
    /// from its current lightest edge (safe by the cut property; see
    /// DESIGN.md §5). Usually converges in fewer rounds.
    Recheck,
}

/// When to stop the iterative independent computation (§4.3.2): the HyPar
/// runtime watches per-iteration cost and bails out "when the execution time
/// does not show further decrease".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StopPolicy {
    /// Iterate until no component can expand (a fixpoint).
    #[default]
    Exhaustive,
    /// Stop early once an iteration's work (edges scanned) fails to shrink
    /// by at least `min_improvement` (fraction in `[0, 1)`) relative to the
    /// previous iteration. Mirrors the runtime's diminishing-benefits
    /// detector with modelled work standing in for measured time.
    DiminishingBenefit {
        /// Required relative per-iteration improvement, e.g. `0.05`.
        min_improvement: f64,
    },
}

impl StopPolicy {
    /// Decides whether to continue after observing consecutive iteration
    /// costs `prev` then `curr`.
    pub fn should_continue(&self, prev: u64, curr: u64) -> bool {
        match *self {
            StopPolicy::Exhaustive => true,
            StopPolicy::DiminishingBenefit { min_improvement } => {
                (curr as f64) < (prev as f64) * (1.0 - min_improvement)
            }
        }
    }
}

/// Work performed by one Boruvka iteration — the quantities the device cost
/// models convert into simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterWork {
    /// Components still active (not frozen, not merged away) at the start.
    pub active_components: u64,
    /// Edges scanned during min-edge election.
    pub edges_scanned: u64,
    /// Successful unions (components merged).
    pub unions: u64,
}

/// Per-invocation work profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkProfile {
    /// One entry per Boruvka iteration, in order.
    pub iters: Vec<IterWork>,
}

impl WorkProfile {
    /// Total edges scanned across iterations.
    pub fn total_scanned(&self) -> u64 {
        self.iters.iter().map(|i| i.edges_scanned).sum()
    }

    /// Total unions across iterations.
    pub fn total_unions(&self) -> u64 {
        self.iters.iter().map(|i| i.unions).sum()
    }

    /// Number of iterations.
    pub fn num_iterations(&self) -> usize {
        self.iters.len()
    }

    /// Merges another profile (e.g. across recursion levels) by
    /// concatenating iterations.
    pub fn extend(&mut self, other: &WorkProfile) {
        self.iters.extend_from_slice(&other.iters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_crossover_and_chunking() {
        let p = KernelPolicy::default();
        assert!(!p.use_par(p.par_threshold));
        assert!(p.use_par(p.par_threshold + 1));
        assert!(!KernelPolicy::seq().use_par(usize::MAX - 1));
        let forced = |chunk_rows| KernelPolicy {
            par_threshold: 0,
            chunk_rows,
        };
        assert!(forced(8).use_par(1));
        assert_eq!(forced(3).chunk_ranges(8), vec![(0, 3), (3, 6), (6, 8)]);
        assert_eq!(forced(usize::MAX).chunk_ranges(5), vec![(0, 5)]);
        assert!(p.chunk_ranges(0).is_empty());
    }

    #[test]
    fn current_policy_follows_the_thread_budget() {
        assert_eq!(
            with_kernel_threads(1, KernelPolicy::current),
            KernelPolicy::seq()
        );
        assert_eq!(
            with_kernel_threads(2, KernelPolicy::current),
            KernelPolicy::default()
        );
    }

    /// Modelled on the rayon shim's
    /// `install_nests_and_restores_the_previous_pool_even_on_unwind`.
    #[test]
    fn a_scoped_policy_wins_over_the_budget_nests_and_restores_even_on_unwind() {
        let forced = |chunk_rows| KernelPolicy {
            par_threshold: 0,
            chunk_rows,
        };
        with_kernel_threads(1, || {
            assert_eq!(KernelPolicy::current(), KernelPolicy::seq());
            with_kernel_policy(forced(3), || {
                assert_eq!(KernelPolicy::current(), forced(3));
                with_kernel_policy(forced(5), || {
                    assert_eq!(KernelPolicy::current(), forced(5));
                });
                assert_eq!(KernelPolicy::current(), forced(3));
                let unwound = std::panic::catch_unwind(|| {
                    with_kernel_policy(forced(5), || panic!("inside with_kernel_policy"))
                });
                assert!(unwound.is_err());
                assert_eq!(KernelPolicy::current(), forced(3));
            });
            assert_eq!(KernelPolicy::current(), KernelPolicy::seq());
        });
        with_kernel_threads(2, || {
            assert_eq!(KernelPolicy::current(), KernelPolicy::default());
            let seq = with_kernel_policy(KernelPolicy::seq(), KernelPolicy::current);
            assert_eq!(seq, KernelPolicy::seq());
            assert_eq!(KernelPolicy::current(), KernelPolicy::default());
        });
        assert_eq!(SCOPED.get(), None);
    }

    #[test]
    fn exhaustive_always_continues() {
        assert!(StopPolicy::Exhaustive.should_continue(100, 100));
        assert!(StopPolicy::Exhaustive.should_continue(100, 1000));
    }

    #[test]
    fn diminishing_benefit_stops_on_plateau() {
        let p = StopPolicy::DiminishingBenefit {
            min_improvement: 0.05,
        };
        assert!(p.should_continue(1000, 900)); // 10% better: continue
        assert!(!p.should_continue(1000, 980)); // 2% better: stop
        assert!(!p.should_continue(1000, 1100)); // worse: stop
    }

    #[test]
    fn work_profile_totals() {
        let mut w = WorkProfile::default();
        w.iters.push(IterWork {
            active_components: 10,
            edges_scanned: 100,
            unions: 5,
        });
        w.iters.push(IterWork {
            active_components: 5,
            edges_scanned: 40,
            unions: 2,
        });
        assert_eq!(w.total_scanned(), 140);
        assert_eq!(w.total_unions(), 7);
        assert_eq!(w.num_iterations(), 2);
    }
}
