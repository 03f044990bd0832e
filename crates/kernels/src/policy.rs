//! Execution policies for the independent-computation kernel, plus the work
//! profile it reports to the cost model.
//!
//! [`KernelPolicy`] governs the *parallel holding plane*: every hot sweep
//! over a holding's SoA columns — min-edge election, permutation sorts,
//! compaction, ghost relabels, incident-count reductions — consults it to
//! decide sequential vs. rayon-chunked execution and, above the crossover,
//! which chunk size to use. The numbers are platform-dependent (Durbhakula
//! 2020), so the `mnd-device` calibration plane measures them at startup
//! rather than hard-coding constants; [`KernelPolicy::default`] provides
//! conservative fallbacks for uncalibrated contexts.
//!
//! **Determinism contract:** for any policy, any chunk size and any worker
//! count, every kernel must produce output *byte-identical* to
//! [`KernelPolicy::seq`] — parallel merges are ordered by `(key, row)` so
//! they are associative, and sorts use injective keys. The oracle tests in
//! `tests/parallel_plane_oracle.rs` assert this across adversarial
//! chunkings.
//!
//! The thresholds assume the caller has the host to itself: one that runs
//! kernels from several threads at once (the ranks of `mnd-mst`) shares the
//! host between them with [`with_kernel_threads`], and hands a thread left
//! with one [`KernelPolicy::seq`] — by the contract, only wall-clock can tell.

/// The four kernel families of the holding plane, each with its own
/// seq/par crossover: their per-row work differs by an order of magnitude
/// (an election row is a compare, a reduction row may hash, a count row is
/// two lookups + increments, a relabel row is two table lookups plus a
/// write), so one shared threshold either under-parallelises elections or
/// thrashes relabels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Min-edge election scans (the per-iteration winner search).
    Election,
    /// Reductions and permutations: compaction, key sorts.
    Reduce,
    /// Incident-count tallies (device splitting, skew estimation).
    Count,
    /// Ghost/parent relabels (two lookups + write per row).
    Relabel,
}

/// How a class's parallel path is implemented. Both variants are
/// byte-identical to sequential (the determinism contract); they differ
/// only in cost structure, so calibration picks per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ParVariant {
    /// Per-chunk partial tables merged in chunk order (the PR 3 plane).
    /// Pays one table allocation + one merge pass per chunk.
    ChunkMerge,
    /// One CAS'd atomic word per slot (packed `(weight << 32) | row`
    /// fetch-min; `fetch_add` counts) — no partial tables, no merge phase.
    #[default]
    LockFree,
}

/// Seq/par crossover sizes, per-class parallel variants and chunk
/// granularity for the holding-plane kernels (election scans, permutation
/// sorts, compactions, counts, relabels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Row count at or below which election kernels stay sequential
    /// (thread spawn + partial-table merge would dominate).
    pub par_threshold: usize,
    /// Crossover for reduction kernels (compaction, sorts).
    pub reduce_par_threshold: usize,
    /// Crossover for incident-count kernels. Separate from `Reduce` so a
    /// calibration clamp on one (see `calibrate_kernel_policy`) cannot
    /// disable a profitable parallel path on the other.
    pub count_par_threshold: usize,
    /// Crossover for relabel kernels.
    pub relabel_par_threshold: usize,
    /// Parallel implementation for election sweeps above the crossover.
    pub election_variant: ParVariant,
    /// Parallel implementation for count sweeps above the crossover.
    pub count_variant: ParVariant,
    /// Rows per parallel chunk above the threshold.
    pub chunk_rows: usize,
}

impl Default for KernelPolicy {
    /// Uncalibrated fallback: one default chunk of slack before going
    /// parallel, 4K-row chunks (matches the pre-policy scan constant), all
    /// classes at the same conservative crossover, lock-free variants.
    fn default() -> Self {
        KernelPolicy {
            par_threshold: 4096,
            reduce_par_threshold: 4096,
            count_par_threshold: 4096,
            relabel_par_threshold: 4096,
            election_variant: ParVariant::LockFree,
            count_variant: ParVariant::LockFree,
            chunk_rows: 4096,
        }
    }
}

impl KernelPolicy {
    /// A policy that never parallelises — the sequential reference the
    /// oracle tests compare against, and the right choice inside contexts
    /// that are already running on a rayon worker.
    pub fn seq() -> Self {
        KernelPolicy {
            par_threshold: usize::MAX,
            reduce_par_threshold: usize::MAX,
            count_par_threshold: usize::MAX,
            relabel_par_threshold: usize::MAX,
            election_variant: ParVariant::LockFree,
            count_variant: ParVariant::LockFree,
            chunk_rows: usize::MAX,
        }
    }

    /// A policy that parallelises everything with the given chunk size via
    /// the chunk-and-merge variants (tests use this to force that path
    /// onto tiny fixtures).
    pub fn force_par(chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        KernelPolicy {
            par_threshold: 0,
            reduce_par_threshold: 0,
            count_par_threshold: 0,
            relabel_par_threshold: 0,
            election_variant: ParVariant::ChunkMerge,
            count_variant: ParVariant::ChunkMerge,
            chunk_rows,
        }
    }

    /// As [`KernelPolicy::force_par`], but routing every class that has a
    /// lock-free implementation through it (tests use this to force the
    /// atomic path onto tiny fixtures).
    pub fn force_lockfree(chunk_rows: usize) -> Self {
        KernelPolicy {
            election_variant: ParVariant::LockFree,
            count_variant: ParVariant::LockFree,
            ..KernelPolicy::force_par(chunk_rows)
        }
    }

    /// The parallel implementation a class routes through above its
    /// crossover. Reduce and relabel only have the chunked path (their
    /// sorts/compactions have no slot to CAS; the chunked relabel is
    /// already merge-free).
    #[inline]
    pub fn variant_for(&self, class: KernelClass) -> ParVariant {
        match class {
            KernelClass::Election => self.election_variant,
            KernelClass::Count => self.count_variant,
            KernelClass::Reduce | KernelClass::Relabel => ParVariant::ChunkMerge,
        }
    }

    /// Whether an *election* sweep over `rows` rows should take the
    /// parallel path (the historical single-threshold query; kernels with
    /// a known class use [`KernelPolicy::use_par_for`]).
    #[inline]
    pub fn use_par(&self, rows: usize) -> bool {
        self.use_par_for(KernelClass::Election, rows)
    }

    /// Whether a sweep of `class` over `rows` rows should take the
    /// parallel path, judged against that class's own crossover.
    #[inline]
    pub fn use_par_for(&self, class: KernelClass, rows: usize) -> bool {
        let threshold = match class {
            KernelClass::Election => self.par_threshold,
            KernelClass::Reduce => self.reduce_par_threshold,
            KernelClass::Count => self.count_par_threshold,
            KernelClass::Relabel => self.relabel_par_threshold,
        };
        rows > threshold
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
        assert!(KernelPolicy::force_par(8).use_par(1));
        let ranges = KernelPolicy::force_par(3).chunk_ranges(8);
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 8)]);
        assert!(KernelPolicy::force_par(usize::MAX).chunk_ranges(5) == vec![(0, 5)]);
        assert!(p.chunk_ranges(0).is_empty());
    }

    #[test]
    fn per_class_crossovers_are_independent() {
        let p = KernelPolicy {
            par_threshold: 10,
            reduce_par_threshold: 100,
            count_par_threshold: 500,
            relabel_par_threshold: 1000,
            ..KernelPolicy::default()
        };
        assert!(p.use_par_for(KernelClass::Election, 11));
        assert!(!p.use_par_for(KernelClass::Reduce, 11));
        assert!(!p.use_par_for(KernelClass::Relabel, 11));
        assert!(p.use_par_for(KernelClass::Reduce, 101));
        assert!(!p.use_par_for(KernelClass::Count, 101));
        assert!(!p.use_par_for(KernelClass::Relabel, 101));
        assert!(p.use_par_for(KernelClass::Count, 501));
        assert!(p.use_par_for(KernelClass::Relabel, 1001));
        // The legacy single-threshold query is the election class.
        assert_eq!(p.use_par(11), p.use_par_for(KernelClass::Election, 11));
    }

    #[test]
    fn variants_route_per_class() {
        let par = KernelPolicy::force_par(8);
        let lf = KernelPolicy::force_lockfree(8);
        assert_eq!(
            par.variant_for(KernelClass::Election),
            ParVariant::ChunkMerge
        );
        assert_eq!(lf.variant_for(KernelClass::Election), ParVariant::LockFree);
        assert_eq!(lf.variant_for(KernelClass::Count), ParVariant::LockFree);
        // Classes without a lock-free implementation always report the
        // chunked path, whatever the policy says about the others.
        assert_eq!(lf.variant_for(KernelClass::Reduce), ParVariant::ChunkMerge);
        assert_eq!(lf.variant_for(KernelClass::Relabel), ParVariant::ChunkMerge);
        assert!(lf.use_par_for(KernelClass::Count, 1));
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
