//! Offline stand-in for [rayon](https://docs.rs/rayon) covering the API
//! surface this workspace uses: `par_iter()` over slices, `into_par_iter()`
//! over `Vec<T>` and integer ranges, the `for_each` / `filter` /
//! `filter_map` / `map` / `collect` combinators, `par_sort_unstable_by_key`,
//! and sized pools (`ThreadPoolBuilder` / `ThreadPool::install` /
//! `current_num_threads`).
//!
//! Work is executed on `std::thread::scope` threads in contiguous chunks,
//! so lock-free algorithms (e.g. the atomic min-edge election of
//! `mnd-kernels::boruvka`) are exercised under real cross-thread
//! interleaving, and results are concatenated in chunk order so
//! order-preserving combinators match rayon's semantics.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Threads of the pool installed on this thread (0: none). The shim's
    /// "pool" is this cap: parallel sections opened under it spawn at most
    /// that many scoped workers.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// Threads of the current pool: the pool [`ThreadPool::install`]ed on this
/// thread, else the global default — `RAYON_NUM_THREADS` like real rayon
/// (read per call, so tests can vary it without rebuilding pools), else
/// the host's cores.
pub fn current_num_threads() -> usize {
    match INSTALLED.get() {
        0 => std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            }),
        installed => installed,
    }
}

/// Worker threads for a section over `items` items: the current pool's,
/// at most 8, and no more than there are items.
fn num_threads(items: usize) -> usize {
    current_num_threads().min(8).min(items.max(1))
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// What [`ThreadPoolBuilder::build`] can fail with. The shim's pools own no
/// threads, so it never does; the type keeps call sites rayon-shaped.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    /// A builder with the default thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool's thread count; 0 (the default) leaves it to the
    /// global default of [`current_num_threads`].
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }
}

/// A thread pool, mirroring `rayon::ThreadPool`: a thread count that
/// parallel sections run under while the pool is installed (0: the global
/// default).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool current: every parallel section `op` opens
    /// on the calling thread uses at most the pool's threads (one thread:
    /// inline on the caller). The previous pool is current again when `op`
    /// returns or unwinds. Real rayon moves `op` onto a pool thread and so
    /// asks for `Send`; the shim runs it where it is called and does not
    /// (the `mnd-mst` ranks rely on that: their communicator is not `Sync`).
    /// Workers do not inherit the pool — the workspace never opens a
    /// parallel section from inside one.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED.replace(self.threads));
        op()
    }
}

/// Runs `f` over `items` on scoped threads, preserving input order in the
/// concatenated output.
fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let nt = num_threads(n);
    if n == 0 {
        return Vec::new();
    }
    if nt <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(nt);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(nt);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk_len).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let f = &f;
    let parts: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// An eagerly-evaluated parallel iterator: combinators run their closure in
/// parallel immediately and hand the materialized items to the next stage.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Consumes the iterator, calling `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync + Send,
    {
        parallel_map(self.items, f);
    }

    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Parallel filter (order-preserving).
    pub fn filter<P>(self, p: P) -> ParIter<T>
    where
        P: Fn(&T) -> bool + Sync + Send,
    {
        let kept = parallel_map(self.items, |t| if p(&t) { Some(t) } else { None });
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Parallel filter-map (order-preserving).
    pub fn filter_map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync + Send,
    {
        let kept = parallel_map(self.items, f);
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Collects the items (already materialized) into `C`.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// `into_par_iter()` — parallel iteration over owned items.
pub trait IntoParallelIterator {
    /// Item type produced by the parallel iterator.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
range_par_iter!(u32, u64, usize, i32, i64);

/// `par_iter()` — parallel iteration over `&T` items of a slice.
pub trait IntoParallelRefIterator<'a> {
    /// Reference item type.
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_sort_unstable_by_key` — mutable-slice parallel operations. The shim
/// covers `Copy` element types (the workspace sorts index permutations);
/// real rayon is more general.
pub trait ParallelSliceMut<T: Send + Copy> {
    /// Sorts the slice in parallel: chunks are sorted on worker threads and
    /// merged pairwise. Unstable in the same sense as
    /// `slice::sort_unstable_by_key`; callers needing a deterministic
    /// permutation should make the key injective.
    fn par_sort_unstable_by_key<K: Ord, F>(&mut self, key: F)
    where
        F: Fn(&T) -> K + Sync;
}

impl<T: Send + Copy> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable_by_key<K: Ord, F>(&mut self, key: F)
    where
        F: Fn(&T) -> K + Sync,
    {
        let n = self.len();
        let nt = num_threads(n);
        if n < 2 || nt <= 1 {
            self.sort_unstable_by_key(|t| key(t));
            return;
        }
        // Sort disjoint chunks on scoped threads...
        let chunk_len = n.div_ceil(nt);
        let key_ref = &key;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for chunk in self.chunks_mut(chunk_len) {
                handles.push(s.spawn(move || chunk.sort_unstable_by_key(|t| key_ref(t))));
            }
            for h in handles {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            }
        });
        // ...then merge sorted runs pairwise until one run remains.
        let mut run = chunk_len;
        while run < n {
            let mut lo = 0;
            while lo + run < n {
                let hi = (lo + 2 * run).min(n);
                merge_in_place(&mut self[lo..hi], run, key_ref);
                lo = hi;
            }
            run *= 2;
        }
    }
}

/// Merges the two sorted runs `s[..mid]` and `s[mid..]` (stably: on equal
/// keys the left run's elements come first).
fn merge_in_place<T: Copy, K: Ord>(s: &mut [T], mid: usize, key: &impl Fn(&T) -> K) {
    if mid == 0 || mid >= s.len() || key(&s[mid - 1]) <= key(&s[mid]) {
        return;
    }
    let mut merged: Vec<T> = Vec::with_capacity(s.len());
    {
        let (left, right) = s.split_at(mid);
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if key(&right[j]) < key(&left[i]) {
                merged.push(right[j]);
                j += 1;
            } else {
                merged.push(left[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&left[i..]);
        merged.extend_from_slice(&right[j..]);
    }
    s.copy_from_slice(&merged);
}

pub mod prelude {
    //! Glob-importable traits, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn for_each_runs_every_item() {
        let sum = AtomicU64::new(0);
        let v: Vec<u64> = (0..10_000).collect();
        v.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
    }

    #[test]
    fn combinators_preserve_order() {
        let out: Vec<u32> = (0u32..1000)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x * 2))
            .collect();
        let expect: Vec<u32> = (0u32..1000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out, expect);
        let kept: Vec<u32> = (0u32..100)
            .into_par_iter()
            .filter(|&x| x % 2 == 0)
            .collect();
        assert_eq!(kept, (0u32..100).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        // Pseudo-random but deterministic input, incl. duplicate keys.
        let mut v: Vec<u32> = (0..10_007u32)
            .map(|i| i.wrapping_mul(2654435761) % 512)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        v.par_sort_unstable_by_key(|&x| x);
        assert_eq!(v, expect);
        let mut empty: Vec<u32> = Vec::new();
        empty.par_sort_unstable_by_key(|&x| x);
        assert!(empty.is_empty());
    }

    fn pool(threads: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn a_pool_of_one_runs_sections_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        pool(1).install(|| {
            assert_eq!(super::current_num_threads(), 1);
            (0..10_000u32).into_par_iter().for_each(|_| on_caller());
            let mut v: Vec<u32> = (0..10_000).rev().collect();
            v.par_sort_unstable_by_key(|&x| {
                on_caller();
                x
            });
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        });
        // A wider pool bounds the workers of a section.
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        pool(2).install(|| {
            assert_eq!(super::current_num_threads(), 2);
            (0..10_000u32).into_par_iter().for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert!(seen.into_inner().unwrap().len() <= 2);
    }

    #[test]
    fn install_nests_and_restores_the_previous_pool_even_on_unwind() {
        let (outer, inner) = (pool(3), pool(2));
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 3);
            inner.install(|| assert_eq!(super::current_num_threads(), 2));
            assert_eq!(super::current_num_threads(), 3);
            let unwound = std::panic::catch_unwind(|| inner.install(|| panic!("inside install")));
            assert!(unwound.is_err());
            assert_eq!(super::current_num_threads(), 3);
        });
        assert_eq!(super::INSTALLED.get(), 0);
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let unwound = std::panic::catch_unwind(|| {
            pool(2).install(|| {
                (0..100u32)
                    .into_par_iter()
                    .for_each(|x| assert!(x < 50, "row {x}"))
            });
        });
        let message = *unwound.unwrap_err().downcast::<String>().unwrap();
        assert!(message.starts_with("row "), "{message}");
    }

    #[test]
    fn thread_count_honours_env() {
        std::env::set_var("RAYON_NUM_THREADS", "2");
        assert_eq!(super::num_threads(1000), 2);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(super::num_threads(1000) >= 1);
    }
}
