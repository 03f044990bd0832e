//! Disjoint-set (union-find) structures.
//!
//! Two variants:
//! * [`DisjointSets`] — sequential, union by rank + path halving; used by
//!   the oracles, the forest checker and the filter kernels.
//! * [`AtomicDisjointSets`] — lock-free, CAS-based; used by the parallel
//!   (worklist) kernel where many rayon tasks union concurrently. This is
//!   the standard wait-free-find / lock-free-union structure from Jayanti &
//!   Tarjan, with unions by index order.
//!
//! The `indComp` kernel ([`crate::boruvka`]) uses neither: its unions are
//! sequential and only its chunked sweeps find concurrently, so it keeps a
//! private min-root union-find over relaxed atomic parents and path-halves
//! inside the sweeps instead of flattening between rounds.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union-find over `0..n` with union by rank and path halving.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of `x`'s set (path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only find (no compression) — handy when `self` is shared.
    #[inline]
    pub fn find_const(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    #[inline]
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Lock-free union-find over `0..n`. `find` uses path halving with relaxed
/// CAS repair; `union` links the higher index under the lower via CAS on
/// roots (no ranks — index order keeps it deterministic, and path
/// compression keeps trees shallow in practice).
pub struct AtomicDisjointSets {
    parent: Vec<AtomicU32>,
}

impl AtomicDisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        AtomicDisjointSets {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure tracks no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set. Safe to call concurrently with unions;
    /// the result is some element that was a root of `x`'s set during the
    /// call.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp != p {
                // Path halving: best-effort, failure is fine.
                let _ = self.parent[x as usize].compare_exchange_weak(
                    p,
                    gp,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            x = gp;
        }
    }

    /// Unions the sets of `a` and `b`; returns `true` if this call performed
    /// the link. Linearizable: exactly one of any set of racing unions that
    /// would connect the same two sets returns `true`.
    pub fn union(&self, a: u32, b: u32) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        loop {
            if ra == rb {
                return false;
            }
            // Deterministic orientation: larger root points at smaller.
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    // hi stopped being a root; re-resolve and retry.
                    ra = self.find(hi);
                    rb = self.find(lo);
                }
            }
        }
    }

    /// Wait-free full path compaction: afterwards (quiescent) every parent
    /// pointer aims directly at its root, so later concurrent finds resolve
    /// in one hop. Plain stores, no CAS — safe
    /// even with racing unions, because a union only ever links a *root*
    /// under another node: `r` stays an ancestor of `x` forever, so
    /// `parent[x] = r` can never skip past a newer link.
    pub fn compress_all(&self) {
        for x in 0..self.len() as u32 {
            let r = self.find(x);
            self.parent[x as usize].store(r, Ordering::Release);
        }
    }

    /// Snapshot of all roots (call only when no unions are racing).
    pub fn roots(&self) -> Vec<u32> {
        (0..self.len() as u32).map(|x| self.find(x)).collect()
    }

    /// Number of sets (quiescent only).
    pub fn num_sets(&self) -> usize {
        (0..self.len() as u32)
            .filter(|&x| self.find(x) == x)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_basics() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.num_sets(), 5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0));
        assert_eq!(d.num_sets(), 3);
        assert!(d.same(0, 1));
        assert!(!d.same(0, 3));
        assert!(d.union(1, 4));
        assert!(d.same(0, 3));
        assert_eq!(d.num_sets(), 2);
    }

    #[test]
    fn find_const_matches_find() {
        let mut d = DisjointSets::new(10);
        d.union(0, 5);
        d.union(5, 9);
        let r = d.find(9);
        assert_eq!(d.find_const(0), r);
        assert_eq!(d.find_const(5), r);
    }

    #[test]
    fn atomic_sequential_semantics() {
        let d = AtomicDisjointSets::new(6);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0));
        assert!(d.union(1, 3));
        assert_eq!(d.find(0), d.find(2));
        assert_eq!(d.num_sets(), 3); // {0,1,2,3}, {4}, {5}
    }

    #[test]
    fn atomic_orientation_is_min_root() {
        let d = AtomicDisjointSets::new(4);
        d.union(3, 1);
        d.union(1, 0);
        assert_eq!(d.find(3), 0);
    }

    #[test]
    fn compress_all_flattens_to_one_hop() {
        let d = AtomicDisjointSets::new(8);
        d.union(7, 6);
        d.union(6, 5);
        d.union(5, 4);
        d.compress_all();
        for x in 4..8u32 {
            assert_eq!(d.parent[x as usize].load(Ordering::Relaxed), 4);
        }
        assert_eq!(d.num_sets(), 5);
    }

    #[test]
    fn atomic_concurrent_unions_build_one_component() {
        use std::sync::Arc;
        let n = 1000u32;
        let d = Arc::new(AtomicDisjointSets::new(n as usize));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    // Each thread links a strided chain; union of all chains
                    // plus stride-1 links from thread 0 connects everything.
                    let stride = t + 1;
                    let mut i = 0u32;
                    while i + stride < n {
                        d.union(i, i + stride);
                        i += stride;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(d.num_sets(), 1);
    }

    #[test]
    fn exactly_one_racing_union_wins() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        for _ in 0..20 {
            let d = Arc::new(AtomicDisjointSets::new(2));
            let wins = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    let d = Arc::clone(&d);
                    let wins = Arc::clone(&wins);
                    std::thread::spawn(move || {
                        if d.union(0, 1) {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(wins.load(Ordering::SeqCst), 1);
        }
    }
}
