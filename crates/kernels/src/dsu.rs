//! Disjoint-set (union-find): [`DisjointSets`], sequential, with union by
//! rank and path halving; used by the oracle and the forest checker.
//!
//! The `indComp` kernel ([`crate::boruvka`]) does not use it: its unions are
//! sequential and only its chunked sweeps find concurrently, so it keeps a
//! private min-root union-find over relaxed atomic parents and path-halves
//! inside the sweeps instead of flattening between rounds. The filter's
//! sweep ([`crate::filter`]) keeps a min-root parent column of its own too:
//! one column, so a find touches one cache line per step.

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
}
