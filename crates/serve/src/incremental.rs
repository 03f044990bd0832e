//! Incremental minimum-spanning-forest maintenance for streaming edge
//! updates.
//!
//! The workspace's strict total edge order `(w, u, v)` makes the MSF of
//! any graph unique, which turns both classic dynamic-MSF rules into
//! exact ones:
//!
//! * **Insert `e = (u, v, w)`** — if `u` and `v` are in different trees,
//!   `e` joins the forest (cut rule). Otherwise `e` closes one cycle
//!   through the tree path `u..v`; the cycle's maximum edge under the
//!   total order is not in the MSF (cycle rule), so `e` replaces that
//!   edge iff `e` is smaller.
//! * **Delete `(u, v)`** — a non-forest edge leaves the forest untouched
//!   (it was the maximum of some cycle; removing it only shrinks cycles).
//!   Deleting a forest edge splits its tree into two sides; the minimum
//!   edge crossing that cut re-joins them (cut rule), or the component
//!   count grows by one if no edge crosses.
//!
//! Every mutation therefore keeps the forest equal — edge for edge — to a
//! full Kruskal recompute of the current graph, which the tests assert
//! after every batch. Costs are booked as *work units* (vertices touched
//! by tree searches, edges scanned for replacements) that the serving
//! plane drains per update job and charges to the frontend's CPU model;
//! the comparison against charging a full backend recompute instead is
//! the `repro serve-sweep` incremental-vs-recompute experiment.
//!
//! Work units are the simulated clock's input, so the searches' *visit
//! order* is part of the contract; how they keep their state is not. Both
//! tree searches run over scratch the session owns — a `u32` visit queue, a
//! per-vertex `(from, weight)` column, epoch-stamped marks — and allocate
//! nothing per operation. The allocating searches they replaced are the
//! `#[cfg(test)]` [`reference`] the unit tests compare work units against.

use std::collections::BTreeMap;

use mnd_graph::fingerprint::{fingerprint, Fingerprint};
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::EdgeList;
use mnd_kernels::msf::MsfResult;

/// A dynamically maintained graph + its minimum spanning forest. The
/// vertex set is fixed at creation; edges stream in and out.
pub struct IncrementalMsf {
    n: VertexId,
    /// Current edge set: canonical `(u <= v)` pair -> weight. One entry
    /// per pair (re-inserting an existing pair re-weights it), matching
    /// `EdgeList::canonicalize`'s parallel-edge collapse.
    edges: BTreeMap<(VertexId, VertexId), Weight>,
    /// Forest adjacency: `adj[u]` lists `(v, w)` for every forest edge
    /// incident to `u`.
    adj: Vec<Vec<(VertexId, Weight)>>,
    /// Epoch-stamped visit marks for tree searches (no per-op clearing).
    mark: Vec<u32>,
    epoch: u32,
    /// Visit queue of `path_max`, visit stack of `mark_component`.
    visit: Vec<VertexId>,
    /// `from[y]` = the vertex `path_max` reached `y` from and the weight of
    /// that forest edge; valid where `mark[y]` is the search's epoch.
    from: Vec<(VertexId, Weight)>,
    /// Work units accumulated since the last [`IncrementalMsf::drain_work`].
    work: u64,
    /// Run the allocating [`reference`] searches instead.
    #[cfg(test)]
    reference_searches: bool,
}

impl IncrementalMsf {
    /// Seeds a session from a graph and its (already computed) forest —
    /// the serving plane passes the backend's cached result here instead
    /// of recomputing.
    pub fn new(el: &EdgeList, msf: &MsfResult) -> Self {
        let n = el.num_vertices();
        let mut inc = IncrementalMsf {
            n,
            edges: el.edges().iter().map(|e| ((e.u, e.v), e.w)).collect(),
            adj: vec![Vec::new(); n as usize],
            mark: vec![0; n as usize],
            epoch: 0,
            visit: Vec::new(),
            from: vec![(0, 0); n as usize],
            work: 0,
            #[cfg(test)]
            reference_searches: false,
        };
        for e in &msf.edges {
            inc.add_forest_edge(*e);
        }
        inc
    }

    /// Seeds a session by computing the forest with Kruskal (test and
    /// standalone convenience).
    pub fn from_graph(el: &EdgeList) -> Self {
        IncrementalMsf::new(el, &mnd_kernels::kruskal_msf(el))
    }

    /// Number of vertices (fixed for the session's lifetime).
    pub fn num_vertices(&self) -> VertexId {
        self.n
    }

    /// Number of edges currently in the graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Inserts `(u, v, w)`, re-weighting the pair if already present.
    /// Self loops are ignored (canonical edge lists drop them). Panics on
    /// an endpoint `>= num_vertices()`; the serving plane refuses such a
    /// job at admission.
    pub fn insert(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        self.work += 1;
        if u == v {
            return;
        }
        let key = (u.min(v), u.max(v));
        if let Some(&old) = self.edges.get(&key) {
            if old == w {
                return;
            }
            // Re-weight = delete + insert; both rules stay exact.
            self.delete(key.0, key.1);
        }
        self.edges.insert(key, w);
        let e = WEdge::new(key.0, key.1, w);
        match self.path_max(key.0, key.1) {
            // Same tree: cycle rule against the path maximum.
            Some(path_max) => {
                if e < path_max {
                    self.remove_forest_edge(path_max.u, path_max.v);
                    self.add_forest_edge(e);
                }
            }
            // Different trees: cut rule joins them.
            None => self.add_forest_edge(e),
        }
    }

    /// Deletes the `(u, v)` pair if present; a forest-edge deletion runs
    /// the replacement search over the affected cut. Panics on an endpoint
    /// `>= num_vertices()`, like [`IncrementalMsf::insert`].
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        self.work += 1;
        if u == v {
            return;
        }
        let key = (u.min(v), u.max(v));
        if self.edges.remove(&key).is_none() || !self.is_forest_edge(key.0, key.1) {
            return;
        }
        self.remove_forest_edge(key.0, key.1);
        // Mark the side containing `u`; the minimum edge with exactly one
        // marked endpoint re-joins the cut.
        self.mark_component(key.0);
        let mut best: Option<WEdge> = None;
        for (&(a, b), &w) in &self.edges {
            self.work += 1;
            if self.marked(a) != self.marked(b) {
                let e = WEdge::new(a, b, w);
                if best.is_none_or(|cur| e < cur) {
                    best = Some(e);
                }
            }
        }
        if let Some(e) = best {
            self.add_forest_edge(e);
        }
    }

    /// The current forest as an [`MsfResult`] — edge-for-edge equal to a
    /// full recompute of [`IncrementalMsf::edge_list`].
    pub fn msf(&self) -> MsfResult {
        let mut edges = Vec::new();
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, w) in nbrs {
                if (u as VertexId) < v {
                    edges.push(WEdge::new(u as VertexId, v, w));
                }
            }
        }
        MsfResult::from_edges(self.n, edges)
    }

    /// The current graph's edges in canonical `(u, v)` order.
    fn canonical_edges(&self) -> impl ExactSizeIterator<Item = WEdge> + '_ {
        self.edges.iter().map(|(&(u, v), &w)| WEdge::new(u, v, w))
    }

    /// The current graph as a canonical edge list.
    pub fn edge_list(&self) -> EdgeList {
        EdgeList::from_raw(self.n, self.canonical_edges().collect())
    }

    /// `self.edge_list().fingerprint()` without the list: the edge map is
    /// streamed through the hash in place. This is how the serving plane
    /// keys a session's forest into its result cache.
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        fingerprint(self.n, self.canonical_edges())
    }

    /// Takes the work units accumulated since the last drain (vertices
    /// touched by tree searches + edges scanned + one unit per operation).
    pub fn drain_work(&mut self) -> u64 {
        std::mem::take(&mut self.work)
    }

    fn add_forest_edge(&mut self, e: WEdge) {
        self.adj[e.u as usize].push((e.v, e.w));
        self.adj[e.v as usize].push((e.u, e.w));
    }

    fn remove_forest_edge(&mut self, u: VertexId, v: VertexId) {
        self.adj[u as usize].retain(|&(x, _)| x != v);
        self.adj[v as usize].retain(|&(x, _)| x != u);
    }

    fn is_forest_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].iter().any(|&(x, _)| x == v)
    }

    /// Opens a tree search: a mark equal to the returned epoch means
    /// "visited by this search". When the counter would wrap, the mark
    /// column is cleared instead, so a stale mark can never alias a live
    /// epoch (and a debug build never overflows).
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Maximum edge on the tree path `u..v` (`u != v`) under the total
    /// order, or `None` when `u` and `v` are in different trees. BFS over
    /// the forest from `u`; work is booked per vertex dequeued.
    fn path_max(&mut self, u: VertexId, v: VertexId) -> Option<WEdge> {
        #[cfg(test)]
        if self.reference_searches {
            return self.reference_path_max(u, v);
        }
        let epoch = self.next_epoch();
        self.visit.clear();
        self.visit.push(u);
        self.mark[u as usize] = epoch;
        let mut head = 0;
        'search: loop {
            let &x = self.visit.get(head)?;
            self.work += 1;
            for &(y, w) in &self.adj[x as usize] {
                if self.mark[y as usize] == epoch {
                    continue;
                }
                self.mark[y as usize] = epoch;
                self.from[y as usize] = (x, w);
                if y == v {
                    break 'search;
                }
                self.visit.push(y);
            }
            head += 1;
        }
        // Walk the `from` column back to `u`.
        let mut at = v;
        let mut max: Option<WEdge> = None;
        while at != u {
            let (x, w) = self.from[at as usize];
            max = max.max(Some(WEdge::new(x, at, w)));
            at = x;
        }
        max
    }

    /// Marks the tree containing `start` with a fresh epoch.
    fn mark_component(&mut self, start: VertexId) {
        #[cfg(test)]
        if self.reference_searches {
            return self.reference_mark_component(start);
        }
        let epoch = self.next_epoch();
        self.visit.clear();
        self.visit.push(start);
        self.mark[start as usize] = epoch;
        while let Some(x) = self.visit.pop() {
            self.work += 1;
            for &(y, _) in &self.adj[x as usize] {
                if self.mark[y as usize] != epoch {
                    self.mark[y as usize] = epoch;
                    self.visit.push(y);
                }
            }
        }
    }

    fn marked(&self, x: VertexId) -> bool {
        self.mark[x as usize] == self.epoch
    }
}

/// The tree searches as they were before the session owned their scratch:
/// a fresh trace of `(vertex, parent entry, edge)` per `path_max`, a fresh
/// stack per `mark_component`. Same visit order, so the same work units —
/// which is what the tests hold the scratch searches to.
#[cfg(test)]
mod reference {
    use super::*;

    impl IncrementalMsf {
        pub(super) fn reference_path_max(&mut self, u: VertexId, v: VertexId) -> Option<WEdge> {
            let epoch = self.next_epoch();
            // Trace of (vertex, index of parent trace entry, edge to parent).
            let mut trace: Vec<(VertexId, usize, WEdge)> = vec![(u, 0, WEdge::new(u, u, 0))];
            self.mark[u as usize] = epoch;
            let mut head = 0;
            let mut found = None;
            while head < trace.len() {
                let (x, _, _) = trace[head];
                self.work += 1;
                for i in 0..self.adj[x as usize].len() {
                    let (y, w) = self.adj[x as usize][i];
                    if self.mark[y as usize] == epoch {
                        continue;
                    }
                    self.mark[y as usize] = epoch;
                    trace.push((y, head, WEdge::new(x, y, w)));
                    if y == v {
                        found = Some(trace.len() - 1);
                        break;
                    }
                }
                if found.is_some() {
                    break;
                }
                head += 1;
            }
            // The root's self entry never enters the maximum.
            let mut at = found?;
            let mut max = trace[at].2;
            while at != 0 {
                let (_, parent, e) = trace[at];
                max = max.max(e);
                at = parent;
            }
            Some(max)
        }

        pub(super) fn reference_mark_component(&mut self, start: VertexId) {
            let epoch = self.next_epoch();
            let mut stack = vec![start];
            self.mark[start as usize] = epoch;
            while let Some(x) = stack.pop() {
                self.work += 1;
                for i in 0..self.adj[x as usize].len() {
                    let (y, _) = self.adj[x as usize][i];
                    if self.mark[y as usize] != epoch {
                        self.mark[y as usize] = epoch;
                        stack.push(y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_kernels::kruskal_msf;

    fn assert_matches_recompute(inc: &IncrementalMsf, ctx: &str) {
        let oracle = kruskal_msf(&inc.edge_list());
        assert_eq!(inc.msf(), oracle, "{ctx}");
    }

    #[test]
    fn insert_joins_and_replaces() {
        let mut inc = IncrementalMsf::from_graph(&EdgeList::new(4));
        // Joins: build a path.
        inc.insert(0, 1, 10);
        inc.insert(1, 2, 20);
        inc.insert(2, 3, 30);
        assert_eq!(inc.msf().weight, 60);
        // Cycle, lighter than the path max: replaces (2, 3, 30).
        inc.insert(0, 3, 5);
        assert_eq!(inc.msf().weight, 35);
        // Cycle, heavier than every path edge: forest unchanged.
        inc.insert(1, 3, 99);
        assert_eq!(inc.msf().weight, 35);
        assert_matches_recompute(&inc, "after inserts");
    }

    #[test]
    fn delete_finds_replacement_or_splits() {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1);
        el.push(1, 2, 2);
        el.push(0, 2, 9); // non-forest backup of the 1-2 cut
        el.push(2, 3, 4);
        let mut inc = IncrementalMsf::from_graph(&el);
        assert_eq!(inc.msf().weight, 7);
        // Forest edge with a replacement across the cut.
        inc.delete(1, 2);
        assert_eq!(inc.msf().weight, 1 + 9 + 4);
        assert_matches_recompute(&inc, "after replaced delete");
        // Forest edge with no replacement: component splits off.
        inc.delete(2, 3);
        assert_eq!(inc.msf().num_components, 2);
        assert_matches_recompute(&inc, "after splitting delete");
        // Non-forest deletes and absent pairs are no-ops on the forest.
        inc.insert(0, 3, 50);
        inc.insert(1, 3, 60);
        inc.delete(1, 3);
        inc.delete(1, 3);
        assert_matches_recompute(&inc, "after non-forest deletes");
    }

    #[test]
    fn reweight_and_self_loops() {
        let mut el = EdgeList::new(3);
        el.push(0, 1, 5);
        el.push(1, 2, 6);
        el.push(0, 2, 7);
        let mut inc = IncrementalMsf::from_graph(&el);
        assert_eq!(inc.msf().weight, 11);
        // Re-weighting an existing pair moves it in and out of the forest.
        inc.insert(0, 2, 1);
        assert_eq!(inc.msf().weight, 6);
        inc.insert(0, 2, 100);
        assert_eq!(inc.msf().weight, 11);
        inc.insert(1, 1, 1); // self loop: ignored
        inc.delete(2, 2);
        assert_eq!(inc.num_edges(), 3);
        assert_matches_recompute(&inc, "after reweights");
    }

    #[test]
    fn epoch_wrap_clears_the_marks_instead_of_aliasing_them() {
        let mut inc = IncrementalMsf::from_graph(&EdgeList::new(4));
        inc.insert(0, 1, 10);
        inc.insert(1, 2, 20);
        inc.insert(2, 3, 30);
        // Every vertex carries mark 1 — the first epoch a restarted counter
        // hands out — and the counter sits at its last value, with one
        // search to go (the delete's wraps) and with none (the insert's).
        for remaining in [1, 0] {
            inc.mark.fill(1);
            inc.epoch = u32::MAX - remaining;
            // `path_max(0, 3)` has to walk the whole path: a search that
            // took the stale marks for its own finds no path and joins.
            inc.insert(0, 3, 5);
            assert_matches_recompute(&inc, "insert across the wrap");
            inc.mark.fill(1);
            // `mark_component(0)` has to stop at the cut: stale marks put
            // every vertex on one side and lose the replacement (2, 3).
            inc.delete(0, 3);
            assert_matches_recompute(&inc, "delete across the wrap");
            assert!(inc.epoch <= 2, "the counter restarted");
        }
    }

    /// One streamed mutation: `(selector, a, b, w)` — insert (3 in 5) or
    /// delete of the `(a << 16 | b)`-th live pair.
    fn apply(inc: &mut IncrementalMsf, n: u32, (sel, a, b, w): (u32, u32, u32, u32)) {
        if sel < 3 {
            inc.insert(a % n, b % n, w);
        } else if inc.num_edges() > 0 {
            let nth = (((a as usize) << 16) | b as usize) % inc.num_edges();
            let (&(u, v), _) = inc.edges.iter().nth(nth).unwrap();
            inc.delete(u, v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After every single operation of a random stream: the scratch
        /// searches booked exactly the work units of the allocating
        /// reference searches (the simulated clock's input), left the same
        /// forest, and the streamed fingerprint equals the materialised
        /// edge list's.
        #[test]
        fn scratch_searches_book_the_reference_work_and_fingerprints_stream(
            n in 2u32..60,
            ops in proptest::collection::vec((0u32..5, 0u32..60, 0u32..60, 1u32..1000), 1..60),
            seed in 0u64..1000,
        ) {
            let base = gen::gnm(n, n as u64 * 2, seed);
            let mut inc = IncrementalMsf::from_graph(&base);
            let mut reference = IncrementalMsf::from_graph(&base);
            reference.reference_searches = true;
            proptest::prop_assert_eq!(inc.fingerprint(), base.fingerprint());
            for (i, &op) in ops.iter().enumerate() {
                apply(&mut inc, n, op);
                apply(&mut reference, n, op);
                proptest::prop_assert_eq!(
                    inc.drain_work(), reference.drain_work(), "op {i} {op:?}: work", i = i, op = op
                );
                proptest::prop_assert_eq!(inc.msf(), reference.msf(), "op {i}: forest", i = i);
                proptest::prop_assert_eq!(inc.fingerprint(), inc.edge_list().fingerprint());
            }
            assert_matches_recompute(&inc, "final");
        }
    }

    #[test]
    fn random_stream_tracks_kruskal() {
        let el = gen::gnm(60, 150, 5);
        let mut inc = IncrementalMsf::from_graph(&el);
        let mut seed = 0xfeed_beefu64;
        let mut rng = move || {
            seed = mnd_graph::edgelist::splitmix64(seed);
            seed
        };
        for step in 0..300 {
            let a = (rng() % 60) as VertexId;
            let b = (rng() % 60) as VertexId;
            if rng() % 3 == 0 {
                inc.delete(a, b);
            } else {
                inc.insert(a, b, (rng() % 1000) as Weight + 1);
            }
            if step % 25 == 0 {
                assert_matches_recompute(&inc, &format!("step {step}"));
            }
        }
        assert_matches_recompute(&inc, "final");
        assert!(inc.drain_work() > 0);
        assert_eq!(inc.drain_work(), 0, "drain resets");
    }
}
