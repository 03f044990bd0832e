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
//! after every batch.
//!
//! Both rules only need the tree path between `u` and `v`, or the cut
//! beside one side of the deleted edge — never the whole component. So the
//! session keeps its forest **rooted** (a parent column, with the weight of
//! each vertex's edge to its parent, beside the forest adjacency) and its
//! graph as one sorted adjacency list per vertex, and an update touches only
//! what it changes:
//!
//! * **Path maximum.** Two walkers step from `u` and `v` towards their roots
//!   in turn. Each tags the vertices it reaches with its own epoch tag and
//!   records its running maximum there. The first vertex one walker reaches
//!   that the other has tagged is the LCA, and the path maximum is the
//!   larger of the walker's running maximum and the one recorded there. Two
//!   untagged roots mean two trees. No depth column is kept, so a link never
//!   renumbers a subtree.
//! * **Link.** Reverse the parent pointers on one endpoint's root path, which
//!   makes it its tree's root, then hang it under the other endpoint. An
//!   insert joining two trees reverses the endpoint whose root walk was
//!   shorter; one replacing a path maximum cuts that edge and reverses the
//!   endpoint below it, whose path up to the cut was just walked. A rooted
//!   tree's depth never exceeds its diameter, so re-rooting cannot make later
//!   walks longer than the tree forces, and nothing rebalances.
//! * **Forest-edge delete.** After the cut, both sides are searched in turn,
//!   the side with less accumulated graph degree stepping next, until one
//!   side is exhausted. Only that side's adjacency is scanned for the minimum
//!   edge leaving it — which can only lead to the other side, since every
//!   graph edge stays inside its tree.
//!
//! Costs are booked as *work units* that the serving plane drains per update
//! job and charges to the frontend's CPU model: one per operation, per
//! vertex a walker stands on, per parent pointer reversed, per vertex a side
//! search pops, and per adjacency entry scanned. The comparison against
//! charging a full backend recompute instead is the `repro serve-sweep`
//! incremental-vs-recompute experiment. Whole-tree searches — a BFS for
//! the path maximum, a component mark and a scan of every edge for the
//! replacement — are the `#[cfg(test)]` [`reference`] session the tests
//! hold every answer to.

use mnd_graph::fingerprint::{fingerprint, Fingerprint};
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::EdgeList;
use mnd_kernels::msf::MsfResult;

/// The parent of a root, and "no edge yet" in a walker's running maximum.
const NONE: VertexId = VertexId::MAX;

/// A dynamically maintained graph + its minimum spanning forest. The
/// vertex set is fixed at creation; edges stream in and out.
///
/// Work against the whole-tree searches of [`reference`], per operation
/// (asserted after every operation of the reference proptest):
///
/// * an insert that closes a cycle books at most `3 ×` the BFS's units
///   `+ 4`: the two walks take at most twice the longer leg of the path plus
///   three, the reversal at most one leg, and the BFS dequeues the whole
///   path;
/// * a forest-edge delete books at most `4 ×` the full scan's units: the two
///   sides hold at most `m + 2` vertices of an `m`-edge graph, the scanned
///   side at most `2m` adjacency entries, and the reversal stays inside it;
/// * an insert across two trees walks both root paths, where the BFS is
///   confined to `u`'s tree, so it has no such bound.
pub struct IncrementalMsf {
    n: VertexId,
    /// The graph: `nbrs[u]` lists `(v, w)` for every edge at `u`, sorted by
    /// `v` — one entry per pair on each side, so a pair is re-weighted, not
    /// duplicated, by a second insert. Seeded from the canonical form of the
    /// session's list, the way `EdgeList::canonicalize` collapses it.
    nbrs: Vec<Vec<(VertexId, Weight)>>,
    /// Edges in `nbrs`, each pair counted once.
    num_edges: usize,
    /// Forest adjacency: `adj[u]` lists `(v, w)` for every forest edge
    /// incident to `u`.
    adj: Vec<Vec<(VertexId, Weight)>>,
    /// `parent[x]` is `x`'s parent in its rooted tree, [`NONE`] at a root;
    /// `parent_w[x]` is the weight of that forest edge.
    parent: Vec<VertexId>,
    parent_w: Vec<Weight>,
    /// Tag marks: each search owns two fresh tags (one per walker, or one per
    /// side of a cut), so nothing is cleared per operation.
    mark: Vec<u32>,
    epoch: u32,
    /// `walk_max[x]` is the child end of the running maximum edge of the
    /// walker that tagged `x` ([`NONE`] where it started); valid where
    /// `mark[x]` is a tag of the current walk.
    walk_max: Vec<VertexId>,
    /// Visit lists of a delete's two side searches; the first is also the
    /// seeding DFS's stack.
    visit: [Vec<VertexId>; 2],
    /// Work units accumulated since the last [`IncrementalMsf::drain_work`].
    work: u64,
}

/// Where the two root walks of [`IncrementalMsf::walk`] ended.
enum Walk {
    /// `u` and `v` are in different trees; reaching their roots took this
    /// many steps each.
    Apart { u_steps: u32, v_steps: u32 },
    /// Same tree: the path maximum is the edge from `child` to its parent,
    /// on `u`'s leg of the path if `on_u`, else on `v`'s.
    Met { child: VertexId, on_u: bool },
}

impl IncrementalMsf {
    /// Seeds a session from a graph and its (already computed) forest —
    /// the serving plane passes the backend's cached result here instead
    /// of recomputing. The graph is taken in canonical form: self loops
    /// dropped, and of several copies of a pair the lightest, which is the
    /// one any MSF of `el` contains.
    pub fn new(el: &EdgeList, msf: &MsfResult) -> Self {
        let n = el.num_vertices();
        let no_loop = |e: &&WEdge| e.u != e.v;
        let mut degree = vec![0usize; n as usize];
        for e in el.edges().iter().filter(no_loop) {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut nbrs: Vec<Vec<(VertexId, Weight)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for e in el.edges().iter().filter(no_loop) {
            nbrs[e.u as usize].push((e.v, e.w));
            nbrs[e.v as usize].push((e.u, e.w));
        }
        // A canonical list fills every list in strictly increasing order; a
        // pushed one need not.
        for list in &mut nbrs {
            if !list.is_sorted_by(|a, b| a.0 < b.0) {
                // Sorted by `(v, w)`: the lightest copy of a pair comes first.
                list.sort_unstable();
                list.dedup_by_key(|&mut (v, _)| v);
            }
        }
        let mut inc = IncrementalMsf {
            n,
            num_edges: nbrs.iter().map(Vec::len).sum::<usize>() / 2,
            nbrs,
            adj: vec![Vec::new(); n as usize],
            parent: vec![NONE; n as usize],
            parent_w: vec![0; n as usize],
            mark: vec![0; n as usize],
            epoch: 0,
            walk_max: vec![NONE; n as usize],
            visit: [Vec::new(), Vec::new()],
            work: 0,
        };
        for e in &msf.edges {
            debug_assert_eq!(
                inc.weight(e.u, e.v),
                Some(e.w),
                "forest edge {e:?} not in the graph"
            );
            inc.adj[e.u as usize].push((e.v, e.w));
            inc.adj[e.v as usize].push((e.u, e.w));
        }
        inc.root_forest();
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
        self.num_edges
    }

    /// Inserts `(u, v, w)`, re-weighting the pair if already present.
    /// Self loops are ignored (canonical edge lists drop them). Panics on
    /// an endpoint `>= num_vertices()`; the serving plane refuses such a
    /// job at admission.
    pub fn insert(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.insert_edge(u, v, w);
    }

    /// Deletes the `(u, v)` pair if present; a forest-edge deletion runs
    /// the replacement search over the affected cut. Panics on an endpoint
    /// `>= num_vertices()`, like [`IncrementalMsf::insert`].
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        self.delete_edge(u, v);
    }

    /// [`IncrementalMsf::insert`], answering the path maximum it walked to
    /// (`Some(None)`: two trees), or `None` when no walk ran.
    fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Option<Option<WEdge>> {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        self.work += 1;
        if u == v {
            return None;
        }
        let (a, b) = (u.min(v), u.max(v));
        match self.weight(a, b) {
            Some(old) if old == w => return None,
            // Re-weight = delete + insert; both rules stay exact.
            Some(_) => {
                self.delete_edge(a, b);
            }
            None => {}
        }
        self.add_graph_edge(a, b, w);
        let e = WEdge::new(a, b, w);
        Some(match self.walk(a, b) {
            // Different trees: cut rule joins them, re-rooting the endpoint
            // nearer its root.
            Walk::Apart { u_steps, v_steps } => {
                let (s, t) = if u_steps <= v_steps { (a, b) } else { (b, a) };
                self.link(s, t, w);
                None
            }
            // Same tree: cycle rule against the path maximum. Once it is
            // cut, the endpoint on its leg re-roots below the cut.
            Walk::Met { child, on_u } => {
                let max = self.up_edge(child);
                if e < max {
                    self.cut(child);
                    let (s, t) = if on_u { (a, b) } else { (b, a) };
                    self.link(s, t, w);
                }
                Some(max)
            }
        })
    }

    /// [`IncrementalMsf::delete`], answering the replacement a forest-edge
    /// delete found (`Some(None)`: the tree split), or `None` when no forest
    /// edge went.
    fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Option<Option<WEdge>> {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        self.work += 1;
        if u == v || !self.remove_graph_edge(u, v) {
            return None;
        }
        let child = if self.parent[u as usize] == v {
            u
        } else if self.parent[v as usize] == u {
            v
        } else {
            return None;
        };
        let above = self.parent[child as usize];
        self.cut(child);
        let found = self.replacement(child, above);
        if let Some((x, y, w)) = found {
            self.link(x, y, w);
        }
        Some(found.map(|(x, y, w)| WEdge::new(x, y, w)))
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

    /// The current graph's edges in canonical `(u, v)` order: list by list,
    /// each list's entries above its own vertex.
    fn canonical_edges(&self) -> impl ExactSizeIterator<Item = WEdge> + '_ {
        let edges = self.nbrs.iter().zip(0..).flat_map(|(list, u)| {
            let above = list.partition_point(|&(v, _)| v < u);
            list[above..].iter().map(move |&(v, w)| WEdge::new(u, v, w))
        });
        Counted {
            edges,
            left: self.num_edges,
        }
    }

    /// The current graph as a canonical edge list.
    pub fn edge_list(&self) -> EdgeList {
        EdgeList::from_raw(self.n, self.canonical_edges().collect())
    }

    /// `self.edge_list().fingerprint()` without the list: the adjacency is
    /// streamed through the hash in place. This is how the serving plane
    /// keys a session's forest into its result cache.
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        fingerprint(self.n, self.canonical_edges())
    }

    /// Takes the work units accumulated since the last drain (one per
    /// operation, per vertex a walker stands on, per parent pointer
    /// reversed, per vertex a side search pops, per adjacency entry
    /// scanned).
    pub fn drain_work(&mut self) -> u64 {
        std::mem::take(&mut self.work)
    }

    /// Weight of the `(a, b)` pair, if it is in the graph.
    fn weight(&self, a: VertexId, b: VertexId) -> Option<Weight> {
        let list = &self.nbrs[a as usize];
        let at = list.binary_search_by_key(&b, |&(v, _)| v).ok()?;
        Some(list[at].1)
    }

    fn add_graph_edge(&mut self, a: VertexId, b: VertexId, w: Weight) {
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.nbrs[x as usize];
            let at = list.partition_point(|&(v, _)| v < y);
            list.insert(at, (y, w));
        }
        self.num_edges += 1;
    }

    /// Removes the `(a, b)` pair; false if it was not in the graph.
    fn remove_graph_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.nbrs[x as usize];
            match list.binary_search_by_key(&y, |&(v, _)| v) {
                Ok(at) => {
                    list.remove(at);
                }
                Err(_) => return false,
            }
        }
        self.num_edges -= 1;
        true
    }

    /// The forest edge from `x` (not a root) to its parent.
    fn up_edge(&self, x: VertexId) -> WEdge {
        WEdge::new(x, self.parent[x as usize], self.parent_w[x as usize])
    }

    /// Roots every tree of the seeding forest, by DFS from its smallest
    /// vertex.
    fn root_forest(&mut self) {
        let [tag, _] = self.next_tags();
        for root in 0..self.n {
            if self.mark[root as usize] == tag {
                continue;
            }
            self.mark[root as usize] = tag;
            let stack = &mut self.visit[0];
            stack.push(root);
            while let Some(x) = stack.pop() {
                for &(y, w) in &self.adj[x as usize] {
                    if self.mark[y as usize] != tag {
                        self.mark[y as usize] = tag;
                        self.parent[y as usize] = x;
                        self.parent_w[y as usize] = w;
                        stack.push(y);
                    }
                }
            }
        }
    }

    /// Opens a search with two fresh tags: a mark equal to one means
    /// "reached by that half of this search". When the counter would wrap,
    /// the mark column is cleared instead, so a stale mark can never alias
    /// a live tag (and a debug build never overflows).
    fn next_tags(&mut self) -> [u32; 2] {
        if self.epoch >= u32::MAX - 1 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        [self.epoch - 1, self.epoch]
    }

    /// Walks `u` and `v` (`u != v`) towards their roots in turn until one
    /// walker reaches a vertex the other has tagged — their LCA — or both
    /// stand on roots.
    fn walk(&mut self, u: VertexId, v: VertexId) -> Walk {
        let tags = self.next_tags();
        let mut at = [u, v];
        // Child end of each walker's running maximum edge.
        let mut max = [NONE; 2];
        let mut steps = [0u32; 2];
        let mut climbing = [true; 2];
        for (side, x) in at.into_iter().enumerate() {
            self.mark[x as usize] = tags[side];
            self.walk_max[x as usize] = NONE;
        }
        self.work += 2;
        let mut side = 0;
        while climbing != [false; 2] {
            let x = at[side];
            let up = self.parent[x as usize];
            if up == NONE {
                climbing[side] = false;
            } else {
                self.work += 1;
                steps[side] += 1;
                if max[side] == NONE || self.up_edge(x) > self.up_edge(max[side]) {
                    max[side] = x;
                }
                at[side] = up;
                if self.mark[up as usize] == tags[1 - side] {
                    // The LCA: the other walker's maximum up to it waits here.
                    let other = self.walk_max[up as usize];
                    return if other != NONE && self.up_edge(other) > self.up_edge(max[side]) {
                        Walk::Met {
                            child: other,
                            on_u: side == 1,
                        }
                    } else {
                        Walk::Met {
                            child: max[side],
                            on_u: side == 0,
                        }
                    };
                }
                self.mark[up as usize] = tags[side];
                self.walk_max[up as usize] = max[side];
            }
            side = 1 - side;
        }
        Walk::Apart {
            u_steps: steps[0],
            v_steps: steps[1],
        }
    }

    /// Makes `s` its tree's root by reversing the parent pointers on its
    /// root path, then hangs it under `t` (in another tree) by a `w` edge.
    fn link(&mut self, s: VertexId, t: VertexId, w: Weight) {
        let (mut x, mut up, mut up_w) = (s, self.parent[s as usize], self.parent_w[s as usize]);
        while up != NONE {
            let (next, next_w) = (self.parent[up as usize], self.parent_w[up as usize]);
            self.parent[up as usize] = x;
            self.parent_w[up as usize] = up_w;
            (x, up, up_w) = (up, next, next_w);
            self.work += 1;
        }
        self.parent[s as usize] = t;
        self.parent_w[s as usize] = w;
        self.adj[s as usize].push((t, w));
        self.adj[t as usize].push((s, w));
    }

    /// Removes the forest edge from `child` to its parent; `child` becomes
    /// the root of its subtree.
    fn cut(&mut self, child: VertexId) {
        let up = std::mem::replace(&mut self.parent[child as usize], NONE);
        self.adj[child as usize].retain(|&(y, _)| y != up);
        self.adj[up as usize].retain(|&(y, _)| y != child);
    }

    /// The minimum graph edge between the two sides of a cut, which hold
    /// `c` and `p`: both sides are searched in turn, the one with less
    /// accumulated graph degree stepping next, and only the first side to
    /// run out is scanned. Returns `(x, y, w)` with `x` on the scanned side.
    fn replacement(&mut self, c: VertexId, p: VertexId) -> Option<(VertexId, VertexId, Weight)> {
        let tags = self.next_tags();
        for (side, start) in [c, p].into_iter().enumerate() {
            self.mark[start as usize] = tags[side];
            self.visit[side].clear();
            self.visit[side].push(start);
        }
        let mut popped = [0usize; 2];
        let mut degree = [0usize; 2];
        let done = loop {
            if let Some(side) = (0..2).find(|&s| popped[s] == self.visit[s].len()) {
                break side;
            }
            let side = usize::from(degree[1] < degree[0]);
            let x = self.visit[side][popped[side]];
            popped[side] += 1;
            self.work += 1;
            degree[side] += self.nbrs[x as usize].len();
            for &(y, _) in &self.adj[x as usize] {
                if self.mark[y as usize] != tags[side] {
                    self.mark[y as usize] = tags[side];
                    self.visit[side].push(y);
                }
            }
        };
        // Every edge of the exhausted side that leaves it crosses the cut.
        let mut best: Option<(WEdge, VertexId, VertexId)> = None;
        for &x in &self.visit[done] {
            let list = &self.nbrs[x as usize];
            self.work += list.len() as u64;
            for &(y, w) in list {
                let e = WEdge::new(x, y, w);
                if self.mark[y as usize] != tags[done] && best.is_none_or(|(cur, _, _)| e < cur) {
                    best = Some((e, x, y));
                }
            }
        }
        best.map(|(e, x, y)| (x, y, e.w))
    }
}

/// An iterator that knows how many edges are left: [`fingerprint`] hashes
/// the count before the edges.
struct Counted<I> {
    edges: I,
    left: usize,
}

impl<I: Iterator<Item = WEdge>> Iterator for Counted<I> {
    type Item = WEdge;

    fn next(&mut self) -> Option<WEdge> {
        let e = self.edges.next()?;
        self.left -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator<Item = WEdge>> ExactSizeIterator for Counted<I> {}

/// The whole-tree session: a sorted edge map and an unrooted forest, a BFS
/// over the forest from `u` for every path maximum, a DFS marking `u`'s
/// side of every deleted forest edge and a scan of every edge for the
/// replacement. It allocates per search and books one unit per operation,
/// per vertex a search visits and per edge scanned. The tests hold the
/// rooted session's answers to it, and its work to the bounds on
/// [`IncrementalMsf`].
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    pub(super) struct ReferenceMsf {
        n: VertexId,
        edges: BTreeMap<(VertexId, VertexId), Weight>,
        adj: Vec<Vec<(VertexId, Weight)>>,
        work: u64,
    }

    impl ReferenceMsf {
        pub(super) fn new(el: &EdgeList) -> Self {
            let el = EdgeList::from_raw(el.num_vertices(), el.edges().to_vec());
            let n = el.num_vertices();
            let mut adj = vec![Vec::new(); n as usize];
            for e in mnd_kernels::kruskal_msf(&el).edges {
                adj[e.u as usize].push((e.v, e.w));
                adj[e.v as usize].push((e.u, e.w));
            }
            ReferenceMsf {
                n,
                edges: el.edges().iter().map(|e| ((e.u, e.v), e.w)).collect(),
                adj,
                work: 0,
            }
        }

        pub(super) fn insert_edge(
            &mut self,
            u: VertexId,
            v: VertexId,
            w: Weight,
        ) -> Option<Option<WEdge>> {
            self.work += 1;
            if u == v {
                return None;
            }
            let key = (u.min(v), u.max(v));
            if let Some(&old) = self.edges.get(&key) {
                if old == w {
                    return None;
                }
                self.delete_edge(key.0, key.1);
            }
            self.edges.insert(key, w);
            let e = WEdge::new(key.0, key.1, w);
            let path_max = self.path_max(key.0, key.1);
            match path_max {
                Some(max) if e < max => {
                    self.unlink(max.u, max.v);
                    self.link(e);
                }
                Some(_) => {}
                None => self.link(e),
            }
            Some(path_max)
        }

        pub(super) fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Option<Option<WEdge>> {
            self.work += 1;
            let key = (u.min(v), u.max(v));
            if u == v
                || self.edges.remove(&key).is_none()
                || !self.adj[u as usize].iter().any(|&(x, _)| x == v)
            {
                return None;
            }
            self.unlink(u, v);
            let side = self.mark_component(key.0);
            let mut best: Option<WEdge> = None;
            for (&(a, b), &w) in &self.edges {
                self.work += 1;
                let e = WEdge::new(a, b, w);
                if side[a as usize] != side[b as usize] && best.is_none_or(|cur| e < cur) {
                    best = Some(e);
                }
            }
            if let Some(e) = best {
                self.link(e);
            }
            Some(best)
        }

        /// BFS from `u` until it reaches `v`, then the maximum along the
        /// trace back; `None` when `v` is in another tree.
        fn path_max(&mut self, u: VertexId, v: VertexId) -> Option<WEdge> {
            let mut from: Vec<Option<WEdge>> = vec![None; self.n as usize];
            let mut seen = vec![false; self.n as usize];
            let mut queue = std::collections::VecDeque::from([u]);
            seen[u as usize] = true;
            'search: loop {
                let x = queue.pop_front()?;
                self.work += 1;
                for &(y, w) in &self.adj[x as usize] {
                    if !seen[y as usize] {
                        seen[y as usize] = true;
                        from[y as usize] = Some(WEdge::new(x, y, w));
                        if y == v {
                            break 'search;
                        }
                        queue.push_back(y);
                    }
                }
            }
            // Only `u` has no entry: the trace ends there.
            let mut max: Option<WEdge> = None;
            let mut at = v;
            while let Some(e) = from[at as usize] {
                max = max.max(Some(e));
                at = if e.u == at { e.v } else { e.u };
            }
            max
        }

        /// DFS marking the tree that holds `start`.
        fn mark_component(&mut self, start: VertexId) -> Vec<bool> {
            let mut side = vec![false; self.n as usize];
            let mut stack = vec![start];
            side[start as usize] = true;
            while let Some(x) = stack.pop() {
                self.work += 1;
                for &(y, _) in &self.adj[x as usize] {
                    if !side[y as usize] {
                        side[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            side
        }

        fn link(&mut self, e: WEdge) {
            self.adj[e.u as usize].push((e.v, e.w));
            self.adj[e.v as usize].push((e.u, e.w));
        }

        fn unlink(&mut self, u: VertexId, v: VertexId) {
            self.adj[u as usize].retain(|&(x, _)| x != v);
            self.adj[v as usize].retain(|&(x, _)| x != u);
        }

        pub(super) fn msf(&self) -> MsfResult {
            let edges = self.adj.iter().zip(0..).flat_map(|(nbrs, u)| {
                nbrs.iter()
                    .filter(move |&&(v, _)| u < v)
                    .map(move |&(v, w)| WEdge::new(u, v, w))
            });
            MsfResult::from_edges(self.n, edges.collect())
        }

        pub(super) fn drain_work(&mut self) -> u64 {
            std::mem::take(&mut self.work)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceMsf;
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

    /// A pushed list can hold a pair twice and a self loop. The session
    /// holds its canonical form — the lightest copy, no loop — which is
    /// also what its seeding forest spans, whichever copy came first.
    #[test]
    fn a_pushed_list_seeds_its_canonical_graph_in_either_order() {
        for copies in [[3, 5], [5, 3]] {
            let mut el = EdgeList::new(3);
            for w in copies {
                el.push(0, 1, w);
            }
            el.push(1, 2, 4);
            el.push(2, 2, 1);
            let canonical = EdgeList::from_raw(3, el.edges().to_vec());
            let mut inc = IncrementalMsf::from_graph(&el);
            assert_eq!(inc.edge_list(), canonical, "{copies:?}");
            assert_eq!(inc.msf(), kruskal_msf(&canonical), "{copies:?}");
            assert_eq!(inc.msf().weight, 7);
            // The forest edge is the graph's: deleting it finds no other.
            inc.delete(0, 1);
            assert_eq!(inc.num_edges(), 1);
            assert_matches_recompute(&inc, "after deleting the lighter copy");
        }
    }

    #[test]
    fn epoch_wrap_clears_the_marks_instead_of_aliasing_them() {
        let mut inc = IncrementalMsf::from_graph(&EdgeList::new(4));
        inc.insert(0, 1, 10);
        inc.insert(1, 2, 20);
        inc.insert(2, 3, 30);
        // The marks carry the tags a restarted counter hands out first, and
        // the counter sits one search before its last tag pair (the insert
        // takes that pair, the delete wraps) or on it (the insert wraps).
        for remaining in [1, 0] {
            inc.epoch = u32::MAX - 1 - 2 * remaining;
            // Every vertex tagged by `v`'s walker: `u`'s walker, taking the
            // stale tag for a live one, meets it at `u`'s parent.
            inc.mark.fill(2);
            inc.insert(0, 3, 5);
            assert_matches_recompute(&inc, "insert across the wrap");
            // Every vertex tagged by the first side: its search stops where
            // it starts, and misses the replacement.
            inc.mark.fill(1);
            inc.delete(0, 3);
            assert_matches_recompute(&inc, "delete across the wrap");
            assert!(inc.epoch <= 4, "the counter restarted");
        }
    }

    /// The base graphs the reference proptest draws: shapes that stress the
    /// rooting, and the dense `gnm` base the serving plane's mixes use.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        /// A path rooted at vertex 0, one end: the longest root walks.
        Path,
        /// A star around vertex 0: every delete cuts a leaf off the hub.
        Star,
        /// Four-vertex paths, joined and split again by a delete-heavy
        /// stream.
        SmallTrees,
        /// `gnm` at weight 1, streamed weights 1 and 2: ties everywhere and
        /// constant re-weights.
        EqualWeights,
        /// `gnm(n, 2n)`.
        Dense,
    }

    impl Shape {
        const ALL: [Shape; 5] = [
            Shape::Path,
            Shape::Star,
            Shape::SmallTrees,
            Shape::EqualWeights,
            Shape::Dense,
        ];

        fn base(self, n: u32, seed: u64) -> EdgeList {
            match self {
                Shape::Path => gen::path(n, seed),
                Shape::Star => gen::star(n, seed),
                Shape::SmallTrees => EdgeList::from_raw(
                    n,
                    (1..n)
                        .filter(|v| v % 4 != 0)
                        .map(|v| WEdge::new(v - 1, v, v))
                        .collect(),
                ),
                Shape::EqualWeights => {
                    let el = gen::gnm(n, n as u64 * 2, seed);
                    let ones = el.edges().iter().map(|e| WEdge::new(e.u, e.v, 1));
                    EdgeList::from_raw(n, ones.collect())
                }
                Shape::Dense => gen::gnm(n, n as u64 * 2, seed),
            }
        }
    }

    /// One update, run on the rooted session and the reference alike.
    #[derive(Clone, Copy, Debug)]
    enum Update {
        Insert(VertexId, VertexId, Weight),
        Delete(VertexId, VertexId),
    }

    /// Runs `op` on both sessions: same answer, same forest, a fingerprint
    /// that streams like the list's, and work within the bounds on
    /// [`IncrementalMsf`].
    fn step(inc: &mut IncrementalMsf, oracle: &mut ReferenceMsf, op: Update) {
        let (ours, theirs) = match op {
            Update::Insert(u, v, w) => (inc.insert_edge(u, v, w), oracle.insert_edge(u, v, w)),
            Update::Delete(u, v) => (inc.delete_edge(u, v), oracle.delete_edge(u, v)),
        };
        assert_eq!(ours, theirs, "{op:?}: answer");
        let (work, full) = (inc.drain_work(), oracle.drain_work());
        match (op, ours) {
            (Update::Insert(..), Some(Some(_))) => {
                assert!(work <= 3 * full + 4, "{op:?}: {work} units, BFS {full}")
            }
            (Update::Delete(..), Some(_)) => {
                assert!(work <= 4 * full, "{op:?}: {work} units, full scan {full}")
            }
            _ => {}
        }
        assert_eq!(inc.msf(), oracle.msf(), "{op:?}: forest");
        assert_eq!(inc.fingerprint(), inc.edge_list().fingerprint(), "{op:?}");
    }

    /// One drawn mutation `(selector, a, b, w)`: an insert of `(a, b, w)`
    /// (3 in 5; 2 in 5 on small trees), else a delete of the
    /// `(a << 16 | b)`-th live pair. A re-weight runs as its delete and its
    /// insert, so both answers are compared.
    fn apply(
        inc: &mut IncrementalMsf,
        oracle: &mut ReferenceMsf,
        shape: Shape,
        (sel, a, b, w): (u32, u32, u32, u32),
    ) {
        let n = inc.num_vertices();
        let inserts = if shape == Shape::SmallTrees { 2 } else { 3 };
        if sel < inserts {
            let (u, v) = (a % n, b % n);
            let w = if shape == Shape::EqualWeights {
                1 + w % 2
            } else {
                w
            };
            if u != v && inc.weight(u.min(v), u.max(v)).is_some_and(|old| old != w) {
                step(inc, oracle, Update::Delete(u, v));
            }
            step(inc, oracle, Update::Insert(u, v, w));
        } else if inc.num_edges() > 0 {
            let nth = (((a as usize) << 16) | b as usize) % inc.num_edges();
            let e = inc.canonical_edges().nth(nth).unwrap();
            step(inc, oracle, Update::Delete(e.u, e.v));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After every single operation of a random stream, on every shape:
        /// the rooted session answers each insert's path maximum (`None`
        /// across two trees) and each forest delete's replacement (`None`
        /// for a split) as the whole-tree searches do, holds the same
        /// forest, streams the fingerprint of its edge list, and books work
        /// within the bounds on [`IncrementalMsf`].
        #[test]
        fn rooted_searches_answer_like_the_whole_tree_searches(
            n in 2u32..80,
            ops in proptest::collection::vec((0u32..5, 0u32..80, 0u32..80, 1u32..1000), 1..80),
            seed in 0u64..1000,
        ) {
            for shape in Shape::ALL {
                let base = shape.base(n, seed);
                let mut inc = IncrementalMsf::from_graph(&base);
                let mut oracle = ReferenceMsf::new(&base);
                proptest::prop_assert_eq!(inc.msf(), oracle.msf(), "{:?}", shape);
                proptest::prop_assert_eq!(inc.fingerprint(), base.fingerprint());
                for &op in &ops {
                    apply(&mut inc, &mut oracle, shape, op);
                }
                assert_matches_recompute(&inc, &format!("{shape:?}: final"));
            }
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
