//! Euclidean point clouds and exact k-nearest-neighbour graphs.
//!
//! The Euclidean MST workload (Prokopenko, Sao & Lebrun-Grandié,
//! arXiv:2207.00514) is the opposite regime from the paper's Zipf web
//! crawls: geometry-induced locality, bounded degree (≤ a small k), no
//! hubs. A k-NN graph over a point cloud, weighted by *squared* Euclidean
//! distance, is the standard reduction — EMST algorithms prune the
//! complete graph down to exactly such neighbour graphs.
//!
//! Everything here is deterministic in the seed:
//!
//! * points live on an integer lattice (`[0, SIDE)` per axis) so squared
//!   distances are exact `u64`s that fit the `u32` weight type,
//! * the k-NN search is **exact** — a k-d tree whose descent skips a
//!   subtree only when its split plane alone is farther than the k-th
//!   best distance (every point beyond the plane is at least that far),
//!   never a heuristic cutoff,
//! * neighbour ties break on `(sq_dist, id)`, so the adjacency (and
//!   therefore every downstream MSF) is reproducible bit-for-bit.
//!
//! [`GeoPreset`] wires the regimes (uniform/clustered × 2-D/3-D) into
//! named workloads the bench harness sweeps next to the Table 2 crawls.

use crate::edgelist::{splitmix64, EdgeList};
use crate::types::{VertexId, Weight};

/// Coordinate range per axis: `[0, SIDE)`. Chosen so the worst-case 3-D
/// squared distance `3·(SIDE-1)²` still fits the `u32` edge weight.
pub const SIDE: u32 = 1 << 15;

const GEO_TAG: u64 = 0x4745_4f4d; // "GEOM"

/// A deterministic point cloud on the integer lattice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointCloud {
    dim: u8,
    pts: Vec<[u32; 3]>, // z is 0 for dim == 2
}

impl PointCloud {
    /// `n` points uniform over the `dim`-cube (`dim` ∈ {2, 3}).
    pub fn uniform(n: u32, dim: u8, seed: u64) -> Self {
        assert!(dim == 2 || dim == 3, "dim must be 2 or 3");
        let mut state = splitmix64(seed ^ GEO_TAG);
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let pts = (0..n)
            .map(|_| {
                let mut p = [0u32; 3];
                for c in p.iter_mut().take(dim as usize) {
                    *c = (next() % SIDE as u64) as u32;
                }
                p
            })
            .collect();
        PointCloud { dim, pts }
    }

    /// `n` points in `clusters` uniform blobs of half-width `spread`
    /// (clamped to the lattice), plus a 1-in-8 uniform background-noise
    /// fraction. Models the clustered regime where nearest-neighbour
    /// distances are bimodal: tight inside a blob, long between blobs.
    /// The noise matters: with disjoint blobs alone, the k-NN graph only
    /// connects once k exceeds the blob *population* (which grows with
    /// n), destroying the bounded-degree property the regime exists to
    /// test. Sparse noise bridges blobs at small k instead — a noise
    /// point near a blob adopts blob points into its own k-list (the
    /// mirrored edge survives even though no blob point reciprocates),
    /// and noise-to-noise chains span the empty regions.
    pub fn clustered(n: u32, dim: u8, clusters: u32, spread: u32, seed: u64) -> Self {
        assert!(dim == 2 || dim == 3, "dim must be 2 or 3");
        assert!(clusters >= 1);
        let mut state = splitmix64(seed ^ GEO_TAG ^ 0xC1C1);
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let centers: Vec<[u32; 3]> = (0..clusters)
            .map(|_| {
                let mut c = [0u32; 3];
                for x in c.iter_mut().take(dim as usize) {
                    *x = (next() % SIDE as u64) as u32;
                }
                c
            })
            .collect();
        let pts = (0..n)
            .map(|i| {
                let mut p = [0u32; 3];
                if i % 8 == 7 {
                    // Background noise: uniform over the whole lattice.
                    for x in p.iter_mut().take(dim as usize) {
                        *x = (next() % SIDE as u64) as u32;
                    }
                } else {
                    let c = centers[(next() % clusters as u64) as usize];
                    for (x, cx) in p.iter_mut().zip(c.iter()).take(dim as usize) {
                        let off = (next() % (2 * spread as u64 + 1)) as i64 - spread as i64;
                        *x = (*cx as i64 + off).clamp(0, SIDE as i64 - 1) as u32;
                    }
                }
                p
            })
            .collect();
        PointCloud { dim, pts }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// True if the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Dimensionality (2 or 3).
    #[inline]
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// The `i`-th point (z = 0 when `dim == 2`).
    #[inline]
    pub fn point(&self, i: VertexId) -> [u32; 3] {
        self.pts[i as usize]
    }

    /// Exact squared Euclidean distance between points `i` and `j`.
    #[inline]
    pub fn sq_dist(&self, i: VertexId, j: VertexId) -> u64 {
        sq_dist(self.pts[i as usize], self.pts[j as usize])
    }

    /// Reflects every point through the lattice (`x → SIDE-1-x` per used
    /// axis). Distance-preserving, so the k-NN graph — ids, weights and
    /// all — must be identical (the proptested mirror invariance).
    pub fn mirrored(&self) -> Self {
        let pts = self
            .pts
            .iter()
            .map(|p| {
                let mut q = [0u32; 3];
                for c in 0..self.dim as usize {
                    q[c] = SIDE - 1 - p[c];
                }
                q
            })
            .collect();
        PointCloud { dim: self.dim, pts }
    }

    /// The complete graph over the cloud, weighted by squared distance —
    /// the brute-force EMST oracle's input. Quadratic: small `n` only.
    pub fn complete_graph(&self) -> EdgeList {
        let n = self.len() as VertexId;
        let mut el = EdgeList::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                el.push(i, j, self.sq_dist(i, j) as Weight);
            }
        }
        el.canonicalize();
        el
    }

    /// Exact k-nearest-neighbour graph: every point contributes edges to
    /// its `k` nearest neighbours (ties on `(sq_dist, id)`), mirrored into
    /// an undirected [`EdgeList`] weighted by squared distance.
    ///
    /// Answered by a k-d tree over the cloud: median splits on the axis of
    /// largest extent, leaves of at most 8 points, and a descent that
    /// skips a far child only when its split plane is farther than the
    /// k-th best — exact, and tie-exact, by the plane-distance argument.
    pub fn knn_graph(&self, k: usize) -> EdgeList {
        KdTree::new(self).knn_graph(k)
    }

    /// k-NN graph bumped (k doubling) until connected; returns the graph
    /// and the k that connected it. Clustered clouds with far-apart blobs
    /// need a larger k than uniform ones — this is the "connectivity
    /// threshold" the EMST oracle reasons about. The tree is built once
    /// and queried again at each doubled k.
    pub fn knn_connected(&self, k0: usize) -> (EdgeList, usize) {
        let n = self.len();
        if n <= 1 {
            return (EdgeList::new(n as VertexId), k0);
        }
        let tree = KdTree::new(self);
        let mut k = k0.max(1);
        loop {
            let el = tree.knn_graph(k);
            let g = crate::CsrGraph::from_edge_list(&el);
            if crate::components::num_components(&g) == 1 || k >= n - 1 {
                return (el, k.min(n - 1));
            }
            k *= 2;
        }
    }
}

/// Points per k-d tree leaf, at most.
const KD_LEAF: usize = 8;

/// A k-d tree over a [`PointCloud`], the exact k-NN index.
///
/// The node over tree positions `[lo, hi)` with more than [`KD_LEAF`]
/// points splits at `mid = lo + (hi - lo) / 2`: `[lo, mid)` holds the
/// points below the median by `(coordinate, id)` on the node's axis, the
/// axis of largest extent, and `[mid, hi)` the rest. So every point left
/// of `mid` has a coordinate ≤ the split point's, every point right of it
/// one ≥. No two nodes share a `mid`, which therefore keys the node's
/// split plane. The shape depends on `n` alone; `ids` and `plane` are
/// the data.
struct KdTree {
    /// Cloud ids in tree order: each leaf is a contiguous run.
    ids: Vec<VertexId>,
    /// The points in tree order (`pts[i]` is the cloud's `ids[i]`).
    pts: Vec<[u32; 3]>,
    /// Split plane `(axis, coordinate)` of the node whose `mid` is the
    /// index (the split point itself moves when its half is split again).
    plane: Vec<(u8, u32)>,
}

/// One k-NN query: the point, its id, and the best `(sq_dist, id)` pairs
/// found so far, ascending, at most `k` of them.
struct Query {
    p: [u32; 3],
    id: VertexId,
    k: usize,
    best: Vec<(u64, VertexId)>,
}

/// Exact squared Euclidean distance between two lattice points.
fn sq_dist(a: [u32; 3], b: [u32; 3]) -> u64 {
    (0..3).fold(0u64, |acc, c| {
        let d = a[c] as i64 - b[c] as i64;
        acc + (d * d) as u64
    })
}

impl KdTree {
    fn new(cloud: &PointCloud) -> Self {
        let n = cloud.len();
        let mut tree = KdTree {
            ids: (0..n as VertexId).collect(),
            pts: Vec::new(),
            plane: vec![(0, 0); n],
        };
        tree.split(&cloud.pts, 0, n);
        tree.pts = tree.ids.iter().map(|&i| cloud.pts[i as usize]).collect();
        tree
    }

    /// Orders `ids[lo..hi)` into the subtree over those positions.
    fn split(&mut self, pts: &[[u32; 3]], lo: usize, hi: usize) {
        if hi - lo <= KD_LEAF {
            return;
        }
        let ids = &mut self.ids[lo..hi];
        let extent = |c: usize| {
            let (min, max) = ids.iter().fold((u32::MAX, 0), |(min, max), &i| {
                let x = pts[i as usize][c];
                (min.min(x), max.max(x))
            });
            max - min
        };
        // The first axis of largest extent (a 2-D cloud's z extent is 0).
        let axis = (0..3).rev().max_by_key(|&c| extent(c)).unwrap_or(0);
        let mid = lo + (hi - lo) / 2;
        let (_, &mut at, _) =
            ids.select_nth_unstable_by_key(mid - lo, |&i| (pts[i as usize][axis], i));
        self.plane[mid] = (axis as u8, pts[at as usize][axis]);
        self.split(pts, lo, mid);
        self.split(pts, mid, hi);
    }

    /// The k-NN graph of the cloud, queried point by point in tree order:
    /// consecutive queries sit in the same leaf and walk the same nodes.
    fn knn_graph(&self, k: usize) -> EdgeList {
        let n = self.ids.len();
        let mut el = EdgeList::new(n as VertexId);
        if n <= 1 || k == 0 {
            return el;
        }
        let k = k.min(n - 1);
        let mut q = Query {
            p: [0; 3],
            id: 0,
            k,
            best: Vec::with_capacity(k + 1),
        };
        for (&id, &p) in self.ids.iter().zip(&self.pts) {
            q.p = p;
            q.id = id;
            q.best.clear();
            self.search(0, n, &mut q);
            for &(d, j) in &q.best {
                el.push(id.min(j), id.max(j), d as Weight);
            }
        }
        el.canonicalize();
        el
    }

    /// Offers `q` every point of the subtree over `[lo, hi)` that can
    /// still enter its list: the near child first, then the far child
    /// unless the split plane alone is farther than the k-th best. The far
    /// side's points are at least the plane distance away, and one at
    /// exactly the k-th best distance can still enter on a smaller id, so
    /// only a plane strictly beyond it prunes.
    fn search(&self, lo: usize, hi: usize, q: &mut Query) {
        if hi - lo <= KD_LEAF {
            for (&j, &p) in self.ids[lo..hi].iter().zip(&self.pts[lo..hi]) {
                if j == q.id {
                    continue;
                }
                let cand = (sq_dist(q.p, p), j);
                if q.best.len() == q.k && cand >= q.best[q.k - 1] {
                    continue;
                }
                let pos = q.best.partition_point(|&b| b < cand);
                q.best.insert(pos, cand);
                q.best.truncate(q.k);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let (axis, at) = self.plane[mid];
        let gap = q.p[axis as usize] as i64 - at as i64;
        let ((near_lo, near_hi), (far_lo, far_hi)) = if gap < 0 {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        self.search(near_lo, near_hi, q);
        if q.best.len() < q.k || gap.unsigned_abs().pow(2) <= q.best[q.k - 1].0 {
            self.search(far_lo, far_hi, q);
        }
    }
}

/// The geometric workload family: named regimes the bench harness sweeps
/// next to the Table 2 crawls. Each entry is a (distribution, dimension)
/// pair with a per-regime base `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GeoPreset {
    /// Uniform points in the unit square, k = 8. The pure bounded-degree
    /// regime: degrees concentrate at ~2k·(1±ε), no hubs at all.
    Uniform2d,
    /// Uniform points in the unit cube, k = 10 (EMST edges sit deeper in
    /// the neighbour ranking as dimension grows).
    Uniform3d,
    /// 32 tight clusters in the square, k = 8. Bimodal neighbour
    /// distances: intra-blob edges are tiny, the MST's inter-blob bridges
    /// are orders of magnitude heavier.
    Cluster2d,
    /// 32 tight clusters in the cube, k = 10.
    Cluster3d,
}

impl GeoPreset {
    /// All geometric presets, sweep order.
    pub const ALL: [GeoPreset; 4] = [
        GeoPreset::Uniform2d,
        GeoPreset::Uniform3d,
        GeoPreset::Cluster2d,
        GeoPreset::Cluster3d,
    ];

    /// Preset name as printed by the harness (and used in BENCH row keys).
    pub fn name(self) -> &'static str {
        match self {
            GeoPreset::Uniform2d => "geo-uniform-2d",
            GeoPreset::Uniform3d => "geo-uniform-3d",
            GeoPreset::Cluster2d => "geo-cluster-2d",
            GeoPreset::Cluster3d => "geo-cluster-3d",
        }
    }

    /// Parses a preset from its name.
    pub fn from_name(name: &str) -> Option<GeoPreset> {
        GeoPreset::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Dimensionality of the regime.
    pub fn dim(self) -> u8 {
        match self {
            GeoPreset::Uniform2d | GeoPreset::Cluster2d => 2,
            GeoPreset::Uniform3d | GeoPreset::Cluster3d => 3,
        }
    }

    /// Base neighbour count. The generator bumps it (doubling) if the
    /// graph comes out disconnected, so this is a floor, not a promise.
    pub fn base_k(self) -> usize {
        match self.dim() {
            2 => 8,
            _ => 10,
        }
    }

    /// Notional full-scale point count (`2²⁴ ≈ 16.8M`): the same
    /// `1/scale_div` convention as the Table 2 stand-ins, so geometric
    /// instances scale down alongside the crawls.
    pub fn paper_points(self) -> u64 {
        1 << 24
    }

    /// The point cloud at `n` points for this regime.
    pub fn points(self, n: u32, seed: u64) -> PointCloud {
        let seed = seed ^ splitmix64(self as u64 ^ GEO_TAG);
        match self {
            GeoPreset::Uniform2d | GeoPreset::Uniform3d => PointCloud::uniform(n, self.dim(), seed),
            GeoPreset::Cluster2d | GeoPreset::Cluster3d => {
                PointCloud::clustered(n, self.dim(), 32, SIDE / 24, seed)
            }
        }
    }

    /// Generates the k-NN graph at `1/scale_div` of the full-scale point
    /// count, with `k` bumped until connected. Deterministic in the seed.
    pub fn generate(self, scale_div: u64, seed: u64) -> EdgeList {
        let (el, _) = self.generate_with_k(scale_div, seed);
        el
    }

    /// [`GeoPreset::generate`], also returning the k that connected the
    /// graph.
    pub fn generate_with_k(self, scale_div: u64, seed: u64) -> (EdgeList, usize) {
        assert!(scale_div >= 1);
        let n = (self.paper_points() / scale_div).max(64) as u32;
        self.points(n, seed).knn_connected(self.base_k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;
    use crate::CsrGraph;

    #[test]
    fn names_round_trip() {
        for p in GeoPreset::ALL {
            assert_eq!(GeoPreset::from_name(p.name()), Some(p));
        }
        assert_eq!(GeoPreset::from_name("geo-nope"), None);
    }

    /// The reference: every point's `k` smallest `(sq_dist, id)` pairs by
    /// a quadratic scan.
    fn brute_force_knn(cloud: &PointCloud, k: usize) -> EdgeList {
        let n = cloud.len() as VertexId;
        let mut expect = EdgeList::new(n);
        for i in 0..n {
            let mut cands: Vec<(u64, VertexId)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (cloud.sq_dist(i, j), j))
                .collect();
            cands.sort_unstable();
            for &(d, j) in cands.iter().take(k) {
                expect.push(i.min(j), i.max(j), d as Weight);
            }
        }
        expect.canonicalize();
        expect
    }

    /// `n` points on the `4×4(×4)` sub-lattice of spacing `SIDE / 4`: many
    /// duplicate points, and distance ties on every split plane.
    fn sub_lattice(n: u32, dim: u8, seed: u64) -> PointCloud {
        let mut cloud = PointCloud::uniform(n, dim, seed);
        for p in &mut cloud.pts {
            for x in p.iter_mut() {
                *x = *x / (SIDE / 4) * (SIDE / 4);
            }
        }
        cloud
    }

    #[test]
    fn knn_is_exact_against_brute_force() {
        // The tree search must return exactly the k smallest (sq_dist, id)
        // pairs per point — checked against a quadratic scan.
        for (dim, seed) in [(2u8, 3u64), (3, 4)] {
            let cloud = PointCloud::uniform(200, dim, seed);
            assert_eq!(cloud.knn_graph(5), brute_force_knn(&cloud, 5), "dim {dim}");
        }
        // Clustered clouds (leaves deep inside blobs, long pruned walks for
        // the noise points) and sub-lattice clouds (duplicates, ties on the
        // split planes, where pruning on `<` instead of `<=` drops a
        // smaller id at an equal distance).
        let clouds = [
            ("cluster-2d", GeoPreset::Cluster2d.points(400, 5)),
            ("cluster-3d", GeoPreset::Cluster3d.points(400, 6)),
            ("lattice-2d", sub_lattice(300, 2, 7)),
            ("lattice-3d", sub_lattice(300, 3, 8)),
        ];
        for (name, cloud) in &clouds {
            for k in [1, 5, 12, 40] {
                assert_eq!(
                    cloud.knn_graph(k),
                    brute_force_knn(cloud, k),
                    "{name} k {k}"
                );
            }
        }
        // k = 1, k = n − 1 and k > n − 1 (clamped: the complete graph), and
        // the smallest clouds.
        for (name, cloud) in [
            ("uniform", PointCloud::uniform(30, 3, 9)),
            ("lattice", sub_lattice(30, 2, 10)),
        ] {
            for k in [1, 29, 35] {
                assert_eq!(
                    cloud.knn_graph(k),
                    brute_force_knn(&cloud, k),
                    "{name} k {k}"
                );
            }
        }
        for n in [1, 2] {
            let cloud = PointCloud::uniform(n, 2, 11);
            for k in [1, 3] {
                assert_eq!(
                    cloud.knn_graph(k),
                    brute_force_knn(&cloud, k),
                    "n {n} k {k}"
                );
            }
        }
    }

    #[test]
    fn presets_keep_their_graphs() {
        // The edge lists the grid search produced before the tree replaced
        // it, pinned by k, edge count and fingerprint at 4096 points.
        let pins = [
            (
                GeoPreset::Uniform2d,
                8,
                19_090,
                "d63cd7d7f62d826011a4037e6134f3aa",
            ),
            (
                GeoPreset::Uniform3d,
                10,
                23_766,
                "c41dfa03844c6dc0e357f46b17b5c0e5",
            ),
            (
                GeoPreset::Cluster2d,
                8,
                19_850,
                "51a4d59db8ab081eff965e2773948ff2",
            ),
            (
                GeoPreset::Cluster3d,
                10,
                25_773,
                "31eeb07731ac2f50ca92d43de05e3a27",
            ),
        ];
        for (p, k, m, fp) in pins {
            let (el, got_k) = p.generate_with_k(1 << 12, 42);
            let got = (got_k, el.len(), el.fingerprint().to_string());
            assert_eq!(got, (k, m, fp.to_string()), "{}", p.name());
        }
    }

    #[test]
    fn knn_weights_are_squared_distances() {
        let cloud = PointCloud::uniform(128, 2, 9);
        let el = cloud.knn_graph(6);
        for e in el.edges() {
            assert_eq!(e.w as u64, cloud.sq_dist(e.u, e.v));
        }
    }

    #[test]
    fn degrees_are_bounded_no_hubs() {
        // The defining contrast with the crawls: max degree stays within a
        // small multiple of k (each point is in ≤ O(1) other points' lists
        // on uniform clouds), and there is no hub tail.
        let el = GeoPreset::Uniform2d.generate(1 << 13, 7); // 2048 points
        let g = CsrGraph::from_edge_list(&el);
        let s = graph_stats(&g, 1, 1);
        assert!(s.max_degree <= 4 * 8, "max degree {}", s.max_degree);
        assert!(s.avg_degree >= 8.0, "avg degree {}", s.avg_degree);
    }

    #[test]
    fn presets_generate_connected_graphs() {
        for p in GeoPreset::ALL {
            let el = p.generate(1 << 16, 11); // 256 points
            let g = CsrGraph::from_edge_list(&el);
            assert_eq!(
                crate::components::num_components(&g),
                1,
                "{} disconnected",
                p.name()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for p in [GeoPreset::Uniform3d, GeoPreset::Cluster2d] {
            assert_eq!(p.generate(1 << 16, 5), p.generate(1 << 16, 5));
            assert_ne!(p.generate(1 << 16, 5), p.generate(1 << 16, 6));
        }
    }

    #[test]
    fn mirror_invariance() {
        // Reflection preserves every pairwise distance and every id, so
        // the k-NN graph must be identical edge-for-edge.
        for p in GeoPreset::ALL {
            let cloud = p.points(300, 13);
            assert_eq!(
                cloud.knn_graph(7),
                cloud.mirrored().knn_graph(7),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn cluster_bridges_are_heavy() {
        // The clustered regime's MST must cross between blobs on edges far
        // heavier than the intra-blob median — the property that stresses
        // exception-condition freezing differently from crawls.
        let el = GeoPreset::Cluster2d.generate(1 << 15, 3); // 512 points
        let mut ws: Vec<Weight> = el.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        let median = ws[ws.len() / 2];
        let max = *ws.last().unwrap();
        assert!(
            max as u64 > 16 * median.max(1) as u64,
            "max {max} vs median {median}"
        );
    }

    #[test]
    fn tiny_clouds_behave() {
        let one = PointCloud::uniform(1, 2, 0);
        assert!(one.knn_graph(4).is_empty());
        let (el, k) = PointCloud::uniform(5, 2, 1).knn_connected(64);
        assert_eq!(k, 4); // clamped to n-1
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(crate::components::num_components(&g), 1);
    }
}
