//! Connectivity: breadth-first search over a CSR, and — where all that is
//! at hand is an edge slice — a union-find that needs no adjacency
//! structure ([`forest_labels`]).
//!
//! The MSF of a graph with `k` connected components has exactly `V - k`
//! edges (§3 of the paper); every oracle test uses [`num_components`] to
//! check that count on the distributed result.

use crate::csr::CsrGraph;
use crate::types::{VertexId, WEdge};

/// Component id per vertex (ids are the smallest vertex of each component,
/// so they are stable and comparable across implementations).
pub fn connected_components(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices() as usize;
    let mut comp = vec![VertexId::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as VertexId {
        if comp[start as usize] != VertexId::MAX {
            continue;
        }
        comp[start as usize] = start;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for (v, _) in g.neighbors(u) {
                if comp[v as usize] == VertexId::MAX {
                    comp[v as usize] = start;
                    queue.push_back(v);
                }
            }
        }
    }
    comp
}

/// [`connected_components`] of the graph `(num_vertices, edges)` straight
/// from the edge slice: a min-root union-find (the larger root hangs under
/// the smaller, so a root is its set's smallest vertex and the labels come
/// out identical), path halving, no CSR. Named for its caller — the serving
/// plane labels a cached spanning forest with it — but any edge set works.
pub fn forest_labels(num_vertices: VertexId, edges: &[WEdge]) -> Vec<VertexId> {
    let mut parent: Vec<VertexId> = (0..num_vertices).collect();
    fn find(parent: &mut [VertexId], mut x: VertexId) -> VertexId {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    for e in edges {
        let (a, b) = (find(&mut parent, e.u), find(&mut parent, e.v));
        parent[a.max(b) as usize] = a.min(b);
    }
    // Every pointer leads to a smaller id, so by the time an ascending
    // pass reaches `v` its parent already holds the root.
    for v in 0..parent.len() {
        parent[v] = parent[parent[v] as usize];
    }
    parent
}

/// Number of connected components.
pub fn num_components(g: &CsrGraph) -> usize {
    let comp = connected_components(g);
    comp.iter()
        .enumerate()
        .filter(|&(i, &c)| c == i as VertexId)
        .count()
}

/// Single-source BFS distances (`u64::MAX` = unreachable); used by the
/// approximate-diameter statistic.
pub fn bfs_distances(g: &CsrGraph, source: VertexId) -> Vec<u64> {
    let n = g.num_vertices() as usize;
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == u64::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_is_one_component() {
        let g = CsrGraph::from_edge_list(&gen::path(10, 0));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn edgeless_graph_is_all_singletons() {
        let g = CsrGraph::from_edges(7, &[]);
        assert_eq!(num_components(&g), 7);
        let comp = connected_components(&g);
        for (i, &c) in comp.iter().enumerate() {
            assert_eq!(c, i as VertexId);
        }
    }

    #[test]
    fn union_counts_parts() {
        let u = gen::disconnected_union(&[gen::path(4, 1), gen::path(6, 2)]);
        let g = CsrGraph::from_edge_list(&u);
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn component_ids_are_min_vertex() {
        let u = gen::disconnected_union(&[gen::path(3, 1), gen::path(3, 2)]);
        let g = CsrGraph::from_edge_list(&u);
        let comp = connected_components(&g);
        assert_eq!(comp, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = CsrGraph::from_edge_list(&gen::path(5, 0));
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }
}
