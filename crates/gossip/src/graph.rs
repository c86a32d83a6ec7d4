//! Overlay graph analysis.
//!
//! NEWSCAST's value proposition is that its emergent overlay behaves like a
//! random graph: strongly connected at small view sizes, low diameter,
//! vanishing clustering. These functions measure those properties on a
//! snapshot of the directed overlay (`adj[i]` = out-neighbors of node `i`,
//! as indices). They back the overlay-health and self-repair tests.

use gossipopt_util::{OnlineStats, Rng64, Xoshiro256pp};
use std::collections::VecDeque;

/// Breadth-first distances from `src` along directed edges; `usize::MAX`
/// marks unreachable nodes.
pub fn bfs_distances(adj: &[Vec<usize>], src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.len()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Is the graph weakly connected (connected after symmetrizing edges)?
pub fn is_weakly_connected(adj: &[Vec<usize>]) -> bool {
    if adj.is_empty() {
        return true;
    }
    let sym = symmetrize(adj);
    bfs_distances(&sym, 0).iter().all(|&d| d != usize::MAX)
}

/// Is the graph strongly connected? (Two BFS passes: forward from 0 and
/// forward from 0 in the transposed graph.)
pub fn is_strongly_connected(adj: &[Vec<usize>]) -> bool {
    if adj.is_empty() {
        return true;
    }
    if bfs_distances(adj, 0).contains(&usize::MAX) {
        return false;
    }
    let t = transpose(adj);
    bfs_distances(&t, 0).iter().all(|&d| d != usize::MAX)
}

/// Reverse every edge.
pub fn transpose(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut t = vec![Vec::new(); adj.len()];
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            t[v].push(u);
        }
    }
    t
}

/// Union of the graph and its transpose (deduplicated).
pub fn symmetrize(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut s: Vec<Vec<usize>> = adj.to_vec();
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            s[v].push(u);
        }
    }
    for nbrs in &mut s {
        nbrs.sort_unstable();
        nbrs.dedup();
    }
    s
}

/// Local clustering coefficient of the symmetrized graph, averaged over
/// nodes with degree ≥ 2 (random graphs: ≈ degree/n; lattices: large).
pub fn avg_clustering(adj: &[Vec<usize>]) -> f64 {
    let sym = symmetrize(adj);
    let mut total = 0.0;
    let mut counted = 0usize;
    for nbrs in &sym {
        let k = nbrs.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if sym[a].binary_search(&b).is_ok() {
                    links += 1;
                }
            }
        }
        total += 2.0 * links as f64 / (k * (k - 1)) as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Mean shortest-path length over sampled source nodes (directed), ignoring
/// unreachable pairs. Returns `NaN` for graphs with no reachable pairs.
pub fn avg_path_length(adj: &[Vec<usize>], samples: usize, rng: &mut Xoshiro256pp) -> f64 {
    if adj.len() < 2 {
        return f64::NAN;
    }
    let mut stats = OnlineStats::new();
    for _ in 0..samples {
        let src = rng.index(adj.len());
        for (v, &d) in bfs_distances(adj, src).iter().enumerate() {
            if v != src && d != usize::MAX {
                stats.push(d as f64);
            }
        }
    }
    stats.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + 1) % n]).collect()
    }

    fn line_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect()
    }

    #[test]
    fn bfs_on_ring() {
        let g = ring_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn connectivity_classifications() {
        assert!(is_strongly_connected(&ring_graph(6)));
        assert!(is_weakly_connected(&ring_graph(6)));
        let line = line_graph(6);
        assert!(!is_strongly_connected(&line));
        assert!(is_weakly_connected(&line));
        let disconnected = vec![vec![1], vec![0], vec![3], vec![2]];
        assert!(!is_weakly_connected(&disconnected));
        assert!(is_weakly_connected(&[] as &[Vec<usize>]));
    }

    #[test]
    fn transpose_reverses() {
        let g = vec![vec![1], vec![2], vec![]];
        let t = transpose(&g);
        assert_eq!(t, vec![vec![], vec![0], vec![1]]);
    }

    #[test]
    fn symmetrize_dedups() {
        let g = vec![vec![1], vec![0]]; // already mutual
        let s = symmetrize(&g);
        assert_eq!(s, vec![vec![1], vec![0]]);
    }

    #[test]
    fn clustering_of_triangle_and_ring() {
        let triangle = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        assert!((avg_clustering(&triangle) - 1.0).abs() < 1e-12);
        // Large directed ring: no triangles.
        assert_eq!(avg_clustering(&ring_graph(20)), 0.0);
    }

    #[test]
    fn path_length_ring() {
        let mut rng = Xoshiro256pp::seeded(3);
        let apl = avg_path_length(&ring_graph(10), 10, &mut rng);
        // Directed ring of 10: distances 1..9 from any source, mean = 5.
        assert!((apl - 5.0).abs() < 1e-9, "apl={apl}");
    }

    #[test]
    fn path_length_trivial() {
        let mut rng = Xoshiro256pp::seeded(4);
        assert!(avg_path_length(&[vec![]], 4, &mut rng).is_nan());
    }
}
