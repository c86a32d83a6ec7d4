//! The unified topology service: every static overlay builder in one
//! module, in index space.
//!
//! Every builder works in **index space** (`adj[i]` = out-neighbor indices
//! of node `i`); [`relabel`] maps an adjacency onto an id slice for the
//! samplers. The experiment layer, the overlay-analysis functions in
//! [`crate::graph`] and the 100k-scale paths all build overlays here.
//!
//! Determinism contract: a builder's RNG draw order (shuffles of equal
//! length, identical loop nests) is part of its interface — seeded
//! overlays, and everything downstream of them including the committed
//! `examples/fingerprint.rs` hashes, depend on it.
//!
//! Two k-out constructions coexist on purpose:
//!
//! * [`k_out_random`] — per-node shuffle of all other indices, O(n²) total;
//!   the historical experiment-layer builder, kept for seed compatibility.
//! * [`k_out_regular`] — rejection sampling, O(n·k) total; the only viable
//!   construction at 100k nodes.

use gossipopt_sim::NodeId;
use gossipopt_util::{Rng64, Xoshiro256pp};

/// Map an index-space adjacency onto `ids` (node `i` ↦ `ids[i]`).
///
/// `ids` must index positions the same way the builder did — i.e. the
/// caller's node list in construction order.
pub fn relabel(ids: &[NodeId], adj: &[Vec<usize>]) -> Vec<Vec<NodeId>> {
    adj.iter()
        .map(|nbrs| nbrs.iter().map(|&j| ids[j]).collect())
        .collect()
}

/// Full mesh: everyone knows everyone else. O(n²) — paper-scale only.
pub fn full_mesh(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| (0..n).filter(|&j| j != i).collect())
        .collect()
}

/// Star: node `0` is the hub; spokes only know the hub.
pub fn star(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| if i == 0 { (1..n).collect() } else { vec![0] })
        .collect()
}

/// Bidirectional ring in index order.
pub fn ring(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            if n <= 1 {
                Vec::new()
            } else if n == 2 {
                vec![1 - i]
            } else {
                vec![(i + n - 1) % n, (i + 1) % n]
            }
        })
        .collect()
}

/// Directed ring lattice: node `i` points at its `k` successors
/// `i+1 .. i+k` (mod `n`). `k = 1` is the plain ring. The canonical
/// low-degree, high-diameter baseline for the scale scenarios.
pub fn ring_lattice(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(k < n.max(1), "ring lattice needs k < n");
    (0..n)
        .map(|i| (1..=k).map(|d| (i + d) % n).collect())
        .collect()
}

/// Random `k`-out digraph by per-node shuffle: each node shuffles all
/// other indices and keeps the first `k` (saturating at `n − 1`).
///
/// O(n²) total work — use [`k_out_regular`] beyond a few thousand nodes.
/// Kept because its RNG draw order backs the experiment layer's seeded
/// `KOut` topologies.
pub fn k_out_random(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            if n <= 1 {
                return Vec::new();
            }
            let k = k.min(n - 1);
            let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            rng.shuffle(&mut others);
            others.truncate(k);
            others
        })
        .collect()
}

/// Random `k`-out-regular digraph by rejection sampling: every node picks
/// `k` distinct out-neighbors uniformly (never itself). Expander-like: low
/// diameter at constant degree, O(n·k) construction — the random-graph
/// reference point for the 100k-node runs.
pub fn k_out_regular(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Vec<Vec<usize>> {
    assert!(k < n.max(1), "k-out-regular needs k < n");
    let mut adj = Vec::with_capacity(n);
    let mut picked = Vec::with_capacity(k);
    for i in 0..n {
        picked.clear();
        while picked.len() < k {
            let c = rng.index(n);
            if c != i && !picked.contains(&c) {
                picked.push(c);
            }
        }
        adj.push(picked.clone());
    }
    adj
}

/// 2-D torus grid (4-neighborhood with wraparound) — the "mesh topology
/// connecting nodes responsible for different partitions" sketched in the
/// paper's architecture section.
///
/// The grid is `rows × cols` with `rows` the largest divisor of `n` not
/// exceeding its square root; prime sizes therefore degenerate to a
/// `1 × n` ring, which is still a valid torus.
pub fn torus_grid(n: usize) -> Vec<Vec<usize>> {
    if n <= 1 {
        return vec![Vec::new(); n];
    }
    let rows = largest_divisor_below_sqrt(n);
    let cols = n / rows;
    (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            let mut nbrs = vec![r * cols + (c + 1) % cols, r * cols + (c + cols - 1) % cols];
            if rows > 1 {
                nbrs.push(((r + 1) % rows) * cols + c);
                nbrs.push(((r + rows - 1) % rows) * cols + c);
            }
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs.retain(|&x| x != i);
            nbrs
        })
        .collect()
}

/// Watts–Strogatz small world: a ring lattice where every node links to
/// its `k` nearest neighbors (`k/2` per side, `k` rounded up to even),
/// each lattice edge then rewired with probability `beta`. `beta = 0`
/// keeps the lattice (high clustering, long paths); `beta = 1` approaches
/// a random graph — the regime the PSO-neighborhood literature the paper
/// cites ([Kennedy 1999]) studies.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut Xoshiro256pp) -> Vec<Vec<usize>> {
    if n <= 1 {
        return vec![Vec::new(); n];
    }
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let half = (k.max(2) / 2).min((n - 1) / 2).max(1);
    // Undirected edge set as (min, max) index pairs.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in 1..=half {
            let t = (i + j) % n;
            edges.push((i.min(t), i.max(t)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let has_edge = |edges: &[(usize, usize)], a: usize, b: usize| {
        let key = (a.min(b), a.max(b));
        edges.binary_search(&key).is_ok()
    };
    // Rewire pass: detach the far end of each original lattice edge with
    // probability beta, re-attaching it to a uniform non-neighbor.
    let originals = edges.clone();
    for &(a, b) in &originals {
        if !rng.chance(beta) {
            continue;
        }
        // Choose a new target for `a` distinct from both endpoints and not
        // already a neighbor; give up after a few tries in tiny or
        // near-complete graphs.
        for _ in 0..16 {
            let t = rng.index(n);
            if t != a && t != b && !has_edge(&edges, a, t) {
                if let Ok(pos) = edges.binary_search(&(a.min(b), a.max(b))) {
                    edges.remove(pos);
                }
                let key = (a.min(t), a.max(t));
                let pos = edges.binary_search(&key).unwrap_err();
                edges.insert(pos, key);
                break;
            }
        }
    }
    let mut lists = vec![Vec::new(); n];
    for (a, b) in edges {
        lists[a].push(b);
        lists[b].push(a);
    }
    lists
}

/// Erdős–Rényi `G(n, p)`: every undirected pair independently linked with
/// probability `p`. Isolated nodes are possible at small `p`; their
/// sampler simply yields no peer.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Vec<Vec<usize>> {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut lists = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(p) {
                lists[i].push(j);
                lists[j].push(i);
            }
        }
    }
    lists
}

/// Two-level hierarchy (Shin et al. 2020-style power-network scaling):
/// nodes are grouped into `clusters` clusters of `cluster_size`; members
/// of a cluster form a degree-`intra_k` ring lattice and additionally
/// point at their cluster head (the cluster's first node) unless their
/// ring window already reaches it, while the heads form a degree-`hub_k`
/// ring lattice among themselves. Node ids are
/// `cluster * cluster_size + member`; adjacency lists are duplicate-free.
pub fn two_level_hierarchy(
    clusters: usize,
    cluster_size: usize,
    intra_k: usize,
    hub_k: usize,
) -> Vec<Vec<usize>> {
    assert!(cluster_size >= 1, "clusters cannot be empty");
    assert!(
        intra_k < cluster_size.max(1),
        "intra_k must fit the cluster"
    );
    assert!(hub_k < clusters.max(1), "hub_k must fit the head ring");
    let n = clusters * cluster_size;
    let mut adj = vec![Vec::new(); n];
    for c in 0..clusters {
        let base = c * cluster_size;
        for m in 0..cluster_size {
            let i = base + m;
            for d in 1..=intra_k {
                adj[i].push(base + (m + d) % cluster_size);
            }
            // Member -> cluster head uplink, unless the ring window above
            // already wrapped onto the head (m >= cluster_size - intra_k),
            // which would duplicate the edge and double the head's pick
            // probability under uniform neighbor selection.
            if m != 0 && m < cluster_size - intra_k {
                adj[i].push(base);
            }
        }
        for d in 1..=hub_k {
            adj[base].push(((c + d) % clusters) * cluster_size);
        }
    }
    adj
}

/// The two-level hierarchy shaped automatically for **exactly** `n` nodes
/// and a per-member degree budget: `round(√n)` clusters for every `n`
/// (sizes differ by at most one — ragged, never divisor-dependent), ring
/// window `degree` within each cluster, member → head uplinks, and a head
/// ring of degree `≈ √clusters` (at least `degree`) so the hub overlay's
/// diameter stays small. Unlike [`two_level_hierarchy`] this never pads
/// above `n` and never degenerates to a couple of giant rings when `n`
/// has no divisor near `√n`.
pub fn two_level_auto(n: usize, degree: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let clusters = ((n as f64).sqrt().round() as usize).clamp(1, n);
    let hub = ((clusters as f64).sqrt().ceil() as usize)
        .max(degree)
        .min(clusters.saturating_sub(1));
    let (base_size, extra) = (n / clusters, n % clusters);
    // Cluster c (0-based) has base_size + 1 members while c < extra; its
    // head sits at the cumulative offset.
    let head_of = |c: usize| c * base_size + c.min(extra);
    let mut adj = vec![Vec::new(); n];
    for c in 0..clusters {
        let base = head_of(c);
        let size = base_size + usize::from(c < extra);
        let intra = degree.min(size.saturating_sub(1));
        for m in 0..size {
            let i = base + m;
            for d in 1..=intra {
                adj[i].push(base + (m + d) % size);
            }
            // Member -> head uplink unless the ring window already wraps
            // onto the head (which would duplicate the edge and double the
            // head's pick probability under uniform neighbor selection).
            if m != 0 && m < size - intra {
                adj[i].push(base);
            }
        }
        for d in 1..=hub {
            adj[base].push(head_of((c + d) % clusters));
        }
    }
    adj
}

/// The largest divisor of `n` that does not exceed `√n` (1 for primes).
fn largest_divisor_below_sqrt(n: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    #[test]
    fn full_mesh_degrees() {
        for (i, nbrs) in full_mesh(5).iter().enumerate() {
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&i));
        }
    }

    #[test]
    fn star_shape() {
        let t = star(6);
        assert_eq!(t[0].len(), 5, "hub sees all spokes");
        for spoke in &t[1..] {
            assert_eq!(spoke, &vec![0]);
        }
    }

    #[test]
    fn ring_shape() {
        let t = ring(5);
        assert_eq!(t[0], vec![4, 1]);
        assert_eq!(t[2], vec![1, 3]);
        // tiny rings
        assert_eq!(ring(1)[0].len(), 0);
        assert_eq!(ring(2)[0], vec![1]);
    }

    #[test]
    fn torus_grid_four_neighbors_when_square() {
        let t = torus_grid(16); // 4x4
        for (i, nbrs) in t.iter().enumerate() {
            assert_eq!(nbrs.len(), 4, "node {i}: {nbrs:?}");
            assert!(!nbrs.contains(&i));
            assert!(nbrs.is_sorted(), "lists are ordered by index");
        }
        assert!(graph::is_strongly_connected(&t));
    }

    #[test]
    fn torus_grid_prime_size_degenerates_to_ring() {
        let t = torus_grid(7); // 1x7 ring
        for nbrs in &t {
            assert_eq!(nbrs.len(), 2);
        }
        assert!(graph::is_strongly_connected(&t));
    }

    #[test]
    fn torus_grid_tiny_cases() {
        assert_eq!(torus_grid(1)[0].len(), 0);
        assert_eq!(torus_grid(2)[0], vec![1]);
        // 2x2 torus: wraparound duplicates collapse to the two distinct
        // orthogonal neighbors.
        for (i, nbrs) in torus_grid(4).iter().enumerate() {
            assert!(!nbrs.is_empty());
            assert!(!nbrs.contains(&i));
        }
    }

    #[test]
    fn watts_strogatz_beta_zero_is_lattice() {
        let mut rng = Xoshiro256pp::seeded(7);
        let t = watts_strogatz(20, 4, 0.0, &mut rng);
        for (i, nbrs) in t.iter().enumerate() {
            assert_eq!(nbrs.len(), 4, "node {i}");
            // Lattice neighbors are ring-adjacent within distance 2.
            for &nb in nbrs {
                let d = (nb as i64 - i as i64).rem_euclid(20);
                assert!(d <= 2 || d >= 18, "node {i} linked to distant {nb}");
            }
        }
        assert!((graph::avg_clustering(&t) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn watts_strogatz_rewiring_shortens_paths() {
        let mut rng = Xoshiro256pp::seeded(8);
        let lattice = watts_strogatz(100, 4, 0.0, &mut rng);
        let small_world = watts_strogatz(100, 4, 0.3, &mut rng);
        let mut prng = Xoshiro256pp::seeded(9);
        let pl = graph::avg_path_length(&lattice, 200, &mut prng);
        let psw = graph::avg_path_length(&small_world, 200, &mut prng);
        assert!(
            psw < pl,
            "rewiring must shorten paths: lattice {pl}, small-world {psw}"
        );
    }

    #[test]
    fn watts_strogatz_stays_symmetric_after_rewiring() {
        let mut rng = Xoshiro256pp::seeded(10);
        let adj = watts_strogatz(30, 4, 0.5, &mut rng);
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                assert!(adj[j].contains(&i), "edge {i}->{j} missing reverse");
                assert_ne!(i, j, "self loop at {i}");
            }
        }
    }

    #[test]
    fn erdos_renyi_edge_density_tracks_p() {
        let mut rng = Xoshiro256pp::seeded(11);
        let n = 200;
        let t = erdos_renyi(n, 0.1, &mut rng);
        let edges: usize = t.iter().map(|l| l.len()).sum::<usize>() / 2;
        let expect = 0.1 * (n * (n - 1) / 2) as f64;
        assert!(
            (edges as f64 - expect).abs() < 0.25 * expect,
            "{edges} edges vs expected {expect}"
        );
        // p = 0 and p = 1 extremes.
        let none = erdos_renyi(10, 0.0, &mut rng);
        assert!(none.iter().all(|l| l.is_empty()));
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert!(full.iter().all(|l| l.len() == 9));
    }

    #[test]
    fn k_out_random_degrees_and_no_self() {
        let mut rng = Xoshiro256pp::seeded(2);
        let t = k_out_random(20, 4, &mut rng);
        for (i, nbrs) in t.iter().enumerate() {
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&i));
            let mut u = nbrs.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 4, "neighbors must be distinct");
        }
        // k larger than n-1 saturates
        let t2 = k_out_random(3, 10, &mut rng);
        assert!(t2.iter().all(|nbrs| nbrs.len() == 2));
    }

    #[test]
    fn ring_lattice_degree_and_connectivity() {
        let g = ring_lattice(10, 3);
        assert!(g.iter().all(|nbrs| nbrs.len() == 3));
        assert_eq!(g[9], vec![0, 1, 2], "wraps around");
        assert!(graph::is_strongly_connected(&g));
        assert_eq!(ring_lattice(3, 1), vec![vec![1], vec![2], vec![0]]);
    }

    #[test]
    fn k_out_regular_degree_distinct_no_self() {
        let mut rng = Xoshiro256pp::seeded(9);
        let g = k_out_regular(200, 4, &mut rng);
        for (i, nbrs) in g.iter().enumerate() {
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&i), "no self-loop at {i}");
            let mut s = nbrs.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4, "distinct picks at {i}");
        }
        // Random 4-out digraphs of this size are connected w.h.p.; with a
        // fixed seed this is deterministic.
        assert!(graph::is_weakly_connected(&g));
        let mut rng2 = Xoshiro256pp::seeded(9);
        assert_eq!(g, k_out_regular(200, 4, &mut rng2), "seeded determinism");
    }

    #[test]
    fn hierarchy_is_connected_and_shaped() {
        let g = two_level_hierarchy(6, 10, 2, 2);
        assert_eq!(g.len(), 60);
        assert!(graph::is_strongly_connected(&g));
        // A non-head member: intra ring (2) + uplink (1).
        assert_eq!(g[1].len(), 3);
        assert!(g[1].contains(&0), "member points at its head");
        // A head: intra ring (2) + hub ring (2).
        assert_eq!(g[0].len(), 4);
        assert!(g[0].contains(&10) && g[0].contains(&20), "head hub links");
        // Heads only link to other heads in the hub ring.
        assert!(g[10].iter().filter(|&&v| v % 10 == 0).count() >= 2);
        // Members whose ring window wraps onto the head get no duplicate
        // uplink; every adjacency list is duplicate-free.
        assert_eq!(g[9].iter().filter(|&&v| v == 0).count(), 1);
        for (i, nbrs) in g.iter().enumerate() {
            let mut s = nbrs.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), nbrs.len(), "duplicate edge at node {i}");
        }
    }

    #[test]
    fn relabel_maps_through_ids() {
        let ids = [NodeId(10), NodeId(20), NodeId(30)];
        let adj = vec![vec![1, 2], vec![0], vec![]];
        assert_eq!(
            relabel(&ids, &adj),
            vec![vec![NodeId(20), NodeId(30)], vec![NodeId(10)], vec![]]
        );
    }

    #[test]
    fn two_level_auto_builds_exactly_n_nodes() {
        for n in [1usize, 2, 7, 12, 60, 97, 100] {
            let adj = two_level_auto(n, 3);
            assert_eq!(adj.len(), n, "n = {n}");
            for (i, nbrs) in adj.iter().enumerate() {
                assert!(!nbrs.contains(&i), "self loop at {i} (n = {n})");
                assert!(nbrs.iter().all(|&v| v < n), "phantom edge at {i}");
                let mut s = nbrs.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), nbrs.len(), "duplicate edge at {i}");
            }
        }
    }

    #[test]
    fn two_level_auto_is_strongly_connected_at_scale_shapes() {
        // Includes a prime (997) and a semiprime (9998 = 2 × 4999): the
        // ragged split must keep ~sqrt(n) clusters for every n, not fall
        // back to a couple of giant rings when no divisor is near sqrt(n).
        for n in [60usize, 100, 997, 1000, 9998] {
            let adj = two_level_auto(n, 4);
            assert!(
                graph::is_strongly_connected(&adj),
                "auto hierarchy with n = {n} must be strongly connected"
            );
        }
    }

    #[test]
    fn two_level_auto_keeps_sqrt_clusters_for_awkward_n() {
        // 9998 has no divisor near sqrt(9998) ≈ 100; a divisor-based split
        // would produce 2 clusters of 4999 (diameter ~1250 at degree 4).
        // The ragged split keeps ~100 clusters, so BFS eccentricity from
        // any node stays two orders of magnitude below ring diameter.
        let adj = two_level_auto(9998, 4);
        let ecc = graph::bfs_distances(&adj, 1).into_iter().max().unwrap();
        assert!(ecc < 200, "hierarchy eccentricity {ecc} looks like a ring");
        // Heads at the ragged offsets: cluster sizes differ by at most 1
        // and sum to n, so every index is covered exactly once.
        let frac: usize = adj.iter().map(Vec::len).sum();
        assert!(frac > 0);
    }

    #[test]
    fn shuffle_and_rejection_kout_agree_on_degree_only() {
        // Same seed, different algorithms: both yield k distinct non-self
        // out-neighbors, but their draw orders are intentionally different
        // (each backs a different committed-seed lineage).
        let mut r1 = Xoshiro256pp::seeded(5);
        let mut r2 = Xoshiro256pp::seeded(5);
        let a = k_out_random(50, 3, &mut r1);
        let b = k_out_regular(50, 3, &mut r2);
        for g in [&a, &b] {
            for (i, nbrs) in g.iter().enumerate() {
                assert_eq!(nbrs.len(), 3);
                assert!(!nbrs.contains(&i));
            }
        }
        assert_ne!(a, b, "distinct constructions (seed lineages) expected");
    }
}
