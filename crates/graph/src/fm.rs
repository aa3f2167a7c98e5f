//! Boundary Fiduccia–Mattheyses refinement for bisections.
//!
//! Used at every level of the multilevel bisection (the RB building
//! block), for the initial-partition polish and for the coarsest-level
//! refinement. Minimizes the *weighted* edgecut subject to the balance
//! caps; zero-gain moves that improve balance are kept, so the
//! refinement also acts as the balancer after uncoarsening projections.
//!
//! Each pass follows METIS 5's `FM_2WayCutRefine`: the gain heap is
//! seeded with the boundary vertices only (those with a neighbour on the
//! other side), the neighbours of every moved vertex are re-queued, and
//! the pass ends after a bounded run of moves that fail to beat the best
//! prefix seen so far. The moves past that best prefix are then undone.

use crate::csr::CsrGraph;
use std::collections::BinaryHeap;

/// Weight targets and caps for a bisection.
#[derive(Clone, Copy, Debug)]
pub struct BisectTargets {
    /// Ideal weight of part 0.
    pub t0: u64,
    /// Ideal weight of part 1.
    pub t1: u64,
    /// Maximum allowed weight of part 0.
    pub cap0: u64,
    /// Maximum allowed weight of part 1.
    pub cap1: u64,
}

impl BisectTargets {
    /// Caps for the given targets using the shared weight-cap rule
    /// (`max(ceil(target × ub), target + max_vwgt)`).
    pub fn with_ub(t0: u64, t1: u64, ub: f64, max_vwgt: u64) -> BisectTargets {
        BisectTargets {
            t0,
            t1,
            cap0: crate::partition::weight_cap(t0, ub, max_vwgt),
            cap1: crate::partition::weight_cap(t1, ub, max_vwgt),
        }
    }

    fn cap(&self, side: usize) -> u64 {
        if side == 0 {
            self.cap0
        } else {
            self.cap1
        }
    }
}

/// Weighted cut of a 2-way assignment.
pub fn cut_weight_2way(g: &CsrGraph, parts: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.nv() {
        for (n, w) in g.neighbors(v) {
            if n > v && parts[n] != parts[v] {
                cut += w as u64;
            }
        }
    }
    cut
}

/// The FM gain of moving `v` to the other side, (external − internal)
/// incident edge weight, and whether `v` has any neighbour on the other
/// side (is a boundary vertex).
fn gain_of(g: &CsrGraph, parts: &[u32], v: usize) -> (i64, bool) {
    let pv = parts[v];
    let mut gain = 0i64;
    let mut boundary = false;
    for (n, w) in g.neighbors(v) {
        if parts[n] == pv {
            gain -= w as i64;
        } else {
            gain += w as i64;
            boundary = true;
        }
    }
    (gain, boundary)
}

/// Run up to `passes` FM passes over a 2-way partition, in place.
///
/// Returns the final weighted cut. The assignment always ends in a state
/// no worse (in cut, then balance distance) than the input *unless* the
/// input violated the caps, in which case the balance is restored first
/// at whatever cut cost is needed.
pub fn fm_refine(g: &CsrGraph, parts: &mut [u32], targets: &BisectTargets, passes: usize) -> u64 {
    let _span = cubesfc_obs::span("fm");
    debug_assert_eq!(parts.len(), g.nv());
    let mut weights = [0u64; 2];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += g.vwgt[v] as u64;
    }

    rebalance(g, parts, &mut weights, targets);

    for _ in 0..passes {
        if !fm_pass(g, parts, &mut weights, targets) {
            break;
        }
    }
    cut_weight_2way(g, parts)
}

/// Force the partition back under its caps with minimum-damage moves.
fn rebalance(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64; 2], t: &BisectTargets) {
    for from in 0..2usize {
        let to = 1 - from;
        while weights[from] > t.cap(from) {
            // Best-gain movable vertex on the `from` side.
            let mut best: Option<(i64, usize)> = None;
            for v in 0..g.nv() {
                if parts[v] as usize != from {
                    continue;
                }
                let (gain, _) = gain_of(g, parts, v);
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, v));
                }
            }
            let Some((_, v)) = best else { break };
            parts[v] = to as u32;
            weights[from] -= g.vwgt[v] as u64;
            weights[to] += g.vwgt[v] as u64;
        }
    }
}

/// One boundary FM pass. Returns whether the pass improved (cut, balance).
fn fm_pass(g: &CsrGraph, parts: &mut [u32], weights: &mut [u64; 2], t: &BisectTargets) -> bool {
    let nv = g.nv();
    let mut gain = vec![0i64; nv];
    let mut locked = vec![false; nv];
    let mut heap = BinaryHeap::new();
    let mut moves: Vec<u32> = Vec::new();
    for (v, gv) in gain.iter_mut().enumerate() {
        let (gain_v, boundary) = gain_of(g, parts, v);
        *gv = gain_v;
        if boundary {
            heap.push((gain_v, v as u32));
        }
    }

    // How many moves in a row may fail to beat the best prefix before the
    // pass ends: the `limit` of METIS 5's `FM_2WayCutRefine` (libmetis/fm.c).
    let limit = (nv / 100).clamp(15, 100);
    let mut cum: i64 = 0;
    let balance_dist =
        |w: &[u64; 2]| (w[0] as i64 - t.t0 as i64).abs() + (w[1] as i64 - t.t1 as i64).abs();
    let mut best = (0i64, balance_dist(weights), 0usize); // (cum gain, dist, prefix len)

    while let Some((gpop, v)) = heap.pop() {
        let v = v as usize;
        if locked[v] || gpop != gain[v] {
            continue; // stale entry
        }
        let from = parts[v] as usize;
        let to = 1 - from;
        if weights[to] + g.vwgt[v] as u64 > t.cap(to) {
            continue; // infeasible; may become feasible later, but skipping
                      // keeps the pass O(n log n) and FM passes iterate anyway
        }
        // Apply.
        parts[v] = to as u32;
        weights[from] -= g.vwgt[v] as u64;
        weights[to] += g.vwgt[v] as u64;
        locked[v] = true;
        cum += gain[v];
        moves.push(v as u32);

        let dist = balance_dist(weights);
        if cum > best.0 || (cum == best.0 && dist < best.1) {
            best = (cum, dist, moves.len());
        } else if moves.len() - best.2 > limit {
            break;
        }

        for (n, _) in g.neighbors(v) {
            if !locked[n] {
                gain[n] = gain_of(g, parts, n).0;
                heap.push((gain[n], n as u32));
            }
        }
    }

    // Roll back past the best prefix.
    for &v in &moves[best.2..] {
        let v = v as usize;
        let from = parts[v] as usize;
        let to = 1 - from;
        parts[v] = to as u32;
        weights[from] -= g.vwgt[v] as u64;
        weights[to] += g.vwgt[v] as u64;
    }

    best.0 > 0 || (best.0 == 0 && best.2 > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single light edge: the obvious optimum
    /// splits the cliques apart.
    fn two_cliques() -> CsrGraph {
        let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 8];
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    lists[a as usize].push((b, 10));
                    lists[(a + 4) as usize].push((b + 4, 10));
                }
            }
        }
        lists[0].push((4, 1));
        lists[4].push((0, 1));
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn fm_finds_the_clique_split() {
        let g = two_cliques();
        // Start from a bad interleaved split.
        let mut parts = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        let cut = fm_refine(&g, &mut parts, &t, 8);
        assert_eq!(cut, 1, "parts = {parts:?}");
        // Each clique in one piece.
        assert!(parts[..4].iter().all(|&p| p == parts[0]));
        assert!(parts[4..].iter().all(|&p| p == parts[4]));
        assert_ne!(parts[0], parts[4]);
    }

    #[test]
    fn fm_respects_caps() {
        let g = two_cliques();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        fm_refine(&g, &mut parts, &t, 4);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0 && (8 - w0) <= t.cap1);
    }

    #[test]
    fn fm_never_worsens_an_optimal_split() {
        let g = two_cliques();
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let before = cut_weight_2way(&g, &parts);
        let after = fm_refine(&g, &mut parts, &BisectTargets::with_ub(4, 4, 1.03, 1), 8);
        assert!(after <= before);
        assert_eq!(after, 1);
    }

    #[test]
    fn rebalance_restores_caps() {
        // All vertices on one side: must be pushed under the cap.
        let g = two_cliques();
        let mut parts = vec![0u32; 8];
        let t = BisectTargets::with_ub(4, 4, 1.03, 1);
        fm_refine(&g, &mut parts, &t, 2);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0, "w0 = {w0}");
    }

    #[test]
    fn zero_gain_balance_moves_are_taken() {
        // A 4-path 0-1-2-3 split {0,1,2}/{3}: moving 2 over is zero-gain
        // in cut (cut stays 1) but improves balance.
        let g = CsrGraph::from_lists(&[
            vec![(1, 1)],
            vec![(0, 1), (2, 1)],
            vec![(1, 1), (3, 1)],
            vec![(2, 1)],
        ])
        .unwrap();
        let mut parts = vec![0, 0, 0, 1];
        let t = BisectTargets::with_ub(2, 2, 1.03, 1);
        let cut = fm_refine(&g, &mut parts, &t, 4);
        assert_eq!(cut, 1);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert_eq!(w0, 2, "parts = {parts:?}");
    }

    #[test]
    fn cut_weight_basics() {
        let g = two_cliques();
        assert_eq!(cut_weight_2way(&g, &[0, 0, 0, 0, 1, 1, 1, 1]), 1);
        assert_eq!(cut_weight_2way(&g, &[0; 8]), 0);
    }
}
