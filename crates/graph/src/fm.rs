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
//!
//! The bookkeeping is incremental. One sweep at the start of a pass gives
//! every vertex's gain and the cut the pass starts from. A move flips each
//! incident edge of weight w between internal and external, so every
//! unlocked neighbour's gain shifts by ±2w instead of being recomputed,
//! and the returned cut is the starting cut minus the kept prefix's gain,
//! with no closing O(E) scan (debug builds still check it against one).
//!
//! The gain heap is an indexed max-heap keyed by `(gain, vertex)` with one
//! entry per vertex (`gain_heap.rs`). It pops in exactly the order of a
//! lazy-deletion `BinaryHeap<(gain, vertex)>` that skips stale entries on
//! pop. FM pushes a vertex every time its gain changes, so a live lazy
//! entry always carries the vertex's current gain, and a vertex has one
//! exactly when it has been pushed since it was last popped. (An exact
//! duplicate of a popped entry is always skipped: either its vertex moved
//! and is locked, or it pops right after its twin with nothing changed and
//! is still infeasible.) That is the indexed heap's membership rule, and
//! both heaps order by the same key, ties going to the larger vertex id.
//! Bucket gain lists, METIS's structure here, were not used: they break
//! ties by insertion order, which changes the moves and with them the
//! partitions. The buffers live in an `FmScratch` that one multilevel
//! bisection reuses for all its tries and levels.

use crate::csr::CsrGraph;
use crate::gain_heap::GainHeap;

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

/// The FM gain of moving `v` to the other side: (external − internal)
/// incident edge weight.
fn gain_of(g: &CsrGraph, parts: &[u32], v: usize) -> i64 {
    let pv = parts[v];
    let mut gain = 0i64;
    for (n, w) in g.neighbors(v) {
        if parts[n] == pv {
            gain -= w as i64;
        } else {
            gain += w as i64;
        }
    }
    gain
}

/// Run up to `passes` FM passes over a 2-way partition, in place.
///
/// Returns the final weighted cut. The assignment always ends in a state
/// no worse (in cut, then balance distance) than the input *unless* the
/// input violated the caps, in which case the balance is restored first
/// at whatever cut cost is needed.
pub fn fm_refine(g: &CsrGraph, parts: &mut [u32], targets: &BisectTargets, passes: usize) -> u64 {
    fm_refine_with(g, parts, targets, passes, &mut FmScratch::default())
}

/// The buffers of an FM pass, kept between passes and between calls so
/// that one multilevel bisection allocates them once.
#[derive(Clone, Debug, Default)]
pub(crate) struct FmScratch {
    gain: Vec<i64>,
    locked: Vec<bool>,
    heap: GainHeap,
    moves: Vec<u32>,
}

/// [`fm_refine`] on caller-owned scratch buffers.
pub(crate) fn fm_refine_with(
    g: &CsrGraph,
    parts: &mut [u32],
    targets: &BisectTargets,
    passes: usize,
    scratch: &mut FmScratch,
) -> u64 {
    let _span = cubesfc_obs::span("fm");
    debug_assert_eq!(parts.len(), g.nv());
    let mut weights = [0u64; 2];
    for (v, &p) in parts.iter().enumerate() {
        weights[p as usize] += g.vwgt[v] as u64;
    }

    rebalance(g, parts, &mut weights, targets);

    let mut cut = None;
    for _ in 0..passes {
        let (after, improved) = fm_pass(g, parts, &mut weights, targets, scratch);
        cut = Some(after);
        if !improved {
            break;
        }
    }
    let cut = cut.unwrap_or_else(|| cut_weight_2way(g, parts));
    debug_assert_eq!(cut, cut_weight_2way(g, parts));
    cut
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
                let gain = gain_of(g, parts, v);
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

/// One boundary FM pass. Returns the cut after the pass and whether the
/// pass improved (cut, balance).
fn fm_pass(
    g: &CsrGraph,
    parts: &mut [u32],
    weights: &mut [u64; 2],
    t: &BisectTargets,
    scratch: &mut FmScratch,
) -> (u64, bool) {
    let nv = g.nv();
    let FmScratch {
        gain,
        locked,
        heap,
        moves,
    } = scratch;
    gain.clear();
    locked.clear();
    locked.resize(nv, false);
    moves.clear();
    heap.reset(nv);
    // One sweep gives every vertex's gain, seeds the heap with the
    // boundary, and counts the cut the pass starts from.
    let mut cut = 0u64;
    for v in 0..nv {
        let pv = parts[v];
        let mut gain_v = 0i64;
        let mut boundary = false;
        for (n, w) in g.neighbors(v) {
            if parts[n] == pv {
                gain_v -= w as i64;
            } else {
                gain_v += w as i64;
                boundary = true;
                if n > v {
                    cut += w as u64;
                }
            }
        }
        gain.push(gain_v);
        if boundary {
            heap.push(v as u32, gain_v);
        }
    }

    // How many moves in a row may fail to beat the best prefix before the
    // pass ends: the `limit` of METIS 5's `FM_2WayCutRefine` (libmetis/fm.c).
    let limit = (nv / 100).clamp(15, 100);
    let mut cum: i64 = 0;
    let balance_dist =
        |w: &[u64; 2]| (w[0] as i64 - t.t0 as i64).abs() + (w[1] as i64 - t.t1 as i64).abs();
    let mut best = (0i64, balance_dist(weights), 0usize); // (cum gain, dist, prefix len)

    while let Some((gain_v, v)) = heap.pop() {
        let v = v as usize;
        debug_assert!(!locked[v] && gain_v == gain[v]);
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
        cum += gain_v;
        moves.push(v as u32);

        let dist = balance_dist(weights);
        if cum > best.0 || (cum == best.0 && dist < best.1) {
            best = (cum, dist, moves.len());
        } else if moves.len() - best.2 > limit {
            break;
        }

        // Edge (v, n) turned internal for a neighbour now on `to` and
        // external for one still on `from`.
        for (n, w) in g.neighbors(v) {
            if !locked[n] {
                let dw = 2 * w as i64;
                gain[n] += if parts[n] as usize == to { -dw } else { dw };
                heap.push(n as u32, gain[n]);
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

    let after = (cut as i64 - best.0) as u64;
    (after, best.0 > 0 || (best.0 == 0 && best.2 > 0))
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
