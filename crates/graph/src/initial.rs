//! Initial bisection of the coarsest graph: greedy graph growing.
//!
//! From a random seed vertex, grow part 0 by repeatedly absorbing the
//! frontier vertex whose move is cheapest (max FM gain), until part 0
//! reaches its target weight. Several seeds are tried and the best result
//! (after a quick FM polish) is kept.
//!
//! Every part-1 vertex keeps its gain toward part 0: it starts at minus
//! the vertex's weighted degree and rises by 2w whenever a neighbour
//! across an edge of weight w is absorbed. Picking the best frontier
//! vertex then reads one number per vertex instead of rescanning its
//! adjacency.

use crate::csr::CsrGraph;
use crate::fm::{fm_refine_with, BisectTargets, FmScratch};
use crate::rng::SplitMix64;

/// The buffers of one growth, reused by every try.
#[derive(Default)]
struct Growth {
    parts: Vec<u32>,
    /// Gain toward part 0 of every part-1 vertex.
    gain: Vec<i64>,
    in_frontier: Vec<bool>,
    frontier: Vec<u32>,
}

impl Growth {
    /// Move `v` into part 0 and update its part-1 neighbours.
    fn absorb(&mut self, g: &CsrGraph, v: usize, w0: &mut u64) {
        self.parts[v] = 0;
        *w0 += g.vwgt[v] as u64;
        for (n, w) in g.neighbors(v) {
            if self.parts[n] == 1 {
                // Edge (v, n) now counts toward part 0 instead of part 1.
                self.gain[n] += 2 * w as i64;
                if !self.in_frontier[n] {
                    self.in_frontier[n] = true;
                    self.frontier.push(n as u32);
                }
            }
        }
    }

    /// Grow one candidate bisection from `seed` into `self.parts`.
    /// `start_gain` is every vertex's gain with part 0 empty.
    fn grow_from(&mut self, g: &CsrGraph, seed: usize, t0: u64, start_gain: &[i64]) {
        let nv = g.nv();
        self.parts.clear();
        self.parts.resize(nv, 1);
        self.gain.clear();
        self.gain.extend_from_slice(start_gain);
        self.in_frontier.clear();
        self.in_frontier.resize(nv, false);
        self.frontier.clear();
        let mut w0 = 0u64;

        self.absorb(g, seed, &mut w0);
        while w0 < t0 {
            // Pick the frontier vertex with the max gain toward part 0:
            // (weight to part 0) − (weight to part 1).
            let mut best: Option<(i64, usize, usize)> = None; // (gain, idx, v)
            for (idx, &fv) in self.frontier.iter().enumerate() {
                let v = fv as usize;
                if self.parts[v] == 0 {
                    continue; // already absorbed
                }
                let gain = self.gain[v];
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, idx, v));
                }
            }
            let Some((_, idx, v)) = best else {
                // Frontier exhausted (disconnected graph): absorb any part-1
                // vertex to keep making progress.
                match self.parts.iter().position(|&p| p == 1) {
                    Some(v) => {
                        self.absorb(g, v, &mut w0);
                        continue;
                    }
                    None => break,
                }
            };
            self.frontier.swap_remove(idx);
            self.absorb(g, v, &mut w0);
        }
    }
}

/// Produce an initial bisection with part-0 target weight `t0`.
///
/// `tries` seeds are grown, each polished with a couple of FM passes; the
/// lowest-cut feasible result wins.
pub fn greedy_graph_growing(
    g: &CsrGraph,
    targets: &BisectTargets,
    tries: usize,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    greedy_graph_growing_with(g, targets, tries, rng, &mut FmScratch::default())
}

/// [`greedy_graph_growing`] polishing on caller-owned FM buffers.
pub(crate) fn greedy_graph_growing_with(
    g: &CsrGraph,
    targets: &BisectTargets,
    tries: usize,
    rng: &mut SplitMix64,
    fm: &mut FmScratch,
) -> Vec<u32> {
    let _span = cubesfc_obs::span("initial");
    let nv = g.nv();
    assert!(nv > 0, "cannot bisect an empty graph");
    let start_gain: Vec<i64> = (0..nv)
        .map(|v| -g.neighbors(v).map(|(_, w)| w as i64).sum::<i64>())
        .collect();
    let mut growth = Growth::default();
    let mut best: Option<(u64, Vec<u32>)> = None;
    for _ in 0..tries.max(1) {
        let seed = rng.below(nv);
        growth.grow_from(g, seed, targets.t0, &start_gain);
        let cut = fm_refine_with(g, &mut growth.parts, targets, 2, fm);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, growth.parts.clone()));
        }
    }
    best.unwrap().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::cut_weight_2way;

    fn grid(w: usize, h: usize) -> CsrGraph {
        let idx = |x: usize, y: usize| (y * w + x) as u32;
        let mut lists = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                let mut l = Vec::new();
                if x > 0 {
                    l.push((idx(x - 1, y), 1));
                }
                if x + 1 < w {
                    l.push((idx(x + 1, y), 1));
                }
                if y > 0 {
                    l.push((idx(x, y - 1), 1));
                }
                if y + 1 < h {
                    l.push((idx(x, y + 1), 1));
                }
                lists[idx(x, y) as usize] = l;
            }
        }
        CsrGraph::from_lists(&lists).unwrap()
    }

    #[test]
    fn ggg_produces_balanced_bisection() {
        let g = grid(8, 8);
        let t = BisectTargets::with_ub(32, 32, 1.03, 1);
        let mut rng = SplitMix64::new(11);
        let parts = greedy_graph_growing(&g, &t, 4, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0 && 64 - w0 <= t.cap1, "w0 = {w0}");
    }

    #[test]
    fn ggg_cut_is_near_optimal_on_grid() {
        // 8×8 grid: optimal bisection cut is 8 (a straight line).
        let g = grid(8, 8);
        let t = BisectTargets::with_ub(32, 32, 1.03, 1);
        let mut rng = SplitMix64::new(7);
        let parts = greedy_graph_growing(&g, &t, 8, &mut rng);
        let cut = cut_weight_2way(&g, &parts);
        assert!(cut <= 12, "cut = {cut}");
    }

    #[test]
    fn ggg_handles_disconnected_graphs() {
        // Two disjoint edges.
        let g = CsrGraph::from_lists(&[vec![(1, 1)], vec![(0, 1)], vec![(3, 1)], vec![(2, 1)]])
            .unwrap();
        let t = BisectTargets::with_ub(2, 2, 1.03, 1);
        let mut rng = SplitMix64::new(1);
        let parts = greedy_graph_growing(&g, &t, 2, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert_eq!(w0, 2);
    }

    #[test]
    fn ggg_asymmetric_target() {
        let g = grid(6, 6);
        // 1/3 vs 2/3 split.
        let t = BisectTargets::with_ub(12, 24, 1.03, 1);
        let mut rng = SplitMix64::new(5);
        let parts = greedy_graph_growing(&g, &t, 4, &mut rng);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!(w0 <= t.cap0, "w0 = {w0}");
        assert!(36 - w0 <= t.cap1, "w1 = {}", 36 - w0);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::new(vec![0, 0], vec![], vec![], vec![1]).unwrap();
        let t = BisectTargets::with_ub(1, 0, 1.03, 1);
        let mut rng = SplitMix64::new(2);
        let parts = greedy_graph_growing(&g, &t, 1, &mut rng);
        assert_eq!(parts.len(), 1);
    }
}
