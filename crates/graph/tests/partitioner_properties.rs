//! Property-based tests for the multilevel partitioner on random graphs.

use cubesfc_graph::coarsen::{coarsen, contract, heavy_edge_matching};
use cubesfc_graph::fm::{cut_weight_2way, fm_refine, BisectTargets};
use cubesfc_graph::metrics::{edgecut, load_balance, metis_volume, partition_stats};
use cubesfc_graph::partition::PartitionConfig;
use cubesfc_graph::{kway, kway_volume, recursive_bisection, CsrGraph, SplitMix64};
use proptest::prelude::*;

/// A random connected graph: a spanning path plus extra random edges.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (4usize..60, 0usize..80, any::<u64>()).prop_map(|(nv, extra, seed)| {
        let mut rng = cubesfc_graph::SplitMix64::new(seed);
        let mut adj: Vec<std::collections::BTreeMap<u32, u32>> =
            vec![std::collections::BTreeMap::new(); nv];
        // Spanning path for connectivity.
        for v in 0..nv - 1 {
            let w = 1 + (rng.below(9) as u32);
            adj[v].insert((v + 1) as u32, w);
            adj[v + 1].insert(v as u32, w);
        }
        for _ in 0..extra {
            let a = rng.below(nv);
            let b = rng.below(nv);
            if a != b && !adj[a].contains_key(&(b as u32)) {
                let w = 1 + (rng.below(9) as u32);
                adj[a].insert(b as u32, w);
                adj[b].insert(a as u32, w);
            }
        }
        let lists: Vec<Vec<(u32, u32)>> =
            adj.into_iter().map(|m| m.into_iter().collect()).collect();
        CsrGraph::from_lists(&lists).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_drivers_produce_valid_partitions(
        g in arb_graph(),
        k in 2usize..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= g.nv());
        let cfg = PartitionConfig::new(k).with_seed(seed);
        for p in [recursive_bisection(&g, &cfg), kway(&g, &cfg), kway_volume(&g, &cfg)] {
            prop_assert_eq!(p.len(), g.nv());
            prop_assert_eq!(p.nparts(), k);
            // Every vertex assigned within range is enforced by the type;
            // check the weights add up.
            let w: u64 = p.part_weights(&g).iter().sum();
            prop_assert_eq!(w, g.total_vwgt());
        }
    }

    #[test]
    fn balance_caps_hold(g in arb_graph(), k in 2usize..6, seed in any::<u64>()) {
        prop_assume!(k <= g.nv());
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let target = g.total_vwgt() as f64 / k as f64;
        // The drivers promise: no part exceeds max(3% over target,
        // target + heaviest vertex). RB composes caps multiplicatively
        // through ~log2(k) levels, so allow that growth.
        let levels = (k as f64).log2().ceil().max(1.0);
        let cap = (target * 1.03_f64.powf(levels)).ceil() as u64
            + levels as u64 * g.max_vwgt();
        for p in [recursive_bisection(&g, &cfg), kway(&g, &cfg), kway_volume(&g, &cfg)] {
            let w = p.part_weights(&g);
            for &pw in &w {
                prop_assert!(pw <= cap, "weights {:?} cap {}", w, cap);
            }
        }
    }

    #[test]
    fn kway_cut_is_no_worse_than_random(g in arb_graph(), seed in any::<u64>()) {
        let k = 4.min(g.nv());
        prop_assume!(k >= 2);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let p = kway(&g, &cfg);
        // A modulo assignment is the "no thought" baseline.
        let naive = cubesfc_graph::Partition::new(
            k,
            (0..g.nv()).map(|v| (v % k) as u32).collect(),
        );
        prop_assert!(edgecut(&g, &p) <= edgecut(&g, &naive) + 2);
    }

    #[test]
    fn tv_volume_not_worse_than_kway(g in arb_graph(), seed in any::<u64>()) {
        let k = 4.min(g.nv());
        prop_assume!(k >= 2);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        let pk = kway(&g, &cfg);
        let pt = kway_volume(&g, &cfg);
        // TV starts from the KWAY result and only accepts volume-improving
        // moves, so it can never be worse than its own starting point.
        prop_assert!(metis_volume(&g, &pt) <= metis_volume(&g, &pk));
    }

    #[test]
    fn stats_are_internally_consistent(g in arb_graph(), seed in any::<u64>()) {
        let k = 3.min(g.nv());
        prop_assume!(k >= 2);
        let p = kway(&g, &PartitionConfig::new(k).with_seed(seed));
        let s = partition_stats(&g, &p);
        prop_assert_eq!(s.nelemd.len(), k);
        prop_assert_eq!(s.spcv.len(), k);
        prop_assert_eq!(s.total_points, s.spcv.iter().sum::<u64>());
        prop_assert!(s.lb_nelemd >= 0.0 && s.lb_nelemd < 1.0);
        prop_assert!(s.lb_spcv >= 0.0 && s.lb_spcv <= 1.0);
        prop_assert_eq!(s.lb_nelemd, load_balance(&s.nelemd));
        // Edgecut bounds the METIS volume from above: each cut edge adds at
        // most 2 boundary contributions (one per endpoint).
        prop_assert!(s.metis_volume <= 2 * s.edgecut);
    }

    #[test]
    fn determinism(g in arb_graph(), seed in any::<u64>()) {
        let k = 3.min(g.nv());
        prop_assume!(k >= 2);
        let cfg = PartitionConfig::new(k).with_seed(seed);
        prop_assert_eq!(kway(&g, &cfg), kway(&g, &cfg));
        prop_assert_eq!(
            recursive_bisection(&g, &cfg),
            recursive_bisection(&g, &cfg)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coarsening_preserves_weight_and_validity(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let levels = coarsen(&g, 8, &mut rng);
        let mut prev_nv = g.nv();
        for l in &levels {
            prop_assert_eq!(l.graph.total_vwgt(), g.total_vwgt());
            prop_assert!(l.graph.validate().is_ok());
            prop_assert!(l.graph.nv() <= prev_nv);
            prop_assert_eq!(l.cmap.len(), prev_nv);
            prev_nv = l.graph.nv();
        }
    }

    #[test]
    fn matching_is_always_an_involution_of_neighbors(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let mate = heavy_edge_matching(&g, &mut rng);
        for v in 0..g.nv() {
            let m = mate[v] as usize;
            prop_assert_eq!(mate[m] as usize, v);
            if m != v {
                prop_assert!(g.neighbors(v).any(|(n, _)| n == m));
            }
        }
        // Contraction of any valid matching stays valid.
        let lvl = contract(&g, &mate);
        prop_assert!(lvl.graph.validate().is_ok());
    }

    #[test]
    fn kway_refine_never_violates_a_satisfiable_cap(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        // Start from a modulo partition (within cap for unit-ish weights
        // scaled by the generous cap below) and refine: the cap must hold
        // after every public driver entry point.
        let k = 3.min(g.nv());
        prop_assume!(k >= 2);
        let mut parts: Vec<u32> = (0..g.nv()).map(|v| (v % k) as u32).collect();
        let total = g.total_vwgt();
        let cap = total; // always satisfiable
        let mut rng = SplitMix64::new(seed);
        cubesfc_graph::kway::kway_refine(&g, &mut parts, k, cap, 4, &mut rng);
        let mut w = vec![0u64; k];
        for (v, &p) in parts.iter().enumerate() {
            w[p as usize] += g.vwgt[v] as u64;
        }
        for &pw in &w {
            prop_assert!(pw <= cap);
        }
        prop_assert_eq!(w.iter().sum::<u64>(), total);
    }

    #[test]
    fn coarse_cut_projects_to_equal_fine_cut(g in arb_graph(), seed in any::<u64>()) {
        // A partition of the coarse graph, projected to the fine graph,
        // has exactly the same weighted cut (internal edges vanish into
        // coarse vertices).
        let mut rng = SplitMix64::new(seed);
        let mate = heavy_edge_matching(&g, &mut rng);
        let lvl = contract(&g, &mate);
        prop_assume!(lvl.graph.nv() >= 2);
        let cp = kway(&lvl.graph, &PartitionConfig::new(2).with_seed(seed));
        let fine: Vec<u32> = lvl
            .cmap
            .iter()
            .map(|&c| cp.assignment()[c as usize])
            .collect();
        let coarse_cut = cubesfc_graph::metrics::edgecut_weight(
            &lvl.graph,
            &cp,
        );
        let fine_cut = cubesfc_graph::metrics::edgecut_weight(
            &g,
            &cubesfc_graph::Partition::new(2, fine),
        );
        prop_assert_eq!(coarse_cut, fine_cut);
    }
}

/// A random connected graph with vertex weights in `1..=4`, a 2-way
/// split of it and the bisection targets for a random part-0 share.
///
/// Half the splits are coin flips, which often break the caps. The other
/// half put a random-order prefix of weight at most `t0` on side 0, which
/// always lands within them.
fn arb_bisection() -> impl Strategy<Value = (CsrGraph, Vec<u32>, BisectTargets)> {
    (arb_graph(), any::<u64>(), 0.2f64..0.8, any::<bool>()).prop_map(
        |(mut g, seed, frac0, feasible)| {
            let mut rng = SplitMix64::new(seed);
            for w in g.vwgt.iter_mut() {
                *w = 1 + rng.below(4) as u32;
            }
            let total = g.total_vwgt();
            let t0 = (total as f64 * frac0).round() as u64;
            let targets = BisectTargets::with_ub(t0, total - t0, 1.03, g.max_vwgt());
            let parts = if feasible {
                let mut parts = vec![1u32; g.nv()];
                let mut w0 = 0u64;
                for v in rng.permutation(g.nv()) {
                    let wv = g.vwgt[v as usize] as u64;
                    if w0 + wv <= t0 {
                        parts[v as usize] = 0;
                        w0 += wv;
                    }
                }
                parts
            } else {
                (0..g.nv()).map(|_| rng.below(2) as u32).collect()
            };
            (g, parts, targets)
        },
    )
}

fn side_weights(g: &CsrGraph, parts: &[u32]) -> [u64; 2] {
    let mut w = [0u64; 2];
    for (v, &p) in parts.iter().enumerate() {
        w[p as usize] += g.vwgt[v] as u64;
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fm_refine_keeps_its_contract(
        case in arb_bisection(),
        passes in 1usize..9,
    ) {
        let (g, input, t) = case;
        let mut parts = input.clone();
        let cut = fm_refine(&g, &mut parts, &t, passes);
        prop_assert_eq!(cut, cut_weight_2way(&g, &parts));

        let w = side_weights(&g, &parts);
        prop_assert!(w[0] <= t.cap0 && w[1] <= t.cap1, "weights {:?} targets {:?}", w, t);

        let w_in = side_weights(&g, &input);
        if w_in[0] <= t.cap0 && w_in[1] <= t.cap1 {
            prop_assert!(cut <= cut_weight_2way(&g, &input));
        }
    }
}
