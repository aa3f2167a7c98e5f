//! Seeded request streams. Everything a workload sends is a pure
//! function of the run's `--seed`; the program under test only ever
//! sees the generated requests.

use cubesfc::graph::SplitMix64;
use cubesfc::table1;
use std::collections::BTreeMap;

/// Methods the hot key set spans: the paper's SFC plus the three METIS
/// baselines.
pub const HOT_METHODS: [&str; 4] = ["sfc", "kway", "tv", "rb"];
/// Methods of fresh-key requests: graph partitioners only, so every
/// cold request runs a whole multilevel partition.
pub const COLD_METHODS: [&str; 3] = ["kway", "tv", "rb"];
/// Face sizes of fresh-key requests (the two largest Table-1 rows).
pub const COLD_NES: [usize; 2] = [16, 18];
/// Processor counts drawn per (resolution, method) for the hot key set.
pub const HOT_KEYS_PER_CELL: usize = 2;
/// Requests one client sends per hot pass; a quarter are rebalance
/// steps (the 3:1 lookup-to-upload mix).
pub const HOT_PER_CLIENT: usize = 64;
/// Rebalance requests one client sends per hot pass.
pub const HOT_REBALANCE_PER_CLIENT: usize = HOT_PER_CLIENT / 4;
/// Rebalance requests per resolution in the upload pool.
pub const REBALANCE_PER_NE: usize = 4;
/// Positions each client sends per cold pass: one per (face size,
/// method) pair.
pub const COLD_POSITIONS: usize = COLD_NES.len() * COLD_METHODS.len();
/// Positions per cold pass at which every client sends the same key.
pub const COLD_SHARED: usize = 2;

/// One `POST /v1/partition` request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PartitionKey {
    pub ne: usize,
    pub nproc: usize,
    pub method: &'static str,
    pub seed: u64,
}

impl PartitionKey {
    /// The JSON request body.
    pub fn body(&self, include_assignment: bool) -> String {
        format!(
            "{{\"ne\":{},\"nproc\":{},\"method\":\"{}\",\"seed\":{},\"include_assignment\":{}}}",
            self.ne, self.nproc, self.method, self.seed, include_assignment
        )
    }
}

/// One `POST /v1/rebalance/step` request with a full weight vector.
#[derive(Clone, Debug)]
pub struct RebalanceSpec {
    pub ne: usize,
    pub nproc: usize,
    pub seed: u64,
    pub weights: Vec<f64>,
}

impl RebalanceSpec {
    /// The JSON request body. Weights are multiples of 1/16, so their
    /// shortest decimal form parses back to the same `f64`.
    pub fn body(&self) -> String {
        let mut body = format!(
            "{{\"ne\":{},\"nproc\":{},\"seed\":{},\"weights\":[",
            self.ne, self.nproc, self.seed
        );
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&w.to_string());
        }
        body.push_str("]}");
        body
    }

    /// The sum the server's `part_loads` must add up to.
    pub fn weight_sum(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// A generator seeded from the run seed and a stream label, so streams
/// drawn for different purposes never share draws.
pub fn rng(seed: u64, label: &[u64]) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed);
    let mut state = mix.next_u64();
    for &x in label {
        state = SplitMix64::new(state ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    SplitMix64::new(state)
}

/// Equal-share processor counts of face size `ne` (Table-1 cap), without
/// the trivial count 1.
pub fn ladder(ne: usize) -> Vec<usize> {
    table1()
        .into_iter()
        .find(|r| r.ne == ne)
        .map(|r| r.equal_share_procs())
        .unwrap_or_default()
        .into_iter()
        .filter(|&p| p > 1)
        .collect()
}

fn pick<T: Copy>(r: &mut SplitMix64, items: &[T]) -> T {
    items[r.below(items.len())]
}

/// The key set the hot workload warms the cache with: every Table-1
/// resolution × every method × [`HOT_KEYS_PER_CELL`] processor counts
/// at fixed points of the ladder (the centres of equal bands), each with
/// a seeded partitioner seed. The seed changes what is computed, not how
/// much, so runs with different seeds serve bodies of the same sizes.
pub fn hot_keys(seed: u64) -> Vec<PartitionKey> {
    let mut r = rng(seed, &[1]);
    let mut keys = Vec::new();
    for res in table1() {
        let procs = ladder(res.ne);
        for method in HOT_METHODS {
            for k in 0..HOT_KEYS_PER_CELL {
                keys.push(PartitionKey {
                    ne: res.ne,
                    nproc: procs[(2 * k + 1) * procs.len() / (2 * HOT_KEYS_PER_CELL)],
                    method,
                    seed: r.next_u64() >> 16,
                });
            }
        }
    }
    keys
}

/// The rebalance uploads: [`REBALANCE_PER_NE`] per resolution, each
/// carrying a seeded weight vector of one float per element.
pub fn rebalance_pool(seed: u64) -> Vec<RebalanceSpec> {
    let mut r = rng(seed, &[2]);
    let mut pool = Vec::new();
    for res in table1() {
        let procs = ladder(res.ne);
        for _ in 0..REBALANCE_PER_NE {
            let nproc = pick(&mut r, &procs);
            let weights = (0..res.k)
                .map(|_| 1.0 + r.below(64) as f64 / 16.0)
                .collect();
            pool.push(RebalanceSpec {
                ne: res.ne,
                nproc,
                seed: r.below(1000) as u64,
                weights,
            });
        }
    }
    pool
}

/// One hot-workload operation: a cached lookup of `hot_keys()[i]` or an
/// upload of `rebalance_pool()[i]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotOp {
    Lookup(usize),
    Rebalance(usize),
}

/// What client `client` sends in hot pass `pass`: [`HOT_PER_CLIENT`]
/// operations, exactly [`HOT_REBALANCE_PER_CLIENT`] of them uploads, in
/// seeded order.
pub fn hot_stream(seed: u64, pass: u64, client: u64, keys: usize, pool: usize) -> Vec<HotOp> {
    let mut r = rng(seed, &[3, pass, client]);
    let mut ops: Vec<HotOp> = (0..HOT_PER_CLIENT)
        .map(|i| {
            if i < HOT_REBALANCE_PER_CLIENT {
                HotOp::Rebalance(r.below(pool))
            } else {
                HotOp::Lookup(r.below(keys))
            }
        })
        .collect();
    shuffle(&mut r, &mut ops);
    ops
}

fn shuffle<T>(r: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, r.below(i + 1));
    }
}

/// Fresh partition keys for the cold workload. Every key drawn from one
/// stream carries a distinct partitioner seed, so no key repeats except
/// where a pass shares a position across clients on purpose. Processor
/// counts are dealt from a shuffled deck of the ladder per (face size,
/// method) pair, so over a run every count is drawn equally often and
/// runs with different seeds do the same mix of work.
pub struct ColdStream {
    rng: SplitMix64,
    base: u64,
    issued: u64,
    decks: BTreeMap<(usize, &'static str), Vec<usize>>,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        let mut rng = rng(seed, &[4]);
        let base = rng.next_u64() >> 8;
        ColdStream {
            rng,
            base,
            issued: 0,
            decks: BTreeMap::new(),
        }
    }

    fn fresh(&mut self, (ne, method): (usize, &'static str)) -> PartitionKey {
        let deck = self.decks.entry((ne, method)).or_default();
        if deck.is_empty() {
            *deck = ladder(ne);
            shuffle(&mut self.rng, deck);
        }
        let nproc = deck.pop().expect("the ladder is not empty");
        self.issued += 1;
        PartitionKey {
            ne,
            nproc,
            method,
            seed: self.base.wrapping_add(self.issued),
        }
    }

    /// Every (face size, method) pair once, in seeded order: each pass
    /// and each client sends the same mix, so runs differ only in the
    /// drawn processor counts and seeds.
    fn mix(&mut self) -> Vec<(usize, &'static str)> {
        let mut mix: Vec<_> = COLD_NES
            .iter()
            .flat_map(|&ne| COLD_METHODS.iter().map(move |&m| (ne, m)))
            .collect();
        shuffle(&mut self.rng, &mut mix);
        mix
    }

    /// A pass for `clients` concurrent clients: [`COLD_POSITIONS`] keys
    /// each, identical across clients at [`COLD_SHARED`] seeded
    /// positions (none with a single client) and fresh everywhere else.
    pub fn pass(&mut self, clients: usize) -> Vec<Vec<PartitionKey>> {
        let mix = self.mix();
        let mut shared = [false; COLD_POSITIONS];
        if clients > 1 {
            let mut order: Vec<usize> = (0..COLD_POSITIONS).collect();
            shuffle(&mut self.rng, &mut order);
            for &i in &order[..COLD_SHARED] {
                shared[i] = true;
            }
        }
        let mut lists = vec![Vec::with_capacity(COLD_POSITIONS); clients];
        for (i, &is_shared) in shared.iter().enumerate() {
            if is_shared {
                let key = self.fresh(mix[i]);
                for list in &mut lists {
                    list.push(key.clone());
                }
            } else {
                for list in &mut lists {
                    list.push(self.fresh(mix[i]));
                }
            }
        }
        lists
    }

    /// `n` fresh keys for one client, cycling through the mix.
    pub fn single(&mut self, n: usize) -> Vec<PartitionKey> {
        let mut mix = Vec::new();
        (0..n)
            .map(|i| {
                if i % COLD_POSITIONS == 0 {
                    mix = self.mix();
                }
                self.fresh(mix[i % COLD_POSITIONS])
            })
            .collect()
    }
}

/// Distinct keys in one cold pass for `clients` clients.
pub fn cold_distinct(clients: usize) -> usize {
    if clients > 1 {
        clients * COLD_POSITIONS - (clients - 1) * COLD_SHARED
    } else {
        COLD_POSITIONS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(hot_keys(7), hot_keys(7));
        assert_ne!(hot_keys(7), hot_keys(8));
        let a: Vec<Vec<f64>> = rebalance_pool(7).into_iter().map(|s| s.weights).collect();
        let b: Vec<Vec<f64>> = rebalance_pool(7).into_iter().map(|s| s.weights).collect();
        assert_eq!(a, b);
        assert_eq!(hot_stream(7, 3, 1, 32, 16), hot_stream(7, 3, 1, 32, 16));
        assert_ne!(hot_stream(7, 3, 1, 32, 16), hot_stream(7, 3, 0, 32, 16));
        let (mut x, mut y) = (ColdStream::new(7), ColdStream::new(7));
        for _ in 0..5 {
            assert_eq!(x.pass(2), y.pass(2));
            assert_eq!(x.single(10), y.single(10));
        }
        assert_ne!(ColdStream::new(7).pass(2), ColdStream::new(8).pass(2));
    }

    #[test]
    fn hot_streams_keep_the_three_to_one_mix() {
        let keys = hot_keys(11);
        assert_eq!(keys.len(), 4 * HOT_METHODS.len() * HOT_KEYS_PER_CELL);
        for k in &keys {
            assert!(ladder(k.ne).contains(&k.nproc));
        }
        let pool = rebalance_pool(11);
        for s in &pool {
            assert_eq!(s.weights.len(), 6 * s.ne * s.ne);
        }
        let ops = hot_stream(11, 0, 0, keys.len(), pool.len());
        let uploads = ops
            .iter()
            .filter(|op| matches!(op, HotOp::Rebalance(_)))
            .count();
        assert_eq!(
            (ops.len(), uploads),
            (HOT_PER_CLIENT, HOT_REBALANCE_PER_CLIENT)
        );
    }

    #[test]
    fn cold_keys_repeat_only_at_shared_positions() {
        let mut stream = ColdStream::new(99);
        let mut seen: HashMap<PartitionKey, usize> = HashMap::new();
        for _ in 0..50 {
            let lists = stream.pass(3);
            assert!(lists.iter().all(|l| l.len() == COLD_POSITIONS));
            let mut shared = 0;
            for i in 0..COLD_POSITIONS {
                let same = lists.iter().all(|l| l[i] == lists[0][i]);
                let distinct = lists
                    .iter()
                    .map(|l| &l[i])
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                assert!(same || distinct == lists.len(), "partly shared position");
                shared += usize::from(same);
                *seen.entry(lists[0][i].clone()).or_default() += 1;
                if !same {
                    for l in &lists[1..] {
                        *seen.entry(l[i].clone()).or_default() += 1;
                    }
                }
            }
            assert_eq!(shared, COLD_SHARED);
            for k in stream.single(cold_distinct(3)) {
                *seen.entry(k).or_default() += 1;
            }
        }
        assert!(seen.values().all(|&n| n == 1), "a key was drawn twice");
        let single = ColdStream::new(5).pass(1);
        assert_eq!(single.len(), 1);
        let mut mix: Vec<_> = single[0].iter().map(|k| (k.ne, k.method)).collect();
        mix.sort();
        mix.dedup();
        assert_eq!(mix.len(), COLD_POSITIONS, "every pair once per pass");
        assert_eq!(cold_distinct(2), 10);

        // Counts are dealt from decks: one full deck per pair draws every
        // count of the ladder exactly once.
        let mut stream = ColdStream::new(3);
        let deck = ladder(16).len();
        let mut drawn: Vec<usize> = stream
            .single(deck * COLD_POSITIONS)
            .into_iter()
            .filter(|k| (k.ne, k.method) == (16, "rb"))
            .map(|k| k.nproc)
            .collect();
        drawn.sort();
        assert_eq!(drawn, ladder(16));
    }
}
