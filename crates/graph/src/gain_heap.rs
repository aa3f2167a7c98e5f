//! Indexed max-heap of FM move gains.
//!
//! Holds at most one entry per vertex, keyed by `(gain, vertex)`: the
//! highest gain pops first and ties break on the larger vertex id. A
//! position index makes a key change an in-place sift instead of a second
//! entry, so the heap never holds stale entries and never grows past the
//! vertex count. Why FM pops the same vertices from it as from a
//! lazy-deletion heap is argued in the `fm` module docs.

/// `pos` value of a vertex that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Binary max-heap of `(gain, vertex)` with one entry per vertex.
#[derive(Clone, Debug, Default)]
pub(crate) struct GainHeap {
    /// The heap array, max at index 0.
    heap: Vec<(i64, u32)>,
    /// `pos[v]` is `v`'s index in `heap`, or [`ABSENT`]. Every entry not
    /// in the heap is `ABSENT`, which [`GainHeap::reset`] relies on.
    pos: Vec<u32>,
}

impl GainHeap {
    /// Empty the heap and make room for vertices `0..nv`. Costs the number
    /// of entries left in the heap, not `nv`.
    pub(crate) fn reset(&mut self, nv: usize) {
        for &(_, v) in &self.heap {
            self.pos[v as usize] = ABSENT;
        }
        self.heap.clear();
        if self.pos.len() < nv {
            self.pos.resize(nv, ABSENT);
        }
    }

    /// Insert `v` with key `gain`, or move it to `gain` if already present.
    pub(crate) fn push(&mut self, v: u32, gain: i64) {
        let i = self.pos[v as usize];
        if i == ABSENT {
            self.heap.push((gain, v));
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            let old = self.heap[i].0;
            self.heap[i].0 = gain;
            if gain > old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Remove and return the maximum `(gain, vertex)`.
    pub(crate) fn pop(&mut self) -> Option<(i64, u32)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top.1 as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Move the entry at `i` toward the root until its parent is larger.
    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] >= item {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    /// Move the entry at `i` toward the leaves until no child is larger.
    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] <= item {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, item);
    }

    fn place(&mut self, i: usize, item: (i64, u32)) {
        self.heap[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random heap workload: push `(vertex, gain)` or pop.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u32, i64),
        Pop,
    }

    fn arb_ops(nv: u32) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u32..4, 0..nv, 0u32..13).prop_map(|(kind, v, g)| match kind {
                0 => Op::Pop,
                _ => Op::Push(v, g as i64 - 6),
            }),
            0..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inserts, key increases and decreases, pops and re-inserts of
        /// popped vertices, checked pop for pop against a naive model:
        /// a map from vertex to current gain, popping the max
        /// `(gain, vertex)`. The narrow gain range forces many ties.
        #[test]
        fn pops_match_a_naive_max_by_gain_then_vertex(
            ops in arb_ops(12),
            reuse in any::<bool>(),
        ) {
            let nv = 12;
            let mut heap = GainHeap::default();
            if reuse {
                // A heap left non-empty by an earlier use must reset clean.
                heap.reset(5);
                for v in 0..5 {
                    heap.push(v, v as i64);
                }
            }
            heap.reset(nv);
            let mut model: Vec<Option<i64>> = vec![None; nv];
            for op in ops {
                match op {
                    Op::Push(v, g) => {
                        heap.push(v, g);
                        model[v as usize] = Some(g);
                    }
                    Op::Pop => {
                        let want = (0..nv)
                            .filter_map(|v| model[v].map(|g| (g, v as u32)))
                            .max();
                        if let Some((_, v)) = want {
                            model[v as usize] = None;
                        }
                        prop_assert_eq!(heap.pop(), want);
                    }
                }
            }
            // Drain: the rest must come out in model order too.
            loop {
                let want = (0..nv).filter_map(|v| model[v].map(|g| (g, v as u32))).max();
                if let Some((_, v)) = want {
                    model[v as usize] = None;
                }
                let got = heap.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn ties_pop_the_larger_vertex_first() {
        let mut heap = GainHeap::default();
        heap.reset(4);
        for v in 0..4 {
            heap.push(v, 0);
        }
        heap.push(1, 5);
        heap.push(1, 0); // decrease back into the tie
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }
}
