//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus a tail: the highest
//! percentile of [`LADDER`] that leaves at least [`MIN_BEYOND`] samples
//! beyond it. Samples come in passes of a fixed size; consecutive passes
//! are grouped into blocks of at least [`BLOCK_SAMPLES`], the tail is
//! taken in each block, and the reported tail is the median over blocks.
//! The percentile is fixed by the block size, so a metric names the same
//! percentile in every run and on every commit, and a burst of host noise
//! moves one block rather than the result.

/// Fewest samples in a block: enough for a p95 with ten beyond it.
pub const BLOCK_SAMPLES: usize = 200;

/// Percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 8] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// Samples that must lie beyond a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples,
/// in integer hundredths of a percent so that 99.9 % of 10 000 is
/// exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond it among `n`, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile of `samples` (sorted in place).
/// Panics on an empty slice: every caller has checked its count.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    samples[rank(p, samples.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 50.0)
}

/// A latency summary: median and fixed-percentile tail.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub count: usize,
    pub blocks: usize,
}

impl Summary {
    /// Print the summary as a report line, with its bases.
    pub fn report(&self, name: &str) {
        println!(
            "# {name}_p50_us={:.1} {name}_tail_us={:.1} (p{} per block of passes, median of {} \
             blocks, {} samples)",
            self.p50, self.tail, self.tail_pct, self.blocks, self.count
        );
    }
}

/// Summarize passes of `pass_len` samples: the median over every sample,
/// and the median over blocks of whole passes of each block's tail.
/// Passes of another length (an exchange failed, and was counted as a
/// failed operation) are left out. `None` without a single full block.
pub fn summarize(passes: &[Vec<f64>], pass_len: usize) -> Option<Summary> {
    let passes: Vec<&Vec<f64>> = passes.iter().filter(|p| p.len() == pass_len).collect();
    if pass_len == 0 {
        return None;
    }
    let per_block = BLOCK_SAMPLES.div_ceil(pass_len);
    let tail_pct = tail_percentile(per_block * pass_len)?;
    let tails: Vec<f64> = passes
        .chunks_exact(per_block)
        .map(|block| {
            let mut samples: Vec<f64> = block.iter().flat_map(|p| p.iter().copied()).collect();
            percentile(&mut samples, tail_pct)
        })
        .collect();
    if tails.is_empty() {
        return None;
    }
    let mut all: Vec<f64> = passes.iter().flat_map(|p| p.iter().copied()).collect();
    Some(Summary {
        p50: percentile(&mut all, 50.0),
        tail: median(&tails),
        tail_pct,
        count: all.len(),
        blocks: tails.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..5000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
            // The next rung up would leave fewer than ten.
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(next, n) < MIN_BEYOND, "n={n} next={next}");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_takes_the_median_of_block_tails() {
        // Passes of 100 samples: blocks of two passes, p95 in each.
        let pass = |shift: f64| (0..100).map(|i| f64::from(i) + shift).collect::<Vec<_>>();
        let passes = vec![
            pass(0.0),
            pass(0.0),
            pass(1000.0),
            pass(0.0),
            pass(5.0),
            pass(5.0),
        ];
        let s = summarize(&passes, 100).unwrap();
        assert_eq!((s.tail_pct, s.count, s.blocks), (95.0, 600, 3));
        // Block tails: 94, 1089 (with the noisy pass) and 99.
        assert_eq!(s.tail, 99.0);
        assert_eq!(s.p50, 61.0);
        // Leftover passes that do not fill a block are left out of the tail.
        assert_eq!(summarize(&passes[..5], 100).unwrap().blocks, 2);
        assert!(summarize(&passes[..1], 100).is_none());
        // A short pass is left out rather than mixed into a block.
        assert!(summarize(&[pass(0.0), vec![1.0]], 100).is_none());
        assert!(summarize(&[], 100).is_none());
    }
}
