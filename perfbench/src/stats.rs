//! Percentiles, medians and the per-window latency reservoir.
//!
//! Every end-to-end timing is computed per window (a fixed slice of a run,
//! or one simulation of a sweep) and reported as the median across windows,
//! so a stall of the machine costs one window rather than the whole run.

/// Percentile `p` (0..=100) of an ascending slice, linearly interpolated
/// between the two closest ranks. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Percentile `p` of unsorted values (sorts a copy).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median of unsorted values: the mean of the two middle values for an even
/// count. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The p50 and p99 of one window's latency samples (nanoseconds).
pub fn window_p50_p99(samples: &[u32]) -> (f64, f64) {
    let mut sorted: Vec<f64> = samples.iter().map(|&s| f64::from(s)).collect();
    sorted.sort_by(f64::total_cmp);
    (
        percentile_sorted(&sorted, 50.0),
        percentile_sorted(&sorted, 99.0),
    )
}

/// Medians across windows of each window's p50 and p99. Windows with fewer
/// than `min_samples` samples are skipped (too few to place a p99).
pub fn window_medians(windows: &[Vec<u32>], min_samples: usize) -> (f64, f64) {
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = windows
        .iter()
        .filter(|w| w.len() >= min_samples.max(1))
        .map(|w| window_p50_p99(w))
        .unzip();
    (median(&p50s), median(&p99s))
}

/// A fixed-capacity uniform sample of a stream (reservoir sampling), so the
/// memory a window's samples take does not depend on the throughput.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<u32>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// A reservoir of `cap` samples. Its memory is touched up front, so the
    /// process footprint is the same whether or not the window fills it.
    pub fn new(cap: usize, seed: u64) -> Self {
        let mut samples = Vec::with_capacity(cap);
        samples.resize(cap, u32::MAX);
        samples.clear();
        Self {
            samples,
            cap,
            seen: 0,
            rng: seed | 1,
        }
    }

    /// Offers one sample; allocation-free.
    #[inline]
    pub fn push(&mut self, value: u32) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            self.rng = xorshift(self.rng);
            let j = self.rng % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Samples kept (at most the capacity).
    pub fn samples(&self) -> &[u32] {
        &self.samples
    }
}

/// One xorshift64 step (never returns 0 for a non-zero input).
#[inline]
pub fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// SplitMix64: derives well-spread values from a seed and an index.
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 99.0) - 3.97).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_percentiles_use_only_that_window() {
        let samples: Vec<u32> = (1..=100).collect();
        let (p50, p99) = window_p50_p99(&samples);
        assert_eq!(p50, 50.5);
        assert!((p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn window_median_discounts_one_stalled_window() {
        let calm: Vec<u32> = vec![100; 200];
        let stalled: Vec<u32> = vec![100_000; 200];
        let windows = vec![calm.clone(), stalled, calm.clone(), calm, vec![1; 3]];
        // The 3-sample window is skipped; the stall moves neither median.
        let (p50, p99) = window_medians(&windows, 100);
        assert_eq!(p50, 100.0);
        assert_eq!(p99, 100.0);
    }

    #[test]
    fn reservoir_keeps_capacity_and_counts_offers() {
        let mut r = Reservoir::new(16, 7);
        for v in 0..1000 {
            r.push(v);
        }
        assert_eq!(r.samples().len(), 16);
        assert_eq!(r.seen, 1000);
        // A uniform sample of 0..1000 is not stuck on the first 16 values.
        assert!(r.samples().iter().any(|&v| v >= 16));
    }

    #[test]
    fn splitmix_depends_on_seed_and_index() {
        assert_eq!(splitmix(1, 2), splitmix(1, 2));
        assert_ne!(splitmix(1, 2), splitmix(1, 3));
        assert_ne!(splitmix(1, 2), splitmix(2, 2));
    }
}
