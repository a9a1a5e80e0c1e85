//! Equal-width histograms over the transaction-key space.
//!
//! Step (b) of the paper's Figure 2: "Sample Items into Cells" — the adaptive
//! partitioner counts sampled keys in ranges of equal width before turning
//! the counts into a cumulative distribution estimate.

use crate::key::{KeyBounds, TxnKey};

/// Default number of histogram cells used by the adaptive scheduler. Enough
/// resolution to split a 16-bit key space across 16 workers accurately while
/// keeping the per-adaptation cost trivial.
pub const DEFAULT_CELLS: usize = 256;

/// An equal-width histogram over a bounded key space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: KeyBounds,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram with `cells` equal-width cells.
    ///
    /// # Panics
    /// Panics when `cells` is zero.
    pub fn new(bounds: KeyBounds, cells: usize) -> Self {
        assert!(cells > 0, "histogram needs at least one cell");
        // Never use more cells than there are distinct keys: every cell then
        // covers at least one key, which keeps `cell_range` well defined.
        let cells = cells.min(bounds.width().min(usize::MAX as u64) as usize);
        Histogram {
            bounds,
            counts: vec![0; cells],
            total: 0,
        }
    }

    /// Build a histogram directly from a batch of samples.
    pub fn from_samples(bounds: KeyBounds, cells: usize, samples: &[TxnKey]) -> Self {
        let mut h = Self::new(bounds, cells);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// The key bounds this histogram covers.
    pub fn bounds(&self) -> KeyBounds {
        self.bounds
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-cell counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the cell a key falls into (keys outside the bounds are
    /// clamped into the first/last cell).
    pub fn cell_of(&self, key: TxnKey) -> usize {
        let key = self.bounds.clamp(key);
        let offset = key - self.bounds.min;
        let width = self.bounds.width();
        let cells = self.counts.len() as u64;
        // cell = floor(offset * cells / width), safe because offset < width.
        let idx = offset.saturating_mul(cells) / width;
        (idx as usize).min(self.counts.len() - 1)
    }

    /// Inclusive key range covered by a cell.
    pub fn cell_range(&self, cell: usize) -> (TxnKey, TxnKey) {
        assert!(cell < self.counts.len());
        let width = self.bounds.width();
        let cells = self.counts.len() as u64;
        let lo = self.bounds.min + (cell as u64 * width) / cells;
        let hi = if cell + 1 == self.counts.len() {
            self.bounds.max
        } else {
            self.bounds.min + ((cell as u64 + 1) * width) / cells - 1
        };
        (lo, hi)
    }

    /// Record one sample.
    pub fn record(&mut self, key: TxnKey) {
        self.record_many(key, 1);
    }

    /// Record `count` samples at the same key in one step — used by the
    /// adaptation plane to fold weighted STM abort telemetry into the key
    /// histogram before repartitioning.
    pub fn record_many(&mut self, key: TxnKey, count: u64) {
        let cell = self.cell_of(key);
        self.counts[cell] += count;
        self.total += count;
    }

    /// Merge another histogram with identical geometry into this one.
    ///
    /// # Panics
    /// Panics when bounds or cell counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        assert_eq!(self.counts.len(), other.counts.len(), "cell counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Reset all counts to zero.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// Cumulative counts: entry `i` is the number of samples in cells
    /// `0..=i`. (Step (c) of the paper's Figure 2.)
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> KeyBounds {
        KeyBounds::new(0, 99)
    }

    #[test]
    fn cells_partition_the_space() {
        let h = Histogram::new(bounds(), 10);
        // Every key maps to exactly one cell and ranges tile the space.
        let mut covered = 0u64;
        for cell in 0..10 {
            let (lo, hi) = h.cell_range(cell);
            assert!(lo <= hi);
            covered += hi - lo + 1;
            for k in lo..=hi {
                assert_eq!(h.cell_of(k), cell, "key {k}");
            }
        }
        assert_eq!(covered, bounds().width());
    }

    #[test]
    fn record_and_total() {
        let mut h = Histogram::new(bounds(), 10);
        for k in 0..100 {
            h.record(k);
        }
        assert_eq!(h.total(), 100);
        assert!(h.counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn out_of_range_keys_are_clamped() {
        let mut h = Histogram::new(KeyBounds::new(10, 19), 2);
        h.record(0);
        h.record(100);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
    }

    #[test]
    fn cumulative_counts_are_monotone_and_end_at_total() {
        let mut h = Histogram::new(bounds(), 5);
        for k in [1u64, 1, 2, 50, 99, 99, 99] {
            h.record(k);
        }
        let cum = h.cumulative();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cum.last().unwrap(), h.total());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::from_samples(bounds(), 4, &[1, 2, 3]);
        let b = Histogram::from_samples(bounds(), 4, &[97, 98, 99]);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.counts()[0], 3);
        assert_eq!(a.counts()[3], 3);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(KeyBounds::new(0, 9), 2);
        let b = Histogram::new(KeyBounds::new(0, 19), 2);
        a.merge(&b);
    }

    #[test]
    fn clear_resets_counts() {
        let mut h = Histogram::from_samples(bounds(), 4, &[5, 6, 7]);
        h.clear();
        assert_eq!(h.total(), 0);
        assert!(h.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn single_cell_histogram_works() {
        let mut h = Histogram::new(bounds(), 1);
        h.record(0);
        h.record(99);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.cell_range(0), (0, 99));
    }
}
