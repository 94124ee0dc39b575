//! Small numeric helpers: order statistics, the tail-percentile rule,
//! a stable output digest and the seed-derivation RNG.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method); `None` for fewer than two values.
pub(crate) fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    let n = v.len();
    if n < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let cut = |i: i64| {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1], then
        // delta = i*(n+1) - 4*j, which may fall outside [0, 4].
        let len = n as i64;
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - 4 * j) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest percentile of `values` that still has at least `beyond`
/// samples above it: returns `(percentile, value)`, or `None` when there
/// are not more than `beyond` samples. With `n` samples sorted
/// ascending, the answer is the sample at index `n - beyond - 1`, whose
/// percentile is `100 * (n - beyond) / n`.
pub(crate) fn tail_percentile(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - beyond - 1;
    Some((100.0 * (n - beyond) as f64 / n as f64, v[idx]))
}

/// [`tail_percentile`] over consecutive blocks of at least `block`
/// samples, as `(percentile of the first block, median of the block
/// tails, blocks)`. One block's `beyond` slowest samples bound how far a
/// burst of machine noise can move it, and the median over blocks damps
/// the rest. The samples are split into `len / block` blocks (at least
/// one) of near-equal size, so none is left out.
pub(crate) fn block_tail(values: &[f64], block: usize, beyond: usize) -> Option<(f64, f64, usize)> {
    if values.len() <= beyond {
        return None;
    }
    let blocks = (values.len() / block.max(1)).max(1);
    let tails: Vec<(f64, f64)> = values
        .chunks(values.len().div_ceil(blocks))
        .filter_map(|c| tail_percentile(c, beyond))
        .collect();
    let pct = tails.first()?.0;
    let vals: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((pct, median(&vals)?, tails.len()))
}

/// FNV-1a 64-bit over a byte stream: the digest of simulated outputs.
/// It must stay stable across builds, so it does not use `std`'s hasher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: the only source of randomness for inputs, so that a
/// seed names the same grid on every platform and toolchain.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a sub-seed from a seed and a list of labels.
pub(crate) fn derive(seed: u64, labels: &[u64]) -> u64 {
    labels.iter().fold(mix(seed), |acc, &l| mix(acc ^ mix(l)))
}

/// Fisher–Yates shuffle driven by [`mix`].
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 samples at or below, 10 above: the 90th percentile, value 90.
        assert_eq!(tail_percentile(&v, 10), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (p, x) = tail_percentile(&v, 10).expect("11 samples suffice");
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(tail_percentile(&v[..10], 10), None);
        // The chosen sample really has exactly `beyond` samples above it.
        let v: Vec<f64> = (0..37).map(|i| f64::from((i * 7919) % 37)).collect();
        let (_, x) = tail_percentile(&v, 10).expect("37 samples");
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
    }

    #[test]
    fn block_tail_takes_the_median_of_block_tails() {
        // Three blocks of 20: each block's tail (10 beyond) is its 10th
        // smallest sample; the blocks' tails are 10, 110 and 210.
        let v: Vec<f64> = (0..3)
            .flat_map(|b| (1..=20).map(move |i| f64::from(b * 100 + i)))
            .collect();
        assert_eq!(block_tail(&v, 20, 10), Some((50.0, 110.0, 3)));
        // Samples beyond whole blocks widen the blocks instead of being
        // dropped: 50 samples in blocks of at least 20 are two blocks of
        // 25, whose tails (10 beyond) are 15 and 40, at the 60th
        // percentile.
        let w: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(block_tail(&w, 20, 10), Some((60.0, 27.5, 2)));
        // Short runs fall back to one block of everything.
        assert_eq!(
            block_tail(&v[..15], 20, 10),
            Some((100.0 * 5.0 / 15.0, 5.0, 1))
        );
        assert_eq!(block_tail(&v[..10], 20, 10), None);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(0.5f64.to_bits());
        // Pinned value: a change here means old digests stop comparing.
        assert_eq!(a.finish(), 0x38b5_30f1_4d8d_bc89);
        let mut b = Digest::default();
        b.u64(0.5f64.to_bits());
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn derive_and_shuffle_are_deterministic() {
        assert_eq!(derive(7, &[1, 2]), derive(7, &[1, 2]));
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1]), derive(8, &[1]));
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 11);
        shuffle(&mut b, 11);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
