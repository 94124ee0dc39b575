//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed per
//! core drifts by a third or more over tens of seconds, with even the
//! fastest samples of a 12 s window moving by half. No order statistic
//! of wall-clock time taken in one run survives that, so the gated
//! end-to-end metrics are expressed in *reference seconds*: a round's
//! wall-clock times [`KERNEL_REF_S`] divided by the mean time of a fixed
//! calibration kernel run on as many threads as the round keeps busy,
//! right before and right after it. One reference second is the host
//! time in which the kernel runs `1 / KERNEL_REF_S` (50) times.
//!
//! The kernel is branchy integer work with random read-modify-writes
//! over a table larger than the private caches, which is how the
//! simulator's hot loop uses the host. Interleaved with simulated
//! points on a 2-core shared host for 200 s, its per-sample time
//! correlated 0.8 with an 8x8 synthetic point's and with a Radix
//! closed-loop run's (two simulated points correlate 0.9 with each
//! other), and dividing by it cut the spread of 10 s window medians
//! (IQR / median) from 0.11 to 0.06 for the synthetic point and from
//! 0.13 to 0.08 for Radix. It lives in this crate and calls nothing in
//! the repository, so a change to the program moves the normalised
//! metrics exactly as it moves wall time.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations: 15-25 ms on the 2-core reference host, depending
/// on how loaded the host is.
const KERNEL_ITERS: u64 = 1_500_000;

/// Table entries: 4 MiB, larger than the private caches, the way the
/// simulator's state of a 16x16 mesh is.
const TABLE: usize = 1 << 19;

/// Reference seconds one kernel run counts as.
pub(crate) const KERNEL_REF_S: f64 = 0.02;

/// One kernel run: xorshift-driven branches and read-modify-writes at
/// random places of a fresh [`TABLE`]. Returns its wall-clock seconds.
fn kernel(salt: u64) -> f64 {
    let t0 = Instant::now();
    let mut table = vec![0u64; TABLE];
    let mask = TABLE - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ salt;
    let mut acc = 0u64;
    for i in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        if x & 0x30 == 0 {
            table[j] = table[j].wrapping_add(i);
        } else if x & 0x100 != 0 {
            acc = acc.wrapping_add(table[j] ^ x);
        } else {
            table[(j + 1) & mask] ^= acc;
        }
    }
    black_box((&table, acc));
    t0.elapsed().as_secs_f64()
}

/// Share of a round's time the calibration after it may take.
const SHARE: f64 = 0.05;

/// Most kernel runs per thread in one sample.
const MAX_REPS: usize = 8;

/// Kernel runs per thread for the sample after a round of `wall_s`
/// seconds: enough to cover [`SHARE`] of it, so a long round is judged
/// by more than one 20 ms glimpse of the host.
pub(crate) fn reps_for(wall_s: f64) -> usize {
    ((wall_s * SHARE / KERNEL_REF_S).round() as usize).clamp(1, MAX_REPS)
}

/// Runs the kernel `reps` times on each of `threads` threads at the same
/// time, the way a round loads the host, and returns the mean time of
/// one run.
pub(crate) fn sample(threads: usize, reps: usize) -> f64 {
    let (threads, reps) = (threads.max(1), reps.max(1));
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (0..reps)
                        .map(|k| kernel((t * reps + k) as u64))
                        .sum::<f64>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel cannot panic"))
            .sum()
    });
    total / (threads * reps) as f64
}

/// Reference seconds per host second, from the kernel samples taken
/// right before and right after a round.
pub(crate) fn scale(before: f64, after: f64) -> f64 {
    2.0 * KERNEL_REF_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_when_the_kernel_takes_its_reference_time() {
        assert!((scale(KERNEL_REF_S, KERNEL_REF_S) - 1.0).abs() < 1e-12);
        // A host at half speed doubles the kernel's time: its seconds
        // count half.
        assert!((scale(2.0 * KERNEL_REF_S, 2.0 * KERNEL_REF_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_is_positive_on_any_thread_count() {
        assert!(sample(0, 0) > 0.0);
        assert!(sample(2, 2) > 0.0);
    }

    #[test]
    fn reps_cover_a_share_of_the_round() {
        assert_eq!(reps_for(0.0), 1);
        assert_eq!(reps_for(2.0), 5);
        assert_eq!(reps_for(100.0), MAX_REPS);
    }
}
