//! The shared hot-path measurement harness.
//!
//! `hotpath` (interactive microbenchmark) and `perfwatch` (perf-history
//! regression gate) must measure *the same thing* for their numbers to
//! be comparable across commits, so the workload definition and timing
//! methodology live here and both binaries are thin wrappers.
//!
//! The workload is the low-load smoke sweep — FastPass + plain VCT on a
//! 4×4 mesh at three rates — run uncached, so the measured wall-clock
//! is pure simulator time. Each repetition of the whole sweep is timed
//! separately and the *fastest* repetition is the headline number: on
//! shared machines the minimum is the best estimator of true cost
//! (interference only ever adds time).

use crate::runner::make_sim;
use crate::SchemeId;
use noc_sim::Simulation;
use noc_trace::{TraceConfig, TraceLevel};
use std::time::Instant;
use traffic::SyntheticPattern;

/// Mesh side length of the benchmark sweep.
pub const MESH_SIZE: usize = 4;
/// FastPass VCs per VN.
pub const FP_VCS: usize = 2;
/// Simulation seed.
pub const SEED: u64 = 5;
/// Warmup cycles per point.
pub const WARMUP: u64 = 1_000;
/// Measured cycles per point.
pub const MEASURE: u64 = 3_000;
/// Injection rates swept.
pub const RATES: [f64; 3] = [0.02, 0.05, 0.08];
/// Schemes swept.
pub const SCHEMES: [SchemeId; 2] = [SchemeId::FastPass, SchemeId::Vct];
/// Default repetitions of the whole sweep, to push the measurement well
/// past timer noise on fast machines.
pub const DEFAULT_REPS: u64 = 20;

/// One timed measurement (over `reps` sweep repetitions).
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Cycles simulated across all repetitions.
    pub total_cycles: u64,
    /// Packets delivered across all repetitions.
    pub total_delivered: u64,
    /// Wall-clock seconds across all repetitions.
    pub total_secs: f64,
    /// Fastest single repetition, seconds.
    pub best: f64,
    /// Cycles/second derived from the fastest repetition (headline).
    pub cps_best: f64,
    /// Mean cycles/second over all repetitions.
    pub cps_mean: f64,
}

/// A one-line description of the benchmark workload for report headers.
pub fn workload_description(reps: u64) -> String {
    format!(
        "smoke sweep x{reps}: {{FastPass, VCT}} x rates {RATES:?}, \
         {MESH_SIZE}x{MESH_SIZE} mesh, warmup {WARMUP} + measure {MEASURE}, \
         seed {SEED}, serial and uncached"
    )
}

/// Runs the benchmark sweep once, invoking `on_sim` on each freshly
/// built simulation (probe installation, tracing) before it runs.
/// Returns `(cycles, delivered)`.
///
/// # Panics
///
/// Panics if any point delivers nothing — a wedged scheme would
/// otherwise benchmark infinitely fast.
pub fn run_sweep_with(
    trace: Option<TraceLevel>,
    mut on_sim: impl FnMut(&mut Simulation),
) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut delivered = 0u64;
    for id in SCHEMES {
        for rate in RATES {
            let mut sim = make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED);
            if let Some(level) = trace {
                sim.set_trace(&TraceConfig {
                    level,
                    ..TraceConfig::default()
                });
            }
            on_sim(&mut sim);
            let stats = sim.run_windows(WARMUP, MEASURE);
            cycles += WARMUP + stats.cycles;
            delivered += stats.delivered();
            assert!(stats.delivered() > 0, "{} delivered nothing", id.name());
        }
    }
    (cycles, delivered)
}

/// Runs the benchmark sweep once with no per-simulation setup.
pub fn run_sweep(trace: Option<TraceLevel>) -> (u64, u64) {
    run_sweep_with(trace, |_| {})
}

/// Times `reps` repetitions of the sweep (after the caller has warmed
/// caches with a throwaway [`run_sweep`]).
pub fn measure(trace: Option<TraceLevel>, reps: u64) -> Measurement {
    let mut total_cycles = 0u64;
    let mut total_delivered = 0u64;
    let mut total_secs = 0f64;
    let mut best = f64::INFINITY;
    let mut sweep_cycles = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let (cycles, delivered) = run_sweep(trace);
        let secs = start.elapsed().as_secs_f64();
        total_cycles += cycles;
        total_delivered += delivered;
        total_secs += secs;
        best = best.min(secs);
        sweep_cycles = cycles;
    }
    Measurement {
        total_cycles,
        total_delivered,
        total_secs,
        best,
        cps_best: sweep_cycles as f64 / best,
        cps_mean: total_cycles as f64 / total_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rep_measures_something() {
        let m = measure(None, 1);
        assert_eq!(m.total_cycles, (WARMUP + MEASURE) * 6);
        assert!(m.total_delivered > 0);
        assert!(m.cps_best > 0.0 && m.cps_best.is_finite());
        assert!(m.best <= m.total_secs);
    }

    #[test]
    fn workload_description_names_the_sweep() {
        let d = workload_description(20);
        assert!(d.contains("x20") && d.contains("4x4"), "{d}");
    }
}
