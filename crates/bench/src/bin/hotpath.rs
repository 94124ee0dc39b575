//! Cycles-per-second microbenchmark of the regular-pass hot path.
//!
//! Runs the shared hot-path sweep ([`bench::hotbench`]: FastPass + plain
//! VCT on a 4×4 mesh, three rates) *serially and uncached*, so the
//! measured wall-clock is pure simulator time — exactly the per-cycle
//! loop the active-set optimisation targets. Low load is the interesting
//! regime: most sweep probes (zero-load latency, saturation bisection
//! floors) run there, and it is where a topology-proportional loop
//! wastes the most work.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin hotpath [-- label]
//! cargo run --release -p bench --bin hotpath -- --trace-overhead
//! cargo run --release -p bench --bin hotpath -- --phases
//! ```
//!
//! The default mode prints a `BENCH_*`-style JSON report (stamped with
//! `git_sha` and `schema_version`) for the hand-kept
//! `BENCH_hotpath.json` at the repo root.
//!
//! `--trace-overhead` instead measures the cost of the tracing hooks:
//! the same sweep is timed with tracing disabled, at counters level and
//! at full event level. The disabled number is the zero-overhead claim:
//! hooks compile to a branch on a disabled tracer, so it must sit within
//! noise of the plain hot-path figure.
//!
//! `--phases` attaches the wall-clock [`WallProbe`] to every simulation
//! and reports where the cycles/sec go, phase by phase (self time, no
//! double counting across nested phases), then prints a windowed
//! telemetry sparkline of the highest-load FastPass point. Probed runs
//! are slower than the headline number by construction — the hooks are
//! no longer empty — so this mode never reports cycles/sec.

use bench::hotbench::{self, Measurement, DEFAULT_REPS, MEASURE, WARMUP};
use bench::runner::make_sim;
use bench::{BenchReport, SchemeId, WallProbe};
use noc_sim::SamplerConfig;
use noc_trace::TraceLevel;
use traffic::SyntheticPattern;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "current".into());
    match arg.as_str() {
        "--trace-overhead" => trace_overhead(),
        "--phases" => phases(),
        label => headline(label),
    }
}

fn push_measurement(report: &mut BenchReport, prefix: &str, m: &Measurement) {
    report
        .push_f64(&format!("{prefix}cycles_per_sec"), m.cps_best.round())
        .push_f64(&format!("{prefix}cycles_per_sec_mean"), m.cps_mean.round())
        .push_f64(&format!("{prefix}best_rep_ms"), m.best * 1e3)
        .push_f64(&format!("{prefix}elapsed_ms"), m.total_secs * 1e3);
}

fn headline(label: &str) {
    // Warm the allocator/caches with one throwaway sweep.
    hotbench::run_sweep(None);
    let m = hotbench::measure(None, DEFAULT_REPS);
    let mut report = BenchReport::new("hotpath");
    report
        .push_str("label", label)
        .push_str("command", "cargo run --release -p bench --bin hotpath")
        .push_str("workload", &hotbench::workload_description(DEFAULT_REPS))
        .push_u64("total_cycles", m.total_cycles)
        .push_u64("total_delivered", m.total_delivered);
    push_measurement(&mut report, "", &m);
    println!("{}", report.to_json_pretty());
}

/// `--trace-overhead`: the same sweep at three tracing configurations —
/// hooks compiled in but tracer disabled (the default for every normal
/// run), counters level, and full event level.
fn trace_overhead() {
    hotbench::run_sweep(None); // warm up
    let off = hotbench::measure(None, DEFAULT_REPS);
    let counters = hotbench::measure(Some(TraceLevel::Counters), DEFAULT_REPS);
    let full = hotbench::measure(Some(TraceLevel::Full), DEFAULT_REPS);
    let pct = |m: &Measurement| 100.0 * (off.cps_best / m.cps_best - 1.0);
    let mut report = BenchReport::new("trace_overhead");
    report
        .push_str("benchmark", "tracing overhead on the regular-pass hot loop")
        .push_str(
            "command",
            "cargo run --release -p bench --bin hotpath -- --trace-overhead",
        )
        .push_str("workload", &hotbench::workload_description(DEFAULT_REPS))
        .push_str(
            "methodology",
            "fastest of the timed repetitions per level; off = hooks compiled in, \
             tracer disabled (every untraced run pays exactly this)",
        );
    push_measurement(&mut report, "off_", &off);
    push_measurement(&mut report, "counters_", &counters);
    report.push_f64("counters_slowdown_pct", pct(&counters));
    push_measurement(&mut report, "full_", &full);
    report.push_f64("full_slowdown_pct", pct(&full));
    println!("{}", report.to_json_pretty());
}

/// `--phases`: one probed sweep repetition with self-time attribution,
/// plus a windowed telemetry profile of the busiest point.
fn phases() {
    let (probe, times) = WallProbe::new();
    drop(probe); // only the shared handle is needed; probes are per-sim
    let reps = 5;
    for _ in 0..reps {
        hotbench::run_sweep_with(None, |sim| {
            sim.set_probe(Box::new(WallProbe::sharing(&times)));
        });
    }
    let t = times.lock().expect("phase accumulator lock");
    println!(
        "phase self-time over {reps} probed sweep repetitions\n({})\n",
        hotbench::workload_description(reps as u64)
    );
    print!("{}", t.report());
    drop(t);

    // Windowed telemetry of the highest-load FastPass point: where does
    // congestion sit inside the measurement window?
    let mut sim = make_sim(
        SchemeId::FastPass,
        SyntheticPattern::Uniform,
        *hotbench::RATES.last().expect("rates nonempty"),
        hotbench::MESH_SIZE,
        hotbench::FP_VCS,
        hotbench::SEED,
    );
    sim.set_sampler(&SamplerConfig {
        sample_every: MEASURE / 60,
        max_windows: 128,
    });
    sim.run_windows(WARMUP, MEASURE);
    sim.finish_sampling();
    println!();
    print!(
        "{}",
        bench::series_summary(sim.sampler().expect("sampler installed"))
    );
}
