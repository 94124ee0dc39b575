//! Perf-history regression gate over the hot-path benchmark.
//!
//! Measures the shared hot-path sweep ([`bench::hotbench`] — the same
//! workload and methodology as `hotpath`, so numbers are comparable),
//! compares the result against the most recent recorded baseline in the
//! history file, appends the fresh measurement as a new history row, and
//! exits nonzero when cycles/sec regressed more than the threshold.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin perfwatch -- \
//!     [--history results/perf_history.jsonl] [--threshold 0.10] [--reps N]
//! ```
//!
//! The history is append-only JSONL (`{"git_sha", "bench", "metric",
//! "value"}` per line); CI uploads it as an artifact and re-seeds the
//! next run with it, so the baseline follows the branch. Two runs on the
//! same commit must both exit 0: the first records the baseline, the
//! second compares against it (same code, same speed, modulo the
//! threshold's noise allowance).

use bench::hotbench::{self, DEFAULT_REPS};
use bench::perfwatch::{append_row, judge, load_history, PerfRow, Verdict, DEFAULT_THRESHOLD};
use std::path::PathBuf;

const BENCH_NAME: &str = "hotpath";
const METRIC: &str = "cycles_per_sec";

struct Args {
    history: PathBuf,
    threshold: f64,
    reps: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        history: PathBuf::from("results/perf_history.jsonl"),
        threshold: DEFAULT_THRESHOLD,
        reps: DEFAULT_REPS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("perfwatch: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--history" => args.history = PathBuf::from(value("--history")),
            "--threshold" => {
                args.threshold = value("--threshold").parse().unwrap_or_else(|e| {
                    eprintln!("perfwatch: bad --threshold: {e}");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                args.reps = value("--reps").parse().unwrap_or_else(|e| {
                    eprintln!("perfwatch: bad --reps: {e}");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: perfwatch [--history <file.jsonl>] [--threshold <frac>] [--reps <n>]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("perfwatch: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let history = match load_history(&args.history) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfwatch: reading {}: {e}", args.history.display());
            std::process::exit(2);
        }
    };

    hotbench::run_sweep(None); // warm allocator/caches
    let m = hotbench::measure(None, args.reps);
    let value = m.cps_best;
    println!(
        "perfwatch: {} = {:.0} (mean {:.0}) over {}",
        METRIC,
        value,
        m.cps_mean,
        hotbench::workload_description(args.reps)
    );

    // The row is appended before the verdict so a failing run still
    // extends the history.
    let verdict = judge(&history, BENCH_NAME, METRIC, value, args.threshold);
    let row = PerfRow {
        git_sha: bench::git_sha(),
        bench_name: BENCH_NAME.to_string(),
        metric: METRIC.to_string(),
        value,
    };
    if let Err(e) = append_row(&args.history, &row) {
        eprintln!("perfwatch: appending to {}: {e}", args.history.display());
        std::process::exit(2);
    }
    println!(
        "perfwatch: recorded {} row for {} in {}",
        METRIC,
        row.git_sha,
        args.history.display()
    );

    match verdict {
        Verdict::NoBaseline => {
            println!("perfwatch: {METRIC}: no prior baseline — this run seeds the history. OK");
        }
        Verdict::Ok { baseline, ratio } => {
            println!(
                "perfwatch: {}: {:.0} vs baseline {:.0} ({:+.1}%) within {:.0}% gate. OK",
                METRIC,
                value,
                baseline,
                (ratio - 1.0) * 100.0,
                args.threshold * 100.0
            );
        }
        Verdict::Regression { baseline, ratio } => {
            eprintln!(
                "perfwatch: REGRESSION — {}: {:.0} vs baseline {:.0} ({:.1}% drop, gate {:.0}%)",
                METRIC,
                value,
                baseline,
                (1.0 - ratio) * 100.0,
                args.threshold * 100.0
            );
            std::process::exit(1);
        }
    }
}
