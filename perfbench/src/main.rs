//! Layered benchmark of the FastPass NoC reproduction.
//!
//! ```text
//! perfbench --workload <sweep-mesh|apps-closed|serve-cold|serve-warm>
//!           --seed N --seconds S --trace <0|1> --nocserve PATH
//! ```
//!
//! `perfbench/run.py` builds this binary and the `nocserve` daemon from
//! the checkout and runs it; see `BENCHMARK.json` for why each workload
//! exists and which layer metric should move which end-to-end metric.
//!
//! Every workload is a [`Part`]: a set-up, a round of fixed work that is
//! repeated, a verification pass outside the timed phase and a
//! tear-down. A run repeats rounds of the same size for a number of
//! rounds fixed by `--seconds`, so a faster program finishes the same
//! work sooner instead of doing more of it.
//!
//! With `--trace 0` the run prints the end-to-end metrics, with times in
//! reference seconds (see [`calib`]) so that the host's drifting speed
//! does not move them, and the same times in host seconds above. With
//! `--trace 1` it runs the workload's rounds untraced and then traced
//! (the difference is the tracing overhead), runs one reduced traced
//! round of every other workload for the layers this one does not
//! exercise, prints the per-layer metrics and writes the spans as a
//! Chrome trace under `.bench_out/`. Either way the last line of stdout
//! is the JSON result, and any wrong output makes the exit code nonzero.

mod apps;
mod calib;
mod grid;
mod plan;
mod serve;
mod span;
mod stats;

use span::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Metric name → (value, unit).
pub(crate) type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Inserts one metric.
pub(crate) fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// Everything a part needs from the command line and the environment.
#[derive(Debug, Clone)]
pub(crate) struct Ctx {
    /// Workload seed.
    pub(crate) seed: u64,
    /// Executor and daemon workers (`nproc`).
    pub(crate) workers: usize,
    /// The `nocserve` binary built from the checkout.
    pub(crate) nocserve: PathBuf,
    /// Private scratch directory inside the checkout, removed at exit.
    pub(crate) tmp: PathBuf,
}

/// Correctness accounting: points attempted and checks failed.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Points simulated or served, plus verification recomputations.
    pub(crate) attempted: u64,
    /// Failed points plus correctness mismatches.
    pub(crate) failed: u64,
}

impl Tally {
    /// Counts one check; a failure is reported on stderr.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }
}

/// One round's measurements.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Wall-clock seconds of the round.
    pub(crate) wall_s: f64,
    /// Time of each job the round's callers waited on, ms.
    pub(crate) job_ms: Vec<f64>,
    /// Points (results) returned, with multiplicity.
    pub(crate) points: u64,
    /// Σ mesh nodes × simulated cycles over the results returned.
    pub(crate) router_cycles: f64,
    /// Digest of the round's simulated outputs.
    pub(crate) digest: u64,
    /// Reference seconds per host second around the round
    /// ([`calib::scale`]); set by [`run_rounds`].
    pub(crate) scale: f64,
}

/// One workload: set-up, repeatable round, verification, tear-down.
pub(crate) trait Part: Sized {
    /// Workload name on the command line.
    const NAME: &'static str;
    /// Rounds per `--seconds` second (the work a run measures is fixed
    /// by `--seconds`, not by how fast the program is).
    const ROUNDS_PER_S: f64;
    /// Builds the inputs and everything that must exist before the first
    /// timed operation. `census` asks for the reduced size used when
    /// another workload's traced run borrows this one's layers.
    fn setup(ctx: &Ctx, census: bool) -> Result<Self, String>;
    /// Threads a round keeps busy; the calibration kernel runs on as
    /// many at once.
    fn threads(&self) -> usize;
    /// Runs round `r` (timed by the part itself, checks after timing).
    fn round(&mut self, r: u64, tracer: Option<&Tracer>, tally: &mut Tally) -> Round;
    /// Checks outside the timed phase: recomputed samples, leftovers.
    fn verify(&mut self, tally: &mut Tally);
    /// Per-layer metrics from the traced rounds. `own` is true when this
    /// part is the workload under test.
    fn layer(&mut self, tracer: &Tracer, own: bool, out: &mut Metrics, tally: &mut Tally);
    /// Tears down and returns the peak RSS (MB) of the process that did
    /// the work.
    fn close(self, tally: &mut Tally) -> f64;
}

/// Fewest set-ups per run; `setup_s` is the median of all of them.
const SETUPS_MIN: usize = 5;

/// Set-ups go on past [`SETUPS_MIN`] until they have taken this long in
/// all (or [`SETUPS_MAX`] were made): a set-up of a few ms measured a
/// handful of times moved by 2x between runs.
const SETUP_BUDGET_S: f64 = 1.0;

/// Most set-ups per run.
const SETUPS_MAX: usize = 60;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Jobs per block of the job-time tail (see [`stats::block_tail`]).
const TAIL_BLOCK: usize = 200;

fn rounds_for(seconds: f64, per_s: f64) -> u64 {
    ((seconds * per_s).round() as u64).max(3)
}

/// Runs `count` rounds with a calibration sample before the first and
/// after every round.
fn run_rounds<P: Part>(
    part: &mut P,
    count: u64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Vec<Round> {
    let threads = part.threads();
    let mut before = calib::sample(threads, 1);
    (0..count)
        .map(|r| {
            let mut round = part.round(r, tracer, tally);
            let after = calib::sample(threads, calib::reps_for(round.wall_s));
            round.scale = calib::scale(before, after);
            before = after;
            round
        })
        .collect()
}

/// Sets the part up repeatedly and returns the last set-up and the
/// median set-up time in reference seconds. Like a round, each set-up is
/// bracketed by single-thread calibration samples: raw set-up times of a
/// few ms moved by 28% between two sets of ten runs on the reference
/// host while the reference-second metrics of the same runs agreed
/// within 1%.
fn setup_median<P: Part>(ctx: &Ctx, tally: &mut Tally) -> Result<(P, f64), String> {
    let (mut host, mut scaled) = (Vec::new(), Vec::new());
    let mut before = calib::sample(1, 1);
    loop {
        let t0 = Instant::now();
        let part = P::setup(ctx, false)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let after = calib::sample(1, calib::reps_for(setup_s));
        host.push(setup_s);
        scaled.push(setup_s * calib::scale(before, after));
        before = after;
        let spent: f64 = host.iter().sum();
        if host.len() >= SETUPS_MAX || (host.len() >= SETUPS_MIN && spent >= SETUP_BUDGET_S) {
            let median = |v: &[f64]| stats::median(v).expect("at least one set-up");
            println!(
                "{}: setup_s is the median of {} set-ups, {:.6} s in host time",
                P::NAME,
                host.len(),
                median(&host)
            );
            return Ok((part, median(&scaled)));
        }
        part.close(tally);
    }
}

/// The time metrics of `rounds`, each round's times multiplied by
/// `scale(round)`: host seconds with `|_| 1.0`, reference seconds with
/// the round's calibration scale.
struct Times {
    wall_s: f64,
    points_per_s: f64,
    sim_mrcps: f64,
    job_p50_ms: f64,
    /// `(percentile, value, blocks)` of the job-time tail.
    job_tail_ms: (f64, f64, usize),
}

fn times(rounds: &[Round], scale: &dyn Fn(&Round) -> f64) -> Times {
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let jobs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.job_ms.iter().map(move |&ms| ms * scale(r)))
        .collect();
    // Too few jobs for any percentile to leave TAIL_BEYOND beyond it:
    // the slowest job is the tail.
    let slowest = jobs.iter().copied().fold(0.0, f64::max);
    Times {
        wall_s: per_round(&|r| r.wall_s * scale(r)),
        points_per_s: per_round(&|r| r.points as f64 / (r.wall_s * scale(r))),
        sim_mrcps: per_round(&|r| r.router_cycles / (r.wall_s * scale(r)) / 1e6),
        job_p50_ms: stats::median(&jobs).unwrap_or(0.0),
        job_tail_ms: stats::block_tail(&jobs, TAIL_BLOCK, TAIL_BEYOND)
            .unwrap_or((100.0, slowest, 1)),
    }
}

fn end_to_end(rounds: &[Round], setup_s: f64) -> (Metrics, String) {
    let norm = times(rounds, &|r| r.scale);
    let host = times(rounds, &|_| 1.0);
    let mut m = Metrics::new();
    put(&mut m, "setup_s", setup_s, "s");
    put(&mut m, "wall_ref_s", norm.wall_s, "ref_s");
    put(&mut m, "points_per_ref_s", norm.points_per_s, "1/ref_s");
    put(&mut m, "sim_mrc_per_ref_s", norm.sim_mrcps, "Mrc/ref_s");
    put(&mut m, "job_p50_ref_ms", norm.job_p50_ms, "ref_ms");
    put(&mut m, "job_tail_ref_ms", norm.job_tail_ms.1, "ref_ms");
    let (pct, _, blocks) = norm.job_tail_ms;
    let jobs: usize = rounds.iter().map(|r| r.job_ms.len()).sum();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let scales: Vec<f64> = rounds.iter().map(|r| r.scale).collect();
    let (q1, q3) = stats::quartiles(&walls).unwrap_or((0.0, 0.0));
    let (s1, s3) = stats::quartiles(&scales).unwrap_or((0.0, 0.0));
    let note = format!(
        "job_tail_ref_ms is the median p{pct:.1} of {blocks} blocks of {} jobs ({TAIL_BEYOND} beyond each), \
         {jobs} jobs in all; {} rounds, {} points; round wall quartiles {q1:.4}..{q3:.4} s; \
         reference seconds per host second quartiles {s1:.4}..{s3:.4}\n\
         in host time: wall_s {:.6} s, points_per_s {:.3} 1/s, sim_mrcps {:.4} Mrc/s, \
         job_p50_ms {:.4} ms, job_tail_ms {:.4} ms (p{:.1})",
        jobs.div_ceil(blocks),
        rounds.len(),
        rounds.iter().map(|r| r.points).sum::<u64>(),
        host.wall_s,
        host.points_per_s,
        host.sim_mrcps,
        host.job_p50_ms,
        host.job_tail_ms.1,
        host.job_tail_ms.0,
    );
    (m, note)
}

fn untraced<P: Part>(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    let (mut part, setup_s) = setup_median::<P>(ctx, tally)?;
    let count = rounds_for(seconds, P::ROUNDS_PER_S);
    let rounds = run_rounds(&mut part, count, None, tally);
    part.verify(tally);
    let rss = part.close(tally);
    let (m, note) = end_to_end(&rounds, setup_s);
    println!("{}: {note}", P::NAME);
    println!(
        "{}: digest {:016x}; peak RSS of the working process {rss:.1} MB",
        P::NAME,
        rounds[0].digest
    );
    Ok(m)
}

fn census<P: Part>(
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut part = P::setup(ctx, true)?;
    run_rounds(&mut part, 1, Some(tracer), tally);
    part.verify(tally);
    let mut mine = Metrics::new();
    part.layer(tracer, false, &mut mine, tally);
    part.close(tally);
    for (k, v) in mine {
        out.entry(k).or_insert(v);
    }
    Ok(())
}

fn traced<P: Part>(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    let tracer = Tracer::new();
    let mut out = Metrics::new();
    let half = (rounds_for(seconds, P::ROUNDS_PER_S) / 2).max(2);
    let mut part = P::setup(ctx, false)?;
    // Untraced and traced rounds alternate, so drift on the machine
    // lands on both sides of the overhead estimate.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for r in 0..2 * half {
        if r % 2 == 0 {
            plain.push(part.round(r, None, tally));
        } else {
            spanned.push(part.round(r, Some(&tracer), tally));
        }
    }
    part.verify(tally);
    part.layer(&tracer, true, &mut out, tally);
    let rss = part.close(tally);
    put(&mut out, "mem.peak_rss_mb", rss, "MB");
    let median_wall = |rs: &[Round]| {
        stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (base, with) = (median_wall(&plain), median_wall(&spanned));
    put(&mut out, "trace.overhead_frac", with / base - 1.0, "ratio");
    println!(
        "{}: tracing overhead {:+.2}% (median round {:.4} s traced vs {:.4} s untraced, {half}+{half} alternating rounds)",
        P::NAME,
        100.0 * (with / base - 1.0),
        with,
        base
    );
    if P::NAME != grid::Grid::NAME {
        census::<grid::Grid>(ctx, &tracer, &mut out, tally)?;
    }
    if P::NAME != apps::Apps::NAME {
        census::<apps::Apps>(ctx, &tracer, &mut out, tally)?;
    }
    if P::NAME != serve::Cold::NAME {
        census::<serve::Cold>(ctx, &tracer, &mut out, tally)?;
    }
    if P::NAME != serve::Warm::NAME {
        census::<serve::Warm>(ctx, &tracer, &mut out, tally)?;
    }
    let json = tracer.chrome_json();
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", P::NAME, ctx.seed));
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    match bench::check_chrome_trace(&json, false) {
        Ok(s) => println!(
            "trace: {} ({} spans) passes bench::check_chrome_trace",
            path.display(),
            s.complete
        ),
        Err(e) => tally.check(false, || format!("trace {} rejected: {e}", path.display())),
    }
    Ok(out)
}

fn run<P: Part>(
    ctx: &Ctx,
    seconds: f64,
    trace: bool,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    if trace {
        traced::<P>(ctx, seconds, tally)
    } else {
        untraced::<P>(ctx, seconds, tally)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nocserve: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut nocserve = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.clamp(1, 60) as f64),
            "--trace" => trace = num(&value)? != 0,
            "--nocserve" => nocserve = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        nocserve: nocserve.ok_or("--nocserve is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        nocserve: args.nocserve,
        tmp,
    };
    let mut tally = Tally::default();
    let outcome = match args.workload.as_str() {
        grid::Grid::NAME => run::<grid::Grid>(&ctx, args.seconds, args.trace, &mut tally),
        apps::Apps::NAME => run::<apps::Apps>(&ctx, args.seconds, args.trace, &mut tally),
        serve::Cold::NAME => run::<serve::Cold>(&ctx, args.seconds, args.trace, &mut tally),
        serve::Warm::NAME => run::<serve::Warm>(&ctx, args.seconds, args.trace, &mut tally),
        other => Err(format!("unknown workload `{other}`")),
    };
    // Nothing a run creates may survive it, or one run could warm the next.
    let _ = std::fs::remove_dir(&ctx.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    tally.check(!ctx.tmp.exists(), || {
        format!("{} left behind", ctx.tmp.display())
    });
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let attempted = tally.attempted.max(1);
    println!(
        "{}: failed_frac {} ({} of {attempted})",
        args.workload,
        tally.failed as f64 / attempted as f64,
        tally.failed
    );
    for (name, (value, unit)) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
