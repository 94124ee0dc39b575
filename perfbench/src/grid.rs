//! `sweep-mesh`: a Fig. 8-shaped cold grid through the sweep executor
//! with the store off. Only the hot loop and the executor run.

use crate::plan::{self, Column, Load};
use crate::span::Tracer;
use crate::stats::{self, derive, Digest};
use crate::{put, Ctx, Metrics, Part, Round, Tally};
use bench::runner::make_sim;
use bench::{
    parallel_map_with, run_sweep_parallel, LatencyPoint, PhaseTimes, SweepOptions, SweepSpec,
    WallProbe,
};
use noc_core::stats::NetStats;
use noc_sim::{Phase, Simulation};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Warmup and measurement cycles per grid point (census: a quarter).
const WINDOWS: (u64, u64) = (500, 1_000);

/// Every `PROBE_EVERY`-th point of a traced round carries the phase
/// probe; the others give probe-free speed figures.
const PROBE_EVERY: usize = 4;

/// A point's output as exact bits: rate, latency, throughput, delivered,
/// FastPass fraction, dropped fraction.
pub(crate) type Bits = [u64; 6];

/// [`Bits`] of a point returned by the executor or the daemon.
pub(crate) fn point_bits(p: &LatencyPoint) -> Bits {
    [
        p.rate.to_bits(),
        p.avg_latency.to_bits(),
        p.throughput.to_bits(),
        p.delivered,
        p.fastpass_fraction.to_bits(),
        p.dropped_fraction.to_bits(),
    ]
}

/// [`Bits`] of a finished in-process run, derived from its statistics
/// the way the executor derives a point.
pub(crate) fn stats_bits(rate: f64, s: &NetStats) -> Bits {
    [
        rate.to_bits(),
        s.avg_latency().to_bits(),
        s.throughput_packets().to_bits(),
        s.delivered(),
        s.fastpass_fraction().to_bits(),
        s.dropped_fraction().to_bits(),
    ]
}

/// Runs a simulation's conservation audit, reporting a violation as
/// `false` instead of unwinding through the executor.
pub(crate) fn conserved(sim: &Simulation) -> bool {
    catch_unwind(AssertUnwindSafe(|| sim.assert_conserved())).is_ok()
}

/// Builds a single-rate grid spec's simulation.
fn build(spec: &SweepSpec) -> Simulation {
    make_sim(
        spec.id,
        spec.pattern,
        spec.rates[0],
        spec.size,
        spec.fp_vcs,
        spec.seed,
    )
}

/// One traced point's measurements.
#[derive(Debug, Clone)]
struct PointRec {
    size: usize,
    load: Load,
    scheme: &'static str,
    build_ns: u64,
    run_ns: u64,
    probed: bool,
    router_cycles: f64,
    flits: u64,
    hops: u128,
}

/// A point's place in the grid: (column, spec) indices.
type Slot = (usize, usize);

/// The sweep-mesh workload.
pub(crate) struct Grid {
    seed: u64,
    columns: Vec<Column>,
    workers: usize,
    /// First outputs seen for every point; later rounds must match.
    reference: BTreeMap<Slot, Bits>,
    first_round_digest: Option<u64>,
    recs: Vec<(u64, PointRec)>,
    phases: Arc<Mutex<PhaseTimes>>,
    traced_from: Option<usize>,
}

impl Grid {
    fn check_point(&mut self, tally: &mut Tally, slot: Slot, bits: Bits) {
        tally.attempted += 1;
        tally.check(bits[3] > 0, || {
            format!("sweep-mesh point {slot:?} delivered no packets")
        });
        let first = *self.reference.entry(slot).or_insert(bits);
        tally.check(first == bits, || {
            format!("sweep-mesh point {slot:?} differs between rounds")
        });
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in self.reference.values().flatten() {
            d.u64(*w);
        }
        d.finish()
    }

    fn untraced_round(&mut self, tally: &mut Tally) -> Round {
        let opts = SweepOptions::quiet(self.workers);
        let t0 = Instant::now();
        let mut job_ms = Vec::new();
        let mut outputs = Vec::new();
        for column in &self.columns {
            let j0 = Instant::now();
            outputs.push(run_sweep_parallel(&column.specs, &opts));
            job_ms.push(j0.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut round = Round {
            wall_s,
            job_ms,
            ..Round::default()
        };
        for (ci, sweeps) in outputs.iter().enumerate() {
            for (si, sweep) in sweeps.iter().enumerate() {
                let spec = &self.columns[ci].specs[si];
                round.points += 1;
                round.router_cycles += router_cycles(spec);
                let bits = sweep.points.first().map_or([0; 6], point_bits);
                self.check_point(tally, (ci, si), bits);
            }
        }
        round
    }

    fn traced_round(&mut self, r: u64, tr: &Tracer, tally: &mut Tally) -> Round {
        let t0 = Instant::now();
        let mut job_ms = Vec::new();
        let mut outputs = Vec::new();
        for (ci, column) in self.columns.iter().enumerate() {
            let j0 = Instant::now();
            let phases = &self.phases;
            let out = tr.span("column", 0, ci as u64, |column_id| {
                let jobs: Vec<_> = column
                    .specs
                    .iter()
                    .enumerate()
                    .map(|(si, spec)| {
                        let key = (r << 16) | ((ci as u64) << 8) | si as u64;
                        let probed = (r as usize + ci + si).is_multiple_of(PROBE_EVERY);
                        move || {
                            tr.span("point", column_id, key, |pid| {
                                let b0 = Instant::now();
                                let mut sim = tr.span("build", pid, key, |_| build(spec));
                                let build_ns = b0.elapsed().as_nanos() as u64;
                                if probed {
                                    sim.set_probe(Box::new(WallProbe::sharing(phases)));
                                }
                                let r0 = Instant::now();
                                let stats = tr.span("run", pid, key, |_| {
                                    sim.run_windows(spec.warmup, spec.measure)
                                });
                                let run_ns = r0.elapsed().as_nanos() as u64;
                                let ok = tr.span("audit", pid, key, |_| conserved(&sim));
                                let rec = PointRec {
                                    size: spec.size,
                                    load: column.loads[si],
                                    scheme: spec.id.name(),
                                    build_ns,
                                    run_ns,
                                    probed,
                                    router_cycles: router_cycles(spec),
                                    flits: stats.flits_delivered,
                                    hops: stats.hops.sum(),
                                };
                                (stats_bits(spec.rates[0], &stats), ok, rec)
                            })
                        }
                    })
                    .collect();
                parallel_map_with(jobs, self.workers, |_, _| {})
            });
            job_ms.push(j0.elapsed().as_secs_f64() * 1e3);
            outputs.push(out);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut round = Round {
            wall_s,
            job_ms,
            ..Round::default()
        };
        for (ci, out) in outputs.into_iter().enumerate() {
            for (si, (bits, ok, rec)) in out.into_iter().enumerate() {
                round.points += 1;
                round.router_cycles += rec.router_cycles;
                tally.check(ok, || {
                    format!(
                        "sweep-mesh point {:?} failed its conservation audit",
                        (ci, si)
                    )
                });
                self.check_point(tally, (ci, si), bits);
                self.recs.push((r, rec));
            }
        }
        round
    }
}

impl Part for Grid {
    const NAME: &'static str = "sweep-mesh";
    const ROUNDS_PER_S: f64 = 1.0;

    fn setup(ctx: &Ctx, census: bool) -> Result<Self, String> {
        let (w, m) = if census {
            (WINDOWS.0 / 4, WINDOWS.1 / 4)
        } else {
            WINDOWS
        };
        let columns = plan::grid(ctx.seed, w, m);
        // Build one simulation per scheme and size, so first-touch
        // allocation and lazy initialisation are paid here.
        for spec in columns.iter().flat_map(|c| &c.specs) {
            build(spec).run(20);
        }
        Ok(Grid {
            seed: ctx.seed,
            columns,
            workers: ctx.workers,
            reference: BTreeMap::new(),
            first_round_digest: None,
            recs: Vec::new(),
            phases: Arc::new(Mutex::new(PhaseTimes::default())),
            traced_from: None,
        })
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn round(&mut self, r: u64, tracer: Option<&Tracer>, tally: &mut Tally) -> Round {
        let mut round = match tracer {
            None => self.untraced_round(tally),
            Some(tr) => {
                self.traced_from.get_or_insert(tr.len());
                self.traced_round(r, tr, tally)
            }
        };
        if self.first_round_digest.is_none() {
            self.first_round_digest = Some(self.digest());
        }
        round.digest = self.first_round_digest.unwrap_or_default();
        round
    }

    fn verify(&mut self, tally: &mut Tally) {
        // Two seed-chosen points per column, rebuilt and audited
        // in-process and compared bitwise with the executor's output.
        for (ci, column) in self.columns.iter().enumerate() {
            for k in 0..2 {
                let si =
                    (derive(self.seed, &[20, ci as u64, k]) % column.specs.len() as u64) as usize;
                let spec = &column.specs[si];
                let mut sim = build(spec);
                let stats = sim.run_windows(spec.warmup, spec.measure);
                let (bits, ok) = (stats_bits(spec.rates[0], &stats), conserved(&sim));
                tally.attempted += 1;
                tally.check(ok, || {
                    format!(
                        "sweep-mesh sample {:?} failed its conservation audit",
                        (ci, si)
                    )
                });
                tally.check(self.reference.get(&(ci, si)) == Some(&bits), || {
                    format!(
                        "sweep-mesh sample {:?} differs from the executor's output",
                        (ci, si)
                    )
                });
            }
        }
    }

    fn layer(&mut self, tracer: &Tracer, _own: bool, out: &mut Metrics, _tally: &mut Tally) {
        let recs: Vec<&PointRec> = self.recs.iter().map(|(_, rec)| rec).collect();
        let free: Vec<&&PointRec> = recs.iter().filter(|r| !r.probed).collect();
        let mrcps = |sel: &dyn Fn(&PointRec) -> bool| {
            let (rc, ns) = free
                .iter()
                .filter(|r| sel(r))
                .fold((0.0, 0.0), |(rc, ns), r| {
                    (rc + r.router_cycles, ns + r.run_ns as f64)
                });
            rc / ns * 1e3
        };
        let builds: Vec<f64> = recs.iter().map(|r| r.build_ns as f64 / 1e6).collect();
        put(
            out,
            "sim.build_ms.p50",
            stats::median(&builds).unwrap_or(0.0),
            "ms",
        );
        for size in plan::SIZES {
            for load in Load::ALL {
                let name = format!("sim.mrcps.s{size}.{}", load.label());
                put(
                    out,
                    name,
                    mrcps(&|r| r.size == size && r.load == load),
                    "Mrc/s",
                );
            }
        }
        for id in bench::ALL_SCHEMES {
            let name = format!("sim.mrcps.{}", id.name().to_lowercase());
            put(out, name, mrcps(&|r| r.scheme == id.name()), "Mrc/s");
        }
        for load in Load::ALL {
            let (ns, flits) = free
                .iter()
                .filter(|r| r.load == load)
                .fold((0.0, 0.0), |(ns, f), r| {
                    (ns + r.run_ns as f64, f + r.flits as f64)
                });
            put(
                out,
                format!("sim.ns_per_flit.{}", load.label()),
                ns / flits,
                "ns",
            );
        }
        put_phases(&self.phases, out);
        // Exact work counts of one round: they move only if the
        // simulated work changed.
        let first = self.recs.first().map_or(0, |(r, _)| *r);
        let one: Vec<&PointRec> = self
            .recs
            .iter()
            .filter(|(r, _)| *r == first)
            .map(|(_, rec)| rec)
            .collect();
        put(
            out,
            "sim.router_cycles",
            one.iter().map(|r| r.router_cycles).sum(),
            "count",
        );
        put(
            out,
            "sim.flits_delivered",
            one.iter().map(|r| r.flits as f64).sum(),
            "count",
        );
        put(
            out,
            "sim.hops_sum",
            one.iter().map(|r| r.hops as f64).sum(),
            "count",
        );
        let rounds = self
            .recs
            .iter()
            .map(|(r, _)| *r)
            .collect::<BTreeSet<_>>()
            .len();
        let (busy, straggler) = executor_balance(
            tracer,
            self.traced_from.unwrap_or(0),
            "column",
            "point",
            self.workers,
        );
        put(out, "runner.busy_frac", busy, "ratio");
        put(
            out,
            "runner.straggler_s",
            straggler / rounds.max(1) as f64,
            "s",
        );
    }

    fn close(self, _tally: &mut Tally) -> f64 {
        crate::serve::peak_rss_mb(std::process::id())
    }
}

/// Σ mesh nodes × simulated cycles of one point.
fn router_cycles(spec: &SweepSpec) -> f64 {
    (spec.size * spec.size) as f64 * (spec.warmup + spec.measure) as f64
}

/// Self-time share of every [`Phase`] across the probed simulations.
pub(crate) fn put_phases(phases: &Mutex<PhaseTimes>, out: &mut Metrics) {
    let t = phases.lock().expect("phase accumulator lock");
    let total = t.total_nanos().max(1) as f64;
    for p in Phase::ALL {
        put(
            out,
            format!("sim.phase.{}", p.label()),
            t.nanos[p.index()] as f64 / total,
            "ratio",
        );
    }
}

/// Executor balance over `parallel_map_with` calls recorded as `job`
/// spans with `task` children: Σ task time ÷ (Σ call wall × workers),
/// and the summed straggler time of the calls (per call, the last
/// completion minus the moment the first worker ran dry).
pub(crate) fn executor_balance(
    tracer: &Tracer,
    from: usize,
    job: &str,
    task: &str,
    workers: usize,
) -> (f64, f64) {
    let jobs = tracer.named_since(from, job);
    let tasks = tracer.named_since(from, task);
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut straggler = 0.0;
    for j in &jobs {
        let mine: Vec<_> = tasks.iter().filter(|t| t.parent == j.id).collect();
        busy += mine.iter().map(|t| t.nanos() as f64).sum::<f64>();
        capacity += j.nanos() as f64 * workers as f64;
        let mut last_by_thread: HashMap<u64, u64> = HashMap::new();
        for t in &mine {
            let e = last_by_thread.entry(t.tid).or_insert(0);
            *e = (*e).max(t.end);
        }
        let ends: Vec<u64> = last_by_thread.into_values().collect();
        if let (Some(lo), Some(hi)) = (ends.iter().min(), ends.iter().max()) {
            straggler += (hi - lo) as f64 / 1e9;
        }
    }
    (busy / capacity, straggler)
}
