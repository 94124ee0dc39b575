//! `apps-closed`: Fig. 10-style closed-loop coherence runs, each until
//! every core has completed its transaction quota. Exercises the
//! protocol model, multi-class NI consumption and MSHR paths that the
//! open-loop grid never touches.

use crate::grid::{conserved, executor_balance, put_phases};
use crate::plan::{self, AppRun};
use crate::span::Tracer;
use crate::stats::{derive, Digest};
use crate::{put, Ctx, Metrics, Part, Round, Tally};
use bench::{parallel_map_with, PhaseTimes, WallProbe};
use noc_sim::Simulation;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traffic::ProtocolWorkload;

/// Transactions per core (census: a quarter).
const QUOTA: u64 = 50;

/// A run that has not met its quota after this many cycles has wedged.
const MAX_CYCLES: u64 = 400_000;

/// Every `PROBE_EVERY`-th run of a traced round carries the phase probe.
const PROBE_EVERY: usize = 4;

/// The exact outputs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    exec_cycles: u64,
    avg_latency_bits: u64,
    delivered: u64,
    consumed: u64,
}

fn build(run: &AppRun) -> Simulation {
    let cfg = run.id.sim_config(plan::APP_SIZE, run.fp_vcs, run.seed);
    let nodes = cfg.mesh.num_nodes();
    let scheme = run.id.build(&cfg, run.seed);
    let mut proto = run.app.protocol_config();
    proto.quota = Some(run.quota);
    proto.seed ^= run.seed;
    Simulation::new(cfg, scheme, Box::new(ProtocolWorkload::new(nodes, proto)))
}

fn outcome(sim: &Simulation, exec_cycles: u64) -> Outcome {
    Outcome {
        exec_cycles,
        avg_latency_bits: sim.core.stats.avg_latency().to_bits(),
        delivered: sim.core.stats.delivered(),
        consumed: sim.total_consumed(),
    }
}

/// Runs to the quota; returns the outcome and whether the audit passed.
fn execute(mut sim: Simulation) -> (Outcome, bool) {
    let exec_cycles = sim.run(MAX_CYCLES);
    (outcome(&sim, exec_cycles), conserved(&sim))
}

#[derive(Debug, Clone)]
struct RunRec {
    app: &'static str,
    run_ns: u64,
    probed: bool,
    router_cycles: f64,
    delivered: u64,
}

/// The apps-closed workload.
pub(crate) struct Apps {
    seed: u64,
    runs: Vec<AppRun>,
    workers: usize,
    reference: Vec<Option<Outcome>>,
    first_round_digest: Option<u64>,
    recs: Vec<(u64, RunRec)>,
    phases: Arc<Mutex<PhaseTimes>>,
    traced_from: Option<usize>,
}

impl Apps {
    fn check(&mut self, tally: &mut Tally, i: usize, outcome: Outcome, audit_ok: bool) {
        let what = |s: &str| {
            format!(
                "apps-closed run {} on {}: {s}",
                self.runs[i].app.name(),
                self.runs[i].id.name()
            )
        };
        tally.attempted += 1;
        tally.check(outcome.exec_cycles < MAX_CYCLES, || {
            what("did not reach its quota")
        });
        tally.check(outcome.delivered > 0, || what("delivered no packets"));
        tally.check(audit_ok, || what("failed its conservation audit"));
        let first = *self.reference[i].get_or_insert(outcome);
        tally.check(first == outcome, || what("differs between rounds"));
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for o in self.reference.iter().flatten() {
            d.u64(o.exec_cycles);
            d.u64(o.avg_latency_bits);
            d.u64(o.delivered);
            d.u64(o.consumed);
        }
        d.finish()
    }
}

impl Part for Apps {
    const NAME: &'static str = "apps-closed";
    const ROUNDS_PER_S: f64 = 0.9;

    fn setup(ctx: &Ctx, census: bool) -> Result<Self, String> {
        let runs = plan::app_runs(ctx.seed, if census { QUOTA / 4 } else { QUOTA });
        // Build every configuration once so first-touch costs land here.
        for run in &runs {
            build(run).run(20);
        }
        Ok(Apps {
            seed: ctx.seed,
            reference: vec![None; runs.len()],
            runs,
            workers: ctx.workers,
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
        if let Some(tr) = tracer {
            self.traced_from.get_or_insert(tr.len());
        }
        let phases = &self.phases;
        let t0 = Instant::now();
        let run_jobs = |round_id: u64| {
            let jobs: Vec<_> = self
                .runs
                .iter()
                .enumerate()
                .map(|(i, run)| {
                    let key = (r << 16) | i as u64;
                    let probed = tracer.is_some() && (r as usize + i).is_multiple_of(PROBE_EVERY);
                    move || {
                        let s0 = Instant::now();
                        let (outcome, ok, run_ns) = match tracer {
                            None => {
                                let (o, ok) = execute(build(run));
                                (o, ok, 0)
                            }
                            Some(tr) => tr.span("app-run", round_id, key, |pid| {
                                let mut sim = tr.span("build", pid, key, |_| build(run));
                                if probed {
                                    sim.set_probe(Box::new(WallProbe::sharing(phases)));
                                }
                                let r0 = Instant::now();
                                let exec = tr.span("run", pid, key, |_| sim.run(MAX_CYCLES));
                                let run_ns = r0.elapsed().as_nanos() as u64;
                                let ok = tr.span("audit", pid, key, |_| conserved(&sim));
                                (outcome(&sim, exec), ok, run_ns)
                            }),
                        };
                        (
                            outcome,
                            ok,
                            run_ns,
                            s0.elapsed().as_secs_f64() * 1e3,
                            probed,
                        )
                    }
                })
                .collect();
            parallel_map_with(jobs, self.workers, |_, _| {})
        };
        let out = match tracer {
            None => run_jobs(0),
            Some(tr) => tr.span("apps-round", 0, r, run_jobs),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let mut round = Round {
            wall_s,
            ..Round::default()
        };
        for (i, (outcome, ok, run_ns, ms, probed)) in out.into_iter().enumerate() {
            round.job_ms.push(ms);
            round.points += 1;
            let rc = (plan::APP_SIZE * plan::APP_SIZE) as f64 * outcome.exec_cycles as f64;
            round.router_cycles += rc;
            self.check(tally, i, outcome, ok);
            if tracer.is_some() {
                let rec = RunRec {
                    app: self.runs[i].app.name(),
                    run_ns,
                    probed,
                    router_cycles: rc,
                    delivered: outcome.delivered,
                };
                self.recs.push((r, rec));
            }
        }
        if self.first_round_digest.is_none() {
            self.first_round_digest = Some(self.digest());
        }
        round.digest = self.first_round_digest.unwrap_or_default();
        round
    }

    fn verify(&mut self, tally: &mut Tally) {
        // One seed-chosen run rebuilt from scratch must repeat exactly.
        let i = (derive(self.seed, &[21]) % self.runs.len() as u64) as usize;
        let (outcome, ok) = execute(build(&self.runs[i]));
        self.check(tally, i, outcome, ok);
    }

    fn layer(&mut self, tracer: &Tracer, own: bool, out: &mut Metrics, _tally: &mut Tally) {
        let free: Vec<&RunRec> = self
            .recs
            .iter()
            .map(|(_, r)| r)
            .filter(|r| !r.probed)
            .collect();
        for app in plan::APPS {
            let (rc, ns) = free
                .iter()
                .filter(|r| r.app == app.name())
                .fold((0.0, 0.0), |(rc, ns), r| {
                    (rc + r.router_cycles, ns + r.run_ns as f64)
                });
            put(
                out,
                format!("apps.mrcps.{}", app.name().to_lowercase()),
                rc / ns * 1e3,
                "Mrc/s",
            );
        }
        let (ns, packets) = free.iter().fold((0.0, 0.0), |(ns, p), r| {
            (ns + r.run_ns as f64, p + r.delivered as f64)
        });
        put(out, "apps.ns_per_packet", ns / packets, "ns");
        let exec: u64 = self.reference.iter().flatten().map(|o| o.exec_cycles).sum();
        put(out, "apps.exec_cycles", exec as f64, "count");
        if own {
            put_phases(&self.phases, out);
            let rounds = self
                .recs
                .iter()
                .map(|(r, _)| *r)
                .collect::<BTreeSet<_>>()
                .len();
            let (busy, straggler) = executor_balance(
                tracer,
                self.traced_from.unwrap_or(0),
                "apps-round",
                "app-run",
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
    }

    fn close(self, _tally: &mut Tally) -> f64 {
        crate::serve::peak_rss_mb(std::process::id())
    }
}
