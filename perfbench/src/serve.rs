//! `serve-cold` and `serve-warm`: the `nocserve` daemon built from the
//! checkout, booted as a child process on a private socket and store
//! inside the run's scratch directory, driven by two closed-loop
//! clients (each sends its next job only after the previous result).

use crate::grid::point_bits;
use crate::plan::{self, Job};
use crate::span::Tracer;
use crate::stats::{self, derive, Digest};
use crate::{put, Ctx, Metrics, Part, Round, Tally};
use bench::proto::{decode_response, encode, Request, Response};
use bench::{
    point_cache_key, simulate_point, Client, LatencyPoint, MetricsReport, Provenance, Store,
    SweepResult, SweepSpec, WireSpec,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a booting daemon may take to answer its first ping.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a daemon may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Served points recomputed in-process after the timed phase.
const SAMPLES: usize = 4;

/// Repetitions of each proto and store micro-measurement.
const MICRO_REPS: usize = 200;

/// `VmHWM` (peak resident set) of a process, in MB; 0 if unreadable.
pub(crate) fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh, unused directory under the run's scratch directory.
fn fresh_dir(ctx: &Ctx, what: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    ctx.tmp
        .join(format!("{what}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// A `nocserve` child process. Dropping it without [`Daemon::shutdown`]
/// kills the child, so a panicking run leaves no daemon behind.
pub(crate) struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    /// Boots the daemon on `dir/d.sock` over the store `store` with
    /// `jobs` workers, flight log and statsd off, and waits until it
    /// answers a ping.
    pub(crate) fn boot(ctx: &Ctx, dir: &Path, store: &Path, jobs: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let sock = dir.join("d.sock");
        let child = Command::new(&ctx.nocserve)
            .arg("--sock")
            .arg(&sock)
            .arg("--store")
            .arg(store)
            .arg("--jobs")
            .arg(jobs.to_string())
            .env_remove("NOC_SERVE_FLIGHT")
            .env_remove("NOC_SERVE_STATSD")
            .env_remove("NOC_SERVE_BATCH")
            .env_remove("NOC_SERVE_TICK_MS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.nocserve.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            sock,
        };
        let t0 = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(&daemon.sock) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("nocserve exited during boot: {status}"));
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                return Err("nocserve did not answer a ping in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Opens a client connection.
    pub(crate) fn client(&self) -> Result<Client, String> {
        Client::connect(&self.sock)
            .map_err(|e| format!("cannot connect to {}: {e}", self.sock.display()))
    }

    /// The child's peak RSS, MB.
    pub(crate) fn peak_rss_mb(&self) -> f64 {
        self.child.as_ref().map_or(0.0, |c| peak_rss_mb(c.id()))
    }

    /// Stops the daemon through the wire protocol, waits for it to exit,
    /// and checks that it removed its socket.
    pub(crate) fn shutdown(mut self, tally: &mut Tally) {
        let said_bye = self.client().and_then(|mut c| c.shutdown()).is_ok();
        tally.check(said_bye, || {
            "nocserve did not acknowledge shutdown".to_string()
        });
        let mut child = self
            .child
            .take()
            .expect("daemon child present until shutdown");
        let t0 = Instant::now();
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if t0.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        tally.check(exited, || {
            "nocserve did not exit cleanly after shutdown".to_string()
        });
        tally.check(!self.sock.exists(), || {
            format!("socket {} left behind", self.sock.display())
        });
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Removes a scratch store and checks that it is gone.
fn remove_store(dir: &Path, tally: &mut Tally) {
    let _ = std::fs::remove_dir_all(dir);
    tally.check(!dir.exists(), || {
        format!("scratch store {} left behind", dir.display())
    });
}

/// A raw protocol connection: requests built with `proto::encode`,
/// responses read with `proto::decode_response`, so the traced run can
/// time submit → accepted → result.
struct Raw {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Raw {
    fn connect(sock: &Path) -> Result<Raw, String> {
        let stream = UnixStream::connect(sock).map_err(|e| format!("cannot connect: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        Ok(Raw {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    fn next(&mut self, tr: &Tracer, parent: u64, key: u64) -> Result<Response, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("recv failed: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        tr.span("decode", parent, key, |_| decode_response(&self.line))
    }

    /// Submits one job; returns the accept latency and the sweeps. The
    /// raw result line stays in `self.line`.
    fn submit(
        &mut self,
        specs: &[SweepSpec],
        tr: &Tracer,
        parent: u64,
        key: u64,
    ) -> Result<(f64, Vec<SweepResult>), String> {
        let t0 = Instant::now();
        let mut req = encode(&Request::Submit {
            specs: specs.iter().map(WireSpec::from_spec).collect(),
        });
        req.push('\n');
        self.writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        match self.next(tr, parent, key)? {
            Response::Accepted { .. } => {}
            Response::Error { message } => return Err(message),
            other => return Err(format!("unexpected reply to submit: {other:?}")),
        }
        let accepted = Instant::now();
        tr.record("accept", parent, key, t0, accepted);
        loop {
            match self.next(tr, parent, key)? {
                Response::Progress { .. } => {}
                Response::Result { sweeps, .. } => {
                    tr.record("result", parent, key, accepted, Instant::now());
                    let ms = accepted.duration_since(t0).as_secs_f64() * 1e3;
                    return Ok((ms, sweeps));
                }
                Response::Error { message } => return Err(message),
                other => return Err(format!("unexpected mid-job event: {other:?}")),
            }
        }
    }
}

/// What one client saw for one job.
struct Served {
    ms: f64,
    outcome: Result<Vec<SweepResult>, String>,
}

/// What the two clients of a round measured, plus traced-run extras.
struct ClientRun {
    jobs: Vec<Served>,
    accept_ms: Vec<f64>,
    result_line: Option<String>,
}

/// Runs each client's job list on its own thread, closed loop. Untraced
/// rounds go through `Client::submit`; traced rounds through [`Raw`].
fn drive(
    clients: &mut [Client],
    sock: &Path,
    lists: [&[Job]; 2],
    round: u64,
    tracer: Option<&Tracer>,
) -> Result<(Vec<ClientRun>, f64), String> {
    let raws = match tracer {
        Some(_) => Some([Raw::connect(sock)?, Raw::connect(sock)?]),
        None => None,
    };
    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = match raws {
            None => clients
                .iter_mut()
                .zip(lists)
                .map(|(client, list)| {
                    s.spawn(move || ClientRun {
                        jobs: list
                            .iter()
                            .map(|job| {
                                let j0 = Instant::now();
                                let outcome =
                                    client.submit(job, |_, _| {}).map(|(_, sweeps)| sweeps);
                                Served {
                                    ms: j0.elapsed().as_secs_f64() * 1e3,
                                    outcome,
                                }
                            })
                            .collect(),
                        accept_ms: Vec::new(),
                        result_line: None,
                    })
                })
                .collect(),
            Some(raws) => raws
                .into_iter()
                .zip(lists)
                .enumerate()
                .map(|(k, (mut raw, list))| {
                    let tr = tracer.expect("traced rounds carry a tracer");
                    s.spawn(move || {
                        let mut run = ClientRun {
                            jobs: Vec::new(),
                            accept_ms: Vec::new(),
                            result_line: None,
                        };
                        for (i, job) in list.iter().enumerate() {
                            let key = (round << 20) | ((k as u64) << 16) | i as u64;
                            let j0 = Instant::now();
                            let outcome = tr.span("job", 0, key, |id| raw.submit(job, tr, id, key));
                            let ms = j0.elapsed().as_secs_f64() * 1e3;
                            let outcome = outcome.map(|(accept, sweeps)| {
                                run.accept_ms.push(accept);
                                sweeps
                            });
                            if run.result_line.is_none() && outcome.is_ok() {
                                run.result_line = Some(raw.line.clone());
                            }
                            run.jobs.push(Served { ms, outcome });
                        }
                        run
                    })
                })
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Ok((runs, t0.elapsed().as_secs_f64()))
}

/// Identity of one point: every field its result depends on. Cheaper
/// than the store key, which serializes the whole configuration.
fn point_id(spec: &SweepSpec, rate: f64) -> u64 {
    let mut d = Digest::default();
    d.bytes(spec.id.name().as_bytes());
    d.bytes(spec.pattern.name().as_bytes());
    for v in [
        spec.size as u64,
        spec.fp_vcs as u64,
        spec.warmup,
        spec.measure,
        spec.seed,
        rate.to_bits(),
    ] {
        d.u64(v);
    }
    d.finish()
}

/// Bookkeeping shared by both serve workloads: every served point is
/// checked against the first answer for it.
#[derive(Default)]
struct Ledger {
    /// [`point_id`] → (spec, rate, first answer).
    seen: HashMap<u64, (SweepSpec, f64, LatencyPoint)>,
    accept_ms: Vec<f64>,
    result_line: Option<String>,
}

impl Ledger {
    /// Folds one round's client runs into `round`, checking every point.
    fn absorb(
        &mut self,
        runs: Vec<ClientRun>,
        lists: [&[Job]; 2],
        round: &mut Round,
        tally: &mut Tally,
        what: &str,
    ) {
        let mut digest = Digest::default();
        for (run, list) in runs.into_iter().zip(lists) {
            self.accept_ms.extend(run.accept_ms);
            if self.result_line.is_none() {
                self.result_line = run.result_line;
            }
            for (served, job) in run.jobs.into_iter().zip(list) {
                round.job_ms.push(served.ms);
                let sweeps = match served.outcome {
                    Ok(s) => s,
                    Err(e) => {
                        let points: usize = job.iter().map(|s| s.rates.len()).sum();
                        tally.attempted += points as u64;
                        tally.check(false, || format!("{what} job failed: {e}"));
                        continue;
                    }
                };
                tally.check(sweeps.len() == job.len(), || {
                    format!("{what} job returned the wrong number of sweeps")
                });
                for (spec, sweep) in job.iter().zip(&sweeps) {
                    tally.check(sweep.points.len() == spec.rates.len(), || {
                        format!("{what} sweep lost points")
                    });
                    for (&rate, point) in spec.rates.iter().zip(&sweep.points) {
                        let bits = point_bits(point);
                        tally.attempted += 1;
                        round.points += 1;
                        round.router_cycles +=
                            (spec.size * spec.size) as f64 * (spec.warmup + spec.measure) as f64;
                        for w in bits {
                            digest.u64(w);
                        }
                        tally.check(point.delivered > 0, || {
                            format!("{what} point delivered no packets")
                        });
                        let key = point_id(spec, rate);
                        let first = &self
                            .seen
                            .entry(key)
                            .or_insert_with(|| (spec.clone(), rate, point.clone()))
                            .2;
                        tally.check(point_bits(first) == bits, || {
                            format!("{what} served two answers for point {key:016x}")
                        });
                    }
                }
            }
        }
        round.digest = digest.finish();
    }

    /// Recomputes a seed-chosen sample of served points in-process with
    /// `simulate_point` and compares them bitwise.
    fn verify(&self, seed: u64, tally: &mut Tally, what: &str) {
        let mut keys: Vec<u64> = self.seen.keys().copied().collect();
        keys.sort_unstable();
        stats::shuffle(&mut keys, derive(seed, &[22]));
        for key in keys.into_iter().take(SAMPLES) {
            let (spec, rate, served) = &self.seen[&key];
            tally.attempted += 1;
            let local = point_bits(&simulate_point(spec, *rate));
            tally.check(local == point_bits(served), || {
                format!("{what} point {key:016x} differs from simulate_point")
            });
        }
    }
}

fn counter(m: &MetricsReport, name: &str) -> f64 {
    m.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// Mean of a daemon histogram's raw samples. Its percentiles are bucket
/// bounds, which read the same value on nearly every run.
fn histogram_mean(m: &MetricsReport, name: &str) -> f64 {
    m.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Times `f` once per span recorded under `name`, returning µs.
fn micro(tr: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            tr.span(name, 0, i as u64, |_| f(i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The serve-cold workload: fresh points every round, two clients whose
/// job lists overlap by a fixed share.
pub(crate) struct Cold {
    seed: u64,
    dir: PathBuf,
    daemon: Daemon,
    clients: Vec<Client>,
    per_client: usize,
    ledger: Ledger,
    timed_s: f64,
    workers: usize,
}

/// Cold jobs per client per round (census: 3).
const COLD_JOBS: usize = 6;
/// Warmup and measurement cycles of cold points.
const COLD_WINDOWS: (u64, u64) = (500, 1_500);

impl Part for Cold {
    const NAME: &'static str = "serve-cold";
    const ROUNDS_PER_S: f64 = 1.6;

    fn setup(ctx: &Ctx, census: bool) -> Result<Self, String> {
        let dir = fresh_dir(ctx, "cold");
        let daemon = Daemon::boot(ctx, &dir, &dir.join("store"), ctx.workers)?;
        let clients = vec![daemon.client()?, daemon.client()?];
        let per_client = if census { 3 } else { COLD_JOBS };
        Ok(Cold {
            seed: ctx.seed,
            dir,
            daemon,
            clients,
            per_client,
            ledger: Ledger::default(),
            timed_s: 0.0,
            workers: ctx.workers,
        })
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn round(&mut self, r: u64, tracer: Option<&Tracer>, tally: &mut Tally) -> Round {
        let (a, b) = plan::cold_jobs(
            self.seed,
            r,
            self.per_client,
            COLD_WINDOWS.0,
            COLD_WINDOWS.1,
        );
        let lists = [a.as_slice(), b.as_slice()];
        let mut round = Round::default();
        match drive(&mut self.clients, &self.daemon.sock, lists, r, tracer) {
            Ok((runs, wall_s)) => {
                round.wall_s = wall_s;
                self.timed_s += wall_s;
                self.ledger
                    .absorb(runs, lists, &mut round, tally, Self::NAME);
            }
            Err(e) => tally.check(false, || format!("serve-cold round {r}: {e}")),
        }
        round
    }

    fn verify(&mut self, tally: &mut Tally) {
        self.ledger.verify(self.seed, tally, Self::NAME);
    }

    fn layer(&mut self, tracer: &Tracer, _own: bool, out: &mut Metrics, tally: &mut Tally) {
        let m = match self.clients[0].metrics() {
            Ok(m) => m,
            Err(e) => return tally.check(false, || format!("serve-cold metrics: {e}")),
        };
        let requested = counter(&m, "points_requested").max(1.0);
        put(
            out,
            "serve.queue_wait_ms.mean",
            histogram_mean(&m, "queue_wait_ms"),
            "ms",
        );
        put(
            out,
            "serve.batch_wall_ms.mean",
            histogram_mean(&m, "batch_wall_ms"),
            "ms",
        );
        let busy_ms: f64 = m.workers.iter().map(|w| w.busy_ms as f64).sum();
        put(
            out,
            "serve.worker_util",
            busy_ms / (self.timed_s * 1e3 * self.workers as f64),
            "ratio",
        );
        put(
            out,
            "serve.computed_per_unique",
            counter(&m, "points_computed") / self.ledger.seen.len().max(1) as f64,
            "ratio",
        );
        put(
            out,
            "serve.dedup_frac",
            counter(&m, "dedup_waits") / requested,
            "ratio",
        );
        // Store writes of the points this daemon computed, into a
        // scratch store of their own.
        let scratch = Store::new(self.dir.join("write-probe"));
        let points: Vec<(u64, &LatencyPoint)> = self
            .ledger
            .seen
            .iter()
            .take(MICRO_REPS)
            .map(|(&k, (_, _, p))| (k, p))
            .collect();
        let stamp = Provenance::now(1, Some(0), String::new(), 0);
        let writes = micro(tracer, "store-write", points.len(), |i| {
            let (k, p) = &points[i];
            scratch.store_with_provenance(*k, p, Some(&stamp));
        });
        put(out, "store.write_us.p50", p50(&writes), "us");
        remove_store(scratch.dir(), tally);
    }

    fn close(self, tally: &mut Tally) -> f64 {
        let rss = self.daemon.peak_rss_mb();
        drop(self.clients);
        self.daemon.shutdown(tally);
        remove_store(&self.dir, tally);
        rss
    }
}

/// The serve-warm workload: every point resolves from the store or the
/// daemon's memory; nothing is simulated during the timed phase.
pub(crate) struct Warm {
    seed: u64,
    dir: PathBuf,
    daemon: Daemon,
    clients: Vec<Client>,
    blocks: Vec<Job>,
    per_client: usize,
    ledger: Ledger,
}

/// Distinct 96-point blocks pre-filled into the store (census: 4).
const WARM_BLOCKS: usize = 6;
/// Jobs each client submits per round (census: 5).
const WARM_JOBS: usize = 60;
/// Warmup and measurement cycles of the pre-filled points.
const WARM_WINDOWS: (u64, u64) = (100, 300);

impl Part for Warm {
    const NAME: &'static str = "serve-warm";
    const ROUNDS_PER_S: f64 = 2.4;

    fn setup(ctx: &Ctx, census: bool) -> Result<Self, String> {
        let (count, per_client) = if census {
            (4, 5)
        } else {
            (WARM_BLOCKS, WARM_JOBS)
        };
        let blocks = plan::warm_blocks(ctx.seed, count, WARM_WINDOWS.0, WARM_WINDOWS.1);
        let dir = fresh_dir(ctx, "warm");
        let store = dir.join("store");
        // Fill the store through a first daemon, then restart on it. The
        // filler has one worker: with two, the fill's time varied more
        // between set-ups (coefficient of variation 0.21 against 0.14
        // over 60 set-ups).
        let mut scratch = Tally::default();
        let filler = Daemon::boot(ctx, &dir, &store, 1)?;
        let all: Vec<SweepSpec> = blocks.iter().flatten().cloned().collect();
        filler
            .client()?
            .submit(&all, |_, _| {})
            .map_err(|e| format!("pre-fill failed: {e}"))?;
        filler.shutdown(&mut scratch);
        if scratch.failed > 0 {
            return Err("pre-fill daemon did not shut down cleanly".to_string());
        }
        let daemon = Daemon::boot(ctx, &dir, &store, ctx.workers)?;
        let clients = vec![daemon.client()?, daemon.client()?];
        Ok(Warm {
            seed: ctx.seed,
            dir,
            daemon,
            clients,
            blocks,
            per_client,
            ledger: Ledger::default(),
        })
    }

    fn threads(&self) -> usize {
        self.clients.len()
    }

    fn round(&mut self, r: u64, tracer: Option<&Tracer>, tally: &mut Tally) -> Round {
        let a = plan::warm_jobs(self.seed, r, 0, self.per_client, &self.blocks);
        let b = plan::warm_jobs(self.seed, r, 1, self.per_client, &self.blocks);
        let lists = [a.as_slice(), b.as_slice()];
        let mut round = Round::default();
        match drive(&mut self.clients, &self.daemon.sock, lists, r, tracer) {
            Ok((runs, wall_s)) => {
                round.wall_s = wall_s;
                self.ledger
                    .absorb(runs, lists, &mut round, tally, Self::NAME);
            }
            Err(e) => tally.check(false, || format!("serve-warm round {r}: {e}")),
        }
        round
    }

    fn verify(&mut self, tally: &mut Tally) {
        self.ledger.verify(self.seed, tally, Self::NAME);
        match self.clients[0].status() {
            Ok(s) => tally.check(s.points_computed == 0 && s.points_failed == 0, || {
                format!(
                    "serve-warm daemon simulated {} points; a warm store needs none",
                    s.points_computed
                )
            }),
            Err(e) => tally.check(false, || format!("serve-warm status: {e}")),
        }
    }

    fn layer(&mut self, tracer: &Tracer, _own: bool, out: &mut Metrics, tally: &mut Tally) {
        let m = match self.clients[0].metrics() {
            Ok(m) => m,
            Err(e) => return tally.check(false, || format!("serve-warm metrics: {e}")),
        };
        let requested = counter(&m, "points_requested").max(1.0);
        put(
            out,
            "serve.store_hit_frac",
            counter(&m, "store_hits") / requested,
            "ratio",
        );
        put(
            out,
            "serve.memory_hit_frac",
            counter(&m, "memory_hits") / requested,
            "ratio",
        );
        put(
            out,
            "serve.accept_ms.p50",
            p50(&self.ledger.accept_ms),
            "ms",
        );
        let client = &mut self.clients[0];
        let pings = micro(tracer, "ping", MICRO_REPS, |_| {
            let _ = client.ping();
        });
        put(out, "proto.ping_rtt_us.p50", p50(&pings), "us");
        if let Some(line) = self.ledger.result_line.clone() {
            let decodes = micro(tracer, "decode", MICRO_REPS, |_| {
                std::hint::black_box(decode_response(&line).is_ok());
            });
            put(out, "proto.decode_us.p50", p50(&decodes), "us");
        }
        let store = Store::new(self.dir.join("store"));
        let keys: Vec<u64> = self
            .ledger
            .seen
            .values()
            .map(|(spec, rate, _)| point_cache_key(spec, *rate))
            .collect();
        let mut hits = 0;
        let loads = micro(tracer, "store-load", keys.len(), |i| {
            hits += usize::from(store.load(keys[i]).is_some());
        });
        tally.check(hits == keys.len(), || {
            format!("store.load missed {} pre-filled keys", keys.len() - hits)
        });
        put(out, "store.load_us.p50", p50(&loads), "us");
    }

    fn close(self, tally: &mut Tally) -> f64 {
        let rss = self.daemon.peak_rss_mb();
        drop(self.clients);
        self.daemon.shutdown(tally);
        remove_store(&self.dir, tally);
        rss
    }
}
