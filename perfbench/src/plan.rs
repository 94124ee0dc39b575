//! Seed → inputs. Every spec seed, job list and job order the benchmark
//! uses is derived here from the workload seed, so the same seed names
//! the same work and a different seed names different work.

use crate::stats::{derive, shuffle};
use bench::{SchemeId, SweepSpec, ALL_SCHEMES};
use traffic::{AppModel, SyntheticPattern};

/// Mesh edge lengths of the Fig. 8-shaped grid.
pub(crate) const SIZES: [usize; 3] = [4, 8, 16];

/// Offered-load regime of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Load {
    /// Well below every scheme's saturation point.
    Low,
    /// Transpose's knee at that mesh size: TFC, DRAIN and VCT sit past
    /// saturation there while FastPass does not.
    Knee,
}

impl Load {
    /// Both regimes, low first.
    pub(crate) const ALL: [Load; 2] = [Load::Low, Load::Knee];

    /// Metric-name label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Load::Low => "low",
            Load::Knee => "knee",
        }
    }

    /// Transpose injection rate (packets/node/cycle) of this regime at a
    /// mesh size, taken from the points of fig8's rate grid.
    pub(crate) fn rate(self, size: usize) -> f64 {
        match (self, size) {
            (Load::Low, 16) => 0.02,
            (Load::Low, _) => 0.03,
            (Load::Knee, 4) => 0.12,
            (Load::Knee, 8) => 0.09,
            (Load::Knee, _) => 0.036,
        }
    }
}

/// One Fig. 8 column: every paper scheme at one mesh size, once at the
/// knee rate and once at the low rate. A column is one call into the
/// sweep executor, and one job a caller waits on.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    /// Single-rate specs: the eight knee points, then the eight low
    /// points, each group in seed-derived scheme order. Slow points go
    /// first so the executor's last jobs are short ones.
    pub(crate) specs: Vec<SweepSpec>,
    /// The load regime of each spec.
    pub(crate) loads: Vec<Load>,
}

/// The sweep-mesh grid: 8 schemes × Transpose × {4, 8, 16} × {low,
/// knee}, as three columns in seed-derived order.
pub(crate) fn grid(seed: u64, warmup: u64, measure: u64) -> Vec<Column> {
    let mut columns: Vec<Column> = SIZES
        .iter()
        .enumerate()
        .map(|(si, &size)| {
            let mut column = Column {
                specs: Vec::new(),
                loads: Vec::new(),
            };
            for (li, &load) in [Load::Knee, Load::Low].iter().enumerate() {
                let mut specs: Vec<SweepSpec> = ALL_SCHEMES
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| SweepSpec {
                        id,
                        pattern: SyntheticPattern::Transpose,
                        rates: vec![load.rate(size)],
                        size,
                        fp_vcs: 4,
                        warmup,
                        measure,
                        seed: derive(seed, &[1, si as u64, li as u64, k as u64]) % 1_000_000,
                    })
                    .collect();
                shuffle(&mut specs, derive(seed, &[2, si as u64, li as u64]));
                column.loads.extend(specs.iter().map(|_| load));
                column.specs.extend(specs);
            }
            column
        })
        .collect();
    shuffle(&mut columns, derive(seed, &[3]));
    columns
}

/// The three applications of apps-closed: heavy, sharing-heavy, light.
pub(crate) const APPS: [AppModel; 3] = [AppModel::Radix, AppModel::Canneal, AppModel::Volrend];

/// Schemes of apps-closed with their VCs per input (Fig. 10's set minus
/// the deflection and drain baselines).
pub(crate) const APP_SCHEMES: [(SchemeId, usize); 4] = [
    (SchemeId::EscapeVc, 2),
    (SchemeId::Spin, 2),
    (SchemeId::Pitstop, 2),
    (SchemeId::FastPass, 4),
];

/// Mesh edge length of apps-closed.
pub(crate) const APP_SIZE: usize = 8;

/// One closed-loop application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AppRun {
    /// Modelled application.
    pub(crate) app: AppModel,
    /// Scheme.
    pub(crate) id: SchemeId,
    /// VCs per input buffer.
    pub(crate) fp_vcs: usize,
    /// Seed of the network and of the protocol model.
    pub(crate) seed: u64,
    /// Transactions each core must complete.
    pub(crate) quota: u64,
}

/// Runs of each app × scheme pair, with different seeds.
pub(crate) const APP_REPEATS: usize = 4;

/// The apps-closed runs: every app × scheme pair [`APP_REPEATS`] times,
/// in seed-derived order.
pub(crate) fn app_runs(seed: u64, quota: u64) -> Vec<AppRun> {
    let mut runs = Vec::new();
    for (ai, &app) in APPS.iter().enumerate() {
        for (si, &(id, fp_vcs)) in APP_SCHEMES.iter().enumerate() {
            for k in 0..APP_REPEATS {
                runs.push(AppRun {
                    app,
                    id,
                    fp_vcs,
                    seed: derive(seed, &[4, ai as u64, si as u64, k as u64]) % 1_000_000,
                    quota,
                });
            }
        }
    }
    shuffle(&mut runs, derive(seed, &[5]));
    runs
}

/// A submitted sweep job: the specs one client request carries.
pub(crate) type Job = Vec<SweepSpec>;

/// Share of client B's cold jobs that repeat one of client A's, as
/// numerator over [`OVERLAP_DEN`]. Half of the repeats sit at the same
/// position as the original (so both are in flight together and dedup
/// fires), half repeat an earlier job of A (so the memory map answers).
pub(crate) const OVERLAP_NUM: usize = 1;
/// Denominator of the overlap share.
pub(crate) const OVERLAP_DEN: usize = 3;

/// One cold job: a scheme's latency curve on a 4×4 and an 8×8 mesh
/// under one pattern, three rates each.
fn cold_job(
    scheme: SchemeId,
    pattern: SyntheticPattern,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Job {
    [(4, vec![0.02, 0.06, 0.10]), (8, vec![0.02, 0.05, 0.08])]
        .into_iter()
        .map(|(size, rates)| SweepSpec {
            id: scheme,
            pattern,
            rates,
            size,
            fp_vcs: 2,
            warmup,
            measure,
            seed: seed % 1_000_000,
        })
        .collect()
}

/// One client's fresh cold jobs: schemes in a seed-shuffled cycle and
/// the two patterns in equal shares, so every round carries the same
/// mix of work whatever the seed.
fn cold_list(
    seed: u64,
    round: u64,
    client: u64,
    per_client: usize,
    warmup: u64,
    measure: u64,
) -> Vec<Job> {
    let mut schemes = ALL_SCHEMES.to_vec();
    shuffle(&mut schemes, derive(seed, &[6, round, client]));
    let mut patterns: Vec<SyntheticPattern> = (0..per_client)
        .map(|i| [SyntheticPattern::Uniform, SyntheticPattern::Transpose][i % 2])
        .collect();
    shuffle(&mut patterns, derive(seed, &[7, round, client]));
    (0..per_client)
        .map(|i| {
            let s = derive(seed, &[8, round, client, i as u64]);
            cold_job(
                schemes[(i + client as usize * 4) % schemes.len()],
                patterns[i],
                s,
                warmup,
                measure,
            )
        })
        .collect()
}

/// Client A's and client B's cold job lists for one round. Each round
/// draws fresh spec seeds, so no round can hit an earlier round's points.
pub(crate) fn cold_jobs(
    seed: u64,
    round: u64,
    per_client: usize,
    warmup: u64,
    measure: u64,
) -> (Vec<Job>, Vec<Job>) {
    let a = cold_list(seed, round, 0, per_client, warmup, measure);
    let mut b = cold_list(seed, round, 1, per_client, warmup, measure);
    let mut slots: Vec<usize> = (1..per_client).collect();
    shuffle(&mut slots, derive(seed, &[9, round]));
    let repeats = per_client * OVERLAP_NUM / OVERLAP_DEN;
    for (k, &slot) in slots.iter().take(repeats).enumerate() {
        let source = if k % 2 == 0 { slot } else { slot - 1 };
        b[slot] = a[source].clone();
    }
    (a, b)
}

/// The serve-warm blocks: `count` distinct 96-point blocks (8 schemes ×
/// 4 patterns × 3 rates on a 4×4 mesh), all pre-filled into the store
/// during set-up.
pub(crate) fn warm_blocks(seed: u64, count: usize, warmup: u64, measure: u64) -> Vec<Job> {
    const PATTERNS: [SyntheticPattern; 4] = [
        SyntheticPattern::Uniform,
        SyntheticPattern::Transpose,
        SyntheticPattern::Shuffle,
        SyntheticPattern::BitComplement,
    ];
    (0..count)
        .map(|i| {
            let s = derive(seed, &[10, i as u64]) % 1_000_000;
            PATTERNS
                .iter()
                .flat_map(|&pattern| {
                    ALL_SCHEMES.iter().map(move |&id| SweepSpec {
                        id,
                        pattern,
                        rates: vec![0.02, 0.05, 0.08],
                        size: 4,
                        fp_vcs: 2,
                        warmup,
                        measure,
                        seed: s,
                    })
                })
                .collect()
        })
        .collect()
}

/// Blocks per warm job: a job asks for 4 consecutive blocks (384 points,
/// a whole figure's worth), so consecutive jobs share blocks.
pub(crate) const WARM_JOB_BLOCKS: usize = 4;

/// One client's warm jobs for one round, in order: each starts at a
/// seed-chosen block and takes [`WARM_JOB_BLOCKS`] blocks, wrapping.
pub(crate) fn warm_jobs(
    seed: u64,
    round: u64,
    client: u64,
    jobs: usize,
    blocks: &[Job],
) -> Vec<Job> {
    (0..jobs)
        .map(|i| {
            let start =
                (derive(seed, &[11, round, client, i as u64]) % blocks.len() as u64) as usize;
            (0..WARM_JOB_BLOCKS)
                .flat_map(|k| blocks[(start + k) % blocks.len()].iter().cloned())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_keys(seed: u64) -> Vec<String> {
        grid(seed, 100, 200)
            .iter()
            .flat_map(|c| {
                c.specs
                    .iter()
                    .map(|s| format!("{}|{}|{:?}|{}", s.id.name(), s.size, s.rates, s.seed))
            })
            .collect()
    }

    #[test]
    fn grid_is_a_function_of_the_seed() {
        assert_eq!(grid_keys(42), grid_keys(42));
        assert_ne!(grid_keys(42), grid_keys(43));
        let g = grid(42, 100, 200);
        assert_eq!(g.len(), 3);
        // Every scheme appears once per load in each column, knee first.
        for c in &g {
            assert_eq!(c.loads, [[Load::Knee; 8], [Load::Low; 8]].concat());
            for half in c.specs.chunks(8) {
                let mut names: Vec<&str> = half.iter().map(|s| s.id.name()).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), 8);
            }
        }
    }

    #[test]
    fn app_runs_are_a_function_of_the_seed() {
        let key = |s| {
            app_runs(s, 10)
                .iter()
                .map(|r| (r.app.name(), r.id.name(), r.seed))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(5), key(5));
        assert_ne!(key(5), key(6));
        assert_eq!(app_runs(5, 10).len(), 12 * APP_REPEATS);
    }

    #[test]
    fn cold_lists_overlap_by_the_fixed_share_and_vary_by_seed_and_round() {
        let wire = |jobs: &[Job]| {
            jobs.iter()
                .map(|j| {
                    j.iter()
                        .map(|s| format!("{:?}", bench::WireSpec::from_spec(s)))
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = cold_jobs(9, 0, 6, 100, 200);
        let (a2, b2) = cold_jobs(9, 0, 6, 100, 200);
        assert_eq!((wire(&a), wire(&b)), (wire(&a2), wire(&b2)));
        let (wa, wb) = (wire(&a), wire(&b));
        let shared = wb.iter().filter(|j| wa.contains(j)).count();
        assert_eq!(shared, 6 * OVERLAP_NUM / OVERLAP_DEN);
        // One repeat at the same slot (dedup), one of an earlier job (memory).
        assert!(wa.iter().zip(&wb).any(|(x, y)| x == y));
        assert_ne!(wire(&cold_jobs(9, 1, 6, 100, 200).0), wa);
        assert_ne!(wire(&cold_jobs(10, 0, 6, 100, 200).0), wa);
    }

    #[test]
    fn warm_jobs_are_a_function_of_the_seed() {
        let blocks = warm_blocks(3, 6, 100, 200);
        assert_eq!(blocks.len(), 6);
        assert!(blocks
            .iter()
            .all(|b| b.iter().map(|s| s.rates.len()).sum::<usize>() == 96));
        let key = |jobs: Vec<Job>| {
            jobs.iter()
                .map(|j| {
                    j.iter()
                        .map(|s| format!("{}{}{}", s.id.name(), s.pattern.name(), s.seed))
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
        };
        let a = key(warm_jobs(3, 0, 0, 50, &blocks));
        assert_eq!(a, key(warm_jobs(3, 0, 0, 50, &blocks)));
        assert_ne!(a, key(warm_jobs(3, 0, 1, 50, &blocks)));
        assert_ne!(a, key(warm_jobs(4, 0, 0, 50, &blocks)));
        assert!(warm_jobs(3, 0, 0, 5, &blocks)
            .iter()
            .all(|j| j.len() == 32 * WARM_JOB_BLOCKS));
    }
}
