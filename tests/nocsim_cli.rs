//! The `nocsim` binary accepts every registry scheme by name and
//! simulates exactly the registry's Table II configuration of it.

use bench::registry::PARSEABLE;
use fastpass_noc::sim::Simulation;
use fastpass_noc::traffic::{SyntheticPattern, SyntheticWorkload};
use std::process::Command;

const SEED: u64 = 7;
const RATE: f64 = 0.05;
const WARMUP: u64 = 200;
const CYCLES: u64 = 1_000;

/// The `"key":value` number in `nocsim --json`'s one-line output.
fn field(json: &str, key: &str) -> f64 {
    let start = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no `{key}` in {json}"))
        + key.len()
        + 3;
    let end = json[start..]
        .find([',', '}'])
        .map_or(json.len(), |i| start + i);
    json[start..end].parse().expect("numeric field")
}

#[test]
fn every_registry_scheme_runs_its_table2_config() {
    for id in PARSEABLE {
        let name = id.name().to_lowercase();
        let out = Command::new(env!("CARGO_BIN_EXE_nocsim"))
            .args(["--scheme", &name, "--pattern", "uniform", "--size", "4"])
            .args(["--rate", &RATE.to_string(), "--seed", &SEED.to_string()])
            .args(["--warmup", &WARMUP.to_string()])
            .args(["--cycles", &CYCLES.to_string(), "--json"])
            .output()
            .expect("spawn nocsim");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = String::from_utf8(out.stdout).expect("utf-8 output");

        // The same point in process, built from the registry: `--vcs`
        // (default 4) may only reach FastPass.
        let cfg = id.sim_config(4, 4, SEED);
        let workload = SyntheticWorkload::new(SyntheticPattern::Uniform, RATE, SEED ^ 0x5EED);
        let mut sim = Simulation::new(cfg.clone(), id.build(&cfg, SEED), Box::new(workload));
        let want = sim.run_windows(WARMUP, CYCLES);
        assert!(want.delivered() > 0, "{name}: nothing delivered");
        assert_eq!(field(&json, "delivered"), want.delivered() as f64, "{name}");
        assert_eq!(
            format!("{:.3}", field(&json, "avg_latency")),
            format!("{:.3}", want.avg_latency()),
            "{name}"
        );
    }
}
