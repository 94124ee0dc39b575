//! The certification suite: every configuration CI proves per PR.
//!
//! Four tiers:
//!
//! * [`figure_suite`] — the bench figure matrix (all Table II schemes at
//!   the figure sizes, FastPass VC variants included), with the
//!   consumer-backlog protocol model on.
//! * [`mirror_2x2`] — name-for-name mirrors of `noc-check`'s exhaustive
//!   2×2 tier, used for static↔dynamic cross-validation.
//! * [`big_points`] — 16×16 and 32×32 FastPass/EscapeVC points beyond
//!   the model checker's reach (the whole point of a static certifier).
//! * [`fault_suite`] — seeded irregular configurations from
//!   [`noc_core::fault::generate`], certified before any sweep may
//!   simulate them.
//!
//! [`planted`] is the suite's soundness gate: a config whose CDG
//! provably cycles (zero VNs, shared VCs, protocol coupling). CI runs it
//! expecting `cycle-found`; a `certified` verdict means the certifier is
//! unsound and the gate must go red. It is the static twin of
//! `noc-check`'s `planted-vct0-protocol-2x2`, whose wedge the model
//! checker witnesses dynamically.

use noc_core::config::SimConfig;
use noc_core::fault::{self, FaultConfig};
use noc_core::topology::Mesh;

/// Scheme taxonomy for certification (mirrors the bench registry's
/// Table II parameters without depending on `bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Plain credit VCT with XY routing.
    Vct,
    /// TFC: token-weighted west-first (acyclic turn model).
    Tfc,
    /// EscapeVC: adaptive inner VCs + XY escape VC per VN.
    EscapeVc,
    /// SPIN: fully adaptive + probe/spin recovery.
    Spin,
    /// SWAP: fully adaptive + swap recovery.
    Swap,
    /// DRAIN: fully adaptive + periodic drain.
    Drain,
    /// Pitstop: class-rotation pit lanes.
    Pitstop {
        /// Cycles each class owns the pit lanes.
        class_period: u64,
        /// Pit capacity per node, in packets.
        pit_capacity: usize,
    },
    /// MinBD: bufferless deflection with a minimal side buffer.
    MinBd {
        /// Side-buffer capacity in flits.
        side_capacity: usize,
        /// Flits ejected per router per cycle.
        eject_bandwidth: usize,
    },
    /// FastPass: TDM bypass lanes over a fully-adaptive regular network.
    FastPass {
        /// Slot length override (`None`: the paper's formula).
        slot_cycles: Option<u64>,
    },
}

impl SchemeKind {
    /// Display name (matches the bench registry where schemes overlap).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Vct => "VCT-XY",
            SchemeKind::Tfc => "TFC",
            SchemeKind::EscapeVc => "EscapeVC",
            SchemeKind::Spin => "SPIN",
            SchemeKind::Swap => "SWAP",
            SchemeKind::Drain => "DRAIN",
            SchemeKind::Pitstop { .. } => "Pitstop",
            SchemeKind::MinBd { .. } => "MinBD",
            SchemeKind::FastPass { .. } => "FastPass",
        }
    }
}

/// One configuration to certify.
#[derive(Debug, Clone)]
pub struct ProveConfig {
    /// Stable name (certificate + CI artifact key).
    pub name: String,
    /// Mesh + VC structure.
    pub sim: SimConfig,
    /// Scheme under proof.
    pub scheme: SchemeKind,
    /// Model the consumer-backlog protocol-coupling edges.
    pub coupling: bool,
    /// Degraded topology (FastPass holistic certification).
    pub fault: Option<FaultConfig>,
    /// Planted configs: the gate expects `cycle-found`.
    pub expect_cycle: bool,
}

fn sim(size: usize, vns: usize, vcs: usize) -> SimConfig {
    SimConfig::builder()
        .mesh(size, size)
        .vns(vns)
        .vcs_per_vn(vcs)
        .build()
}

fn cfg(name: impl Into<String>, sim: SimConfig, scheme: SchemeKind, coupling: bool) -> ProveConfig {
    ProveConfig {
        name: name.into(),
        sim,
        scheme,
        coupling,
        fault: None,
        expect_cycle: false,
    }
}

/// Default Pitstop parameters (Table II / `PitstopConfig::default`).
fn pitstop_default() -> SchemeKind {
    SchemeKind::Pitstop {
        class_period: 256,
        pit_capacity: 4,
    }
}

/// Default MinBD parameters (`MinBdConfig::default`).
fn minbd_default() -> SchemeKind {
    SchemeKind::MinBd {
        side_capacity: 8,
        eject_bandwidth: 2,
    }
}

/// The figure-suite matrix: every Table II scheme at the figure sizes
/// (4×4 and 8×8), FastPass VC variants included, protocol model on.
pub fn figure_suite() -> Vec<ProveConfig> {
    let mut v = Vec::new();
    for size in [4usize, 8] {
        let tag = |s: &str| format!("fig-{s}-{size}x{size}");
        v.push(cfg(
            tag("escape-vc"),
            sim(size, 6, 2),
            SchemeKind::EscapeVc,
            true,
        ));
        v.push(cfg(tag("spin"), sim(size, 6, 2), SchemeKind::Spin, true));
        v.push(cfg(tag("swap"), sim(size, 6, 2), SchemeKind::Swap, true));
        v.push(cfg(tag("drain"), sim(size, 6, 2), SchemeKind::Drain, true));
        v.push(cfg(
            tag("pitstop"),
            sim(size, 0, 2),
            pitstop_default(),
            true,
        ));
        v.push(cfg(tag("minbd"), sim(size, 0, 1), minbd_default(), true));
        v.push(cfg(tag("tfc"), sim(size, 6, 2), SchemeKind::Tfc, true));
        for vcs in [1usize, 2, 4] {
            v.push(cfg(
                format!("fig-fastpass-vc{vcs}-{size}x{size}"),
                sim(size, 0, vcs),
                SchemeKind::FastPass { slot_cycles: None },
                true,
            ));
        }
        v.push(cfg(tag("vct-xy6"), sim(size, 6, 2), SchemeKind::Vct, true));
    }
    v
}

/// Name-for-name mirrors of `noc-check`'s per-PR 2×2 tier (same VC
/// structure, same protocol-model switch as each config's
/// `backlog_limit`). Static verdicts here must agree with the model
/// checker's exhaustive dynamic verdicts.
pub fn mirror_2x2() -> Vec<ProveConfig> {
    vec![
        cfg(
            "fastpass-2x2",
            sim(2, 0, 1),
            SchemeKind::FastPass { slot_cycles: None },
            true,
        ),
        cfg("vct-xy0-2x2", sim(2, 0, 1), SchemeKind::Vct, false),
        cfg("vct-xy6-2x2", sim(2, 6, 1), SchemeKind::Vct, true),
        cfg(
            "pitstop-2x2",
            sim(2, 0, 1),
            SchemeKind::Pitstop {
                class_period: 8,
                pit_capacity: 2,
            },
            true,
        ),
        cfg("spin-2x2", sim(2, 6, 1), SchemeKind::Spin, false),
        cfg("escape-vc-2x2", sim(2, 6, 2), SchemeKind::EscapeVc, false),
        cfg(
            "minbd-min-2x2",
            sim(2, 0, 1),
            SchemeKind::MinBd {
                side_capacity: 1,
                eject_bandwidth: 1,
            },
            false,
        ),
    ]
}

/// Beyond the model checker's reach: 16×16 and 32×32 FastPass and
/// EscapeVC points from the big-mesh tier.
pub fn big_points() -> Vec<ProveConfig> {
    let mut v = Vec::new();
    for size in [16usize, 32] {
        v.push(cfg(
            format!("big-fastpass-{size}x{size}"),
            sim(size, 0, 2),
            SchemeKind::FastPass { slot_cycles: None },
            true,
        ));
        v.push(cfg(
            format!("big-escape-vc-{size}x{size}"),
            sim(size, 6, 2),
            SchemeKind::EscapeVc,
            true,
        ));
    }
    v
}

/// `count` seeded fault configurations on an 8×8 mesh, 4 disabled
/// channels each: FastPass holistic certification of the degraded
/// topologies that ROADMAP item 4(a)'s fault sweeps will simulate.
///
/// # Panics
///
/// Panics if the deterministic generator cannot satisfy a draw (cannot
/// happen for 4 faults on 8×8).
pub fn fault_suite(count: usize) -> Vec<ProveConfig> {
    (0..count as u64)
        .map(|seed| {
            let fault = fault::generate(Mesh::new(8, 8), seed, 4)
                .expect("4 faults on 8x8 leave ample connectivity");
            ProveConfig {
                name: fault.name(),
                sim: sim(8, 0, 2),
                scheme: SchemeKind::FastPass { slot_cycles: None },
                coupling: false,
                fault: Some(fault),
                expect_cycle: false,
            }
        })
        .collect()
}

/// The certified irregular smoke point shared with `noc-check` and the
/// figure suite: a 4×4 mesh minus the `R5 ↔ R6` channel.
pub fn irregular_smoke() -> ProveConfig {
    let fault = FaultConfig {
        mesh: Mesh::new(4, 4),
        seed: 0,
        disabled: vec![(5, 6)],
    };
    ProveConfig {
        name: "irregular-4x4-no56".into(),
        sim: sim(4, 0, 2),
        scheme: SchemeKind::FastPass { slot_cycles: None },
        coupling: false,
        fault: Some(fault),
        expect_cycle: false,
    }
}

/// The planted cyclic configuration: zero VNs, one shared VC, XY VCT,
/// protocol coupling — its CDG must contain a concrete cycle (the static
/// twin of `noc-check`'s `planted-vct0-protocol-2x2` wedge).
pub fn planted() -> ProveConfig {
    ProveConfig {
        name: "planted-vct0-protocol-2x2".into(),
        sim: sim(2, 0, 1),
        scheme: SchemeKind::Vct,
        coupling: true,
        fault: None,
        expect_cycle: true,
    }
}

/// Everything certified per PR, in gate order.
pub fn full_suite() -> Vec<ProveConfig> {
    let mut v = figure_suite();
    v.extend(mirror_2x2());
    v.extend(big_points());
    v.extend(fault_suite(8));
    v.push(irregular_smoke());
    v.push(planted());
    v
}

/// Looks up a configuration by name across the whole suite.
pub fn by_name(name: &str) -> Option<ProveConfig> {
    full_suite().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let suite = full_suite();
        let mut names: Vec<&str> = suite.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate config names");
    }

    #[test]
    fn mirror_names_match_noc_check_matrix() {
        // Kept in lockstep with `noc_check::configs::matrix_2x2` by the
        // cross-validation integration test; this is the cheap local
        // invariant (the planted names must also coincide).
        assert!(by_name("fastpass-2x2").is_some());
        assert_eq!(planted().name, "planted-vct0-protocol-2x2");
    }

    #[test]
    fn fault_suite_is_deterministic() {
        let a: Vec<String> = fault_suite(4).into_iter().map(|c| c.name).collect();
        let b: Vec<String> = fault_suite(4).into_iter().map(|c| c.name).collect();
        assert_eq!(a, b);
    }
}
