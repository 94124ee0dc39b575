//! The static certifier certifies what the figures simulate: every
//! `noc_prove::configs::figure_suite` entry has the registry's Table II
//! network shape and the baselines' default scheme parameters.

use baselines::minbd::MinBdConfig;
use baselines::pitstop::PitstopConfig;
use bench::{SchemeId, ALL_SCHEMES};
use noc_prove::configs::{figure_suite, SchemeKind};
use std::collections::BTreeSet;

#[test]
fn figure_suite_matches_registry_and_baseline_defaults() {
    let pitstop = PitstopConfig::default();
    let minbd = MinBdConfig::default();
    let mut covered = BTreeSet::new();
    for cfg in figure_suite() {
        let id = match cfg.scheme {
            SchemeKind::EscapeVc => SchemeId::EscapeVc,
            SchemeKind::Spin => SchemeId::Spin,
            SchemeKind::Swap => SchemeId::Swap,
            SchemeKind::Drain => SchemeId::Drain,
            SchemeKind::Tfc => SchemeId::Tfc,
            SchemeKind::FastPass { slot_cycles } => {
                assert_eq!(slot_cycles, None, "{}: paper slot length", cfg.name);
                SchemeId::FastPass
            }
            SchemeKind::Vct => SchemeId::Vct,
            SchemeKind::Pitstop {
                class_period,
                pit_capacity,
            } => {
                assert_eq!(class_period, pitstop.class_period, "{}", cfg.name);
                assert_eq!(pit_capacity, pitstop.pit_capacity, "{}", cfg.name);
                SchemeId::Pitstop
            }
            SchemeKind::MinBd {
                side_capacity,
                eject_bandwidth,
            } => {
                assert_eq!(side_capacity, minbd.side_capacity, "{}", cfg.name);
                assert_eq!(eject_bandwidth, minbd.eject_bandwidth, "{}", cfg.name);
                SchemeId::MinBd
            }
        };
        let size = cfg.sim.mesh.width();
        assert_eq!(cfg.sim.mesh.height(), size, "{}: square mesh", cfg.name);
        if id == SchemeId::FastPass {
            assert!(
                [1, 2, 4].contains(&cfg.sim.vcs_per_vn),
                "{}: the paper's FastPass VC counts",
                cfg.name
            );
        }
        let want = id.sim_config(size, cfg.sim.vcs_per_vn, cfg.sim.seed);
        assert_eq!(cfg.sim, want, "{}", cfg.name);
        covered.insert((id.name(), size));
    }
    for size in [4, 8] {
        for id in ALL_SCHEMES {
            assert!(
                covered.contains(&(id.name(), size)),
                "{} {size}x{size} is not certified",
                id.name()
            );
        }
    }
}
