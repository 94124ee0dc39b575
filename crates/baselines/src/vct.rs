//! Plain credit-based virtual cut-through with XY routing.
//!
//! Not a scheme from the paper's comparison table, but the substrate
//! sanity baseline: deterministic XY routing is network-deadlock-free
//! by turn restriction, and protocol-level deadlock freedom comes
//! only from VNs. Used by integration tests to demonstrate the deadlocks
//! that FastPass/Pitstop resolve and the VN-based baselines avoid.

use noc_sim::network::NetworkCore;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::DorXy;
use noc_sim::scheme::{Scheme, SchemeProperties};

/// Plain credit-based VCT (implements [`Scheme`]).
#[derive(Debug)]
pub struct CreditVct {
    vns: usize,
}

impl CreditVct {
    /// XY-routed VCT with `vns` virtual networks.
    pub fn xy(vns: usize) -> Self {
        CreditVct { vns }
    }
}

impl Scheme for CreditVct {
    fn name(&self) -> &'static str {
        "VCT-XY"
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            no_detection: true,
            protocol_deadlock_freedom: false, // needs VNs
            network_deadlock_freedom: true,   // turn-restricted routing
            full_path_diversity: false,
            high_throughput: false,
            low_power: false,
            scalable: true,
            no_misrouting: true,
        }
    }

    fn required_vns(&self) -> usize {
        self.vns
    }

    fn step(&mut self, core: &mut NetworkCore) {
        advance(core, &mut DorXy, &AdvanceCtx::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    #[test]
    fn xy_delivers_uniform_traffic() {
        let cfg = SimConfig::builder().mesh(4, 4).vns(6).vcs_per_vn(2).build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(CreditVct::xy(6)),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 1)),
        );
        let stats = sim.run_windows(1_000, 4_000);
        assert!(stats.delivered() > 100);
        assert!(sim.starvation_cycles() < 100);
    }

    #[test]
    fn zero_vn_variant_for_deadlock_demos() {
        let cfg = SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(2).build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(CreditVct::xy(0)),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 1)),
        );
        let stats = sim.run_windows(500, 2_000);
        assert!(stats.delivered() > 0);
    }
}
