//! Routing policies: XY, west-first, fully adaptive, escape-VC.
//!
//! A policy performs route computation *and* downstream VC selection for
//! a head packet (RC + VA of the 1-cycle router). Table II assigns:
//! fully-adaptive routing to SWAP, SPIN, DRAIN, Pitstop and FastPass's
//! regular pass; west-first to TFC; and a Duato escape-VC arrangement to
//! EscapeVC (deterministic escape VC + fully-adaptive elsewhere).

use crate::network::NetworkCore;
use noc_core::packet::{MessageClass, PacketId};
use noc_core::rng::DetRng;
use noc_core::topology::{Direction, NodeId, Port};

/// A head packet asking for a route at a router.
///
/// Carries by value the only packet fields route computation reads
/// (destination and message class) plus the packet id, so building a
/// request costs one store lookup and no `Packet` clone — this runs once
/// per routed head in the hot cycle loop.
#[derive(Debug, Clone, Copy)]
pub struct RouteReq {
    /// Router the packet is buffered at.
    pub at: NodeId,
    /// Input port it occupies.
    pub in_port: Port,
    /// VC it occupies.
    pub vc: usize,
    /// The packet's id (for policies that need more than `dst`/`class`).
    pub pkt: PacketId,
    /// The packet's destination.
    pub dst: NodeId,
    /// The packet's message class.
    pub class: MessageClass,
}

impl RouteReq {
    /// Builds a request for the packet `pkt` buffered at
    /// `(at, in_port, vc)`, reading `dst`/`class` from the store.
    pub fn new(core: &NetworkCore, at: NodeId, in_port: Port, vc: usize, pkt: PacketId) -> Self {
        let p = core.store.get(pkt);
        RouteReq {
            at,
            in_port,
            vc,
            pkt,
            dst: p.dst,
            class: p.class,
        }
    }
}

/// A granted route: output port plus the downstream VC that was selected
/// (`out_vc` is meaningless for `Port::Local`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port to traverse.
    pub out_port: Port,
    /// Downstream VC index (already verified free by the policy).
    pub out_vc: usize,
}

/// Route computation + VC selection.
///
/// Implementations must only return decisions whose downstream VC is
/// currently free; the regular pipeline reserves it immediately.
///
/// Policies must be [`Send`]: schemes own their policies (often boxed),
/// and every scheme crosses a thread boundary when the bench harness
/// parallelizes sweeps.
pub trait RoutingPolicy: Send {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Computes a route for `req`, or `None` if no admissible output/VC
    /// is available this cycle (the packet stays blocked).
    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision>;

    /// Output ports the packet *could* legally use (for wait-for-graph
    /// construction). The default is all minimal productive directions.
    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            return vec![Port::Local];
        }
        core.productive_dirs(req.at, req.dst)
            .iter()
            .map(Port::Dir)
            .collect()
    }
}

/// Returns the first free VC for `class` at the input port of the
/// neighbour reached via `d` from `at`, if any.
pub fn free_downstream_vc(
    core: &NetworkCore,
    at: NodeId,
    d: Direction,
    class_index: usize,
) -> Option<usize> {
    let nbr = core.neighbor(at, d)?;
    let range = core.cfg().vc_range_for_class(class_index);
    core.input(nbr, Port::Dir(d.opposite()).index())
        .free_vc_in(range)
}

/// Counts free VCs for `class` at the downstream input port via `d`
/// (the congestion/credit signal used by adaptive selection and TFC
/// tokens).
pub fn downstream_credits(
    core: &NetworkCore,
    at: NodeId,
    d: Direction,
    class_index: usize,
) -> usize {
    match core.neighbor(at, d) {
        Some(nbr) => {
            let range = core.cfg().vc_range_for_class(class_index);
            core.input(nbr, Port::Dir(d.opposite()).index())
                .free_vcs_in(range)
        }
        None => 0,
    }
}

fn local_if_arrived(req: &RouteReq) -> Option<RouteDecision> {
    (req.dst == req.at).then_some(RouteDecision {
        out_port: Port::Local,
        out_vc: 0,
    })
}

/// Pure route-set introspection for static analysis (`noc-prove`).
///
/// Every routing policy's *admissible direction set* is a pure function
/// of `(mesh, at, dst)` — the credit/occupancy state only picks
/// *among* admissible directions, never adds to them. This module is the
/// single source of truth for those sets: the policies below delegate to
/// it (so the simulator and the static certifier cannot drift), and
/// `noc-prove` builds channel-dependency graphs from exactly these
/// functions rather than re-deriving the routing algebra.
pub mod introspect {
    use noc_core::topology::{Direction, Mesh, NodeId};

    /// Which routing discipline's route set to enumerate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PolicyKind {
        /// Dimension-ordered X-then-Y ([`super::DorXy`]).
        Xy,
        /// Minimal fully adaptive ([`super::FullyAdaptive`]).
        FullyAdaptive,
        /// West-first turn model ([`super::WestFirst`], TFC's substrate).
        WestFirst,
        /// The deterministic escape discipline of
        /// [`super::EscapeVcRouting`] (XY into the escape VC).
        EscapeXy,
    }

    impl PolicyKind {
        /// Short name used in certificates.
        pub fn name(self) -> &'static str {
            match self {
                PolicyKind::Xy => "xy",
                PolicyKind::FullyAdaptive => "fully-adaptive",
                PolicyKind::WestFirst => "west-first",
                PolicyKind::EscapeXy => "escape-xy",
            }
        }
    }

    /// Directions admissible under west-first: all westward correction
    /// first, then adaptive among the rest.
    pub fn west_first(mesh: Mesh, at: NodeId, dst: NodeId) -> Vec<Direction> {
        let prod = mesh.productive_dirs(at, dst);
        if prod.contains(Direction::West) {
            vec![Direction::West]
        } else {
            prod.iter().collect()
        }
    }

    /// The full admissible direction set of `kind` at `(at, dst)`.
    /// Returns the empty set iff `at == dst` (route to `Port::Local`).
    pub fn route_set(kind: PolicyKind, mesh: Mesh, at: NodeId, dst: NodeId) -> Vec<Direction> {
        if at == dst {
            return Vec::new();
        }
        match kind {
            PolicyKind::Xy | PolicyKind::EscapeXy => {
                vec![mesh
                    .xy_next(at, dst)
                    .expect("non-local packet always has an XY next hop")]
            }
            PolicyKind::FullyAdaptive => mesh.productive_dirs(at, dst).iter().collect(),
            PolicyKind::WestFirst => west_first(mesh, at, dst),
        }
    }
}

/// Dimension-ordered routing, X then Y (deterministic, deadlock-free).
#[derive(Debug, Clone)]
pub struct DorXy;

impl RoutingPolicy for DorXy {
    fn name(&self) -> &'static str {
        "xy"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        // `Mesh::xy_next` on cached coordinates (no per-call division).
        let (fx, fy) = core.xy(req.at);
        let (tx, ty) = core.xy(req.dst);
        let dir = if tx > fx {
            Direction::East
        } else if tx < fx {
            Direction::West
        } else if ty > fy {
            Direction::South
        } else if ty < fy {
            Direction::North
        } else {
            return None;
        };
        let out_vc = free_downstream_vc(core, req.at, dir, req.class.index())?;
        Some(RouteDecision {
            out_port: Port::Dir(dir),
            out_vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            vec![Port::Dir(
                core.mesh()
                    .xy_next(req.at, req.dst)
                    .expect("non-local packet always has an XY next hop"),
            )]
        }
    }
}

/// Minimal fully-adaptive routing: any productive direction, preferring
/// the one with the most free downstream VCs (credit-based congestion
/// estimate), random tie-break.
///
/// Fully-adaptive routing admits network-level deadlock; schemes using it
/// must provide a resolution mechanism (SPIN, SWAP, DRAIN, Pitstop,
/// FastPass all do).
#[derive(Debug, Clone)]
pub struct FullyAdaptive {
    rng: DetRng,
}

impl FullyAdaptive {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        FullyAdaptive {
            rng: DetRng::new(seed),
        }
    }
}

impl RoutingPolicy for FullyAdaptive {
    fn name(&self) -> &'static str {
        "fully-adaptive"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        // The class range is direction-independent: resolve it once, and
        // take the free-VC pick and the credit count from one downstream
        // occupancy read per direction (identical values to the
        // `free_downstream_vc` + `downstream_credits` pair).
        let range = core.cfg().vc_range_for_class(req.class.index());
        let mut best: Option<(usize, Direction, usize)> = None;
        let mut ties = 0usize;
        for dir in core.productive_dirs(req.at, req.dst).iter() {
            let Some(nbr) = core.neighbor(req.at, dir) else {
                continue;
            };
            let (vc, credits) = core
                .input(nbr, Port::Dir(dir.opposite()).index())
                .free_vc_and_credits(range.clone());
            if let Some(vc) = vc {
                match best {
                    Some((b, _, _)) if credits < b => {}
                    Some((b, _, _)) if credits == b => {
                        // Reservoir-style uniform tie-break.
                        ties += 1;
                        if self.rng.range(0, ties + 1) == 0 {
                            best = Some((credits, dir, vc));
                        }
                    }
                    _ => {
                        best = Some((credits, dir, vc));
                        ties = 0;
                    }
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }
}

/// West-first partially-adaptive routing (used by TFC and as the escape
/// discipline). All westward correction happens first; once the packet no
/// longer needs to go west, it may adaptively pick among the remaining
/// productive directions. West-first forbids every turn into West, which
/// breaks all cycles: deadlock-free.
#[derive(Debug, Clone)]
pub struct WestFirst {
    rng: DetRng,
}

impl WestFirst {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        WestFirst {
            rng: DetRng::new(seed),
        }
    }

    /// Directions admissible under west-first from `at` toward `dst`
    /// (delegates to [`introspect::west_first`], the set `noc-prove`
    /// certifies).
    pub fn admissible(core: &NetworkCore, at: NodeId, dst: NodeId) -> Vec<Direction> {
        introspect::west_first(core.mesh(), at, dst)
    }
}

impl RoutingPolicy for WestFirst {
    fn name(&self) -> &'static str {
        "west-first"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        let class = req.class.index();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in Self::admissible(core, req.at, req.dst) {
            if let Some(vc) = free_downstream_vc(core, req.at, dir, class) {
                let credits = downstream_credits(core, req.at, dir, class);
                let better = match best {
                    Some((b, _, _)) => credits > b || (credits == b && self.rng.chance(0.5)),
                    None => true,
                };
                if better {
                    best = Some((credits, dir, vc));
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            Self::admissible(core, req.at, req.dst)
                .into_iter()
                .map(Port::Dir)
                .collect()
        }
    }
}

/// Duato escape-VC routing: within each VN, VC 0 is the escape channel
/// routed deterministically (XY, a subset of west-first as configured in
/// the paper); the remaining VCs are fully adaptive. A packet may always
/// fall back into the escape channel, which guarantees network-level
/// deadlock freedom.
#[derive(Debug, Clone)]
pub struct EscapeVcRouting {
    adaptive: FullyAdaptive,
}

impl EscapeVcRouting {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        EscapeVcRouting {
            adaptive: FullyAdaptive::new(seed),
        }
    }

    /// The escape VC index for a class at the current configuration.
    pub fn escape_vc(core: &NetworkCore, class_index: usize) -> usize {
        core.cfg().vc_range_for_class(class_index).start
    }
}

impl RoutingPolicy for EscapeVcRouting {
    fn name(&self) -> &'static str {
        "escape-vc"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        let class = req.class.index();
        let range = core.cfg().vc_range_for_class(class);
        let escape = range.start;
        // Adaptive attempt: any productive direction, non-escape VCs only.
        let mesh = core.mesh();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in core.productive_dirs(req.at, req.dst).iter() {
            if let Some(nbr) = core.neighbor(req.at, dir) {
                let iu = core.input(nbr, Port::Dir(dir.opposite()).index());
                let adaptive_range = (escape + 1)..range.end;
                if let Some(vc) = iu.free_vc_in(adaptive_range.clone()) {
                    let credits = iu.free_vcs_in(adaptive_range);
                    if best.map(|(b, _, _)| credits > b).unwrap_or(true) {
                        best = Some((credits, dir, vc));
                    }
                }
            }
        }
        if let Some((_, dir, vc)) = best {
            return Some(RouteDecision {
                out_port: Port::Dir(dir),
                out_vc: vc,
            });
        }
        // Escape fallback: deterministic XY into the escape VC.
        let dir = mesh.xy_next(req.at, req.dst)?;
        let nbr = core.neighbor(req.at, dir)?;
        let iu = core.input(nbr, Port::Dir(dir.opposite()).index());
        iu.is_free(escape).then_some(RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: escape,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        self.adaptive.desired_ports(core, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet};
    use noc_core::topology::Mesh;

    fn core(vns: usize, vcs: usize) -> NetworkCore {
        NetworkCore::new(
            SimConfig::builder()
                .mesh(4, 4)
                .vns(vns)
                .vcs_per_vn(vcs)
                .build(),
        )
    }

    fn req_between(core: &mut NetworkCore, src: usize, dst: usize) -> noc_core::PacketId {
        core.generate(Packet::new(
            NodeId::new(src),
            NodeId::new(dst),
            MessageClass::Request,
            1,
            0,
        ))
    }

    fn route_of(
        core: &NetworkCore,
        policy: &mut dyn RoutingPolicy,
        pkt: noc_core::PacketId,
        at: usize,
    ) -> Option<RouteDecision> {
        policy.route(
            core,
            &RouteReq::new(core, NodeId::new(at), Port::Local, 0, pkt),
        )
    }

    #[test]
    fn xy_routes_x_first() {
        let mut c = core(0, 2);
        let m = Mesh::new(4, 4);
        let pkt = req_between(&mut c, 0, 15); // (0,0) -> (3,3)
        let dec = route_of(&c, &mut DorXy, pkt, 0).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::East));
        // From a node in the right column, Y correction.
        let at = m.node(3, 0).index();
        let dec = route_of(&c, &mut DorXy, pkt, at).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::South));
    }

    #[test]
    fn arrived_packet_routes_local() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 0, 5);
        for policy in [
            &mut DorXy as &mut dyn RoutingPolicy,
            &mut FullyAdaptive::new(1),
            &mut WestFirst::new(1),
            &mut EscapeVcRouting::new(1),
        ] {
            let dec = route_of(&c, policy, pkt, 5).unwrap();
            assert_eq!(dec.out_port, Port::Local, "{}", policy.name());
        }
    }

    #[test]
    fn adaptive_only_picks_productive() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10); // (1,1) -> (2,2): E or S
        let mut pol = FullyAdaptive::new(3);
        for _ in 0..20 {
            let dec = route_of(&c, &mut pol, pkt, 5).unwrap();
            assert!(
                dec.out_port == Port::Dir(Direction::East)
                    || dec.out_port == Port::Dir(Direction::South)
            );
        }
    }

    #[test]
    fn adaptive_prefers_more_credits() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10);
        // Fill every VC at the East neighbour's West input port.
        let east_nbr = NodeId::new(6);
        for vc in 0..2 {
            let filler = req_between(&mut c, 0, 15);
            c.input_mut(east_nbr, Port::Dir(Direction::West).index())
                .install(vc, crate::vc::VcOccupant::reserved(filler, 1, 0));
        }
        let mut pol = FullyAdaptive::new(3);
        let dec = route_of(&c, &mut pol, pkt, 5).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::South));
    }

    #[test]
    fn adaptive_blocks_when_all_full() {
        let mut c = core(0, 1);
        let pkt = req_between(&mut c, 5, 10);
        for (nbr, dir) in [(6usize, Direction::West), (9, Direction::North)] {
            let filler = req_between(&mut c, 0, 15);
            c.input_mut(NodeId::new(nbr), Port::Dir(dir).index())
                .install(0, crate::vc::VcOccupant::reserved(filler, 1, 0));
        }
        let mut pol = FullyAdaptive::new(3);
        assert_eq!(route_of(&c, &mut pol, pkt, 5), None);
    }

    #[test]
    fn west_first_forces_west() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 10, 0); // (2,2) -> (0,0): W and N productive
        let mut pol = WestFirst::new(7);
        for _ in 0..10 {
            let dec = route_of(&c, &mut pol, pkt, 10).unwrap();
            assert_eq!(dec.out_port, Port::Dir(Direction::West), "west first");
        }
        // Eastbound traffic is adaptive between E and S.
        let pkt2 = req_between(&mut c, 0, 15);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let dec = route_of(&c, &mut pol, pkt2, 0).unwrap();
            seen.insert(dec.out_port);
        }
        assert!(seen.contains(&Port::Dir(Direction::East)));
        assert!(seen.contains(&Port::Dir(Direction::South)));
    }

    #[test]
    fn escape_prefers_adaptive_vcs_then_falls_back() {
        let mut c = core(6, 2);
        let pkt = req_between(&mut c, 0, 15);
        let mut pol = EscapeVcRouting::new(9);
        let dec = route_of(&c, &mut pol, pkt, 0).unwrap();
        let range = c.cfg().vc_range_for_class(MessageClass::Request.index());
        assert_eq!(dec.out_vc, range.start + 1, "adaptive VC chosen first");
        // Fill all adaptive VCs of both productive neighbours.
        for (nbr, dir) in [(1usize, Direction::West), (4, Direction::North)] {
            let filler = req_between(&mut c, 5, 15);
            c.input_mut(NodeId::new(nbr), Port::Dir(dir).index())
                .install(
                    range.start + 1,
                    crate::vc::VcOccupant::reserved(filler, 1, 0),
                );
        }
        let dec = route_of(&c, &mut pol, pkt, 0).unwrap();
        assert_eq!(dec.out_vc, range.start, "falls back to escape VC");
        assert_eq!(
            dec.out_port,
            Port::Dir(Direction::East),
            "escape uses deterministic XY"
        );
    }

    #[test]
    fn vn_isolation_respected() {
        // A Response packet must only be offered Response-VN VCs.
        let mut c = core(6, 2);
        let pkt = c.generate(Packet::new(
            NodeId::new(0),
            NodeId::new(3),
            MessageClass::Response,
            5,
            0,
        ));
        let dec = route_of(&c, &mut DorXy, pkt, 0).unwrap();
        let range = c.cfg().vc_range_for_class(MessageClass::Response.index());
        assert!(range.contains(&dec.out_vc));
    }

    #[test]
    fn desired_ports_default_is_productive() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10);
        let pol = FullyAdaptive::new(1);
        let ports = pol.desired_ports(&c, &RouteReq::new(&c, NodeId::new(5), Port::Local, 0, pkt));
        assert_eq!(ports.len(), 2);
    }

    /// The static-analysis hook must report exactly the direction sets
    /// the live policies advertise: for every `(at, in_port, dst)` on two
    /// mesh shapes, `introspect::route_set` equals the policy's
    /// `desired_ports`. This is what lets `noc-prove` build channel
    /// dependency graphs from the introspection module without drifting
    /// from the simulator, and checks that no policy's route set depends
    /// on the input port (which `noc-prove`'s route graph assumes).
    #[test]
    fn introspection_matches_policies_exhaustively() {
        use super::introspect::{route_set, PolicyKind};
        for (w, h) in [(4usize, 4usize), (3, 5)] {
            let mut c =
                NetworkCore::new(SimConfig::builder().mesh(w, h).vns(0).vcs_per_vn(2).build());
            let mesh = c.mesh();
            let pairs: Vec<(Box<dyn RoutingPolicy>, PolicyKind)> = vec![
                (Box::new(DorXy), PolicyKind::Xy),
                (Box::new(FullyAdaptive::new(1)), PolicyKind::FullyAdaptive),
                (Box::new(WestFirst::new(1)), PolicyKind::WestFirst),
            ];
            let pkt = req_between(&mut c, 0, 1);
            for (policy, kind) in &pairs {
                for at in 0..mesh.num_nodes() {
                    for dst in 0..mesh.num_nodes() {
                        // Probe every legal input port: the route set
                        // must not depend on it.
                        for in_port in Port::all() {
                            if let Port::Dir(d) = in_port {
                                if mesh.neighbor(NodeId::new(at), d).is_none() {
                                    continue;
                                }
                            }
                            let req = RouteReq {
                                at: NodeId::new(at),
                                in_port,
                                vc: 0,
                                pkt,
                                dst: NodeId::new(dst),
                                class: MessageClass::Request,
                            };
                            if at == dst {
                                assert!(
                                    route_set(*kind, mesh, req.at, req.dst).is_empty(),
                                    "arrived packets must have an empty route set"
                                );
                                continue;
                            }
                            let want: Vec<Port> = policy.desired_ports(&c, &req);
                            let got: Vec<Port> = route_set(*kind, mesh, req.at, req.dst)
                                .into_iter()
                                .map(Port::Dir)
                                .collect();
                            assert_eq!(
                                got,
                                want,
                                "{} at R{at} in {in_port} dst R{dst} on {w}x{h}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Empirical deadlock-freedom soak for west-first: heavy adversarial
    /// traffic, a single VC, no resolution scheme — if the turn rules
    /// were wrong, the network would wedge.
    #[test]
    fn west_first_never_wedges() {
        use crate::regular::{advance, AdvanceCtx};
        let mut c = NetworkCore::new(
            noc_core::config::SimConfig::builder()
                .mesh(4, 4)
                .vns(0)
                .vcs_per_vn(1)
                .seed(7)
                .build(),
        );
        let mut wf = WestFirst::new(5);
        let mut wl_rng = noc_core::rng::DetRng::new(11);
        let mut last_consumed = 0u64;
        let mut consumed = 0u64;
        for cycle in 0..8_000u64 {
            // Saturating random traffic.
            for src in 0..16 {
                if wl_rng.chance(0.4) {
                    let mut dst = wl_rng.range(0, 15);
                    if dst >= src {
                        dst += 1;
                    }
                    c.generate(Packet::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        1 + 4 * (wl_rng.chance(0.5) as u8),
                        cycle,
                    ));
                }
            }
            advance(&mut c, &mut wf, &AdvanceCtx::default());
            let now = c.cycle();
            for n in c.mesh().nodes() {
                if c.ni(n).ej_consumable(MessageClass::Request, now).is_some() {
                    let e = c.ni_mut(n).pop_ej(MessageClass::Request).unwrap();
                    c.store.remove(e.pkt);
                    consumed += 1;
                    last_consumed = now;
                }
            }
            c.advance_cycle();
        }
        assert!(consumed > 1_000, "too little delivered");
        assert!(
            c.cycle() - last_consumed < 500,
            "wedged: no consumption for {} cycles",
            c.cycle() - last_consumed
        );
    }
}
