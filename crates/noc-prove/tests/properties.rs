//! Property tests of the certifier's graph machinery: cycle detection
//! against a brute-force DFS oracle on random digraphs (mirroring the
//! waitgraph oracle tests of `tests/properties.rs`), and structural
//! invariants of the CDG model on random mesh shapes.

use noc_core::config::SimConfig;
use noc_core::topology::Mesh;
use noc_prove::cdg::{is_valid_cycle, Digraph};
use noc_prove::model::{build_cdg, route_graph};
use noc_sim::routing::introspect::PolicyKind;
use proptest::prelude::*;

/// Brute-force oracle: a digraph has a cycle iff some vertex reaches
/// itself along at least one edge (plain DFS from every vertex).
fn has_cycle_oracle(n: usize, edges: &[(u32, u32)]) -> bool {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    for start in 0..n as u32 {
        let mut seen = vec![false; n];
        let mut stack: Vec<u32> = adj[start as usize].clone();
        while let Some(v) = stack.pop() {
            if v == start {
                return true;
            }
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.extend(adj[v as usize].iter().copied());
            }
        }
    }
    false
}

fn graph_from(n: usize, edges: &[(u32, u32)]) -> Digraph {
    let mut g = Digraph::new(n);
    for &(a, b) in edges {
        g.add_edge(a, b);
    }
    g.dedup();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `find_cycle` agrees with the brute-force oracle on arbitrary
    /// random digraphs, and any cycle it returns is genuine.
    /// (The proptest shim has no tuple strategies, so each edge is one
    /// integer decomposed as `(raw / n, raw % n)`.)
    #[test]
    fn cycle_detection_matches_oracle(
        n in 1usize..24,
        raw_edges in proptest::collection::vec(0u32..(24 * 24), 0..80),
    ) {
        let edges: Vec<(u32, u32)> = raw_edges
            .into_iter()
            .map(|raw| ((raw / n as u32) % n as u32, raw % n as u32))
            .collect();
        let g = graph_from(n, &edges);
        match g.find_cycle() {
            Some(c) => {
                prop_assert!(has_cycle_oracle(n, &edges), "false positive: {c:?}");
                prop_assert!(is_valid_cycle(&g, &c), "bogus cycle path {c:?}");
            }
            None => prop_assert!(!has_cycle_oracle(n, &edges), "missed a cycle"),
        }
    }

    /// Random DAGs (edges only from lower to higher ids) are always
    /// reported acyclic.
    #[test]
    fn dags_certify_acyclic(
        n in 2usize..24,
        raw_edges in proptest::collection::vec(0u32..(24 * 24), 0..80),
    ) {
        let edges: Vec<(u32, u32)> = raw_edges
            .into_iter()
            .map(|raw| {
                let a = (raw / n as u32) % (n as u32 - 1);
                let b = a + 1 + raw % (n as u32 - 1 - a).max(1);
                (a, b.min(n as u32 - 1))
            })
            .filter(|&(a, b)| a < b)
            .collect();
        prop_assert!(graph_from(n, &edges).find_cycle().is_none());
    }

    /// Adding any single back edge that closes a directed chain is
    /// detected, and the reported path walks the chain.
    #[test]
    fn chain_with_back_edge_found(len in 2usize..40, back_to in 0usize..40) {
        let back_to = back_to % (len - 1);
        let mut g = Digraph::new(len);
        for i in 0..len as u32 - 1 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(len as u32 - 1, back_to as u32);
        let c = g.find_cycle().expect("closed chain must cycle");
        prop_assert!(is_valid_cycle(&g, &c));
        prop_assert_eq!(c.len(), len - back_to);
    }

    /// The XY CDG is acyclic and dead-end free on every mesh shape,
    /// with or without 6-VN protocol coupling.
    #[test]
    fn dor_cdgs_acyclic_any_mesh(w in 2usize..6, h in 2usize..6, vn_bit in 0u8..2) {
        let vns = if vn_bit == 1 { 6usize } else { 0 };
        let sim = SimConfig::builder().mesh(w, h).vns(vns).vcs_per_vn(1).build();
        // Coupling only stays acyclic with class-separated VNs.
        let coupling = vns == 6;
        let (g, _, rg) = build_cdg(&sim, PolicyKind::Xy, coupling, false);
        prop_assert!(rg.routable(), "xy {w}x{h}");
        prop_assert!(g.is_acyclic(), "xy {w}x{h} vns={vns}");
    }

    /// The route graph of every policy is dead-end free on every mesh
    /// shape (minimal policies always deliver).
    #[test]
    fn all_policies_dead_end_free(w in 2usize..6, h in 2usize..6) {
        for kind in [
            PolicyKind::Xy,
            PolicyKind::FullyAdaptive,
            PolicyKind::WestFirst,
            PolicyKind::EscapeXy,
        ] {
            let rg = route_graph(kind, Mesh::new(w, h));
            prop_assert!(rg.routable(), "{} {w}x{h}: {:?}", kind.name(), rg.dead_ends);
        }
    }
}
