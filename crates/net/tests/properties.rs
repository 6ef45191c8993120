//! Property-based tests for the network simulator.

use proptest::prelude::*;
use qntn_geo::Geodetic;
use qntn_net::requests::sample_steps;
use qntn_net::{Host, QuantumNetworkSim, SimConfig};
use qntn_routing::{Graph, RouteMetric};

/// A small HAP network with `n_a`/`n_b` ground nodes per LAN at randomized
/// (but Tennessee-plausible) positions.
fn hap_network(n_a: usize, n_b: usize, seed: u64) -> QuantumNetworkSim {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut hosts = Vec::new();
    for k in 0..n_a {
        hosts.push(Host::ground(
            format!("A-{k}"),
            0,
            Geodetic::from_deg(36.17 + next() * 0.01, -85.51 + next() * 0.01, 300.0),
            1.2,
        ));
    }
    for k in 0..n_b {
        hosts.push(Host::ground(
            format!("B-{k}"),
            1,
            Geodetic::from_deg(35.91 + next() * 0.01, -84.30 + next() * 0.01, 250.0),
            1.2,
        ));
    }
    hosts.push(Host::hap(
        "HAP",
        Geodetic::from_deg(35.6692, -85.0662, 30_000.0),
        0.3,
    ));
    QuantumNetworkSim::new(hosts, SimConfig::default(), 4, 30.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn graph_construction_is_sane(n_a in 1usize..5, n_b in 1usize..5, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0);
        prop_assert_eq!(g.node_count(), n_a + n_b + 1);
        // Fiber mesh per LAN + one HAP link per ground node.
        let expect_fiber = n_a * (n_a - 1) / 2 + n_b * (n_b - 1) / 2;
        prop_assert_eq!(g.edge_count(), expect_fiber + n_a + n_b);
        // All transmissivities in range.
        for (_, _, eta) in g.edges() {
            prop_assert!((0.0..=1.0).contains(&eta));
        }
    }

    #[test]
    fn thresholding_monotone_on_live_graphs(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0);
        let mut prev_edges = usize::MAX;
        for t in [0.0, 0.5, 0.7, 0.9, 0.99] {
            let e = g.thresholded(t).edge_count();
            prop_assert!(e <= prev_edges);
            prev_edges = e;
        }
    }

    #[test]
    fn served_requests_have_valid_paths(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.active_graph_at(0);
        let hap = n_a + n_b;
        for src in 0..n_a {
            let dst = n_a; // first B node
            if let Some(d) = qntn_net::entanglement::distribute(&g, src, dst, RouteMetric::PaperInverseEta) {
                // Fidelity laws.
                prop_assert!(d.fidelity >= 0.5 && d.fidelity <= 1.0);
                prop_assert!(d.fidelity_jozsa <= d.fidelity + 1e-12);
                prop_assert!(d.mean_link_fidelity + 1e-12 >= d.fidelity);
                // Inter-LAN routes must traverse the HAP.
                prop_assert!(d.path.contains(&hap), "path {:?}", d.path);
            }
        }
    }

    #[test]
    fn sample_steps_properties(total in 1usize..5000, count in 1usize..200) {
        let s = sample_steps(total, count);
        prop_assert!(!s.is_empty());
        prop_assert!(s.len() <= count.max(1));
        prop_assert!(s.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        prop_assert!(*s.last().unwrap() < total);
        prop_assert_eq!(s[0], 0);
    }

    #[test]
    fn lan_interconnection_matches_componentry(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.active_graph_at(0);
        let inter = sim.lans_interconnected(&g);
        // Manual check via components.
        let labels = g.components();
        let manual = (0..n_a).any(|a| (0..n_b).any(|b| labels[a] == labels[n_a + b]));
        prop_assert_eq!(inter, manual);
    }

    #[test]
    fn empty_threshold_graph_disconnects(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0).thresholded(1.1_f64.min(1.0));
        // Threshold 1.0 keeps only perfect links; no FSO link is exactly 1.
        let empty = Graph::with_nodes(g.node_count());
        let _ = empty;
        prop_assert!(!sim.lans_interconnected(&g) || g.edge_count() > 0);
    }
}
