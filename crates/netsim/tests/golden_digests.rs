//! Pinned report digests: eight small simulations whose serialized
//! `SimReport` (plus, where enabled, the query index's contents) must hash
//! to fixed values at every worker count.
//!
//! The determinism suites compare executors against each other; this file
//! compares every executor against numbers recorded from an earlier,
//! independent implementation of the event loop, so a change that shifts
//! all executors the same way still fails here. A digest changes only when
//! the simulated behaviour is meant to change — then re-record it and say
//! why in the commit.

use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::{FilterConfig, HeuristicConfig, NodeConfig, OutlierGateConfig};

/// FNV-1a over the bytes: small, dependency-free and stable across
/// platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs the simulator and hashes its report, followed by every query
/// index's contents in key order.
fn digest(mut simulator: Simulator, index_names: &[&str]) -> u64 {
    let mut text = serde::json::to_string(&simulator.run());
    for name in index_names {
        let index = simulator.query_index(name).expect("query index enabled");
        for (id, coordinate) in index.iter() {
            text.push_str(&format!(
                "\n{name} {id} {:?} {:?}",
                coordinate.components(),
                coordinate.height()
            ));
        }
    }
    fnv1a(text.as_bytes())
}

/// Asserts the digest with the default worker count and with 1 to 4
/// workers.
fn assert_digest(build: &dyn Fn() -> Simulator, index_names: &[&str], expected: u64, label: &str) {
    let default = digest(build(), index_names);
    assert_eq!(
        default, expected,
        "{label}: default run digest {default:#018x}"
    );
    for threads in 1..=4 {
        let got = digest(build().with_threads(threads), index_names);
        assert_eq!(
            got, expected,
            "{label}: {threads}-worker digest {got:#018x}"
        );
    }
}

fn schedule(duration_s: f64) -> SimConfig {
    SimConfig::new(duration_s, 5.0)
        .with_measurement_start(duration_s / 4.0)
        .with_initial_neighbors(4)
}

#[test]
fn loss_and_asymmetry() {
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(31).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.05)
                .with_delay_asymmetry(0.3),
        );
        Simulator::new(
            workload,
            schedule(700.0),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
    };
    assert_digest(&build, &[], 0x7169_cd06_eb87_978e, "loss+asymmetry");
}

#[test]
fn crash_and_restart() {
    let build = || {
        let workload = PlanetLabConfig::small(12)
            .with_seed(32)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
        Simulator::new(
            workload,
            schedule(800.0),
            vec![(
                "mp".to_string(),
                NodeConfig::builder().max_consecutive_losses(3).build(),
            )],
        )
        .with_scenario(Scenario::crash_restart(vec![1, 4, 7], 250.0, 420.0))
    };
    assert_digest(&build, &[], 0xbe63_8986_7be4_5f19, "crash/restart");
}

#[test]
fn partition_and_heal() {
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(33);
        let scenario = Scenario::new().at(
            200.0,
            ScenarioAction::Partition {
                group: vec![0, 2, 4, 6, 8],
                heal_at_s: 450.0,
            },
        );
        Simulator::new(
            workload,
            schedule(700.0),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
    };
    assert_digest(&build, &[], 0x4374_495f_0fa0_43d8, "partition+heal");
}

#[test]
fn join_and_leave() {
    let build = || {
        let workload = PlanetLabConfig::small(14).with_seed(34);
        let scenario = Scenario::new()
            .with_initially_down(vec![11, 12, 13])
            .at(
                150.0,
                ScenarioAction::Join {
                    nodes: vec![11, 12, 13],
                },
            )
            .at(400.0, ScenarioAction::Leave { nodes: vec![2, 5] });
        Simulator::new(
            workload,
            schedule(700.0),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
    };
    assert_digest(&build, &[], 0x0e37_e704_feee_cd6e, "join/leave");
}

#[test]
fn liars_against_the_mad_gate() {
    let build = || {
        let workload = PlanetLabConfig::small(20)
            .with_seed(35)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.01));
        let sim_config = schedule(700.0).with_adversaries(
            0.1,
            AdversaryModel::CoordinateLiar {
                displacement_ms: 2_000.0,
                inflate: 1.0,
                error_estimate: 0.01,
            },
        );
        Simulator::new(
            workload,
            sim_config,
            vec![(
                "gated".to_string(),
                NodeConfig::builder()
                    .outlier_gate(OutlierGateConfig::default())
                    .build(),
            )],
        )
    };
    assert_digest(&build, &[], 0x9854_fcd3_4afb_7ebe, "liars+gate");
}

#[test]
fn tracked_nodes_with_the_query_index() {
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(36);
        let sim_config = schedule(600.0)
            .with_tracked_nodes(vec![0, 3, 10], 45.0)
            .with_query_index();
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("mp".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
    };
    assert_digest(
        &build,
        &["mp", "raw"],
        0xc271_fe2c_b4a6_a92c,
        "tracked+index",
    );
}

#[test]
fn eviction_thresholds_three_and_five_side_by_side() {
    let build = || {
        let workload = PlanetLabConfig::small(10)
            .with_seed(37)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.05));
        let scenario = Scenario::new()
            .at(150.0, ScenarioAction::Crash { nodes: vec![4] })
            .at(260.0, ScenarioAction::Crash { nodes: vec![6] })
            .at(420.0, ScenarioAction::Restart { nodes: vec![4, 6] });
        Simulator::new(
            workload,
            schedule(700.0).with_gossip(false),
            vec![
                (
                    "evict3".to_string(),
                    NodeConfig::builder().max_consecutive_losses(3).build(),
                ),
                (
                    "evict5".to_string(),
                    NodeConfig::builder().max_consecutive_losses(5).build(),
                ),
            ],
        )
        .with_scenario(scenario)
    };
    assert_digest(&build, &[], 0x022b_2b31_1536_ea08, "thresholds 3+5");
}

#[test]
fn four_config_deployment() {
    let build = || {
        let workload = PlanetLabConfig::small(12)
            .with_seed(38)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
        let stack = |filter: FilterConfig, heuristic: HeuristicConfig| {
            NodeConfig::builder()
                .filter(filter)
                .heuristic(heuristic)
                .build()
        };
        Simulator::new(
            workload,
            schedule(700.0),
            vec![
                (
                    "energy+mp".to_string(),
                    stack(FilterConfig::paper_mp(), HeuristicConfig::paper_energy()),
                ),
                (
                    "raw-mp".to_string(),
                    stack(FilterConfig::paper_mp(), HeuristicConfig::FollowSystem),
                ),
                (
                    "energy+nofilter".to_string(),
                    stack(FilterConfig::Raw, HeuristicConfig::paper_energy()),
                ),
                (
                    "raw-nofilter".to_string(),
                    stack(FilterConfig::Raw, HeuristicConfig::FollowSystem),
                ),
            ],
        )
        .with_scenario(Scenario::crash_restart(vec![2, 9], 300.0, 380.0))
    };
    assert_digest(&build, &[], 0xc5fa_94f4_bf92_c6f4, "4-config deployment");
}
