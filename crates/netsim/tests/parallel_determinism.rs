//! Regression suite for multi-configuration runs: spreading the engine work
//! of several side-by-side configurations over 2, 3 or 4 workers (and over
//! the default worker count) must produce a `SimReport` that is
//! **byte-identical** (serialized form) to the one-worker run. This is the
//! guarantee that lets the simulator parallelise the paper's side-by-side
//! methodology without changing a single number in any figure.

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

fn encode(simulator: &mut Simulator) -> String {
    serde::json::to_string(&simulator.run())
}

/// Byte-compares the default worker count and 2, 3 and 4 workers against
/// one worker.
fn assert_worker_counts_agree(build: &dyn Fn() -> Simulator) {
    let one = encode(&mut build().with_threads(1));
    assert!(!one.is_empty());
    assert_eq!(encode(&mut build()), one, "default worker count diverged");
    for threads in [2, 3, 4] {
        let many = encode(&mut build().with_threads(threads));
        assert_eq!(many, one, "{threads} workers diverged from one");
    }
}

fn two_config_setup(loss: f64) -> (PlanetLabConfig, SimConfig, Vec<(String, NodeConfig)>) {
    let workload = PlanetLabConfig::small(14)
        .with_seed(11)
        .with_link_config(LinkModelConfig::default().with_loss_probability(loss));
    let sim_config = SimConfig::new(700.0, 5.0)
        .with_measurement_start(100.0)
        .with_initial_neighbors(4)
        .with_protocol_seed(0xABCD);
    let configs = vec![
        ("mp".to_string(), NodeConfig::paper_defaults()),
        ("raw".to_string(), NodeConfig::original_vivaldi()),
    ];
    (workload, sim_config, configs)
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let (workload, sim_config, configs) = two_config_setup(0.0);
    assert_worker_counts_agree(&|| {
        Simulator::new(workload.clone(), sim_config.clone(), configs.clone())
    });
}

#[test]
fn parallel_report_is_byte_identical_under_loss_and_churn() {
    // Loss, delay asymmetry, crash + snapshot restart and a partition all at
    // once: every code path that consumes protocol randomness or link
    // randomness must stay aligned across worker counts.
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(7).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.03)
                .with_delay_asymmetry(0.2),
        );
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_tracked_nodes(vec![0, 5], 60.0);
        let scenario = Scenario::crash_restart(vec![1, 2], 300.0, 450.0).at(
            500.0,
            ScenarioAction::Partition {
                group: vec![0, 1, 2, 3],
                heal_at_s: 650.0,
            },
        );
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("paper".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
        .with_scenario(scenario)
    };
    assert_worker_counts_agree(&build);
}

#[test]
fn three_configs_run_in_parallel_and_match_serial() {
    let workload = PlanetLabConfig::small(10).with_seed(3);
    let sim_config = SimConfig::new(500.0, 5.0)
        .with_measurement_start(100.0)
        .with_initial_neighbors(3);
    let configs = vec![
        ("a-mp".to_string(), NodeConfig::paper_defaults()),
        ("b-raw".to_string(), NodeConfig::original_vivaldi()),
        (
            "c-mp-noheur".to_string(),
            NodeConfig::builder()
                .heuristic(stable_nc::HeuristicConfig::FollowSystem)
                .build(),
        ),
    ];
    assert_worker_counts_agree(&|| {
        Simulator::new(workload.clone(), sim_config.clone(), configs.clone())
    });
}

#[test]
fn matching_eviction_thresholds_parallelise_and_match_serial() {
    // Eviction configured and *identical* across configurations: every
    // configuration evicts at the same timeout, so the unanimity rule
    // removes the peer at once.
    let build = || {
        let workload = PlanetLabConfig::small(8).with_seed(3);
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_gossip(false);
        let scenario = Scenario::new().at(200.0, ScenarioAction::Crash { nodes: vec![5] });
        Simulator::new(
            workload,
            sim_config,
            vec![
                (
                    "mp".to_string(),
                    NodeConfig::builder().max_consecutive_losses(3).build(),
                ),
                (
                    "raw".to_string(),
                    NodeConfig::builder()
                        .filter(stable_nc::FilterConfig::Raw)
                        .max_consecutive_losses(3)
                        .build(),
                ),
            ],
        )
        .with_scenario(scenario)
    };
    assert_worker_counts_agree(&build);
}

#[test]
fn differing_eviction_thresholds_still_match_their_serial_semantics() {
    // Thresholds differ across configurations: the planner keeps one mirror
    // per configuration and removes a peer from the shared rotation only
    // once every configuration has evicted it. Repeated invocations and
    // every worker count must encode identically.
    let build = || {
        let workload = PlanetLabConfig::small(8).with_seed(9);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(3)
            .with_gossip(false);
        let scenario = Scenario::new().at(150.0, ScenarioAction::Crash { nodes: vec![4] });
        Simulator::new(
            workload,
            sim_config,
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
    let first = serde::json::to_string(&build().run());
    let second = serde::json::to_string(&build().run());
    assert_eq!(first, second);
    assert_worker_counts_agree(&build);
}
