//! The benchmark's own tests: the replay reproduces a run's counted probes,
//! the query mix follows the churn simulation's measured updates, spans
//! nest with non-negative self times, the metric catalogue matches
//! `BENCHMARK.json`, and the output checks catch corrupted answers.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nc_netsim::{
    AdversaryConfig, AdversaryModel, LinkModelConfig, PlanetLabConfig, Scenario, ScenarioAction,
    SimConfig, Simulator,
};
use nc_proto::{ProbeRequest, ProbeResponse};
use nc_query::{CoordinateIndex, QueryConfig};
use nc_vivaldi::{Coordinate, OutlierGateConfig};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::query::{knn_matches_brute_force, CHURN_PER_MILLE, UPDATE_STEP_MS};
use perfbench::replay::{self, Counts, ReplaySpec};
use perfbench::sim::{accuracy, Workload};
use perfbench::trace::{Tracer, NO_PARENT};
use perfbench::udp::{check_reply, ReplyError};
use stable_nc::NodeConfig;

/// Runs `spec` through the simulator and the replay; returns both counts.
fn run_both(spec: &ReplaySpec, threads: Option<usize>) -> (Counts, Counts) {
    let mut simulator = Simulator::new(
        spec.workload.clone(),
        spec.sim_config.clone(),
        vec![("mp".to_string(), spec.node_config.clone())],
    )
    .with_scenario(spec.scenario.clone());
    if let Some(threads) = threads {
        simulator = simulator.with_threads(threads);
    }
    let mut spec = spec.clone();
    spec.adversaries = simulator.adversaries();
    let report = simulator.run();
    let run = Counts::of(report.config("mp").unwrap());
    let replayed = replay::run(spec, &mut Tracer::new()).unwrap();
    (run, replayed.counts)
}

#[test]
fn replay_reproduces_an_honest_runs_counts_exactly() {
    let spec = ReplaySpec {
        workload: PlanetLabConfig::small(32)
            .with_seed(7)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.05)),
        sim_config: SimConfig::new(600.0, 5.0)
            .with_protocol_seed(11)
            .with_query_index(),
        node_config: NodeConfig::builder().max_consecutive_losses(2).build(),
        scenario: Scenario::crash_restart(vec![0, 1, 2, 3], 200.0, 260.0),
        adversaries: Vec::new(),
    };
    for threads in [None, Some(2)] {
        let (run, replayed) = run_both(&spec, threads);
        assert!(run.probes_lost > 0 && run.probes_sent > 3_000, "{run:?}");
        assert_eq!(run, replayed);
    }
}

#[test]
fn replay_reproduces_the_schedule_counts_of_a_run_with_liars() {
    let liar = AdversaryModel::CoordinateLiar {
        displacement_ms: 2_000.0,
        inflate: 1.0,
        error_estimate: 0.01,
    };
    let spec = ReplaySpec {
        workload: PlanetLabConfig::small(24).with_seed(3).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.02)
                .with_drift_walk(0.05, 600.0),
        ),
        sim_config: SimConfig::new(900.0, 5.0)
            .with_protocol_seed(5)
            .with_adversary_config(AdversaryConfig::new(0.15, liar)),
        node_config: NodeConfig::builder()
            .outlier_gate(OutlierGateConfig::default())
            .build(),
        scenario: Scenario::crash_restart(vec![4, 5, 6], 300.0, 420.0),
        adversaries: Vec::new(),
    };
    let (run, replayed) = run_both(&spec, None);
    assert!(run.observations_rejected > 0, "{run:?}");
    assert_eq!(run.schedule_counts(), replayed.schedule_counts());
}

#[test]
fn the_query_mix_follows_the_churn_simulation() {
    let inputs = Workload::Churn.inputs(0, 0);
    let mut simulator = inputs.simulator();
    let mut adversaries = simulator.adversaries();
    adversaries.sort_unstable();
    let report = simulator.run();
    let metrics = report.config("mp").unwrap();
    let honest = metrics
        .nodes
        .iter()
        .enumerate()
        .filter(|(index, _)| adversaries.binary_search(index).is_err())
        .map(|(_, node)| node);
    let (displacement_ms, updates) = honest.fold((0.0, 0), |(d, u), node| {
        (
            d + node.total_application_displacement_ms(),
            u + node.application_update_count(),
        )
    });
    let step_ms = displacement_ms / updates as f64;
    assert!(
        (0.75..=1.33).contains(&(step_ms / UPDATE_STEP_MS)),
        "mean application update {step_ms} ms"
    );

    let nodes = metrics.nodes.len() as f64;
    let hours = inputs.sim_config.duration_s / 3_600.0;
    let churn_events: usize = inputs
        .scenario
        .events()
        .iter()
        .map(|event| match &event.action {
            ScenarioAction::Crash { nodes } | ScenarioAction::Restart { nodes } => nodes.len(),
            _ => 0,
        })
        .sum();
    let churn_per_node_h = churn_events as f64 / (nodes * hours);
    let accuracy = accuracy(metrics, &adversaries);
    let per_mille =
        1_000.0 * churn_per_node_h / (churn_per_node_h + accuracy.app_updates_per_node_h);
    assert!(
        (per_mille - f64::from(CHURN_PER_MILLE)).abs() <= 5.0,
        "churn is {per_mille} writes in 1000"
    );
}

#[test]
fn spans_nest_and_self_times_are_never_negative() {
    let mut tracer = Tracer::new();
    let outer = tracer.name("outer");
    let inner = tracer.name("inner");
    let leaf = tracer.name("leaf");
    let root = tracer.enter(outer);
    for _ in 0..3 {
        let id = tracer.enter(inner);
        tracer.time(leaf, || std::hint::black_box((0..1_000u64).sum::<u64>()));
        tracer.exit(id);
    }
    // Two overlapping asynchronous children: [t, t+40us] and [t+20us, t+60us]
    // cover 60 us of the root, not 80.
    let t = Instant::now();
    tracer.record(leaf, t, t + Duration::from_micros(40));
    tracer.record(
        leaf,
        t + Duration::from_micros(20),
        t + Duration::from_micros(60),
    );
    std::thread::sleep(Duration::from_micros(100));
    tracer.exit(root);
    let summary = tracer.finish();

    let mut covered_by_children = vec![0u64; summary.spans.len()];
    for (index, span) in summary.spans.iter().enumerate() {
        assert!(summary.self_ns[index] <= span.end_ns - span.start_ns);
        if span.parent == NO_PARENT {
            assert_eq!(index, 0);
            continue;
        }
        let parent = &summary.spans[span.parent as usize];
        assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        covered_by_children[span.parent as usize] += span.end_ns - span.start_ns;
    }
    let root_span = &summary.spans[0];
    let root_duration = root_span.end_ns - root_span.start_ns;
    // The overlapping pair counts once: 80 us summed, at most 60 us covered.
    assert!(summary.self_ns[0] + covered_by_children[0] >= root_duration + 20_000);
    assert_eq!(summary.totals("leaf").count, 5);
    assert_eq!(summary.totals("inner").count, 3);
}

#[test]
fn a_replay_trace_nests_inside_its_root() {
    let spec = ReplaySpec {
        workload: PlanetLabConfig::small(8).with_seed(1),
        sim_config: SimConfig::new(120.0, 5.0),
        node_config: NodeConfig::paper_defaults(),
        scenario: Scenario::new(),
        adversaries: Vec::new(),
    };
    let mut tracer = Tracer::new();
    replay::run(spec, &mut tracer).unwrap();
    let summary = tracer.finish();
    assert!(summary.totals("core.handle_response").count > 0);
    for span in &summary.spans {
        if span.parent != NO_PARENT {
            let parent = &summary.spans[span.parent as usize];
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
    }
}

/// The `"name"` and `"unit"` pairs of one list in `BENCHMARK.json`.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{list}\"")).unwrap();
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                entry[at..at + entry[at..].find('"').unwrap()].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let expected: Vec<(String, String)> = catalogue
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(declared(&json, list), expected, "{list}");
    }
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn a_corrupted_knn_answer_fails_the_check() {
    let mut index = CoordinateIndex::new(QueryConfig::default()).unwrap();
    for id in 0..200u32 {
        let x = f64::from(id);
        index
            .update(id, &Coordinate::new([x, (x * 7.0) % 50.0, 3.0]).unwrap())
            .unwrap();
    }
    let target = Coordinate::new([42.5, 10.0, 3.0]).unwrap();
    let answer = index.k_nearest(&target, 8).unwrap();
    assert!(knn_matches_brute_force(&index, &target, 8, &answer));

    let mut wrong_id = answer.clone();
    wrong_id[3].id = 199;
    assert!(!knn_matches_brute_force(&index, &target, 8, &wrong_id));
    let mut wrong_distance = answer.clone();
    wrong_distance[0].distance_ms += 0.5;
    assert!(!knn_matches_brute_force(
        &index,
        &target,
        8,
        &wrong_distance
    ));
    assert!(!knn_matches_brute_force(&index, &target, 8, &answer[..7]));
}

#[test]
fn a_reply_with_the_wrong_seq_fails_the_check() {
    let runtime: SocketAddr = "127.0.0.1:4000".parse().unwrap();
    let now = Instant::now();
    let outstanding = [(10, now), (11, now), (12, now)];
    let request = ProbeRequest::new(runtime, 11, 0);
    let reply = ProbeResponse::new(runtime, &request, Coordinate::origin(3), 0.5);
    assert_eq!(check_reply(&outstanding, &reply, runtime), Ok(1));

    let mut wrong_seq = reply.clone();
    wrong_seq.seq = 13;
    assert_eq!(
        check_reply(&outstanding, &wrong_seq, runtime),
        Err(ReplyError::UnknownSeq(13))
    );
    let stranger: SocketAddr = "127.0.0.1:4001".parse().unwrap();
    let mut wrong_responder = reply.clone();
    wrong_responder.responder = stranger;
    assert_eq!(
        check_reply(&outstanding, &wrong_responder, runtime),
        Err(ReplyError::WrongResponder)
    );
    let mut not_finite = reply;
    not_finite.error_estimate = f64::NAN;
    assert_eq!(
        check_reply(&outstanding, &not_finite, runtime),
        Err(ReplyError::NotFinite)
    );
}
