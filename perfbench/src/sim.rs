//! The two simulation workloads.
//!
//! An untraced run simulates one mesh after another, each from inputs
//! derived from the run's seed, until the time budget is spent: at least
//! [`Workload::accuracy_runs`] of them, whose accuracy and stability feed the
//! reported medians, so those figures rest on a fixed set of inputs. After
//! each simulation the benchmark reads the query index the run fed with
//! `k_nearest` (the read a user of the coordinates makes).
//!
//! A traced run times one simulation untraced and once more with its calls
//! wrapped in spans and allocation counting on, then replays the same
//! seed's exchange stream through the public entry points
//! ([`crate::replay`]) and feeds the recorded streams through each layer on
//! its own ([`crate::feeds`]).

use std::time::{Duration, Instant};

use nc_netsim::metrics::ConfigMetrics;
use nc_netsim::{
    AdversaryConfig, AdversaryModel, LinkModelConfig, PlanetLabConfig, Scenario, SimConfig,
    Simulator,
};
use nc_query::CoordinateIndex;
use nc_vivaldi::{Coordinate, OutlierGateConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stable_nc::NodeConfig;

use crate::metrics::Outcome;
use crate::query::{knn_matches_brute_force, report_knn_mismatch};
use crate::replay::{self, Counts, ReplaySpec};
use crate::stats::{median, percentile, splitmix64};
use crate::trace::Tracer;
use crate::{alloc, feeds, procfs};

/// Name of the one configuration every simulation runs.
const STACK: &str = "mp";
/// Neighbours per read.
const READ_K: usize = 8;
/// `k_nearest` reads against the fed index after each simulation.
const READS_PER_RUN: usize = 20_000;
/// Leading reads left out of the latencies: the simulation just evicted
/// the index from every cache.
const READS_WARMUP: usize = 2_000;
/// Every this many reads, one answer is checked by brute force.
const READ_CHECK_EVERY: usize = 200;

/// A simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sim_mesh_4096`: 4096 nodes, paper-default stack, query-index feed,
    /// node-sharded executor on every available core.
    Mesh,
    /// `sim_churn_256`: 256 nodes on the serial executor with 2 % loss, a
    /// drifting base RTT, a quarter of the nodes crashing and restarting
    /// from snapshots, 10 % coordinate liars, and the MAD outlier gate.
    Churn,
}

/// One simulation's inputs.
#[derive(Clone)]
pub struct Inputs {
    /// Topology and link model.
    pub workload: PlanetLabConfig,
    /// Schedule.
    pub sim_config: SimConfig,
    /// The coordinate stack.
    pub node_config: NodeConfig,
    /// Churn script.
    pub scenario: Scenario,
    /// Worker threads for the node-sharded executor, or `None` for serial.
    pub threads: Option<usize>,
}

impl Inputs {
    /// Builds the simulator (the timed set-up).
    pub fn simulator(&self) -> Simulator {
        let simulator = Simulator::new(
            self.workload.clone(),
            self.sim_config.clone(),
            vec![(STACK.to_string(), self.node_config.clone())],
        )
        .with_scenario(self.scenario.clone());
        match self.threads {
            Some(threads) => simulator.with_threads(threads),
            None => simulator,
        }
    }
}

impl Workload {
    /// Both simulation workloads.
    pub const ALL: [Workload; 2] = [Workload::Mesh, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh => "sim_mesh_4096",
            Workload::Churn => "sim_churn_256",
        }
    }

    /// Mesh size.
    pub fn nodes(self) -> usize {
        match self {
            Workload::Mesh => 4096,
            Workload::Churn => 256,
        }
    }

    /// Simulations whose outcomes make up the accuracy and stability
    /// medians; every run performs at least this many.
    pub fn accuracy_runs(self) -> usize {
        match self {
            Workload::Mesh => 8,
            Workload::Churn => 12,
        }
    }

    /// The band `rel_error_p50` of one simulation must fall in. The churn
    /// stack holds about 0.1 with its gate and collapses to about 4 without
    /// it; five simulated minutes leave the mesh still converging, near 0.55.
    pub fn accuracy_band(self) -> (f64, f64) {
        match self {
            Workload::Mesh => (0.05, 1.0),
            Workload::Churn => (0.01, 0.3),
        }
    }

    /// The inputs of simulation `index` of a run seeded with `seed`.
    pub fn inputs(self, seed: u64, index: usize) -> Inputs {
        let mut state = seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let topology_seed = splitmix64(&mut state);
        let protocol_seed = splitmix64(&mut state);
        let adversary_seed = splitmix64(&mut state);
        let nodes = self.nodes();
        match self {
            Workload::Mesh => Inputs {
                workload: PlanetLabConfig::small(nodes).with_seed(topology_seed),
                sim_config: SimConfig::new(300.0, 5.0)
                    .with_protocol_seed(protocol_seed)
                    .with_query_index(),
                node_config: NodeConfig::paper_defaults(),
                scenario: Scenario::new(),
                threads: Some(
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                ),
            },
            Workload::Churn => {
                let liar = AdversaryModel::CoordinateLiar {
                    displacement_ms: 2_000.0,
                    inflate: 1.0,
                    error_estimate: 0.01,
                };
                let mut adversary = AdversaryConfig::new(0.1, liar);
                adversary.seed = adversary_seed;
                Inputs {
                    workload: PlanetLabConfig::small(nodes)
                        .with_seed(topology_seed)
                        .with_link_config(
                            LinkModelConfig::default()
                                .with_loss_probability(0.02)
                                .with_drift_walk(0.05, 600.0),
                        ),
                    sim_config: SimConfig::new(3_600.0, 5.0)
                        .with_protocol_seed(protocol_seed)
                        .with_adversary_config(adversary)
                        .with_query_index(),
                    node_config: NodeConfig::builder()
                        .outlier_gate(OutlierGateConfig::default())
                        .build(),
                    scenario: Scenario::crash_restart((0..nodes / 4).collect(), 1_200.0, 1_500.0),
                    threads: None,
                }
            }
        }
    }
}

/// The paper's outcomes for one simulation, over honest nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Median over nodes of the per-node median relative error.
    pub rel_error_p50: f64,
    /// Median per-node system-level instability, ms/s.
    pub instability_ms_per_s: f64,
    /// Application-level updates per node-hour.
    pub app_updates_per_node_h: f64,
}

/// Computes [`Accuracy`] over the nodes not in `adversaries`.
pub fn accuracy(metrics: &ConfigMetrics, adversaries: &[usize]) -> Accuracy {
    let honest: Vec<_> = metrics
        .nodes
        .iter()
        .enumerate()
        .filter(|(index, _)| adversaries.binary_search(index).is_err())
        .map(|(_, node)| node)
        .collect();
    let mut errors: Vec<f64> = honest
        .iter()
        .filter_map(|node| node.median_relative_error().ok())
        .collect();
    let window = metrics.measurement_duration_s;
    let mut instability: Vec<f64> = honest.iter().map(|n| n.instability(window)).collect();
    let updates: usize = honest.iter().map(|n| n.application_update_count()).sum();
    Accuracy {
        rel_error_p50: median(&mut errors).unwrap_or(f64::NAN),
        instability_ms_per_s: median(&mut instability).unwrap_or(f64::NAN),
        app_updates_per_node_h: updates as f64 * 3_600.0 / (window * honest.len() as f64),
    }
}

/// Probes neither answered nor lost must be few enough to still be in
/// flight at the end: at most one per node per timeout window plus one.
pub fn probe_accounting_holds(counts: &Counts, nodes: usize, sim_config: &SimConfig) -> bool {
    let settled = counts.responses_received + counts.probes_lost;
    let per_node = (sim_config.probe_timeout_s / sim_config.probe_interval_s).ceil() as u64 + 1;
    counts.probes_sent >= settled && counts.probes_sent - settled <= nodes as u64 * per_node
}

/// Reads `index` with `k_nearest` around its own entries, returning each
/// read's latency in µs and the number of sampled answers that disagree
/// with a brute-force scan (checked outside the timed calls).
fn read_index(
    index: &CoordinateIndex<usize>,
    reads: usize,
    rng: &mut StdRng,
    tracer: Option<&mut Tracer>,
) -> (Vec<f64>, u64) {
    let targets: Vec<Coordinate> = index.iter().map(|(_, c)| c.clone()).collect();
    let mut latencies = Vec::with_capacity(reads);
    let mut wrong = 0;
    if targets.is_empty() {
        return (latencies, reads as u64);
    }
    let mut tracer = tracer;
    let knn = tracer.as_mut().map(|t| t.name("query.knn"));
    for read in 0..reads {
        let target = &targets[rng.gen_range(0..targets.len())];
        let start = Instant::now();
        let answer = index.k_nearest(target, READ_K);
        let end = Instant::now();
        if let (Some(tracer), Some(knn)) = (tracer.as_mut(), knn) {
            tracer.record(knn, start, end);
        }
        if read >= READS_WARMUP {
            latencies.push((end - start).as_secs_f64() * 1e6);
        }
        match answer {
            Ok(answer) => {
                if read.is_multiple_of(READ_CHECK_EVERY)
                    && !knn_matches_brute_force(index, target, READ_K, &answer)
                {
                    report_knn_mismatch(index, target, READ_K, &answer);
                    wrong += 1;
                }
            }
            Err(_) => wrong += 1,
        }
    }
    (latencies, wrong)
}

/// One untraced run: simulations until `budget` is spent.
pub fn run(workload: Workload, seed: u64, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut probe_rates = Vec::new();
    let mut read_p50s = Vec::new();
    let mut read_p99s = Vec::new();
    let mut accuracies = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EAD);
    let (low, high) = workload.accuracy_band();
    let mut index = 0;
    while index < workload.accuracy_runs() || started.elapsed() < budget {
        let inputs = workload.inputs(seed, index);
        let setup_start = Instant::now();
        let mut simulator = inputs.simulator();
        setups.push(setup_start.elapsed().as_secs_f64());
        let mut adversaries = simulator.adversaries();
        adversaries.sort_unstable();

        let run_start = Instant::now();
        let report = simulator.run();
        let run_s = run_start.elapsed().as_secs_f64();
        let metrics = report.config(STACK).expect("the stack ran");
        let counts = Counts::of(metrics);
        probe_rates.push(counts.probes_sent as f64 / run_s);
        outcome.attempted += counts.probes_sent;
        let accuracy = accuracy(metrics, &adversaries);
        let in_band = (low..=high).contains(&accuracy.rel_error_p50);
        if !in_band || !probe_accounting_holds(&counts, workload.nodes(), &inputs.sim_config) {
            eprintln!(
                "check failed: simulation {index}: {counts:?}, rel_error_p50 {} (band {low}..{high})",
                accuracy.rel_error_p50
            );
            outcome.failed += counts.probes_sent;
        }
        if index < workload.accuracy_runs() {
            accuracies.push(accuracy);
        }

        let fed = simulator.query_index(STACK).expect("the index feed is on");
        let (mut latencies, wrong) = read_index(fed, READS_PER_RUN, &mut rng, None);
        outcome.attempted += READS_PER_RUN as u64;
        outcome.failed += wrong;
        read_p50s.push(percentile(&mut latencies, 50.0).unwrap_or(f64::NAN));
        read_p99s.push(percentile(&mut latencies, 99.0).unwrap_or(f64::NAN));
        eprintln!(
            "simulation {index}: set-up {:.3} s, run {run_s:.3} s, {:.0} probes/s, read p50 {:.3} us",
            setups[index], probe_rates[index], read_p50s[index]
        );
        index += 1;
    }

    let field = |f: fn(&Accuracy) -> f64| {
        let mut values: Vec<f64> = accuracies.iter().map(f).collect();
        median(&mut values).unwrap_or(f64::NAN)
    };
    let rel_error = field(|a| a.rel_error_p50);
    let instability = field(|a| a.instability_ms_per_s);
    let app_updates = field(|a| a.app_updates_per_node_h);
    eprintln!(
        "{workload:?}: {index} simulations in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    outcome.set("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    outcome.set("ops_per_s", median(&mut probe_rates).unwrap_or(f64::NAN));
    outcome.set("read_p50_us", median(&mut read_p50s).unwrap_or(f64::NAN));
    outcome.set("read_p99_us", median(&mut read_p99s).unwrap_or(f64::NAN));
    outcome.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(f64::NAN));
    outcome.set("rel_error_p50", rel_error);
    outcome.set("instability_ms_per_s", instability);
    outcome.set("app_updates_per_node_h", app_updates);
    outcome.set(
        "ok_frac",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome
}

/// Runs `inputs` untraced; returns the wall and CPU seconds of `run`.
fn timed_run(inputs: &Inputs) -> (f64, f64) {
    let mut simulator = inputs.simulator();
    let cpu_start = procfs::cpu_seconds().unwrap_or(f64::NAN);
    let start = Instant::now();
    std::hint::black_box(simulator.run());
    let wall_s = start.elapsed().as_secs_f64();
    (
        wall_s,
        procfs::cpu_seconds().unwrap_or(f64::NAN) - cpu_start,
    )
}

/// The traced run: per-layer metrics for simulation 0 of `seed`.
/// `trace.overhead_frac` compares the traced replay's exchange loop with
/// an untraced serial `Simulator::run` of the same simulation; neither
/// side includes building the topology or the nodes.
pub fn run_traced(workload: Workload, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let inputs = workload.inputs(seed, 0);
    let nodes = workload.nodes();

    // Traced pass: spans around the simulator's public entry points; then
    // dropping the report and the simulator measures their heap footprint.
    let root = tracer.name("sim");
    let root = tracer.enter(root);
    let new_span = tracer.name("netsim.sim.new");
    let mut simulator = tracer.time(new_span, || inputs.simulator());
    let mut adversaries = simulator.adversaries();
    adversaries.sort_unstable();
    let run_span = tracer.name("netsim.sim.run");
    let report = tracer.time(run_span, || simulator.run());
    tracer.exit(root);
    let counts = Counts::of(report.config(STACK).expect("the stack ran"));
    let report_bytes = alloc::bytes_freed_by_drop(report);
    let state_bytes = alloc::bytes_freed_by_drop(simulator);

    // Untraced passes: CPU utilisation on the workload's executor, and the
    // serial wall time the replay's is compared with.
    let (executor_s, cpu_s) = timed_run(&inputs);
    let serial_s = match inputs.threads {
        None => executor_s,
        Some(_) => {
            timed_run(&Inputs {
                threads: None,
                ..inputs.clone()
            })
            .0
        }
    };

    // Replay of the same seed's exchange stream, every call in a span.
    let spec = ReplaySpec {
        workload: inputs.workload.clone(),
        sim_config: inputs.sim_config.clone(),
        node_config: inputs.node_config.clone(),
        scenario: inputs.scenario.clone(),
        adversaries,
    };
    let replayed = replay::run(spec, tracer).expect("the workloads use replayable features");
    outcome.attempted += counts.probes_sent;
    if replayed.counts.schedule_counts() != counts.schedule_counts() {
        eprintln!(
            "check failed: replay counted {:?}, the run reported {counts:?}",
            replayed.counts
        );
        outcome.failed += counts.probes_sent;
    }
    let feed = feeds::run(
        &inputs.node_config,
        &replayed.observations,
        &replayed.system_moves,
        tracer,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4EAD);
    let index = replayed.index.as_ref().expect("the index feed is on");
    let (_, wrong) = read_index(index, READS_PER_RUN, &mut rng, Some(tracer));
    outcome.attempted += READS_PER_RUN as u64;
    outcome.failed += wrong;
    let (splits, merges) = index.rebalances();
    let shard_count = index.shard_count();

    let spans = tracer.len();
    let summary = std::mem::take(tracer).finish();
    let mean = |name: &str| summary.mean_self_ns(name);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let queue = |name: &str| summary.totals(name);
    let (schedule, pop) = (
        queue("netsim.event_queue.schedule"),
        queue("netsim.event_queue.pop"),
    );
    outcome.set(
        "netsim.event_queue.op_ns",
        ratio(schedule.self_ns + pop.self_ns, schedule.count + pop.count),
    );
    outcome.set(
        "netsim.event_queue.depth_max",
        replayed.queue_depth_max as f64,
    );
    outcome.set(
        "netsim.linkmodel.sample_ns",
        mean("netsim.linkmodel.sample"),
    );
    outcome.set(
        "netsim.linkmodel.links_per_node",
        replayed.links as f64 / nodes as f64,
    );
    outcome.set(
        "netsim.linkmodel.bytes_per_link",
        ratio(replayed.link_bytes, replayed.links as u64),
    );
    outcome.set("netsim.sim.cpu_util", cpu_s / executor_s);
    outcome.set("netsim.sim.probes_sent", counts.probes_sent as f64);
    outcome.set(
        "netsim.sim.responses_received",
        counts.responses_received as f64,
    );
    outcome.set("netsim.sim.probes_lost", counts.probes_lost as f64);
    outcome.set(
        "netsim.sim.responses_ignored",
        counts.responses_ignored as f64,
    );
    outcome.set(
        "netsim.sim.observations_rejected",
        counts.observations_rejected as f64,
    );
    outcome.set(
        "netsim.sim.neighbors_evicted",
        counts.neighbors_evicted as f64,
    );
    outcome.set(
        "netsim.sim.state_bytes_per_node",
        state_bytes as f64 / nodes as f64,
    );
    outcome.set(
        "netsim.metrics.report_bytes_per_node",
        report_bytes as f64 / nodes as f64,
    );
    let handle_response = mean("core.handle_response");
    outcome.set("core.handle_response_ns", handle_response);
    outcome.set("core.respond_ns", mean("core.respond"));
    outcome.set("core.probe_request_ns", mean("core.probe_request"));
    outcome.set("core.handle_timeout_ns", mean("core.handle_timeout"));
    outcome.set("core.expire_pending_ns", mean("core.expire_pending"));
    outcome.set(
        "core.events_per_response",
        ratio(
            replayed.response_events,
            summary.totals("core.handle_response").count,
        ),
    );
    outcome.set(
        "core.allocs_per_exchange",
        ratio(replayed.engine_allocations, replayed.counts.probes_sent),
    );
    outcome.set(
        "core.bytes_per_node",
        replayed.node_bytes as f64 / nodes as f64,
    );
    set_layer_metrics(&mut outcome, &summary, &feed, handle_response);
    // The run's own acceptance rate: digested replies whose observation the
    // gate and Vivaldi took, over digested replies (the paper's filter
    // passes every reply on).
    outcome.set(
        "vivaldi.gate_accept_ratio",
        1.0 - ratio(counts.observations_rejected, counts.responses_received),
    );
    outcome.set("query.update_ns", mean("query.update"));
    outcome.set("query.knn_ns", mean("query.knn"));
    outcome.set("query.rebalances", (splits + merges) as f64);
    outcome.set("query.shard_count", shard_count as f64);
    crate::set_absent_layers(&mut outcome, &["proto.", "transport."]);
    outcome.set("trace.overhead_frac", replayed.exchange_s / serial_s - 1.0);
    outcome.set("trace.spans", spans as f64);
    crate::write_trace(&summary, workload.name(), seed);
    outcome
}

/// Sets the filter, Vivaldi and change metrics from a feed, and the
/// composition gap: one `handle_response` call minus the per-observation
/// cost of the three layers it composes.
fn set_layer_metrics(
    outcome: &mut Outcome,
    summary: &crate::trace::TraceSummary,
    feed: &feeds::FeedCounts,
    handle_response_ns: f64,
) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    outcome.set(
        "filters.observe_ns",
        summary.mean_self_ns("filters.observe"),
    );
    outcome.set(
        "filters.emit_ratio",
        ratio(feed.filter_outputs, feed.filter_inputs),
    );
    outcome.set(
        "vivaldi.observe_ns",
        summary.mean_self_ns("vivaldi.observe"),
    );
    outcome.set("vivaldi.gate_ns", summary.mean_self_ns("vivaldi.gate"));
    outcome.set(
        "change.on_system_update_ns",
        summary.mean_self_ns("change.on_system_update"),
    );
    outcome.set(
        "change.app_update_ratio",
        ratio(feed.app_updates, feed.system_updates),
    );
    let layers_ns: u64 = [
        "filters.observe",
        "vivaldi.gate",
        "vivaldi.observe",
        "change.on_system_update",
    ]
    .iter()
    .map(|name| summary.totals(name).self_ns)
    .sum();
    let per_observation = ratio(layers_ns, feed.filter_inputs);
    outcome.set(
        "core.composition_gap_ns",
        handle_response_ns - per_observation,
    );
}
