//! Standalone layer feeds: a recorded observation stream pushed through
//! one layer at a time, outside the engine, so each layer's per-call cost
//! is measured on its own.
//!
//! * raw RTTs, per link, through the configured per-link filter
//!   ([`MovingPercentileFilter::observe`] for the paper's stack);
//! * the engine's filtered RTTs, per node, through the [`OutlierGate`]
//!   (when configured) and [`VivaldiState::observe`];
//! * the engine's system coordinates, per node, through
//!   [`ApplicationCoordinate::on_system_update`].

use std::collections::BTreeMap;

use nc_change::heuristics::make_heuristic;
use nc_change::{ApplicationCoordinate, EnergyHeuristic, UpdateContext};
use nc_filters::{make_filter, LatencyFilter, MovingPercentileFilter};
use nc_vivaldi::{Coordinate, OutlierGate, RemoteObservation, VivaldiState};
use stable_nc::{FilterConfig, HeuristicConfig, NodeConfig};

use crate::replay::Observation;
use crate::trace::Tracer;

/// What the feeds counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedCounts {
    /// Raw observations fed to the filters.
    pub filter_inputs: u64,
    /// Estimates the filters emitted.
    pub filter_outputs: u64,
    /// System coordinates fed to the change heuristic.
    pub system_updates: u64,
    /// Application updates it published.
    pub app_updates: u64,
}

fn build_filter(config: &FilterConfig) -> Box<dyn LatencyFilter + Send> {
    match config {
        FilterConfig::MovingPercentile {
            history,
            percentile,
        } => Box::new(
            MovingPercentileFilter::new(*history, *percentile).expect("a validated node config"),
        ),
        other => make_filter(other.kind()),
    }
}

fn build_application(config: &HeuristicConfig, dimensions: usize) -> Option<ApplicationCoordinate> {
    let heuristic = match config {
        HeuristicConfig::FollowSystem => return None,
        HeuristicConfig::Energy { threshold, window } => {
            Box::new(EnergyHeuristic::new(*threshold, *window))
        }
        other => make_heuristic(other.kind()?),
    };
    Some(ApplicationCoordinate::new(
        Coordinate::origin(dimensions),
        heuristic,
    ))
}

/// Feeds `observations` and `system_moves` through the layers of `config`,
/// one layer at a time, timing every call into `tracer`.
pub fn run(
    config: &NodeConfig,
    observations: &[Observation],
    system_moves: &[(u32, Coordinate)],
    tracer: &mut Tracer,
) -> FeedCounts {
    let filter_span = tracer.name("filters.observe");
    let gate_span = tracer.name("vivaldi.gate");
    let vivaldi_span = tracer.name("vivaldi.observe");
    let change_span = tracer.name("change.on_system_update");
    let mut counts = FeedCounts::default();

    let mut filters: BTreeMap<(u32, u32), Box<dyn LatencyFilter + Send>> = BTreeMap::new();
    for observation in observations {
        let filter = filters
            .entry((observation.node, observation.peer))
            .or_insert_with(|| build_filter(&config.filter));
        counts.filter_inputs += 1;
        let emitted = tracer.time(filter_span, || filter.observe(observation.raw_rtt_ms));
        counts.filter_outputs += u64::from(std::hint::black_box(emitted).is_some());
    }

    let mut states: BTreeMap<u32, (VivaldiState, Option<OutlierGate>)> = BTreeMap::new();
    for observation in observations {
        let Some(filtered) = observation.filtered_rtt_ms else {
            continue;
        };
        let (state, gate) = states.entry(observation.node).or_insert_with(|| {
            (
                VivaldiState::new(config.vivaldi.clone()),
                config.outlier_gate.clone().map(OutlierGate::new),
            )
        });
        let mut remote_error = observation.remote_error;
        if let Some(gate) = gate {
            let residual = filtered - state.coordinate().distance(&observation.remote);
            let admitted = tracer.time(gate_span, || {
                let admitted = gate.admits(residual);
                if admitted {
                    gate.record(residual);
                }
                admitted
            });
            if !admitted {
                continue;
            }
            remote_error = remote_error.max(gate.config().min_remote_error);
        }
        let remote = RemoteObservation::new(observation.remote.clone(), remote_error, filtered);
        let outcome = tracer.time(vivaldi_span, || state.observe(&remote));
        std::hint::black_box(outcome);
    }

    let dimensions = config.vivaldi.dimensions();
    let context = UpdateContext::default();
    let mut applications: BTreeMap<u32, ApplicationCoordinate> = BTreeMap::new();
    for (node, system) in system_moves {
        if !applications.contains_key(node) {
            match build_application(&config.heuristic, dimensions) {
                Some(application) => applications.insert(*node, application),
                None => break,
            };
        }
        let application = applications.get_mut(node).expect("inserted above");
        counts.system_updates += 1;
        let update = tracer.time(change_span, || {
            application.on_system_update(system, &context)
        });
        counts.app_updates += u64::from(update.is_some());
    }
    counts
}
