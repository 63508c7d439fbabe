//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports every metric of the mode it runs in: the
//! end-to-end list untraced, the per-layer list traced. A per-layer metric
//! of a layer the workload never calls reads 0. The lists here must match
//! `BENCHMARK.json`; a test checks that they do.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
///
/// * `setup_s` — median set-up time of the runs in one process: topology
///   plus `Simulator::new`, the index build, or the runtime bind.
/// * `ops_per_s` — counted operations per second of timed wall time:
///   probes sent as `SimReport` counts them, index reads plus writes, or
///   completed UDP request/reply exchanges.
/// * `read_p50_us`, `read_p99_us` — latency of one read: `k_nearest` on
///   the index (for the simulations, the index their own run fed), or a
///   UDP request/reply round trip.
/// * `peak_rss_mb` — the process's resident high-water mark.
/// * `rel_error_p50`, `instability_ms_per_s`, `app_updates_per_node_h` —
///   the paper's accuracy and stability outcomes over honest nodes in the
///   measurement window. Only the simulations have a ground truth; the
///   query and UDP workloads report 1 for all three.
/// * `ok_frac` — operations whose output check passed ÷ attempted.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("rel_error_p50", "ratio"),
    ("instability_ms_per_s", "ms/s"),
    ("app_updates_per_node_h", "1/h"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. Times are mean self time per call of
/// the named public function, measured from spans in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.event_queue.op_ns", "ns"),
    ("netsim.event_queue.depth_max", "count"),
    ("netsim.linkmodel.sample_ns", "ns"),
    ("netsim.linkmodel.links_per_node", "count"),
    ("netsim.linkmodel.bytes_per_link", "B"),
    ("netsim.sim.cpu_util", "ratio"),
    ("netsim.sim.probes_sent", "count"),
    ("netsim.sim.responses_received", "count"),
    ("netsim.sim.probes_lost", "count"),
    ("netsim.sim.responses_ignored", "count"),
    ("netsim.sim.observations_rejected", "count"),
    ("netsim.sim.neighbors_evicted", "count"),
    ("netsim.sim.state_bytes_per_node", "B"),
    ("netsim.metrics.report_bytes_per_node", "B"),
    ("core.handle_response_ns", "ns"),
    ("core.respond_ns", "ns"),
    ("core.probe_request_ns", "ns"),
    ("core.handle_timeout_ns", "ns"),
    ("core.expire_pending_ns", "ns"),
    ("core.events_per_response", "count"),
    ("core.allocs_per_exchange", "count"),
    ("core.bytes_per_node", "B"),
    ("core.composition_gap_ns", "ns"),
    ("filters.observe_ns", "ns"),
    ("filters.emit_ratio", "ratio"),
    ("vivaldi.observe_ns", "ns"),
    ("vivaldi.gate_ns", "ns"),
    ("vivaldi.gate_accept_ratio", "ratio"),
    ("change.on_system_update_ns", "ns"),
    ("change.app_update_ratio", "ratio"),
    ("query.update_ns", "ns"),
    ("query.knn_ns", "ns"),
    ("query.rebalances", "count"),
    ("query.shard_count", "count"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.request_bytes", "B"),
    ("proto.response_bytes", "B"),
    ("transport.requests_answered", "count"),
    ("transport.client_wait_us", "us"),
    ("transport.timeouts", "count"),
    ("transport.malformed_datagrams", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_ns", "ns"),
    ("trace.spans", "count"),
];

/// True when `name` is made only of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One run's outcome: the output-check tally and the measured metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Renders the result line for `catalogue`. Fails when a metric of the
    /// catalogue is missing or one outside it was set — a bug in the
    /// workload, not a measurement — and counts a non-finite value as a
    /// failed operation.
    pub fn render(mut self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|name| !catalogue.iter().any(|(known, _)| known == *name))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let Some(&value) = self.values.get(name) else {
                return Err(format!("metric {name} was not measured"));
            };
            let value = if value.is_finite() {
                value
            } else {
                self.failed += 1;
                0.0
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let attempted = self.attempted.max(1);
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("quote\""));
    }

    #[test]
    fn render_requires_the_whole_catalogue() {
        let catalogue: &[(&str, &str)] = &[("a", "s"), ("b", "ms")];
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("a", 1.5);
        assert!(outcome.render(catalogue).is_err());

        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("a", 1.5);
        outcome.set("b", f64::NAN);
        let line = outcome.render(catalogue).unwrap();
        assert!(line.contains("\"correct\": false"), "{line}");
        assert!(
            line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{line}"
        );
    }
}
