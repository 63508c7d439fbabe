//! The repository's benchmark: one command that runs a named workload from
//! a seed, prints every end-to-end metric with its unit, and checks that the
//! program's outputs are correct. A traced run (`--trace 1`) prints the
//! per-layer metrics instead, timed from spans this crate records around
//! calls into each layer's public functions.
//!
//! Workloads (see `BENCHMARK.json` at the repository root for why each one
//! is there):
//!
//! * `sim_mesh_4096` — [`sim::Workload::Mesh`]
//! * `sim_churn_256` — [`sim::Workload::Churn`]
//! * `query_mixed_100k` — [`query`]
//! * `udp_loopback` — [`udp`]

pub mod alloc;
pub mod feeds;
pub mod metrics;
pub mod procfs;
pub mod query;
pub mod replay;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod udp;

use metrics::{Outcome, PER_LAYER};
use trace::TraceSummary;

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
const TRACE_DIR: &str = ".bench_trace";

/// Spans written per traced run; the per-name totals cover all of them.
const SPANS_WRITTEN: usize = 200_000;

/// Writes a finished trace to `TRACE_DIR/<workload>-<seed>.tsv`. A write
/// failure is reported and does not fail the run.
pub fn write_trace(summary: &TraceSummary, workload: &str, seed: u64) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{workload}-{seed}.tsv"));
    if let Err(error) = summary.write(&path, SPANS_WRITTEN) {
        eprintln!("could not write {}: {error}", path.display());
    }
}

/// The accuracy and stability metrics of a workload without a simulated
/// ground truth: 1, so every workload reports the same metric set and none
/// reads 0.
pub fn set_no_ground_truth(outcome: &mut Outcome) {
    outcome.set("rel_error_p50", 1.0);
    outcome.set("instability_ms_per_s", 1.0);
    outcome.set("app_updates_per_node_h", 1.0);
}

/// Sets to 0 every per-layer metric under `prefixes` that the workload did
/// not measure: those layers are not on its path.
pub fn set_absent_layers(outcome: &mut Outcome, prefixes: &[&str]) {
    for (name, _) in PER_LAYER {
        if prefixes.iter().any(|prefix| name.starts_with(prefix))
            && !outcome.values.contains_key(name)
        {
            outcome.set(name, 0.0);
        }
    }
}
