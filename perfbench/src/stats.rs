//! Small numeric helpers shared by the workloads.

use std::time::{Duration, Instant};

use crate::procfs;

/// The `p`-th percentile (0–100) of `values` by nearest rank, or `None` for
/// an empty slice. Sorts in place, without allocating: a stable sort's
/// scratch buffer would add a transient spike to the peak memory measured.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// The median of `values` (nearest rank), or `None` for an empty slice.
pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// splitmix64: derives independent, reproducible streams from one seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of the samples taken while the hypervisor stole the least
/// CPU time: those whose stolen share is at most the `calm_percentile`-th
/// percentile of the shares. On a machine that steals nothing every sample
/// counts. On a shared virtual machine, this keeps the stretches when
/// another tenant took the CPUs away out of the figure for this program.
pub fn calm_median(values: &[f64], steal_shares: &[f64], calm_percentile: f64) -> Option<f64> {
    let mut shares = steal_shares.to_vec();
    let limit = percentile(&mut shares, calm_percentile)?;
    let mut calm: Vec<f64> = values
        .iter()
        .zip(steal_shares)
        .filter(|(_, share)| **share <= limit)
        .map(|(value, _)| *value)
        .collect();
    median(&mut calm)
}

/// A closed loop's measurements, cut into windows of fixed length.
///
/// Each window yields its operation rate and its latency percentiles; the
/// run reports the [`calm_median`] window, so a burst of interference from
/// elsewhere on the host moves one window rather than the result. Time
/// excluded with [`Windows::exclude`] (output checks) counts toward no
/// window.
pub struct Windows {
    length: Duration,
    calm_percentile: f64,
    window_start: Instant,
    window_steal: Option<(u64, u64)>,
    excluded: Duration,
    operations: u64,
    latencies_us: Vec<f64>,
    rates: Vec<f64>,
    p50s_us: Vec<f64>,
    p99s_us: Vec<f64>,
    steal_shares: Vec<f64>,
}

/// Medians over the windows of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Operations per second.
    pub rate: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
}

/// Latency samples one window holds without growing. The buffer is written
/// once up front so that it is resident from the start: the peak memory of
/// a run must not depend on how fast the loop happened to go.
const WINDOW_SAMPLES: usize = 1 << 19;

impl Windows {
    /// Starts the first window now. The run reports the median of the
    /// windows whose stolen share is at most the `calm_percentile`-th
    /// percentile of the run's shares.
    pub fn new(length: Duration, calm_percentile: f64) -> Self {
        let mut latencies_us = vec![f64::NAN; WINDOW_SAMPLES];
        latencies_us.clear();
        Windows {
            length,
            calm_percentile,
            window_start: Instant::now(),
            window_steal: procfs::steal_ticks(),
            excluded: Duration::ZERO,
            operations: 0,
            latencies_us,
            rates: Vec::new(),
            p50s_us: Vec::new(),
            p99s_us: Vec::new(),
            steal_shares: Vec::new(),
        }
    }

    /// Counts one completed operation, with its latency when it has one.
    pub fn operation(&mut self, latency_us: Option<f64>) {
        self.operations += 1;
        if let Some(latency) = latency_us {
            self.latencies_us.push(latency);
        }
        if self.operations.is_multiple_of(64) {
            self.roll(false);
        }
    }

    /// Leaves `spent` out of the current window's time.
    pub fn exclude(&mut self, spent: Duration) {
        self.excluded += spent;
    }

    fn roll(&mut self, force: bool) {
        let busy = self.window_start.elapsed().saturating_sub(self.excluded);
        if busy < self.length && !force {
            return;
        }
        let steal = procfs::steal_ticks();
        let (p50, p99) = (
            percentile(&mut self.latencies_us, 50.0),
            percentile(&mut self.latencies_us, 99.0),
        );
        if self.operations > 0 {
            self.rates.push(self.operations as f64 / busy.as_secs_f64());
            self.p50s_us.push(p50.unwrap_or(f64::NAN));
            self.p99s_us.push(p99.unwrap_or(f64::NAN));
            self.steal_shares
                .push(procfs::steal_share(self.window_steal, steal));
        }
        self.window_start = Instant::now();
        self.window_steal = steal;
        self.excluded = Duration::ZERO;
        self.operations = 0;
        self.latencies_us.clear();
    }

    /// The median window. A trailing partial window counts only when no
    /// window completed.
    pub fn finish(mut self) -> WindowSummary {
        if self.rates.is_empty() {
            self.roll(true);
        }
        let calm = |values: &[f64]| {
            calm_median(values, &self.steal_shares, self.calm_percentile).unwrap_or(f64::NAN)
        };
        WindowSummary {
            rate: calm(&self.rates),
            p50_us: calm(&self.p50s_us),
            p99_us: calm(&self.p99s_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut values = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut values), Some(3.0));
        assert_eq!(percentile(&mut values, 99.0), Some(5.0));
        assert_eq!(percentile(&mut values, 0.0), Some(1.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn the_calm_median_leaves_out_the_most_stolen_samples() {
        let values = [10.0, 11.0, 12.0, 3.0, 2.0, 13.0, 14.0, 1.0];
        assert_eq!(calm_median(&values, &[0.0; 8], 25.0), Some(10.0));
        let shares = [0.01, 0.01, 0.01, 0.3, 0.25, 0.2, 0.2, 0.4];
        assert_eq!(calm_median(&values, &shares, 25.0), Some(11.0));
        assert_eq!(calm_median(&[], &[], 25.0), None);
    }

    #[test]
    fn a_run_shorter_than_a_window_still_reports() {
        let mut windows = Windows::new(Duration::from_secs(3600), 25.0);
        for latency in [1.0, 2.0, 3.0] {
            windows.operation(Some(latency));
        }
        windows.operation(None);
        let summary = windows.finish();
        assert_eq!(summary.p50_us, 2.0);
        assert!(summary.rate > 0.0);
    }
}
