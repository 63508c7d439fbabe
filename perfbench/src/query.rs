//! `query_mixed_100k`: a single-thread closed loop against a 100,000-entry
//! [`CoordinateIndex`]. Each operation waits for the previous one. No
//! engine work runs, so the loop isolates the index's read and write paths.
//!
//! The traffic follows what the simulations measure. A write is a node's
//! application-level update: an `update` that moves the node by
//! [`UPDATE_STEP_MS`], or, for [`CHURN_PER_MILLE`] of the writes, churn (a
//! `remove`, or the re-insert of the node removed last). After every write
//! that leaves the node in the index, that node reads its `k_nearest`
//! (k = 8) at its new coordinate: an application acts on each
//! application-level update, which is the work the paper's change
//! detection saves. Reads by anyone else are not modelled, because no
//! source gives their rate; the read latencies are reported per read, so
//! a read-heavier mix would move the same figures. With one read per
//! write, a change that speeds reads by slowing writes shows in
//! `ops_per_s` as soon as it costs the writes more time than it saves the
//! reads.

use std::time::{Duration, Instant};

use nc_query::{CoordinateIndex, QueryConfig, QueryMatch};
use nc_vivaldi::Coordinate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Outcome;
use crate::procfs;
use crate::stats::{median, WindowSummary, Windows};
use crate::trace::Tracer;

/// Tracked nodes.
pub const ENTRIES: usize = 100_000;
/// Neighbours per read.
const K: usize = 8;
/// Index builds per run; the median is `setup_s`.
const BUILDS: usize = 9;
/// Distance, ms, that one `update` moves a node: the mean displacement of
/// an application-level update in `sim_churn_256`'s measurement window
/// (9.2 and 11.3 ms for its first two seeds; a test keeps the two in step).
pub const UPDATE_STEP_MS: f64 = 10.0;
/// Writes per thousand that are churn. `sim_churn_256` crashes and
/// restarts a quarter of its nodes once an hour: 0.5 churn events per
/// node-hour beside about 12.9 application updates, 37 in 1000 (a test
/// keeps the two in step).
pub const CHURN_PER_MILLE: u32 = 37;
/// Every this many reads, one answer is checked by brute force.
const CHECK_EVERY: usize = 2_000;
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_secs(1);

/// True when `answer` is exactly the `k` entries nearest to `target` in
/// `(distance, id)` order, as a scan over [`CoordinateIndex::iter`] finds
/// them.
pub fn knn_matches_brute_force<Id: Clone + Ord + std::hash::Hash>(
    index: &CoordinateIndex<Id>,
    target: &Coordinate,
    k: usize,
    answer: &[QueryMatch<Id>],
) -> bool {
    let all = brute_force_knn(index, target, k);
    answer.len() == all.len()
        && answer.iter().zip(&all).all(|(got, (distance, id))| {
            got.id == **id
                && (got.distance_ms - distance).abs() <= 1e-9 * distance.abs().max(1.0)
                && index.coordinate_of(&got.id) == Some(&got.coordinate)
        })
}

/// The `k` entries nearest to `target` by a scan over
/// [`CoordinateIndex::iter`], in `(distance, id)` order.
fn brute_force_knn<'a, Id: Clone + Ord + std::hash::Hash>(
    index: &'a CoordinateIndex<Id>,
    target: &Coordinate,
    k: usize,
) -> Vec<(f64, &'a Id)> {
    let mut all: Vec<(f64, &Id)> = index
        .iter()
        .map(|(id, coordinate)| (target.distance(coordinate), id))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    all.truncate(k);
    all
}

/// Prints to standard error an answer that failed
/// [`knn_matches_brute_force`] beside what the scan finds.
pub fn report_knn_mismatch<Id: Clone + Ord + std::hash::Hash + std::fmt::Debug>(
    index: &CoordinateIndex<Id>,
    target: &Coordinate,
    k: usize,
    answer: &[QueryMatch<Id>],
) {
    let got: Vec<(f64, &Id)> = answer.iter().map(|m| (m.distance_ms, &m.id)).collect();
    eprintln!(
        "check failed: k_nearest({target:?}, {k}) answered {got:?}; a scan finds {:?}",
        brute_force_knn(index, target, k)
    );
}

/// A coordinate spread over ±300 ms per axis with a few ms of height: a
/// terrestrial embedding's scale.
fn coordinate(rng: &mut StdRng) -> Coordinate {
    let components = [
        rng.gen_range(-300.0..300.0),
        rng.gen_range(-300.0..300.0),
        rng.gen_range(-300.0..300.0),
    ];
    Coordinate::with_height(components, rng.gen_range(0.0..4.0)).expect("finite")
}

/// `coordinate` moved [`UPDATE_STEP_MS`] in a random direction.
fn stepped(coordinate: &Coordinate, rng: &mut StdRng) -> Coordinate {
    let direction: Vec<f64> = coordinate
        .components()
        .iter()
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let length = direction.iter().map(|d| d * d).sum::<f64>().sqrt();
    let scale = UPDATE_STEP_MS / length.max(f64::MIN_POSITIVE);
    let components: Vec<f64> = coordinate
        .components()
        .iter()
        .zip(&direction)
        .map(|(c, d)| c + d * scale)
        .collect();
    Coordinate::with_height(components, coordinate.height()).expect("finite")
}

/// The generated inputs: the initial population and the generator that
/// draws the operation stream.
struct Inputs {
    population: Vec<Coordinate>,
    rng: StdRng,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = (0..ENTRIES).map(|_| coordinate(&mut rng)).collect();
    Inputs { population, rng }
}

fn build(population: &[Coordinate]) -> CoordinateIndex<u32> {
    let mut index = CoordinateIndex::new(QueryConfig::default()).expect("default config");
    for (id, coordinate) in population.iter().enumerate() {
        index
            .update(id as u32, coordinate)
            .expect("finite 3-D coordinate");
    }
    index
}

/// What one closed-loop pass measured.
struct Pass {
    /// Median window: operations per second and read latency.
    windows: WindowSummary,
    operations: u64,
    failed: u64,
    /// Wall time of the operations, check time excluded.
    busy_s: f64,
}

/// Runs the operation mix for `budget`, optionally recording one span per
/// operation.
fn closed_loop(
    index: &mut CoordinateIndex<u32>,
    current: &mut [Coordinate],
    rng: &mut StdRng,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let names = tracer.as_mut().map(|t| {
        (
            t.name("query.knn"),
            t.name("query.update"),
            t.name("query.churn"),
        )
    });
    let mut windows = Windows::new(WINDOW, 25.0);
    let mut operations = 0;
    let mut failed = 0;
    let mut removed: Option<u32> = None;
    let started = Instant::now();
    let mut checking = Duration::ZERO;
    let mut reads = 0usize;
    while started.elapsed() < budget + checking {
        let node = rng.gen_range(0..ENTRIES as u32);
        // The write. Updating the removed node re-inserts it.
        let churn = rng.gen_range(0..1000u32) < CHURN_PER_MILLE && removed != Some(node);
        let start = Instant::now();
        let (ok, reader) = if churn {
            match removed.take() {
                Some(back) => (
                    index.update(back, &current[back as usize]).is_ok(),
                    Some(back),
                ),
                None => {
                    removed = Some(node);
                    (index.remove(&node), None)
                }
            }
        } else {
            let moved = stepped(&current[node as usize], rng);
            let result = index.update(node, &moved);
            if result.is_ok() {
                current[node as usize] = moved;
            }
            if removed == Some(node) {
                removed = None;
            }
            (result.is_ok(), Some(node))
        };
        let end = Instant::now();
        if let (Some(t), Some((_, update, churn_name))) = (tracer.as_mut(), names) {
            t.record(if churn { churn_name } else { update }, start, end);
        }
        windows.operation(None);
        operations += 1;
        if !ok {
            failed += 1;
        }
        let Some(reader) = reader else {
            continue;
        };

        // The read: the written node's neighbours at its new coordinate.
        let target = &current[reader as usize];
        let start = Instant::now();
        let answer = index.k_nearest(target, K);
        let end = Instant::now();
        if let (Some(t), Some((knn, _, _))) = (tracer.as_mut(), names) {
            t.record(knn, start, end);
        }
        windows.operation(Some((end - start).as_secs_f64() * 1e6));
        operations += 1;
        reads += 1;
        match answer {
            Ok(answer) if reads.is_multiple_of(CHECK_EVERY) => {
                let check_start = Instant::now();
                if !knn_matches_brute_force(index, target, K, &answer) {
                    report_knn_mismatch(index, target, K, &answer);
                    failed += 1;
                }
                let spent = check_start.elapsed();
                checking += spent;
                windows.exclude(spent);
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let busy_s = (started.elapsed() - checking).as_secs_f64();
    if let Some(back) = removed {
        if index.update(back, &current[back as usize]).is_err() {
            failed += 1;
        }
    }
    Pass {
        windows: windows.finish(),
        operations,
        failed,
        busy_s,
    }
}

/// One untraced run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let Inputs {
        population,
        mut rng,
    } = inputs(seed);
    let mut setups = Vec::with_capacity(BUILDS);
    let mut index = None;
    for _ in 0..BUILDS {
        drop(index.take());
        let start = Instant::now();
        index = Some(build(&population));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut index = index.expect("built at least once");
    let mut current = population;
    let pass = closed_loop(&mut index, &mut current, &mut rng, budget, None);
    let mut outcome = Outcome {
        attempted: pass.operations,
        failed: pass.failed,
        ..Outcome::default()
    };
    if index.len() != ENTRIES {
        outcome.failed += 1;
    }
    outcome.set("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    outcome.set("ops_per_s", pass.windows.rate);
    outcome.set("read_p50_us", pass.windows.p50_us);
    outcome.set("read_p99_us", pass.windows.p99_us);
    outcome.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(f64::NAN));
    crate::set_no_ground_truth(&mut outcome);
    outcome.set(
        "ok_frac",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome
}

/// The traced run: half the budget untraced, half with one span per
/// operation.
pub fn run_traced(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let Inputs {
        population,
        mut rng,
    } = inputs(seed);
    let mut index = build(&population);
    let mut current = population;
    let half = budget / 2;
    let untraced = closed_loop(&mut index, &mut current, &mut rng, half, None);
    let root = tracer.name("query");
    let root = tracer.enter(root);
    let traced = closed_loop(&mut index, &mut current, &mut rng, half, Some(tracer));
    tracer.exit(root);
    let mut outcome = Outcome {
        attempted: untraced.operations + traced.operations,
        failed: untraced.failed + traced.failed,
        ..Outcome::default()
    };
    let (splits, merges) = index.rebalances();
    let spans = tracer.len();
    let summary = std::mem::take(tracer).finish();
    outcome.set("query.update_ns", summary.mean_self_ns("query.update"));
    outcome.set("query.knn_ns", summary.mean_self_ns("query.knn"));
    outcome.set("query.rebalances", (splits + merges) as f64);
    outcome.set("query.shard_count", index.shard_count() as f64);
    let untraced_rate = untraced.operations as f64 / untraced.busy_s;
    let traced_rate = traced.operations as f64 / traced.busy_s;
    outcome.set("trace.overhead_frac", untraced_rate / traced_rate - 1.0);
    outcome.set("trace.spans", spans as f64);
    crate::set_absent_layers(
        &mut outcome,
        &[
            "netsim.",
            "core.",
            "filters.",
            "vivaldi.",
            "change.",
            "proto.",
            "transport.",
        ],
    );
    crate::write_trace(&summary, "query_mixed_100k", seed);
    outcome
}
