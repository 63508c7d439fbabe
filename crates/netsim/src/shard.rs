//! The simulator's event loop and its executor.
//!
//! Every [`Simulator::run`](crate::sim::Simulator::run) goes through this
//! module, whatever its worker count. A simulation interleaves two very
//! different kinds of work. The *schedule* — who probes whom and when,
//! which packets the link model drops, what gossip teaches the rotation,
//! what the scenario script does — is cheap and inherently sequential:
//! every decision flows through one protocol RNG and one global clock. The
//! *engine* work — filters, Vivaldi updates, response construction, metric
//! folding — is expensive and node-local.
//!
//! 1. **Plan (serial).** The [`Planner`] pops the event queue and makes
//!    every schedule decision against the real [`ScheduleState`]. The only
//!    engine state that feeds back into the schedule (pending probes, loss
//!    streaks, the probe sequence counter) it reads from one [`MirrorNode`]
//!    per (configuration, node). Each decision that needs engine work
//!    becomes a self-contained [`Op`], appended to the buffer of the worker
//!    that owns the node.
//! 2. **Execute.** Whenever the buffer holds [`BATCH_OPS`] operations, and
//!    once more at the end of the run, every worker runs its share in order
//!    with [`execute`], the only code in the crate that calls the engines.
//!    Worker `w` owns a contiguous block of nodes, across all
//!    configurations, and borrows their engines, metrics and crash
//!    snapshots in place for the batch. Worker 0 runs on the calling
//!    thread, the others on scoped threads. The only cross-worker data flow
//!    is a probe response travelling from the responder's worker to the
//!    prober's; it moves through a slab of epoch-versioned [`SlotCell`]s
//!    with acquire/release handshakes, so the steady state recycles response
//!    buffers and never locks.
//!
//! Each node's engine calls happen in the order its events pop, whatever
//! the worker count, so the [`crate::metrics::SimReport`] is byte-identical
//! at every worker count — a contract enforced by the regression,
//! golden-digest and property-test suites.
//!
//! The mirrors are sufficient because an engine influences the schedule
//! through exactly three facts (see `StableNode`): whether a timeout
//! correlates with a pending probe, whether a loss streak reaches the
//! configuration's eviction threshold, and which sequence number a probe
//! carries. All three are pure functions of the mirrored state. A peer
//! leaves the shared rotation only once every configuration has evicted it
//! (the unanimity rule), so configurations with different thresholds still
//! share one schedule. Debug builds check the claim: a one-worker run
//! executes every operation as soon as it is planned and asserts that each
//! configuration's mirror of the node equals its engine.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

use nc_proto::{Event, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::CoordinateIndex;
use rand::Rng;
use stable_nc::{FxHashMap, NodeConfig, StableNode};

use crate::adversary::{apply_lie, CoordinateLie};
use crate::metrics::{NodeMetrics, TrackedCoordinate};
use crate::scenario::ScenarioAction;
use crate::sim::{ConfigRun, EngineState, EventQueue, ScheduleState, SimEnv};

/// Operations the planner buffers before the workers run them. At roughly
/// a microsecond of engine work per operation, a batch keeps each worker
/// busy for milliseconds against a thread spawn of tens of microseconds,
/// while the buffer (48 bytes an operation) stays near 200 KB however long
/// the run: planning a whole run up front held every operation at once,
/// which doubled the peak memory of a 256-node hour.
const BATCH_OPS: usize = 4096;

/// What the simulator does when the clock reaches an event. Per-exchange
/// data lives in the planner's [`Exchange`] slab; probe events carry only
/// its index, so the queue moves a few machine words per event.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// A node's probe tick: pick the next round-robin target and launch the
    /// exchange. Reschedules itself every probe interval while the node is
    /// up.
    ProbeSend { src: usize },
    /// A probe reaches its target, which answers it (the reply may then be
    /// lost on the way back).
    ProbeDeliver { src: usize, dst: usize, slot: usize },
    /// A reply reaches the prober, which digests it.
    ResponseDeliver { src: usize, dst: usize, slot: usize },
    /// The prober's timer for one probe fires; a no-op when the reply
    /// arrived first.
    ProbeTimeout { src: usize, seq: u64 },
    /// Sample the tracked nodes' coordinates (Figure 7 trajectories).
    TrackSample,
    /// Apply the next scripted scenario action.
    ScenarioAction { index: usize },
}

/// One engine operation, planned in global event order. Each carries
/// everything its worker needs; nothing it refers to changes after it is
/// queued.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `probe_request_for(dst, now_ms)` on every configuration's `node`.
    Issue { node: u32, dst: u32, now_ms: u64 },
    /// The responder's side of an exchange: answer `(dst, seq,
    /// sent_at_ms)`, stamp `rtt_ms`, apply the lie at index `lie`, then
    /// publish the responses in `slot` (a digest or discard follows) or,
    /// when the reply is lost on the way back, consume the slot use itself.
    Respond {
        dst: u32,
        slot: u32,
        epoch: u32,
        lie: Option<u32>,
        publish: bool,
        seq: u64,
        sent_at_ms: u64,
        rtt_ms: f64,
    },
    /// The prober's side: digest the responses published in `slot`.
    Digest {
        node: u32,
        slot: u32,
        epoch: u32,
        measuring: bool,
        now: f64,
    },
    /// The reply was dropped at delivery (prober down or partitioned):
    /// release the published slot use unread.
    Discard { slot: u32, epoch: u32 },
    /// `handle_timeout_into(seq)` on every configuration's `node`.
    Timeout { node: u32, seq: u64 },
    /// Take crash snapshots of every configuration's `node`.
    Crash { node: u32 },
    /// Revive `node`: fresh engines on a join, snapshot restores on a
    /// restart, expiring pre-crash pending probes either way.
    Restore { node: u32, fresh: bool, now: f64 },
    /// Sample `node`'s coordinates for the trajectory metrics.
    Track {
        node: u32,
        sample: u32,
        order: u32,
        now: f64,
    },
}

/// The planner's record of one in-flight exchange, recycled through the
/// slot free list together with the [`SlotCell`] of the same index.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    seq: u64,
    sent_at_ms: u64,
    rtt_ms: f64,
    reverse_delay_s: f64,
    reverse_lost: bool,
    /// Uses of this slot's cell so far; the current use's epoch.
    epoch: u32,
}

/// The per-(configuration, node) mirror of the engine state that feeds back
/// into the shared schedule: `StableNode`'s pending-probe table, loss
/// streaks and probe sequence counter — nothing else, because nothing else
/// the engine does can alter who gets probed when.
#[derive(Debug, Default, Clone)]
pub(crate) struct MirrorNode {
    probe_seq: u64,
    pending: Vec<MirrorPending>,
    streaks: FxHashMap<usize, u32>,
}

#[derive(Debug, Clone, Copy)]
struct MirrorPending {
    seq: u64,
    target: usize,
}

impl MirrorNode {
    /// Mirrors `probe_request_for`: registers the pending probe and returns
    /// the sequence number the engine assigns.
    fn issue(&mut self, target: usize) -> u64 {
        let seq = self.probe_seq;
        self.probe_seq = self.probe_seq.wrapping_add(1);
        self.pending.push(MirrorPending { seq, target });
        seq
    }

    /// Mirrors the pending/streak effects of `handle_response_into`: a
    /// correlated reply settles its pending entry and clears the streak; an
    /// uncorrelated one is ignored (once the node has ever issued a probe)
    /// and changes nothing.
    fn response(&mut self, responder: usize, seq: u64) {
        match self
            .pending
            .iter()
            .position(|probe| probe.seq == seq && probe.target == responder)
        {
            Some(position) => {
                self.pending.remove(position);
            }
            None if self.probe_seq > 0 => return,
            None => {}
        }
        self.streaks.remove(&responder);
    }

    /// Mirrors `handle_timeout_into`: returns the lost probe's target (if
    /// the timeout still correlates) and whether the loss streak evicted it.
    /// Eviction also releases every other pending probe of the same target,
    /// exactly as `StableNode::evict` does.
    fn timeout(&mut self, seq: u64, max_losses: Option<u32>) -> (Option<usize>, bool) {
        let Some(position) = self.pending.iter().position(|probe| probe.seq == seq) else {
            return (None, false);
        };
        let target = self.pending.remove(position).target;
        let streak = self.streaks.entry(target).or_insert(0);
        *streak = streak.saturating_add(1);
        let evicted = max_losses.is_some_and(|max| *streak >= max);
        if evicted {
            self.streaks.remove(&target);
            self.pending.retain(|probe| probe.target != target);
        }
        (Some(target), evicted)
    }

    /// Mirrors `expire_pending(now, 0)` at a restart: every outstanding
    /// probe times out, oldest first; returns the targets evicted along the
    /// way in event order.
    fn expire_all(&mut self, max_losses: Option<u32>) -> Vec<usize> {
        let mut evicted = Vec::new();
        while let Some(first) = self.pending.first() {
            if let (Some(target), true) = self.timeout(first.seq, max_losses) {
                evicted.push(target);
            }
        }
        evicted
    }
}

/// One slot of the cross-worker response slab. `data` holds one response
/// per named configuration and is reused across exchanges (epochs), so the
/// steady-state exchange path allocates nothing.
///
/// Protocol: the responder of epoch `e` first waits for `consumed == e - 1`
/// (the previous use is finished), writes the responses, then either stores
/// `published = e` (a digest or discard is coming) or `consumed = e` (the
/// reply was lost in flight; it consumes its own use). The prober waits for
/// `published == e`, reads (or not), and stores `consumed = e`. Every wait
/// is on an operation strictly earlier in the planner's global order, and
/// earlier batches have finished, so the executor can never deadlock.
struct SlotCell {
    published: AtomicU32,
    consumed: AtomicU32,
    data: UnsafeCell<Vec<ProbeResponse<usize>>>,
}

// SAFETY: access to `data` is serialized by the published/consumed epoch
// handshake — at any instant at most one worker holds the right to touch
// the vector, and the Acquire/Release pairs order those accesses.
unsafe impl Sync for SlotCell {}

impl SlotCell {
    fn new() -> Self {
        SlotCell {
            published: AtomicU32::new(0),
            consumed: AtomicU32::new(0),
            data: UnsafeCell::new(Vec::new()),
        }
    }
}

/// Spins (yielding) until `counter` reads `epoch`.
fn wait_for(counter: &AtomicU32, epoch: u32) {
    while counter.load(Ordering::Acquire) != epoch {
        std::thread::yield_now();
    }
}

/// What one worker keeps across batches for one configuration.
struct WorkerRun {
    /// `(sample index, track-list position, sample)` — stitched back into
    /// the run's `tracked` vector in event order after the run.
    tracked: Vec<(u32, u32, TrackedCoordinate)>,
    /// This worker's slice of the run's optional coordinate query index.
    /// A coordinate update is only ever digested by the node's owner, so
    /// the slices hold disjoint id sets and merge without conflicts.
    index: Option<CoordinateIndex<usize>>,
}

/// One configuration's engines, metrics and crash snapshots for the block
/// of nodes a worker owns, borrowed for one batch, plus the worker's own
/// [`WorkerRun`].
struct Share<'a> {
    config: &'a NodeConfig,
    nodes: &'a mut [StableNode<usize>],
    metrics: &'a mut [NodeMetrics],
    snapshots: &'a mut [Option<NodeSnapshot<usize>>],
    own: &'a mut WorkerRun,
}

/// Runs one worker's operations of a batch, in order, against its shares
/// (one per configuration) of the nodes from `first` on. The only code in
/// the crate that calls the engines.
fn execute(
    shares: &mut [Share<'_>],
    first: usize,
    ops: &[Op],
    lies: &[CoordinateLie],
    cells: &[SlotCell],
) {
    let mut events = Vec::new();
    for op in ops {
        match *op {
            Op::Issue { node, dst, now_ms } => {
                let local = node as usize - first;
                for run in shares.iter_mut() {
                    let _ = run.nodes[local].probe_request_for(dst as usize, now_ms);
                    run.metrics[local].probes_sent += 1;
                }
            }
            Op::Respond {
                dst,
                slot,
                epoch,
                lie,
                publish,
                seq,
                sent_at_ms,
                rtt_ms,
            } => {
                let local = dst as usize - first;
                let cell = &cells[slot as usize];
                wait_for(&cell.consumed, epoch - 1);
                // SAFETY: the epoch handshake above grants this worker
                // exclusive access until it stores published/consumed.
                let responses = unsafe { &mut *cell.data.get() };
                let request = ProbeRequest::new(dst as usize, seq, sent_at_ms);
                let lie = lie.map(|index| &lies[index as usize]);
                for (index, run) in shares.iter_mut().enumerate() {
                    // First uses of a slot grow the response vector;
                    // afterwards the existing message (and its gossip
                    // buffer) is rewritten in place.
                    if responses.len() <= index {
                        let response = run.nodes[local].respond(&request);
                        responses.push(response);
                    } else {
                        run.nodes[local].respond_into(&request, &mut responses[index]);
                    }
                    responses[index].rtt_ms = rtt_ms;
                    if let Some(lie) = lie {
                        apply_lie(&mut responses[index], lie);
                    }
                }
                let counter = if publish {
                    &cell.published
                } else {
                    &cell.consumed
                };
                counter.store(epoch, Ordering::Release);
            }
            Op::Digest {
                node,
                slot,
                epoch,
                measuring,
                now,
            } => {
                let local = node as usize - first;
                let cell = &cells[slot as usize];
                wait_for(&cell.published, epoch);
                // SAFETY: published == epoch means the responder is done
                // writing; no one else touches the cell until we store
                // `consumed`.
                let responses = unsafe { &*cell.data.get() };
                for (run, response) in shares.iter_mut().zip(responses) {
                    events.clear();
                    run.nodes[local].handle_response_into(response, &mut events);
                    // A reply the engine refused to correlate (it raced
                    // its own timeout, or the peer was evicted meanwhile)
                    // is not an observation — it was already accounted
                    // as a loss.
                    let ignored = events
                        .iter()
                        .any(|event| matches!(event, Event::ResponseIgnored { .. }));
                    let node_metrics = &mut run.metrics[local];
                    if !ignored {
                        node_metrics.responses_received += 1;
                        if measuring {
                            node_metrics.observations += 1;
                        }
                    }
                    fold_events(node_metrics, now, measuring, &events);
                    feed_query_index(run.own.index.as_mut(), node as usize, &events);
                }
                cell.consumed.store(epoch, Ordering::Release);
            }
            Op::Discard { slot, epoch } => {
                let cell = &cells[slot as usize];
                wait_for(&cell.published, epoch);
                cell.consumed.store(epoch, Ordering::Release);
            }
            Op::Timeout { node, seq } => {
                let local = node as usize - first;
                for run in shares.iter_mut() {
                    events.clear();
                    run.nodes[local].handle_timeout_into(seq, &mut events);
                    fold_events(&mut run.metrics[local], 0.0, false, &events);
                }
            }
            Op::Crash { node } => {
                let local = node as usize - first;
                for run in shares.iter_mut() {
                    run.snapshots[local] = Some(run.nodes[local].snapshot());
                }
            }
            Op::Restore { node, fresh, now } => {
                let local = node as usize - first;
                for run in shares.iter_mut() {
                    let snapshot = if fresh {
                        None
                    } else {
                        run.snapshots[local].take()
                    };
                    let mut revived = match snapshot {
                        Some(snapshot) => StableNode::restore(run.config.clone(), &snapshot)
                            // nc-lint: allow(panic) — restoring a snapshot
                            // this run took under the same config cannot
                            // fail; a failure is a sim bug.
                            .expect("a crash snapshot restores under its own configuration"),
                        None => StableNode::new(run.config.clone()),
                    };
                    events.clear();
                    revived.expire_pending_into((now * 1_000.0) as u64, 0, &mut events);
                    fold_events(&mut run.metrics[local], now, false, &events);
                    run.nodes[local] = revived;
                }
            }
            Op::Track {
                node,
                sample,
                order,
                now,
            } => {
                let local = node as usize - first;
                for run in shares.iter_mut() {
                    run.own.tracked.push((
                        sample,
                        order,
                        TrackedCoordinate {
                            time_s: now,
                            node: node as usize,
                            system: run.nodes[local].system_coordinate().clone(),
                            application: run.nodes[local].application_coordinate().clone(),
                        },
                    ));
                }
            }
        }
    }
}

/// Feeds a run's optional coordinate query index from one engine event
/// stream: every `ApplicationUpdated` upserts the publishing node's new
/// application coordinate. Called from the response digest — the only
/// place the engines publish coordinates.
fn feed_query_index(
    index: Option<&mut CoordinateIndex<usize>>,
    node: usize,
    events: &[Event<usize>],
) {
    let Some(index) = index else {
        return;
    };
    for event in events {
        if let Event::ApplicationUpdated { update } = event {
            // The engine only publishes finite coordinates of the
            // dimensionality the index was sized for, so this cannot fail.
            let _ = index.update(node, &update.current);
        }
    }
}

/// Folds one engine event stream into a node's metric accumulators.
/// Losses are counted over the whole run (a dead link produces nothing
/// to gate a measurement window on); everything else respects the
/// warm-up exclusion.
fn fold_events(metrics: &mut NodeMetrics, time_s: f64, measuring: bool, events: &[Event<usize>]) {
    for event in events {
        match event {
            Event::SystemMoved {
                displacement_ms,
                relative_error,
                application_relative_error,
                ..
            } if measuring => {
                metrics.system_errors.push((time_s, *relative_error));
                metrics
                    .application_errors
                    .push((time_s, *application_relative_error));
                if *displacement_ms > 0.0 {
                    metrics
                        .system_displacements
                        .push((time_s, *displacement_ms));
                }
            }
            Event::ApplicationUpdated { update } if measuring => {
                metrics
                    .application_displacements
                    .push((time_s, update.displacement_ms));
            }
            Event::ProbeLost { .. } => {
                metrics.probes_lost += 1;
            }
            Event::ResponseIgnored { .. } => {
                metrics.responses_ignored += 1;
            }
            Event::ObservationRejected { .. } => {
                metrics.observations_rejected += 1;
            }
            Event::NeighborEvicted { .. } => {
                metrics.neighbors_evicted += 1;
            }
            _ => {}
        }
    }
}

/// The serial half: the event loop, the schedule decisions, the mirrors and
/// the operation buffer, plus the state of the workers it flushes into.
struct Planner<'a> {
    env: &'a SimEnv,
    schedule: &'a mut ScheduleState,
    runs: &'a mut [ConfigRun],
    crash_snapshots: &'a mut [Vec<Option<NodeSnapshot<usize>>>],
    /// The mirror of configuration `c` for node `i` sits at
    /// `i * configs + c`.
    mirrors: &'a mut [MirrorNode],
    mirror_snapshots: &'a mut [Option<Vec<MirrorNode>>],
    /// Each configuration's eviction threshold.
    max_losses: Vec<Option<u32>>,
    queue: EventQueue<SimEvent>,
    /// Buffered operations, one list per worker, each in global order.
    ops: Vec<Vec<Op>>,
    /// Coordinate lies referenced by the buffered `Respond` operations.
    lies: Vec<CoordinateLie>,
    buffered: usize,
    exchanges: Vec<Exchange>,
    free_slots: Vec<usize>,
    cells: Vec<SlotCell>,
    /// Worker `w` owns the nodes `w * block .. (w + 1) * block`.
    block: usize,
    /// What each worker keeps across batches, per configuration.
    workers: Vec<Vec<WorkerRun>>,
    track_sample: u32,
    scenario_actions: u64,
}

impl Planner<'_> {
    /// Every configuration's mirror of `node`.
    fn mirrors_of(&mut self, node: usize) -> &mut [MirrorNode] {
        let configs = self.max_losses.len();
        // bounds: node < n and the slab holds n * configs mirrors.
        &mut self.mirrors[node * configs..(node + 1) * configs]
    }

    /// Queues `op` for `node`'s worker; `peer` names the peer whose loss
    /// streak the operation may change, for the debug mirror check.
    fn push(&mut self, node: usize, peer: Option<usize>, op: Op) {
        // bounds: node < n <= workers * block, and ops has one list per worker.
        self.ops[node / self.block].push(op);
        self.buffered += 1;
        if cfg!(debug_assertions) && self.workers.len() == 1 {
            self.flush();
            self.check_mirrors(node, peer);
        } else if self.buffered >= BATCH_OPS {
            self.flush();
        }
    }

    /// Runs every buffered operation: worker 0 on the calling thread, the
    /// others on scoped threads.
    fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let Planner {
            runs,
            crash_snapshots,
            ops,
            lies,
            cells,
            block,
            workers,
            ..
        } = self;
        let block = *block;
        let mut shares: Vec<Vec<Share<'_>>> = workers.iter().map(|_| Vec::new()).collect();
        let mut owns: Vec<_> = workers.iter_mut().map(|runs| runs.iter_mut()).collect();
        for (run, snapshots) in runs.iter_mut().zip(crash_snapshots.iter_mut()) {
            let blocks = run
                .nodes
                .chunks_mut(block)
                .zip(run.metrics.nodes.chunks_mut(block))
                .zip(snapshots.chunks_mut(block));
            for ((list, own), ((nodes, metrics), snapshots)) in
                shares.iter_mut().zip(owns.iter_mut()).zip(blocks)
            {
                list.extend(own.next().map(|own| Share {
                    config: &run.config,
                    nodes,
                    metrics,
                    snapshots,
                    own,
                }));
            }
        }
        let (batch_lies, cells) = (&*lies, &*cells);
        let mut jobs = shares.into_iter().zip(ops.iter()).enumerate();
        let calling = jobs.next();
        std::thread::scope(|scope| {
            for (w, (mut shares, ops)) in jobs {
                scope.spawn(move || execute(&mut shares, w * block, ops, batch_lies, cells));
            }
            if let Some((_, (mut shares, ops))) = calling {
                execute(&mut shares, 0, ops, batch_lies, cells);
            }
        });
        for list in ops.iter_mut() {
            list.clear();
        }
        lies.clear();
        self.buffered = 0;
    }

    /// Asserts that every configuration's engine for `node` matches its
    /// mirror: sequence counter, pending `(seq, target)` list, and the loss
    /// streak of every peer the mirror tracks plus `peer`. Streaks change
    /// only in operations that name their peer, so checking that peer after
    /// every operation covers every streak by induction.
    fn check_mirrors(&self, node: usize, peer: Option<usize>) {
        let configs = self.max_losses.len();
        for (c, run) in self.runs.iter().enumerate() {
            let engine = &run.nodes[node];
            // bounds: node < n and c < configs.
            let mirror = &self.mirrors[node * configs + c];
            let pending = engine.pending_probes().iter().map(|p| (p.seq, p.target));
            assert!(
                engine.next_probe_seq() == mirror.probe_seq
                    && pending.eq(mirror.pending.iter().map(|p| (p.seq, p.target)))
                    && mirror
                        .streaks
                        .iter()
                        .all(|(id, &streak)| engine.loss_streak(id) == streak)
                    && peer.is_none_or(|peer| {
                        engine.loss_streak(&peer) == mirror.streaks.get(&peer).copied().unwrap_or(0)
                    }),
                "schedule mirror of node {node} diverged from configuration {c}'s engine"
            );
        }
    }

    /// Takes a free slot (or grows the slab) and records the exchange in it.
    fn acquire_slot(&mut self, exchange: Exchange) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                let epoch = self.exchanges[slot].epoch;
                self.exchanges[slot] = Exchange { epoch, ..exchange };
                slot
            }
            None => {
                self.exchanges.push(exchange);
                self.cells.push(SlotCell::new());
                self.exchanges.len() - 1
            }
        }
    }

    /// Runs the event loop from `t = 0` to the configured duration.
    fn run(&mut self) {
        let env = self.env;
        let duration = env.sim_config.duration_s;
        for &node in env.scenario.initially_down() {
            self.schedule.alive[node] = false;
        }
        for (index, event) in env.scenario.events().iter().enumerate() {
            if event.at_s < duration {
                self.queue
                    .schedule(event.at_s, SimEvent::ScenarioAction { index });
            }
        }
        for src in 0..env.topology.len() {
            if self.schedule.alive[src] {
                self.schedule.probe_cycle_active[src] = true;
                self.queue.schedule(0.0, SimEvent::ProbeSend { src });
            }
        }
        if !env.sim_config.track_nodes.is_empty() {
            self.queue.schedule(0.0, SimEvent::TrackSample);
        }

        while let Some((now, event)) = self.queue.pop() {
            if now >= duration {
                break;
            }
            match event {
                SimEvent::ProbeSend { src } => self.probe_send(now, src),
                SimEvent::ProbeDeliver { src, dst, slot } => {
                    self.probe_deliver(now, src, dst, slot)
                }
                SimEvent::ResponseDeliver { src, dst, slot } => {
                    self.response_deliver(now, src, dst, slot)
                }
                SimEvent::ProbeTimeout { src, seq } => self.probe_timeout(src, seq),
                SimEvent::TrackSample => self.track_sample(now),
                SimEvent::ScenarioAction { index } => self.scenario_action(now, index),
            }
        }
        self.flush();
    }

    fn probe_send(&mut self, now: f64, src: usize) {
        let env = self.env;
        // Healed partitions are dead weight for every later crossing check;
        // prune them as the clock passes their heal time.
        self.schedule
            .active_partitions
            .retain(|window| window.heal_at_s > now);
        if !self.schedule.alive[src] {
            // The cycle dies with the node; a restart schedules a new one.
            self.schedule.probe_cycle_active[src] = false;
            return;
        }
        let next_tick = now + env.sim_config.probe_interval_s;
        if next_tick < env.sim_config.duration_s {
            self.queue.schedule(next_tick, SimEvent::ProbeSend { src });
        } else {
            self.schedule.probe_cycle_active[src] = false;
        }
        let neighbor_count = self.schedule.neighbor_sets[src].len();
        if neighbor_count == 0 {
            return;
        }
        // bounds: the cursor is reduced modulo neighbor_count == the set's len.
        let dst = self.schedule.neighbor_sets[src][self.schedule.round_robin[src] % neighbor_count];
        self.schedule.round_robin[src] = self.schedule.round_robin[src].wrapping_add(1);
        if dst == src {
            return;
        }

        // One raw observation shared by every configuration.
        let draw = self.schedule.sample_exchange(env, src, dst, now);
        let now_ms = (now * 1_000.0) as u64;
        let mut seq = 0;
        for mirror in self.mirrors_of(src) {
            seq = mirror.issue(dst);
        }
        self.push(
            src,
            None,
            Op::Issue {
                node: src as u32,
                dst: dst as u32,
                now_ms,
            },
        );
        // The timer is armed regardless of the probe's fate — exactly what a
        // deployed prober would do.
        self.queue.schedule(
            now + env.sim_config.probe_timeout_s,
            SimEvent::ProbeTimeout { src, seq },
        );
        if draw.forward_lost || self.schedule.partitioned(src, dst, now) {
            return;
        }
        let slot = self.acquire_slot(Exchange {
            seq,
            sent_at_ms: now_ms,
            rtt_ms: draw.rtt_ms,
            reverse_delay_s: draw.reverse_delay_s,
            reverse_lost: draw.reverse_lost,
            epoch: 0,
        });
        self.queue.schedule(
            now + draw.forward_delay_s,
            SimEvent::ProbeDeliver { src, dst, slot },
        );
    }

    fn probe_deliver(&mut self, now: f64, src: usize, dst: usize, slot: usize) {
        // A crash between send and delivery silently eats the probe; the
        // prober's timeout reports the loss.
        if !self.schedule.alive[dst] || self.schedule.partitioned(src, dst, now) {
            self.free_slots.push(slot);
            return;
        }
        // An adversarial responder corrupts the reply here: delay attacks
        // stretch both the observed RTT and the reply's in-flight time (a
        // held-back reply really is late and can cross the prober's
        // timeout); a coordinate lie is drawn once and applied identically
        // to every configuration's response.
        let adversary = self.schedule.sample_adversary(dst);
        let exchange = &mut self.exchanges[slot];
        exchange.epoch += 1;
        let mut exchange = *exchange;
        let mut lie = None;
        if let Some(draw) = adversary {
            exchange.rtt_ms += draw.extra_delay_ms;
            exchange.reverse_delay_s += draw.extra_delay_ms / 1_000.0;
            lie = draw.lie.map(|drawn| {
                self.lies.push(drawn);
                (self.lies.len() - 1) as u32
            });
        }
        self.push(
            dst,
            None,
            Op::Respond {
                dst: dst as u32,
                slot: slot as u32,
                epoch: exchange.epoch,
                lie,
                publish: !exchange.reverse_lost,
                seq: exchange.seq,
                sent_at_ms: exchange.sent_at_ms,
                rtt_ms: exchange.rtt_ms,
            },
        );
        if exchange.reverse_lost {
            self.free_slots.push(slot);
            return;
        }
        self.queue.schedule(
            now + exchange.reverse_delay_s,
            SimEvent::ResponseDeliver { src, dst, slot },
        );
    }

    fn response_deliver(&mut self, now: f64, src: usize, dst: usize, slot: usize) {
        let env = self.env;
        let Exchange { seq, epoch, .. } = self.exchanges[slot];
        self.free_slots.push(slot);
        // A reply reaching a node that crashed meanwhile is dropped; the
        // pending entry survives in its crash snapshot and is expired as
        // lost if the node restarts. A reply crossing a partition that
        // activated while it was in flight is dropped too — every packet
        // across the boundary, in both directions, is lost until the heal.
        if !self.schedule.alive[src] || self.schedule.partitioned(src, dst, now) {
            let op = Op::Discard {
                slot: slot as u32,
                epoch,
            };
            self.push(src, None, op);
            return;
        }
        for mirror in self.mirrors_of(src) {
            mirror.response(dst, seq);
        }
        self.push(
            src,
            Some(dst),
            Op::Digest {
                node: src as u32,
                slot: slot as u32,
                epoch,
                measuring: now >= env.sim_config.measurement_start_s,
                now,
            },
        );
        // Gossip: the probed node hands back one address from its own
        // neighbour set; the prober adds it. Identical across
        // configurations because it only affects the probe schedule.
        let known = self.schedule.neighbor_sets[dst].len();
        if env.sim_config.gossip && known > 0 {
            let idx = self.schedule.protocol_rng.gen_range(0..known);
            let learned = self.schedule.neighbor_sets[dst][idx];
            if learned != src {
                self.schedule.neighbor_add(src, learned);
            }
        }
    }

    fn probe_timeout(&mut self, src: usize, seq: u64) {
        if !self.schedule.alive[src] {
            return;
        }
        // A peer leaves the shared rotation only once *every*
        // configuration's engine has evicted it, so the schedule stays
        // identical across side-by-side stacks.
        let mut target = None;
        let mut evicted_by_all = true;
        for c in 0..self.max_losses.len() {
            let max_losses = self.max_losses[c];
            let (lost, evicted) = self.mirrors_of(src)[c].timeout(seq, max_losses);
            target = lost.or(target);
            evicted_by_all &= evicted;
        }
        self.push(
            src,
            target,
            Op::Timeout {
                node: src as u32,
                seq,
            },
        );
        if let (Some(dst), true) = (target, evicted_by_all) {
            self.schedule.neighbor_remove(src, dst);
        }
    }

    fn track_sample(&mut self, now: f64) {
        let env = self.env;
        for (order, &node) in env.sim_config.track_nodes.iter().enumerate() {
            let op = Op::Track {
                node: node as u32,
                sample: self.track_sample,
                order: order as u32,
                now,
            };
            self.push(node, None, op);
        }
        self.track_sample += 1;
        let next = now + env.sim_config.track_interval_s;
        if next < env.sim_config.duration_s {
            self.queue.schedule(next, SimEvent::TrackSample);
        }
    }

    fn scenario_action(&mut self, now: f64, index: usize) {
        let env = self.env;
        self.scenario_actions += 1;
        match &env.scenario.events()[index].action {
            ScenarioAction::Join { nodes } => {
                for &node in nodes {
                    self.bring_up(now, node, true);
                }
            }
            ScenarioAction::Leave { nodes } => {
                for &node in nodes {
                    self.schedule.alive[node] = false;
                    // A graceful leaver says goodbye: every live node drops
                    // it from its probe rotation immediately.
                    for other in 0..self.schedule.neighbor_sets.len() {
                        self.schedule.neighbor_remove(other, node);
                    }
                }
            }
            ScenarioAction::Crash { nodes } => {
                for &node in nodes {
                    if !self.schedule.alive[node] {
                        continue;
                    }
                    self.schedule.alive[node] = false;
                    self.mirror_snapshots[node] = Some(self.mirrors_of(node).to_vec());
                    self.push(node, None, Op::Crash { node: node as u32 });
                }
            }
            ScenarioAction::Restart { nodes } => {
                for &node in nodes {
                    self.bring_up(now, node, false);
                }
            }
            ScenarioAction::Partition { group, heal_at_s } => {
                self.schedule.partition(group, *heal_at_s);
            }
            ScenarioAction::PartitionRegions { regions, heal_at_s } => {
                let group: Vec<usize> = regions
                    .iter()
                    .flat_map(|&region| env.topology.nodes_in_region(region))
                    .collect();
                self.schedule.partition(&group, *heal_at_s);
            }
            ScenarioAction::SetAdversary { nodes, model } => {
                for &node in nodes {
                    self.schedule.adversaries[node] = model.clone();
                }
            }
        }
    }

    /// Brings a down node back up: fresh engines on a join, crash-snapshot
    /// restores on a restart. Either way its probe cycle resumes
    /// immediately and any probes outstanding at the crash are expired as
    /// lost (a rebooted daemon stops waiting for pre-crash replies).
    fn bring_up(&mut self, now: f64, node: usize, fresh: bool) {
        if self.schedule.alive[node] {
            return;
        }
        self.schedule.alive[node] = true;
        // Expiring the probes that were outstanding at the crash can push a
        // loss streak over the eviction threshold. Those evictions reach the
        // shared rotation under the same unanimity rule as timeout
        // evictions — otherwise the revived node keeps probing a peer every
        // engine already evicted.
        let snapshot = if fresh {
            None
        } else {
            self.mirror_snapshots[node].take()
        };
        let mut evicted_by_all: Option<Vec<usize>> = None;
        for c in 0..self.max_losses.len() {
            let mut revived = snapshot
                .as_ref()
                .map(|mirrors| mirrors[c].clone())
                .unwrap_or_default();
            let evicted = revived.expire_all(self.max_losses[c]);
            self.mirrors_of(node)[c] = revived;
            evicted_by_all = Some(match evicted_by_all {
                None => evicted,
                Some(previous) => previous
                    .into_iter()
                    .filter(|id| evicted.contains(id))
                    .collect(),
            });
        }
        self.push(
            node,
            None,
            Op::Restore {
                node: node as u32,
                fresh,
                now,
            },
        );
        for target in evicted_by_all.unwrap_or_default() {
            self.schedule.neighbor_remove(node, target);
        }
        if fresh {
            // A joiner bootstraps a fresh neighbour set of live peers, and
            // announces itself to them (the membership-file introduction of
            // the paper's deployments) so the mesh starts probing it back;
            // gossip spreads its address from there.
            let schedule = &mut *self.schedule;
            schedule.round_robin[node] = 0;
            let n = self.env.topology.len();
            let live = schedule.alive.iter().filter(|&&up| up).count();
            let want = self
                .env
                .sim_config
                .initial_neighbors
                .min(live.saturating_sub(1));
            let mut set = Vec::new();
            let mut attempts = 0;
            while set.len() < want && attempts < n * 16 {
                attempts += 1;
                let candidate = schedule.protocol_rng.gen_range(0..n);
                if candidate != node && schedule.alive[candidate] && !set.contains(&candidate) {
                    set.push(candidate);
                }
            }
            for &seed in &set {
                schedule.neighbor_add(seed, node);
            }
            schedule.neighbor_replace(node, set);
        }
        if !self.schedule.probe_cycle_active[node] {
            self.schedule.probe_cycle_active[node] = true;
            self.queue.schedule(now, SimEvent::ProbeSend { src: node });
        }
    }
}

/// Runs the simulation to completion on `workers` workers, leaving `state`
/// (metrics, engines, schedule, mirrors, crash snapshots, query indexes)
/// byte-identical whatever the worker count.
pub(crate) fn run(env: &SimEnv, state: &mut EngineState, workers: usize) {
    let EngineState {
        schedule,
        runs,
        crash_snapshots,
        mirrors,
        mirror_snapshots,
    } = state;
    // A lone worker feeds each run's query index in place; several fill
    // empty slices that merge into it after the run.
    let parts = (0..workers)
        .map(|_| {
            runs.iter_mut()
                .map(|run| WorkerRun {
                    tracked: Vec::new(),
                    index: if workers == 1 {
                        run.index.take()
                    } else {
                        run.index.as_ref().map(|index| {
                            CoordinateIndex::new(index.config().clone())
                                // nc-lint: allow(panic) — the config validated
                                // when the run's index was built.
                                .expect("a validated query config rebuilds")
                        })
                    },
                })
                .collect()
        })
        .collect();
    let mut planner = Planner {
        env,
        schedule,
        max_losses: runs
            .iter()
            .map(|run| run.config.max_consecutive_losses)
            .collect(),
        runs,
        crash_snapshots,
        mirrors,
        mirror_snapshots,
        queue: EventQueue::new(),
        ops: (0..workers).map(|_| Vec::new()).collect(),
        lies: Vec::new(),
        buffered: 0,
        exchanges: Vec::new(),
        free_slots: Vec::new(),
        cells: Vec::new(),
        block: env.topology.len().div_ceil(workers).max(1),
        workers: parts,
        track_sample: 0,
        scenario_actions: 0,
    };
    planner.run();
    let Planner {
        runs,
        mut workers,
        scenario_actions,
        ..
    } = planner;

    // Return or merge the index slices and stitch the tracked samples back
    // into event order.
    for (r, run) in runs.iter_mut().enumerate() {
        let mut tracked = Vec::new();
        for part in workers.iter_mut().filter_map(|parts| parts.get_mut(r)) {
            tracked.append(&mut part.tracked);
            match (&mut run.index, part.index.take()) {
                (None, index) => run.index = index,
                (Some(target), Some(part)) => {
                    for (id, coordinate) in part.iter() {
                        let _ = target.update(*id, coordinate);
                    }
                }
                (Some(_), None) => {}
            }
        }
        tracked.sort_by_key(|&(sample, order, _)| (sample, order));
        run.metrics
            .tracked
            .extend(tracked.into_iter().map(|(_, _, sample)| sample));
        run.metrics.scenario_ops += scenario_actions;
    }
}
