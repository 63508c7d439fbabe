//! Replays a simulation's exchange stream through the public entry points.
//!
//! The simulator's event loop is private, so a traced run cannot put spans
//! inside it. This module re-drives the same schedule with the crates'
//! public pieces — [`LinkModel`] draws, an [`EventQueue`], and
//! [`StableNode::probe_request_for`] / [`respond_into`] /
//! [`handle_response_into`] / [`handle_timeout_into`] /
//! [`expire_pending`] — in the order the serial executor calls them, and
//! times every call. Probe targets, link draws, losses, gossip and crash
//! restarts depend only on the seeds, so the replay's probe counters match
//! the run's [`SimReport`](nc_netsim::SimReport) exactly; a test checks it.
//!
//! Coordinate lies are re-drawn from the replay's own generator (the
//! simulator's adversary stream is private): liars distort the same replies
//! by the same amount in random directions, so the schedule's counters
//! ([`Counts::schedule_counts`]) still match while the coordinates of the
//! nodes they fool, and with them the gate's rejections, differ in detail.
//!
//! [`respond_into`]: StableNode::respond_into
//! [`handle_response_into`]: StableNode::handle_response_into
//! [`handle_timeout_into`]: StableNode::handle_timeout_into
//! [`expire_pending`]: StableNode::expire_pending

use std::time::Instant;

use nc_netsim::metrics::ConfigMetrics;
use nc_netsim::{
    AdversaryModel, EventQueue, LinkModel, PlanetLabConfig, Scenario, ScenarioAction, SimConfig,
};
use nc_proto::{Event, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::{CoordinateIndex, QueryConfig};
use nc_vivaldi::Coordinate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stable_nc::{FxHashMap, NodeConfig, StableNode};

use crate::alloc;
use crate::trace::{Name, Tracer};

/// What to replay: the inputs a [`nc_netsim::Simulator`] was built from.
#[derive(Clone)]
pub struct ReplaySpec {
    /// The workload (topology seed, link model).
    pub workload: PlanetLabConfig,
    /// The schedule.
    pub sim_config: SimConfig,
    /// The one coordinate stack every node runs.
    pub node_config: NodeConfig,
    /// Crash/restart script (other actions are not replayed).
    pub scenario: Scenario,
    /// Nodes that run the adversary model, as `Simulator::adversaries`
    /// reports them.
    pub adversaries: Vec<usize>,
}

/// Nodes, counted from 0, whose observations are recorded for the
/// standalone layer feeds.
pub const RECORDED_NODES: usize = 512;

/// The probe counters a [`ConfigMetrics`] reports, summed over nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Probes launched.
    pub probes_sent: u64,
    /// Replies digested (not ignored).
    pub responses_received: u64,
    /// Probes that timed out or were expired at a restart.
    pub probes_lost: u64,
    /// Replies the engine refused to correlate.
    pub responses_ignored: u64,
    /// Observations the gate or Vivaldi rejected.
    pub observations_rejected: u64,
    /// Peers evicted after consecutive losses.
    pub neighbors_evicted: u64,
}

impl Counts {
    /// The counters of one configuration of a finished run.
    pub fn of(metrics: &ConfigMetrics) -> Self {
        Counts {
            probes_sent: metrics.total_probes_sent(),
            responses_received: metrics.total_responses_received(),
            probes_lost: metrics.total_probes_lost(),
            responses_ignored: metrics.total_responses_ignored(),
            observations_rejected: metrics.total_observations_rejected(),
            neighbors_evicted: metrics.total_neighbors_evicted(),
        }
    }

    /// The counters the probe schedule alone determines. Rejections also
    /// depend on coordinates, which lies re-drawn by the replay change.
    pub fn schedule_counts(&self) -> [u64; 5] {
        [
            self.probes_sent,
            self.responses_received,
            self.probes_lost,
            self.responses_ignored,
            self.neighbors_evicted,
        ]
    }

    fn fold(&mut self, events: &[Event<usize>]) {
        for event in events {
            match event {
                Event::ProbeLost { .. } => self.probes_lost += 1,
                Event::ResponseIgnored { .. } => self.responses_ignored += 1,
                Event::ObservationRejected { .. } => self.observations_rejected += 1,
                Event::NeighborEvicted { .. } => self.neighbors_evicted += 1,
                _ => {}
            }
        }
    }
}

/// One digested reply of a recorded node, as the engine saw it.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The prober.
    pub node: u32,
    /// The responder.
    pub peer: u32,
    /// Measured round trip, ms.
    pub raw_rtt_ms: f64,
    /// The coordinate the reply carried.
    pub remote: Coordinate,
    /// The error estimate the reply carried.
    pub remote_error: f64,
    /// The filtered RTT the engine passed on, if its filter emitted one.
    pub filtered_rtt_ms: Option<f64>,
}

/// Everything a replay produced.
pub struct ReplayOutput {
    /// Probe counters.
    pub counts: Counts,
    /// Recorded replies of the first [`RECORDED_NODES`] nodes, in order.
    pub observations: Vec<Observation>,
    /// System coordinates of recorded nodes after each move, in order.
    pub system_moves: Vec<(u32, Coordinate)>,
    /// Deepest the event queue got.
    pub queue_depth_max: usize,
    /// Events `handle_response_into` emitted in total.
    pub response_events: u64,
    /// Allocations made inside engine calls.
    pub engine_allocations: u64,
    /// Distinct links drawn.
    pub links: usize,
    /// Heap bytes the link table freed when dropped.
    pub link_bytes: u64,
    /// Heap bytes the node stacks freed when dropped.
    pub node_bytes: u64,
    /// The query index the replay fed, if the schedule enables one.
    pub index: Option<CoordinateIndex<usize>>,
    /// Wall seconds of the exchange loop alone: the topology and the node
    /// stacks are built before it starts.
    pub exchange_s: f64,
}

/// Why a spec cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum Unsupported {
    /// A scenario action other than crash and restart.
    ScenarioAction(String),
    /// An adversary other than a coordinate liar.
    Adversary,
    /// Tracked-node sampling.
    TrackedNodes,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Send { src: usize },
    Deliver(Delivery),
    Response { src: usize, dst: usize, slot: usize },
    Timeout { src: usize, seq: u64 },
    Scenario { index: usize },
}

/// The payload of a [`Ev::Deliver`] event.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    src: usize,
    dst: usize,
    slot: usize,
    rtt_ms: f64,
    reverse_delay_s: f64,
    reverse_lost: bool,
}

struct Slot {
    request: ProbeRequest<usize>,
    response: Option<ProbeResponse<usize>>,
}

/// Span names, interned once per replay.
struct Names {
    send: Name,
    deliver: Name,
    response: Name,
    timeout: Name,
    scenario: Name,
    schedule: Name,
    pop: Name,
    link_new: Name,
    link_sample: Name,
    probe_request: Name,
    respond: Name,
    handle_response: Name,
    handle_timeout: Name,
    expire_pending: Name,
    index_update: Name,
}

struct Replay<'t> {
    spec: ReplaySpec,
    tracer: &'t mut Tracer,
    names: Names,
    topology: nc_netsim::Topology,
    links: FxHashMap<u64, LinkModel>,
    neighbor_sets: Vec<Vec<usize>>,
    neighbor_bits: Vec<Vec<u64>>,
    round_robin: Vec<usize>,
    protocol_rng: StdRng,
    alive: Vec<bool>,
    probe_cycle_active: Vec<bool>,
    liar: Vec<bool>,
    lie: Option<(f64, f64, f64)>,
    lie_rng: StdRng,
    nodes: Vec<StableNode<usize>>,
    snapshots: Vec<Option<NodeSnapshot<usize>>>,
    slots: Vec<Slot>,
    free_slots: Vec<usize>,
    events: Vec<Event<usize>>,
    queue: EventQueue<Ev>,
    out: ReplayOutput,
}

/// Replays `spec`, recording spans into `tracer`.
///
/// # Errors
///
/// [`Unsupported`] when the spec uses a feature the replay does not mirror.
pub fn run(spec: ReplaySpec, tracer: &mut Tracer) -> Result<ReplayOutput, Unsupported> {
    if !spec.sim_config.track_nodes.is_empty() {
        return Err(Unsupported::TrackedNodes);
    }
    for event in spec.scenario.events() {
        if !matches!(
            event.action,
            ScenarioAction::Crash { .. } | ScenarioAction::Restart { .. }
        ) {
            return Err(Unsupported::ScenarioAction(format!("{:?}", event.action)));
        }
    }
    let lie = match spec.sim_config.adversary.as_ref().map(|a| &a.model) {
        None => None,
        Some(AdversaryModel::CoordinateLiar {
            displacement_ms,
            inflate,
            error_estimate,
        }) => Some((*displacement_ms, *inflate, *error_estimate)),
        Some(_) => return Err(Unsupported::Adversary),
    };

    let names = Names {
        send: tracer.name("replay.probe_send"),
        deliver: tracer.name("replay.probe_deliver"),
        response: tracer.name("replay.response_deliver"),
        timeout: tracer.name("replay.probe_timeout"),
        scenario: tracer.name("replay.scenario"),
        schedule: tracer.name("netsim.event_queue.schedule"),
        pop: tracer.name("netsim.event_queue.pop"),
        link_new: tracer.name("netsim.linkmodel.new"),
        link_sample: tracer.name("netsim.linkmodel.sample"),
        probe_request: tracer.name("core.probe_request"),
        respond: tracer.name("core.respond"),
        handle_response: tracer.name("core.handle_response"),
        handle_timeout: tracer.name("core.handle_timeout"),
        expire_pending: tracer.name("core.expire_pending"),
        index_update: tracer.name("query.update"),
    };
    let root = tracer.name("replay");
    let root = tracer.enter(root);

    let topology = spec.workload.build_topology();
    let n = topology.len();
    let sim_config = &spec.sim_config;
    let mut protocol_rng = StdRng::seed_from_u64(sim_config.protocol_seed);
    // Initial neighbour sets, drawn exactly as `Simulator::new` draws them.
    let mut neighbor_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut set = Vec::new();
        let want = sim_config.initial_neighbors.min(n - 1);
        let mut k = 1;
        while set.len() < want {
            let candidate = if set.len() < want / 2 || n <= 3 {
                (i + k) % n
            } else {
                protocol_rng.gen_range(0..n)
            };
            k += 1;
            if candidate != i && !set.contains(&candidate) {
                set.push(candidate);
            }
        }
        neighbor_sets.push(set);
    }
    let mut neighbor_bits = vec![vec![0u64; n.div_ceil(64)]; n];
    for (node, set) in neighbor_sets.iter().enumerate() {
        for &peer in set {
            neighbor_bits[node][peer / 64] |= 1 << (peer % 64);
        }
    }
    let mut liar = vec![false; n];
    for &node in &spec.adversaries {
        liar[node] = true;
    }
    let index = sim_config.query_index.then(|| {
        CoordinateIndex::new(QueryConfig {
            dimensions: spec.node_config.vivaldi.dimensions(),
            ..QueryConfig::default()
        })
        .expect("the paper's coordinate space is indexable")
    });
    let nodes = (0..n)
        .map(|_| StableNode::new(spec.node_config.clone()))
        .collect();

    let mut replay = Replay {
        tracer,
        names,
        topology,
        links: FxHashMap::default(),
        neighbor_sets,
        neighbor_bits,
        round_robin: vec![0; n],
        protocol_rng,
        alive: vec![true; n],
        probe_cycle_active: vec![false; n],
        liar,
        lie,
        lie_rng: StdRng::seed_from_u64(spec.workload.seed() ^ 0x11E5),
        nodes,
        snapshots: vec![None; n],
        slots: Vec::new(),
        free_slots: Vec::new(),
        events: Vec::new(),
        queue: EventQueue::new(),
        out: ReplayOutput {
            counts: Counts::default(),
            observations: Vec::new(),
            system_moves: Vec::new(),
            queue_depth_max: 0,
            response_events: 0,
            engine_allocations: 0,
            links: 0,
            link_bytes: 0,
            node_bytes: 0,
            index,
            exchange_s: 0.0,
        },
        spec,
    };
    alloc::set_counting(true);
    let exchange_start = Instant::now();
    replay.run_to_completion();
    replay.out.exchange_s = exchange_start.elapsed().as_secs_f64();
    alloc::set_counting(false);
    replay.tracer.exit(root);

    let Replay {
        links,
        nodes,
        mut out,
        ..
    } = replay;
    out.links = links.len();
    out.link_bytes = alloc::bytes_freed_by_drop(links);
    out.node_bytes = alloc::bytes_freed_by_drop(nodes);
    Ok(out)
}

impl Replay<'_> {
    fn schedule(&mut self, time_s: f64, event: Ev) {
        let span = self.tracer.enter(self.names.schedule);
        self.queue.schedule(time_s, event);
        self.tracer.exit(span);
        self.out.queue_depth_max = self.out.queue_depth_max.max(self.queue.len());
    }

    fn knows(&self, node: usize, peer: usize) -> bool {
        self.neighbor_bits[node][peer / 64] >> (peer % 64) & 1 == 1
    }

    fn neighbor_add(&mut self, node: usize, peer: usize) {
        if !self.knows(node, peer) {
            self.neighbor_bits[node][peer / 64] |= 1 << (peer % 64);
            self.neighbor_sets[node].push(peer);
        }
    }

    fn neighbor_remove(&mut self, node: usize, peer: usize) {
        if self.knows(node, peer) {
            self.neighbor_bits[node][peer / 64] &= !(1 << (peer % 64));
            self.neighbor_sets[node].retain(|&member| member != peer);
        }
    }

    fn release(&mut self, slot: usize) {
        self.free_slots.push(slot);
    }

    /// Runs `f` on node `node` inside a span, counting its allocations.
    fn engine<R>(
        &mut self,
        name: Name,
        node: usize,
        f: impl FnOnce(&mut StableNode<usize>, &mut Vec<Event<usize>>) -> R,
    ) -> R {
        let span = self.tracer.enter(name);
        let before = alloc::counts();
        let result = f(&mut self.nodes[node], &mut self.events);
        self.out.engine_allocations += alloc::counts().since(before).allocations;
        self.tracer.exit(span);
        result
    }

    fn run_to_completion(&mut self) {
        let duration = self.spec.sim_config.duration_s;
        for &node in self.spec.scenario.initially_down() {
            self.alive[node] = false;
        }
        let starts: Vec<f64> = self.spec.scenario.events().iter().map(|e| e.at_s).collect();
        for (index, at_s) in starts.into_iter().enumerate() {
            if at_s < duration {
                self.schedule(at_s, Ev::Scenario { index });
            }
        }
        for src in 0..self.nodes.len() {
            if self.alive[src] {
                self.probe_cycle_active[src] = true;
                self.schedule(0.0, Ev::Send { src });
            }
        }
        loop {
            let span = self.tracer.enter(self.names.pop);
            let next = self.queue.pop();
            self.tracer.exit(span);
            let Some((now, event)) = next else {
                break;
            };
            if now >= duration {
                break;
            }
            match event {
                Ev::Send { src } => {
                    let span = self.tracer.enter(self.names.send);
                    self.on_probe_send(now, src);
                    self.tracer.exit(span);
                }
                Ev::Deliver(delivery) => {
                    let span = self.tracer.enter(self.names.deliver);
                    self.on_probe_deliver(now, delivery);
                    self.tracer.exit(span);
                }
                Ev::Response { src, dst, slot } => {
                    let span = self.tracer.enter(self.names.response);
                    self.on_response_deliver(src, dst, slot);
                    self.tracer.exit(span);
                }
                Ev::Timeout { src, seq } => {
                    let span = self.tracer.enter(self.names.timeout);
                    self.on_probe_timeout(src, seq);
                    self.tracer.exit(span);
                }
                Ev::Scenario { index } => {
                    let span = self.tracer.enter(self.names.scenario);
                    self.on_scenario(now, index);
                    self.tracer.exit(span);
                }
            }
        }
    }

    fn on_probe_send(&mut self, now: f64, src: usize) {
        if !self.alive[src] {
            self.probe_cycle_active[src] = false;
            return;
        }
        let next_tick = now + self.spec.sim_config.probe_interval_s;
        if next_tick < self.spec.sim_config.duration_s {
            self.schedule(next_tick, Ev::Send { src });
        } else {
            self.probe_cycle_active[src] = false;
        }
        let neighbor_count = self.neighbor_sets[src].len();
        if neighbor_count == 0 {
            return;
        }
        let dst = self.neighbor_sets[src][self.round_robin[src] % neighbor_count];
        self.round_robin[src] = self.round_robin[src].wrapping_add(1);
        if dst == src {
            return;
        }

        // One link draw, in the simulator's order: RTT, forward loss,
        // reverse loss, one-way split.
        let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
        let key = ((lo as u64) << 32) | hi as u64;
        if !self.links.contains_key(&key) {
            let span = self.tracer.enter(self.names.link_new);
            let seed = self
                .spec
                .workload
                .seed()
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(key);
            let link = LinkModel::new(
                self.topology.base_rtt_ms(lo, hi),
                self.spec.workload.link_config().clone(),
                self.spec.sim_config.duration_s,
                seed,
            );
            self.links.insert(key, link);
            self.tracer.exit(span);
        }
        let span = self.tracer.enter(self.names.link_sample);
        let link = self.links.get_mut(&key).expect("inserted above");
        let rtt_ms = link.sample(now);
        let forward_lost = link.sample_loss();
        let reverse_lost = link.sample_loss();
        let (lo_to_hi_ms, hi_to_lo_ms) = link.one_way_split(rtt_ms);
        self.tracer.exit(span);
        let (forward_ms, reverse_ms) = if src == lo {
            (lo_to_hi_ms, hi_to_lo_ms)
        } else {
            (hi_to_lo_ms, lo_to_hi_ms)
        };

        let now_ms = (now * 1_000.0) as u64;
        let request = self.engine(self.names.probe_request, src, |node, _| {
            node.probe_request_for(dst, now_ms)
        });
        self.out.counts.probes_sent += 1;
        let seq = request.seq;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot].request = request;
                slot
            }
            None => {
                self.slots.push(Slot {
                    request,
                    response: None,
                });
                self.slots.len() - 1
            }
        };
        self.schedule(
            now + self.spec.sim_config.probe_timeout_s,
            Ev::Timeout { src, seq },
        );
        if forward_lost {
            self.release(slot);
            return;
        }
        self.schedule(
            now + forward_ms / 1_000.0,
            Ev::Deliver(Delivery {
                src,
                dst,
                slot,
                rtt_ms,
                reverse_delay_s: reverse_ms / 1_000.0,
                reverse_lost,
            }),
        );
    }

    fn on_probe_deliver(&mut self, now: f64, delivery: Delivery) {
        let Delivery {
            src,
            dst,
            slot,
            rtt_ms,
            reverse_delay_s,
            reverse_lost,
        } = delivery;
        if !self.alive[dst] {
            self.release(slot);
            return;
        }
        let Slot { request, response } = &mut self.slots[slot];
        let previous = response.take();
        let span = self.tracer.enter(self.names.respond);
        let before = alloc::counts();
        let node = &mut self.nodes[dst];
        let mut reply = match previous {
            Some(mut reply) => {
                node.respond_into(request, &mut reply);
                reply
            }
            None => node.respond(request),
        };
        self.out.engine_allocations += alloc::counts().since(before).allocations;
        self.tracer.exit(span);
        reply.rtt_ms = rtt_ms;
        if self.liar[dst] {
            if let Some((displacement_ms, inflate, error_estimate)) = self.lie {
                let direction: Vec<f64> = (0..reply.coordinate.dimensions())
                    .map(|_| self.lie_rng.gen_range(-1.0..=1.0))
                    .collect();
                distort(&mut reply.coordinate, &direction, displacement_ms, inflate);
                reply.error_estimate = error_estimate;
                for entry in &mut reply.gossip {
                    distort(&mut entry.coordinate, &direction, displacement_ms, inflate);
                    entry.error_estimate = error_estimate;
                }
            }
        }
        self.slots[slot].response = Some(reply);
        if reverse_lost {
            self.release(slot);
            return;
        }
        self.schedule(now + reverse_delay_s, Ev::Response { src, dst, slot });
    }

    fn on_response_deliver(&mut self, src: usize, dst: usize, slot: usize) {
        if !self.alive[src] {
            self.release(slot);
            return;
        }
        let response = self.slots[slot]
            .response
            .take()
            .expect("a delivered reply has a response");
        self.events.clear();
        let span = self.tracer.enter(self.names.handle_response);
        let before = alloc::counts();
        self.nodes[src].handle_response_into(&response, &mut self.events);
        self.out.engine_allocations += alloc::counts().since(before).allocations;
        self.tracer.exit(span);
        self.out.response_events += self.events.len() as u64;
        let ignored = self
            .events
            .iter()
            .any(|event| matches!(event, Event::ResponseIgnored { .. }));
        if !ignored {
            self.out.counts.responses_received += 1;
        }
        self.out.counts.fold(&self.events);
        if src < RECORDED_NODES && !ignored {
            let mut filtered_rtt_ms = None;
            let mut moved = false;
            for event in &self.events {
                match event {
                    Event::SystemMoved {
                        filtered_rtt_ms: f, ..
                    } => {
                        filtered_rtt_ms = Some(*f);
                        moved = true;
                    }
                    Event::ObservationRejected {
                        filtered_rtt_ms: f, ..
                    } => filtered_rtt_ms = Some(*f),
                    _ => {}
                }
            }
            self.out.observations.push(Observation {
                node: src as u32,
                peer: dst as u32,
                raw_rtt_ms: response.rtt_ms,
                remote: response.coordinate.clone(),
                remote_error: response.error_estimate,
                filtered_rtt_ms,
            });
            if moved {
                let system = self.nodes[src].system_coordinate().clone();
                self.out.system_moves.push((src as u32, system));
            }
        }
        if let Some(index) = self.out.index.as_mut() {
            for event in &self.events {
                if let Event::ApplicationUpdated { update } = event {
                    let span = self.tracer.enter(self.names.index_update);
                    let _ = index.update(src, &update.current);
                    self.tracer.exit(span);
                }
            }
        }
        self.slots[slot].response = Some(response);
        self.release(slot);

        if self.spec.sim_config.gossip && !self.neighbor_sets[dst].is_empty() {
            let idx = self
                .protocol_rng
                .gen_range(0..self.neighbor_sets[dst].len());
            let learned = self.neighbor_sets[dst][idx];
            if learned != src {
                self.neighbor_add(src, learned);
            }
        }
    }

    fn on_probe_timeout(&mut self, src: usize, seq: u64) {
        if !self.alive[src] {
            return;
        }
        self.events.clear();
        self.engine(self.names.handle_timeout, src, |node, events| {
            node.handle_timeout_into(seq, events)
        });
        let mut target = None;
        let mut evicted = false;
        for event in &self.events {
            match event {
                Event::ProbeLost { id, .. } => target = Some(*id),
                Event::NeighborEvicted { .. } => evicted = true,
                _ => {}
            }
        }
        self.out.counts.fold(&self.events);
        if evicted {
            if let Some(dst) = target {
                self.neighbor_remove(src, dst);
            }
        }
    }

    fn on_scenario(&mut self, now: f64, index: usize) {
        let action = self.spec.scenario.events()[index].action.clone();
        match action {
            ScenarioAction::Crash { nodes } => {
                for node in nodes {
                    if self.alive[node] {
                        self.alive[node] = false;
                        self.snapshots[node] = Some(self.nodes[node].snapshot());
                    }
                }
            }
            ScenarioAction::Restart { nodes } => {
                for node in nodes {
                    self.restart(now, node);
                }
            }
            _ => unreachable!("rejected before the replay started"),
        }
    }

    fn restart(&mut self, now: f64, node: usize) {
        if self.alive[node] {
            return;
        }
        self.alive[node] = true;
        let now_ms = (now * 1_000.0) as u64;
        let config = self.spec.node_config.clone();
        self.nodes[node] = match self.snapshots[node].take() {
            Some(snapshot) => StableNode::restore(config, &snapshot)
                .expect("a crash snapshot restores under its own configuration"),
            None => StableNode::new(config),
        };
        self.events.clear();
        self.engine(self.names.expire_pending, node, |revived, events| {
            revived.expire_pending_into(now_ms, 0, events)
        });
        let evicted: Vec<usize> = self
            .events
            .iter()
            .filter_map(|event| match event {
                Event::NeighborEvicted { id } => Some(*id),
                _ => None,
            })
            .collect();
        self.out.counts.fold(&self.events);
        for target in evicted {
            self.neighbor_remove(node, target);
        }
        if !self.probe_cycle_active[node] {
            self.probe_cycle_active[node] = true;
            self.schedule(now, Ev::Send { src: node });
        }
    }
}

/// Scales `coordinate` by `inflate` and displaces it by `displacement_ms`
/// along `direction` — what a coordinate liar does to its replies.
fn distort(coordinate: &mut Coordinate, direction: &[f64], displacement_ms: f64, inflate: f64) {
    if inflate != 1.0 {
        coordinate.scale_in_place(inflate);
    }
    let norm = direction.iter().map(|c| c * c).sum::<f64>().sqrt();
    if displacement_ms == 0.0 || norm <= 1e-12 {
        return;
    }
    let components: Vec<f64> = direction
        .iter()
        .map(|c| c * displacement_ms / norm)
        .collect();
    if let Ok(displacement) = Coordinate::new(&components) {
        coordinate.displace_by(&displacement);
    }
}
