//! `udp_loopback`: one [`NodeRuntime`] on 127.0.0.1 driven by a one-thread,
//! one-socket client over the host's loopback interface.
//!
//! The client keeps [`WINDOW`] binary `ProbeRequest`s outstanding (a closed
//! loop: a new request leaves only when a reply arrives), and it answers
//! the runtime's own probes with a [`StableNode`], so the runtime's digest
//! path runs too. Every reply must decode, correlate with an
//! outstanding request by `seq`, come from the runtime and carry a finite
//! coordinate.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use nc_proto::{BinaryMessage, Packet, ProbeRequest, ProbeResponse};
use nc_transport::{NodeRuntime, RuntimeConfig};
use nc_vivaldi::Coordinate;
use stable_nc::{NodeConfig, StableNode};

use crate::metrics::Outcome;
use crate::procfs;
use crate::stats::{median, Windows};
use crate::trace::{Name, Tracer};

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 4;
/// The runtime's probe interval, ms: it probes the client this often.
const RUNTIME_PROBE_INTERVAL_MS: u64 = 2;
/// A request unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_millis(500);
/// Runtime binds per run; the median is `setup_s`.
const BINDS: usize = 201;
/// Length of one measurement window. Steal on a shared host comes in
/// bursts shorter than a second, so short windows find the calm stretches
/// inside a busy run; 100 ms still holds about 15,000 exchanges, enough
/// for a p99, and 20 ticks of `/proc/stat` on two CPUs.
const MEASURE_WINDOW: Duration = Duration::from_millis(100);
/// The windows reported are those stolen from no more than this
/// percentile of the run's windows: about 20 of 200.
const CALM_PERCENTILE: f64 = 10.0;

/// Why a reply failed the output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyError {
    /// No outstanding request has this `seq`.
    UnknownSeq(u64),
    /// The reply names another responder than the runtime.
    WrongResponder,
    /// The coordinate or error estimate is not finite.
    NotFinite,
}

/// Checks a reply against the outstanding requests and returns the
/// position of the request it answers.
pub fn check_reply(
    outstanding: &[(u64, Instant)],
    reply: &ProbeResponse<SocketAddr>,
    runtime: SocketAddr,
) -> Result<usize, ReplyError> {
    let position = outstanding
        .iter()
        .position(|(seq, _)| *seq == reply.seq)
        .ok_or(ReplyError::UnknownSeq(reply.seq))?;
    if reply.responder != runtime {
        return Err(ReplyError::WrongResponder);
    }
    let finite = reply.coordinate.components().iter().all(|c| c.is_finite())
        && reply.coordinate.height().is_finite()
        && reply.error_estimate.is_finite();
    if !finite {
        return Err(ReplyError::NotFinite);
    }
    Ok(position)
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        probe_interval_ms: RUNTIME_PROBE_INTERVAL_MS,
        ..RuntimeConfig::default()
    }
}

fn localhost() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// Span names for a traced pass.
#[derive(Clone, Copy)]
struct Names {
    exchange: Name,
    encode: Name,
    send: Name,
    wait: Name,
    decode: Name,
    respond: Name,
}

/// The client peer. It builds its requests directly and checks each reply
/// without digesting it, so the client stays cheap next to the runtime it
/// loads; its [`StableNode`] only answers the runtime's probes.
struct Client {
    socket: UdpSocket,
    node: StableNode<SocketAddr>,
    me: SocketAddr,
    runtime: SocketAddr,
    origin: Instant,
    next_seq: u64,
    outstanding: Vec<(u64, Instant)>,
    reply: Option<ProbeResponse<SocketAddr>>,
}

/// What one pass of the client measured.
#[derive(Default)]
struct Pass {
    /// The median window's exchange rate and round-trip percentiles.
    windows: Option<crate::stats::WindowSummary>,
    exchanges: u64,
    attempted: u64,
    failed: u64,
    timeouts: u64,
    malformed: u64,
    request_bytes: u64,
    response_bytes: u64,
    wall_s: f64,
}

impl Client {
    fn new(runtime: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(localhost())?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let me = socket.local_addr()?;
        let mut node = StableNode::new(NodeConfig::paper_defaults());
        node.set_identity(me);
        Ok(Client {
            socket,
            node,
            me,
            runtime,
            origin: Instant::now(),
            next_seq: 0,
            outstanding: Vec::with_capacity(WINDOW),
            reply: None,
        })
    }

    /// Drives the exchange loop for `budget`.
    fn pass(&mut self, budget: Duration, mut tracer: Option<(&mut Tracer, Names)>) -> Pass {
        macro_rules! span {
            ($name:ident, $body:expr) => {{
                match tracer.as_mut() {
                    Some((t, names)) => {
                        let id = t.enter(names.$name);
                        let result = $body;
                        t.exit(id);
                        result
                    }
                    None => $body,
                }
            }};
        }
        let mut pass = Pass::default();
        let mut windows = Windows::new(MEASURE_WINDOW, CALM_PERCENTILE);
        let mut buffer = [0u8; 2048];
        let started = Instant::now();
        while started.elapsed() < budget {
            while self.outstanding.len() < WINDOW {
                let now_ms = self.origin.elapsed().as_millis() as u64;
                let request =
                    ProbeRequest::new(self.runtime, self.next_seq, now_ms).from_source(self.me);
                self.next_seq += 1;
                let bytes = span!(encode, request.encode_binary());
                pass.attempted += 1;
                pass.request_bytes += bytes.len() as u64;
                if span!(send, self.socket.send_to(&bytes, self.runtime)).is_err() {
                    pass.failed += 1;
                    continue;
                }
                self.outstanding.push((request.seq, Instant::now()));
            }
            let received = span!(wait, self.socket.recv_from(&mut buffer));
            let received_at = Instant::now();
            self.expire(received_at, &mut pass);
            let Ok((length, source)) = received else {
                continue;
            };
            match span!(decode, Packet::<SocketAddr>::decode(&buffer[..length])) {
                Err(_) => {
                    pass.malformed += 1;
                    pass.failed += 1;
                }
                Ok(Packet::Request(request)) => {
                    let mut reply = self.reply.take().unwrap_or_else(|| {
                        ProbeResponse::new(self.me, &request, Coordinate::origin(3), 1.0)
                    });
                    span!(respond, self.node.respond_into(&request, &mut reply));
                    let bytes = span!(encode, reply.encode_binary());
                    let _ = span!(send, self.socket.send_to(&bytes, source));
                    self.reply = Some(reply);
                }
                Ok(Packet::Response(response)) => {
                    pass.response_bytes += length as u64;
                    match check_reply(&self.outstanding, &response, self.runtime) {
                        Err(error) => {
                            eprintln!("check failed: reply {error:?}");
                            pass.failed += 1;
                        }
                        Ok(position) => {
                            let (_, sent_at) = self.outstanding.swap_remove(position);
                            if let Some((t, names)) = tracer.as_mut() {
                                t.record(names.exchange, sent_at, received_at);
                            }
                            windows.operation(Some((received_at - sent_at).as_secs_f64() * 1e6));
                            pass.exchanges += 1;
                        }
                    }
                }
            }
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        pass.windows = Some(windows.finish());
        pass
    }

    /// Fails requests that waited longer than [`REPLY_TIMEOUT`] by `now`,
    /// so a lost datagram frees its slot in the window.
    fn expire(&mut self, now: Instant, pass: &mut Pass) {
        let before = self.outstanding.len();
        self.outstanding
            .retain(|(_, sent_at)| now.saturating_duration_since(*sent_at) < REPLY_TIMEOUT);
        let expired = (before - self.outstanding.len()) as u64;
        pass.timeouts += expired;
        pass.failed += expired;
    }
}

/// Binds a runtime [`BINDS`] times; returns the median bind time and the
/// last runtime.
fn bind_runtime() -> std::io::Result<(f64, NodeRuntime)> {
    let mut times = Vec::with_capacity(BINDS);
    let mut last = None;
    for _ in 0..BINDS {
        if let Some(previous) = last.take() {
            NodeRuntime::shutdown(previous)?;
        }
        let start = Instant::now();
        last = Some(NodeRuntime::bind(localhost(), runtime_config())?);
        times.push(start.elapsed().as_secs_f64());
    }
    let runtime = last.expect("bound at least once");
    Ok((median(&mut times).unwrap_or(f64::NAN), runtime))
}

/// One untraced run.
pub fn run(budget: Duration) -> std::io::Result<Outcome> {
    let (setup_s, runtime) = bind_runtime()?;
    let mut client = Client::new(runtime.local_addr())?;
    let pass = client.pass(budget, None);
    let windows = pass.windows.expect("set by every pass");
    let stats = runtime.stats();
    runtime.shutdown()?;
    let mut outcome = Outcome {
        attempted: pass.attempted,
        failed: pass.failed + stats.malformed_datagrams,
        ..Outcome::default()
    };
    outcome.set("setup_s", setup_s);
    outcome.set("ops_per_s", windows.rate);
    outcome.set("read_p50_us", windows.p50_us);
    outcome.set("read_p99_us", windows.p99_us);
    outcome.set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(f64::NAN));
    crate::set_no_ground_truth(&mut outcome);
    outcome.set(
        "ok_frac",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    Ok(outcome)
}

/// The traced run: half the budget untraced, half traced. The exchange
/// stream does not depend on `seed`, which only names the trace file.
pub fn run_traced(seed: u64, budget: Duration, tracer: &mut Tracer) -> std::io::Result<Outcome> {
    let runtime = NodeRuntime::bind(localhost(), runtime_config())?;
    let mut client = Client::new(runtime.local_addr())?;
    let half = budget / 2;
    let untraced = client.pass(half, None);
    let names = Names {
        exchange: tracer.name("transport.exchange"),
        encode: tracer.name("proto.encode"),
        send: tracer.name("transport.send_to"),
        wait: tracer.name("transport.recv_from"),
        decode: tracer.name("proto.decode"),
        respond: tracer.name("core.respond"),
    };
    let root = tracer.name("udp");
    let root = tracer.enter(root);
    let traced = client.pass(half, Some((tracer, names)));
    tracer.exit(root);
    let stats = runtime.stats();
    runtime.shutdown()?;

    let mut outcome = Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed + stats.malformed_datagrams,
        ..Outcome::default()
    };
    let spans = tracer.len();
    let summary = std::mem::take(tracer).finish();
    let mean = |name: &str| summary.mean_self_ns(name);
    outcome.set("core.respond_ns", mean("core.respond"));
    outcome.set("proto.encode_ns", mean("proto.encode"));
    outcome.set("proto.decode_ns", mean("proto.decode"));
    outcome.set(
        "proto.request_bytes",
        traced.request_bytes as f64 / traced.attempted.max(1) as f64,
    );
    outcome.set(
        "proto.response_bytes",
        traced.response_bytes as f64 / traced.exchanges.max(1) as f64,
    );
    outcome.set(
        "transport.requests_answered",
        stats.requests_answered as f64,
    );
    outcome.set(
        "transport.client_wait_us",
        mean("transport.recv_from") / 1e3,
    );
    outcome.set(
        "transport.timeouts",
        (untraced.timeouts + traced.timeouts) as f64,
    );
    outcome.set(
        "transport.malformed_datagrams",
        (stats.malformed_datagrams + untraced.malformed + traced.malformed) as f64,
    );
    let untraced_rate = untraced.exchanges as f64 / untraced.wall_s;
    let traced_rate = traced.exchanges as f64 / traced.wall_s;
    outcome.set("trace.overhead_frac", untraced_rate / traced_rate - 1.0);
    outcome.set("trace.spans", spans as f64);
    // The engine layers run inside the runtime, out of the benchmark's
    // reach; only the client's `respond_into` is timed.
    crate::set_absent_layers(
        &mut outcome,
        &[
            "netsim.", "core.", "filters.", "vivaldi.", "change.", "query.",
        ],
    );
    crate::write_trace(&summary, "udp_loopback", seed);
    Ok(outcome)
}
