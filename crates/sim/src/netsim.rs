//! Lockstep simulation of the reactor transport: the protocol over
//! `Reactor<SimPoller>` with chaos at the frame boundary.
//!
//! Where [`crate::Simulation`] routes messages through the in-process
//! fabric and [`crate::ChaosSimulation`] through the fault-injecting
//! fabric, [`NetSimulation`] routes them through the *real transport
//! state machines*: every report is encoded to wire bytes, pushed down
//! a simulated duplex pipe with seeded read-chunking and short writes,
//! reassembled by the reactor's frame coalescer, gated by the same
//! seeded fault ladder the chaos fabric uses ([`LadderGate`]), and only
//! then handled by the coordinator. Replies take the mirrored path back
//! through the reactor's `writev` batching.
//!
//! Everything is seeded and single-threaded, so a run is a pure
//! function of `(seed, plan, workload)`: same inputs ⇒ byte-identical
//! JSONL trace and identical [`RunStats`] — the determinism contract CI
//! smoke-checks (`scripts/ci.sh` step 12). Because the protocol-visible
//! outcome depends only on frame *contents and order* (not on how bytes
//! were chunked in transit), a fault-free run also produces the same
//! protocol decisions the threaded TCP backend reaches over real
//! sockets — the backend-parity half of the smoke.
//!
//! The ladder gates the coordinator's inbound frame boundary (reports
//! and pull replies); timed crashes and partitions remain the
//! in-process chaos fabric's domain.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use automon_chaos::{FaultPlan, GateCounts, LadderGate};
use automon_core::{Coordinator, MonitorConfig, MonitoredFunction, Node, NodeMessage, Outbound};
use automon_linalg::vector;
use automon_net::reactor::{Reactor, ReactorConfig, ReactorTraffic};
use automon_net::sim_poller::{SimClient, SimNet, SimPoller};
use automon_net::tcp::TcpError;
use automon_net::{wire, FrameGate, GateVerdict, SyscallStats};
use automon_obs::SpanId;

use crate::stats::RunStats;
use crate::workload::Workload;

/// Retransmit base interval, in rounds.
const RETRANSMIT_AFTER: usize = 2;
/// Retransmit backoff cap, in rounds.
const MAX_BACKOFF: usize = 32;
/// Post-workload drain budget before declaring non-quiescence.
const MAX_RECOVERY_ROUNDS: usize = 256;
/// Idle pump iterations that count as in-round quiescence.
const IDLE_ITERS: usize = 4;

/// A [`LadderGate`] that mirrors its fault tally into a shared cell the
/// harness can read after the gate is boxed into the reactor.
struct SharedLadder {
    inner: LadderGate,
    counts: Arc<Mutex<GateCounts>>,
}

impl FrameGate for SharedLadder {
    fn gate(&mut self, immune: bool) -> GateVerdict {
        let v = self.inner.gate(immune);
        *self.counts.lock().unwrap_or_else(|e| e.into_inner()) = self.inner.counts();
        v
    }
}

/// Everything one reactor-path run produces.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// Protocol-level outcome (errors, syncs, traffic totals).
    pub stats: RunStats,
    /// JSONL event trace; byte-identical for identical `(seed, plan,
    /// workload)`.
    pub trace: String,
    /// Simulated-syscall counts from the poller (reads, writevs, waits).
    pub syscalls: SyscallStats,
    /// Frame/byte counts from the reactor core.
    pub traffic: ReactorTraffic,
    /// Faults the ladder injected.
    pub faults: GateCounts,
    /// `false` if the protocol failed to quiesce inside the drain
    /// budget.
    pub quiesced: bool,
}

/// The reactor-transport simulation harness.
pub struct NetSimulation {
    f: Arc<dyn MonitoredFunction>,
    cfg: MonitorConfig,
    plan: FaultPlan,
    /// Seed for the transport's chunking schedule (independent of the
    /// plan's fault seed).
    net_seed: u64,
    max_read_chunk: usize,
    client_buf_cap: usize,
}

impl NetSimulation {
    /// A simulation of `f` under `cfg` with a fault-free transport.
    pub fn new(f: Arc<dyn MonitoredFunction>, cfg: MonitorConfig) -> Self {
        Self {
            f,
            cfg,
            plan: FaultPlan::none(),
            net_seed: 0,
            max_read_chunk: 97,
            client_buf_cap: 1 << 14,
        }
    }

    /// Install a fault plan; its per-frame ladder gates the
    /// coordinator's inbound frames. Timed crashes and partitions are
    /// not simulated on this path.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        debug_assert!(
            plan.crashes.is_empty() && plan.partitions.is_empty(),
            "netsim gates frames; crashes/partitions belong to ChaosSimulation"
        );
        self.plan = plan;
        self
    }

    /// Seed the transport's read-chunk/short-write schedule.
    pub fn with_net_seed(mut self, seed: u64) -> Self {
        self.net_seed = seed;
        self
    }

    /// Bound the simulated read chunks and client buffer (smaller
    /// values exercise more frame splits and partial writes).
    pub fn with_limits(mut self, max_read_chunk: usize, client_buf_cap: usize) -> Self {
        self.max_read_chunk = max_read_chunk;
        self.client_buf_cap = client_buf_cap;
        self
    }

    /// Run the workload over the simulated reactor transport.
    pub fn run(&self, workload: &Workload) -> NetRunReport {
        let n = workload.nodes();
        let mut coord = Coordinator::new(self.f.clone(), n, self.cfg.clone());
        let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, self.f.clone())).collect();

        let net = SimNet::with_limits(self.net_seed, self.max_read_chunk, self.client_buf_cap);
        let mut reactor = Reactor::new(
            net.poller(),
            Some(net.listener()),
            ReactorConfig::new(n),
        )
        .expect("sim reactor never fails to build");
        let fault_counts = Arc::new(Mutex::new(GateCounts::default()));
        reactor.set_gate(Box::new(SharedLadder {
            inner: LadderGate::new(&self.plan),
            counts: fault_counts.clone(),
        }));

        // Connect + hello each node, in id order.
        let clients: Vec<SimClient> = (0..n).map(|_| net.connect()).collect();
        for (i, c) in clients.iter().enumerate() {
            let hello = wire::encode_node_message(&NodeMessage::LocalVector {
                node: i,
                vector: Vec::new(),
                epoch: 0,
            });
            assert!(c.send_frame(&hello), "fresh connection accepts the hello");
        }
        while reactor.connected_count() < n {
            reactor
                .poll_once(Some(Duration::ZERO))
                .expect("sim poll never fails");
            // Hellos must never hit the fault ladder; the reactor
            // consumes them pre-gate.
        }

        let mut trace = String::new();
        let mut messages = 0usize;
        let mut payload_bytes = 0usize;
        let mut retransmits = 0usize;
        let mut pending_out: VecDeque<Outbound> = VecDeque::new();

        let mut current: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut errors = Vec::with_capacity(workload.rounds());
        let mut missed = 0usize;

        let mut node_retry_at = vec![RETRANSMIT_AFTER; n];
        let mut node_interval = vec![RETRANSMIT_AFTER; n];
        let mut coord_retry_at = RETRANSMIT_AFTER;
        let mut coord_interval = RETRANSMIT_AFTER;

        let total = workload.rounds();
        let mut recovery_rounds = 0usize;
        let mut t = 0usize;
        let quiesced = loop {
            if t >= total {
                let quiet = !coord.is_resolving()
                    && reactor.delayed_frames() == 0
                    && pending_out.is_empty()
                    && nodes.iter().all(|nd| !nd.is_pending());
                if quiet {
                    break true;
                }
                if recovery_rounds >= MAX_RECOVERY_ROUNDS {
                    break false;
                }
                recovery_rounds += 1;
            }
            reactor.begin_round(t);

            if t < total {
                for (node, x) in workload.updates(t) {
                    current[*node] = Some(x.clone());
                    if let Some(m) = nodes[*node].update_data(x.clone()) {
                        send_report(&clients[*node], &m, t, &mut trace, &mut messages, &mut payload_bytes);
                        // Resolve each report before the next node
                        // updates, exactly like the in-process fabric's
                        // `route_as`: protocol event order then depends
                        // only on the workload and the fault ladder,
                        // never on how bytes were chunked in transit.
                        self.pump(
                            &mut reactor,
                            &mut coord,
                            &mut nodes,
                            &clients,
                            &mut pending_out,
                            t,
                            &mut trace,
                            &mut messages,
                            &mut payload_bytes,
                        );
                    }
                }
            }

            // Matured delayed frames and backpressured leftovers drain
            // even on rounds with no fresh report.
            self.pump(
                &mut reactor,
                &mut coord,
                &mut nodes,
                &clients,
                &mut pending_out,
                t,
                &mut trace,
                &mut messages,
                &mut payload_bytes,
            );

            // Retransmission with exponential backoff, both directions —
            // dropped frames must not wedge the protocol.
            for i in 0..n {
                if nodes[i].is_pending() {
                    if t >= node_retry_at[i] {
                        if let Some(m) = nodes[i].retransmit_report() {
                            retransmits += 1;
                            trace.push_str(&format!(
                                "{{\"round\":{t},\"ev\":\"retransmit_report\",\"node\":{i}}}\n"
                            ));
                            send_report(&clients[i], &m, t, &mut trace, &mut messages, &mut payload_bytes);
                        }
                        node_interval[i] = (node_interval[i] * 2).min(MAX_BACKOFF);
                        node_retry_at[i] = t + node_interval[i];
                    }
                } else {
                    node_interval[i] = RETRANSMIT_AFTER;
                    node_retry_at[i] = t + RETRANSMIT_AFTER;
                }
            }
            let mut repump = false;
            if coord.is_resolving() {
                if t >= coord_retry_at {
                    let outs = coord.outstanding_requests();
                    retransmits += outs.len();
                    trace.push_str(&format!(
                        "{{\"round\":{t},\"ev\":\"retransmit_pulls\",\"count\":{}}}\n",
                        outs.len()
                    ));
                    pending_out.extend(outs);
                    coord_interval = (coord_interval * 2).min(MAX_BACKOFF);
                    coord_retry_at = t + coord_interval;
                    repump = true;
                }
            } else {
                coord_interval = RETRANSMIT_AFTER;
                coord_retry_at = t + RETRANSMIT_AFTER;
            }
            if repump {
                self.pump(
                    &mut reactor,
                    &mut coord,
                    &mut nodes,
                    &clients,
                    &mut pending_out,
                    t,
                    &mut trace,
                    &mut messages,
                    &mut payload_bytes,
                );
            }

            // Measure against ground truth once every node has data.
            if t < total && current.iter().all(Option::is_some) {
                if let Some(est) = coord.current_value() {
                    let xs: Vec<Vec<f64>> =
                        current.iter().map(|x| x.clone().expect("present")).collect();
                    let truth = self.f.eval(&vector::mean(&xs).expect("n > 0"));
                    errors.push((est - truth).abs());
                    if let Some(zone) = coord.zone() {
                        if !zone.admissible(truth) {
                            missed += 1;
                        }
                    }
                }
            }
            t += 1;
        };

        let st = coord.stats();
        let faults = *fault_counts.lock().unwrap_or_else(|e| e.into_inner());
        let mut stats = RunStats {
            messages,
            payload_bytes,
            missed_violation_rounds: missed,
            neighborhood_violations: st.neighborhood_violations,
            safezone_violations: st.safezone_violations,
            faulty_reports: st.faulty_reports,
            full_syncs: st.full_syncs,
            lazy_syncs: st.lazy_syncs,
            retransmits,
            injected_faults: faults.injected() as usize,
            recovery_rounds,
            ..RunStats::default()
        };
        stats.set_errors(errors);
        NetRunReport {
            stats,
            trace,
            syscalls: reactor.syscalls(),
            traffic: reactor.traffic(),
            faults,
            quiesced,
        }
    }

    /// Exchange frames until the round is quiescent: reactor inbound →
    /// coordinator → reactor outbound → clients → node replies → back
    /// in, with queued outbounds retried as backpressure relieves.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &self,
        reactor: &mut Reactor<SimPoller>,
        coord: &mut Coordinator,
        nodes: &mut [Node],
        clients: &[SimClient],
        pending_out: &mut VecDeque<Outbound>,
        t: usize,
        trace: &mut String,
        messages: &mut usize,
        payload_bytes: &mut usize,
    ) {
        let mut idle = 0usize;
        while idle < IDLE_ITERS {
            reactor
                .poll_once(Some(Duration::ZERO))
                .expect("sim poll never fails");
            let mut progress = false;

            // Mirror transport backpressure into the protocol layer so
            // lazy-sync growth prefers responsive nodes.
            for i in 0..nodes.len() {
                coord.set_backpressured(i, reactor.node_backpressured(i));
            }

            // Backpressured outbounds from earlier iterations first.
            for _ in 0..pending_out.len() {
                let out = pending_out.pop_front().expect("len checked");
                match reactor.enqueue(&out) {
                    Ok(()) => {
                        progress = true;
                        trace_out(trace, t, &out, messages, payload_bytes);
                    }
                    Err(TcpError::Backpressured(_)) => pending_out.push_back(out),
                    Err(_) => { /* node gone: drop, retransmit logic recovers */ }
                }
            }

            while let Some((_span, m)) = reactor.pop_inbound() {
                progress = true;
                // Counted once, on send (`send_report`), like the
                // in-process fabric.
                trace.push_str(&format!(
                    "{{\"round\":{t},\"ev\":\"deliver\",\"node\":{},\"kind\":\"{}\"}}\n",
                    m.sender(),
                    node_msg_kind(&m),
                ));
                for out in coord.handle(m) {
                    match reactor.enqueue(&out) {
                        Ok(()) => trace_out(trace, t, &out, messages, payload_bytes),
                        Err(TcpError::Backpressured(_)) => pending_out.push_back(out),
                        Err(_) => {}
                    }
                }
            }

            reactor.flush_all();

            for (i, c) in clients.iter().enumerate() {
                for frame in c.recv_frames() {
                    progress = true;
                    let (_, cm) = wire::decode_coordinator_message_ctx(&frame)
                        .expect("reactor emits valid frames");
                    if let Some(reply) = nodes[i].handle(cm) {
                        send_report(c, &reply, t, trace, messages, payload_bytes);
                    }
                }
            }

            if progress {
                idle = 0;
            } else {
                idle += 1;
            }
        }
    }
}

fn node_msg_kind(m: &NodeMessage) -> &'static str {
    match m {
        NodeMessage::Violation { .. } => "violation",
        NodeMessage::LocalVector { .. } => "local_vector",
    }
}

fn coord_msg_kind(out: &Outbound) -> &'static str {
    use automon_core::CoordinatorMessage as C;
    match out.msg {
        C::RequestLocalVector { .. } => "pull",
        C::NewConstraints { .. } => "new_constraints",
        C::NewConstraintsCached { .. } => "new_constraints_cached",
        C::SlackUpdate { .. } => "slack_update",
    }
}

fn trace_out(trace: &mut String, t: usize, out: &Outbound, messages: &mut usize, bytes: &mut usize) {
    let len = wire::encode_coordinator_message_ctx(&out.msg, out.span).len();
    *messages += 1;
    *bytes += len;
    trace.push_str(&format!(
        "{{\"round\":{t},\"ev\":\"send\",\"to\":{},\"kind\":\"{}\",\"bytes\":{len}}}\n",
        out.to,
        coord_msg_kind(out),
    ));
}

fn send_report(
    client: &SimClient,
    m: &NodeMessage,
    t: usize,
    trace: &mut String,
    messages: &mut usize,
    bytes: &mut usize,
) {
    let frame = wire::encode_node_message_ctx(m, SpanId::NONE);
    *messages += 1;
    *bytes += frame.len();
    trace.push_str(&format!(
        "{{\"round\":{t},\"ev\":\"report\",\"node\":{},\"kind\":\"{}\",\"bytes\":{}}}\n",
        m.sender(),
        node_msg_kind(m),
        frame.len(),
    ));
    // A report to a dropped server connection is lost — like a send on
    // a dead socket — and recovered by the retransmit path.
    let _ = client.send_frame(&frame);
}
