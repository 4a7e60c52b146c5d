//! The two transports the driver runs the protocol over, behind one
//! lockstep interface: every call moves exactly the frames the protocol
//! expects next, and hands them over in a canonical order, so both
//! transports feed the coordinator and the nodes identical sequences.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use automon_core::{CoordinatorMessage, NodeId, NodeMessage, Outbound};
use automon_net::reactor::{Reactor, ReactorConfig, ReactorCoordinatorTransport, ReactorTraffic};
use automon_net::sim_poller::{SimClient, SimNet, SimPoller};
use automon_net::tcp::TcpError;
use automon_net::{wire, SyscallStats};
use automon_obs::{SpanId, Telemetry};
use bytes::Bytes;

use crate::probe::{begin, end, Kind};

/// How long a blocking receive may wait before the update counts as
/// failed.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Reactor polls without progress before an in-process receive gives
/// up (the simulated network never stalls, so this only trips on a
/// protocol or transport fault).
const MAX_IDLE_POLLS: usize = 64;

/// Why a resolution failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// A send hit a dead connection.
    Send,
    /// The transport refused a send (backpressure).
    Refused,
    /// An expected frame did not arrive in time.
    Deadline,
}

/// Frames and wire bytes (length prefix included) as the driver saw
/// them, for the cross-check against the transport's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub hellos: u64,
    pub hello_bytes: u64,
    pub up_frames: u64,
    pub up_bytes: u64,
    pub down_frames: u64,
    pub down_bytes: u64,
}

/// Wire bytes of shipping `x` from `node` as one frame: the
/// centralization baseline's cost per update.
pub fn central_frame_bytes(node: NodeId, x: &[f64]) -> usize {
    let msg = NodeMessage::LocalVector {
        node,
        vector: x.to_vec(),
        epoch: 0,
    };
    wire::encode_node_message(&msg).len() + 4
}

fn hello(node: NodeId) -> Bytes {
    wire::encode_node_message(&NodeMessage::LocalVector {
        node,
        vector: Vec::new(),
        epoch: 0,
    })
}

/// Lockstep frame movement between the driver's nodes and coordinator.
pub trait Link {
    /// Node `node` sends `msg` to the coordinator.
    fn send_up(&mut self, node: NodeId, msg: &NodeMessage) -> Result<(), Fail>;
    /// Receive one frame from each of `senders` at the coordinator,
    /// returned in `senders` order.
    fn recv_up(&mut self, senders: &[NodeId]) -> Result<Vec<NodeMessage>, Fail>;
    /// The coordinator sends `outs`.
    fn send_down(&mut self, outs: &[Outbound]) -> Result<(), Fail>;
    /// Each addressed node receives its frame of `outs`, returned in
    /// `outs` order.
    fn recv_down(&mut self, outs: &[Outbound]) -> Result<Vec<CoordinatorMessage>, Fail>;
    /// The driver's own frame and byte counts.
    fn counts(&self) -> Counts;
    /// The transport's traffic counters, once they account for every
    /// frame in `counts` (the threaded transport publishes lazily).
    fn traffic(&mut self) -> ReactorTraffic;
    /// Coordinator-side syscalls so far.
    fn syscalls(&self) -> SyscallStats;
    /// Sends the transport refused so far.
    fn refusals(&self) -> u64;
}

/// Reorder frames received from several connections into the order the
/// senders sent them.
fn in_send_order(
    inbox: &mut [VecDeque<NodeMessage>],
    senders: &[NodeId],
) -> Result<Vec<NodeMessage>, Fail> {
    senders
        .iter()
        .map(|&s| inbox[s].pop_front().ok_or(Fail::Deadline))
        .collect()
}

fn encode_up(msg: &NodeMessage) -> Bytes {
    let tok = begin(Kind::WireEncode);
    let frame = wire::encode_node_message_ctx(msg, SpanId::NONE);
    end(tok);
    frame
}

fn decode_down(frame: &[u8]) -> Result<CoordinatorMessage, Fail> {
    let tok = begin(Kind::WireDecode);
    let m = wire::decode_coordinator_message_ctx(frame).map(|(_, m)| m);
    end(tok);
    m.map_err(|_| Fail::Send)
}

fn send_error(e: TcpError) -> Fail {
    match e {
        TcpError::Backpressured(_) => Fail::Refused,
        _ => Fail::Send,
    }
}

/// `Reactor<SimPoller>` driven inline, with one `SimClient` per node.
pub struct SimLink {
    reactor: Reactor<SimPoller>,
    clients: Vec<SimClient>,
    inbox: Vec<VecDeque<NodeMessage>>,
    /// Frames waiting in `inbox`.
    queued: usize,
    downbox: Vec<VecDeque<CoordinatorMessage>>,
    counts: Counts,
    refusals: u64,
    _net: SimNet,
}

impl SimLink {
    /// Build the reactor, connect `n` clients and complete their hellos.
    /// The chunking schedule of the simulated network follows `seed`.
    pub fn connect(n: usize, seed: u64) -> Result<SimLink, String> {
        let net = SimNet::new(seed);
        let mut reactor = Reactor::new(net.poller(), Some(net.listener()), ReactorConfig::new(n))
            .map_err(|e| format!("sim reactor: {e}"))?;
        let clients: Vec<SimClient> = (0..n).map(|_| net.connect()).collect();
        let mut counts = Counts::default();
        for (i, c) in clients.iter().enumerate() {
            let frame = hello(i);
            if !c.send_frame(&frame) {
                return Err(format!("hello of node {i} refused"));
            }
            counts.hellos += 1;
            counts.hello_bytes += frame.len() as u64 + 4;
        }
        let mut idle = 0;
        while reactor.connected_count() < n {
            reactor
                .poll_once(Some(Duration::ZERO))
                .map_err(|e| format!("sim poll: {e}"))?;
            idle += 1;
            if idle > n + MAX_IDLE_POLLS {
                return Err("sim hellos did not complete".into());
            }
        }
        Ok(SimLink {
            reactor,
            clients,
            inbox: vec![VecDeque::new(); n],
            queued: 0,
            downbox: vec![VecDeque::new(); n],
            counts,
            refusals: 0,
            _net: net,
        })
    }

    /// One reactor pass: service readiness, flush short writes, collect
    /// decoded inbound frames. Returns how many frames arrived.
    fn pump(&mut self) -> Result<usize, Fail> {
        let tok = begin(Kind::ReactorPoll);
        let r = self.reactor.poll_once(Some(Duration::ZERO));
        let mut got = 0;
        while let Some((_, m)) = self.reactor.pop_inbound() {
            self.inbox[m.sender()].push_back(m);
            got += 1;
        }
        self.queued += got;
        end(tok);
        r.map(|()| got).map_err(|_| Fail::Send)
    }
}

impl Link for SimLink {
    fn send_up(&mut self, node: NodeId, msg: &NodeMessage) -> Result<(), Fail> {
        let frame = encode_up(msg);
        let tok = begin(Kind::SockSend);
        let ok = self.clients[node].send_frame(&frame);
        end(tok);
        if !ok {
            return Err(Fail::Send);
        }
        self.counts.up_frames += 1;
        self.counts.up_bytes += frame.len() as u64 + 4;
        Ok(())
    }

    fn recv_up(&mut self, senders: &[NodeId]) -> Result<Vec<NodeMessage>, Fail> {
        let mut idle = 0;
        while self.queued < senders.len() {
            let got = self.pump()?;
            idle = if got == 0 { idle + 1 } else { 0 };
            if idle > MAX_IDLE_POLLS {
                return Err(Fail::Deadline);
            }
        }
        self.queued -= senders.len();
        in_send_order(&mut self.inbox, senders)
    }

    fn send_down(&mut self, outs: &[Outbound]) -> Result<(), Fail> {
        let tok = begin(Kind::ReactorSend);
        let mut r = Ok(());
        for out in outs {
            if let Err(e) = self.reactor.enqueue(out) {
                r = Err(send_error(e));
                break;
            }
        }
        end(tok);
        if r == Err(Fail::Refused) {
            self.refusals += 1;
        }
        r
    }

    fn recv_down(&mut self, outs: &[Outbound]) -> Result<Vec<CoordinatorMessage>, Fail> {
        let mut msgs = Vec::with_capacity(outs.len());
        for out in outs {
            let mut idle = 0;
            while self.downbox[out.to].is_empty() {
                let tok = begin(Kind::SockRecv);
                let frames = self.clients[out.to].recv_frames();
                end(tok);
                if frames.is_empty() {
                    // A short write left the rest of the frame queued in
                    // the reactor: let it service writability.
                    let tok = begin(Kind::ReactorPoll);
                    let r = self.reactor.poll_once(Some(Duration::ZERO));
                    self.reactor.flush_all();
                    end(tok);
                    r.map_err(|_| Fail::Send)?;
                    idle += 1;
                    if idle > MAX_IDLE_POLLS {
                        return Err(Fail::Deadline);
                    }
                }
                for f in frames {
                    self.counts.down_frames += 1;
                    self.counts.down_bytes += f.len() as u64 + 4;
                    self.downbox[out.to].push_back(decode_down(&f)?);
                }
            }
            msgs.push(self.downbox[out.to].pop_front().expect("checked non-empty"));
        }
        Ok(msgs)
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn traffic(&mut self) -> ReactorTraffic {
        self.reactor.traffic()
    }

    fn syscalls(&self) -> SyscallStats {
        self.reactor.syscalls()
    }

    fn refusals(&self) -> u64 {
        self.refusals
    }
}

/// `ReactorCoordinatorTransport` on loopback, with one blocking
/// `TcpStream` per node on the driver thread.
pub struct SocketLink {
    transport: ReactorCoordinatorTransport,
    streams: Vec<TcpStream>,
    inbox: Vec<VecDeque<NodeMessage>>,
    counts: Counts,
    refusals: u64,
}

fn dial(addr: SocketAddr, node: NodeId) -> Result<TcpStream, String> {
    let t0 = Instant::now();
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            // The transport binds on its own thread; until it listens,
            // connects are refused.
            Err(_) if t0.elapsed() < DEADLINE => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => return Err(format!("node {node}: connect {addr}: {e}")),
        }
    };
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(DEADLINE))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let prefix = wire::frame_len_prefix(frame.len())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e:?}")))?;
    let mut buf = Vec::with_capacity(frame.len() + 4);
    buf.extend_from_slice(&prefix.to_le_bytes());
    buf.extend_from_slice(frame);
    stream.write_all(&buf)
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let n = wire::check_frame_len(u32::from_le_bytes(len))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

impl SocketLink {
    /// Bind the transport on a free loopback port and connect `n` nodes,
    /// each sending its hello.
    pub fn connect(n: usize, tel: Telemetry) -> Result<SocketLink, String> {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("probe port: {e}"))?;
        let binder = std::thread::spawn(move || {
            ReactorCoordinatorTransport::bind_with_telemetry(addr, n, Some(DEADLINE), tel)
                .map(|(t, _)| t)
                .map_err(|e| format!("bind {addr}: {e}"))
        });
        let mut counts = Counts::default();
        let mut streams = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = dial(addr, i)?;
            let frame = hello(i);
            write_frame(&mut s, &frame).map_err(|e| format!("hello of node {i}: {e}"))?;
            counts.hellos += 1;
            counts.hello_bytes += frame.len() as u64 + 4;
            streams.push(s);
        }
        let transport = binder
            .join()
            .map_err(|_| "transport bind thread panicked".to_string())??;
        Ok(SocketLink {
            transport,
            streams,
            inbox: vec![VecDeque::new(); n],
            counts,
            refusals: 0,
        })
    }
}

impl Link for SocketLink {
    fn send_up(&mut self, node: NodeId, msg: &NodeMessage) -> Result<(), Fail> {
        let frame = encode_up(msg);
        let tok = begin(Kind::SockSend);
        let r = write_frame(&mut self.streams[node], &frame);
        end(tok);
        r.map_err(|_| Fail::Send)?;
        self.counts.up_frames += 1;
        self.counts.up_bytes += frame.len() as u64 + 4;
        Ok(())
    }

    fn recv_up(&mut self, senders: &[NodeId]) -> Result<Vec<NodeMessage>, Fail> {
        for _ in senders {
            let tok = begin(Kind::CoordRecv);
            let m = self.transport.recv_timeout(DEADLINE);
            end(tok);
            let m = m.ok_or(Fail::Deadline)?;
            self.inbox[m.sender()].push_back(m);
        }
        in_send_order(&mut self.inbox, senders)
    }

    fn send_down(&mut self, outs: &[Outbound]) -> Result<(), Fail> {
        let tok = begin(Kind::ReactorSend);
        let r = outs
            .iter()
            .try_for_each(|o| self.transport.send(o))
            .map_err(send_error);
        end(tok);
        if r == Err(Fail::Refused) {
            self.refusals += 1;
        }
        r
    }

    fn recv_down(&mut self, outs: &[Outbound]) -> Result<Vec<CoordinatorMessage>, Fail> {
        outs.iter()
            .map(|out| {
                let tok = begin(Kind::SockRecv);
                let frame = read_frame(&mut self.streams[out.to]);
                end(tok);
                let frame = frame.map_err(|_| Fail::Deadline)?;
                self.counts.down_frames += 1;
                self.counts.down_bytes += frame.len() as u64 + 4;
                decode_down(&frame)
            })
            .collect()
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn traffic(&mut self) -> ReactorTraffic {
        // The event loop publishes its counters when it goes idle; wait
        // (outside any timed region) until they cover what was sent.
        let c = self.counts;
        let t0 = Instant::now();
        loop {
            let t = self.transport.traffic();
            let caught_up = t.frames_in >= c.hellos + c.up_frames && t.frames_out >= c.down_frames;
            if caught_up || t0.elapsed() > Duration::from_secs(2) {
                return t;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn syscalls(&self) -> SyscallStats {
        self.transport.syscall_stats()
    }

    fn refusals(&self) -> u64 {
        self.refusals
    }
}
