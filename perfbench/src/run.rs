//! The closed-loop driver of Algorithm 1 and the repeat loop around it.
//!
//! Each node update is handled, and any violation it raises is fully
//! resolved (every frame delivered and handled), before the next update.
//! A repeat builds everything from scratch (set-up), then runs every
//! measured round once; a run repeats until its time is spent.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use automon_core::{
    Coordinator, CoordinatorMessage, CoordinatorStats, MonitorConfig, MonitoredFunction, Node,
    NodeMessage, Parallelism,
};
use automon_obs::Telemetry;
use automon_store::{CoordinatorStore, FileDisk, StoreOptions};

use crate::link::{Fail, Link, SimLink, SocketLink};
use crate::probe::{self, begin, end, Kind, Span, StoreJournal, TimedFn};
use crate::stats::{checked_p99, percentile, sorted, Fnv};
use crate::workload::{Inputs, Spec, Transport, EPSILON};

/// Scratch directory for WAL segments and span files, relative to the
/// working directory (the checkout root).
pub const WORK_DIR: &str = ".perfbench";

/// Full-sync parallelism: the batched pipeline, run inline on the
/// driver thread. The shipped default (`Auto`) adds a worker per core;
/// on a shared two-core host those workers made `kld-adcdx`'s timings
/// follow the other core's load, and the protocol output is identical
/// for every setting.
const PARALLELISM: Parallelism = Parallelism::Threads(1);

/// Everything one repeat measured.
#[derive(Debug, Default)]
pub struct Repeat {
    pub setup_s: f64,
    pub measured_s: f64,
    pub cpu_s: f64,
    /// Measured updates attempted.
    pub updates: usize,
    /// Updates whose resolution failed (the repeat stops at the first).
    pub failed: usize,
    pub fail: Option<String>,
    /// Updates that raised no report.
    pub silent: usize,
    /// Violating updates, each timed from violation to install. A
    /// repeat keeps only this latency summary, so a run's memory does
    /// not grow with its number of repeats.
    pub resolve_samples: usize,
    /// Median violation → install latency, µs (0 with no samples).
    pub resolve_p50_us: f64,
    /// p99 of the same under the percentile rule (`None` when too few
    /// samples lie beyond it).
    pub resolve_p99_us: Option<f64>,
    /// Frames and wire bytes, both directions, measured rounds only,
    /// from the transport's counters.
    pub msgs: u64,
    pub bytes: u64,
    pub frames_in: u64,
    /// `true` if the driver's own frame and byte counts equal the
    /// transport's (minus the hellos).
    pub counts_agree: bool,
    pub syscalls: u64,
    pub reads: u64,
    pub refusals: u64,
    pub rounds: usize,
    pub max_err: f64,
    pub exceed_rounds: usize,
    pub violations: usize,
    pub full_syncs: usize,
    pub lazy_syncs: usize,
    /// Pull requests (`RequestLocalVector`) the coordinator sent.
    pub pulls: usize,
    pub store_appends: u64,
    pub store_bytes: u64,
    pub obs_events: u64,
    pub obs_series: usize,
    /// Protocol digest: violations, syncs, msgs, bytes, final estimate.
    pub digest: u64,
    /// Spans of a traced repeat, in start order.
    pub spans: Vec<Span>,
    /// Per-call autodiff durations of a traced repeat (eval, hvp), ns.
    pub ad_eval_ns: Vec<u32>,
    pub ad_hvp_ns: Vec<u32>,
}

/// CPU time of this process (user + system, all threads), seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage`: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&ru.utime) + t(&ru.stime)
}

/// Peak resident set of this process image, MiB (`VmHWM`). Unlike
/// `ru_maxrss`, it does not inherit the peak of the parent that
/// exec'd the benchmark (such as `cargo run`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn violations(s: &CoordinatorStats) -> usize {
    s.neighborhood_violations + s.safezone_violations + s.faulty_reports
}

/// The protocol state one repeat drives.
struct Driver {
    coord: Coordinator,
    nodes: Vec<Node>,
    link: Box<dyn Link>,
    traced: bool,
    pulls: usize,
    silent: usize,
    resolve_us: Vec<f64>,
}

impl Driver {
    /// Install `x` at node `i` and resolve whatever it raises.
    fn step(&mut self, i: usize, x: &[f64]) -> Result<(), Fail> {
        let t0 = Instant::now();
        let ut = begin(Kind::Update);
        let report = self.nodes[i].update_data(x.to_vec());
        end(ut);
        let Some(m) = report else {
            self.silent += 1;
            return Ok(());
        };
        let vt = probe::begin_violation(ut);
        let r = self.resolve(i, m);
        end(vt);
        r?;
        self.resolve_us.push(t0.elapsed().as_secs_f64() * 1e6);
        Ok(())
    }

    /// Deliver `first` and every frame it causes, generation by
    /// generation, until nothing is in flight.
    fn resolve(&mut self, node: usize, first: NodeMessage) -> Result<(), Fail> {
        self.link.send_up(node, &first)?;
        let mut inbound = self.link.recv_up(&[node])?;
        loop {
            let mut outs = Vec::new();
            for m in inbound {
                let ht = begin(Kind::CoordHandle);
                outs.extend(self.coord.handle(m));
                if self.traced {
                    probe::classify(ht, probe::take_event());
                }
                end(ht);
            }
            if outs.is_empty() {
                return Ok(());
            }
            self.pulls += outs
                .iter()
                .filter(|o| matches!(o.msg, CoordinatorMessage::RequestLocalVector { .. }))
                .count();
            self.link.send_down(&outs)?;
            let delivered = self.link.recv_down(&outs)?;
            let mut senders = Vec::new();
            for (out, cm) in outs.iter().zip(delivered) {
                let nt = begin(Kind::NodeHandle);
                let reply = self.nodes[out.to].handle(cm);
                end(nt);
                if let Some(r) = reply {
                    self.link.send_up(out.to, &r)?;
                    senders.push(out.to);
                }
            }
            if senders.is_empty() {
                return Ok(());
            }
            inbound = self.link.recv_up(&senders)?;
        }
    }
}

/// Counters read at the set-up/measured boundary and at the end.
struct Mark {
    stats: CoordinatorStats,
    frames: (u64, u64),
    bytes: (u64, u64),
    syscalls: u64,
    reads: u64,
    store_seq: u64,
    store_bytes: u64,
}

fn mark(d: &mut Driver, store: Option<&(Arc<Mutex<CoordinatorStore<FileDisk>>>, PathBuf)>) -> Mark {
    let t = d.link.traffic();
    let sys = d.link.syscalls();
    let (store_seq, store_bytes) = store.map_or((0, 0), |(s, dir)| {
        (
            s.lock()
                .expect("WAL store lock poisoned by a panic")
                .next_seq(),
            dir_bytes(dir),
        )
    });
    Mark {
        stats: d.coord.stats().clone(),
        frames: (t.frames_in, t.frames_out),
        bytes: (t.bytes_in, t.bytes_out),
        syscalls: sys.total(),
        reads: sys.reads,
        store_seq,
        store_bytes,
    }
}

/// Run one repeat of `spec` over `inputs`. `tag` keeps concurrent
/// scratch directories apart.
pub fn repeat(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    traced: bool,
    tag: usize,
) -> Result<Repeat, String> {
    let n = spec.nodes;
    let wal_dir =
        PathBuf::from(WORK_DIR).join(format!("wal-{}-{}-{tag}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ---- set-up: wrap, transport, WAL, registration full sync ----
    let t_setup = Instant::now();
    let f = spec.function();
    let f: Arc<dyn MonitoredFunction> = if traced { Arc::new(TimedFn(f)) } else { f };
    let tel = if spec.render_every > 0 {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut coord = Coordinator::new(
        f.clone(),
        n,
        MonitorConfig::builder(EPSILON)
            .parallelism(PARALLELISM)
            .build(),
    );
    if tel.is_enabled() {
        coord.set_telemetry(tel.clone());
    }
    if traced {
        coord.set_observer(probe::observer());
        probe::take_event();
    }
    let store = if spec.durable {
        let disk = FileDisk::open(&wal_dir).map_err(|e| format!("WAL dir: {e}"))?;
        let (store, _) = CoordinatorStore::open(disk, StoreOptions::default())
            .map_err(|e| format!("WAL open: {e}"))?;
        let store = Arc::new(Mutex::new(store));
        coord.set_journal(Box::new(StoreJournal(store.clone())));
        Some((store, wal_dir.clone()))
    } else {
        None
    };
    let nodes = (0..n)
        .map(|i| {
            let mut node = Node::new(i, f.clone());
            if tel.is_enabled() {
                node.set_telemetry(&tel);
            }
            node
        })
        .collect();
    let link: Box<dyn Link> = match spec.transport {
        Transport::Sim => Box::new(SimLink::connect(n, seed)?),
        Transport::Socket => Box::new(SocketLink::connect(n, tel.clone())?),
    };
    let mut d = Driver {
        coord,
        nodes,
        link,
        traced,
        pulls: 0,
        silent: 0,
        resolve_us: Vec::new(),
    };
    for (i, x) in inputs.rounds[0].iter().enumerate() {
        d.step(i, x)
            .map_err(|e| format!("registration of node {i}: {e:?}"))?;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    if d.coord.zone().is_none() || d.nodes.iter().any(Node::is_pending) {
        return Err("registration did not end in a full sync".into());
    }
    let m0 = mark(&mut d, store.as_ref());
    d.pulls = 0;
    d.silent = 0;
    d.resolve_us.clear();
    if tel.is_enabled() {
        // Set-up's trace events are not the measured rounds' work.
        let _ = tel.drain_trace_to(&mut std::io::sink());
    }

    // ---- measured rounds ----
    if traced {
        probe::start();
    }
    let mut out = Repeat {
        setup_s,
        ..Repeat::default()
    };
    let cpu0 = cpu_seconds();
    let t_run = Instant::now();
    'rounds: for (t, xs) in inputs.rounds.iter().enumerate().skip(1) {
        for (i, x) in xs.iter().enumerate() {
            out.updates += 1;
            let r = d.step(i, x).and_then(|()| {
                if d.nodes[i].is_pending() {
                    Err(Fail::Deadline)
                } else {
                    Ok(())
                }
            });
            if let Err(e) = r {
                out.failed += 1;
                out.fail = Some(format!("round {t}, node {i}: {e:?}"));
                break 'rounds;
            }
        }
        if let Some(est) = d.coord.current_value() {
            let err = (est - inputs.truth[t]).abs();
            out.max_err = out.max_err.max(err);
            out.exceed_rounds += usize::from(err > EPSILON);
        }
        out.rounds += 1;
        if spec.render_every > 0 && t % spec.render_every == 0 {
            let ot = begin(Kind::ObsRender);
            let text = tel.prometheus();
            out.obs_events += tel.drain_trace_to(&mut std::io::sink()).unwrap_or(0) as u64;
            end(ot);
            out.obs_series = text
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
        }
    }
    out.measured_s = t_run.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds() - cpu0;
    if traced {
        out.spans = probe::stop();
        (out.ad_eval_ns, out.ad_hvp_ns) = probe::ad_samples();
    }

    // ---- accounting, outside the timed region ----
    let m1 = mark(&mut d, store.as_ref());
    let c = d.link.counts();
    out.counts_agree = m1.frames.0 == c.hellos + c.up_frames
        && m1.bytes.0 == c.hello_bytes + c.up_bytes
        && m1.frames.1 == c.down_frames
        && m1.bytes.1 == c.down_bytes;
    out.msgs = (m1.frames.0 + m1.frames.1) - (m0.frames.0 + m0.frames.1);
    out.bytes = (m1.bytes.0 + m1.bytes.1) - (m0.bytes.0 + m0.bytes.1);
    out.frames_in = m1.frames.0 - m0.frames.0;
    out.syscalls = m1.syscalls - m0.syscalls;
    out.reads = m1.reads - m0.reads;
    out.refusals = d.link.refusals();
    out.violations = violations(&m1.stats) - violations(&m0.stats);
    out.full_syncs = m1.stats.full_syncs - m0.stats.full_syncs;
    out.lazy_syncs = m1.stats.lazy_syncs - m0.stats.lazy_syncs;
    out.store_appends = m1.store_seq - m0.store_seq;
    out.store_bytes = m1.store_bytes - m0.store_bytes;
    out.pulls = d.pulls;
    out.silent = d.silent;
    let resolve = sorted(std::mem::take(&mut d.resolve_us));
    out.resolve_samples = resolve.len();
    out.resolve_p50_us = if resolve.is_empty() {
        0.0
    } else {
        percentile(&resolve, 0.5)
    };
    out.resolve_p99_us = checked_p99(&resolve);
    if let Some((s, _)) = &store {
        if let Some(e) = s
            .lock()
            .expect("WAL store lock poisoned by a panic")
            .take_io_error()
        {
            out.fail.get_or_insert(format!("WAL append failed: {e}"));
        }
    }
    let final_estimate = d.coord.current_value().unwrap_or(f64::NAN);
    let st = d.coord.stats();
    let mut h = Fnv::default();
    h.word(violations(st) as u64)
        .word(st.full_syncs as u64)
        .word(st.lazy_syncs as u64)
        .word(out.msgs)
        .word(out.bytes)
        .word(final_estimate.to_bits())
        .word(out.max_err.to_bits());
    out.digest = h.finish();
    drop(d);
    drop(store);
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(out)
}
