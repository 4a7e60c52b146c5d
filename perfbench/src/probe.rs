//! The traced run's instruments: wall-clock spans kept in memory, a
//! timing wrapper around the monitored function, and a timed journal.
//!
//! Spans live in a thread-local buffer on the driver thread. The driver,
//! the journal (called from inside `Coordinator::handle`) and the links
//! open and close them through [`begin`]/[`end`]; with tracing off both
//! are one relaxed atomic load. Autodiff calls may run on worker
//! threads, so they only bump global counters; each span snapshots the
//! counters at its ends, which attributes every call to the enclosing
//! node or coordinator span.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use automon_autodiff::{DifferentiableFn, HessianEvaluator, HvpEvaluator};
use automon_core::{CoordinatorEvent, Journal, MonitoredFunction, Transition};
use automon_linalg::Matrix;
use automon_store::{CoordinatorStore, FileDisk};

/// What a span measures. Each kind belongs to one layer (or to the
/// driver, for the violation root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Root of one violation: the violating update through the last
    /// install handled by its node. Self time is driver overhead.
    Violation,
    /// `Node::update_data`.
    Update,
    /// `Node::handle`.
    NodeHandle,
    /// `net::wire` encode on the node side.
    WireEncode,
    /// `net::wire` decode on the node side.
    WireDecode,
    /// Node-side socket write (a `SimClient` push or a real `write`).
    SockSend,
    /// Node-side socket read.
    SockRecv,
    /// `Reactor::poll_once` + `pop_inbound` (in-process reactor).
    ReactorPoll,
    /// `Reactor::enqueue` / `ReactorCoordinatorTransport::send`.
    ReactorSend,
    /// Blocking `ReactorCoordinatorTransport::recv_timeout`: the wait for
    /// the event-loop thread to deliver a frame.
    CoordRecv,
    /// `Coordinator::handle`; classified by the observer's event.
    CoordHandle,
    /// One `Journal::record` into the WAL.
    StoreAppend,
    /// One Prometheus render.
    ObsRender,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Violation => "violation",
            Kind::Update => "node.update",
            Kind::NodeHandle => "node.handle",
            Kind::WireEncode => "wire.encode",
            Kind::WireDecode => "wire.decode",
            Kind::SockSend => "reactor.client_send",
            Kind::SockRecv => "reactor.client_recv",
            Kind::ReactorPoll => "reactor.poll",
            Kind::ReactorSend => "reactor.send",
            Kind::CoordRecv => "reactor.recv_wait",
            Kind::CoordHandle => "coord.handle",
            Kind::StoreAppend => "store.append",
            Kind::ObsRender => "obs.render",
        }
    }
}

/// The layers self time is split over, named for their crate or module
/// (`core.node`, `core.coordinator`, `core.adcd`, `autodiff`,
/// `net.wire`, `net.reactor`, `store`, `obs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Node,
    Coordinator,
    Adcd,
    Autodiff,
    Wire,
    Reactor,
    Store,
    Obs,
}

impl Layer {
    pub const COUNT: usize = 8;
}

/// How a `Coordinator::handle` call ended, from the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Other = 0,
    LazySync = 1,
    FullSync = 2,
}

/// Autodiff call kinds the timing wrapper counts.
#[derive(Debug, Clone, Copy)]
pub enum AdCall {
    /// `eval` or `eval_grad`.
    Eval = 0,
    /// `hvp` or `HvpEvaluator::hvp_into`.
    Hvp = 1,
    /// `hessian` or `HessianEvaluator::hessian_into`.
    Hessian = 2,
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub class: Class,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// Violation id shared by every span of one violation (0 = none).
    pub violation: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Wall time of direct children.
    pub child_ns: u64,
    /// Autodiff time inside this span, children included.
    pub ad_ns: u64,
    /// Autodiff time inside direct children.
    pub child_ad_ns: u64,
    /// Autodiff calls inside this span (children included), by
    /// [`AdCall`].
    pub ad_calls: [u64; 3],
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Autodiff time of this span alone.
    pub fn self_ad_ns(&self) -> u64 {
        self.ad_ns.saturating_sub(self.child_ad_ns)
    }

    /// Wall time not spent in children or autodiff.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns()
            .saturating_sub(self.child_ns)
            .saturating_sub(self.self_ad_ns())
    }

    /// The layer the span's self time belongs to (`None` = driver).
    pub fn layer(&self) -> Option<Layer> {
        Some(match self.kind {
            Kind::Violation => return None,
            Kind::Update | Kind::NodeHandle => Layer::Node,
            Kind::WireEncode | Kind::WireDecode => Layer::Wire,
            Kind::SockSend
            | Kind::SockRecv
            | Kind::ReactorPoll
            | Kind::ReactorSend
            | Kind::CoordRecv => Layer::Reactor,
            Kind::CoordHandle if self.class == Class::FullSync => Layer::Adcd,
            Kind::CoordHandle => Layer::Coordinator,
            Kind::StoreAppend => Layer::Store,
            Kind::ObsRender => Layer::Obs,
        })
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static AD_NS: AtomicU64 = AtomicU64::new(0);
static AD_CALLS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static LAST_EVENT: AtomicU8 = AtomicU8::new(0);

/// Per-call autodiff durations kept for the p50s (eval, hvp), capped.
const AD_SAMPLE_CAP: usize = 1 << 20;
static AD_SAMPLES: [Mutex<Vec<u32>>; 2] = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];

/// An open span: its slot in the span buffer plus the autodiff
/// counters at its start.
struct Open {
    index: usize,
    ad_ns0: u64,
    ad_calls0: [u64; 3],
}

struct Buffer {
    origin: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    violation: u32,
    next_violation: u32,
}

thread_local! {
    static BUF: RefCell<Buffer> = RefCell::new(Buffer {
        origin: Instant::now(),
        open: Vec::new(),
        spans: Vec::new(),
        violation: 0,
        next_violation: 1,
    });
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Tok(Option<usize>);

fn ad_snapshot() -> (u64, [u64; 3]) {
    (
        AD_NS.load(Ordering::Relaxed),
        [0, 1, 2].map(|i| AD_CALLS[i].load(Ordering::Relaxed)),
    )
}

/// Start tracing on this thread with an empty buffer.
pub fn start() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.origin = Instant::now();
        b.open.clear();
        b.spans.clear();
        b.violation = 0;
        b.next_violation = 1;
    });
    for s in &AD_SAMPLES {
        s.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    TRACING.store(true, Ordering::Relaxed);
}

/// Stop tracing and hand back the closed spans, in start order.
pub fn stop() -> Vec<Span> {
    TRACING.store(false, Ordering::Relaxed);
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        assert!(b.open.is_empty(), "spans left open");
        std::mem::take(&mut b.spans)
    })
}

/// `true` while a traced repeat runs.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Open a span of `kind` under the innermost open span.
#[inline]
pub fn begin(kind: Kind) -> Tok {
    if !tracing() {
        return Tok(None);
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if kind == Kind::Violation {
            b.violation = b.next_violation;
            b.next_violation += 1;
        }
        let (ad_ns0, ad_calls0) = ad_snapshot();
        let parent = b.open.last().map(|o| o.index as u32);
        let index = b.spans.len();
        let span = Span {
            kind,
            class: Class::Other,
            parent,
            violation: b.violation,
            start_ns: b.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            child_ns: 0,
            ad_ns: 0,
            child_ad_ns: 0,
            ad_calls: [0; 3],
        };
        b.spans.push(span);
        b.open.push(Open {
            index,
            ad_ns0,
            ad_calls0,
        });
        Tok(Some(index))
    })
}

/// Close the span `tok` opened (spans close innermost first).
#[inline]
pub fn end(tok: Tok) {
    let Some(index) = tok.0 else { return };
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let end_ns = b.origin.elapsed().as_nanos() as u64;
        let o = b.open.pop().expect("open span");
        assert_eq!(o.index, index, "spans must close innermost first");
        let (ad_ns1, calls1) = ad_snapshot();
        let ad_ns = ad_ns1 - o.ad_ns0;
        let s = &mut b.spans[index];
        s.end_ns = end_ns;
        s.ad_ns = ad_ns;
        s.ad_calls = [0, 1, 2].map(|i| calls1[i] - o.ad_calls0[i]);
        let (dur, kind, parent) = (s.dur_ns(), s.kind, s.parent);
        if let Some(p) = parent {
            let p = &mut b.spans[p as usize];
            p.child_ns += dur;
            p.child_ad_ns += ad_ns;
        }
        if kind == Kind::Violation {
            b.violation = 0;
        }
    });
}

/// Open the root span of a violation that `update` (the just-closed
/// `node.update` span) raised: the root adopts the update span and
/// starts where it started, so the violation's spans cover the whole
/// violation → install interval and share one violation id.
pub fn begin_violation(update: Tok) -> Tok {
    let tok = begin(Kind::Violation);
    let (Some(u), Some(v)) = (update.0, tok.0) else {
        return tok;
    };
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let us = b.spans[u];
        let id = b.spans[v].violation;
        let (upd, root) = {
            let (lo, hi) = b.spans.split_at_mut(v);
            (&mut lo[u], &mut hi[0])
        };
        upd.parent = Some(v as u32);
        upd.violation = id;
        root.start_ns = us.start_ns;
        root.child_ns += us.dur_ns();
        root.child_ad_ns += us.ad_ns;
        let open = b.open.last_mut().expect("violation span is open");
        open.ad_ns0 -= us.ad_ns;
        for (c0, c) in open.ad_calls0.iter_mut().zip(us.ad_calls) {
            *c0 -= c;
        }
    });
    tok
}

/// Set the class of the span `tok` opened.
pub fn classify(tok: Tok, class: Class) {
    let Some(index) = tok.0 else { return };
    BUF.with(|b| b.borrow_mut().spans[index].class = class);
}

/// Observer for `Coordinator::set_observer`: remembers the strongest
/// sync event since the last [`take_event`].
pub fn observer() -> automon_core::Observer {
    Box::new(|ev: &CoordinatorEvent| {
        let c = match ev {
            CoordinatorEvent::FullSync { .. } => Class::FullSync,
            CoordinatorEvent::LazySync { .. } => Class::LazySync,
            _ => return,
        };
        LAST_EVENT.fetch_max(c as u8, Ordering::Relaxed);
    })
}

/// The strongest event the observer saw since the last call.
pub fn take_event() -> Class {
    match LAST_EVENT.swap(0, Ordering::Relaxed) {
        2 => Class::FullSync,
        1 => Class::LazySync,
        _ => Class::Other,
    }
}

/// Per-call autodiff durations recorded during the traced repeat:
/// `(eval_ns, hvp_ns)`.
pub fn ad_samples() -> (Vec<u32>, Vec<u32>) {
    let take =
        |i: usize| std::mem::take(&mut *AD_SAMPLES[i].lock().unwrap_or_else(|e| e.into_inner()));
    (take(0), take(1))
}

fn record_ad(kind: AdCall, t0: Instant) {
    let ns = t0.elapsed().as_nanos() as u64;
    AD_NS.fetch_add(ns, Ordering::Relaxed);
    AD_CALLS[kind as usize].fetch_add(1, Ordering::Relaxed);
    if let Some(samples) = AD_SAMPLES.get(kind as usize) {
        let mut v = samples.lock().unwrap_or_else(|e| e.into_inner());
        if v.len() < AD_SAMPLE_CAP {
            v.push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }
}

/// Timing wrapper around a monitored function: same values, every call
/// counted and timed. Installed only in traced repeats.
pub struct TimedFn(pub Arc<dyn MonitoredFunction>);

impl DifferentiableFn for TimedFn {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let t0 = Instant::now();
        let v = self.0.eval(x);
        record_ad(AdCall::Eval, t0);
        v
    }

    fn eval_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let t0 = Instant::now();
        let v = self.0.eval_grad(x);
        record_ad(AdCall::Eval, t0);
        v
    }

    fn hvp(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        let t0 = Instant::now();
        let out = self.0.hvp(x, v);
        record_ad(AdCall::Hvp, t0);
        out
    }

    fn hessian(&self, x: &[f64]) -> Matrix {
        let t0 = Instant::now();
        let h = self.0.hessian(x);
        record_ad(AdCall::Hessian, t0);
        h
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        self.0.lower_bounds()
    }

    fn upper_bounds(&self) -> Option<Vec<f64>> {
        self.0.upper_bounds()
    }

    fn has_constant_hessian(&self) -> bool {
        self.0.has_constant_hessian()
    }

    fn constant_hessian(&self) -> Option<Matrix> {
        self.0.constant_hessian()
    }

    fn hessian_eval(&self) -> Box<dyn HessianEvaluator + '_> {
        Box::new(TimedHessian(self.0.hessian_eval()))
    }

    fn hvp_eval(&self) -> Box<dyn HvpEvaluator + '_> {
        Box::new(TimedHvp(self.0.hvp_eval()))
    }
}

struct TimedHessian<'a>(Box<dyn HessianEvaluator + 'a>);

impl HessianEvaluator for TimedHessian<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn hessian_into(&mut self, x: &[f64], out: &mut Matrix) {
        let t0 = Instant::now();
        self.0.hessian_into(x, out);
        record_ad(AdCall::Hessian, t0);
    }
}

struct TimedHvp<'a>(Box<dyn HvpEvaluator + 'a>);

impl HvpEvaluator for TimedHvp<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn hvp_into(&mut self, x: &[f64], v: &[f64], out: &mut [f64]) {
        let t0 = Instant::now();
        self.0.hvp_into(x, v, out);
        record_ad(AdCall::Hvp, t0);
    }
}

/// The coordinator's journal: every transition appended to a
/// `CoordinatorStore` on `FileDisk`, each append a `store.append` span.
pub struct StoreJournal(pub Arc<Mutex<CoordinatorStore<FileDisk>>>);

impl Journal for StoreJournal {
    fn record(&mut self, t: Transition) {
        let tok = begin(Kind::StoreAppend);
        self.0
            .lock()
            .expect("WAL store lock poisoned by a panic")
            .journal(t);
        end(tok);
    }
}

/// Spans kept for the span file; a full fan-out repeat holds about a
/// million, which would make a file of about 170 MB.
pub const SPAN_FILE_CAP: usize = 100_000;

/// Write `spans` as JSON lines: id, name, parent, violation id, start
/// and end (ns since the traced repeat began), class, autodiff time and
/// calls.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let class = match s.class {
            Class::Other => "other",
            Class::LazySync => "lazy_sync",
            Class::FullSync => "full_sync",
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"violation\":{},\"start_ns\":{},\"end_ns\":{},\"class\":\"{class}\",\"ad_ns\":{},\"ad_calls\":[{},{},{}]}}",
            s.kind.name(),
            s.violation,
            s.start_ns,
            s.end_ns,
            s.ad_ns,
            s.ad_calls[0],
            s.ad_calls[1],
            s.ad_calls[2],
        )?;
    }
    w.flush()
}
