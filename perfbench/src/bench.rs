//! One benchmark run: repeats, correctness gates and the metric report.

use std::path::PathBuf;
use std::time::Instant;

use crate::probe::{Class, Kind, Layer, Span};
use crate::run::{self, Repeat};
use crate::stats::{median, percentile, sorted, MIN_P99_SAMPLES};
use crate::workload::{Inputs, Spec, Transport, EPSILON};

/// End-to-end metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("updates_per_s", "1/s"),
    ("resolve_p50_us", "us"),
    ("msgs_per_update", "msgs"),
    ("bytes_per_update", "B"),
    ("max_err_over_eps", "ratio"),
    ("cpu_us_per_update", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics printed in the text report only. On a shared
/// 2-core host `resolve_p99_us` varied between runs by more than any
/// allowed bound (quartile spreads of 0.21 to 0.27 of the median over
/// ten seeds), so its percentile rule is a gate but its value is not.
/// `eps_exceed_rate` and `update_fail_rate` are 0 on a correct run, so
/// they cannot serve as relative bounds; `update_fail_rate` is also
/// `failed / attempted` in the JSON line.
pub const REPORT_ONLY: &[(&str, &str)] = &[
    ("resolve_p99_us", "us"),
    ("eps_exceed_rate", "ratio"),
    ("update_fail_rate", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("node.update_ns_p50", "ns"),
    ("node.handle_ns_p50", "ns"),
    ("node.busy_share", "ratio"),
    ("node.silent_ratio", "ratio"),
    ("coord.full_sync_us_p50", "us"),
    ("coord.full_sync_us_p99", "us"),
    ("coord.lazy_sync_us_p50", "us"),
    ("coord.busy_share", "ratio"),
    ("coord.full_syncs_per_kupdate", "1/kupdate"),
    ("coord.lazy_syncs_per_kupdate", "1/kupdate"),
    ("coord.lazy_resolve_ratio", "ratio"),
    ("coord.nodes_pulled_per_violation", "count"),
    ("adcd.eval_per_full_sync", "count"),
    ("adcd.hvp_per_full_sync", "count"),
    ("adcd.hessian_per_full_sync", "count"),
    ("adcd.ad_share_of_full_sync", "ratio"),
    ("adcd.self_us_per_full_sync", "us"),
    ("adcd.busy_share", "ratio"),
    ("autodiff.eval_ns_p50", "ns"),
    ("autodiff.hvp_ns_p50", "ns"),
    ("autodiff.calls_per_update", "count"),
    ("autodiff.busy_share", "ratio"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.bytes_per_frame", "B"),
    ("wire.busy_share", "ratio"),
    ("reactor.busy_share", "ratio"),
    ("reactor.syscalls_per_update", "count"),
    ("reactor.frames_per_read", "count"),
    ("reactor.backpressure_refusals", "count"),
    ("reactor.recv_wait_us_p50", "us"),
    ("store.appends_per_update", "count"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("store.bytes_per_update", "B"),
    ("store.busy_share", "ratio"),
    ("obs.events_per_update", "count"),
    ("obs.render_us_p50", "us"),
    ("obs.metric_series", "count"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Fewest untraced repeats a run makes (set-up time is their median).
const MIN_REPEATS: usize = 3;

/// Share of a traced run's time spent on untraced repeats (the
/// `trace.overhead` baseline and the digest comparison).
const TRACE_BASELINE_SHARE: f64 = 0.4;

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The JSON metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines (every metric with its unit, the
    /// centralization reference, digests and gate failures).
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn p(values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), q)
    }
}

/// Run `spec` for `opts.seconds`: untraced repeats (and, with
/// `opts.trace`, traced repeats after them), then the gates.
pub fn run(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let inputs = Inputs::generate(spec, opts.seed);
    let t0 = Instant::now();
    let plain_budget = if opts.trace {
        TRACE_BASELINE_SHARE * opts.seconds
    } else {
        opts.seconds
    };
    let min_plain = if opts.trace { 1 } else { MIN_REPEATS };
    let mut plain: Vec<Repeat> = Vec::new();
    loop {
        let r = run::repeat(spec, &inputs, opts.seed, false, plain.len())?;
        let failed = r.failed > 0;
        plain.push(r);
        if failed || (plain.len() >= min_plain && t0.elapsed().as_secs_f64() >= plain_budget) {
            break;
        }
    }
    let mut traced: Vec<Repeat> = Vec::new();
    let mut totals = SpanTotals::default();
    if opts.trace && plain.iter().all(|r| r.failed == 0) {
        let mut kept: Vec<Span> = Vec::new();
        loop {
            let mut r = run::repeat(spec, &inputs, opts.seed, true, plain.len() + traced.len())?;
            totals.add(&r.spans);
            let spans = std::mem::take(&mut r.spans);
            if traced.is_empty() {
                kept = spans[..spans.len().min(crate::probe::SPAN_FILE_CAP)].to_vec();
            }
            let failed = r.failed > 0;
            traced.push(r);
            if failed || t0.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
        let path = PathBuf::from(run::WORK_DIR).join(format!("spans-{}.jsonl", spec.name));
        crate::probe::write_spans(&path, &kept).map_err(|e| format!("writing spans: {e}"))?;
    }

    let mut report = Vec::new();
    let mut problems = Vec::new();
    let all: Vec<&Repeat> = plain.iter().chain(&traced).collect();
    let attempted: usize = all.iter().map(|r| r.updates).sum();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    for r in &all {
        if let Some(f) = &r.fail {
            problems.push(format!("update failed: {f}"));
        }
        if !r.counts_agree {
            problems.push("driver frame/byte counts differ from the transport's".into());
        }
        if spec.exact_bound && r.max_err > EPSILON * (1.0 + 1e-9) {
            problems.push(format!(
                "error {} exceeds epsilon {EPSILON} on an ADCD-E workload",
                r.max_err
            ));
        }
    }
    let digest = plain[0].digest;
    if all.iter().any(|r| r.digest != digest) {
        problems
            .push("protocol digest differs between repeats (untraced vs traced included)".into());
    }
    if spec.transport == Transport::Socket {
        let sim = Spec {
            transport: Transport::Sim,
            durable: false,
            ..spec.clone()
        };
        let replay = run::repeat(&sim, &inputs, opts.seed, false, usize::MAX)?;
        report.push(format!(
            "replay Reactor<SimPoller> digest {:#018x}",
            replay.digest
        ));
        if replay.digest != digest {
            problems.push("socket digest differs from the Reactor<SimPoller> replay".into());
        }
    }

    // ---- end-to-end, from the untraced repeats ----
    // Every timing is the median repeat's, so a burst of interference
    // from the rest of the machine moves a few repeats, not the figure.
    // Each repeat's p99 must rest on enough samples by itself.
    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let p99s: Option<Vec<f64>> = plain.iter().map(|r| r.resolve_p99_us).collect();
    let fewest = plain.iter().map(|r| r.resolve_samples).min().unwrap_or(0);
    if p99s.is_none() && failed == 0 {
        problems.push(format!(
            "a repeat has only {fewest} violation samples: its p99 needs {MIN_P99_SAMPLES}"
        ));
    }
    let first = &plain[0];
    let rounds: f64 = plain.iter().map(|r| r.rounds as f64).sum();
    let e2e = [
        per_repeat(&|r| ratio(r.updates as f64, r.measured_s)),
        per_repeat(&|r| r.resolve_p50_us),
        ratio(first.msgs as f64, first.updates as f64),
        ratio(first.bytes as f64, first.updates as f64),
        plain.iter().map(|r| r.max_err).fold(0.0, f64::max) / EPSILON,
        per_repeat(&|r| ratio(r.cpu_s * 1e6, r.updates as f64)),
        per_repeat(&|r| r.setup_s),
        run::peak_rss_mb(),
    ];
    assert_eq!(
        e2e.len(),
        END_TO_END.len(),
        "one value per end-to-end metric"
    );
    let extra = [
        p99s.map_or(0.0, |v| median(&v)),
        ratio(plain.iter().map(|r| r.exceed_rounds as f64).sum(), rounds),
        ratio(failed as f64, attempted as f64),
    ];
    report.push(format!(
        "workload {} seed {} repeats {} traced {} updates/repeat {} digest {:#018x}",
        spec.name,
        opts.seed,
        plain.len(),
        traced.len(),
        first.updates,
        digest
    ));
    for (&(name, unit), v) in END_TO_END
        .iter()
        .chain(REPORT_ONLY)
        .zip(e2e.iter().chain(&extra))
    {
        report.push(format!("metric {name} {v} {unit}"));
    }
    report.push(format!("samples resolve_us {fewest} per repeat (fewest)"));
    report.push("reference centralization_msgs_per_update 1 msgs".into());
    report.push(format!(
        "reference centralization_bytes_per_update {} B",
        inputs.central_bytes_per_update
    ));
    let mut metrics: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();

    if opts.trace && !traced.is_empty() {
        let untraced_ups = ratio(
            plain.iter().map(|r| r.updates as f64).sum(),
            plain.iter().map(|r| r.measured_s).sum(),
        );
        let layer = per_layer(&traced, totals, untraced_ups);
        for &(name, v, unit) in &layer {
            report.push(format!("layer {name} {v} {unit}"));
        }
        metrics = layer;
    }
    for pr in &problems {
        report.push(format!("GATE FAILED: {pr}"));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        report,
    })
}

/// What the traced repeats' spans add up to. Spans are folded in
/// repeat by repeat, so a run never holds more than one repeat's spans.
#[derive(Default)]
struct SpanTotals {
    /// Self time per layer, ns.
    layer: [f64; Layer::COUNT],
    update_ns: Vec<f64>,
    node_handle_ns: Vec<f64>,
    full_sync_us: Vec<f64>,
    lazy_sync_us: Vec<f64>,
    store_us: Vec<f64>,
    recv_wait_us: Vec<f64>,
    render_us: Vec<f64>,
    full_dur_ns: f64,
    full_ad_ns: f64,
    full_self_ns: f64,
    /// Autodiff calls inside full-sync handles, by `AdCall`.
    full_calls: [f64; 3],
    node_ad_calls: f64,
    encode_ns: f64,
    encodes: f64,
    decode_ns: f64,
    decodes: f64,
}

impl SpanTotals {
    fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let dur = s.dur_ns() as f64;
            if let Some(l) = s.layer() {
                self.layer[l as usize] += s.self_ns() as f64;
            }
            self.layer[Layer::Autodiff as usize] += s.self_ad_ns() as f64;
            let calls: f64 = s.ad_calls.iter().sum::<u64>() as f64;
            match s.kind {
                Kind::Update => {
                    self.update_ns.push(dur);
                    self.node_ad_calls += calls;
                }
                Kind::NodeHandle => {
                    self.node_handle_ns.push(dur);
                    self.node_ad_calls += calls;
                }
                Kind::CoordHandle if s.class == Class::FullSync => {
                    self.full_sync_us.push(dur / 1e3);
                    self.full_dur_ns += dur;
                    self.full_ad_ns += s.ad_ns as f64;
                    self.full_self_ns += s.self_ns() as f64;
                    for (acc, c) in self.full_calls.iter_mut().zip(s.ad_calls) {
                        *acc += c as f64;
                    }
                }
                Kind::CoordHandle if s.class == Class::LazySync => {
                    self.lazy_sync_us.push(dur / 1e3)
                }
                Kind::WireEncode => {
                    self.encode_ns += dur;
                    self.encodes += 1.0;
                }
                Kind::WireDecode => {
                    self.decode_ns += dur;
                    self.decodes += 1.0;
                }
                Kind::StoreAppend => self.store_us.push(dur / 1e3),
                Kind::CoordRecv => self.recv_wait_us.push(dur / 1e3),
                Kind::ObsRender => self.render_us.push(dur / 1e3),
                _ => {}
            }
        }
    }
}

/// The per-layer metrics of the traced repeats (their spans already
/// folded into `t`).
fn per_layer(
    reps: &[Repeat],
    t: SpanTotals,
    untraced_ups: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let wall_ns: f64 = reps.iter().map(|r| r.measured_s * 1e9).sum();
    let sum = |f: &dyn Fn(&Repeat) -> f64| -> f64 { reps.iter().map(f).sum() };
    let updates = sum(&|r| r.updates as f64);
    let violations = sum(&|r| r.violations as f64);
    let full_syncs = sum(&|r| r.full_syncs as f64);
    let share = |l: Layer| ratio(t.layer[l as usize], wall_ns);
    let samples = |f: &dyn Fn(&Repeat) -> &[u32]| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| f(r).iter().map(|&v| f64::from(v)))
            .collect()
    };
    let traced_ups = ratio(updates, wall_ns / 1e9);
    let values = [
        p(t.update_ns, 0.5),
        p(t.node_handle_ns, 0.5),
        share(Layer::Node),
        ratio(sum(&|r| r.silent as f64), updates),
        p(t.full_sync_us.clone(), 0.5),
        p(t.full_sync_us, 0.99),
        p(t.lazy_sync_us, 0.5),
        share(Layer::Coordinator),
        ratio(full_syncs * 1e3, updates),
        ratio(sum(&|r| r.lazy_syncs as f64) * 1e3, updates),
        ratio(sum(&|r| r.lazy_syncs as f64), violations),
        ratio(sum(&|r| r.pulls as f64), violations),
        ratio(t.full_calls[0], full_syncs),
        ratio(t.full_calls[1], full_syncs),
        ratio(t.full_calls[2], full_syncs),
        ratio(t.full_ad_ns, t.full_dur_ns),
        ratio(t.full_self_ns / 1e3, full_syncs),
        share(Layer::Adcd),
        p(samples(&|r| &r.ad_eval_ns), 0.5),
        p(samples(&|r| &r.ad_hvp_ns), 0.5),
        ratio(t.node_ad_calls, updates),
        share(Layer::Autodiff),
        ratio(t.encode_ns, t.encodes),
        ratio(t.decode_ns, t.decodes),
        ratio(sum(&|r| r.bytes as f64), sum(&|r| r.msgs as f64)),
        share(Layer::Wire),
        share(Layer::Reactor),
        ratio(sum(&|r| r.syscalls as f64), updates),
        ratio(sum(&|r| r.frames_in as f64), sum(&|r| r.reads as f64)),
        sum(&|r| r.refusals as f64),
        p(t.recv_wait_us, 0.5),
        ratio(sum(&|r| r.store_appends as f64), updates),
        p(t.store_us.clone(), 0.5),
        p(t.store_us, 0.99),
        ratio(sum(&|r| r.store_bytes as f64), updates),
        share(Layer::Store),
        ratio(sum(&|r| r.obs_events as f64), updates),
        p(t.render_us, 0.5),
        reps.iter().map(|r| r.obs_series).max().unwrap_or(0) as f64,
        ratio(t.layer.iter().sum(), wall_ns),
        ratio(untraced_ups, traced_ups) - 1.0,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}
