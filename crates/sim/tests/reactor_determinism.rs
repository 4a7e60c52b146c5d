//! The reactor-path determinism contract: a run over `Reactor<SimPoller>`
//! is a pure function of `(net_seed, plan, workload)` — same inputs ⇒
//! byte-identical JSONL trace and identical serialized `RunStats`, with
//! chaos faults injected at the decoded-frame boundary. Plus backend
//! parity: a fault-free reactor run reaches the same protocol decisions
//! as the in-process fabric the threaded backend shares its logic with.

use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_chaos::FaultPlan;
use automon_core::{MonitorConfig, MonitoredFunction};
use automon_sim::{NetSimulation, Simulation, Workload};

struct Mean1;
impl ScalarFn for Mean1 {
    fn dim(&self) -> usize {
        1
    }
    fn call<S: Scalar>(&self, x: &[S]) -> S {
        x[0]
    }
}

fn f() -> Arc<dyn MonitoredFunction> {
    Arc::new(AutoDiffFn::new(Mean1))
}

fn workload(n: usize, rounds: usize) -> Workload {
    // A deterministic drifting series with per-node phase offsets —
    // enough motion to trigger violations, syncs, and pulls.
    let series: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| {
            (0..rounds)
                .map(|t| {
                    let drift = t as f64 * 0.07;
                    let wiggle = ((t + i) as f64 * 0.9).sin() * 0.35;
                    vec![drift + wiggle + i as f64 * 0.05]
                })
                .collect()
        })
        .collect();
    Workload::from_dense(&series)
}

fn plan() -> FaultPlan {
    FaultPlan::seeded(2024)
        .with_drop_rate(0.08)
        .with_duplicate_rate(0.05)
        .with_reorder_rate(0.05)
        .with_delay(0.05, 3)
}

#[test]
fn same_seed_is_byte_identical_under_faults() {
    let w = workload(4, 60);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = || {
        NetSimulation::new(f(), cfg.clone())
            .with_plan(plan())
            .with_net_seed(7)
            .with_limits(23, 512)
            .run(&w)
    };
    let a = run();
    let b = run();

    assert!(a.quiesced, "protocol must drain after the workload");
    assert!(
        a.faults.injected() > 0,
        "rates this high over {} gated frames must fire",
        a.faults.gated
    );
    assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
    assert_eq!(
        serde_json::to_string(&a.stats).unwrap(),
        serde_json::to_string(&b.stats).unwrap(),
        "RunStats must be identical under replay"
    );
    assert_eq!(a.syscalls, b.syscalls);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn different_net_seed_changes_the_byte_schedule_not_the_outcome() {
    // The net seed only reshuffles how bytes are chunked in transit;
    // with no faults the protocol outcome must be invariant while the
    // syscall schedule differs.
    let w = workload(3, 40);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = |seed| {
        NetSimulation::new(f(), cfg.clone())
            .with_net_seed(seed)
            .with_limits(17, 256)
            .run(&w)
    };
    let a = run(1);
    let b = run(2);
    assert!(a.quiesced && b.quiesced);
    assert_eq!(
        a.trace, b.trace,
        "fault-free protocol events must not depend on byte chunking"
    );
    assert_eq!(
        serde_json::to_string(&a.stats).unwrap(),
        serde_json::to_string(&b.stats).unwrap()
    );
    assert_ne!(
        a.syscalls, b.syscalls,
        "different chunk schedules should change the simulated syscall mix"
    );
}

#[test]
fn different_fault_seed_diverges() {
    let w = workload(4, 60);
    let cfg = MonitorConfig::builder(0.4).build();
    let run = |seed| {
        let p = FaultPlan::seeded(seed)
            .with_drop_rate(0.15)
            .with_delay(0.1, 3);
        NetSimulation::new(f(), cfg.clone())
            .with_plan(p)
            .with_net_seed(7)
            .run(&w)
    };
    let a = run(1);
    let b = run(99);
    assert_ne!(
        a.trace, b.trace,
        "different fault seeds must produce different traces"
    );
}

#[test]
fn fault_free_reactor_matches_in_process_fabric() {
    // Backend parity: with no faults, the reactor path (wire encoding,
    // frame reassembly, writev batching) must reach exactly the protocol
    // decisions the in-process fabric reaches — sync counts, violation
    // counts, and errors — because the transport only moves bytes.
    let w = workload(4, 80);
    let cfg = MonitorConfig::builder(0.4).build();

    let net = NetSimulation::new(f(), cfg.clone()).with_net_seed(3).run(&w);
    assert!(net.quiesced);
    let fabric = Simulation::new(f(), cfg).run(&w);

    assert_eq!(net.stats.full_syncs, fabric.full_syncs);
    assert_eq!(net.stats.lazy_syncs, fabric.lazy_syncs);
    assert_eq!(net.stats.neighborhood_violations, fabric.neighborhood_violations);
    assert_eq!(net.stats.safezone_violations, fabric.safezone_violations);
    assert_eq!(net.stats.missed_violation_rounds, fabric.missed_violation_rounds);
    assert_eq!(net.stats.max_error.to_bits(), fabric.max_error.to_bits());
    assert_eq!(net.stats.mean_error.to_bits(), fabric.mean_error.to_bits());
    assert_eq!(net.stats.messages, fabric.messages);
    assert_eq!(net.stats.payload_bytes, fabric.payload_bytes);
    assert_eq!(net.stats.retransmits, 0, "no faults, no retransmits");
    assert_eq!(net.stats.injected_faults, 0);
}

#[test]
fn drops_are_recovered_by_retransmission() {
    let w = workload(3, 50);
    let cfg = MonitorConfig::builder(0.4).build();
    let p = FaultPlan::seeded(5).with_drop_rate(0.2);
    let r = NetSimulation::new(f(), cfg).with_plan(p).with_net_seed(11).run(&w);
    assert!(r.quiesced, "dropped frames must not wedge the protocol");
    assert!(r.faults.drops > 0, "a 20% drop rate must fire");
    assert!(
        r.stats.retransmits > 0,
        "dropped frames must force retransmissions"
    );
}
