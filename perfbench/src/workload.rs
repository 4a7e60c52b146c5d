//! The benchmark's workloads: which function, how many nodes, which
//! transport, and the seeded §4.2 inputs they monitor.

use std::sync::Arc;

use automon_autodiff::AutoDiffFn;
use automon_core::MonitoredFunction;
use automon_data::air_quality::{generate, kld_series, AirQualityParams};
use automon_data::synthetic::{InnerProductDataset, QuadraticDataset};
use automon_data::{windowed_mean_series, NormalSampler};
use automon_functions::{InnerProduct, KlDivergence, Variance};
use automon_linalg::vector;

/// Approximation bound for every workload (the CLI default).
pub const EPSILON: f64 = 0.1;

/// Sliding-window length of the windowed-mean inputs (the CLI's).
const MEAN_WINDOW: usize = 20;

/// Histogram window of the KLD inputs (paper: W = 200).
const KLD_WINDOW: usize = 200;

/// Standard deviation of the seeded sensor noise on KLD readings, µg/m³.
const KLD_NOISE: f64 = 2.0;

/// Where frames travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Reactor<SimPoller>`, driven inline.
    Sim,
    /// `ReactorCoordinatorTransport` over loopback epoll sockets.
    Socket,
}

/// The monitored function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    Kld,
    InnerProduct,
    Variance,
}

/// One workload: function, fleet, transport and coordinator options.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub function: FnKind,
    pub nodes: usize,
    pub dim: usize,
    /// Rounds per repeat, the registration round included. Every node
    /// updates once per round.
    pub rounds: usize,
    pub transport: Transport,
    /// Journal the coordinator to a `CoordinatorStore` on `FileDisk`.
    pub durable: bool,
    /// Live telemetry with a Prometheus render every this many rounds
    /// (`0` = telemetry off).
    pub render_every: usize,
    /// Constant-Hessian (ADCD-E) workload: any error above ε is a
    /// correctness failure.
    pub exact_bound: bool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["kld-adcdx", "ip-fanout-1k", "variance-socket-wal"];

impl Spec {
    /// The full-size workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            "kld-adcdx" => Spec {
                name: "kld-adcdx",
                function: FnKind::Kld,
                nodes: 10,
                dim: 20,
                rounds: 2001,
                transport: Transport::Sim,
                durable: false,
                render_every: 0,
                exact_bound: false,
            },
            "ip-fanout-1k" => Spec {
                name: "ip-fanout-1k",
                function: FnKind::InnerProduct,
                nodes: 1000,
                dim: 4,
                rounds: 101,
                transport: Transport::Sim,
                durable: false,
                render_every: 0,
                exact_bound: true,
            },
            "variance-socket-wal" => Spec {
                name: "variance-socket-wal",
                function: FnKind::Variance,
                nodes: 2,
                dim: 2,
                rounds: 4001,
                transport: Transport::Socket,
                durable: true,
                render_every: 50,
                exact_bound: true,
            },
            _ => return None,
        })
    }

    /// The same workload with `rounds` rounds per repeat (smoke tests).
    pub fn with_rounds(mut self, rounds: usize) -> Spec {
        assert!(
            rounds >= 2,
            "a repeat needs the registration round and one more"
        );
        self.rounds = rounds;
        self
    }

    /// Wrap the monitored function (part of set-up: `AutoDiffFn::new`
    /// probes Hessian constancy).
    pub fn function(&self) -> Arc<dyn MonitoredFunction> {
        match self.function {
            FnKind::Kld => Arc::new(AutoDiffFn::new(KlDivergence::new(self.dim, 1.0 / 2400.0))),
            FnKind::InnerProduct => Arc::new(AutoDiffFn::new(InnerProduct::new(self.dim))),
            FnKind::Variance => Arc::new(AutoDiffFn::new(Variance)),
        }
    }

    /// Updates per repeat after the registration round.
    pub fn measured_updates(&self) -> usize {
        (self.rounds - 1) * self.nodes
    }
}

/// Seeded inputs plus the ground truth the correctness gate checks.
pub struct Inputs {
    /// `rounds[t][node]`: the local vector `node` installs in round `t`.
    pub rounds: Vec<Vec<Vec<f64>>>,
    /// `truth[t] = f(x̄)` after round `t`.
    pub truth: Vec<f64>,
    /// Mean wire bytes of shipping one measured update to a central
    /// site (the centralization baseline: one frame per update).
    pub central_bytes_per_update: f64,
}

impl Inputs {
    /// Generate `spec`'s inputs from `seed` and compute the truth. Runs
    /// before any timed region.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let per_node = match spec.function {
            FnKind::Kld => {
                // One fixed archive, like the paper's single Beijing
                // archive. Seeding the archive itself would move its slow
                // city-wide drift (a ~2,000-hour time constant) and with
                // it the whole run's operating point, so the seed instead
                // adds sensor noise to every reading and deals the sites
                // out to the nodes.
                let mut sites = generate(&AirQualityParams {
                    sites: spec.nodes,
                    hours: spec.rounds + KLD_WINDOW - 1,
                    ..AirQualityParams::default()
                });
                let mut rng = NormalSampler::new(seed);
                for reading in sites.iter_mut().flatten() {
                    let jitter = |v: f64, rng: &mut NormalSampler| {
                        (v + rng.normal(0.0, KLD_NOISE)).clamp(0.0, 500.0)
                    };
                    *reading = (jitter(reading.0, &mut rng), jitter(reading.1, &mut rng));
                }
                let dealt: Vec<_> = (0..spec.nodes)
                    .map(|_| sites.swap_remove(rng.below(sites.len())))
                    .collect();
                kld_series(&dealt, KLD_WINDOW, spec.dim / 2)
            }
            FnKind::InnerProduct => windowed_mean_series(
                &InnerProductDataset::generate(
                    spec.nodes,
                    spec.rounds + MEAN_WINDOW - 1,
                    spec.dim,
                    seed,
                ),
                MEAN_WINDOW,
            ),
            FnKind::Variance => {
                // Augmented vectors [x, x²] of scalar samples.
                let raw: Vec<Vec<Vec<f64>>> =
                    QuadraticDataset::generate(spec.nodes, spec.rounds + MEAN_WINDOW - 1, 1, seed)
                        .into_iter()
                        .map(|s| s.into_iter().map(|v| vec![v[0], v[0] * v[0]]).collect())
                        .collect();
                windowed_mean_series(&raw, MEAN_WINDOW)
            }
        };
        let rounds: Vec<Vec<Vec<f64>>> = (0..spec.rounds)
            .map(|t| per_node.iter().map(|s| s[t].clone()).collect())
            .collect();
        let f = spec.function();
        let truth = rounds
            .iter()
            .map(|xs| f.eval(&vector::mean(xs).expect("nodes > 0")))
            .collect();
        let central_bytes: usize = rounds[1..]
            .iter()
            .flatten()
            .enumerate()
            .map(|(k, x)| crate::link::central_frame_bytes(k % spec.nodes, x))
            .sum();
        Inputs {
            central_bytes_per_update: central_bytes as f64 / spec.measured_updates() as f64,
            rounds,
            truth,
        }
    }
}
