//! Determinism of the parallel full-sync pipeline (DESIGN.md §3.7).
//!
//! `Parallelism` is a latency knob, not a semantics knob: the eigen
//! search and the fabric's parallel constraint fan-out must return
//! results bit-identical to the one-thread run (`Threads(1)`, everything
//! inline) for the same seed. These properties drive random polynomials
//! and the Rozenbrock function through every worker count and compare
//! every output exactly.

use std::sync::Arc;

use automon_autodiff::{AutoDiffFn, Scalar, ScalarFn};
use automon_core::{
    adcd, AdcdKind, Curvature, DcDecomposition, EigenObjective, EigenSearch, MonitorConfig,
    MonitoredFunction, NeighborhoodBox, Parallelism,
};
use automon_functions::Rozenbrock;
use automon_sim::{Simulation, Workload};
use proptest::prelude::*;

/// A dense random polynomial: per-coordinate cubics plus all pairwise
/// cross terms, so the Hessian varies over the neighborhood and has
/// off-diagonal structure.
#[derive(Debug, Clone)]
struct RandomPoly {
    cubic: Vec<f64>,
    quad: Vec<f64>,
    cross: Vec<f64>,
}

impl ScalarFn for RandomPoly {
    fn dim(&self) -> usize {
        self.cubic.len()
    }

    fn call<S: Scalar>(&self, x: &[S]) -> S {
        let d = x.len();
        let mut acc = S::from_f64(0.0);
        for (i, &xi) in x.iter().enumerate() {
            acc = acc
                + S::from_f64(self.cubic[i]) * xi * xi * xi
                + S::from_f64(self.quad[i]) * xi * xi;
        }
        let mut k = 0;
        for i in 0..d {
            for j in (i + 1)..d {
                acc = acc + S::from_f64(self.cross[k]) * x[i] * x[j];
                k += 1;
            }
        }
        acc
    }
}

fn cfg(par: Parallelism, seed: u64, objective: EigenObjective) -> MonitorConfig {
    let mut c = MonitorConfig::builder(0.1)
        .adcd(AdcdKind::X)
        .eigen_search(EigenSearch {
            probes: 5,
            nm_iters: 8,
            seed,
            ..Default::default()
        })
        .parallelism(par);
    if objective == EigenObjective::Gershgorin {
        c = c.gershgorin_bounds();
    }
    c.build()
}

fn assert_identical(a: &DcDecomposition, b: &DcDecomposition) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.dc, b.dc);
    assert_eq!(
        a.lambda_min_hat.to_bits(),
        b.lambda_min_hat.to_bits(),
        "λ_min: {} vs {}",
        a.lambda_min_hat,
        b.lambda_min_hat
    );
    assert_eq!(
        a.lambda_max_hat.to_bits(),
        b.lambda_max_hat.to_bits(),
        "λ_max: {} vs {}",
        a.lambda_max_hat,
        b.lambda_max_hat
    );
    match (&a.curvature, &b.curvature) {
        (Curvature::Scalar(x), Curvature::Scalar(y)) => assert_eq!(x.to_bits(), y.to_bits()),
        (Curvature::Quadratic(m), Curvature::Quadratic(n)) => {
            let (ms, ns) = (m.as_slice(), n.as_slice());
            assert_eq!(ms.len(), ns.len());
            for (x, y) in ms.iter().zip(ns) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        (x, y) => panic!("curvature kind mismatch: {x:?} vs {y:?}"),
    }
}

/// Decompose under every parallelism setting and compare against the
/// one-thread reference — for the matrix-free Lanczos search and for
/// the batched Gershgorin pipeline alike.
fn check_all_settings(f: &dyn MonitoredFunction, x0: &[f64], b: &NeighborhoodBox, seed: u64) {
    for objective in [EigenObjective::Exact, EigenObjective::Gershgorin] {
        let one = cfg(Parallelism::Threads(1), seed, objective);
        let reference = adcd::decompose(f, x0, Some(b), &one);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            let got = adcd::decompose(f, x0, Some(b), &cfg(par, seed, objective));
            assert_identical(&reference, &got);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ADCD-X eigen search is bit-identical to the one-thread run
    /// on random polynomials, for any worker count.
    #[test]
    fn random_polynomial_decomposition_matches_sequential(
        cubic in proptest::collection::vec(-2.0f64..2.0, 3),
        quad in proptest::collection::vec(-3.0f64..3.0, 3),
        cross in proptest::collection::vec(-1.5f64..1.5, 3),
        x0 in proptest::collection::vec(-1.0f64..1.0, 3),
        half in 0.05f64..0.6,
        seed in 0u64..1000,
    ) {
        let f = AutoDiffFn::new(RandomPoly { cubic, quad, cross });
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| v - half).collect(),
            hi: x0.iter().map(|v| v + half).collect(),
        };
        check_all_settings(&f, &x0, &b, seed);
    }

    /// Same property on the Rozenbrock function (the paper's
    /// neighborhood-tuning stress case: steep curved valley).
    #[test]
    fn rozenbrock_decomposition_matches_sequential(
        x0 in proptest::collection::vec(-1.5f64..1.5, 2),
        half in 0.05f64..0.8,
        seed in 0u64..1000,
    ) {
        let f = AutoDiffFn::new(Rozenbrock);
        let b = NeighborhoodBox {
            lo: x0.iter().map(|v| v - half).collect(),
            hi: x0.iter().map(|v| v + half).collect(),
        };
        check_all_settings(&f, &x0, &b, seed);
    }

    /// End-to-end: a full simulation (decompositions + the fabric's
    /// parallel constraint fan-out) produces the identical protocol
    /// trace — message counts, byte counts, sync counts, and errors —
    /// under every parallelism setting.
    #[test]
    fn simulation_protocol_trace_matches_sequential(
        drift in proptest::collection::vec(-0.02f64..0.02, 4),
        seed in 0u64..1000,
    ) {
        let series: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|node| {
                (0..40)
                    .map(|t| {
                        let t = t as f64;
                        vec![
                            0.4 + drift[node] * t,
                            0.2 + drift[2 + node] * t,
                        ]
                    })
                    .collect()
            })
            .collect();
        let w = Workload::from_dense(&series);
        let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
        let run = |par: Parallelism| {
            let cfg = MonitorConfig::builder(0.25)
                .adcd(AdcdKind::X)
                .eigen_search(EigenSearch { probes: 4, nm_iters: 6, seed, ..Default::default() })
                .parallelism(par)
                .build();
            Simulation::new(f.clone(), cfg).run(&w)
        };
        let reference = run(Parallelism::Threads(1));
        for par in [Parallelism::Threads(2), Parallelism::Auto] {
            let got = run(par);
            prop_assert_eq!(reference.messages, got.messages);
            prop_assert_eq!(reference.payload_bytes, got.payload_bytes);
            prop_assert_eq!(reference.full_syncs, got.full_syncs);
            prop_assert_eq!(reference.lazy_syncs, got.lazy_syncs);
            prop_assert_eq!(reference.max_error.to_bits(), got.max_error.to_bits());
            prop_assert_eq!(
                reference.missed_violation_rounds,
                got.missed_violation_rounds
            );
        }
    }
}
