//! The observability contract under the `Parallelism` knob: metrics
//! touched from `par_map_with` worker threads are commutative atomics,
//! so the final registry state — counters, histogram snapshot, rendered
//! exposition — is identical whether the map ran sequentially or on any
//! number of workers.

use automon_core::par::par_map_with;
use automon_core::Parallelism;
use automon_obs::Telemetry;
use proptest::prelude::*;

const BOUNDS: &[f64] = &[0.1, 1.0, 10.0, 100.0];

/// Run the instrumented map under `par` and return the rendered
/// exposition (registry state is the only output that matters).
fn run_instrumented(samples: &[f64], par: Parallelism) -> String {
    let tel = Telemetry::enabled();
    let observed = tel.counter("work_items_total", "Items processed");
    let hist = tel.histogram("work_value", "Observed values", BOUNDS);
    par_map_with(
        samples,
        par.workers(),
        || (observed.clone(), hist.clone()),
        |(c, h), _, &v| {
            c.inc();
            h.observe(v);
        },
    );
    tel.prometheus()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One thread and every larger thread count land on byte-identical
    /// exposition output.
    #[test]
    fn registry_state_is_parallelism_invariant(
        samples in proptest::collection::vec(-5.0f64..500.0, 0..128usize),
        workers in 2usize..9usize,
    ) {
        let inline = run_instrumented(&samples, Parallelism::Threads(1));
        let threaded = run_instrumented(&samples, Parallelism::Threads(workers));
        prop_assert_eq!(threaded, inline);
    }
}
