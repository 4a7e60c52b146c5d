//! The benchmark's own rules: percentile sampling, metric naming, the
//! metric list `BENCHMARK.json` declares, and a tiny run of every
//! workload that must report every named metric with its unit.

use automon_perfbench::bench::{self, Opts, END_TO_END, PER_LAYER, REPORT_ONLY};
use automon_perfbench::stats::{
    checked_p99, percentile, valid_name, valid_unit, MIN_BEYOND_P99, MIN_P99_SAMPLES,
};
use automon_perfbench::workload::{Spec, NAMES};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(checked_p99(&ramp(MIN_P99_SAMPLES - 1)), None);
    assert_eq!(checked_p99(&[]), None);
    let s = ramp(MIN_P99_SAMPLES);
    let p99 = checked_p99(&s).expect("1000 samples carry a p99");
    assert_eq!(s.iter().filter(|&&v| v > p99).count(), MIN_BEYOND_P99);
    let s = ramp(5 * MIN_P99_SAMPLES + 37);
    let p99 = checked_p99(&s).expect("enough samples");
    assert!(s.iter().filter(|&&v| v > p99).count() >= MIN_BEYOND_P99);
}

#[test]
fn percentile_is_nearest_rank() {
    let s = ramp(10);
    assert_eq!(percentile(&s, 0.5), 5.0);
    assert_eq!(percentile(&s, 0.0), 1.0);
    assert_eq!(percentile(&s, 1.0), 10.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
}

#[test]
fn names_and_units_use_the_allowed_charset() {
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "a/b",
        "ü",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} must be rejected");
    }
    for bad in ["", "µs", "a b", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad:?} must be rejected");
    }
    let mut seen = std::collections::HashSet::new();
    for &(name, unit) in END_TO_END.iter().chain(REPORT_ONLY).chain(PER_LAYER) {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(valid_unit(unit), "unit {unit:?} of {name}");
        assert!(seen.insert(name), "metric {name} listed twice");
    }
    for name in NAMES {
        assert!(valid_name(name), "workload name {name:?}");
        assert!(Spec::named(name).is_some());
    }
    assert!(PER_LAYER.len() <= 128 && (1..=16).contains(&END_TO_END.len()));
}

/// `BENCHMARK.json` (one directory up) declares exactly the metrics and
/// workloads the program reports.
#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // the package is being built on its own
    };
    let declared = |key: &str| text.matches(&format!("\"{key}\"")).count();
    assert_eq!(
        declared("name"),
        END_TO_END.len() + PER_LAYER.len() + NAMES.len()
    );
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in NAMES {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks workload {name}"
        );
    }
    assert!(text.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

fn has_line(report: &[String], prefix: &str, name: &str, unit: &str) -> bool {
    report.iter().any(|l| {
        let f: Vec<&str> = l.split(' ').collect();
        f.len() == 4
            && f[0] == prefix
            && f[1] == name
            && f[3] == unit
            && f[2].parse::<f64>().is_ok()
    })
}

/// A tiny run of each workload, untraced and traced: every named
/// metric appears with its unit, and no protocol gate trips. (Tiny runs
/// raise too few violations for a p99, which the report flags.)
#[test]
fn tiny_run_of_every_workload_reports_every_metric() {
    for name in NAMES {
        let spec = Spec::named(name).expect("listed workload").with_rounds(6);
        for trace in [false, true] {
            let out = bench::run(
                &spec,
                &Opts {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                },
            )
            .expect("run completes");
            assert_eq!(out.failed, 0, "{name}: {:?}", out.report);
            assert!(
                out.attempted >= 5 * spec.nodes,
                "{name}: every measured update attempted"
            );
            for line in out.report.iter().filter(|l| l.starts_with("GATE FAILED")) {
                assert!(line.contains("violation samples"), "{name}: {line}");
            }
            for &(m, unit) in END_TO_END.iter().chain(REPORT_ONLY) {
                assert!(
                    has_line(&out.report, "metric", m, unit),
                    "{name}: no `metric {m} _ {unit}`"
                );
            }
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, expected.to_vec(), "{name}: JSON metrics");
            if trace {
                for &(m, unit) in PER_LAYER {
                    assert!(
                        has_line(&out.report, "layer", m, unit),
                        "{name}: no `layer {m} _ {unit}`"
                    );
                }
            }
            let json = out.json();
            assert!(
                json.starts_with("{\"correct\": ") && json.ends_with("}}"),
                "{json}"
            );
        }
    }
}
