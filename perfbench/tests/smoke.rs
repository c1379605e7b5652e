//! Smoke tests: every workload at unit-test scale, end-to-end and
//! traced, plus the two ways a wrong output must surface — a payload
//! digest that differs from the expected one, and a read that does not
//! answer 200. One test function, so the runs (which share the
//! process-wide observability registry) never overlap.

use arest_perfbench::run::{run, Options, Outcome, Workload};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        quick: true,
        expect_digest: None,
        extra_reads: Vec::new(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

/// The metric names `BENCHMARK.json` declares in its `section` array.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |i| start + i);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next().map(str::to_string))
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn workloads_run_check_and_report_failures() {
    for workload in [Workload::Campaign, Workload::Refresh] {
        let outcome = run(&options(workload, false)).expect("end-to-end run");
        assert!(outcome.correct(), "{workload:?}: {:?}", outcome.tally.notes);
        assert_eq!(outcome.tally.wrong, 0);
        assert!(outcome.tally.attempted > 0);
        assert_eq!(names(&outcome), declared("end_to_end"), "{workload:?}");
        for m in &outcome.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?}: {} = {}", m.name, m.value);
        }
    }

    let traced = run(&options(Workload::Campaign, true)).expect("traced run");
    assert!(traced.correct(), "{:?}", traced.tally.notes);
    assert_eq!(names(&traced), declared("per_layer"));
    assert_eq!(metric(&traced, "tnt.traces"), 1576.0, "the replay reproduces the build's traces");
    assert_eq!(metric(&traced, "ledger.loads_per_refresh"), 3.0);
    assert!(metric(&traced, "simnet.hops_per_probe") > 1.0);
    assert!(metric(&traced, "serve_p99_us") >= metric(&traced, "serve_p50_us"));
    assert!(metric(&traced, "serve_max_rps") > 0.0);
    assert!(traced.spans.records().iter().any(|s| s.name == "tnt.run_campaigns"));

    let mut wrong_digest = options(Workload::Campaign, false);
    wrong_digest.expect_digest = Some(0);
    wrong_digest.seconds = 0.1;
    let outcome = run(&wrong_digest).expect("run with a wrong expected digest");
    assert!(!outcome.correct(), "a digest mismatch must fail the run");
    assert!(outcome.tally.wrong >= 2, "every set-up and campaign fails");
    assert!(outcome.result_json().starts_with("{\"correct\": false,"));

    let mut not_found = options(Workload::Refresh, false);
    not_found.extra_reads = vec!["/api/as/1".to_string()];
    let outcome = run(&not_found).expect("run with a read of a missing AS");
    assert_eq!(outcome.tally.wrong, 1, "exactly the 404 fails: {:?}", outcome.tally.notes);
    assert!(!outcome.correct());
}
