//! Exhaustive model check of the streaming pipeline's admission
//! window (`cargo test -p arest-experiments --features model-check`).

#![cfg(feature = "model-check")]

use arest_conc::model::Model;
use arest_experiments::admission::AdmissionWindow;

/// Invariant: however two workers' completions interleave, the number
/// of in-flight ASes never exceeds the window bound, and every catalog
/// index is admitted exactly once.
#[test]
fn model_admission_never_exceeds_the_window_bound() {
    let report = Model::default().check(|| {
        let w = AdmissionWindow::new(2, 4);
        assert_eq!(w.initial(), 0..2);
        let mut admitted = (None, None);
        arest_conc::thread::scope(|s| {
            let worker = s.spawn(|| w.completed());
            admitted.0 = Some(w.completed());
            admitted.1 = Some(worker.join().expect("completing worker"));
        });
        let (a, b) = (admitted.0.unwrap(), admitted.1.unwrap());
        // The two completions claim indices 2 and 3, one each, in
        // either order.
        let mut got = [a.expect("catalog not exhausted"), b.expect("catalog not exhausted")];
        got.sort_unstable();
        assert_eq!(got, [2, 3], "each index admitted exactly once");
        assert!(
            w.peak() <= w.bound(),
            "in-flight ({} peak) exceeded the window bound ({})",
            w.peak(),
            w.bound()
        );
        assert_eq!(w.in_flight(), 2, "two completed, two admitted in their place");
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}

/// Invariant: completions racing past the end of the catalog drain the
/// window to zero without admitting anything — the shutdown edge.
#[test]
fn model_catalog_exhaustion_drains_the_window() {
    let report = Model::default().check(|| {
        let w = AdmissionWindow::new(2, 2);
        assert_eq!(w.initial(), 0..2);
        let mut admitted = (None, None);
        arest_conc::thread::scope(|s| {
            let worker = s.spawn(|| w.completed());
            admitted.0 = Some(w.completed());
            admitted.1 = Some(worker.join().expect("completing worker"));
        });
        assert_eq!(admitted.0.unwrap(), None, "catalog of 2 is exhausted");
        assert_eq!(admitted.1.unwrap(), None, "catalog of 2 is exhausted");
        assert_eq!(w.in_flight(), 0, "both slots drained");
        assert!(w.peak() <= w.bound());
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}
