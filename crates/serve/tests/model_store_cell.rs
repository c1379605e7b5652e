//! Exhaustive model check of the atomic store swap
//! (`cargo test -p arest-serve --features model-check --test model_store_cell`).
//!
//! The zero-downtime refresh protocol (`DESIGN.md` §13) rests on two
//! invariants: a reader never observes a **torn** version (a store
//! from one serial under another serial's stamp), and concurrent
//! swaps resolve to the **newest** serial no matter how they
//! interleave. Each version here encodes its serial inside the store
//! itself (`totals.ases`), so any tearing of stamp against store is
//! directly observable.

#![cfg(feature = "model-check")]

use arest_conc::model::Model;
use arest_ledger::{RunSnapshot, RunTotals};
use arest_serve::{LedgerStamp, RunOrigin, Store, StoreCell, StoreVersion};
use std::sync::Arc;

/// A version whose store agrees with its stamp: `totals.ases` IS the
/// serial, so a torn pairing is visible to the reader.
fn version(serial: u64) -> StoreVersion {
    let totals = RunTotals { ases: serial, ..RunTotals::default() };
    StoreVersion {
        store: Arc::new(Store::from(RunSnapshot { totals, ..RunSnapshot::default() })),
        stamp: Some(LedgerStamp {
            serial,
            payload_digest: serial.wrapping_mul(0x9e37_79b9),
            committed_unix: 1_750_000_000 + serial,
            origin: None,
        }),
    }
}

fn observed_serial(v: &StoreVersion) -> u64 {
    let stamp = v.stamp.expect("stamped version");
    assert_eq!(
        stamp.serial,
        v.store.totals().ases,
        "torn version: stamp from one serial, store from another"
    );
    stamp.serial
}

/// Invariant: a reader racing two committing watchers always loads an
/// internally consistent version, and the cell converges on the
/// newest serial under every interleaving.
#[test]
fn model_concurrent_swaps_never_tear_a_reader() {
    let report = Model::default().check(|| {
        let cell = StoreCell::new(version(1));
        arest_conc::thread::scope(|s| {
            let swap2 = s.spawn(|| cell.swap(version(2)));
            let swap3 = s.spawn(|| cell.swap(version(3)));
            // The reader races both swaps: whatever it sees must be
            // whole and monotonically plausible.
            let seen = observed_serial(&cell.load());
            assert!(
                (1..=3).contains(&seen),
                "reader saw serial {seen}, outside every committed version"
            );
            let two = swap2.join().expect("swap 2");
            let three = swap3.join().expect("swap 3");
            assert!(three || !two, "serial 3 can only lose to a newer serial, and none exists");
            assert_eq!(observed_serial(&cell.load()), 3, "the cell converges on the tip");
        });
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}

/// Invariant: a version loaded before a racing swap stays valid and
/// unchanged for as long as the request holds it — the swap replaces
/// the cell's pointer, never the loaded data.
#[test]
fn model_inflight_requests_keep_their_version_across_a_swap() {
    let report = Model::default().check(|| {
        let cell = StoreCell::new(version(1));
        arest_conc::thread::scope(|s| {
            let swapper = s.spawn(|| cell.swap(version(2)));
            let pinned = cell.load();
            let pinned_serial = observed_serial(&pinned);
            assert!(swapper.join().expect("swapper"), "serial 2 always beats serial 1");
            // However the load and swap interleaved, the pinned Arc
            // still reads as the version it was at load time…
            assert_eq!(observed_serial(&pinned), pinned_serial);
            // …while the cell itself has moved on.
            assert_eq!(observed_serial(&cell.load()), 2);
        });
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}

/// Invariant: a late sidecar's origin re-stamp racing the swap of a
/// newer serial never brings the older serial back, and never lands
/// on the newer serial's stamp.
#[test]
fn model_a_late_origin_never_undoes_a_newer_swap() {
    let report = Model::default().check(|| {
        let cell = StoreCell::new(version(1));
        let origin = RunOrigin { base_serial: None, fresh: 1, carried: 0 };
        arest_conc::thread::scope(|s| {
            let restamp = s.spawn(|| cell.set_origin(1, origin));
            assert!(cell.swap(version(2)), "serial 2 is newer than anything served");
            restamp.join().expect("re-stamp");
            let served = cell.load();
            assert_eq!(observed_serial(&served), 2, "the re-stamp resurrected serial 1");
            assert_eq!(served.stamp.and_then(|s| s.origin), None, "serial 1's origin on serial 2");
        });
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}
