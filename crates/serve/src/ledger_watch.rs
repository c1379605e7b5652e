//! The ledger directory watcher: how a running daemon picks up newly
//! committed serials with zero downtime.
//!
//! [`Ledger::commit`] publishes a snapshot by atomically hard-linking
//! a complete, checksummed file into the directory, so polling is safe:
//! the watcher either sees the new `run-<serial>.arest` in full or
//! not at all. When [`refresh`] observes a serial newer than the one
//! the [`StoreCell`] serves, it loads and verifies the file, moves the
//! loaded snapshot into a fresh [`Store`] (indexing it, not copying
//! it), and swaps it in — requests in flight keep the
//! version they loaded, the next request gets the new one, and the
//! cell's monotonicity check makes racing watchers harmless.
//!
//! Verification failures (a corrupt file, a half-published file on a
//! non-POSIX filesystem) leave the current version serving and are
//! retried on the next poll; the ledger's own `ledger.errors` counter
//! records them.
//!
//! A run's carry-forward sidecar is published just after its snapshot,
//! so a poll can swap a run in before its sidecar exists. Later polls
//! notice the missing origin breakdown on the newest serial and add it
//! once the sidecar lands, keeping the same store and serial.

use crate::store::Store;
use crate::store_cell::{LedgerStamp, RunOrigin, StoreCell, StoreVersion};
use arest_ledger::{Ledger, LedgerResult, RunMeta};
use std::sync::Arc;
use std::time::Duration;

/// One poll step: if the ledger holds a serial newer than the cell
/// serves, load it and swap it in; if the cell serves the newest
/// serial without an origin breakdown and that serial's sidecar has
/// landed since, add the origin ([`StoreCell::set_origin`]). Returns
/// the serial swapped in or re-stamped, or `None` when the cell was
/// already current (or the directory is empty).
pub fn refresh(cell: &StoreCell, ledger: &Ledger) -> LedgerResult<Option<u64>> {
    let Some(latest) = ledger.latest()? else {
        return Ok(None);
    };
    let serving = cell.load();
    if let Some(stamp) = serving.stamp.filter(|s| s.serial >= latest) {
        // `commit_with_aux` publishes the snapshot before its sidecar,
        // so a poll between the two swapped this serial in without one.
        if stamp.serial == latest && stamp.origin.is_none() {
            if let Some(origin) = origin_of(ledger, latest, &serving.store) {
                return Ok(cell.set_origin(latest, origin).then_some(latest));
            }
        }
        return Ok(None);
    }
    let run = ledger.load(latest)?;
    let store = Arc::new(Store::from(run.snapshot));
    let origin = origin_of(ledger, latest, &store);
    let version = StoreVersion { store, stamp: Some(stamp_of(&run.meta, origin)) };
    Ok(cell.swap(version).then_some(latest))
}

/// Stamps `store` as ledger run `serial` and swaps it in, without
/// reloading the run: for a daemon that has just committed the record
/// `store` holds (a reloaded run is the same record — the ledger
/// round-trips snapshots exactly). Refused, like any swap, unless
/// `serial` is newer than the served one. Returns whether it swapped.
pub fn adopt(
    cell: &StoreCell,
    ledger: &Ledger,
    serial: u64,
    store: Arc<Store>,
) -> LedgerResult<bool> {
    let meta = ledger.meta(serial)?;
    let origin = origin_of(ledger, serial, &store);
    Ok(cell.swap(StoreVersion { store, stamp: Some(stamp_of(&meta, origin)) }))
}

/// The fresh/carried breakdown of run `serial` from its sidecar. A
/// missing or unreadable sidecar only costs the breakdown; the run
/// itself still serves.
fn origin_of(ledger: &Ledger, serial: u64, store: &Store) -> Option<RunOrigin> {
    let aux = ledger.load_aux(serial).ok().flatten()?;
    let carried = aux.carried.len() as u64;
    Some(RunOrigin {
        base_serial: aux.base_serial,
        fresh: (store.snapshot().ases.len() as u64).saturating_sub(carried),
        carried,
    })
}

fn stamp_of(meta: &RunMeta, origin: Option<RunOrigin>) -> LedgerStamp {
    LedgerStamp {
        serial: meta.serial,
        payload_digest: meta.payload_digest,
        committed_unix: meta.committed_unix,
        origin,
    }
}

/// Polls `ledger` every `poll` until `stop` returns true, swapping
/// newer serials into `cell` as they land. Run it on its own thread
/// (`arest_conc::thread::scope`) beside [`Server::run`].
///
/// [`Server::run`]: crate::server::Server::run
pub fn watch(cell: &StoreCell, ledger: &Ledger, poll: Duration, stop: &(dyn Fn() -> bool + Sync)) {
    while !stop() {
        // A failed refresh (transient IO, a corrupt commit) keeps the
        // current version serving; the next poll retries.
        let _ = refresh(cell, ledger);
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::tiny;
    use arest_ledger::{AuxRecord, CommitOptions};
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arest-serve-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn refresh_swaps_new_serials_and_idles_otherwise() {
        let dir = scratch_dir("refresh");
        let ledger = Ledger::open(&dir).expect("open");
        let cell = StoreCell::bare(Arc::new(tiny()));

        // Empty directory: nothing to do.
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None);

        let options = CommitOptions { committed_unix: 1_750_000_000, ..Default::default() };
        ledger.commit(tiny().snapshot(), &options).expect("commit");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(1));
        assert_eq!(cell.serial(), Some(1));

        // Already current: idempotent.
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None);

        ledger.commit(tiny().snapshot(), &options).expect("commit");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(2));
        assert_eq!(cell.serial(), Some(2));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_sidecar_landing_after_its_snapshot_is_picked_up() {
        // Commit with a sidecar in one directory, then publish the two
        // files into the watched one in commit order, polling between.
        let source = scratch_dir("late-aux-source");
        let dir = scratch_dir("late-aux");
        let written = Ledger::open(&source).expect("open source");
        let ledger = Ledger::open(&dir).expect("open");
        let aux = AuxRecord {
            base_serial: None,
            carried: vec![9002],
            raw_traces: vec![(9001, 5), (9002, 0)],
            cache: Vec::new(),
        };
        let receipt = written
            .commit_with_aux(tiny().snapshot(), &CommitOptions::default(), &aux)
            .expect("commit");
        let cell = StoreCell::bare(Arc::new(tiny()));

        std::fs::copy(&receipt.path, ledger.path_of(1)).expect("publish snapshot");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(1));
        let before = cell.load();
        assert_eq!(before.stamp.and_then(|s| s.origin), None, "no sidecar yet");

        std::fs::copy(written.aux_path(1), ledger.aux_path(1)).expect("publish sidecar");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(1));
        let after = cell.load();
        let origin = RunOrigin { base_serial: None, fresh: 1, carried: 1 };
        assert_eq!(after.stamp.and_then(|s| s.origin), Some(origin));
        assert_eq!(after.stamp.map(|s| s.serial), Some(1));
        assert!(Arc::ptr_eq(&before.store, &after.store), "the same store keeps serving");

        // Current and complete: idle.
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None);
        std::fs::remove_dir_all(&source).expect("cleanup");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn adopt_stamps_the_committed_store_without_reloading_it() {
        let dir = scratch_dir("adopt");
        let ledger = Ledger::open(&dir).expect("open");
        let options = CommitOptions { committed_unix: 1_750_000_000, ..Default::default() };
        let aux = AuxRecord {
            base_serial: None,
            carried: Vec::new(),
            raw_traces: Vec::new(),
            cache: Vec::new(),
        };
        let store = Arc::new(tiny());
        let receipt = ledger.commit_with_aux(store.snapshot(), &options, &aux).expect("commit");
        let cell = StoreCell::bare(Arc::new(tiny()));
        assert!(adopt(&cell, &ledger, receipt.serial, Arc::clone(&store)).expect("adopt"));
        let served = cell.load();
        assert!(Arc::ptr_eq(&served.store, &store));
        let stamp = served.stamp.expect("stamped");
        assert_eq!((stamp.serial, stamp.payload_digest), (1, receipt.payload_digest));
        assert_eq!(stamp.committed_unix, 1_750_000_000);
        assert_eq!(stamp.origin, Some(RunOrigin { base_serial: None, fresh: 2, carried: 0 }));
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None, "already current");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_corrupt_latest_leaves_the_current_version_serving() {
        let dir = scratch_dir("corrupt");
        let ledger = Ledger::open(&dir).expect("open");
        let cell = StoreCell::bare(Arc::new(tiny()));
        let options = CommitOptions::default();
        ledger.commit(tiny().snapshot(), &options).expect("commit");
        refresh(&cell, &ledger).expect("refresh");

        // Serial 2 lands bit-flipped: refresh errors, the cell stays
        // on serial 1.
        let receipt = ledger.commit(tiny().snapshot(), &options).expect("commit");
        let mut bytes = std::fs::read(&receipt.path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&receipt.path, &bytes).expect("rewrite");
        assert!(refresh(&cell, &ledger).is_err());
        assert_eq!(cell.serial(), Some(1), "corruption must not dethrone the served store");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
