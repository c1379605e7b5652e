//! `arest-ledger`: the versioned on-disk run store that turns
//! one-shot campaigns into a longitudinal measurement series.
//!
//! The paper's output is a point-in-time census of SR deployment;
//! the interesting operational signal is *change* — tunnels
//! appearing, vendors migrating, SRGBs renumbering. This crate
//! persists each completed campaign as a **snapshot** under a
//! monotonic **serial** (routinator's snapshot-plus-serial model is
//! the exemplar) and computes announce/withdraw-style **deltas**
//! between any two serials:
//!
//! * [`RunSnapshot`] — per-AS summaries, per-address evidence, every
//!   detection with full provenance, campaign totals;
//! * [`Ledger`] — the directory store: `commit` (atomic, never overwrites),
//!   `load` (fully verified), `meta` (header only), `diff`;
//! * [`DetectionDelta`] — announced / withdrawn / changed detections
//!   keyed by (ASN, address, segment), with per-AS rollups.
//!
//! ## Durability
//!
//! Snapshot files carry an RFC 1071-checksummed header (reusing
//! `arest_wire::checksum`) and an FNV-1a 64 payload digest; every
//! corruption — truncation, bit flips, version skew, a file renamed
//! onto the wrong serial — loads as a typed [`LedgerError`], never a
//! panic. The payload encoding interns strings and repeated
//! detection records, and deliberately excludes the serial and
//! timestamp, so identical campaigns commit byte-identical payloads
//! (content-addressed identity).
//!
//! ## Observability
//!
//! Commits, loads, and diffs count on the global `arest-obs`
//! registry (`ledger.commits` / `ledger.loads` / `ledger.diffs` /
//! `ledger.errors`), snapshot sizes and verb latencies land in log₂
//! histograms (`ledger.snapshot.bytes`, `ledger.*.us`), and
//! `ledger.commit` / `ledger.diff` spans appear in the trace export.
#![warn(missing_docs)]

pub mod aux;
pub mod codec;
pub mod delta;
pub mod digest;
pub mod error;
pub mod file;
#[allow(clippy::module_inception)]
mod ledger;
mod obs;
pub mod snapshot;

pub use aux::{AuxRecord, AUX_HEADER_LEN, AUX_MAGIC, AUX_VERSION};
pub use delta::{AsDelta, ChangedEntry, DeltaEntry, DeltaKey, DetectionDelta};
pub use digest::{fnv64, Fnv64};
pub use error::{LedgerError, LedgerResult};
pub use file::{RunMeta, HEADER_LEN, MAGIC, VERSION};
pub use ledger::{CommitOptions, CommitReceipt, Ledger, StoredRun};
pub use snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
