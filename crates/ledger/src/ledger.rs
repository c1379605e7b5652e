//! The directory-level store: one file per serial, committed
//! atomically, loaded with full verification.
//!
//! A ledger directory holds `run-<serial>.arest` files with strictly
//! increasing serials. [`Ledger::commit`] writes the encoded snapshot
//! to a dot-prefixed temporary unique to the writer, then claims the
//! next serial by **hard-linking** the temporary to the serial's name.
//! The link is atomic and never replaces an existing file: a
//! concurrent reader (the serving layer's directory watcher) sees the
//! complete file or no file, never a half-written one, and two
//! writers racing for one serial cannot overwrite each other — the
//! loser retries with the next serial. That claim is the
//! zero-downtime refresh protocol's foundation (`DESIGN.md` §13).
//!
//! Loading re-verifies everything: the header checksum, the serial
//! against the file name, the payload digest, and the payload
//! structure. Every failure is a typed [`LedgerError`]; no input —
//! truncated, bit-flipped, renamed, or hostile — panics.

use crate::aux::{decode_aux_file, encode_aux_file, AuxRecord};
use crate::delta::{self, DetectionDelta};
use crate::error::{LedgerError, LedgerResult};
use crate::file::{decode_file, decode_header, encode_file, stamp_header, RunMeta, HEADER_LEN};
use crate::obs::{record_us, METRICS, TRACER};
use crate::snapshot::RunSnapshot;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Caller-supplied commit metadata. The timestamp is an input, not a
/// clock read, so tests and documentation builds commit with fixed
/// times and stay byte-deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOptions {
    /// Commit wall-clock time (Unix seconds).
    pub committed_unix: u64,
    /// Digest of the pipeline configuration that produced the run.
    pub config_digest: u64,
    /// Digest of the AS catalog the run measured.
    pub catalog_digest: u64,
}

/// What [`Ledger::commit`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The serial the snapshot landed under.
    pub serial: u64,
    /// Content digest of the payload.
    pub payload_digest: u64,
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
    /// The file's final path.
    pub path: PathBuf,
}

/// One loaded run: verified header plus decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRun {
    /// The verified header.
    pub meta: RunMeta,
    /// The decoded snapshot.
    pub snapshot: RunSnapshot,
}

/// A handle on one ledger directory.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
}

fn serial_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let serial = name.strip_prefix("run-")?.strip_suffix(".arest")?;
    // Strict decimal, no signs or leading junk.
    if serial.is_empty() || !serial.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    serial.parse().ok()
}

impl Ledger {
    /// Opens (creating if needed) the ledger directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> LedgerResult<Ledger> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Ledger { dir })
    }

    /// The directory this ledger lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a serial's snapshot file lives at.
    #[must_use]
    pub fn path_of(&self, serial: u64) -> PathBuf {
        self.dir.join(format!("run-{serial}.arest"))
    }

    /// Every committed serial, ascending. Files that do not match the
    /// `run-<serial>.arest` shape are ignored (editor droppings, the
    /// commit temporary).
    pub fn serials(&self) -> LedgerResult<Vec<u64>> {
        let mut serials = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            if let Some(serial) = serial_of(&entry?.path()) {
                serials.push(serial);
            }
        }
        serials.sort_unstable();
        serials.dedup();
        Ok(serials)
    }

    /// The newest committed serial, if any.
    pub fn latest(&self) -> LedgerResult<Option<u64>> {
        Ok(self.serials()?.into_iter().next_back())
    }

    /// Commits `snapshot` under the next free serial: encode, write to
    /// a temporary unique to this writer, then claim the serial by
    /// hard-linking the temporary to its `run-<serial>.arest` name.
    /// A link never replaces an existing file, so a concurrent writer
    /// that claimed the same serial first makes this one retry with
    /// the next serial instead of silently overwriting that run.
    pub fn commit(
        &self,
        snapshot: &RunSnapshot,
        options: &CommitOptions,
    ) -> LedgerResult<CommitReceipt> {
        let started = Instant::now();
        let mut span = TRACER.span("ledger.commit");
        let mut meta = RunMeta {
            serial: self.latest()?.map_or(1, |s| s + 1),
            committed_unix: options.committed_unix,
            config_digest: options.config_digest,
            catalog_digest: options.catalog_digest,
            payload_len: 0,    // stamped by encode_file
            payload_digest: 0, // stamped by encode_file
        };
        let mut bytes = encode_file(snapshot, &meta);
        let payload_digest = decode_header(&bytes, Some(meta.serial))?.payload_digest;
        let (tmp, mut file) = self.create_temp()?;
        let claimed = file.write_all(&bytes).and_then(|()| loop {
            match std::fs::hard_link(&tmp, self.path_of(meta.serial)) {
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    // Another writer holds this serial. The temporary is
                    // still private, so re-stamp its header and retry.
                    meta.serial += 1;
                    stamp_header(&mut bytes, &meta);
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(&bytes[..HEADER_LEN])?;
                }
                claim => break claim,
            }
        });
        drop(file);
        let _ = std::fs::remove_file(&tmp);
        if let Err(e) = claimed {
            METRICS.errors.inc();
            return Err(LedgerError::Io(e));
        }
        METRICS.commits.inc();
        METRICS.snapshot_bytes.record(bytes.len() as u64);
        record_us(&METRICS.commit_us, started.elapsed());
        span.record("serial", meta.serial);
        span.record("bytes", bytes.len() as u64);
        let path = self.path_of(meta.serial);
        Ok(CommitReceipt { serial: meta.serial, payload_digest, bytes: bytes.len() as u64, path })
    }

    /// Creates a temporary file in the ledger directory that no other
    /// writer holds: `create_new` refuses an existing name, so
    /// concurrent writers, threads or processes, each get their own.
    /// The leading dot and `.tmp` suffix keep it out of
    /// [`Self::serials`].
    fn create_temp(&self) -> LedgerResult<(PathBuf, File)> {
        let pid = std::process::id();
        let mut n = 0u64;
        loop {
            let path = self.dir.join(format!(".commit-{pid}-{n}.tmp"));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => return Ok((path, file)),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => n += 1,
                Err(e) => {
                    METRICS.errors.inc();
                    return Err(LedgerError::Io(e));
                }
            }
        }
    }

    /// The path a serial's carry-forward sidecar lives at.
    #[must_use]
    pub fn aux_path(&self, serial: u64) -> PathBuf {
        self.dir.join(format!("run-{serial}.arest.aux"))
    }

    /// [`Ledger::commit`] plus an atomically-written carry-forward
    /// sidecar under the same serial. The snapshot file is identical
    /// to a plain commit's — the sidecar never changes the payload,
    /// so content-addressed identity is unaffected.
    pub fn commit_with_aux(
        &self,
        snapshot: &RunSnapshot,
        options: &CommitOptions,
        aux: &AuxRecord,
    ) -> LedgerResult<CommitReceipt> {
        let receipt = self.commit(snapshot, options)?;
        let bytes = encode_aux_file(aux, receipt.serial);
        let path = self.aux_path(receipt.serial);
        let (tmp, mut file) = self.create_temp()?;
        let write = file.write_all(&bytes);
        drop(file);
        if let Err(e) = write.and_then(|()| std::fs::rename(&tmp, &path)) {
            METRICS.errors.inc();
            let _ = std::fs::remove_file(&tmp);
            return Err(LedgerError::Io(e));
        }
        Ok(receipt)
    }

    /// Reads and fully verifies one serial's carry-forward sidecar.
    /// `Ok(None)` means the serial was committed without one (by an
    /// older writer, or via plain [`Ledger::commit`]).
    pub fn load_aux(&self, serial: u64) -> LedgerResult<Option<AuxRecord>> {
        let bytes = match std::fs::read(self.aux_path(serial)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(LedgerError::Io(e)),
        };
        Ok(Some(decode_aux_file(&bytes, Some(serial))?))
    }

    /// Reads and fully verifies one run (header checksum, serial,
    /// payload digest, payload structure).
    pub fn load(&self, serial: u64) -> LedgerResult<StoredRun> {
        let started = Instant::now();
        let path = self.path_of(serial);
        let result = (|| {
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(LedgerError::UnknownSerial(serial));
                }
                Err(e) => return Err(LedgerError::Io(e)),
            };
            let (meta, snapshot) = decode_file(&bytes, Some(serial))?;
            Ok(StoredRun { meta, snapshot })
        })();
        match &result {
            Ok(_) => {
                METRICS.loads.inc();
                record_us(&METRICS.load_us, started.elapsed());
            }
            Err(_) => METRICS.errors.inc(),
        }
        result
    }

    /// Reads and verifies one run's header only — enough for run
    /// listings without decoding the payload. The payload length is
    /// still checked against the file size, so a truncated file
    /// surfaces here too.
    pub fn meta(&self, serial: u64) -> LedgerResult<RunMeta> {
        let path = self.path_of(serial);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(LedgerError::UnknownSerial(serial));
            }
            Err(e) => return Err(LedgerError::Io(e)),
        };
        let meta = decode_header(&bytes, Some(serial))?;
        let claimed = usize::try_from(meta.payload_len)
            .map_err(|_| LedgerError::Malformed("payload length"))?;
        match (bytes.len() - HEADER_LEN).cmp(&claimed) {
            std::cmp::Ordering::Less => Err(LedgerError::Truncated),
            std::cmp::Ordering::Greater => {
                Err(LedgerError::Malformed("trailing bytes after the payload"))
            }
            std::cmp::Ordering::Equal => Ok(meta),
        }
    }

    /// Loads runs `a` and `b` and computes the announce/withdraw
    /// delta from `a` to `b`.
    pub fn diff(&self, a: u64, b: u64) -> LedgerResult<DetectionDelta> {
        let started = Instant::now();
        let mut span = TRACER.span("ledger.diff");
        let from = self.load(a)?;
        let to = self.load(b)?;
        let delta = delta::compute(from.meta, &from.snapshot, to.meta, &to.snapshot);
        METRICS.diffs.inc();
        record_us(&METRICS.diff_us, started.elapsed());
        span.record("from", a);
        span.record("to", b);
        span.record("announced", delta.announced.len() as u64);
        span.record("withdrawn", delta.withdrawn.len() as u64);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "arest-ledger-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn serials_are_monotonic_and_listable() {
        let dir = scratch_dir("serials");
        let ledger = Ledger::open(&dir).expect("open");
        assert_eq!(ledger.latest().expect("latest"), None);
        let options = CommitOptions { committed_unix: 1_700_000_000, ..Default::default() };
        let first = ledger.commit(&sample(), &options).expect("commit 1");
        let second = ledger.commit(&sample(), &options).expect("commit 2");
        assert_eq!((first.serial, second.serial), (1, 2));
        assert_eq!(ledger.serials().expect("serials"), vec![1, 2]);
        assert_eq!(ledger.latest().expect("latest"), Some(2));
        assert_eq!(
            first.payload_digest, second.payload_digest,
            "same snapshot, same content digest"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_round_trips_and_unknown_serials_are_typed() {
        let dir = scratch_dir("load");
        let ledger = Ledger::open(&dir).expect("open");
        let snapshot = sample();
        let options = CommitOptions {
            committed_unix: 1_700_000_777,
            config_digest: 0xabc,
            catalog_digest: 0xdef,
        };
        ledger.commit(&snapshot, &options).expect("commit");
        let run = ledger.load(1).expect("load");
        assert_eq!(run.snapshot, snapshot);
        assert_eq!(run.meta.committed_unix, 1_700_000_777);
        assert_eq!(run.meta.config_digest, 0xabc);
        assert!(matches!(ledger.load(9), Err(LedgerError::UnknownSerial(9))));
        assert!(matches!(ledger.meta(9), Err(LedgerError::UnknownSerial(9))));
        assert_eq!(ledger.meta(1).expect("meta"), run.meta);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_files_are_ignored_and_no_temp_survives() {
        let dir = scratch_dir("foreign");
        let ledger = Ledger::open(&dir).expect("open");
        std::fs::write(dir.join("README"), b"not a snapshot").expect("write");
        std::fs::write(dir.join("run-x.arest"), b"junk").expect("write");
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit");
        assert_eq!(ledger.serials().expect("serials"), vec![1]);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "commit must not leave temporaries");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn aux_sidecar_commits_and_loads_next_to_its_snapshot() {
        let dir = scratch_dir("aux");
        let ledger = Ledger::open(&dir).expect("open");
        let aux = AuxRecord {
            base_serial: None,
            carried: Vec::new(),
            raw_traces: vec![(65010, 5)],
            cache: vec![(std::net::Ipv4Addr::new(10, 0, 0, 1), Some(255))],
        };
        let receipt =
            ledger.commit_with_aux(&sample(), &CommitOptions::default(), &aux).expect("commit");
        assert_eq!(receipt.serial, 1);
        // The sidecar never pollutes the serial listing, and a plain
        // commit has no sidecar.
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit 2");
        assert_eq!(ledger.serials().expect("serials"), vec![1, 2]);
        assert_eq!(ledger.load_aux(1).expect("load aux"), Some(aux));
        assert_eq!(ledger.load_aux(2).expect("load aux 2"), None);
        // The snapshot itself is byte-identical either way.
        let plain = ledger.load(2).expect("load 2");
        let with_aux = ledger.load(1).expect("load 1");
        assert_eq!(plain.meta.payload_digest, with_aux.meta.payload_digest);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn diff_of_a_serial_against_itself_is_empty() {
        let dir = scratch_dir("diff");
        let ledger = Ledger::open(&dir).expect("open");
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit");
        let delta = ledger.diff(1, 1).expect("diff");
        assert!(delta.is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
