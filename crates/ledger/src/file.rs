//! The on-disk snapshot file: a fixed checksummed header followed by
//! the interned payload.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "ARESTLDG"
//!      8     2  format version (big-endian u16, currently 1)
//!     10     2  RFC 1071 checksum over the whole 60-byte header
//!               (computed with this field zeroed)
//!     12     8  serial
//!     20     8  committed_unix (seconds)
//!     28     8  config digest  (FNV-1a 64 of the pipeline config)
//!     36     8  catalog digest (FNV-1a 64 of the AS catalog)
//!     44     8  payload length in bytes
//!     52     8  payload digest (FNV-1a 64 of the payload bytes)
//! ```
//!
//! The header checksum catches any flipped header byte; the payload
//! digest catches any flipped payload byte. The payload deliberately
//! excludes the serial and timestamp, so two commits of the same
//! campaign produce byte-identical payloads (and equal payload
//! digests) — the content-addressed identity the empty-delta
//! byte-verification rides. Decoding returns a typed
//! [`LedgerError`] on every malformed input; it never panics.

use crate::digest::fnv64;
use crate::error::{LedgerError, LedgerResult};
use crate::snapshot::{decode_payload, encode_payload, RunSnapshot};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ARESTLDG";

/// The format version this build writes and accepts.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 60;

/// Everything the header records about a committed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Monotonic serial within the ledger directory.
    pub serial: u64,
    /// Commit wall-clock time (Unix seconds, caller-supplied).
    pub committed_unix: u64,
    /// Digest of the pipeline configuration that produced the run.
    pub config_digest: u64,
    /// Digest of the AS catalog the run measured.
    pub catalog_digest: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Content digest of the payload — equal payloads, equal runs.
    pub payload_digest: u64,
}

/// Serializes a complete snapshot file: header + payload.
#[must_use]
pub fn encode_file(snapshot: &RunSnapshot, meta: &RunMeta) -> Vec<u8> {
    let payload = encode_payload(snapshot);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.resize(HEADER_LEN, 0);
    out.extend_from_slice(&payload);
    stamp_header(&mut out, meta);
    out
}

/// Writes the header for `meta` over the first [`HEADER_LEN`] bytes
/// of `file`, whose payload follows them. `payload_len` and
/// `payload_digest` are computed from that payload, not read from
/// `meta`, so a commit can re-stamp the same bytes under another
/// serial without re-encoding the payload.
pub(crate) fn stamp_header(file: &mut [u8], meta: &RunMeta) {
    let (header, payload) = file.split_at_mut(HEADER_LEN);
    let fields = [
        meta.serial,
        meta.committed_unix,
        meta.config_digest,
        meta.catalog_digest,
        payload.len() as u64,
        fnv64(payload),
    ];
    header[..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&VERSION.to_be_bytes());
    header[10..12].fill(0); // checksum placeholder
    for (slot, value) in header[12..].chunks_exact_mut(8).zip(fields) {
        slot.copy_from_slice(&value.to_be_bytes());
    }
    let checksum = arest_wire::checksum::checksum(header);
    header[10..12].copy_from_slice(&checksum.to_be_bytes());
}

fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8-byte slice"))
}

/// Decodes and verifies the fixed header. `expected_serial` is the
/// serial the file *name* claims, when the caller knows it.
pub fn decode_header(bytes: &[u8], expected_serial: Option<u64>) -> LedgerResult<RunMeta> {
    if bytes.len() < HEADER_LEN {
        return Err(LedgerError::Truncated);
    }
    let header = &bytes[..HEADER_LEN];
    if header[..8] != MAGIC {
        return Err(LedgerError::BadMagic);
    }
    if !arest_wire::checksum::verify(header) {
        return Err(LedgerError::HeaderChecksum);
    }
    let version = u16::from_be_bytes([header[8], header[9]]);
    if version != VERSION {
        return Err(LedgerError::BadVersion(version));
    }
    let meta = RunMeta {
        serial: be_u64(&header[12..20]),
        committed_unix: be_u64(&header[20..28]),
        config_digest: be_u64(&header[28..36]),
        catalog_digest: be_u64(&header[36..44]),
        payload_len: be_u64(&header[44..52]),
        payload_digest: be_u64(&header[52..60]),
    };
    if let Some(file) = expected_serial {
        if file != meta.serial {
            return Err(LedgerError::SerialMismatch { file, header: meta.serial });
        }
    }
    Ok(meta)
}

/// Decodes a complete snapshot file, verifying the header checksum,
/// the payload length, and the payload digest before touching the
/// payload structure.
pub fn decode_file(
    bytes: &[u8],
    expected_serial: Option<u64>,
) -> LedgerResult<(RunMeta, RunSnapshot)> {
    let meta = decode_header(bytes, expected_serial)?;
    let payload = &bytes[HEADER_LEN..];
    let claimed =
        usize::try_from(meta.payload_len).map_err(|_| LedgerError::Malformed("payload length"))?;
    if payload.len() < claimed {
        return Err(LedgerError::Truncated);
    }
    if payload.len() > claimed {
        return Err(LedgerError::Malformed("trailing bytes after the payload"));
    }
    if fnv64(payload) != meta.payload_digest {
        return Err(LedgerError::PayloadDigest);
    }
    let snapshot = decode_payload(payload)?;
    Ok((meta, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample;

    fn meta() -> RunMeta {
        RunMeta {
            serial: 3,
            committed_unix: 1_700_000_000,
            config_digest: 0x1111_2222_3333_4444,
            catalog_digest: 0x5555_6666_7777_8888,
            payload_len: 0, // filled by encode_file
            payload_digest: 0,
        }
    }

    #[test]
    fn file_round_trips() {
        let snapshot = sample();
        let bytes = encode_file(&snapshot, &meta());
        let (decoded_meta, decoded) = decode_file(&bytes, Some(3)).expect("decode");
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded_meta.serial, 3);
        assert_eq!(decoded_meta.committed_unix, 1_700_000_000);
        assert_eq!(decoded_meta.payload_len as usize, bytes.len() - HEADER_LEN);
        assert_eq!(decoded_meta.payload_digest, fnv64(&bytes[HEADER_LEN..]));
    }

    #[test]
    fn serial_and_timestamp_stay_out_of_the_payload() {
        let snapshot = sample();
        let a = encode_file(&snapshot, &meta());
        let b = encode_file(&snapshot, &RunMeta { serial: 9, committed_unix: 42, ..meta() });
        assert_eq!(&a[HEADER_LEN..], &b[HEADER_LEN..], "payload is serial-independent");
        let da = decode_header(&a, None).expect("header a");
        let db = decode_header(&b, None).expect("header b");
        assert_eq!(da.payload_digest, db.payload_digest, "content-addressed identity");
    }

    #[test]
    fn filename_serial_mismatch_is_typed() {
        let bytes = encode_file(&sample(), &meta());
        assert!(matches!(
            decode_file(&bytes, Some(4)),
            Err(LedgerError::SerialMismatch { file: 4, header: 3 })
        ));
    }

    #[test]
    fn foreign_version_is_rejected_after_checksum() {
        let snapshot = sample();
        let mut bytes = encode_file(&snapshot, &meta());
        // A future writer would stamp version 2 with a *valid*
        // checksum; rebuild the header the way it would.
        bytes[8..10].copy_from_slice(&2u16.to_be_bytes());
        bytes[10..12].copy_from_slice(&[0, 0]);
        let checksum = arest_wire::checksum::checksum(&bytes[..HEADER_LEN]);
        bytes[10..12].copy_from_slice(&checksum.to_be_bytes());
        assert!(matches!(decode_file(&bytes, None), Err(LedgerError::BadVersion(2))));
    }
}
