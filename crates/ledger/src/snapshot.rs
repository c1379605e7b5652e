//! The snapshot payload: what one committed campaign looks like on
//! disk, and the interned binary encoding that keeps it compact.
//!
//! [`RunSnapshot`] is the workspace's one run record: the pipeline
//! flattens a campaign into it once (`arest_experiments::ledger_io`),
//! the ledger commits and loads it, and `arest-serve` renders every
//! JSON body straight from its rows. The types are plain owned data so
//! the ledger sits *below* the daemon in the crate graph: per-AS
//! summaries, per-address evidence, every detection with its full
//! provenance chain, and the campaign totals.
//!
//! ## Encoding
//!
//! The payload is two interning tables followed by the rows that
//! reference them:
//!
//! 1. a **string table** (vantage points, flags, vendor names,
//!    provenance chains, AS names — all heavily repeated);
//! 2. a **detection table**: each distinct [`DetectionRecord`] once.
//!    A detection's segment covers several addresses and the serving
//!    rows repeat it per covered address, so storing indices instead
//!    of copies is where most of the compaction comes from;
//! 3. AS records, address entries (whose detection lists are varint
//!    indices into table 2), and the totals.
//!
//! Encoding iterates the snapshot in its stored (deterministic)
//! order, and interning assigns indices in first-use order, so equal
//! snapshots encode to identical bytes — the property the
//! "committed the same build twice" byte-verification test rests on.
//! Everything integer is a LEB128 varint except addresses, which stay
//! fixed 4-byte big-endian like the rest of `arest-wire`.

use crate::codec::{put_bool, put_str, put_varint, Reader};
use crate::error::{LedgerError, LedgerResult};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Detection counts by flag, strongest first (paper order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlagTotals {
    /// Consecutive & Vendor Range (★5).
    pub cvr: u64,
    /// Consecutive Only (★4).
    pub co: u64,
    /// Label Stack & Vendor Range (★4).
    pub lsvr: u64,
    /// Label & Vendor Range (★3).
    pub lvr: u64,
    /// Label Stack Only (★1).
    pub lso: u64,
}

impl FlagTotals {
    /// All detections.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cvr + self.co + self.lsvr + self.lvr + self.lso
    }

    /// Detections on strong flags (everything but LSO, §6.3).
    #[must_use]
    pub fn strong(&self) -> u64 {
        self.cvr + self.co + self.lsvr + self.lvr
    }
}

impl std::ops::AddAssign for FlagTotals {
    fn add_assign(&mut self, other: FlagTotals) {
        self.cvr += other.cvr;
        self.co += other.co;
        self.lsvr += other.lsvr;
        self.lvr += other.lvr;
        self.lso += other.lso;
    }
}

/// One AS's campaign summary, as committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRecord {
    /// The paper's catalog identifier.
    pub id: u8,
    /// The autonomous system number.
    pub asn: u32,
    /// Operator name.
    pub name: String,
    /// Hierarchy class (`Stub`/`Content`/`Transit`/`Tier-1`).
    pub astype: String,
    /// External SR confirmation source (`cisco`/`survey`/`none`).
    pub confirmation: String,
    /// Whether the AS cleared the analysis threshold in this run.
    pub analyzed: bool,
    /// Anaximander targets probed per vantage point.
    pub targets_probed: u64,
    /// Intra-AS traces kept after restriction.
    pub traces: u64,
    /// Distinct addresses annotated to the AS.
    pub addresses: u64,
    /// Addresses with a vendor fingerprint.
    pub fingerprinted: u64,
    /// Detection counts by flag.
    pub flags: FlagTotals,
}

impl AsRecord {
    /// Whether any strong flag fired — the paper's SR-deployed verdict.
    #[must_use]
    pub fn sr_deployed(&self) -> bool {
        self.flags.strong() > 0
    }
}

/// The provenance chain of one detection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvenanceRecord {
    /// Index of the hop that triggered the detection.
    pub trigger_hop: u64,
    /// Length of the matched label run.
    pub run_len: u64,
    /// Distinct replying addresses across the segment.
    pub distinct_addrs: u64,
    /// Label-stack entries the detector examined.
    pub lses_consulted: u64,
    /// Stack depth after entropy-pair exclusion.
    pub effective_depth: u64,
    /// The consulted fingerprint verdict, when any.
    pub fingerprint: Option<String>,
    /// Whether the label mapped into the vendor's SR range.
    pub label_in_vendor_range: bool,
    /// Whether decimal-suffix matching was needed.
    pub suffix_matched: bool,
    /// The one-line `key=value` evidence chain.
    pub chain: String,
}

/// One detected segment with full provenance. `Eq + Hash` so the
/// encoder can intern the copies the serving rows repeat per covered
/// address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DetectionRecord {
    /// The ASN the trace was restricted to.
    pub asn: u32,
    /// Vantage point that ran the trace.
    pub vp: String,
    /// Probe destination of the trace.
    pub dst: String,
    /// The flag that fired (`CVR`/`CO`/`LSVR`/`LVR`/`LSO`).
    pub flag: String,
    /// Signal strength in stars (§4).
    pub stars: u8,
    /// First hop index of the segment.
    pub start: u64,
    /// Last hop index (inclusive).
    pub end: u64,
    /// The active label that triggered the flag.
    pub label: u32,
    /// Whether suffix-based matching was needed.
    pub suffix_based: bool,
    /// The evidence chain.
    pub provenance: ProvenanceRecord,
}

/// Everything committed about one address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrEntry {
    /// The address.
    pub addr: Ipv4Addr,
    /// The AS it was annotated to.
    pub asn: u32,
    /// Vendor fingerprint, when one was obtained.
    pub fingerprint: Option<String>,
    /// How the fingerprint was obtained (`snmp`/`ttl`).
    pub fingerprint_source: Option<String>,
    /// Every detection whose segment covers this address, in stored
    /// (deterministic) order.
    pub detections: Vec<DetectionRecord>,
}

/// Campaign-wide totals, as committed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// ASes in the catalog.
    pub ases: u64,
    /// ASes clearing the analysis threshold.
    pub analyzed: u64,
    /// ASes with at least one strong detection.
    pub sr_deployed: u64,
    /// Distinct addresses across all ASes.
    pub addresses: u64,
    /// Addresses with a vendor fingerprint.
    pub fingerprinted: u64,
    /// Traces collected before restriction.
    pub raw_traces: u64,
    /// Intra-AS traces kept after restriction.
    pub intra_as_traces: u64,
    /// Vantage points that contributed traces.
    pub vantage_points: u64,
    /// Detection counts by flag, campaign-wide.
    pub flags: FlagTotals,
}

impl RunTotals {
    /// Derives the campaign totals from the rows they summarise. The
    /// two figures the rows cannot carry come from the caller: traces
    /// collected before restriction, and the vantage points heard.
    #[must_use]
    pub fn from_rows(
        ases: &[AsRecord],
        addrs: &[AddrEntry],
        raw_traces: u64,
        vantage_points: u64,
    ) -> RunTotals {
        let mut flags = FlagTotals::default();
        for record in ases {
            flags += record.flags;
        }
        RunTotals {
            ases: ases.len() as u64,
            analyzed: ases.iter().filter(|a| a.analyzed).count() as u64,
            sr_deployed: ases.iter().filter(|a| a.sr_deployed()).count() as u64,
            addresses: addrs.len() as u64,
            fingerprinted: addrs.iter().filter(|a| a.fingerprint.is_some()).count() as u64,
            raw_traces,
            intra_as_traces: ases.iter().map(|a| a.traces).sum(),
            vantage_points,
            flags,
        }
    }
}

/// One completed campaign, ready to commit or freshly loaded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSnapshot {
    /// Per-AS summaries in catalog order.
    pub ases: Vec<AsRecord>,
    /// Per-address evidence in address order.
    pub addrs: Vec<AddrEntry>,
    /// Campaign totals.
    pub totals: RunTotals,
}

/// First-use-order string interner.
#[derive(Default)]
struct StringTable {
    strings: Vec<String>,
    index: HashMap<String, u64>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }

    /// `None` encodes as 0, `Some(s)` as index + 1.
    fn intern_opt(&mut self, s: Option<&str>) -> u64 {
        s.map_or(0, |s| self.intern(s) + 1)
    }
}

fn put_flags(out: &mut Vec<u8>, flags: &FlagTotals) {
    for v in [flags.cvr, flags.co, flags.lsvr, flags.lvr, flags.lso] {
        put_varint(out, v);
    }
}

/// Encodes `snapshot` into payload bytes (no header).
#[must_use]
pub fn encode_payload(snapshot: &RunSnapshot) -> Vec<u8> {
    let mut strings = StringTable::default();
    let mut detections: Vec<&DetectionRecord> = Vec::new();
    let mut detection_index: HashMap<&DetectionRecord, u64> = HashMap::new();

    // Pass 1: intern in deterministic traversal order.
    for record in &snapshot.ases {
        strings.intern(&record.name);
        strings.intern(&record.astype);
        strings.intern(&record.confirmation);
    }
    let mut addr_detections: Vec<Vec<u64>> = Vec::with_capacity(snapshot.addrs.len());
    for entry in &snapshot.addrs {
        if let Some(f) = &entry.fingerprint {
            strings.intern(f);
        }
        if let Some(s) = &entry.fingerprint_source {
            strings.intern(s);
        }
        let mut indices = Vec::with_capacity(entry.detections.len());
        for detection in &entry.detections {
            let index = *detection_index.entry(detection).or_insert_with(|| {
                strings.intern(&detection.vp);
                strings.intern(&detection.dst);
                strings.intern(&detection.flag);
                if let Some(f) = &detection.provenance.fingerprint {
                    strings.intern(f);
                }
                strings.intern(&detection.provenance.chain);
                detections.push(detection);
                (detections.len() - 1) as u64
            });
            indices.push(index);
        }
        addr_detections.push(indices);
    }

    // Pass 2: emit.
    let mut out = Vec::new();
    put_varint(&mut out, strings.strings.len() as u64);
    for s in &strings.strings {
        put_str(&mut out, s);
    }

    put_varint(&mut out, detections.len() as u64);
    for d in detections {
        put_varint(&mut out, u64::from(d.asn));
        put_varint(&mut out, strings.intern(&d.vp));
        put_varint(&mut out, strings.intern(&d.dst));
        put_varint(&mut out, strings.intern(&d.flag));
        out.push(d.stars);
        put_varint(&mut out, d.start);
        put_varint(&mut out, d.end);
        put_varint(&mut out, u64::from(d.label));
        put_bool(&mut out, d.suffix_based);
        let p = &d.provenance;
        put_varint(&mut out, p.trigger_hop);
        put_varint(&mut out, p.run_len);
        put_varint(&mut out, p.distinct_addrs);
        put_varint(&mut out, p.lses_consulted);
        put_varint(&mut out, p.effective_depth);
        put_varint(&mut out, strings.intern_opt(p.fingerprint.as_deref()));
        put_bool(&mut out, p.label_in_vendor_range);
        put_bool(&mut out, p.suffix_matched);
        put_varint(&mut out, strings.intern(&p.chain));
    }

    put_varint(&mut out, snapshot.ases.len() as u64);
    for a in &snapshot.ases {
        out.push(a.id);
        put_varint(&mut out, u64::from(a.asn));
        put_varint(&mut out, strings.intern(&a.name));
        put_varint(&mut out, strings.intern(&a.astype));
        put_varint(&mut out, strings.intern(&a.confirmation));
        put_bool(&mut out, a.analyzed);
        put_varint(&mut out, a.targets_probed);
        put_varint(&mut out, a.traces);
        put_varint(&mut out, a.addresses);
        put_varint(&mut out, a.fingerprinted);
        put_flags(&mut out, &a.flags);
    }

    put_varint(&mut out, snapshot.addrs.len() as u64);
    for (entry, indices) in snapshot.addrs.iter().zip(&addr_detections) {
        out.extend_from_slice(&entry.addr.octets());
        put_varint(&mut out, u64::from(entry.asn));
        put_varint(&mut out, strings.intern_opt(entry.fingerprint.as_deref()));
        put_varint(&mut out, strings.intern_opt(entry.fingerprint_source.as_deref()));
        put_varint(&mut out, indices.len() as u64);
        for &i in indices {
            put_varint(&mut out, i);
        }
    }

    let t = &snapshot.totals;
    for v in [
        t.ases,
        t.analyzed,
        t.sr_deployed,
        t.addresses,
        t.fingerprinted,
        t.raw_traces,
        t.intra_as_traces,
        t.vantage_points,
    ] {
        put_varint(&mut out, v);
    }
    put_flags(&mut out, &t.flags);
    out
}

fn read_flags(reader: &mut Reader<'_>) -> LedgerResult<FlagTotals> {
    Ok(FlagTotals {
        cvr: reader.varint()?,
        co: reader.varint()?,
        lsvr: reader.varint()?,
        lvr: reader.varint()?,
        lso: reader.varint()?,
    })
}

fn table_str(table: &[String], index: u64, what: &'static str) -> LedgerResult<String> {
    usize::try_from(index)
        .ok()
        .and_then(|i| table.get(i))
        .cloned()
        .ok_or(LedgerError::Malformed(what))
}

fn table_opt_str(table: &[String], index: u64, what: &'static str) -> LedgerResult<Option<String>> {
    if index == 0 {
        return Ok(None);
    }
    table_str(table, index - 1, what).map(Some)
}

fn narrow(value: u64, what: &'static str) -> LedgerResult<u32> {
    u32::try_from(value).map_err(|_| LedgerError::Malformed(what))
}

/// Decodes payload bytes back into a snapshot. Trailing bytes after
/// the totals are malformed — a payload is exactly one snapshot.
pub fn decode_payload(bytes: &[u8]) -> LedgerResult<RunSnapshot> {
    let mut reader = Reader::new(bytes);
    let limit = bytes.len();

    let string_count = reader.count(limit)?;
    let mut strings = Vec::with_capacity(string_count.min(4096));
    for _ in 0..string_count {
        strings.push(reader.str()?);
    }

    let detection_count = reader.count(limit)?;
    let mut detections = Vec::with_capacity(detection_count.min(4096));
    for _ in 0..detection_count {
        let asn = narrow(reader.varint()?, "detection ASN exceeds 32 bits")?;
        let vp = table_str(&strings, reader.varint()?, "detection vp index out of range")?;
        let dst = table_str(&strings, reader.varint()?, "detection dst index out of range")?;
        let flag = table_str(&strings, reader.varint()?, "detection flag index out of range")?;
        let stars = reader.u8()?;
        let start = reader.varint()?;
        let end = reader.varint()?;
        let label = narrow(reader.varint()?, "detection label exceeds 32 bits")?;
        let suffix_based = reader.bool()?;
        let provenance = ProvenanceRecord {
            trigger_hop: reader.varint()?,
            run_len: reader.varint()?,
            distinct_addrs: reader.varint()?,
            lses_consulted: reader.varint()?,
            effective_depth: reader.varint()?,
            fingerprint: table_opt_str(
                &strings,
                reader.varint()?,
                "provenance fingerprint index out of range",
            )?,
            label_in_vendor_range: reader.bool()?,
            suffix_matched: reader.bool()?,
            chain: table_str(&strings, reader.varint()?, "provenance chain index out of range")?,
        };
        detections.push(DetectionRecord {
            asn,
            vp,
            dst,
            flag,
            stars,
            start,
            end,
            label,
            suffix_based,
            provenance,
        });
    }

    let as_count = reader.count(limit)?;
    let mut ases = Vec::with_capacity(as_count.min(4096));
    for _ in 0..as_count {
        ases.push(AsRecord {
            id: reader.u8()?,
            asn: narrow(reader.varint()?, "AS record ASN exceeds 32 bits")?,
            name: table_str(&strings, reader.varint()?, "AS name index out of range")?,
            astype: table_str(&strings, reader.varint()?, "AS type index out of range")?,
            confirmation: table_str(
                &strings,
                reader.varint()?,
                "AS confirmation index out of range",
            )?,
            analyzed: reader.bool()?,
            targets_probed: reader.varint()?,
            traces: reader.varint()?,
            addresses: reader.varint()?,
            fingerprinted: reader.varint()?,
            flags: read_flags(&mut reader)?,
        });
    }

    let addr_count = reader.count(limit)?;
    let mut addrs = Vec::with_capacity(addr_count.min(4096));
    for _ in 0..addr_count {
        let octets: [u8; 4] = reader.take(4)?.try_into().expect("take(4) returned 4 bytes");
        let addr = Ipv4Addr::from(octets);
        let asn = narrow(reader.varint()?, "address ASN exceeds 32 bits")?;
        let fingerprint =
            table_opt_str(&strings, reader.varint()?, "address fingerprint index out of range")?;
        let fingerprint_source = table_opt_str(
            &strings,
            reader.varint()?,
            "address fingerprint source index out of range",
        )?;
        let index_count = reader.count(limit)?;
        let mut listed = Vec::with_capacity(index_count.min(4096));
        for _ in 0..index_count {
            let index = reader.varint()?;
            let detection: &DetectionRecord = usize::try_from(index)
                .ok()
                .and_then(|i| detections.get(i))
                .ok_or(LedgerError::Malformed("detection index out of range"))?;
            listed.push(detection.clone());
        }
        addrs.push(AddrEntry { addr, asn, fingerprint, fingerprint_source, detections: listed });
    }

    let totals = RunTotals {
        ases: reader.varint()?,
        analyzed: reader.varint()?,
        sr_deployed: reader.varint()?,
        addresses: reader.varint()?,
        fingerprinted: reader.varint()?,
        raw_traces: reader.varint()?,
        intra_as_traces: reader.varint()?,
        vantage_points: reader.varint()?,
        flags: read_flags(&mut reader)?,
    };
    if !reader.is_empty() {
        return Err(LedgerError::Malformed("trailing bytes after the totals"));
    }
    Ok(RunSnapshot { ases, addrs, totals })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small two-AS snapshot with a shared (interned) detection.
    pub(crate) fn sample() -> RunSnapshot {
        let detection = DetectionRecord {
            asn: 64512,
            vp: "vp03".to_string(),
            dst: "10.0.9.9".to_string(),
            flag: "CVR".to_string(),
            stars: 5,
            start: 2,
            end: 4,
            label: 16_003,
            suffix_based: false,
            provenance: ProvenanceRecord {
                trigger_hop: 2,
                run_len: 3,
                distinct_addrs: 3,
                lses_consulted: 3,
                effective_depth: 1,
                fingerprint: Some("Cisco".to_string()),
                label_in_vendor_range: true,
                suffix_matched: false,
                chain: "trigger_hop=2 run_len=3".to_string(),
            },
        };
        let weak = DetectionRecord {
            flag: "LSO".to_string(),
            stars: 1,
            label: 30_001,
            start: 5,
            end: 6,
            provenance: ProvenanceRecord {
                fingerprint: None,
                label_in_vendor_range: false,
                ..detection.provenance.clone()
            },
            ..detection.clone()
        };
        RunSnapshot {
            ases: vec![
                AsRecord {
                    id: 1,
                    asn: 64512,
                    name: "Test Net".to_string(),
                    astype: "Transit".to_string(),
                    confirmation: "survey".to_string(),
                    analyzed: true,
                    targets_probed: 8,
                    traces: 5,
                    addresses: 2,
                    fingerprinted: 1,
                    flags: FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() },
                },
                AsRecord {
                    id: 2,
                    asn: 64513,
                    name: "Quiet Net".to_string(),
                    astype: "Stub".to_string(),
                    confirmation: "none".to_string(),
                    analyzed: false,
                    targets_probed: 8,
                    traces: 0,
                    addresses: 0,
                    fingerprinted: 0,
                    flags: FlagTotals::default(),
                },
            ],
            addrs: vec![
                AddrEntry {
                    addr: Ipv4Addr::new(10, 0, 0, 1),
                    asn: 64512,
                    fingerprint: Some("Cisco".to_string()),
                    fingerprint_source: Some("snmp".to_string()),
                    detections: vec![detection.clone(), weak],
                },
                AddrEntry {
                    addr: Ipv4Addr::new(10, 0, 0, 2),
                    asn: 64512,
                    fingerprint: None,
                    fingerprint_source: None,
                    // The same detection covers both addresses: the
                    // encoder must intern it, not duplicate it.
                    detections: vec![detection],
                },
            ],
            totals: RunTotals {
                ases: 2,
                analyzed: 1,
                sr_deployed: 1,
                addresses: 2,
                fingerprinted: 1,
                raw_traces: 40,
                intra_as_traces: 5,
                vantage_points: 4,
                flags: FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() },
            },
        }
    }

    #[test]
    fn payload_round_trips() {
        let snapshot = sample();
        let bytes = encode_payload(&snapshot);
        let decoded = decode_payload(&bytes).expect("decode");
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_payload(&sample()), encode_payload(&sample()));
    }

    #[test]
    fn shared_detections_are_interned_once() {
        let snapshot = sample();
        let bytes = encode_payload(&snapshot);
        // The chain string appears once in the string table; a naive
        // per-address encoding would carry it twice.
        let needle = b"trigger_hop=2 run_len=3";
        let hits = bytes.windows(needle.len()).filter(|w| *w == needle.as_slice()).count();
        assert_eq!(hits, 1, "provenance chain must be interned");
    }

    #[test]
    fn totals_derive_from_the_rows() {
        let snapshot = sample();
        let totals = RunTotals::from_rows(&snapshot.ases, &snapshot.addrs, 40, 4);
        assert_eq!(totals, snapshot.totals);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = RunSnapshot::default();
        assert_eq!(decode_payload(&encode_payload(&empty)).expect("decode"), empty);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_payload(&sample());
        bytes.push(0);
        assert!(matches!(decode_payload(&bytes), Err(LedgerError::Malformed(_))));
    }
}
