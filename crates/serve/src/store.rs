//! The read-only store the daemon serves: one [`RunSnapshot`] plus
//! the two lookup indices its routes need.
//!
//! The snapshot is the workspace's one run record. A campaign is
//! flattened into it once (`arest_experiments::ledger_io::snapshot`),
//! the ledger commits and loads the same rows, and the store owns
//! them as they are — a loaded run is moved in, not copied. The JSON
//! bodies are rendered from the rows by [`crate::render`].

use arest_ledger::{AddrEntry, AsRecord, RunSnapshot, RunTotals};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The complete read-only store: what [`crate::Server`] answers from.
#[derive(Debug, Clone)]
pub struct Store {
    snapshot: RunSnapshot,
    by_asn: HashMap<u32, usize>,
    by_addr: HashMap<Ipv4Addr, usize>,
}

impl Store {
    /// Builds a store from the rows of a snapshot, moving them in.
    #[must_use]
    pub fn new(ases: Vec<AsRecord>, addrs: Vec<AddrEntry>, totals: RunTotals) -> Store {
        Store::from(RunSnapshot { ases, addrs, totals })
    }

    /// The served snapshot, rows in stored order.
    #[must_use]
    pub fn snapshot(&self) -> &RunSnapshot {
        &self.snapshot
    }

    /// The campaign totals.
    #[must_use]
    pub fn totals(&self) -> &RunTotals {
        &self.snapshot.totals
    }

    /// Looks an AS up by ASN.
    #[must_use]
    pub fn by_asn(&self, asn: u32) -> Option<&AsRecord> {
        self.by_asn.get(&asn).map(|&row| &self.snapshot.ases[row])
    }

    /// Looks an address up.
    #[must_use]
    pub fn addr(&self, ip: Ipv4Addr) -> Option<&AddrEntry> {
        self.by_addr.get(&ip).map(|&row| &self.snapshot.addrs[row])
    }

    /// The operator name of `asn`, or `"unknown"` for an ASN no AS row
    /// carries.
    #[must_use]
    pub fn as_name(&self, asn: u32) -> &str {
        self.by_asn(asn).map_or("unknown", |record| &record.name)
    }
}

impl From<RunSnapshot> for Store {
    /// Indexes `snapshot`. When the same ASN appears twice (replicated
    /// catalogs), the first row wins ASN lookups; addresses are unique
    /// in every snapshot the pipeline writes, and on a duplicate the
    /// later row wins.
    fn from(snapshot: RunSnapshot) -> Store {
        let mut by_asn = HashMap::with_capacity(snapshot.ases.len());
        for (row, record) in snapshot.ases.iter().enumerate() {
            by_asn.entry(record.asn).or_insert(row);
        }
        let by_addr =
            snapshot.addrs.iter().enumerate().map(|(row, entry)| (entry.addr, row)).collect();
        Store { snapshot, by_asn, by_addr }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use arest_ledger::{DetectionRecord, FlagTotals, ProvenanceRecord};

    /// A two-AS, one-address store the unit tests share.
    pub(crate) fn tiny() -> Store {
        let flags = FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() };
        let as_record =
            |id: u8, asn: u32, name: &str, analyzed: bool, flags: FlagTotals| AsRecord {
                id,
                asn,
                name: name.to_string(),
                astype: if analyzed { "Stub" } else { "Transit" }.to_string(),
                confirmation: if analyzed { "none" } else { "survey" }.to_string(),
                analyzed,
                targets_probed: 8,
                traces: if analyzed { 5 } else { 0 },
                addresses: if analyzed { 3 } else { 0 },
                fingerprinted: u64::from(analyzed),
                flags,
            };
        let ases = vec![
            as_record(1, 64512, "Test Net", true, flags),
            as_record(2, 64513, "Quiet Net", false, FlagTotals::default()),
        ];
        let addr = AddrEntry {
            addr: Ipv4Addr::new(10, 0, 0, 1),
            asn: 64512,
            fingerprint: Some("Cisco".to_string()),
            fingerprint_source: Some("snmp".to_string()),
            detections: vec![DetectionRecord {
                asn: 64512,
                vp: "vp00".to_string(),
                dst: "10.0.0.9".to_string(),
                flag: "CVR".to_string(),
                stars: 5,
                start: 1,
                end: 3,
                label: 16001,
                suffix_based: false,
                provenance: ProvenanceRecord {
                    trigger_hop: 1,
                    run_len: 3,
                    distinct_addrs: 3,
                    lses_consulted: 3,
                    effective_depth: 1,
                    fingerprint: Some("Cisco".to_string()),
                    label_in_vendor_range: true,
                    suffix_matched: false,
                    chain: "trigger_hop=1 run_len=3".to_string(),
                },
            }],
        };
        let totals = RunTotals {
            ases: 2,
            analyzed: 1,
            sr_deployed: 1,
            addresses: 3,
            fingerprinted: 1,
            raw_traces: 40,
            intra_as_traces: 5,
            vantage_points: 4,
            flags,
        };
        Store::new(ases, vec![addr], totals)
    }

    #[test]
    fn lookups_hit_and_miss() {
        let store = tiny();
        assert_eq!(store.by_asn(64512).unwrap().name, "Test Net");
        assert!(store.by_asn(65000).is_none());
        assert!(store.addr(Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(store.addr(Ipv4Addr::new(10, 9, 9, 9)).is_none());
    }

    #[test]
    fn flag_counts_aggregate_and_classify() {
        let store = tiny();
        let record = store.by_asn(64512).unwrap();
        assert_eq!(record.flags.total(), 2);
        assert_eq!(record.flags.strong(), 1, "LSO is weak");
        assert!(record.sr_deployed());
        assert!(!store.by_asn(64513).unwrap().sr_deployed());
    }

    #[test]
    fn unknown_asns_get_a_placeholder_name() {
        let mut snapshot = tiny().snapshot().clone();
        snapshot.addrs[0].asn = 65_000;
        let store = Store::from(snapshot);
        let entry = store.addr(Ipv4Addr::new(10, 0, 0, 1)).unwrap();
        assert_eq!(store.as_name(entry.asn), "unknown");
        let body = crate::render::addr_json(&store, entry).render();
        assert!(body.contains("\"as_name\": \"unknown\""), "{body}");
    }

    #[test]
    fn duplicate_asns_resolve_to_the_first_entry() {
        let mut snapshot = tiny().snapshot().clone();
        let mut duplicate = snapshot.ases[1].clone();
        duplicate.asn = 64512;
        duplicate.name = "Replica".to_string();
        snapshot.ases.push(duplicate);
        let rebuilt = Store::new(snapshot.ases, Vec::new(), RunTotals::default());
        assert_eq!(rebuilt.by_asn(64512).unwrap().name, "Test Net");
        assert_eq!(rebuilt.as_name(64512), "Test Net");
    }
}
