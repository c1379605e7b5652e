//! The JSON body of every route, rendered straight from the ledger's
//! run-record rows.
//!
//! One function per body keeps one source of truth for the bytes
//! `docs/API.md` quotes. The store routes read the served [`Store`];
//! the ledger routes (`/api/runs`, `/api/runs/{serial}`,
//! `/api/diff/{a}/{b}`) read headers, loaded runs and deltas straight
//! from the ledger. `/api/summary` and `/api/runs/{serial}` share
//! [`totals_json`], so the two `totals` objects cannot drift apart.
//!
//! Digests render as 16-digit zero-padded hex **strings**, never JSON
//! numbers — a u64 digest routinely exceeds 2⁵³ and would silently
//! lose precision in any IEEE-754-backed consumer.

use crate::json::Json;
use crate::store::Store;
use arest_ledger::{
    AddrEntry, AsRecord, AuxRecord, DeltaEntry, DeltaKey, DetectionDelta, DetectionRecord,
    FlagTotals, RunMeta, RunTotals, StoredRun, HEADER_LEN,
};

/// The `detections` object: totals plus the by-flag breakdown,
/// strongest flag first (paper order).
fn detections_json(flags: &FlagTotals) -> Json {
    Json::obj(vec![
        ("total", Json::U64(flags.total())),
        ("strong", Json::U64(flags.strong())),
        (
            "by_flag",
            Json::obj(vec![
                ("CVR", Json::U64(flags.cvr)),
                ("CO", Json::U64(flags.co)),
                ("LSVR", Json::U64(flags.lsvr)),
                ("LVR", Json::U64(flags.lvr)),
                ("LSO", Json::U64(flags.lso)),
            ]),
        ),
    ])
}

/// The campaign totals object, as `/api/summary` and
/// `/api/runs/{serial}` serve it.
#[must_use]
pub fn totals_json(t: &RunTotals) -> Json {
    Json::obj(vec![
        ("ases", Json::U64(t.ases)),
        ("analyzed", Json::U64(t.analyzed)),
        ("sr_deployed", Json::U64(t.sr_deployed)),
        ("addresses", Json::U64(t.addresses)),
        ("fingerprinted_addresses", Json::U64(t.fingerprinted)),
        ("raw_traces", Json::U64(t.raw_traces)),
        ("intra_as_traces", Json::U64(t.intra_as_traces)),
        ("vantage_points", Json::U64(t.vantage_points)),
        ("detections", detections_json(&t.flags)),
    ])
}

/// The `GET /api/summary` body: the campaign totals plus a `per_as`
/// rollup covering **every** AS in the served catalog — the quiet ones
/// included, with zeroed counters — so the array's length always
/// matches the catalog and a consumer can tell "not deployed" from
/// "not measured".
#[must_use]
pub fn summary_json(store: &Store) -> Json {
    let per_as = store
        .snapshot()
        .ases
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("asn", Json::U64(u64::from(a.asn))),
                ("name", Json::str(&a.name)),
                ("analyzed", Json::Bool(a.analyzed)),
                ("sr_deployed", Json::Bool(a.sr_deployed())),
                ("detections", Json::U64(a.flags.total())),
                ("strong", Json::U64(a.flags.strong())),
            ])
        })
        .collect();
    let Json::Obj(mut fields) = totals_json(store.totals()) else {
        unreachable!("totals_json renders an object")
    };
    fields.push(("per_as".to_string(), Json::Arr(per_as)));
    Json::Obj(fields)
}

/// The `GET /api/as/{asn}` body.
#[must_use]
pub fn as_json(a: &AsRecord) -> Json {
    Json::obj(vec![
        ("id", Json::U64(u64::from(a.id))),
        ("asn", Json::U64(u64::from(a.asn))),
        ("name", Json::str(&a.name)),
        ("type", Json::str(&a.astype)),
        ("confirmation", Json::str(&a.confirmation)),
        ("analyzed", Json::Bool(a.analyzed)),
        ("sr_deployed", Json::Bool(a.sr_deployed())),
        ("targets_probed", Json::U64(a.targets_probed)),
        ("traces", Json::U64(a.traces)),
        ("addresses", Json::U64(a.addresses)),
        ("fingerprinted_addresses", Json::U64(a.fingerprinted)),
        ("detections", detections_json(&a.flags)),
    ])
}

/// One element of an address body's `detections` array, with its
/// provenance chain nested.
fn detection_json(d: &DetectionRecord) -> Json {
    let p = &d.provenance;
    Json::obj(vec![
        ("asn", Json::U64(u64::from(d.asn))),
        ("vp", Json::str(&d.vp)),
        ("dst", Json::str(&d.dst)),
        ("flag", Json::str(&d.flag)),
        ("stars", Json::U64(u64::from(d.stars))),
        ("hops", Json::obj(vec![("start", Json::U64(d.start)), ("end", Json::U64(d.end))])),
        ("label", Json::U64(u64::from(d.label))),
        ("suffix_based", Json::Bool(d.suffix_based)),
        (
            "provenance",
            Json::obj(vec![
                ("trigger_hop", Json::U64(p.trigger_hop)),
                ("run_len", Json::U64(p.run_len)),
                ("distinct_addrs", Json::U64(p.distinct_addrs)),
                ("lses_consulted", Json::U64(p.lses_consulted)),
                ("effective_depth", Json::U64(p.effective_depth)),
                ("fingerprint", Json::opt_str(p.fingerprint.as_deref())),
                ("label_in_vendor_range", Json::Bool(p.label_in_vendor_range)),
                ("suffix_matched", Json::Bool(p.suffix_matched)),
                ("chain", Json::str(&p.chain)),
            ]),
        ),
    ])
}

/// The `GET /api/addr/{ip}` body. `as_name` comes from the store's
/// ASN index (`"unknown"` for an ASN no AS row carries).
#[must_use]
pub fn addr_json(store: &Store, entry: &AddrEntry) -> Json {
    Json::obj(vec![
        ("addr", Json::str(entry.addr.to_string())),
        ("asn", Json::U64(u64::from(entry.asn))),
        ("as_name", Json::str(store.as_name(entry.asn))),
        ("fingerprint", Json::opt_str(entry.fingerprint.as_deref())),
        ("fingerprint_source", Json::opt_str(entry.fingerprint_source.as_deref())),
        ("detections", Json::Arr(entry.detections.iter().map(detection_json).collect())),
    ])
}

/// The `GET /status` body: static dataset facts plus the serving
/// configuration and the ledger provenance (`Json::Null` when the
/// server runs on a directly built dataset). Deliberately free of
/// clocks and live counters, so the documented example stays
/// byte-stable.
#[must_use]
pub fn status_json(store: &Store, workers: usize, ledger: Json) -> Json {
    let t = store.totals();
    let endpoints = [
        "/api/summary",
        "/api/as/{asn}",
        "/api/addr/{ip}",
        "/api/runs",
        "/api/runs/{serial}",
        "/api/diff/{a}/{b}",
        "/metrics",
        "/status",
    ];
    Json::obj(vec![
        ("service", Json::str("arest-serve")),
        ("status", Json::str("serving")),
        ("workers", Json::from(workers)),
        ("ledger", ledger),
        ("endpoints", Json::Arr(endpoints.iter().map(|s| Json::str(*s)).collect())),
        (
            "dataset",
            Json::obj(vec![
                ("ases", Json::U64(t.ases)),
                ("analyzed", Json::U64(t.analyzed)),
                ("addresses", Json::U64(t.addresses)),
                ("raw_traces", Json::U64(t.raw_traces)),
                ("vantage_points", Json::U64(t.vantage_points)),
            ]),
        ),
    ])
}

/// A u64 digest as the 16-hex-digit string the API serves.
#[must_use]
pub fn hex_digest(digest: u64) -> String {
    format!("{digest:016x}")
}

/// One run's header as JSON (an element of `GET /api/runs`).
#[must_use]
pub fn meta_json(meta: &RunMeta) -> Json {
    Json::obj(vec![
        ("serial", Json::U64(meta.serial)),
        ("committed_unix", Json::U64(meta.committed_unix)),
        ("config_digest", Json::str(hex_digest(meta.config_digest))),
        ("catalog_digest", Json::str(hex_digest(meta.catalog_digest))),
        ("payload_digest", Json::str(hex_digest(meta.payload_digest))),
        ("bytes", Json::U64(meta.payload_len + HEADER_LEN as u64)),
    ])
}

/// The `GET /api/runs` body: every committed run plus the latest
/// serial.
#[must_use]
pub fn runs_json(metas: &[RunMeta]) -> Json {
    Json::obj(vec![
        ("latest", metas.last().map_or(Json::Null, |m| Json::U64(m.serial))),
        ("runs", Json::Arr(metas.iter().map(meta_json).collect())),
    ])
}

/// The `GET /api/runs/{serial}` body: the verified header, the
/// committed campaign totals, and — when the serial carries a
/// carry-forward sidecar — the fresh/carried origin breakdown.
#[must_use]
pub fn run_json(run: &StoredRun, aux: Option<&AuxRecord>) -> Json {
    let t = &run.snapshot.totals;
    let origin = aux.map_or(Json::Null, |aux| {
        let carried = aux.carried.len() as u64;
        Json::obj(vec![
            ("base_serial", aux.base_serial.map_or(Json::Null, Json::U64)),
            ("fresh_ases", Json::U64(t.ases.saturating_sub(carried))),
            ("carried_ases", Json::U64(carried)),
        ])
    });
    Json::obj(vec![("meta", meta_json(&run.meta)), ("totals", totals_json(t)), ("origin", origin)])
}

fn key_json(key: &DeltaKey) -> Json {
    Json::obj(vec![
        ("asn", Json::U64(u64::from(key.asn))),
        ("addr", Json::str(key.addr.to_string())),
        ("vp", Json::str(&key.vp)),
        ("dst", Json::str(&key.dst)),
        ("hops", Json::obj(vec![("start", Json::U64(key.start)), ("end", Json::U64(key.end))])),
    ])
}

/// One announced or withdrawn detection of a delta.
fn entry_json(e: &DeltaEntry) -> Json {
    Json::obj(vec![
        ("key", key_json(&e.key)),
        ("flag", Json::str(&e.flag)),
        ("stars", Json::U64(u64::from(e.stars))),
        ("label", Json::U64(u64::from(e.label))),
    ])
}

/// The `GET /api/diff/{a}/{b}` body.
#[must_use]
pub fn delta_json(delta: &DetectionDelta) -> Json {
    let changed = delta.changed.iter().map(|e| {
        Json::obj(vec![
            ("key", key_json(&e.key)),
            ("before_flag", Json::str(&e.before_flag)),
            ("after_flag", Json::str(&e.after_flag)),
            ("before_label", Json::U64(u64::from(e.before_label))),
            ("after_label", Json::U64(u64::from(e.after_label))),
        ])
    });
    let per_as = delta.per_as.iter().map(|a| {
        Json::obj(vec![
            ("asn", Json::U64(u64::from(a.asn))),
            ("name", Json::str(&a.name)),
            ("announced", Json::U64(a.announced)),
            ("withdrawn", Json::U64(a.withdrawn)),
            ("changed", Json::U64(a.changed)),
            ("deployed_before", Json::Bool(a.deployed_before)),
            ("deployed_after", Json::Bool(a.deployed_after)),
        ])
    });
    Json::obj(vec![
        ("from", meta_json(&delta.from)),
        ("to", meta_json(&delta.to)),
        ("empty", Json::Bool(delta.is_empty())),
        (
            "counts",
            Json::obj(vec![
                ("announced", Json::from(delta.announced.len())),
                ("withdrawn", Json::from(delta.withdrawn.len())),
                ("changed", Json::from(delta.changed.len())),
            ]),
        ),
        ("announced", Json::Arr(delta.announced.iter().map(entry_json).collect())),
        ("withdrawn", Json::Arr(delta.withdrawn.iter().map(entry_json).collect())),
        ("changed", Json::Arr(changed.collect())),
        ("per_as", Json::Arr(per_as.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::tiny;

    #[test]
    fn as_json_carries_the_documented_keys_in_order() {
        let body = as_json(tiny().by_asn(64512).unwrap()).render();
        let keys: Vec<usize> = [
            "\"id\"",
            "\"asn\"",
            "\"name\"",
            "\"type\"",
            "\"confirmation\"",
            "\"analyzed\"",
            "\"sr_deployed\"",
            "\"targets_probed\"",
            "\"traces\"",
            "\"addresses\"",
            "\"fingerprinted_addresses\"",
            "\"detections\"",
        ]
        .iter()
        .map(|k| body.find(k).unwrap_or_else(|| panic!("missing key {k}")))
        .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys render in documented order");
    }

    #[test]
    fn addr_json_nests_the_full_provenance_chain() {
        let store = tiny();
        let body = addr_json(&store, store.addr("10.0.0.1".parse().unwrap()).unwrap()).render();
        for needle in [
            "\"as_name\": \"Test Net\"",
            "\"provenance\"",
            "\"trigger_hop\"",
            "\"chain\"",
            "\"stars\": 5",
            "\"flag\": \"CVR\"",
        ] {
            assert!(body.contains(needle), "missing {needle} in\n{body}");
        }
    }

    #[test]
    fn status_json_is_clock_free() {
        let body = status_json(&tiny(), 2, Json::Null).render();
        assert!(body.contains("\"workers\": 2"));
        assert!(body.contains("\"/api/addr/{ip}\""));
        assert!(body.contains("\"/api/diff/{a}/{b}\""));
        assert!(body.contains("\"ledger\": null"));
        assert!(!body.contains("uptime"), "status must stay byte-stable across runs");
    }

    #[test]
    fn summary_per_as_covers_quiet_ases_with_zeroed_counters() {
        let store = tiny();
        let body = summary_json(&store).render();
        assert!(body.contains("\"per_as\""));
        // Both catalog ASes appear — the quiet one too, with zeros —
        // so the rollup length matches the catalog.
        assert!(body.contains("\"Test Net\""));
        assert!(body.contains("\"Quiet Net\""));
        let hits = body.matches("\"sr_deployed\": false").count();
        assert_eq!(hits, 1, "the quiet AS rolls up as not deployed");
        assert_eq!(body.matches("\"asn\":").count(), store.snapshot().ases.len());
    }

    #[test]
    fn digests_render_as_padded_hex_strings() {
        assert_eq!(hex_digest(0xabc), "0000000000000abc");
        let meta = RunMeta {
            serial: 2,
            committed_unix: 1,
            config_digest: u64::MAX,
            catalog_digest: 0,
            payload_len: 40,
            payload_digest: 7,
        };
        let body = meta_json(&meta).render();
        assert!(body.contains("\"config_digest\": \"ffffffffffffffff\""));
        assert!(body.contains(&format!("\"bytes\": {}", 40 + HEADER_LEN)));
    }
}
