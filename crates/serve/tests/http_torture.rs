//! End-to-end torture of the HTTP layer against a real in-process
//! server: split reads, keep-alive pipelines, oversized inputs, bad
//! methods, traversal attempts, and graceful-shutdown semantics.
//!
//! Each test binds its own server on an ephemeral loopback port and
//! runs it on an `arest_conc::thread::scope` thread, so the whole
//! suite parallelizes without port clashes.

use arest_ledger::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_serve::load::one_shot;
use arest_serve::{Server, ShutdownHandle, Store};
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A two-AS, one-address store over ledger rows.
fn fixture() -> Arc<Store> {
    let flags = FlagTotals { cvr: 1, ..FlagTotals::default() };
    let ases = vec![
        AsRecord {
            id: 1,
            asn: 64512,
            name: "Test Net".to_string(),
            astype: "Stub".to_string(),
            confirmation: "none".to_string(),
            analyzed: true,
            targets_probed: 8,
            traces: 5,
            addresses: 3,
            fingerprinted: 1,
            flags,
        },
        AsRecord {
            id: 2,
            asn: 64513,
            name: "Quiet Net".to_string(),
            astype: "Transit".to_string(),
            confirmation: "survey".to_string(),
            analyzed: false,
            targets_probed: 8,
            traces: 0,
            addresses: 0,
            fingerprinted: 0,
            flags: FlagTotals::default(),
        },
    ];
    let addrs = vec![AddrEntry {
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
    }];
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
    Arc::new(Store::from(RunSnapshot { ases, addrs, totals }))
}

/// Binds a fresh server, runs it on a scope thread, hands the test
/// body the address and a shutdown handle, then drains.
fn with_server(body: impl FnOnce(SocketAddr, &ShutdownHandle)) {
    let registry = arest_obs::Registry::new();
    let server = Server::bind("127.0.0.1:0", fixture(), &registry, Some(2)).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    arest_conc::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        body(addr, &handle);
        handle.shutdown();
        runner.join().expect("server thread");
    });
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    one_shot(addr, raw.as_bytes()).expect("response")
}

#[test]
fn all_five_routes_answer_200() {
    with_server(|addr, _| {
        for target in ["/api/summary", "/api/as/64512", "/api/addr/10.0.0.1", "/metrics", "/status"]
        {
            let (status, head, body) = get(addr, target);
            assert_eq!(status, 200, "{target}:\n{body}");
            assert!(head.contains("Content-Length:"), "{target} head:\n{head}");
            assert!(!body.is_empty(), "{target} has a body");
        }
    });
}

#[test]
fn a_request_arriving_one_byte_at_a_time_still_parses() {
    with_server(|addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let raw = b"GET /status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        for &byte in raw {
            stream.write_all(&[byte]).expect("write byte");
            stream.flush().expect("flush");
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "got:\n{response}");
        assert!(response.contains("\"service\": \"arest-serve\""));
    });
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    with_server(|addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = Vec::new();
        for round in 0..3 {
            stream
                .write_all(b"GET /api/as/64512 HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write request");
            // Read until this round's body is complete.
            let body = read_one_response(&mut stream, &mut buf);
            assert!(body.contains("\"asn\": 64512"), "round {round}:\n{body}");
        }
    });
}

/// Reads one full response from `stream` into `buf`, returning its
/// body and draining the consumed bytes.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    loop {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
        if let Some(end) = head_end {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length")
                .trim()
                .parse()
                .expect("numeric length");
            if buf.len() >= end + 4 + length {
                let body = String::from_utf8_lossy(&buf[end + 4..end + 4 + length]).into_owned();
                buf.drain(..end + 4 + length);
                return body;
            }
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed mid-response"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

#[test]
fn the_error_matrix_maps_statuses() {
    with_server(|addr, _| {
        // (request line or full head, expected status)
        let cases: Vec<(String, u16)> = vec![
            // Bad method token / unsupported methods.
            ("POST /status HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 405),
            ("DELETE /status HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 405),
            // Garbage request lines.
            ("nonsense\r\n\r\n".to_string(), 400),
            ("GET /status\r\n\r\n".to_string(), 400),
            ("GET /status HTTP/2.0\r\nHost: t\r\n\r\n".to_string(), 400),
            ("GET status HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 400),
            // Bodies are rejected: this is a read-only GET API.
            ("GET /status HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_string(), 400),
            ("GET /status HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_string(), 400),
            // Overlong target.
            (format!("GET /{} HTTP/1.1\r\nHost: t\r\n\r\n", "a".repeat(4000)), 414),
            // Oversized header block.
            (format!("GET /status HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(9000)), 431),
            // Route exists, parameter does not parse.
            ("GET /api/as/AS64512 HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            ("GET /api/as/99999999999 HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            ("GET /api/addr/not-an-ip HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            ("GET /api/addr/10.0.0.999 HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            // Traversal attempts die in routing, not the filesystem.
            ("GET /api/addr/../../etc/passwd HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            ("GET /./status HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 422),
            // Unknown shapes.
            ("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 404),
            ("GET /api/as HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 404),
            ("GET /status/ HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 404),
            // Present route, absent data.
            ("GET /api/as/65000 HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 404),
            ("GET /api/addr/10.9.9.9 HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), 404),
        ];
        for (raw, expected) in cases {
            let (status, head, body) = one_shot(addr, raw.as_bytes()).expect("response");
            let line = raw.lines().next().unwrap_or("").to_string();
            assert_eq!(status, expected, "{line}:\n{body}");
            if expected != 200 {
                assert!(body.contains("\"error\""), "{line} error body:\n{body}");
            }
            if expected == 405 {
                assert!(head.contains("Allow: GET"), "{line} head:\n{head}");
            }
        }
    });
}

#[test]
fn query_strings_are_ignored() {
    with_server(|addr, _| {
        let (status, _, body) = get(addr, "/api/as/64512?pretty=1&x=2");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"asn\": 64512"));
    });
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_connections() {
    with_server(|addr, handle| {
        // A request in flight when shutdown lands still completes…
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(b"GET /api/summary HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
        let mut buf = Vec::new();
        let body = read_one_response(&mut stream, &mut buf);
        assert!(body.contains("\"ases\": 2"));
        handle.shutdown();
        // …the idle keep-alive connection closes at the boundary…
        let mut rest = Vec::new();
        let closed = stream.read_to_end(&mut rest).map_or(true, |n| n == 0);
        assert!(closed, "idle connection closes after shutdown");
        // …and fresh connections are no longer served.
        if let Ok(mut late) = TcpStream::connect(addr) {
            late.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            let _ = late.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = Vec::new();
            let n = late.read_to_end(&mut out).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection must not be served");
        }
    });
}

#[test]
fn metrics_report_served_requests() {
    with_server(|addr, _| {
        let (status, _, _) = get(addr, "/api/summary");
        assert_eq!(status, 200);
        let (status, _, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("serve_http_requests_summary 1"),
            "per-endpoint counter:\n{metrics}"
        );
        assert!(metrics.contains("# TYPE serve_http_latency_us_summary histogram"));
        assert!(metrics.contains("serve_http_responses_200"));
    });
}
