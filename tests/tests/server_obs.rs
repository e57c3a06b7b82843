//! End-to-end tests of the query-level observability surface (`uo_server`):
//! EXPLAIN ANALYZE over HTTP (`?profile=1` / `X-UO-Profile: 1`) reporting
//! per-operator wall time plus estimated-vs-actual cardinality on *both*
//! engines, unique `X-UO-Request-Id` values under concurrency, plan-cache
//! cardinality feedback at `/stats/plans` that refreshes across commits,
//! byte-stable profiles modulo timing fields, the `/metrics` v6 latency
//! histograms and resource/health blocks, and the bounded slow-query log
//! at `/stats/slow` enriched with the snapshot epoch and plan-cache
//! outcome.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use uo_json::Json;
use uo_server::{EngineChoice, ServerConfig};
use uo_store::{Snapshot, StoreWriter};

fn base_store() -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    let mut doc = String::new();
    for i in 0..100 {
        doc.push_str(&format!("<http://p{i}> <http://sameAs> <http://ext{i}> .\n"));
        if i % 2 == 0 {
            doc.push_str(&format!("<http://p{i}> <http://name> \"n{i}\" .\n"));
        } else {
            doc.push_str(&format!("<http://p{i}> <http://label> \"l{i}\" .\n"));
        }
        if i < 6 {
            doc.push_str(&format!("<http://p{i}> <http://link> <http://HUB> .\n"));
        }
    }
    st.load_ntriples(&doc).unwrap();
    st.commit()
}

const Q_UO: &str = "SELECT ?x ?n ?s WHERE {
    ?x <http://link> <http://HUB> .
    { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
    OPTIONAL { ?x <http://sameAs> ?s }
}";
const Q_BGP: &str = "SELECT ?x WHERE { ?x <http://link> <http://HUB> . }";

fn start(cfg: ServerConfig) -> (Arc<Snapshot>, uo_server::ServerHandle) {
    let snap = base_store();
    let handle = uo_server::start(Arc::clone(&snap), cfg, 0).expect("server start");
    (snap, handle)
}

/// Sends raw bytes, reads to EOF, returns (status, headers, body). Header
/// names are lowercased.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
    let mut lines = head.lines();
    let status: u16 = lines.next().unwrap().split_whitespace().nth(1).unwrap().parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn percent_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn get(addr: SocketAddr, path_and_query: &str) -> (u16, Vec<(String, String)>, String) {
    let req = format!("GET {path_and_query} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    exchange(addr, req.as_bytes())
}

fn get_profiled(addr: SocketAddr, query: &str) -> (u16, Vec<(String, String)>, String) {
    get(addr, &format!("/sparql?query={}&profile=1", percent_encode(query)))
}

fn post_update(addr: SocketAddr, update: &str) -> u16 {
    let req = format!(
        "POST /update HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}",
        update.len(),
        update
    );
    exchange(addr, req.as_bytes()).0
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// Extracts the spliced `"profile"` object from a response body as raw
/// JSON text: the body is `<results-doc minus final brace>, "profile":
/// <object>}`, so the object runs from the marker to the last byte - 1.
fn profile_text(body: &str) -> &str {
    const MARKER: &str = ", \"profile\": ";
    let at = body.find(MARKER).expect("body carries a profile object");
    &body[at + MARKER.len()..body.len() - 1]
}

/// Walks an OpProfile JSON tree collecting `(op, rows, est_rows)`.
fn collect_ops(node: &Json, out: &mut Vec<(String, u64, Option<f64>)>) {
    let op = node.get("op").and_then(Json::as_str).expect("op name").to_string();
    let rows = node.get("rows").and_then(Json::as_f64).expect("actual rows") as u64;
    let est = node.get("est_rows").and_then(Json::as_f64);
    out.push((op, rows, est));
    if let Some(children) = node.get("children").and_then(Json::as_arr) {
        for c in children {
            collect_ops(c, out);
        }
    }
}

/// ISSUE acceptance: EXPLAIN ANALYZE over HTTP reports per-operator wall
/// time plus actual *and* estimated cardinality on both engines, without
/// disturbing the W3C results document it rides on.
#[test]
fn profile_reports_est_and_actual_cardinality_on_both_engines() {
    for (choice, name) in [(EngineChoice::Wco, "wco"), (EngineChoice::Binary, "binary")] {
        let (_snap, handle) = start(ServerConfig { engine: choice, ..ServerConfig::default() });
        let addr = handle.addr();

        let (status, headers, body) = get_profiled(addr, Q_UO);
        assert_eq!(status, 200, "[{name}] profiled query failed: {body}");
        assert!(
            header(&headers, "x-uo-request-id").is_some(),
            "[{name}] profiled response must carry X-UO-Request-Id"
        );

        // The body is still a well-formed results document...
        let doc = uo_json::parse(&body).expect("profiled body parses as JSON");
        let bindings =
            doc.get("results").and_then(|r| r.get("bindings")).and_then(Json::as_arr).unwrap();

        // ...with the profile as an extra top-level member.
        let profile = doc.get("profile").unwrap_or_else(|| panic!("[{name}] missing profile"));
        assert_eq!(profile.get("engine").and_then(Json::as_str), Some(name));
        assert_eq!(profile.get("query_type").and_then(Json::as_str), Some("UO"));
        assert_eq!(profile.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            profile.get("rows").and_then(Json::as_f64),
            Some(bindings.len() as f64),
            "[{name}] profile row count must match the served bindings"
        );
        for phase in ["parse_nanos", "optimize_nanos", "execute_nanos", "total_nanos"] {
            assert!(profile.get(phase).and_then(Json::as_f64).is_some(), "[{name}] {phase}");
        }

        // The operator tree: every node has wall time and actual rows, and
        // the BGP leaves carry the optimizer's estimate alongside.
        let plan = profile.get("plan").unwrap_or_else(|| panic!("[{name}] missing plan"));
        let mut ops = Vec::new();
        collect_ops(plan, &mut ops);
        assert!(ops.len() >= 2, "[{name}] expected a multi-operator tree, got {ops:?}");
        let with_est: Vec<_> = ops.iter().filter(|(_, _, est)| est.is_some()).collect();
        assert!(
            !with_est.is_empty(),
            "[{name}] no operator reports an estimated cardinality: {ops:?}"
        );
        for (op, _, est) in &with_est {
            let est = est.unwrap();
            assert!(est.is_finite() && est >= 0.0, "[{name}] {op} has bad estimate {est}");
        }

        // Opting in via the header (no query parameter) works too, and the
        // repeat is served from the plan cache.
        let req = format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: x\r\nX-UO-Profile: 1\r\n\r\n",
            percent_encode(Q_UO)
        );
        let (status, _, body) = exchange(addr, req.as_bytes());
        assert_eq!(status, 200);
        let doc = uo_json::parse(&body).expect("header-profiled body parses");
        let profile = doc.get("profile").expect("header opt-in attaches profile");
        assert_eq!(profile.get("cache").and_then(Json::as_str), Some("hit"));

        // Without opting in, no profile is attached.
        let req = format!("GET /sparql?query={} HTTP/1.1\r\nHost: x\r\n\r\n", percent_encode(Q_UO));
        let (_, _, body) = exchange(addr, req.as_bytes());
        assert!(!body.contains("\"profile\""), "[{name}] profile must be opt-in");

        handle.shutdown();
    }
}

/// ISSUE acceptance: request ids are unique across concurrent requests and
/// echoed in `X-UO-Request-Id`.
#[test]
fn request_ids_unique_across_concurrent_requests() {
    let (_snap, handle) = start(ServerConfig { threads: 8, ..ServerConfig::default() });
    let addr = handle.addr();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 5;
    let ids = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                for _ in 0..REQUESTS {
                    let (status, headers, _) =
                        get(addr, &format!("/sparql?query={}", percent_encode(Q_BGP)));
                    assert_eq!(status, 200);
                    let id = header(&headers, "x-uo-request-id")
                        .expect("200 must carry X-UO-Request-Id")
                        .to_string();
                    ids.lock().unwrap().push(id);
                }
            });
        }
    });

    let ids = ids.into_inner().unwrap();
    assert_eq!(ids.len(), CLIENTS * REQUESTS);
    let unique: HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "request ids must be unique: {ids:?}");
    for id in &ids {
        assert!(!id.is_empty() && id.contains('-'), "unexpected id shape: {id}");
    }
    handle.shutdown();
}

fn plan_entries(addr: SocketAddr) -> Vec<Json> {
    let (status, _, body) = get(addr, "/stats/plans");
    assert_eq!(status, 200);
    let doc = uo_json::parse(&body).expect("plan stats parse");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("uo-plan-stats/1"));
    doc.get("entries").and_then(Json::as_arr).expect("entries array").to_vec()
}

fn field(e: &Json, name: &str) -> f64 {
    e.get(name).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {name}"))
}

/// ISSUE acceptance: `/stats/plans` exposes per-entry hit counts, exec
/// time, and the actual-vs-estimated root cardinality ratio — and a commit
/// re-plans the query so the entry's stats describe the *current* epoch's
/// plan, with the ratio tracking the post-commit actual row count.
#[test]
fn plan_stats_ratios_update_across_commits() {
    let (snap, handle) =
        start(ServerConfig { threads: 4, writable: true, ..ServerConfig::default() });
    let addr = handle.addr();
    let epoch0 = snap.epoch();

    // One miss + one hit = two executions of the same cached plan.
    for _ in 0..2 {
        let (status, _, _) = get(addr, &format!("/sparql?query={}", percent_encode(Q_BGP)));
        assert_eq!(status, 200);
    }
    let entries = plan_entries(addr);
    assert_eq!(entries.len(), 1, "one cached plan expected");
    let e = &entries[0];
    assert!(e.get("query").and_then(Json::as_str).unwrap().contains("link"));
    assert_eq!(field(e, "epoch") as u64, epoch0);
    assert_eq!(field(e, "hits") as u64, 1);
    assert_eq!(field(e, "executions") as u64, 2);
    assert_eq!(field(e, "last_rows") as u64, 6, "6 hub members in the base store");
    assert!(field(e, "exec_nanos") >= 0.0);
    let est0 = field(e, "est_root");
    assert!(est0 > 0.0, "plan-time estimate must be recorded");
    let ratio0 = field(e, "actual_over_est");
    assert!((ratio0 - 6.0 / est0).abs() < 1e-9, "ratio = last_rows / est_root");

    // Commit: four more hub members → 10 actual rows after re-plan.
    for i in 90..94 {
        assert_eq!(
            post_update(
                addr,
                &format!("INSERT DATA {{ <http://p{i}> <http://link> <http://HUB> . }}")
            ),
            200
        );
    }
    let (status, _, _) = get(addr, &format!("/sparql?query={}", percent_encode(Q_BGP)));
    assert_eq!(status, 200);

    let entries = plan_entries(addr);
    assert_eq!(entries.len(), 1);
    let e = &entries[0];
    assert!(field(e, "epoch") as u64 > epoch0, "commit must re-tag the cached plan's epoch");
    assert_eq!(
        field(e, "executions") as u64,
        1,
        "re-plan after commit starts fresh stats for the new plan"
    );
    assert_eq!(field(e, "last_rows") as u64, 10);
    let est1 = field(e, "est_root");
    let ratio1 = field(e, "actual_over_est");
    assert!((ratio1 - 10.0 / est1).abs() < 1e-9, "ratio tracks the post-commit actuals");
    handle.shutdown();
}

/// ISSUE acceptance: profiling output is byte-stable modulo timing fields —
/// two cache-hit executions of the same query produce identical profiles
/// once `*_nanos` members are stripped.
#[test]
fn profile_byte_stable_modulo_timing() {
    let (_snap, handle) = start(ServerConfig::default());
    let addr = handle.addr();

    // First request warms the cache (cache: "miss"); the next two are both
    // hits and must agree on everything except wall-clock numbers.
    let (status, _, _) = get_profiled(addr, Q_UO);
    assert_eq!(status, 200);
    let (_, _, body_a) = get_profiled(addr, Q_UO);
    let (_, _, body_b) = get_profiled(addr, Q_UO);

    let a = uo_obs::strip_timing_fields(profile_text(&body_a));
    let b = uo_obs::strip_timing_fields(profile_text(&body_b));
    assert_eq!(a, b, "profiles must be byte-stable modulo timing fields");
    assert!(!a.contains("_nanos"), "strip_timing_fields left timing members: {a}");
    assert!(a.contains("\"est_rows\""), "cardinality columns must survive stripping: {a}");

    // The stripped profile still differs from the miss profile only in the
    // cache outcome — structure and cardinalities are identical.
    let (_, _, first) = {
        let (_snap2, h2) = start(ServerConfig::default());
        let r = get_profiled(h2.addr(), Q_UO);
        h2.shutdown();
        r
    };
    let miss = uo_obs::strip_timing_fields(profile_text(&first));
    assert_eq!(miss.replace("\"cache\": \"miss\"", "\"cache\": \"hit\""), a);
    handle.shutdown();
}

/// ISSUE acceptance: profile structure and actual cardinalities are
/// bit-identical across 1, 2, and 4 evaluation workers — only the timing
/// fields (and the reported worker count itself) may differ.
#[test]
fn profile_actuals_identical_across_worker_counts() {
    let mut stripped = Vec::new();
    for workers in [1usize, 2, 4] {
        let (_snap, handle) =
            start(ServerConfig { engine_threads: workers, ..ServerConfig::default() });
        let (status, _, body) = get_profiled(handle.addr(), Q_UO);
        assert_eq!(status, 200);
        let normalized = uo_obs::strip_timing_fields(profile_text(&body))
            .replace(&format!("\"threads\": {workers}"), "\"threads\": N");
        stripped.push((workers, normalized));
        handle.shutdown();
    }
    let (_, one) = &stripped[0];
    for (workers, profile) in &stripped[1..] {
        assert_eq!(
            profile, one,
            "{workers}-worker profile diverges from sequential in structure or cardinality"
        );
    }
}

/// ISSUE acceptance: `/metrics` v6 exposes log2-bucketed latency histograms
/// per endpoint and query type plus resource and health blocks, and a
/// `--slow-query-ms`-style threshold lands over-budget queries in the
/// bounded `/stats/slow` ring, each stamped with the snapshot epoch it
/// answered from and its plan-cache outcome.
#[test]
fn metrics_v6_latency_histograms_and_slow_log() {
    let (snap, handle) = start(ServerConfig {
        writable: true,
        slow_query_ms: Some(0), // every query is "slow": deterministic capture
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut ids = Vec::new();
    for q in [Q_BGP, Q_BGP, Q_UO] {
        let (status, headers, _) = get(addr, &format!("/sparql?query={}", percent_encode(q)));
        assert_eq!(status, 200);
        ids.push(header(&headers, "x-uo-request-id").unwrap().to_string());
    }
    assert_eq!(post_update(addr, "INSERT DATA { <http://s> <http://p> <http://o> . }"), 200);

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let m = uo_json::parse(&body).expect("metrics parse");
    assert_eq!(m.get("schema").and_then(Json::as_str), Some("uo-server-metrics/6"));
    let latency = m.get("latency").expect("latency block");
    let qh = latency.get("query").expect("query histogram");
    assert_eq!(qh.get("count").and_then(Json::as_f64), Some(3.0));
    let buckets = qh.get("buckets").and_then(Json::as_arr).unwrap();
    assert!(!buckets.is_empty(), "three recorded queries must fill a bucket");
    // Bucket lower bounds are exact powers of two (or zero).
    for b in buckets {
        let pair = b.as_arr().unwrap();
        let lo = pair[0].as_f64().unwrap() as u64;
        assert!(lo == 0 || lo.is_power_of_two(), "bucket lo {lo} not a power of two");
        assert!(pair[1].as_f64().unwrap() > 0.0, "emitted buckets are non-zero");
    }
    for q in ["p50_nanos", "p90_nanos", "p99_nanos"] {
        assert!(qh.get(q).and_then(Json::as_f64).unwrap() > 0.0, "{q} derivable");
    }
    assert_eq!(
        latency.get("update").and_then(|h| h.get("count")).and_then(Json::as_f64),
        Some(1.0)
    );
    let by_type = latency.get("by_type").expect("per-QueryType histograms");
    assert_eq!(by_type.get("BGP").and_then(|h| h.get("count")).and_then(Json::as_f64), Some(2.0));
    assert_eq!(by_type.get("UO").and_then(|h| h.get("count")).and_then(Json::as_f64), Some(1.0));

    // v6: resource gauges (store bytes, plan-cache bytes, trace state).
    let resources = m.get("resources").expect("v6 resources block");
    assert!(resources.get("store_mem_bytes").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(resources.get("plan_cache_bytes").and_then(Json::as_f64).unwrap() > 0.0);
    let trace = resources.get("trace").expect("trace sub-block");
    assert_eq!(trace.get("enabled").and_then(Json::as_bool), Some(false));
    assert_eq!(trace.get("events").and_then(Json::as_f64), Some(0.0));
    assert_eq!(trace.get("dropped").and_then(Json::as_f64), Some(0.0));

    // v6: background-task health (healthy here: fresh server, no errors).
    let health = m.get("health").expect("v6 health block");
    assert_eq!(health.get("degraded").and_then(Json::as_bool), Some(false));
    assert_eq!(health.get("maintenance_errors").and_then(Json::as_f64), Some(0.0));
    assert_eq!(health.get("consecutive_errors").and_then(Json::as_f64), Some(0.0));
    assert!(health.get("heartbeat_age_ms").and_then(Json::as_f64).is_some());
    assert_eq!(
        health.get("checkpoint_age_ms"),
        Some(&Json::Null),
        "non-durable servers report no checkpoint age"
    );

    // The slow log captured all three queries, with the same ids the
    // clients saw, newest entries retained by the bounded ring.
    let (status, _, body) = get(addr, "/stats/slow");
    assert_eq!(status, 200);
    let slow = uo_json::parse(&body).expect("slow log parse");
    assert_eq!(slow.get("schema").and_then(Json::as_str), Some("uo-slow-log/1"));
    assert_eq!(slow.get("total").and_then(Json::as_f64), Some(3.0));
    let entries = slow.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 3);
    let logged: Vec<&str> =
        entries.iter().map(|e| e.get("id").and_then(Json::as_str).unwrap()).collect();
    for id in &ids {
        assert!(logged.contains(&id.as_str()), "slow log missing request {id}");
    }
    for e in entries {
        assert!(e.get("query").and_then(Json::as_str).unwrap().contains("SELECT"));
        assert!(e.get("wall_nanos").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(e.get("unix_ms").and_then(Json::as_f64).unwrap() > 0.0);
        // Enrichment: the snapshot epoch the query answered from, and how
        // the plan cache treated it. All three queries ran pre-update at
        // the base epoch; the repeated Q_BGP was a hit, the rest misses.
        assert_eq!(e.get("epoch").and_then(Json::as_f64), Some(snap.epoch() as f64));
        assert!(matches!(e.get("cache").and_then(Json::as_str), Some("hit" | "miss")));
    }
    let outcomes: Vec<&str> =
        entries.iter().map(|e| e.get("cache").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(outcomes.iter().filter(|o| **o == "hit").count(), 1, "{outcomes:?}");
    handle.shutdown();
}
