//! End-to-end tests of the structured-tracing surface (`uo_obs::trace` +
//! `uo_server`): `GET /stats/trace` exports Chrome trace-event JSON whose
//! span tree is well-formed under concurrent load on *both* engines; a
//! durable endpoint's trace covers the whole write path (commit, delta
//! merge, WAL append + fsync, publish, plan-cache invalidation), the
//! background checkpointer, and startup recovery; `/metrics` serves the
//! same counters as JSON v6 and Prometheus text 0.0.4 under content
//! negotiation; `/healthz` reports checkpoint age and WAL backlog; and the
//! trace of a fixed workload is byte-stable modulo timing across
//! `engine_threads` 1/2/4.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use uo_json::Json;
use uo_obs::Tracer;
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

fn get_accept(addr: SocketAddr, path: &str, accept: &str) -> (u16, Vec<(String, String)>, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nAccept: {accept}\r\n\r\n");
    exchange(addr, req.as_bytes())
}

fn get_query(addr: SocketAddr, query: &str) -> (u16, String) {
    let (status, _, body) = get(addr, &format!("/sparql?query={}", percent_encode(query)));
    (status, body)
}

fn post_update(addr: SocketAddr, update: &str) -> (u16, String) {
    let req = format!(
        "POST /update HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}",
        update.len(),
        update
    );
    let (status, _, body) = exchange(addr, req.as_bytes());
    (status, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// One exported trace event, borrowed from the parsed document.
struct Ev<'a> {
    name: &'a str,
    cat: &'a str,
    ts: f64,
    dur: f64,
    span: u64,
    parent: u64,
    args: &'a Json,
}

fn fetch_trace(addr: SocketAddr) -> Json {
    let (status, headers, body) = get(addr, "/stats/trace");
    assert_eq!(status, 200, "trace export failed: {body}");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let doc = uo_json::parse(&body).expect("trace is valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("uo-trace/1"));
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    assert_eq!(
        doc.get("dropped").and_then(Json::as_f64),
        Some(0.0),
        "ring capacity must hold the whole workload for tree checks to be meaningful"
    );
    doc
}

fn events(doc: &Json) -> Vec<Ev<'_>> {
    let arr = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    arr.iter()
        .map(|e| {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "complete events only");
            assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
            let args = e.get("args").expect("event args");
            Ev {
                name: e.get("name").and_then(Json::as_str).expect("event name"),
                cat: e.get("cat").and_then(Json::as_str).expect("event cat"),
                ts: e.get("ts").and_then(Json::as_f64).expect("event ts"),
                dur: e.get("dur").and_then(Json::as_f64).expect("event dur"),
                span: args.get("span_id").and_then(Json::as_f64).expect("span_id") as u64,
                parent: args.get("parent_id").and_then(Json::as_f64).expect("parent_id") as u64,
                args,
            }
        })
        .collect()
}

/// The structural invariants every exported trace must satisfy: unique
/// nonzero span ids, every parent link resolvable within the export, and
/// child windows nested inside their parent's `[ts, ts+dur]` window. The
/// single allowed exception is the scrape's *own* connection: its
/// `read_head` child is already recorded while the enclosing connection
/// span is still open, so at most one dangling `read_head` parent may
/// appear.
fn assert_well_formed(evs: &[Ev], ctx: &str) {
    // Exported `ts`/`dur` round nanosecond timings to 3-decimal
    // microseconds, so nesting holds up to one rounding step per bound.
    const EPS: f64 = 0.002;
    let mut ids = HashSet::new();
    for e in evs {
        assert!(e.span > 0, "[{ctx}] {} has span id 0", e.name);
        assert!(ids.insert(e.span), "[{ctx}] duplicate span id {} ({})", e.span, e.name);
    }
    let by_id: HashMap<u64, &Ev> = evs.iter().map(|e| (e.span, e)).collect();
    let mut dangling = 0usize;
    for e in evs {
        if e.parent == 0 {
            continue;
        }
        match by_id.get(&e.parent) {
            Some(p) => {
                assert!(
                    e.ts >= p.ts - EPS,
                    "[{ctx}] {} (span {}) starts {:.3} before its parent {} at {:.3}",
                    e.name,
                    e.span,
                    e.ts,
                    p.name,
                    p.ts
                );
                assert!(
                    e.ts + e.dur <= p.ts + p.dur + EPS,
                    "[{ctx}] {} (span {}) ends {:.3} after its parent {} ends {:.3}",
                    e.name,
                    e.span,
                    e.ts + e.dur,
                    p.name,
                    p.ts + p.dur
                );
            }
            None => {
                assert_eq!(
                    (e.cat, e.name),
                    ("server", "read_head"),
                    "[{ctx}] span {} references missing parent {}; only the scrape \
                     connection's own head-read may do that",
                    e.span,
                    e.parent
                );
                dangling += 1;
            }
        }
    }
    assert!(dangling <= 1, "[{ctx}] {dangling} dangling read_head spans (one scrape in flight)");
}

fn has(evs: &[Ev], cat: &str, name: &str) -> bool {
    evs.iter().any(|e| e.cat == cat && e.name == name)
}

/// Every `name` event's parent must be a recorded `parent_name` event.
fn assert_parented(evs: &[Ev], name: &str, parent_name: &str, ctx: &str) {
    let by_id: HashMap<u64, &Ev> = evs.iter().map(|e| (e.span, e)).collect();
    let mut seen = 0;
    for e in evs.iter().filter(|e| e.name == name) {
        let p = by_id
            .get(&e.parent)
            .unwrap_or_else(|| panic!("[{ctx}] {name} span {} has no recorded parent", e.span));
        assert_eq!(p.name, parent_name, "[{ctx}] {name} must be a child of {parent_name}");
        seen += 1;
    }
    assert!(seen > 0, "[{ctx}] no {name} spans recorded");
}

/// ISSUE acceptance: under concurrent query + update load, the exported
/// trace is a well-formed forest on both engines — every span id unique,
/// every parent link valid, children nested in their parents — and each
/// request span carries the unique request id echoed in
/// `X-UO-Request-Id`.
#[test]
fn trace_spans_form_valid_trees_on_both_engines_under_concurrency() {
    for (choice, name) in [(EngineChoice::Wco, "wco"), (EngineChoice::Binary, "binary")] {
        let snap = base_store();
        let cfg = ServerConfig {
            engine: choice,
            threads: 6,
            writable: true,
            tracer: Tracer::enabled(262_144),
            ..ServerConfig::default()
        };
        let handle = uo_server::start(Arc::clone(&snap), cfg, 0).expect("server start");
        let addr = handle.addr();

        let joins: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..4 {
                        let q = if (t + i) % 2 == 0 { Q_UO } else { Q_BGP };
                        let (status, body) = get_query(addr, q);
                        assert_eq!(status, 200, "client {t} query {i}: {body}");
                    }
                })
            })
            .collect();
        let (status, body) =
            post_update(addr, "INSERT DATA { <http://pX> <http://link> <http://HUB> . }");
        assert_eq!(status, 200, "{body}");
        for j in joins {
            j.join().expect("client thread");
        }

        let doc = fetch_trace(addr);
        let evs = events(&doc);
        assert_well_formed(&evs, name);

        // The whole request pipeline plus the commit pipeline appear.
        for (cat, n) in [
            ("server", "connection"),
            ("server", "read_head"),
            ("server", "request"),
            ("server", "admission"),
            ("server", "write"),
            ("query", "parse"),
            ("query", "plan"),
            ("query", "execute"),
            ("query", "serialize"),
            ("commit", "commit"),
            ("commit", "delta_merge"),
            ("commit", "publish"),
            ("commit", "plan_cache_invalidate"),
        ] {
            assert!(has(&evs, cat, n), "[{name}] missing {cat}/{n} span");
        }
        assert_parented(&evs, "execute", "request", name);
        assert_parented(&evs, "delta_merge", "commit", name);
        assert_parented(&evs, "publish", "commit", name);

        // 16 queries + 1 update, each with a distinct request id.
        let rids: Vec<&str> = evs
            .iter()
            .filter(|e| e.name == "request")
            .map(|e| {
                e.args
                    .get("request_id")
                    .and_then(Json::as_str)
                    .expect("completed request spans carry request_id")
            })
            .collect();
        assert_eq!(rids.len(), 17, "[{name}] one request span per completed request");
        assert_eq!(
            rids.iter().collect::<HashSet<_>>().len(),
            rids.len(),
            "[{name}] request ids are unique"
        );
        handle.shutdown();
    }
}

/// Tracing is opt-in: a default (tracer-off) endpoint serves 404 at
/// `/stats/trace` and tells the operator how to enable it.
#[test]
fn trace_endpoint_is_404_when_tracing_is_off() {
    let handle = uo_server::start(base_store(), ServerConfig::default(), 0).expect("server start");
    let (status, _, body) = get(handle.addr(), "/stats/trace");
    assert_eq!(status, 404);
    assert!(body.contains("tracing disabled"), "{body}");
    handle.shutdown();
}

/// ISSUE acceptance, durable half: one tracer threaded from
/// `open_durable_traced` through the server captures recovery (open,
/// checkpoint load, WAL replay), the full commit pipeline (commit →
/// delta merge / WAL append → fsync / publish), and the background
/// checkpointer in a single coherent export. The same run checks the
/// `/metrics` content negotiation (JSON v6 vs Prometheus text 0.0.4
/// agreeing on the same counters) and the `/healthz` checkpoint-age and
/// WAL-backlog fields.
#[test]
fn durable_trace_covers_recovery_commit_wal_and_checkpointer() {
    let dir = std::env::temp_dir().join(format!("uo_server_trace_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let tracer = Tracer::enabled(262_144);
    let engine = uo_engine::WcoEngine::sequential();
    let mut ds = uo_core::open_durable_traced(
        &dir,
        uo_store::DurableOptions::default(),
        tracer.clone(),
        &engine,
        uo_core::Parallelism::sequential(),
    )
    .expect("open durable store");
    ds.seed(base_store()).unwrap();
    let seed_epoch = ds.snapshot().epoch();
    let cfg = ServerConfig {
        threads: 4,
        writable: true,
        checkpoint_every: 1,
        checkpoint_interval_ms: 25,
        tracer: tracer.clone(),
        ..ServerConfig::default()
    };
    let handle = uo_server::start_durable(ds, cfg, 0).expect("server start");
    let addr = handle.addr();

    for i in 0..3 {
        let (status, body) = post_update(
            addr,
            &format!("INSERT DATA {{ <http://p{}> <http://link> <http://HUB> . }}", 40 + i),
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = get_query(addr, Q_BGP);
    assert_eq!(status, 200, "{body}");

    // Wait for the background checkpointer so its span is in the export
    // (generous deadline for the single-core CI container).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let (status, _, m) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let m = uo_json::parse(&m).expect("metrics JSON");
        let cp = m
            .get("wal")
            .and_then(|w| w.get("last_checkpoint_epoch"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        if cp > seed_epoch {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "checkpointer never advanced past {cp} (want > {seed_epoch})"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // Content negotiation: default Accept stays JSON v6 ...
    let (status, headers, json_body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let m = uo_json::parse(&json_body).expect("metrics JSON");
    assert_eq!(m.get("schema").and_then(Json::as_str), Some("uo-server-metrics/6"));
    let triples = m.get("triples").and_then(Json::as_f64).expect("triples") as u64;
    let epoch = m.get("snapshot_epoch").and_then(Json::as_f64).expect("epoch") as u64;
    assert!(
        m.get("health").and_then(|h| h.get("checkpoint_age_ms")).and_then(Json::as_f64).is_some(),
        "durable v6 health block reports a numeric checkpoint age: {json_body}"
    );

    // ... while `Accept: text/plain` switches to Prometheus text 0.0.4
    // exposing the same counters.
    let (status, headers, prom) = get_accept(addr, "/metrics", "text/plain");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("text/plain; version=0.0.4; charset=utf-8"));
    assert!(prom.contains("# TYPE uo_triples gauge"), "{prom}");
    assert!(prom.contains(&format!("\nuo_triples {triples}\n")), "uo_triples != {triples}");
    assert!(prom.contains(&format!("\nuo_snapshot_epoch {epoch}\n")), "epoch != {epoch}");
    assert!(prom.contains("\nuo_queries_total{outcome=\"ok\"} 1\n"), "{prom}");
    assert!(prom.contains("# TYPE uo_query_duration_nanos histogram"), "{prom}");
    assert!(prom.contains("uo_query_duration_nanos_bucket{le=\"+Inf\"} 1"), "{prom}");
    assert!(prom.contains("# TYPE uo_wal_fsync_duration_nanos histogram"), "{prom}");
    assert!(prom.contains("uo_wal_fsync_duration_nanos_bucket{le=\"+Inf\"}"), "{prom}");
    assert!(prom.contains("uo_wal_fsync_duration_nanos_count"), "{prom}");
    assert!(prom.contains("\nuo_checkpoint_age_ms "), "{prom}");
    assert!(prom.contains("\nuo_health_degraded 0\n"), "{prom}");
    assert!(prom.contains("\nuo_trace_enabled 1\n"), "{prom}");

    // /healthz: ok, with checkpoint age and WAL backlog for orchestrators.
    let (status, headers, hz) = get(addr, "/healthz");
    assert_eq!(status, 200, "{hz}");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let hz = uo_json::parse(&hz).expect("healthz JSON");
    assert_eq!(hz.get("status").and_then(Json::as_str), Some("ok"));
    assert!(hz.get("checkpoint_age_ms").and_then(Json::as_f64).is_some());
    assert!(hz.get("wal_segments").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    assert_eq!(
        hz.get("maintenance").and_then(|x| x.get("expected")).and_then(Json::as_bool),
        Some(true)
    );

    let doc = fetch_trace(addr);
    let evs = events(&doc);
    assert_well_formed(&evs, "durable");
    for (cat, n) in [
        ("recovery", "open"),
        ("recovery", "load_checkpoint"),
        ("recovery", "wal_replay"),
        ("server", "connection"),
        ("server", "request"),
        ("commit", "commit"),
        ("commit", "delta_merge"),
        ("commit", "publish"),
        ("commit", "plan_cache_invalidate"),
        ("wal", "wal_append"),
        ("wal", "wal_fsync"),
        ("maintenance", "checkpoint"),
    ] {
        assert!(has(&evs, cat, n), "missing {cat}/{n} span in durable trace");
    }
    assert_parented(&evs, "wal_fsync", "wal_append", "durable");
    assert_parented(&evs, "wal_append", "commit", "durable");
    assert_parented(&evs, "load_checkpoint", "open", "durable");
    assert_parented(&evs, "wal_replay", "open", "durable");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Request ids carry a time-derived prefix (`"xxxxxxxx-00000n"`) that
/// differs per server instance; zero it so traces from separate runs of
/// the same workload compare byte-for-byte.
fn normalize_request_ids(s: &str) -> String {
    const KEY: &str = "\"request_id\": \"";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        if let Some(dash) = rest.find('-') {
            out.push_str("00000000");
            rest = &rest[dash..];
        }
    }
    out.push_str(rest);
    out
}

/// ISSUE acceptance: the trace of a fixed workload is identical modulo
/// timing (`uo_obs::strip_trace_timing`) whether queries run with 1, 2,
/// or 4 engine threads — engine-internal parallelism must not change
/// which spans exist, their ids, or their nesting.
#[test]
fn trace_is_bit_stable_modulo_timing_across_engine_thread_counts() {
    let mut exports = Vec::new();
    for engine_threads in [1usize, 2, 4] {
        let cfg = ServerConfig {
            // One connection worker: requests are handled strictly in
            // order, so span ids and shard (tid) assignment are
            // deterministic; only engine-internal parallelism varies.
            threads: 1,
            engine_threads,
            tracer: Tracer::enabled(65_536),
            ..ServerConfig::default()
        };
        let handle = uo_server::start(base_store(), cfg, 0).expect("server start");
        let addr = handle.addr();
        let (status, body) = get_query(addr, Q_UO);
        assert_eq!(status, 200, "{body}");
        let (status, _, trace) = get(addr, "/stats/trace");
        assert_eq!(status, 200);
        handle.shutdown();
        exports.push((engine_threads, normalize_request_ids(&uo_obs::strip_trace_timing(&trace))));
    }
    let (_, baseline) = &exports[0];
    assert!(baseline.contains("\"name\": \"execute\""), "trace covers the query: {baseline}");
    for (threads, export) in &exports[1..] {
        assert_eq!(
            export, baseline,
            "trace at engine_threads={threads} differs from engine_threads=1 modulo timing"
        );
    }
}
