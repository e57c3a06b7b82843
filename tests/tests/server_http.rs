//! End-to-end tests of the SPARQL HTTP endpoint (`uo_server`): concurrent
//! loopback clients receiving byte-identical results to direct in-process
//! execution, plan-cache hits on repeats, content negotiation, admission
//! control (503 on overload), cooperative deadlines, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_engine::WcoEngine;
use uo_json::Json;
use uo_rdf::Term;
use uo_server::{ServerConfig, ServerHandle};
use uo_store::{Snapshot, StoreWriter};

/// The shared dataset: 200 people with names/labels, a few linked to a hub
/// entity, some with sameAs edges — enough structure for OPTIONAL/UNION
/// queries with non-trivial answers.
fn store() -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    let mut doc = String::new();
    for i in 0..200 {
        doc.push_str(&format!("<http://p{i}> <http://sameAs> <http://ext{i}> .\n"));
        if i % 2 == 0 {
            doc.push_str(&format!("<http://p{i}> <http://name> \"n{i}\" .\n"));
        } else {
            doc.push_str(&format!("<http://p{i}> <http://label> \"l{i}\" .\n"));
        }
        if i < 8 {
            doc.push_str(&format!("<http://p{i}> <http://link> <http://POTUS> .\n"));
        }
    }
    st.load_ntriples(&doc).unwrap();
    st.commit()
}

const Q_UO: &str = "SELECT ?x ?n ?s WHERE {
    ?x <http://link> <http://POTUS> .
    { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
    OPTIONAL { ?x <http://sameAs> ?s }
}";
const Q_OPT: &str = "SELECT ?x ?s WHERE {
    ?x <http://link> <http://POTUS> . OPTIONAL { ?x <http://missing> ?s }
}";
const Q_UNION: &str = "SELECT ?x ?n WHERE {
    { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
}";
const Q_BGP: &str = "SELECT ?x WHERE { ?x <http://link> <http://POTUS> . }";

fn start(cfg: ServerConfig) -> (Arc<Snapshot>, ServerHandle) {
    let st = store();
    let handle = uo_server::start(Arc::clone(&st), cfg, 0).expect("server start");
    (st, handle)
}

/// The body the server must produce for `query`: direct in-process
/// execution serialized with the same serializer.
fn expected_json(st: &Snapshot, query: &str) -> String {
    let engine = WcoEngine::with_threads(1);
    let report =
        run_query_with(st, &engine, query, Strategy::Full, Parallelism::sequential()).unwrap();
    let projection = uo_sparql::parse(query).unwrap().projection();
    uo_sparql::results_json(&projection, &report.results)
}

fn expected_tsv(st: &Snapshot, query: &str) -> String {
    let engine = WcoEngine::with_threads(1);
    let report =
        run_query_with(st, &engine, query, Strategy::Full, Parallelism::sequential()).unwrap();
    let projection = uo_sparql::parse(query).unwrap().projection();
    uo_sparql::results_tsv(&projection, &report.results)
}

/// Sends raw bytes, reads to EOF, returns (status, headers, body).
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

fn get(addr: SocketAddr, path_and_query: &str, accept: Option<&str>) -> (u16, String) {
    let accept_line = accept.map(|a| format!("Accept: {a}\r\n")).unwrap_or_default();
    let req = format!("GET {path_and_query} HTTP/1.1\r\nHost: localhost\r\n{accept_line}\r\n");
    let (status, _, body) = exchange(addr, req.as_bytes());
    (status, body)
}

fn get_query(addr: SocketAddr, query: &str, accept: Option<&str>) -> (u16, String) {
    get(addr, &format!("/sparql?query={}", percent_encode(query)), accept)
}

fn metrics(addr: SocketAddr) -> Json {
    let (status, body) = get(addr, "/metrics", None);
    assert_eq!(status, 200);
    uo_json::parse(&body).expect("metrics is valid JSON")
}

fn metric(doc: &Json, group: &str, field: &str) -> f64 {
    doc.get(group)
        .and_then(|g| g.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {group}.{field}"))
}

/// ISSUE acceptance: ≥8 concurrent clients each receive byte-identical
/// SPARQL-JSON to direct in-process execution, with plan-cache hits on the
/// repeats, and graceful shutdown afterwards.
#[test]
fn concurrent_clients_receive_byte_identical_results() {
    let (st, handle) = start(ServerConfig { threads: 8, ..ServerConfig::default() });
    let addr = handle.addr();
    let queries = [Q_UO, Q_OPT, Q_UNION, Q_BGP];
    let expected: Vec<String> = queries.iter().map(|q| expected_json(&st, q)).collect();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 6;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let expected = &expected;
            s.spawn(move || {
                for r in 0..REQUESTS {
                    // Each client cycles through the mix from its own
                    // offset: every query is both a miss (someone's first)
                    // and a cached repeat over the run.
                    let qi = (c + r) % queries.len();
                    let (status, body) = get_query(addr, queries[qi], None);
                    assert_eq!(status, 200, "client {c} request {r}");
                    assert_eq!(
                        body, expected[qi],
                        "client {c} got a response not byte-identical to direct execution"
                    );
                }
            });
        }
    });

    let m = metrics(addr);
    assert_eq!(metric(&m, "queries", "ok") as usize, CLIENTS * REQUESTS);
    assert_eq!(metric(&m, "queries", "parse_errors") as usize, 0);
    let hits = metric(&m, "plan_cache", "hits") as usize;
    let misses = metric(&m, "plan_cache", "misses") as usize;
    assert_eq!(hits + misses, CLIENTS * REQUESTS);
    // Concurrent first requests may all miss the same key (get and insert
    // are separate critical sections), so only a client's *own* repeats
    // are guaranteed hits: with 6 requests over 4 queries, each client
    // revisits 2 queries it inserted itself.
    assert!(
        hits >= CLIENTS * (REQUESTS - queries.len()),
        "repeat queries must hit the plan cache (hits={hits}, misses={misses})"
    );
    // The health endpoint answers while the server is live.
    let (status, body) = get(addr, "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "healthy server reports ok: {body}");

    // Graceful shutdown: joins all threads, then the port stops answering.
    handle.shutdown();
    let gone = TcpStream::connect(addr)
        .map(|mut s| {
            // Connect may still succeed in the OS backlog; an EOF/err on
            // read proves nothing serves it.
            let mut buf = [0u8; 1];
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").ok();
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        })
        .unwrap_or(true);
    assert!(gone, "server still answering after graceful shutdown");
}

#[test]
fn content_negotiation_and_post_bodies() {
    let (st, handle) = start(ServerConfig::default());
    let addr = handle.addr();

    // TSV via Accept.
    let (status, body) = get_query(addr, Q_UO, Some("text/tab-separated-values"));
    assert_eq!(status, 200);
    assert_eq!(body, expected_tsv(&st, Q_UO));

    // Debug text for text/plain.
    let (status, body) = get_query(addr, Q_BGP, Some("text/plain"));
    assert_eq!(status, 200);
    assert!(body.starts_with("?x\n"), "debug table header, got {body:?}");

    // JSON for wildcard and for explicit sparql-results+json.
    for accept in [None, Some("*/*"), Some("application/sparql-results+json")] {
        let (status, body) = get_query(addr, Q_OPT, accept);
        assert_eq!(status, 200);
        assert_eq!(body, expected_json(&st, Q_OPT));
    }

    // Unsupported Accept → 406.
    let (status, _) = get_query(addr, Q_BGP, Some("application/xml"));
    assert_eq!(status, 406);

    // POST application/sparql-query.
    let req = format!(
        "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\n\r\n{}",
        Q_UO.len(),
        Q_UO
    );
    let (status, _, body) = exchange(addr, req.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, expected_json(&st, Q_UO));

    // POST form-encoded.
    let form = format!("query={}", percent_encode(Q_UNION));
    let req = format!(
        "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\n\
         Content-Length: {}\r\n\r\n{form}",
        form.len()
    );
    let (status, _, body) = exchange(addr, req.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, expected_json(&st, Q_UNION));

    // Unsupported POST content type → 415.
    let req = "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: text/csv\r\n\
               Content-Length: 1\r\n\r\nx";
    let (status, _, _) = exchange(addr, req.as_bytes());
    assert_eq!(status, 415);

    // Parse error → 400 and counted.
    let (status, body) = get_query(addr, "SELECT WHERE {", None);
    assert_eq!(status, 400);
    assert!(body.contains("parse error"));
    // Missing query parameter → 400.
    let (status, _) = get(addr, "/sparql", None);
    assert_eq!(status, 400);
    // Unknown path → 404; wrong method → 405.
    let (status, _) = get(addr, "/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = exchange(addr, b"DELETE /sparql HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);

    let m = metrics(addr);
    assert_eq!(metric(&m, "queries", "parse_errors") as usize, 1);
    handle.shutdown();
}

/// ISSUE acceptance: the overload path returns 503 without poisoning the
/// server. Deterministic construction: with one admission slot, a client
/// that has sent its request head but withholds its body *holds* the slot
/// (admission covers body read + execution), so a second query is rejected
/// for certain, and completing the first afterwards still succeeds.
#[test]
fn overload_returns_503_and_recovers() {
    let (st, handle) =
        start(ServerConfig { threads: 4, max_inflight: 1, ..ServerConfig::default() });
    let addr = handle.addr();

    let form = format!("query={}", percent_encode(Q_BGP));
    let head = format!(
        "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\n\
         Content-Length: {}\r\n\r\n",
        form.len()
    );
    let mut slow = TcpStream::connect(addr).expect("connect slow client");
    slow.write_all(head.as_bytes()).expect("send head");
    // Wait until the server has admitted the slow request (inflight gauge).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let inflight = metrics(addr).get("inflight").and_then(Json::as_f64).unwrap();
        if inflight >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "server never admitted the slow request");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The only slot is held → a concurrent query is rejected with 503.
    let req = format!("GET /sparql?query={} HTTP/1.1\r\nHost: x\r\n\r\n", percent_encode(Q_UNION));
    let (status, headers, body) = exchange(addr, req.as_bytes());
    assert_eq!(status, 503, "expected overload rejection, got {status}: {body}");
    assert!(
        headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
        "503 must carry Retry-After"
    );

    // The slow client completes its body and still gets its answer.
    slow.write_all(form.as_bytes()).expect("send body");
    let mut response = String::new();
    slow.read_to_string(&mut response).expect("slow client response");
    assert!(response.starts_with("HTTP/1.1 200"), "slow client got: {response:.80}");
    assert!(response.ends_with(&expected_json(&st, Q_BGP)));

    // Not poisoned: the very next query is served normally.
    let (status, body) = get_query(addr, Q_UO, None);
    assert_eq!(status, 200);
    assert_eq!(body, expected_json(&st, Q_UO));

    let m = metrics(addr);
    assert_eq!(metric(&m, "queries", "rejected") as usize, 1);
    assert_eq!(m.get("inflight").and_then(Json::as_f64), Some(0.0));
    handle.shutdown();
}

/// ISSUE acceptance: the deadline path returns a timeout error without
/// poisoning the server. `timeout=0` trips the cooperative cancellation at
/// the first BGP-evaluation boundary.
#[test]
fn deadline_timeout_returns_error_and_recovers() {
    let (st, handle) = start(ServerConfig::default());
    let addr = handle.addr();

    let (status, body) =
        get(addr, &format!("/sparql?query={}&timeout=0", percent_encode(Q_UO)), None);
    assert_eq!(status, 408, "expired deadline must reject: {body}");
    assert!(body.contains("deadline"));

    // Same query, default deadline: served, and from the plan cache (the
    // timed-out attempt already paid parse+optimize).
    let (status, body) = get_query(addr, Q_UO, None);
    assert_eq!(status, 200);
    assert_eq!(body, expected_json(&st, Q_UO));

    let m = metrics(addr);
    assert_eq!(metric(&m, "queries", "cancelled") as usize, 1);
    assert_eq!(metric(&m, "queries", "ok") as usize, 1);
    assert_eq!(metric(&m, "plan_cache", "hits") as usize, 1);
    handle.shutdown();
}

/// The body the server must produce for `query`, ASK form included.
fn expected_body(st: &Snapshot, query: &str) -> String {
    let engine = WcoEngine::with_threads(1);
    let report =
        run_query_with(st, &engine, query, Strategy::Full, Parallelism::sequential()).unwrap();
    match report.ask {
        Some(b) => uo_sparql::ask_json(b),
        None => {
            let projection = uo_sparql::parse(query).unwrap().projection();
            uo_sparql::results_json(&projection, &report.results)
        }
    }
}

/// ISSUE acceptance: aggregates, BIND, VALUES and ASK work over HTTP with
/// correct W3C Results JSON (boolean form for ASK) — and near-identical
/// queries that differ only in a GROUP BY / HAVING / VALUES / BIND clause
/// or the ASK form occupy *distinct* plan-cache slots. A false cache hit
/// would serve one variant the other's plan, so every variant's body must
/// match direct execution and the miss count must equal the variant count.
#[test]
fn new_constructs_over_http_and_plan_cache_keys() {
    let (st, handle) = start(ServerConfig::default());
    let addr = handle.addr();

    let variants = [
        // Pairwise near-identical: same WHERE body, one clause apart.
        "SELECT ?x WHERE { ?x <http://link> <http://POTUS> }",
        "SELECT ?x WHERE { ?x <http://link> <http://POTUS> } GROUP BY ?x",
        "ASK { ?x <http://link> <http://POTUS> }",
        "SELECT ?x (COUNT(*) AS ?c) WHERE { ?x <http://link> <http://POTUS> } GROUP BY ?x",
        "SELECT ?x (COUNT(*) AS ?c) WHERE { ?x <http://link> <http://POTUS> } \
         GROUP BY ?x HAVING(?c > 1)",
        "SELECT ?x ?y WHERE { ?x <http://link> ?y }",
        "SELECT ?x ?y WHERE { VALUES ?x { <http://p0> <http://p1> } ?x <http://link> ?y }",
        "SELECT ?x ?y WHERE { VALUES ?x { <http://p0> } ?x <http://link> ?y }",
        "SELECT ?x ?y WHERE { ?x <http://link> ?y BIND(STR(?x) AS ?s) }",
        // Aggregate over the whole store, no GROUP BY: one-row collapse.
        "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://link> <http://POTUS> }",
        "ASK { ?x <http://link> <http://nobody> }",
    ];

    // Two passes: every variant is one miss then one hit, and both passes
    // must serve the variant's *own* results.
    for pass in 0..2 {
        for q in &variants {
            let (status, body) = get_query(addr, q, None);
            assert_eq!(status, 200, "pass {pass}: {q}");
            assert_eq!(body, expected_body(&st, q), "pass {pass} served wrong body for: {q}");
        }
    }

    // ASK bodies use the W3C boolean form, in JSON and in the text formats.
    let (_, body) = get_query(addr, "ASK { ?x <http://link> <http://POTUS> }", None);
    assert_eq!(body, "{\"head\":{},\"boolean\":true}");
    let (_, body) = get_query(
        addr,
        "ASK { ?x <http://link> <http://nobody> }",
        Some("text/tab-separated-values"),
    );
    assert_eq!(body, "false\n");

    let m = metrics(addr);
    let misses = metric(&m, "plan_cache", "misses") as usize;
    let hits = metric(&m, "plan_cache", "hits") as usize;
    assert_eq!(
        misses,
        variants.len(),
        "each variant must occupy its own plan-cache slot (false hit suspected)"
    );
    assert!(hits >= variants.len(), "second pass must hit the cache (hits={hits})");
    handle.shutdown();
}

/// The debug format and TSV agree with the CLI-visible term syntax for
/// typed and language-tagged literals.
#[test]
fn tsv_covers_literal_annotations() {
    let mut st = StoreWriter::new();
    st.insert_terms(
        &Term::iri("http://s"),
        &Term::iri("http://p"),
        &Term::lang_literal("bonjour", "fr"),
    );
    st.insert_terms(
        &Term::iri("http://s"),
        &Term::iri("http://q"),
        &Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#integer"),
    );
    let handle = uo_server::start(st.commit(), ServerConfig::default(), 0).expect("server start");
    let q = "SELECT ?o WHERE { <http://s> <http://p> ?o }";
    let (status, body) = get_query(handle.addr(), q, Some("text/tab-separated-values"));
    assert_eq!(status, 200);
    assert_eq!(body, "?o\n\"bonjour\"@fr\n");
    handle.shutdown();
}

/// 200 sameAs edges x 100 names x 8 links: 160 000 rows of five variables
/// over ~500 distinct terms, a body of tens of megabytes.
const Q_BIG: &str = "SELECT ?x ?a ?y ?n ?z WHERE {
    ?x <http://sameAs> ?a . ?y <http://name> ?n . ?z <http://link> <http://POTUS> .
}";

/// ISSUE acceptance: a large reply is streamed under an exact
/// `Content-Length` (never `Transfer-Encoding`) and is byte-identical to the
/// library's serialization of the decoded rows — and with `?profile=1` the
/// same bytes up to the closing brace, then the profile member.
#[test]
fn large_reply_is_sized_exactly_and_matches_the_library_bytes() {
    let (st, handle) = start(ServerConfig::default());
    let addr = handle.addr();
    let expected = expected_json(&st, Q_BIG);
    assert!(expected.len() > 16 << 20, "the reply must dwarf any socket buffer");

    for profiled in [false, true] {
        let req = format!(
            "GET /sparql?query={}{} HTTP/1.1\r\nHost: x\r\n\r\n",
            percent_encode(Q_BIG),
            if profiled { "&profile=1" } else { "" }
        );
        let (status, headers, body) = exchange(addr, req.as_bytes());
        assert_eq!(status, 200);
        let header = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
        assert_eq!(header("content-length"), Some(body.len().to_string().as_str()));
        assert_eq!(header("transfer-encoding"), None, "sized, never chunked");
        if profiled {
            let (results, profile) = body.split_at(expected.len() - 1);
            assert!(results == &expected[..expected.len() - 1], "results bytes changed");
            assert!(profile.starts_with(", \"profile\": {\"engine\": \"wco\""), "{profile:.60}");
            assert!(profile.ends_with("}}"), "document still closes");
            let doc = uo_json::parse(&format!("{{\"profile\": {}", &profile[13..]))
                .expect("the profile member is valid JSON");
            let rows = doc.get("profile").and_then(|p| p.get("rows")).and_then(Json::as_f64);
            assert_eq!(rows, Some(160_000.0));
        } else {
            assert!(body == expected, "streamed body differs from results_json");
        }
    }
    handle.shutdown();
}

/// Requests the 160 k-row reply and reads only its head, leaving the body
/// (far more than socket buffers hold) unread on the returned stream.
fn read_only_the_head_of_the_big_reply(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET /sparql?query={} HTTP/1.1\r\nHost: x\r\n\r\n", percent_encode(Q_BIG));
    stream.write_all(req.as_bytes()).expect("send request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1, "connection closed in the head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let announced: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("the head announces the body length");
    assert!(announced > 16 << 20, "the body must not fit in socket buffers: {announced}");
    stream
}

/// With one admission slot a leaked one would 503 every later request:
/// waits for the slot to come back, then checks a request is served in full.
fn assert_slot_returns_and_next_request_is_served(st: &Snapshot, addr: SocketAddr, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while metrics(addr).get("inflight").and_then(Json::as_f64) != Some(0.0) {
        assert!(Instant::now() < deadline, "{why}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, body) = get_query(addr, Q_UO, None);
    assert_eq!(status, 200);
    assert_eq!(body, expected_json(st, Q_UO));
    assert_eq!(metric(&metrics(addr), "queries", "rejected") as usize, 0);
}

/// ISSUE robustness: a client that reads only the head of a >= 100 k-row
/// response and disconnects costs the server one connection — the write
/// error stops the stream at once, the admission slot comes back, and the
/// next request is served in full.
#[test]
fn disconnect_after_the_head_frees_the_admission_slot() {
    let (st, handle) = start(ServerConfig { max_inflight: 1, ..ServerConfig::default() });
    let addr = handle.addr();
    drop(read_only_the_head_of_the_big_reply(addr));
    assert_slot_returns_and_next_request_is_served(
        &st,
        addr,
        "the abandoned stream still holds its slot",
    );
    handle.shutdown();
}

/// The same client, but it keeps the socket open and simply stops reading:
/// no write error ever comes, so only the socket's write timeout (the
/// `read_timeout_ms` bound, both directions) gets the worker out of `write`.
#[test]
fn stalled_reader_frees_the_admission_slot() {
    let (st, handle) =
        start(ServerConfig { max_inflight: 1, read_timeout_ms: 300, ..ServerConfig::default() });
    let addr = handle.addr();
    let stalled = read_only_the_head_of_the_big_reply(addr);
    assert_slot_returns_and_next_request_is_served(
        &st,
        addr,
        "a worker is parked in write for a client that stopped reading",
    );
    drop(stalled);
    handle.shutdown();
}
