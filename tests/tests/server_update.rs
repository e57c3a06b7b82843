//! End-to-end tests of the MVCC update path on the HTTP endpoint:
//! `POST /update` commits while queries keep flowing, in-flight queries
//! answer from their admission-time snapshot (no torn reads), the
//! epoch-tagged plan cache invalidates on commit without a flush, and
//! `/metrics` exposes `updates_total` / `triples` / `snapshot_epoch`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_engine::WcoEngine;
use uo_json::Json;
use uo_server::ServerConfig;
use uo_store::{Snapshot, StoreWriter};

fn base_store() -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    let mut doc = String::new();
    for i in 0..50 {
        doc.push_str(&format!("<http://p{i}> <http://name> \"n{i}\" .\n"));
        if i < 5 {
            doc.push_str(&format!("<http://p{i}> <http://link> <http://HUB> .\n"));
        }
    }
    st.load_ntriples(&doc).unwrap();
    st.commit_with(Parallelism::sequential())
}

const Q: &str = "SELECT ?x ?n WHERE {
    ?x <http://link> <http://HUB> .
    OPTIONAL { ?x <http://name> ?n }
}";

fn writable() -> ServerConfig {
    ServerConfig { threads: 6, writable: true, ..ServerConfig::default() }
}

fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
    let status: u16 =
        head.lines().next().unwrap().split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
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

fn get_query(addr: SocketAddr, query: &str) -> (u16, String) {
    let req =
        format!("GET /sparql?query={} HTTP/1.1\r\nHost: localhost\r\n\r\n", percent_encode(query));
    exchange(addr, req.as_bytes())
}

fn post_update(addr: SocketAddr, update: &str) -> (u16, String) {
    let req = format!(
        "POST /update HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}",
        update.len(),
        update
    );
    exchange(addr, req.as_bytes())
}

fn metrics(addr: SocketAddr) -> Json {
    let (status, body) = exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert_eq!(status, 200);
    uo_json::parse(&body).expect("metrics is valid JSON")
}

fn top(doc: &Json, field: &str) -> f64 {
    doc.get(field).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {field}"))
}

/// The JSON body the endpoint must produce for `Q` against `snap`.
fn expected_json(snap: &Snapshot, query: &str) -> String {
    let engine = WcoEngine::with_threads(1);
    let report =
        run_query_with(snap, &engine, query, Strategy::Full, Parallelism::sequential()).unwrap();
    let projection = uo_sparql::parse(query).unwrap().projection();
    uo_sparql::results_json(&projection, &report.results)
}

/// ISSUE acceptance: a commit invalidates cached plans by epoch (no cache
/// flush), `/metrics` proves the epoch advance, and queries after the
/// commit see the new data.
#[test]
fn update_commits_bump_epoch_and_invalidate_plans() {
    let snap = base_store();
    let epoch0 = snap.epoch();
    let handle = uo_server::start(Arc::clone(&snap), writable(), 0).expect("server start");
    let addr = handle.addr();

    // Warm the plan cache at the initial epoch.
    let (status, before) = get_query(addr, Q);
    assert_eq!(status, 200);
    assert_eq!(before, expected_json(&snap, Q));
    let (status, again) = get_query(addr, Q);
    assert_eq!(status, 200);
    assert_eq!(again, before);
    let m = metrics(addr);
    assert_eq!(top(&m, "snapshot_epoch") as u64, epoch0);
    assert_eq!(m.get("plan_cache").and_then(|c| c.get("hits")).and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        m.get("updates").and_then(|u| u.get("updates_total")).and_then(Json::as_f64),
        Some(0.0)
    );

    // Commit: a new hub member appears (affects Q), an old name goes away.
    let (status, body) = post_update(
        addr,
        "INSERT DATA { <http://p49> <http://link> <http://HUB> . } ;
         DELETE WHERE { <http://p0> <http://name> ?n }",
    );
    assert_eq!(status, 200, "{body}");
    let doc = uo_json::parse(&body).unwrap();
    // A DELETE WHERE flushes buffered same-request ops first, so a mixed
    // request may commit more than one version; the reported epoch is the
    // final one and must have advanced.
    let epoch1 = top(&doc, "epoch") as u64;
    assert!(epoch1 > epoch0, "epoch {epoch1} must exceed {epoch0}");
    assert_eq!(top(&doc, "inserted") as u64, 1);
    assert_eq!(top(&doc, "deleted") as u64, 1);
    assert_eq!(top(&doc, "triples") as u64, snap.len() as u64);

    // The cached plan for Q is now stale: the next request re-plans at the
    // new epoch (stale miss), and its answer includes the new hub member
    // and drops the deleted name.
    let (status, after) = get_query(addr, Q);
    assert_eq!(status, 200);
    assert_ne!(after, before, "the commit must be visible to new queries");
    assert!(after.contains("p49"), "inserted triple visible: {after}");
    assert!(!after.contains("\"n0\""), "deleted triple gone: {after}");

    let m = metrics(addr);
    assert_eq!(top(&m, "snapshot_epoch") as u64, epoch1, "epoch visible in /metrics");
    assert_eq!(top(&m, "triples") as u64, snap.len() as u64);
    assert_eq!(
        m.get("updates").and_then(|u| u.get("updates_total")).and_then(Json::as_f64),
        Some(1.0)
    );
    let stale = m.get("plan_cache").and_then(|c| c.get("stale")).and_then(Json::as_f64).unwrap();
    assert!(stale >= 1.0, "commit must invalidate the cached plan by epoch, not flush");
    // The cache structure survived: the entry count did not drop to zero.
    let entries = m.get("plan_cache").and_then(|c| c.get("entries")).and_then(Json::as_f64);
    assert_eq!(entries, Some(1.0));

    // A repeat at the new epoch hits again.
    let (_, repeat) = get_query(addr, Q);
    assert_eq!(repeat, after);
    // The original snapshot handle this test still holds is untouched MVCC
    // proof at the API level: it answers exactly as before the commit.
    assert_eq!(expected_json(&snap, Q), before);
    handle.shutdown();
}

/// ISSUE acceptance: queries in flight while commits land return answers
/// consistent with *one* snapshot version — every response body must be
/// byte-identical to the canonical answer of some committed version, never
/// a mixture of two.
#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    let snap = base_store();
    let handle = uo_server::start(Arc::clone(&snap), writable(), 0).expect("server start");
    let addr = handle.addr();

    // Precompute the canonical answer for every version the store will go
    // through: version k has hub members p0..p5+k.
    const COMMITS: usize = 6;
    let mut valid: Vec<String> = Vec::new();
    {
        let mut w = StoreWriter::from_snapshot(Arc::clone(&snap));
        valid.push(expected_json(&w.snapshot(), Q));
        for k in 0..COMMITS {
            let id = 5 + k;
            w.insert_terms(
                &uo_rdf::Term::iri(format!("http://p{id}")),
                &uo_rdf::Term::iri("http://link"),
                &uo_rdf::Term::iri("http://HUB"),
            );
            w.commit_with(Parallelism::sequential());
            valid.push(expected_json(&w.snapshot(), Q));
        }
    }
    // All versions answer differently — otherwise the check is vacuous.
    for w in valid.windows(2) {
        assert_ne!(w[0], w[1]);
    }

    // Four readers hammer Q; the main thread lands commits in between.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let valid = &valid;
                let stop = &stop;
                s.spawn(move || {
                    let mut seen_versions = std::collections::BTreeSet::new();
                    let mut checked = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) || checked == 0 {
                        let (status, body) = get_query(addr, Q);
                        assert_eq!(status, 200, "reader {r}");
                        let version = valid
                            .iter()
                            .position(|v| *v == body)
                            .unwrap_or_else(|| panic!("reader {r} got a torn response: {body}"));
                        seen_versions.insert(version);
                        checked += 1;
                    }
                    (checked, seen_versions)
                })
            })
            .collect();

        for k in 0..COMMITS {
            let id = 5 + k;
            let (status, body) = post_update(
                addr,
                &format!("INSERT DATA {{ <http://p{id}> <http://link> <http://HUB> . }}"),
            );
            assert_eq!(status, 200, "{body}");
            // Give readers a beat on this single-core container.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut total = 0usize;
        for h in readers {
            let (checked, _) = h.join().expect("reader thread");
            total += checked;
        }
        assert!(total > 0);
    });

    // After the final commit every new query answers from the last version.
    let (_, final_body) = get_query(addr, Q);
    assert_eq!(final_body, valid[COMMITS]);
    let m = metrics(addr);
    assert_eq!(
        m.get("updates").and_then(|u| u.get("updates_total")).and_then(Json::as_f64),
        Some(COMMITS as f64)
    );
    assert_eq!(top(&m, "snapshot_epoch") as u64, snap.epoch() + COMMITS as u64);
    handle.shutdown();
}

/// ISSUE 5 acceptance: a durable endpoint journals every acknowledged
/// update (visible in the `/metrics` v3 `wal` block), and a restarted
/// server recovers them — replay-exactly, answering queries byte-identically
/// to the pre-restart endpoint.
#[test]
fn durable_server_journals_updates_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("uo_server_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let open = || {
        let engine = uo_engine::WcoEngine::sequential();
        uo_core::open_durable(
            &dir,
            uo_store::DurableOptions::default(),
            &engine,
            Parallelism::sequential(),
        )
        .expect("open durable store")
    };

    // First life: seed, serve, write.
    let seed_epoch;
    let answer_before;
    {
        let mut ds = open();
        assert!(ds.is_fresh());
        ds.seed(base_store()).unwrap();
        seed_epoch = ds.snapshot().epoch();
        // Large checkpoint_every so these commits stay wal-only: the
        // restart below must come entirely from log replay.
        let cfg = ServerConfig { checkpoint_every: 1_000_000, ..writable() };
        let handle = uo_server::start_durable(ds, cfg, 0).expect("server start");
        let addr = handle.addr();
        for i in 0..3 {
            let (status, body) = post_update(
                addr,
                &format!("INSERT DATA {{ <http://p{}> <http://link> <http://HUB> . }}", 40 + i),
            );
            assert_eq!(status, 200, "{body}");
        }
        let m = metrics(addr);
        let wal = m.get("wal").expect("metrics v3 has a wal block");
        assert!(!matches!(wal, Json::Null), "durable endpoint exposes wal gauges");
        let wal_field = |f: &str| wal.get(f).and_then(Json::as_f64).unwrap_or(-1.0);
        assert!(wal_field("segments") >= 1.0);
        assert!(wal_field("bytes") > 0.0, "journaled records occupy bytes");
        assert_eq!(wal_field("records"), 3.0, "one record per acknowledged update");
        assert_eq!(
            wal_field("synced_epoch") as u64,
            seed_epoch + 3,
            "fsync=always: every acknowledged epoch is already on disk"
        );
        assert_eq!(wal_field("last_checkpoint_epoch") as u64, seed_epoch);
        assert_eq!(wal_field("recovered_ops"), 0.0, "first life recovered nothing");
        assert_eq!(wal.get("fsync").and_then(Json::as_str), Some("always"));
        let (status, body) = get_query(addr, Q);
        assert_eq!(status, 200);
        answer_before = body;
        handle.shutdown();
    }

    // Second life: reopen the directory, serve again, observe the writes.
    {
        let ds = open();
        assert_eq!(ds.recovery().replayed_ops, 3, "log tail replayed");
        assert_eq!(ds.snapshot().epoch(), seed_epoch + 3);
        let handle = uo_server::start_durable(ds, writable(), 0).expect("server restart");
        let addr = handle.addr();
        let (status, body) = get_query(addr, Q);
        assert_eq!(status, 200);
        assert_eq!(body, answer_before, "recovered endpoint answers byte-identically");
        for i in 0..3 {
            assert!(body.contains(&format!("p{}", 40 + i)), "p{} missing: {body}", 40 + i);
        }
        let m = metrics(addr);
        let wal = m.get("wal").unwrap();
        assert_eq!(wal.get("recovered_ops").and_then(Json::as_f64), Some(3.0));
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The background checkpointer persists a snapshot once the epoch advances
/// `checkpoint_every` past the last checkpoint, after which a restart
/// replays nothing — and a compacted log stays short.
#[test]
fn background_checkpointer_bounds_recovery() {
    let dir = std::env::temp_dir().join(format!("uo_server_checkpoint_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let open = || {
        let engine = uo_engine::WcoEngine::sequential();
        uo_core::open_durable(
            &dir,
            uo_store::DurableOptions::default(),
            &engine,
            Parallelism::sequential(),
        )
        .expect("open durable store")
    };
    let seed_epoch;
    {
        let mut ds = open();
        ds.seed(base_store()).unwrap();
        seed_epoch = ds.snapshot().epoch();
        let cfg = ServerConfig { checkpoint_every: 1, checkpoint_interval_ms: 25, ..writable() };
        let handle = uo_server::start_durable(ds, cfg, 0).expect("server start");
        let addr = handle.addr();
        let (status, body) =
            post_update(addr, "INSERT DATA { <http://cp> <http://link> <http://HUB> . }");
        assert_eq!(status, 200, "{body}");
        // Poll until the checkpointer has caught up (generous deadline for
        // the single-core CI container).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let m = metrics(addr);
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
                "checkpointer never advanced past {cp} (want >= {})",
                seed_epoch + 1
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        handle.shutdown();
    }
    let ds = open();
    assert_eq!(ds.recovery().replayed_ops, 0, "checkpoint covers the whole log");
    assert_eq!(ds.recovery().checkpoint_epoch, seed_epoch + 1);
    assert_eq!(ds.snapshot().len(), base_store().len() + 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_endpoint_reports_null_wal() {
    let snap = base_store();
    let handle = uo_server::start(snap, writable(), 0).expect("server start");
    let m = metrics(handle.addr());
    assert_eq!(m.get("wal"), Some(&Json::Null), "no durability, no wal gauges");
    assert_eq!(
        m.get("updates").and_then(|u| u.get("journal_errors")).and_then(Json::as_f64),
        Some(0.0)
    );
    handle.shutdown();
}

#[test]
fn read_only_endpoint_rejects_updates() {
    let snap = base_store();
    let handle = uo_server::start(snap, ServerConfig::default(), 0).expect("server start");
    let (status, body) =
        post_update(handle.addr(), "INSERT DATA { <http://a> <http://p> <http://b> }");
    assert_eq!(status, 403, "{body}");
    let m = metrics(handle.addr());
    assert_eq!(m.get("writable").and_then(Json::as_bool), Some(false));
    handle.shutdown();
}

#[test]
fn update_error_paths() {
    let snap = base_store();
    let triples = snap.len();
    let handle = uo_server::start(snap, writable(), 0).expect("server start");
    let addr = handle.addr();
    // Parse error → 400 + error counter.
    let (status, body) = post_update(addr, "INSERT GARBAGE");
    assert_eq!(status, 400, "{body}");
    // Unsupported content type → 415.
    let bad = "POST /update HTTP/1.1\r\nHost: localhost\r\n\
               Content-Type: text/csv\r\nContent-Length: 2\r\n\r\nxx";
    let (status, _) = exchange(addr, bad.as_bytes());
    assert_eq!(status, 415);
    // GET /update → 405.
    let (status, _) = exchange(addr, b"GET /update HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert_eq!(status, 405);
    // Form-encoded update works.
    let form =
        format!("update={}", percent_encode("INSERT DATA { <http://x> <http://y> <http://z> }"));
    let req = format!(
        "POST /update HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
        form.len(),
        form
    );
    let (status, body) = exchange(addr, req.as_bytes());
    assert_eq!(status, 200, "{body}");
    let m = metrics(addr);
    assert_eq!(top(&m, "triples") as usize, triples + 1);
    assert_eq!(m.get("updates").and_then(|u| u.get("errors")).and_then(Json::as_f64), Some(1.0));
    handle.shutdown();
}
