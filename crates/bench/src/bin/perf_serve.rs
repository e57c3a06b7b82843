//! Closed-loop loopback throughput harness for the SPARQL HTTP endpoint.
//!
//! Starts `uo_server` in-process on an ephemeral port over a scaled LUBM
//! store, then drives it with N concurrent closed-loop clients (each sends
//! a request, waits for the response, repeats) cycling through the group-1
//! benchmark queries. Records QPS and latency percentiles into a
//! `uo-perf/1` artifact.
//!
//! The timings are **recorded, not gated** — the dev container is
//! single-core, so throughput numbers only mean something on real hosts.
//! What *is* enforced is determinism: every HTTP response body must be
//! byte-identical to the SPARQL-JSON serialization of a direct in-process
//! `run_query_with` of the same query, and the plan cache must report hits
//! (each query is requested many times).
//!
//! ```text
//! perf_serve [--threads N] [--clients C] [--requests R] [--out FILE.json]
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;
use uo_bench::{group1, lubm_group1, scale};
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_datagen::Dataset;
use uo_engine::WcoEngine;
use uo_json as json;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// One blocking HTTP exchange: POST the query, return (status, body).
fn post_query(addr: std::net::SocketAddr, query: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream.set_nodelay(true).ok();
    let head = format!(
        "POST /sparql HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/sparql-query\r\n\
         Accept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n",
        query.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(query.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:.60}"));
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: usize = flag(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(4);
    let clients: usize = flag(&args, "--clients").and_then(|v| v.parse().ok()).unwrap_or(8);
    let requests: usize = flag(&args, "--requests").and_then(|v| v.parse().ok()).unwrap_or(40);
    let out = flag(&args, "--out").unwrap_or("BENCH_SERVE.json").to_string();

    eprintln!("perf_serve: building LUBM store (UO_SCALE={})...", scale());
    let store = lubm_group1();
    let queries = group1(Dataset::Lubm);

    // Reference bodies: the server must return exactly these bytes. The
    // server runs WCO/full with one engine worker, so mirror that here.
    let reference_engine = WcoEngine::with_threads(1);
    let expected: Vec<(String, String)> = queries
        .iter()
        .map(|q| {
            let report = run_query_with(
                &store,
                &reference_engine,
                q.text,
                Strategy::Full,
                Parallelism::sequential(),
            )
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
            let projection = uo_sparql::parse(q.text).unwrap().projection();
            (q.id.to_string(), uo_sparql::results_json(&projection, &report.results))
        })
        .collect();

    let cfg = uo_server::ServerConfig {
        threads,
        max_inflight: clients.max(4) * 2,
        ..uo_server::ServerConfig::default()
    };
    let handle = uo_server::start(store, cfg, 0).expect("start server");
    let addr = handle.addr();
    eprintln!(
        "perf_serve: {} clients x {} requests against http://{addr} ({threads} workers)",
        clients, requests
    );

    let t0 = Instant::now();
    let per_client: Vec<(Vec<(usize, f64)>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    let mut latencies: Vec<(usize, f64)> = Vec::with_capacity(requests);
                    let mut mismatches = 0usize;
                    for r in 0..requests {
                        let qi = (c + r) % queries.len();
                        let t = Instant::now();
                        let (status, body) = post_query(addr, queries[qi].text);
                        latencies.push((qi, t.elapsed().as_secs_f64() * 1e3));
                        if status != 200 || body != expected[qi].1 {
                            mismatches += 1;
                            eprintln!(
                                "MISMATCH {}: status {status}, {} vs {} expected bytes",
                                queries[qi].id,
                                body.len(),
                                expected[qi].1.len()
                            );
                        }
                    }
                    (latencies, mismatches)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Plan-cache stats from the live endpoint before shutting it down.
    let (_, metrics_body) = {
        let mut stream = TcpStream::connect(addr).expect("connect for /metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .expect("send /metrics");
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (response, body)
    };
    let metrics = json::parse(&metrics_body).expect("parse /metrics JSON");
    let cache_hits = metrics
        .get("plan_cache")
        .and_then(|c| c.get("hits"))
        .and_then(json::Json::as_f64)
        .unwrap_or(0.0);
    let cache_misses = metrics
        .get("plan_cache")
        .and_then(|c| c.get("misses"))
        .and_then(json::Json::as_f64)
        .unwrap_or(0.0);
    handle.shutdown();

    let mismatches: usize = per_client.iter().map(|(_, m)| m).sum();
    let mut all_ms: Vec<f64> = Vec::new();
    let mut per_query_ms: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    for (latencies, _) in &per_client {
        for &(qi, ms) in latencies {
            all_ms.push(ms);
            per_query_ms[qi].push(ms);
        }
    }
    all_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = all_ms.len();
    let qps = total as f64 / (wall_ms / 1e3).max(1e-9);

    let mut entries = String::new();
    for (qi, q) in queries.iter().enumerate() {
        let ms = &mut per_query_ms[qi];
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        entries.push_str(&format!(
            "    {{\"query\": \"{}\", \"requests\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \
             \"p99_ms\": {}}}{}\n",
            json::escape(q.id),
            ms.len(),
            json::num(uo_bench::percentile(ms, 50.0)),
            json::num(uo_bench::percentile(ms, 90.0)),
            json::num(uo_bench::percentile(ms, 99.0)),
            if qi + 1 < queries.len() { "," } else { "" }
        ));
    }
    let artifact = format!(
        "{{\n  \"schema\": \"uo-perf/1\",\n  \"bench\": \"perf_serve\",\n  \"pr\": 3,\n  \
         \"threads\": {threads},\n  \"clients\": {clients},\n  \
         \"requests_per_client\": {requests},\n  \"host_threads\": {},\n  \
         \"uo_scale\": {},\n  \"wall_ms\": {},\n  \"qps\": {},\n  \
         \"latency_ms\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},\n  \
         \"plan_cache\": {{\"hits\": {}, \"misses\": {}}},\n  \
         \"mismatches\": {mismatches},\n  \"entries\": [\n{entries}  ]\n}}\n",
        uo_par::default_threads(),
        json::num(scale()),
        json::num(wall_ms),
        json::num(qps),
        json::num(uo_bench::percentile(&all_ms, 50.0)),
        json::num(uo_bench::percentile(&all_ms, 90.0)),
        json::num(uo_bench::percentile(&all_ms, 99.0)),
        json::num(all_ms.last().copied().unwrap_or(0.0)),
        json::num(cache_hits),
        json::num(cache_misses),
    );
    if let Err(e) = std::fs::write(&out, &artifact) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "perf_serve: {total} requests in {:.0} ms -> {:.1} QPS (p50 {:.2} ms, p99 {:.2} ms), \
         cache {cache_hits}/{} hits; artifact: {out}",
        wall_ms,
        qps,
        uo_bench::percentile(&all_ms, 50.0),
        uo_bench::percentile(&all_ms, 99.0),
        cache_hits + cache_misses,
    );

    // The determinism contract is the gate; timings are informational.
    if mismatches > 0 {
        eprintln!("perf_serve: FAILED — {mismatches} responses diverged from direct execution");
        std::process::exit(1);
    }
    if cache_hits <= 0.0 {
        eprintln!("perf_serve: FAILED — plan cache reported no hits over a repeating workload");
        std::process::exit(1);
    }
}
