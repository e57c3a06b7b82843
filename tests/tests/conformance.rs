//! Manifest-driven SPARQL conformance harness.
//!
//! The suite lives in `tests/conformance/`: a `manifest.ttl` in the W3C
//! test-suite shape (one `:QueryEvaluationTest` entry per case naming the
//! query, data and expected-results files) plus one directory per case
//! under `cases/`. Every case runs on **both** BGP engines, under **all
//! four** strategies, at 1 and 2 workers, and its SPARQL Results JSON
//! serialization must match `expect.srj` — exactly for `ORDER BY`/`ASK`
//! queries, as a multiset of bindings otherwise.
//!
//! Adding a case needs no Rust edits: drop `query.rq`, `data.nt` and
//! `expect.srj` into a new `cases/<name>/` directory — undeclared
//! directories are auto-discovered and treated like manifest entries.
//!
//! Maintenance knobs (environment variables):
//! - `CONFORMANCE_REPORT=<path>`: write a per-case `PASS`/`FAIL` report
//!   (the CI job uploads it as an artifact);
//! - `CONFORMANCE_BLESS=1`: regenerate every `expect.srj` (and the
//!   manifest) from the sequential base-strategy run — review the diff
//!   before committing, blessing records current behaviour.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use uo_core::{run_query_with, Parallelism, RunReport, Strategy};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_store::StoreWriter;

struct Case {
    name: String,
    query: PathBuf,
    data: PathBuf,
    expect: PathBuf,
}

fn suite_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("conformance")
}

/// Parses the keyword-TTL manifest: statements of the form
/// `:name a :QueryEvaluationTest ; :query "p" ; :data "p" ; :result "p" .`
fn parse_manifest(root: &Path, text: &str) -> Vec<Case> {
    let mut out = Vec::new();
    for statement in split_statements(text) {
        let Some(name) = statement.split_whitespace().next().and_then(|t| t.strip_prefix(':'))
        else {
            continue;
        };
        if !statement.contains(":QueryEvaluationTest") {
            continue;
        }
        let field = |key: &str| -> Option<PathBuf> {
            let at = statement.find(key)?;
            let rest = &statement[at + key.len()..];
            let open = rest.find('"')?;
            let close = rest[open + 1..].find('"')?;
            Some(root.join(&rest[open + 1..open + 1 + close]))
        };
        if let (Some(query), Some(data), Some(expect)) =
            (field(":query"), field(":data"), field(":result"))
        {
            out.push(Case { name: name.to_string(), query, data, expect });
        }
    }
    out
}

/// Splits manifest text into `.`-terminated statements, dropping `#`
/// comment lines.
fn split_statements(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.starts_with("@prefix") {
            continue;
        }
        cur.push_str(line);
        cur.push(' ');
        if line.ends_with('.') {
            out.push(std::mem::take(&mut cur));
        }
    }
    out
}

/// Manifest entries first, then auto-discovered `cases/<name>/` directories
/// that the manifest doesn't mention (conventional file names).
fn load_cases(root: &Path) -> Vec<Case> {
    let mut cases: BTreeMap<String, Case> = BTreeMap::new();
    if let Ok(text) = fs::read_to_string(root.join("manifest.ttl")) {
        for case in parse_manifest(root, &text) {
            cases.insert(case.name.clone(), case);
        }
    }
    if let Ok(entries) = fs::read_dir(root.join("cases")) {
        for entry in entries.flatten() {
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            cases.entry(name).or_insert_with(|| Case {
                name: entry.file_name().to_string_lossy().into_owned(),
                query: entry.path().join("query.rq"),
                data: entry.path().join("data.nt"),
                expect: entry.path().join("expect.srj"),
            });
        }
    }
    cases.into_values().collect()
}

/// The SPARQL Results JSON document for one run (boolean form for ASK).
fn render(projection: &[String], report: &RunReport) -> String {
    match report.ask {
        Some(b) => uo_sparql::ask_json(b),
        None => uo_sparql::results_json(projection, &report.results),
    }
}

/// Canonicalizes a results document for comparison: `ordered` documents
/// compare byte-for-byte; otherwise the `bindings` array is treated as a
/// multiset (objects sorted). Works on the serializer's compact output.
fn canonical(json: &str, ordered: bool) -> String {
    let json = json.trim();
    if ordered {
        return json.to_string();
    }
    let marker = "\"bindings\":[";
    let Some(start) = json.find(marker) else { return json.to_string() };
    let open = start + marker.len();
    let Some(end) = json.rfind(']') else { return json.to_string() };
    let mut objects = split_objects(&json[open..end]);
    objects.sort();
    format!("{}{}{}", &json[..open], objects.join(","), &json[end..])
}

/// Splits a compact JSON array body into its top-level objects.
fn split_objects(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0usize, false, false);
    let mut cur = String::new();
    for c in body.chars() {
        if in_str {
            cur.push(c);
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur.push(c);
            }
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth -= 1;
                cur.push(c);
                if depth == 0 {
                    out.push(std::mem::take(&mut cur));
                }
            }
            ',' if depth == 0 => {}
            c if c.is_whitespace() && depth == 0 => {}
            _ => cur.push(c),
        }
    }
    out
}

/// Runs one case on every engine × strategy × worker-count combination;
/// returns a diff description on the first mismatch.
fn run_case(case: &Case, bless: bool) -> Result<(), String> {
    let query_text = fs::read_to_string(&case.query)
        .map_err(|e| format!("cannot read {}: {e}", case.query.display()))?;
    let data = fs::read_to_string(&case.data)
        .map_err(|e| format!("cannot read {}: {e}", case.data.display()))?;
    let mut st = StoreWriter::new();
    st.load_ntriples(&data).map_err(|e| format!("bad data file: {e}"))?;
    let st = st.commit();
    let parsed = uo_sparql::parse(&query_text).map_err(|e| format!("parse error: {e}"))?;
    let ordered = !parsed.order_by.is_empty() || parsed.ask;
    let projection = parsed.projection();

    if bless {
        let report = run_query_with(
            &st,
            &WcoEngine::with_threads(1),
            &query_text,
            Strategy::Base,
            Parallelism::sequential(),
        )
        .map_err(|e| format!("bless run failed: {e}"))?;
        let doc = canonical(&render(&projection, &report), ordered);
        fs::write(&case.expect, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", case.expect.display()))?;
    }

    let expected = fs::read_to_string(&case.expect)
        .map_err(|e| format!("cannot read {}: {e}", case.expect.display()))?;
    let expected = canonical(&expected, ordered);

    for threads in [1usize, 2] {
        let par = Parallelism::new(threads);
        let engines: [(&str, Box<dyn BgpEngine>); 2] = [
            ("wco", Box::new(WcoEngine::with_threads(threads))),
            ("binary", Box::new(BinaryJoinEngine::with_threads(threads))),
        ];
        for (engine_name, engine) in &engines {
            for strategy in Strategy::ALL {
                let report = run_query_with(&st, engine.as_ref(), &query_text, strategy, par)
                    .map_err(|e| format!("execution error: {e}"))?;
                let actual = canonical(&render(&projection, &report), ordered);
                if actual != expected {
                    return Err(format!(
                        "engine {engine_name}, strategy {strategy}, {threads} worker(s)\n  \
                         expected: {expected}\n  actual:   {actual}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Regenerates `manifest.ttl` from the discovered cases (bless mode).
fn write_manifest(root: &Path, cases: &[Case]) {
    let mut out = String::from(
        "# SPARQL conformance suite manifest (W3C test-suite shape).\n\
         # One :QueryEvaluationTest entry per case; paths are relative to\n\
         # this file. Regenerate with CONFORMANCE_BLESS=1 (review the diff).\n\
         @prefix : <http://sparql-uo.dev/tests#> .\n\n",
    );
    for case in cases {
        let rel = |p: &Path| {
            p.strip_prefix(root).unwrap_or(p).to_string_lossy().into_owned().replace('\\', "/")
        };
        let _ = writeln!(
            out,
            ":{} a :QueryEvaluationTest ;\n    :query \"{}\" ;\n    :data \"{}\" ;\n    \
             :result \"{}\" .\n",
            case.name,
            rel(&case.query),
            rel(&case.data),
            rel(&case.expect),
        );
    }
    fs::write(root.join("manifest.ttl"), out).expect("manifest write");
}

#[test]
fn conformance_suite() {
    let root = suite_root();
    let cases = load_cases(&root);
    assert!(
        cases.len() >= 60,
        "expected at least 60 conformance cases, found {} in {}",
        cases.len(),
        root.display()
    );
    let bless = std::env::var("CONFORMANCE_BLESS").is_ok();
    if bless {
        write_manifest(&root, &cases);
    }

    let mut report = String::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for case in &cases {
        match run_case(case, bless) {
            Ok(()) => {
                let _ = writeln!(report, "PASS {}", case.name);
            }
            Err(diff) => {
                let _ = writeln!(report, "FAIL {}", case.name);
                failures.push((case.name.clone(), diff));
            }
        }
    }
    if let Ok(path) = std::env::var("CONFORMANCE_REPORT") {
        let summary = format!(
            "{report}\n{} passed, {} failed\n",
            cases.len() - failures.len(),
            failures.len()
        );
        fs::write(&path, summary).expect("report write");
    }
    if !failures.is_empty() {
        let mut msg =
            format!("{} of {} conformance cases failed:\n\n", failures.len(), cases.len());
        for (name, diff) in &failures {
            let _ = writeln!(msg, "--- {name} ---\n{diff}\n");
        }
        panic!("{msg}");
    }
}

#[test]
fn multiset_canonicalization_is_order_insensitive() {
    let a = r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://a"}},{"x":{"type":"literal","value":"b,}"}}]}}"#;
    let b = r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"b,}"}},{"x":{"type":"uri","value":"http://a"}}]}}"#;
    assert_eq!(canonical(a, false), canonical(b, false));
    assert_ne!(canonical(a, true), canonical(b, true));
}
