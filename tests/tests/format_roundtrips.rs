//! Cross-format round trips over generated datasets: a store serialized to
//! N-Triples must re-parse (as N-Triples *and* as Turtle) and snapshot to an
//! identical store, and queries must return identical results on every copy.

use uo_core::{run_query, Strategy};
use uo_datagen::{generate_lubm, lubm_queries, LubmConfig};
use uo_engine::WcoEngine;
use uo_rdf::ntriples;
use uo_store::{Snapshot, StoreWriter};

fn serialize_store(st: &Snapshot) -> String {
    let mut doc = String::new();
    for t in st.iter() {
        let d = st.dictionary();
        doc.push_str(&format!(
            "{} {} {} .\n",
            d.decode(t.subject).unwrap(),
            d.decode(t.predicate).unwrap(),
            d.decode(t.object).unwrap()
        ));
    }
    doc
}

fn stores_equal(a: &Snapshot, b: &Snapshot) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Compare decoded triples (ids may differ between stores).
    let decode_all = |st: &Snapshot| {
        let mut v: Vec<String> = st
            .iter()
            .map(|t| {
                let d = st.dictionary();
                format!(
                    "{} {} {}",
                    d.decode(t.subject).unwrap(),
                    d.decode(t.predicate).unwrap(),
                    d.decode(t.object).unwrap()
                )
            })
            .collect();
        v.sort();
        v
    };
    decode_all(a) == decode_all(b)
}

#[test]
fn generated_dataset_round_trips_through_all_formats() {
    let original = generate_lubm(&LubmConfig::tiny());
    let doc = serialize_store(&original);

    // N-Triples round trip.
    let mut via_nt = StoreWriter::new();
    via_nt.load_ntriples(&doc).unwrap();
    let via_nt = via_nt.commit();
    assert!(stores_equal(&original, &via_nt), "N-Triples round trip changed the data");

    // The same document is valid Turtle.
    let mut via_ttl = StoreWriter::new();
    via_ttl.load_turtle(&doc).unwrap();
    let via_ttl = via_ttl.commit();
    assert!(stores_equal(&original, &via_ttl), "Turtle round trip changed the data");

    // Snapshot round trip.
    let mut buf = Vec::new();
    uo_store::write_snapshot(&original, &mut buf).unwrap();
    let via_snap = uo_store::read_snapshot(&mut buf.as_slice()).unwrap().snapshot();
    assert!(stores_equal(&original, &via_snap), "snapshot round trip changed the data");
}

#[test]
fn queries_agree_on_every_copy() {
    let original = generate_lubm(&LubmConfig::tiny());
    let doc = serialize_store(&original);
    let mut via_ttl = StoreWriter::new();
    via_ttl.load_turtle(&doc).unwrap();
    let via_ttl = via_ttl.commit();
    let mut buf = Vec::new();
    uo_store::write_snapshot(&original, &mut buf).unwrap();
    let via_snap = uo_store::read_snapshot(&mut buf.as_slice()).unwrap().snapshot();

    let engine = WcoEngine::new();
    for q in lubm_queries().into_iter().filter(|q| q.group == 1) {
        let a = run_query(&original, &engine, q.text, Strategy::Full).unwrap();
        let b = run_query(&via_ttl, &engine, q.text, Strategy::Full).unwrap();
        let c = run_query(&via_snap, &engine, q.text, Strategy::Full).unwrap();
        // Ids differ across stores; compare decoded, sorted projections.
        let decode = |r: &uo_core::RunReport| {
            let mut rows: Vec<String> = r.results.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(decode(&a), decode(&b), "{} diverged on the Turtle copy", q.id);
        assert_eq!(decode(&a), decode(&c), "{} diverged on the snapshot copy", q.id);
    }
}

#[test]
fn ntriples_serializer_agrees_with_store_serialization() {
    let st = generate_lubm(&LubmConfig {
        universities: 1,
        departments_per_univ: 1,
        undergrads_per_dept: 5,
        grads_per_dept: 2,
        professors_per_dept: 2,
        courses_per_dept: 2,
        seed: 1,
    });
    let triples: Vec<(uo_rdf::Term, uo_rdf::Term, uo_rdf::Term)> = st
        .iter()
        .map(|t| {
            let d = st.dictionary();
            (
                d.decode(t.subject).unwrap().clone(),
                d.decode(t.predicate).unwrap().clone(),
                d.decode(t.object).unwrap().clone(),
            )
        })
        .collect();
    let doc = ntriples::serialize(&triples);
    assert_eq!(ntriples::parse_document(&doc).unwrap(), triples);
}
