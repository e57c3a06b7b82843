//! Hand-computed SPARQL semantics checks (Definition 7), verifying the
//! evaluator against manually worked-out result sets — including the bag
//! (duplicate-preserving) corner cases and the paper's running examples.

use std::sync::Arc;
use uo_core::{run_query, Strategy};
use uo_engine::WcoEngine;
use uo_rdf::Term;
use uo_store::{Snapshot, StoreWriter};

fn store(doc: &str) -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    st.load_ntriples(doc).unwrap();
    st.commit()
}

fn run(st: &Snapshot, q: &str) -> Vec<Vec<Option<Term>>> {
    run_query(st, &WcoEngine::new(), q, Strategy::Base).unwrap().results
}

#[test]
fn table1_example_queries() {
    // The exact dataset of Table 1.
    let st = store(
        r#"
<http://dbpedia.org/resource/George_W._Bush> <http://xmlns.com/foaf/0.1/name> "George Walker Bush"@en .
<http://dbpedia.org/resource/George_W._Bush> <http://www.w3.org/2000/01/rdf-schema#label> "George W. Bush"@en .
<http://dbpedia.org/resource/George_W._Bush> <http://dbpedia.org/ontology/wikiPageWikiLink> <http://dbpedia.org/resource/President_of_the_United_States> .
<http://dbpedia.org/resource/Bill_Clinton> <http://xmlns.com/foaf/0.1/name> "Bill Clinton"@en .
<http://dbpedia.org/resource/Bill_Clinton> <http://dbpedia.org/ontology/wikiPageWikiLink> <http://dbpedia.org/resource/President_of_the_United_States> .
<http://dbpedia.org/resource/Bill_Clinton> <http://dbpedia.org/property/birthDate> "1946-08-19"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://dbpedia.org/resource/Bill_Clinton> <http://www.w3.org/2002/07/owl#sameAs> <http://rdf.freebase.com/ns/Clinton_William_Jefferson_1946-> .
"#,
    );
    // Figure 1(a): UNION collects names from both predicates.
    let union_q = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX dbo: <http://dbpedia.org/ontology/>
        PREFIX dbr: <http://dbpedia.org/resource/>
        SELECT ?x ?name WHERE {
            ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
            { ?x foaf:name ?name } UNION { ?x rdfs:label ?name }
        }"#;
    let rows = run(&st, union_q);
    assert_eq!(rows.len(), 3, "two foaf:name rows + one rdfs:label row");

    // Figure 1(b): OPTIONAL keeps presidents without sameAs.
    let opt_q = r#"
        PREFIX owl: <http://www.w3.org/2002/07/owl#>
        PREFIX dbo: <http://dbpedia.org/ontology/>
        PREFIX dbr: <http://dbpedia.org/resource/>
        SELECT ?x ?same WHERE {
            ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
            OPTIONAL { ?x owl:sameAs ?same }
        }"#;
    let rows = run(&st, opt_q);
    assert_eq!(rows.len(), 2);
    let unbound = rows.iter().filter(|r| r[1].is_none()).count();
    assert_eq!(unbound, 1, "George W. Bush has no sameAs");
}

#[test]
fn bag_semantics_preserves_duplicates_through_union() {
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b> .
<http://e/a> <http://p/q> <http://e/b> .
"#,
    );
    // Both branches produce the same mapping — bag union keeps both.
    let rows =
        run(&st, "SELECT ?x ?y WHERE { { ?x <http://p/p> ?y } UNION { ?x <http://p/p> ?y } }");
    assert_eq!(rows.len(), 2, "duplicate mappings must be preserved");
}

#[test]
fn join_multiplicity_is_product() {
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b1> .
<http://e/a> <http://p/p> <http://e/b2> .
<http://e/a> <http://p/q> <http://e/c1> .
<http://e/a> <http://p/q> <http://e/c2> .
<http://e/a> <http://p/q> <http://e/c3> .
"#,
    );
    let rows = run(&st, "SELECT WHERE { ?x <http://p/p> ?y . ?x <http://p/q> ?z . }");
    assert_eq!(rows.len(), 6, "2 × 3 join results");
}

#[test]
fn optional_is_left_associative() {
    // (A OPT B) OPT C — B and C both optional against A, independently.
    let st = store(
        r#"
<http://e/a1> <http://p/p> <http://e/x> .
<http://e/a2> <http://p/p> <http://e/x> .
<http://e/a1> <http://p/q> <http://e/y> .
<http://e/a2> <http://p/r> <http://e/z> .
"#,
    );
    let rows = run(
        &st,
        "SELECT ?a ?b ?c WHERE {
            ?a <http://p/p> ?x .
            OPTIONAL { ?a <http://p/q> ?b }
            OPTIONAL { ?a <http://p/r> ?c }
        }",
    );
    assert_eq!(rows.len(), 2);
    for row in &rows {
        let a = row[0].as_ref().unwrap().to_string();
        if a.contains("a1") {
            assert!(row[1].is_some() && row[2].is_none());
        } else {
            assert!(row[1].is_none() && row[2].is_some());
        }
    }
}

#[test]
fn nested_optional_binds_inner_only_when_outer_matches() {
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b> .
<http://e/b> <http://p/q> <http://e/c> .
<http://e/c> <http://p/r> <http://e/d> .
<http://e/a2> <http://p/p> <http://e/b2> .
"#,
    );
    let rows = run(
        &st,
        "SELECT ?x ?y ?z ?w WHERE {
            ?x <http://p/p> ?y .
            OPTIONAL { ?y <http://p/q> ?z OPTIONAL { ?z <http://p/r> ?w } }
        }",
    );
    assert_eq!(rows.len(), 2);
    for row in &rows {
        if row[2].is_none() {
            assert!(row[3].is_none(), "inner OPTIONAL cannot bind without outer");
        }
    }
}

#[test]
fn union_branches_may_bind_different_variables() {
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b> .
<http://e/c> <http://p/q> <http://e/d> .
"#,
    );
    let rows = run(
        &st,
        "SELECT ?x ?y ?u ?v WHERE {
            { ?x <http://p/p> ?y } UNION { ?u <http://p/q> ?v }
        }",
    );
    assert_eq!(rows.len(), 2);
    let with_xy = rows.iter().filter(|r| r[0].is_some() && r[2].is_none()).count();
    let with_uv = rows.iter().filter(|r| r[0].is_none() && r[2].is_some()).count();
    assert_eq!((with_xy, with_uv), (1, 1));
}

#[test]
fn compatibility_join_after_union_with_unbound() {
    // A variable bound in only one UNION branch joins compatibly afterwards.
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b> .
<http://e/a> <http://p/q> <http://e/c> .
<http://e/b> <http://p/r> <http://e/d> .
<http://e/c> <http://p/r> <http://e/e> .
"#,
    );
    let rows = run(
        &st,
        "SELECT ?x ?m ?r WHERE {
            { ?x <http://p/p> ?m } UNION { ?x <http://p/q> ?m }
            ?m <http://p/r> ?r .
        }",
    );
    assert_eq!(rows.len(), 2);
}

#[test]
fn optional_with_shared_variable_must_agree() {
    // The optional part shares ?y with the required part: incompatible
    // bindings are dropped (the mapping stays unextended), not combined.
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/y1> .
<http://e/a> <http://p/q> <http://e/y2> .
"#,
    );
    let rows = run(
        &st,
        "SELECT ?x ?y WHERE {
            ?x <http://p/p> ?y .
            OPTIONAL { ?x <http://p/q> ?y }
        }",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0][1].as_ref().unwrap(),
        &Term::iri("http://e/y1"),
        "?y keeps the required binding; the incompatible optional row is dropped"
    );
}

#[test]
fn empty_optional_right_keeps_all_left_rows() {
    let st = store("<http://e/a> <http://p/p> <http://e/b> .\n");
    let rows =
        run(&st, "SELECT WHERE { ?x <http://p/p> ?y OPTIONAL { ?y <http://p/missing> ?z } }");
    assert_eq!(rows.len(), 1);
}

#[test]
fn projection_order_and_distinct_columns() {
    let st = store("<http://e/a> <http://p/p> <http://e/b> .\n");
    let rows = run(&st, "SELECT ?y ?x WHERE { ?x <http://p/p> ?y . }");
    assert_eq!(rows[0][0].as_ref().unwrap(), &Term::iri("http://e/b"));
    assert_eq!(rows[0][1].as_ref().unwrap(), &Term::iri("http://e/a"));
}

#[test]
fn filter_bound_and_negation() {
    let st = store(
        r#"
<http://e/a> <http://p/p> <http://e/b> .
<http://e/b> <http://p/q> <http://e/c> .
<http://e/x> <http://p/p> <http://e/y> .
"#,
    );
    let with = run(
        &st,
        "SELECT WHERE { ?s <http://p/p> ?o OPTIONAL { ?o <http://p/q> ?t } FILTER(BOUND(?t)) }",
    );
    assert_eq!(with.len(), 1);
    let without = run(
        &st,
        "SELECT WHERE { ?s <http://p/p> ?o OPTIONAL { ?o <http://p/q> ?t } FILTER(!BOUND(?t)) }",
    );
    assert_eq!(without.len(), 1);
}
