//! Quickstart: load a small RDF dataset, run a SPARQL-UO query under the
//! paper's `full` strategy, and print the results and the optimized plan.
//!
//! Run with: `cargo run -p uo_examples --bin quickstart`

use uo_core::{run_query, Strategy};
use uo_engine::WcoEngine;
use uo_store::StoreWriter;

fn main() {
    // A miniature version of Table 1's DBpedia excerpt.
    let data = r#"
<http://dbpedia.org/resource/George_W._Bush> <http://xmlns.com/foaf/0.1/name> "George Walker Bush"@en .
<http://dbpedia.org/resource/George_W._Bush> <http://www.w3.org/2000/01/rdf-schema#label> "George W. Bush"@en .
<http://dbpedia.org/resource/George_W._Bush> <http://dbpedia.org/ontology/wikiPageWikiLink> <http://dbpedia.org/resource/President_of_the_United_States> .
<http://dbpedia.org/resource/Bill_Clinton> <http://xmlns.com/foaf/0.1/name> "Bill Clinton"@en .
<http://dbpedia.org/resource/Bill_Clinton> <http://dbpedia.org/ontology/wikiPageWikiLink> <http://dbpedia.org/resource/President_of_the_United_States> .
<http://dbpedia.org/resource/Bill_Clinton> <http://dbpedia.org/property/birthDate> "1946-08-19"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://dbpedia.org/resource/Bill_Clinton> <http://www.w3.org/2002/07/owl#sameAs> <http://rdf.freebase.com/ns/Clinton_William_Jefferson_1946-> .
"#;

    // Every change goes through a writer; `commit` publishes the snapshot
    // that queries read.
    let mut writer = StoreWriter::new();
    writer.load_ntriples(data).expect("valid N-Triples");
    let store = writer.commit();
    println!(
        "Loaded {} triples ({} entities, {} predicates).\n",
        store.len(),
        store.stats().entities,
        store.stats().predicates
    );

    // Figure 1's combined query: names via UNION (diverse representation),
    // sameAs via OPTIONAL (incomplete data).
    let query = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX owl: <http://www.w3.org/2002/07/owl#>
        PREFIX dbo: <http://dbpedia.org/ontology/>
        PREFIX dbr: <http://dbpedia.org/resource/>
        SELECT ?x ?name ?same WHERE {
            ?x dbo:wikiPageWikiLink dbr:President_of_the_United_States .
            { ?x foaf:name ?name } UNION { ?x rdfs:label ?name }
            OPTIONAL { ?x owl:sameAs ?same }
        }"#;

    let engine = WcoEngine::new();
    let report = run_query(&store, &engine, query, Strategy::Full).expect("query parses");

    println!("Executed plan:\n{}", report.plan);
    println!("Results ({}):", report.results.len());
    for row in &report.results {
        let cells: Vec<String> = row
            .iter()
            .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_else(|| "—".into()))
            .collect();
        println!("  {}", cells.join(" | "));
    }
    println!(
        "\nexec: {:?}, transform: {:?}, join space: {}",
        report.exec_time, report.transform_time, report.join_space
    );
}
