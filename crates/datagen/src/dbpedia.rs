//! A deterministic DBpedia-style encyclopedic graph generator.
//!
//! Reproduces the structural features of DBpedia that the paper's Appendix
//! A.2 queries depend on:
//!
//! - **diversity of representation** (the motivation for `UNION`): names
//!   appear under `foaf:name` for some entities and `rdfs:label` for others;
//!   category membership appears as `purl:subject` for half the articles and
//!   legacy `skos:subject` for the other half; wiki-page topic links appear
//!   as `foaf:primaryTopic` (page→article) or `foaf:isPrimaryTopicOf`
//!   (article→page);
//! - **incompleteness** (the motivation for `OPTIONAL`): `owl:sameAs`,
//!   `foaf:homepage`, `dbo:thumbnail`, `dbo:populationTotal`, … exist only
//!   for subsets of entities;
//! - **skew**: `dbo:wikiPageWikiLink` targets follow a Zipf-like
//!   distribution, with the query landmarks (`dbr:Economic_system`,
//!   `dbr:President_of_the_United_States`, `dbr:Abdul_Rahim_Wardak`,
//!   `dbr:Category:Cell_biology`) among the heavy hitters;
//! - **typed sub-populations** for the LBR comparison queries: populated
//!   places with coordinates, soccer players with clubs, airports with IATA
//!   codes, companies with products.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uo_rdf::{Dictionary, Id, Term};
use uo_store::Snapshot;

/// Namespaces used by the generator and the benchmark queries (Listing 14).
pub mod ns {
    /// `rdf:`
    pub const RDF: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    /// `rdfs:`
    pub const RDFS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    /// `foaf:`
    pub const FOAF: &str = "http://xmlns.com/foaf/0.1/";
    /// `purl:` (Dublin Core terms)
    pub const PURL: &str = "http://purl.org/dc/terms/";
    /// `skos:`
    pub const SKOS: &str = "http://www.w3.org/2004/02/skos/core#";
    /// `nsprov:`
    pub const PROV: &str = "http://www.w3.org/ns/prov#";
    /// `owl:`
    pub const OWL: &str = "http://www.w3.org/2002/07/owl#";
    /// `dbo:`
    pub const DBO: &str = "http://dbpedia.org/ontology/";
    /// `dbr:`
    pub const DBR: &str = "http://dbpedia.org/resource/";
    /// `dbp:`
    pub const DBP: &str = "http://dbpedia.org/property/";
    /// `geo:`
    pub const GEO: &str = "http://www.w3.org/2003/01/geo/wgs84_pos#";
    /// `georss:`
    pub const GEORSS: &str = "http://www.georss.org/georss/";
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct DbpediaConfig {
    /// Number of regular articles (total triples ≈ 17 × articles).
    pub articles: usize,
    /// Number of categories.
    pub categories: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbpediaConfig {
    fn default() -> Self {
        DbpediaConfig { articles: 20_000, categories: 400, seed: 7 }
    }
}

impl DbpediaConfig {
    /// A small configuration for tests.
    pub fn tiny() -> Self {
        DbpediaConfig { articles: 600, categories: 40, seed: 7 }
    }
}

/// The landmark resources referenced by name in the benchmark queries.
pub const LANDMARKS: [&str; 6] = [
    "Economic_system",
    "President_of_the_United_States",
    "Abdul_Rahim_Wardak",
    "Air_masses",
    "Functional_neuroimaging",
    "Category:Cell_biology",
];

/// Generates a DBpedia-style dataset as a bulk-built snapshot at epoch 1.
pub fn generate_dbpedia(cfg: &DbpediaConfig) -> Arc<Snapshot> {
    let mut dict = Dictionary::new();
    let mut rows: Vec<[Id; 3]> = Vec::new();
    let mut emit = |s: &Term, p: &Term, o: &Term| {
        rows.push([dict.encode(s), dict.encode(p), dict.encode(o)]);
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let dbr = |name: &str| Term::iri(format!("{}{}", ns::DBR, name));
    let article = |i: usize| dbr(&format!("Entity{i}"));
    let category = |i: usize| dbr(&format!("Category:Topic{i}"));
    let page = |i: usize| Term::iri(format!("http://en.wikipedia.org/wiki/Entity{i}"));
    let p = |nsp: &str, l: &str| Term::iri(format!("{nsp}{l}"));

    let n = cfg.articles;
    let ncat = cfg.categories.max(2);

    // --- categories ---
    let cell_bio = dbr("Category:Cell_biology");
    for c in 0..ncat {
        let cat = category(c);
        emit(&cat, &p(ns::SKOS, "prefLabel"), &Term::lang_literal(format!("Topic {c}"), "en"));
        emit(&cat, &p(ns::RDFS, "label"), &Term::lang_literal(format!("Topic {c}"), "en"));
        // skos:related links between categories (sparse graph).
        if c > 0 {
            let other = category(rng.gen_range(0..c));
            emit(&cat, &p(ns::SKOS, "related"), &other);
        }
        // Categories are also owl:sameAs their "external" counterparts now
        // and then (feeds q1.4's sameAs-of-category patterns).
        if c % 3 == 0 {
            emit(
                &cat,
                &p(ns::OWL, "sameAs"),
                &Term::iri(format!("http://www.wikidata.org/entity/QC{c}")),
            );
        }
    }
    emit(&cell_bio, &p(ns::SKOS, "prefLabel"), &Term::lang_literal("Cell biology", "en"));
    emit(&cell_bio, &p(ns::RDFS, "label"), &Term::lang_literal("Cell biology", "en"));

    // --- landmark articles ---
    for lm in LANDMARKS.iter().filter(|l| !l.starts_with("Category:")) {
        let a = dbr(lm);
        emit(&a, &p(ns::RDFS, "label"), &Term::lang_literal(lm.replace('_', " "), "en"));
        emit(&a, &p(ns::FOAF, "name"), &Term::lang_literal(lm.replace('_', " "), "en"));
        emit(&a, &p(ns::PURL, "subject"), &category(0));
        let pg = Term::iri(format!("http://en.wikipedia.org/wiki/{lm}"));
        emit(&a, &p(ns::FOAF, "isPrimaryTopicOf"), &pg);
        emit(&pg, &p(ns::FOAF, "primaryTopic"), &a);
        emit(&a, &p(ns::PROV, "wasDerivedFrom"), &pg);
        emit(&a, &p(ns::OWL, "sameAs"), &Term::iri(format!("http://rdf.freebase.com/ns/{lm}")));
    }
    // Functional_neuroimaging gets a few extra subjects (q1.4 starts there).
    for c in 0..4.min(ncat) {
        emit(&dbr("Functional_neuroimaging"), &p(ns::PURL, "subject"), &category(c));
    }

    // --- regular articles ---
    for i in 0..n {
        let a = article(i);
        // Labels: everyone has rdfs:label; 60% also foaf:name (diversity).
        emit(&a, &p(ns::RDFS, "label"), &Term::lang_literal(format!("Entity {i}"), "en"));
        if i % 5 < 3 {
            emit(&a, &p(ns::FOAF, "name"), &Term::lang_literal(format!("Entity {i}"), "en"));
        }
        // Comments/abstracts for 50%.
        if i % 2 == 0 {
            emit(
                &a,
                &p(ns::RDFS, "comment"),
                &Term::lang_literal(format!("About entity {i}"), "en"),
            );
            emit(&a, &p(ns::DBO, "abstract"), &Term::lang_literal(format!("Abstract {i}"), "en"));
        }
        // Categories: purl:subject for even, legacy skos:subject for odd.
        let cat = category(i % ncat);
        if i % 2 == 0 {
            emit(&a, &p(ns::PURL, "subject"), &cat);
        } else {
            emit(&a, &p(ns::SKOS, "subject"), &cat);
        }
        // Wiki pages: primaryTopic vs isPrimaryTopicOf (diversity), plus
        // provenance.
        let pg = page(i);
        if i % 2 == 0 {
            emit(&a, &p(ns::FOAF, "isPrimaryTopicOf"), &pg);
        } else {
            emit(&pg, &p(ns::FOAF, "primaryTopic"), &a);
        }
        emit(&a, &p(ns::PROV, "wasDerivedFrom"), &pg);
        emit(&a, &p(ns::FOAF, "page"), &pg);
        // wikiPageWikiLink: 3 links; Zipf-ish — heavy hitters get the rest.
        for _ in 0..3 {
            let r: f64 = rng.gen();
            let target = if r < 0.18 {
                // A landmark (each landmark collects ~3% of all links).
                dbr(LANDMARKS[rng.gen_range(0..LANDMARKS.len())])
            } else if r < 0.5 {
                // Head of the popularity distribution.
                article(rng.gen_range(0..(n / 20).max(1)))
            } else {
                article(rng.gen_range(0..n))
            };
            emit(&a, &p(ns::DBO, "wikiPageWikiLink"), &target);
        }
        emit(
            &a,
            &p(ns::DBO, "wikiPageLength"),
            &Term::typed_literal(
                format!("{}", 500 + (i * 37) % 90_000),
                "http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
            ),
        );
        // owl:sameAs for 40%.
        if i % 5 < 2 {
            emit(&a, &p(ns::OWL, "sameAs"), &Term::iri(format!("http://rdf.freebase.com/ns/m{i}")));
        }
        // Redirects for 10%. A redirect article's wiki page has the
        // *target* as its primary topic (as in DBpedia proper), which is the
        // page-sharing structure q1.6's double primary-topic pattern needs.
        // Half the redirects point at a species article (i % 10 == 8), so
        // redirect targets reach the Cell_biology-linked population.
        if i % 10 == 9 {
            let target = if (i / 10) % 2 == 0 {
                // The species article of the same decade.
                article(((i / 10) * 10 + 8) % n)
            } else {
                article(rng.gen_range(0..n))
            };
            emit(&a, &p(ns::DBO, "wikiPageRedirects"), &target);
            emit(&page(i), &p(ns::FOAF, "primaryTopic"), &target);
            emit(&a, &p(ns::DBO, "wikiPageWikiLink"), &target);
        }
        // Homepages for ~45% (including the soccer players at i % 10 == 5,
        // whom q2.2 anchors on).
        if i % 4 == 0 || i % 5 == 0 {
            emit(&a, &p(ns::FOAF, "homepage"), &Term::iri(format!("http://example.org/site{i}")));
        }

        // Typed sub-populations.
        match i % 10 {
            // Persons (30%).
            0..=2 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Person"));
                if i % 3 == 0 {
                    emit(
                        &a,
                        &p(ns::DBO, "thumbnail"),
                        &Term::iri(format!("http://img.example.org/{i}.png")),
                    );
                }
            }
            // Populated places / settlements (20%).
            3 | 4 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "PopulatedPlace"));
                if i % 2 == 0 {
                    emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Settlement"));
                }
                let lat = -90.0 + (i as f64 * 0.77) % 180.0;
                let lon = -180.0 + (i as f64 * 1.31) % 360.0;
                emit(
                    &a,
                    &p(ns::GEO, "lat"),
                    &Term::typed_literal(
                        format!("{lat:.4}"),
                        "http://www.w3.org/2001/XMLSchema#float",
                    ),
                );
                emit(
                    &a,
                    &p(ns::GEO, "long"),
                    &Term::typed_literal(
                        format!("{lon:.4}"),
                        "http://www.w3.org/2001/XMLSchema#float",
                    ),
                );
                if i % 3 != 0 {
                    emit(
                        &a,
                        &p(ns::DBO, "populationTotal"),
                        &Term::typed_literal(
                            format!("{}", 1000 + i * 13),
                            "http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
                        ),
                    );
                }
                if i % 4 == 0 {
                    emit(
                        &a,
                        &p(ns::DBO, "thumbnail"),
                        &Term::iri(format!("http://img.example.org/{i}.png")),
                    );
                }
                if i % 5 == 0 {
                    emit(
                        &a,
                        &p(ns::FOAF, "depiction"),
                        &Term::iri(format!("http://img.example.org/d{i}.png")),
                    );
                }
            }
            // Soccer players (10%).
            5 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "SoccerPlayer"));
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Person"));
                emit(
                    &a,
                    &p(ns::DBP, "position"),
                    &Term::literal(["Goalkeeper", "Defender", "Midfielder", "Forward"][i % 4]),
                );
                let club = article((i + 1) % n);
                emit(&a, &p(ns::DBP, "clubs"), &club);
                emit(
                    &club,
                    &p(ns::DBO, "capacity"),
                    &Term::typed_literal(
                        format!("{}", 10_000 + i % 60_000),
                        "http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
                    ),
                );
                let birth = article((i + 3) % n);
                emit(&a, &p(ns::DBO, "birthPlace"), &birth);
                if i % 2 == 0 {
                    emit(
                        &a,
                        &p(ns::DBO, "number"),
                        &Term::typed_literal(
                            format!("{}", i % 30),
                            "http://www.w3.org/2001/XMLSchema#integer",
                        ),
                    );
                }
            }
            // Airports (10%).
            6 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Airport"));
                // The decade's i%10==4 article is even, hence a Settlement
                // (q2.4 joins airports to settlements via dbo:city).
                let city = article(((i / 10) * 10 + 4) % n);
                emit(&a, &p(ns::DBO, "city"), &city);
                emit(
                    &a,
                    &p(ns::DBP, "iata"),
                    &Term::literal(format!(
                        "{}{}{}",
                        (b'A' + (i % 26) as u8) as char,
                        (b'A' + ((i / 26) % 26) as u8) as char,
                        (b'A' + ((i / 676) % 26) as u8) as char
                    )),
                );
                if i % 3 == 0 {
                    emit(
                        &a,
                        &p(ns::DBP, "nativename"),
                        &Term::lang_literal(format!("Aeropuerto {i}"), "es"),
                    );
                }
            }
            // Companies (10%).
            7 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Company"));
                emit(
                    &a,
                    &p(ns::DBP, "industry"),
                    &Term::literal(["Software", "Automotive", "Retail", "Energy"][i % 4]),
                );
                emit(&a, &p(ns::DBP, "location"), &article(((i / 10) * 10 + 4) % n));
                if i % 2 == 0 {
                    emit(&a, &p(ns::DBP, "locationCountry"), &article(((i / 10) * 10 + 3) % n));
                }
                if i % 3 == 0 {
                    emit(&a, &p(ns::DBP, "locationCity"), &article(((i / 10) * 10 + 4) % n));
                    // Some product is manufactured by this company.
                    let product = article((i + 5) % n);
                    emit(&product, &p(ns::DBP, "manufacturer"), &a);
                }
                if i % 4 == 0 {
                    emit(&a, &p(ns::DBP, "products"), &article((i + 6) % n));
                    let model = article((i + 7) % n);
                    emit(&model, &p(ns::DBP, "model"), &a);
                }
                if i % 5 == 0 {
                    emit(
                        &a,
                        &p(ns::GEORSS, "point"),
                        &Term::literal(format!("{} {}", i % 90, i % 180)),
                    );
                }
            }
            // Organisms with a phylum (10%) — q1.6.
            8 => {
                emit(&a, &p(ns::RDF, "type"), &p(ns::DBO, "Species"));
                let phylum = dbr(&format!("Phylum{}", i % 12));
                emit(&a, &p(ns::DBO, "phylum"), &phylum);
                // Organism articles link to the Cell_biology category page.
                emit(&a, &p(ns::DBO, "wikiPageWikiLink"), &cell_bio);
            }
            _ => {}
        }
    }

    // `Default` is `Parallelism::from_env()`: the `UO_THREADS` knob.
    Arc::new(Snapshot::build_from(Arc::new(dict), rows, 1, Default::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Arc<Snapshot> {
        generate_dbpedia(&DbpediaConfig::tiny())
    }

    #[test]
    fn deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    fn landmarks_exist_with_expected_edges() {
        let st = tiny();
        let d = st.dictionary();
        for lm in LANDMARKS {
            assert!(
                d.lookup(&Term::iri(format!("{}{}", ns::DBR, lm))).is_some(),
                "missing landmark {lm}"
            );
        }
        // Landmarks are heavily linked.
        let link = d.lookup(&Term::iri(format!("{}wikiPageWikiLink", ns::DBO))).unwrap();
        let potus =
            d.lookup(&Term::iri(format!("{}President_of_the_United_States", ns::DBR))).unwrap();
        assert!(st.count_pattern(None, Some(link), Some(potus)) > 5);
    }

    #[test]
    fn representation_diversity() {
        let st = tiny();
        let d = st.dictionary();
        let name = d.lookup(&Term::iri(format!("{}name", ns::FOAF))).unwrap();
        let label = d.lookup(&Term::iri(format!("{}label", ns::RDFS))).unwrap();
        let n_name = st.count_pattern(None, Some(name), None);
        let n_label = st.count_pattern(None, Some(label), None);
        assert!(n_name > 0 && n_label > n_name, "labels on all, names on some");
        let purl = d.lookup(&Term::iri(format!("{}subject", ns::PURL))).unwrap();
        let skos = d.lookup(&Term::iri(format!("{}subject", ns::SKOS))).unwrap();
        assert!(st.count_pattern(None, Some(purl), None) > 0);
        assert!(st.count_pattern(None, Some(skos), None) > 0);
    }

    #[test]
    fn incompleteness_of_same_as() {
        let st = tiny();
        let d = st.dictionary();
        let same = d.lookup(&Term::iri(format!("{}sameAs", ns::OWL))).unwrap();
        let n_same = st.count_pattern(None, Some(same), None);
        // ~40% of articles, never all of them.
        assert!(n_same > DbpediaConfig::tiny().articles / 5);
        assert!(n_same < DbpediaConfig::tiny().articles);
    }

    #[test]
    fn typed_subpopulations_present() {
        let st = tiny();
        let d = st.dictionary();
        let ty = d.lookup(&Term::iri(format!("{}type", ns::RDF))).unwrap();
        for class in
            ["Person", "PopulatedPlace", "Settlement", "SoccerPlayer", "Airport", "Company"]
        {
            let c = d.lookup(&Term::iri(format!("{}{}", ns::DBO, class))).unwrap();
            assert!(st.count_pattern(None, Some(ty), Some(c)) > 0, "no {class}");
        }
    }

    #[test]
    fn zipf_head_is_heavier() {
        let st = tiny();
        let d = st.dictionary();
        let link = d.lookup(&Term::iri(format!("{}wikiPageWikiLink", ns::DBO))).unwrap();
        let head = d.lookup(&Term::iri(format!("{}Entity1", ns::DBR))).unwrap();
        let tail = d.lookup(&Term::iri(format!("{}Entity571", ns::DBR))).unwrap();
        let head_in = st.count_pattern(None, Some(link), Some(head));
        let tail_in = st.count_pattern(None, Some(link), Some(tail));
        assert!(head_in >= tail_in, "head {head_in} < tail {tail_in}");
    }
}
