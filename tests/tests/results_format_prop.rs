//! Property tests for the W3C result serializers: every term the
//! generators produce — IRIs, blank nodes, and literals stuffed with
//! quotes, backslashes, control characters, and multi-byte code points,
//! with or without language tags / datatypes — round-trips through JSON
//! escaping, and the TSV rows stay well-formed (one cell per variable).
//! And the streamed path agrees with them: for random projected id rows,
//! `ResultWriter` sends exactly the bytes `results_json` / `results_tsv`
//! build from the decoded rows, and exactly as many as it announced.

use proptest::prelude::*;
use std::io;
use uo_json::Json;
use uo_rdf::{Dictionary, Id, Term};
use uo_sparql::{
    results_json, results_tsv, ResultFormat, ResultSet, ResultWriter, STREAM_BUFFER_BYTES,
};

/// Lexical soup: ASCII, JSON-special characters (`"`, `\`), whitespace
/// escapes, a C0 control character, and multi-byte UTF-8.
const LEXICAL: &str = "[a-zA-Z0-9 \"\\\\\n\t\r\u{1}\u{e9}\u{4e16}\u{1f600}]{0,16}";
/// Language tags / IRI suffixes stay in their grammars' safe subsets.
const NAME: &str = "[a-zA-Z][a-zA-Z0-9]{0,8}";

fn build_term(kind: u8, lexical: String, name: String) -> Term {
    match kind % 5 {
        0 => Term::iri(format!("http://example.org/{name}")),
        1 => Term::blank(name),
        2 => Term::lang_literal(lexical, name),
        3 => Term::typed_literal(lexical, format!("http://www.w3.org/2001/XMLSchema#{name}")),
        _ => Term::literal(lexical),
    }
}

/// A reader that takes between 1 and `most` bytes of what a `write` offers
/// (a socket with a small window), recording the largest slice offered.
struct ShortWrites {
    most: usize,
    taken: Vec<u8>,
    largest_offer: usize,
}

impl io::Write for ShortWrites {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.largest_offer = self.largest_offer.max(buf.len());
        // 1..=most, varying with what has been taken so far.
        let n = buf.len().min(1 + self.taken.len() % self.most);
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Digs the single binding object out of a parsed results document.
fn binding(doc: &Json) -> &Json {
    doc.get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_arr)
        .and_then(|b| b.first())
        .and_then(|row| row.get("v"))
        .expect("one binding for ?v")
}

proptest! {
    /// The satellite property: serializing any generated term to SPARQL
    /// JSON and re-parsing it recovers the exact value, language tag, and
    /// datatype — i.e. escaping is lossless for every producible term.
    #[test]
    fn every_term_round_trips_through_json_escaping(
        kind in 0u8..=255,
        lexical in LEXICAL,
        name in NAME,
    ) {
        let term = build_term(kind, lexical, name);
        let vars = vec!["v".to_string()];
        let rows = vec![vec![Some(term.clone())]];
        let doc = uo_json::parse(&results_json(&vars, &rows))
            .expect("serializer output is valid JSON");
        let b = binding(&doc);
        let value = b.get("value").and_then(Json::as_str).expect("value is a string");
        match &term {
            Term::Iri(iri) => {
                prop_assert_eq!(b.get("type").and_then(Json::as_str), Some("uri"));
                prop_assert_eq!(value, &**iri);
            }
            Term::Blank(label) => {
                prop_assert_eq!(b.get("type").and_then(Json::as_str), Some("bnode"));
                prop_assert_eq!(value, &**label);
            }
            Term::Literal { lexical, lang, datatype } => {
                prop_assert_eq!(b.get("type").and_then(Json::as_str), Some("literal"));
                prop_assert_eq!(value, &**lexical);
                prop_assert_eq!(
                    b.get("xml:lang").and_then(Json::as_str),
                    lang.as_deref()
                );
                prop_assert_eq!(
                    b.get("datatype").and_then(Json::as_str),
                    datatype.as_deref()
                );
            }
        }
    }

    /// Raw string escaping (the layer under the serializer) is lossless on
    /// its own: parse(quote(escape(s))) == s for arbitrary soup.
    #[test]
    fn json_escape_round_trips_arbitrary_strings(s in LEXICAL) {
        let doc = format!("\"{}\"", uo_json::escape(&s));
        prop_assert_eq!(uo_json::parse(&doc).unwrap(), Json::Str(s));
    }

    /// TSV rows never leak raw tabs/newlines out of a cell: every data row
    /// has exactly one cell per variable, whatever the term contains.
    #[test]
    fn tsv_rows_stay_rectangular(
        kind_a in 0u8..=255,
        kind_b in 0u8..=255,
        lexical in LEXICAL,
        name in NAME,
    ) {
        let vars = vec!["a".to_string(), "b".to_string()];
        let rows = vec![vec![
            Some(build_term(kind_a, lexical.clone(), name.clone())),
            Some(build_term(kind_b, lexical, name)),
        ]];
        let tsv = results_tsv(&vars, &rows);
        let lines: Vec<&str> = tsv.lines().collect();
        prop_assert_eq!(lines.len(), 2);
        for line in lines {
            prop_assert_eq!(line.split('\t').count(), 2, "row {:?}", line);
        }
    }

    /// The streamed path against the reference, on ids: a dictionary of
    /// random terms, computed (BIND-style) terms beyond it, rows of random
    /// ids with unbound cells and repeats, then DISTINCT / OFFSET / LIMIT
    /// applied on ids. The decoded rows must be what sorting, deduplicating
    /// and slicing the decoded matrix gives, and both formats' streamed
    /// bytes must equal the `String` serializers' over those rows — through
    /// a sink that accepts only a few bytes per `write`, with the announced
    /// length equal to the bytes sent and no `write` larger than the
    /// writer's buffer.
    #[test]
    fn streamed_id_rows_equal_the_reference_serializers(
        stored in prop::collection::vec((0u8..=255, LEXICAL, NAME), 1..12),
        computed in prop::collection::vec(LEXICAL, 0..4),
        picks in prop::collection::vec(any::<u32>(), 0..60),
        shape in (0usize..4, 1usize..40),
        modifiers in (any::<bool>(), prop::option::of(0usize..8), prop::option::of(0usize..12)),
    ) {
        let ((width, most), (distinct, offset, limit)) = (shape, modifiers);
        let mut dict = Dictionary::new();
        for (kind, lexical, name) in stored {
            dict.encode(&build_term(kind, lexical, name));
        }
        // '#' is outside LEXICAL and the index differs, so a computed term
        // equals neither a stored one nor another computed one: equal terms
        // keep equal ids, as the evaluator guarantees.
        let computed: Vec<Term> = computed
            .into_iter()
            .enumerate()
            .map(|(i, lexical)| Term::lang_literal(format!("#{i}{lexical}"), "en"))
            .collect();
        let known = (dict.len() + computed.len()) as Id;
        // Zero-width rows (an empty projection) still count: up to three.
        let rows = picks.len().checked_div(width).unwrap_or(picks.len().min(3));
        // Id 0 is unbound; a third of the cells are.
        let ids: Vec<Id> = picks[..rows * width]
            .iter()
            .map(|&p| if p % 3 == 0 { 0 } else { 1 + (p / 3) % known })
            .collect();
        let mut results = ResultSet::new(&dict, computed, width, rows, ids);
        let vars: Vec<String> =
            ["x", "na\"me", "tab\there"][..width].iter().map(|v| v.to_string()).collect();

        let mut want = results.decode();
        if distinct {
            want.sort();
            want.dedup();
        }
        want.drain(..offset.unwrap_or(0).min(want.len()));
        want.truncate(limit.unwrap_or(usize::MAX));
        results.apply_modifiers(distinct, offset, limit);
        prop_assert_eq!(results.len(), want.len());
        prop_assert_eq!(&results.decode(), &want);

        for format in [ResultFormat::Json, ResultFormat::Tsv] {
            let reference = match format {
                ResultFormat::Json => results_json(&vars, &want),
                ResultFormat::Tsv => results_tsv(&vars, &want),
            };
            let writer = ResultWriter::select(format, &vars, results.clone(), &|| false)
                .expect("a predicate that never fires stops nothing");
            let mut sink = ShortWrites { most, taken: Vec::new(), largest_offer: 0 };
            writer.write_to(&mut sink, &|| false).expect("the sink never fails");
            prop_assert_eq!(writer.body_len(), sink.taken.len() as u64, "announced length");
            prop_assert!(sink.largest_offer <= STREAM_BUFFER_BYTES);
            prop_assert_eq!(String::from_utf8(sink.taken).expect("UTF-8 body"), reference);
        }
    }
}
