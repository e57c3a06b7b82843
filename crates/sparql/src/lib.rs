//! SPARQL-UO parsing and algebra.
//!
//! This crate implements the query-language half of the substrate:
//!
//! - [`ast`]: the abstract syntax of SPARQL `SELECT` queries over the
//!   SPARQL-UO fragment (BGPs, group graph patterns, `UNION`, `OPTIONAL`,
//!   plus basic `FILTER`s), shaped to mirror Definition 6 of the paper — a
//!   group graph pattern is an ordered sequence of elements, which is exactly
//!   the sibling structure the BE-tree (Definition 8) is built from;
//! - [`parser`]: a recursive-descent parser for that fragment (prefixes,
//!   `SELECT`, nested groups, `UNION` chains, `OPTIONAL`, predicate-object
//!   lists, the `a` keyword, numeric and string literals);
//! - [`algebra`]: bags of mappings and the operators of Section 3 —
//!   compatibility-join `⋈`, bag union `∪bag`, difference `∖` and left outer
//!   join `⟕` — all preserving duplicates (bag semantics);
//! - [`results`]: the projected answer as id rows ([`ResultSet`]) and its
//!   W3C JSON / TSV wire formats, streamed ([`ResultWriter`]) or as a
//!   `String` ([`results_json`], [`results_tsv`]).
//!
//! # Example
//!
//! ```
//! let q = uo_sparql::parse(
//!     "PREFIX foaf: <http://xmlns.com/foaf/0.1/>
//!      SELECT ?x ?name WHERE {
//!        ?x foaf:knows ?y .
//!        { ?x foaf:name ?name } UNION { ?x foaf:nick ?name }
//!        OPTIONAL { ?y foaf:name ?yname }
//!      }").unwrap();
//! assert_eq!(q.body.elements.len(), 3);
//! ```

pub mod algebra;
pub mod ast;
pub mod parser;
pub mod regex_lite;
pub mod results;
pub mod serializer;

pub use algebra::{Bag, VarId, VarTable};
pub use ast::{
    AggFunc, Aggregate, CastKind, DataTriple, Element, Expr, GroupPattern, PatternTerm, Query,
    Selection, TriplePattern, UpdateOp, UpdateRequest,
};
pub use parser::{parse, parse_update, ParseError};
pub use regex_lite::{Regex, RegexError};
pub use results::{
    ask_json, ask_text, results_json, results_tsv, ResultFormat, ResultSet, ResultWriter, Stopped,
    STREAM_BUFFER_BYTES,
};
pub use serializer::{serialize, serialize_update};
