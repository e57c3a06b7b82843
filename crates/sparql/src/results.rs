//! Projected solution sequences and their W3C wire formats.
//!
//! A query's answer leaves the evaluator as a [`ResultSet`]: the projected
//! rows as dictionary ids in one row-major vector, plus what is needed to
//! lend a `&Term` for an id. Two consumers render it:
//!
//! - [`ResultWriter`] — the path to a socket. It formats each *distinct* id
//!   once into a per-response fragment arena, frames the rows into a
//!   counting sink to learn the exact body length, and then copies the
//!   fragments through a fixed-size buffer into any [`io::Write`]. Memory is
//!   O(distinct terms + buffer); the per-cell work is a memcpy.
//! - [`results_json`] / [`results_tsv`] — the `String`-returning reference
//!   over decoded rows (`Vec<Option<Term>>`, `None` = unbound) that tests
//!   and the benchmark compare the streamed bytes against.
//!
//! Both go through the same term formatter and the same row framer per
//! format (the *SPARQL 1.1 Query Results JSON Format* and *TSV Format* the
//! HTTP endpoint negotiates), so they agree byte for byte by construction.
//! JSON string escaping is shared with the rest of the workspace via
//! `uo_json`.

use crate::algebra::{Bag, VarId};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::fmt;
use std::io;
use uo_rdf::{Dictionary, FxHashMap, Id, Term, NO_ID};

/// The projected rows of one query run, as ids.
///
/// Row `i` is `ids[i * width..(i + 1) * width]`, one id per projected
/// variable, [`NO_ID`] for unbound. Ids up to the dictionary's length name
/// dictionary terms; the ones beyond it index `extra`, the terms the run
/// itself computed (BIND, VALUES and aggregate outputs that do not occur in
/// the data). Equal terms always carry equal ids, so id equality is term
/// equality.
#[derive(Debug, Clone)]
pub struct ResultSet<'a> {
    dict: &'a Dictionary,
    extra: Vec<Term>,
    width: usize,
    rows: usize,
    ids: Vec<Id>,
}

impl<'a> ResultSet<'a> {
    /// Wraps `rows` rows of `width` ids each (row-major in `ids`).
    ///
    /// # Panics
    /// If `ids.len() != rows * width`.
    pub fn new(
        dict: &'a Dictionary,
        extra: Vec<Term>,
        width: usize,
        rows: usize,
        ids: Vec<Id>,
    ) -> Self {
        assert_eq!(ids.len(), rows * width, "row-major id matrix of {rows} x {width}");
        ResultSet { dict, extra, width, rows, ids }
    }

    /// Projects every row of `bag` onto `projection`, in bag order.
    pub fn project(
        bag: &Bag,
        projection: &[VarId],
        dict: &'a Dictionary,
        extra: Vec<Term>,
    ) -> Self {
        let mut ids = Vec::with_capacity(bag.rows.len() * projection.len());
        for row in &bag.rows {
            ids.extend(projection.iter().map(|&v| row[v as usize]));
        }
        ResultSet::new(dict, extra, projection.len(), bag.rows.len(), ids)
    }

    /// Applies `SELECT DISTINCT` and then `OFFSET` / `LIMIT`, on ids.
    ///
    /// DISTINCT leaves the rows in the order of their terms (unbound first,
    /// then [`Term`]'s ordering, column by column) with duplicates removed —
    /// the order sorting the decoded rows would give.
    pub fn apply_modifiers(&mut self, distinct: bool, offset: Option<usize>, limit: Option<usize>) {
        if distinct {
            let mut order: Vec<usize> = (0..self.rows).collect();
            order.sort_unstable_by(|&a, &b| self.cmp_rows(a, b));
            order.dedup_by(|b, a| self.cmp_rows(*a, *b).is_eq());
            self.ids = order.iter().flat_map(|&r| self.row(r)).copied().collect();
            self.rows = order.len();
        }
        let skip = offset.unwrap_or(0).min(self.rows);
        self.ids.drain(..skip * self.width);
        self.rows = (self.rows - skip).min(limit.unwrap_or(usize::MAX));
        self.ids.truncate(self.rows * self.width);
    }

    fn row(&self, r: usize) -> &[Id] {
        &self.ids[r * self.width..(r + 1) * self.width]
    }

    /// Orders two rows by their terms, column by column; only cells whose
    /// ids differ need their terms looked at.
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for (&x, &y) in self.row(a).iter().zip(self.row(b)) {
            let by_term = if x == y { Ordering::Equal } else { self.term(x).cmp(&self.term(y)) };
            if by_term.is_ne() {
                return by_term;
            }
        }
        Ordering::Equal
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The number of projected variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The rows, in order (each of [`width`](Self::width) ids).
    pub fn rows(&self) -> impl Iterator<Item = &[Id]> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }

    /// The term an id stands for: `None` for [`NO_ID`] (and for an id
    /// neither the dictionary nor this run knows).
    pub fn term(&self, id: Id) -> Option<&Term> {
        match (id as usize).checked_sub(self.dict.len() + 1) {
            None => self.dict.decode(id),
            Some(i) => self.extra.get(i),
        }
    }

    /// Clones every cell out into owned terms (`None` = unbound): the
    /// decoded row matrix of the reference entry points.
    pub fn decode(&self) -> Vec<Vec<Option<Term>>> {
        self.rows().map(|row| row.iter().map(|&id| self.term(id).cloned()).collect()).collect()
    }
}

/// Writes one binding value in the SPARQL 1.1 Results JSON layout.
///
/// IRIs become `{"type": "uri"}` objects, blank nodes `"bnode"`, literals
/// `"literal"` with an `xml:lang` or `datatype` annotation when present.
fn json_term<W: fmt::Write>(t: &Term, out: &mut W) -> fmt::Result {
    let (open, value) = match t {
        Term::Iri(i) => ("{\"type\":\"uri\",\"value\":\"", i),
        Term::Blank(b) => ("{\"type\":\"bnode\",\"value\":\"", b),
        Term::Literal { lexical, .. } => ("{\"type\":\"literal\",\"value\":\"", lexical),
    };
    out.write_str(open)?;
    uo_json::escape_into(value, out)?;
    if let Term::Literal { lang, datatype, .. } = t {
        let annotation = match (lang, datatype) {
            (Some(l), _) => Some(("\",\"xml:lang\":\"", l)),
            (None, Some(dt)) => Some(("\",\"datatype\":\"", dt)),
            (None, None) => None,
        };
        if let Some((key, value)) = annotation {
            out.write_str(key)?;
            uo_json::escape_into(value, out)?;
        }
    }
    out.write_str("\"}")
}

/// Writes one term in N-Triples syntax, the TSV format's cell encoding (it
/// escapes embedded tabs and newlines, keeping cells single-line).
fn tsv_term<W: fmt::Write>(t: &Term, out: &mut W) -> fmt::Result {
    write!(out, "{t}")
}

/// Everything of a JSON results document before its first row.
fn json_open(vars: &[String]) -> String {
    let mut out = String::from("{\"head\":{\"vars\":[");
    for (i, v) in vars.iter().enumerate() {
        out.push_str(if i > 0 { ",\"" } else { "\"" });
        let _ = uo_json::escape_into(v, &mut out);
        out.push('"');
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    out
}

/// What follows the last row of a JSON results document, up to but not
/// including the document's closing brace.
const JSON_ROWS_END: &str = "]}";

/// Each projection variable's `"name":` member key, escaped once.
fn json_keys(vars: &[String]) -> Vec<String> {
    vars.iter().map(|v| format!("\"{}\":", uo_json::escape(v))).collect()
}

/// Frames row number `index` of a JSON results document: one binding
/// object, unbound cells omitted (per the spec), keys in projection order.
fn json_row<W: fmt::Write, C>(
    keys: &[String],
    index: usize,
    cells: impl Iterator<Item = Option<C>>,
    cell: impl Fn(C, &mut W) -> fmt::Result,
    out: &mut W,
) -> fmt::Result {
    out.write_str(if index > 0 { ",{" } else { "{" })?;
    let mut first = true;
    for (key, c) in keys.iter().zip(cells) {
        if let Some(c) = c {
            if !first {
                out.write_str(",")?;
            }
            first = false;
            out.write_str(key)?;
            cell(c, out)?;
        }
    }
    out.write_str("}")
}

/// The TSV header line: the `?`-prefixed projection variables.
fn tsv_open(vars: &[String]) -> String {
    let mut out = String::new();
    for (i, v) in vars.iter().enumerate() {
        out.push_str(if i > 0 { "\t?" } else { "?" });
        out.push_str(v);
    }
    out.push('\n');
    out
}

/// Frames one TSV row: tab-separated cells, unbound ones empty.
fn tsv_row<W: fmt::Write, C>(
    cells: impl Iterator<Item = Option<C>>,
    cell: impl Fn(C, &mut W) -> fmt::Result,
    out: &mut W,
) -> fmt::Result {
    for (i, c) in cells.enumerate() {
        if i > 0 {
            out.write_str("\t")?;
        }
        if let Some(c) = c {
            cell(c, out)?;
        }
    }
    out.write_str("\n")
}

/// Renders projected solution rows in the **SPARQL 1.1 Query Results JSON
/// Format** (`application/sparql-results+json`).
///
/// `vars` are the projection's variable names (without `?`); each row is one
/// solution over those variables in order, with `None` meaning *unbound*
/// (unbound variables are omitted from the binding object, per the spec).
/// The output is deterministic: keys appear in projection order, rows in
/// input order, so byte-equality of two serializations is exactly
/// row/term-equality of the underlying solution sequences.
pub fn results_json(vars: &[String], rows: &[Vec<Option<Term>>]) -> String {
    let keys = json_keys(vars);
    let mut out = json_open(vars);
    out.reserve(rows.len() * 64);
    for (i, row) in rows.iter().enumerate() {
        let _ = json_row(&keys, i, row.iter().map(Option::as_ref), json_term, &mut out);
    }
    out.push_str(JSON_ROWS_END);
    out.push('}');
    out
}

/// Everything of an `ASK` JSON document before its closing brace.
fn ask_json_open(b: bool) -> String {
    format!("{{\"head\":{{}},\"boolean\":{b}")
}

/// Renders an `ASK` result in the **SPARQL 1.1 Query Results JSON Format**
/// boolean form: `{"head":{},"boolean":true}`.
pub fn ask_json(b: bool) -> String {
    ask_json_open(b) + "}"
}

/// Renders an `ASK` result for the text formats (one line, `true`/`false`).
pub fn ask_text(b: bool) -> String {
    format!("{b}\n")
}

/// Renders projected solution rows in the **SPARQL 1.1 Query Results TSV
/// Format** (`text/tab-separated-values`).
///
/// The header row lists the projection variables (`?`-prefixed); each
/// following row encodes terms in N-Triples syntax (which escapes embedded
/// tabs and newlines, keeping cells single-line) and leaves unbound
/// variables empty.
pub fn results_tsv(vars: &[String], rows: &[Vec<Option<Term>>]) -> String {
    let mut out = tsv_open(vars);
    out.reserve(rows.len() * 32);
    for row in rows {
        let _ = tsv_row(row.iter().map(Option::as_ref), tsv_term, &mut out);
    }
    out
}

/// A wire format [`ResultWriter`] can stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultFormat {
    /// SPARQL 1.1 Query Results JSON.
    Json,
    /// SPARQL 1.1 Query Results TSV.
    Tsv,
}

/// The stop predicate handed to a [`ResultWriter`] fired before the body
/// length was known: nothing has been written yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

/// The size of the buffer [`ResultWriter::write_to`] copies through, which
/// is also the largest single `write` it issues.
pub const STREAM_BUFFER_BYTES: usize = 64 * 1024;

/// How many rows (or, while formatting fragments, cells) pass between two
/// polls of the caller's stop predicate.
const POLL_STRIDE: usize = 4096;

/// One response body, sized before it is sent and never built in memory.
///
/// Construction formats every distinct term of the result once and counts
/// the body's bytes; [`write_to`](Self::write_to) then streams exactly
/// [`body_len`](Self::body_len) bytes. Every pass polls a caller-supplied
/// stop predicate (a request deadline) every few thousand rows.
#[derive(Debug)]
pub struct ResultWriter {
    /// How rows are framed; `Json` documents also end in a closing brace,
    /// after the optional profile member.
    format: ResultFormat,
    /// Everything before the first row.
    prefix: String,
    /// Everything after the last row (before a JSON document's closing).
    suffix: &'static str,
    /// JSON: each column's `"name":` key.
    keys: Vec<String>,
    width: usize,
    rows: usize,
    /// Row-major fragment number per cell, 0 for unbound.
    cells: Vec<u32>,
    /// Fragment `n` is `arena[ends[n - 1]..ends[n]]`; `ends[0]` is 0.
    ends: Vec<usize>,
    arena: String,
    /// Bytes of prefix + framed rows + suffix.
    framed_len: u64,
    /// A trailing `"profile"` member for a JSON document.
    profile: Option<String>,
}

impl ResultWriter {
    /// A body that is already rendered (an `ASK` verdict, a debug table).
    fn rendered(format: ResultFormat, prefix: String) -> Self {
        ResultWriter {
            format,
            framed_len: prefix.len() as u64,
            prefix,
            suffix: "",
            keys: Vec::new(),
            width: 0,
            rows: 0,
            cells: Vec::new(),
            ends: vec![0],
            arena: String::new(),
            profile: None,
        }
    }

    /// The body of an `ASK` answer: the boolean results document for JSON,
    /// one `true` / `false` line otherwise.
    pub fn ask(format: ResultFormat, verdict: bool) -> Self {
        match format {
            ResultFormat::Json => Self::rendered(format, ask_json_open(verdict)),
            ResultFormat::Tsv => Self::text(ask_text(verdict)),
        }
    }

    /// A plain-text body sent as is.
    pub fn text(body: String) -> Self {
        Self::rendered(ResultFormat::Tsv, body)
    }

    /// The body of a `SELECT` answer over `vars` (the projection's names,
    /// without `?`): formats each distinct id of `results` once, then sizes
    /// the document. `stop` is polled throughout.
    pub fn select(
        format: ResultFormat,
        vars: &[String],
        mut results: ResultSet<'_>,
        stop: &dyn Fn() -> bool,
    ) -> Result<Self, Stopped> {
        let term_into: fn(&Term, &mut String) -> fmt::Result = match format {
            ResultFormat::Json => json_term,
            ResultFormat::Tsv => tsv_term,
        };
        // Ids become fragment numbers in place: the id matrix is the only
        // per-cell state a response holds.
        let mut cells = std::mem::take(&mut results.ids);
        let mut numbers: FxHashMap<Id, u32> = FxHashMap::default();
        let mut arena = String::new();
        let mut ends = vec![0];
        for chunk in cells.chunks_mut(POLL_STRIDE) {
            if stop() {
                return Err(Stopped);
            }
            for cell in chunk.iter_mut().filter(|c| **c != NO_ID) {
                *cell = match numbers.entry(*cell) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => *e.insert(match results.term(*cell) {
                        Some(t) => {
                            let _ = term_into(t, &mut arena);
                            ends.push(arena.len());
                            u32::try_from(ends.len() - 1).expect("fewer fragments than ids")
                        }
                        None => 0,
                    }),
                };
            }
        }
        let (prefix, suffix, keys) = match format {
            ResultFormat::Json => (json_open(vars), JSON_ROWS_END, json_keys(vars)),
            ResultFormat::Tsv => (tsv_open(vars), "", Vec::new()),
        };
        let mut writer = ResultWriter {
            format,
            prefix,
            suffix,
            keys,
            width: results.width,
            rows: results.rows,
            cells,
            ends,
            arena,
            framed_len: 0,
            profile: None,
        };
        let mut counted = Count(0);
        writer.frame(&mut counted, stop).map_err(|_| Stopped)?;
        writer.framed_len = counted.0;
        Ok(writer)
    }

    /// Attaches an EXPLAIN ANALYZE profile (a JSON object) as the trailing
    /// `"profile"` member of a JSON document; the results serialization is
    /// unchanged up to that point. Other formats have nowhere to put it.
    pub fn set_profile(&mut self, profile_json: String) {
        if self.format == ResultFormat::Json {
            self.profile = Some(profile_json);
        }
    }

    /// The exact number of bytes [`write_to`](Self::write_to) sends.
    pub fn body_len(&self) -> u64 {
        let mut closing = Count(0);
        let _ = self.close(&mut closing);
        self.framed_len + closing.0
    }

    /// How many distinct terms were formatted.
    pub fn distinct_terms(&self) -> usize {
        self.ends.len() - 1
    }

    /// Streams the body into `out` through a [`STREAM_BUFFER_BYTES`] buffer
    /// and flushes it. Stops at the first write error, and with
    /// [`io::ErrorKind::TimedOut`] as soon as `stop` fires: a caller that
    /// already announced [`body_len`](Self::body_len) must then drop the
    /// connection, never pad or truncate silently.
    pub fn write_to<W: io::Write>(&self, out: &mut W, stop: &dyn Fn() -> bool) -> io::Result<()> {
        let mut chunked =
            Chunked { out, buf: Vec::with_capacity(STREAM_BUFFER_BYTES), error: None };
        let framed = self.frame(&mut chunked, stop).and_then(|()| self.close(&mut chunked));
        match (chunked.error.take(), framed) {
            (Some(e), _) => Err(e),
            (None, Err(_)) => Err(io::Error::new(io::ErrorKind::TimedOut, "result stream stopped")),
            (None, Ok(())) => {
                chunked.out.write_all(&chunked.buf)?;
                chunked.out.flush()
            }
        }
    }

    /// Prefix, rows and suffix into `out`; an `Err` is the sink's or `stop`.
    fn frame<W: fmt::Write>(&self, out: &mut W, stop: &dyn Fn() -> bool) -> fmt::Result {
        out.write_str(&self.prefix)?;
        let fragment = |n: u32, out: &mut W| {
            let n = n as usize;
            out.write_str(&self.arena[self.ends[n - 1]..self.ends[n]])
        };
        for r in 0..self.rows {
            if r % POLL_STRIDE == 0 && stop() {
                return Err(fmt::Error);
            }
            let cells = self.cells[r * self.width..(r + 1) * self.width]
                .iter()
                .map(|&n| (n != 0).then_some(n));
            match self.format {
                ResultFormat::Json => json_row(&self.keys, r, cells, fragment, out)?,
                ResultFormat::Tsv => tsv_row(cells, fragment, out)?,
            }
        }
        out.write_str(self.suffix)
    }

    /// A JSON document's optional profile member and closing brace.
    fn close<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        if self.format == ResultFormat::Json {
            if let Some(profile) = &self.profile {
                out.write_str(", \"profile\": ")?;
                out.write_str(profile)?;
            }
            out.write_str("}")?;
        }
        Ok(())
    }
}

/// The sizing sink: counts bytes, keeps none.
struct Count(u64);

impl fmt::Write for Count {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// The streaming sink: fills a fixed-size buffer and hands it to `out`
/// whenever it is full, remembering the first write error.
struct Chunked<'w, W: io::Write> {
    out: &'w mut W,
    buf: Vec<u8>,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for Chunked<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut rest = s.as_bytes();
        loop {
            let room = STREAM_BUFFER_BYTES - self.buf.len();
            if rest.len() <= room {
                self.buf.extend_from_slice(rest);
                return Ok(());
            }
            self.buf.extend_from_slice(&rest[..room]);
            rest = &rest[room..];
            if let Err(e) = self.out.write_all(&self.buf) {
                self.error = Some(e);
                return Err(fmt::Error);
            }
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ask_results_forms() {
        assert_eq!(ask_json(true), "{\"head\":{},\"boolean\":true}");
        assert_eq!(ask_json(false), "{\"head\":{},\"boolean\":false}");
        let doc = uo_json::parse(&ask_json(true)).unwrap();
        assert!(doc.get("head").is_some());
        assert_eq!(ask_text(false), "false\n");
    }

    /// Golden output covering every term shape: IRI, blank node, plain /
    /// language-tagged / typed literals, and an unbound variable.
    #[test]
    fn results_json_golden() {
        let rows = vec![
            vec![
                Some(Term::iri("http://ex/a")),
                Some(Term::lang_literal("chat", "en")),
                Some(Term::blank("b0")),
            ],
            vec![
                Some(Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer")),
                None,
                Some(Term::literal("plain")),
            ],
        ];
        let got = results_json(&vars(&["x", "n", "b"]), &rows);
        let want = concat!(
            "{\"head\":{\"vars\":[\"x\",\"n\",\"b\"]},\"results\":{\"bindings\":[",
            "{\"x\":{\"type\":\"uri\",\"value\":\"http://ex/a\"},",
            "\"n\":{\"type\":\"literal\",\"value\":\"chat\",\"xml:lang\":\"en\"},",
            "\"b\":{\"type\":\"bnode\",\"value\":\"b0\"}},",
            "{\"x\":{\"type\":\"literal\",\"value\":\"42\",",
            "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"},",
            "\"b\":{\"type\":\"literal\",\"value\":\"plain\"}}",
            "]}}"
        );
        assert_eq!(got, want);
        // The golden output is well-formed JSON with the spec's structure.
        let doc = uo_json::parse(&got).unwrap();
        let head_vars = doc.get("head").unwrap().get("vars").unwrap().as_arr().unwrap();
        assert_eq!(head_vars.len(), 3);
        let bindings = doc.get("results").unwrap().get("bindings").unwrap().as_arr().unwrap();
        assert_eq!(bindings.len(), 2);
        assert!(bindings[1].get("n").is_none(), "unbound variables are omitted");
    }

    #[test]
    fn results_json_escapes_control_characters() {
        let rows = vec![vec![Some(Term::literal("a\"b\\c\nd"))]];
        let got = results_json(&vars(&["v"]), &rows);
        let doc = uo_json::parse(&got).unwrap();
        let value = doc.get("results").unwrap().get("bindings").unwrap().as_arr().unwrap()[0]
            .get("v")
            .unwrap()
            .get("value")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(value, "a\"b\\c\nd");
    }

    #[test]
    fn results_json_empty_rows_and_empty_projection() {
        assert_eq!(
            results_json(&vars(&["x"]), &[]),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(
            results_json(&[], &[vec![]]),
            "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[{}]}}"
        );
    }

    #[test]
    fn results_tsv_golden() {
        let rows = vec![
            vec![
                Some(Term::iri("http://ex/a")),
                Some(Term::lang_literal("chat", "en")),
                Some(Term::blank("b0")),
            ],
            vec![
                Some(Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer")),
                None,
                Some(Term::literal("tab\there")),
            ],
        ];
        let got = results_tsv(&vars(&["x", "n", "b"]), &rows);
        let want = "?x\t?n\t?b\n\
                    <http://ex/a>\t\"chat\"@en\t_:b0\n\
                    \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\t\t\"tab\\there\"\n";
        assert_eq!(got, want);
        // Every data row keeps exactly one cell per variable: embedded tabs
        // are escaped by the N-Triples encoding, not emitted raw.
        for line in got.lines() {
            assert_eq!(line.split('\t').count(), 3, "{line:?}");
        }
    }

    /// A dictionary of three terms, one computed term beyond it, and rows
    /// mixing them with unbound cells and repeats.
    fn sample(dict: &Dictionary) -> ResultSet<'_> {
        let computed = vec![Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#integer")];
        ResultSet::new(dict, computed, 2, 4, vec![2, 4, 1, NO_ID, 2, 4, 3, 1])
    }

    fn sample_dict() -> Dictionary {
        let mut dict = Dictionary::new();
        dict.encode(&Term::iri("http://ex/b"));
        dict.encode(&Term::iri("http://ex/a"));
        dict.encode(&Term::lang_literal("q\"uote", "en"));
        dict
    }

    fn streamed(writer: &ResultWriter) -> String {
        let mut out = Vec::new();
        writer.write_to(&mut out, &|| false).unwrap();
        assert_eq!(out.len() as u64, writer.body_len(), "announced length");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn streamed_select_equals_the_reference_over_decoded_rows() {
        let dict = sample_dict();
        let names = vars(&["x", "y"]);
        for format in [ResultFormat::Json, ResultFormat::Tsv] {
            let rs = sample(&dict);
            let want = match format {
                ResultFormat::Json => results_json(&names, &rs.decode()),
                ResultFormat::Tsv => results_tsv(&names, &rs.decode()),
            };
            let writer = ResultWriter::select(format, &names, rs, &|| false).unwrap();
            assert_eq!(writer.distinct_terms(), 4, "each distinct id formatted once");
            assert_eq!(streamed(&writer), want);
        }
    }

    #[test]
    fn profile_rides_before_the_closing_brace() {
        let dict = sample_dict();
        let names = vars(&["x", "y"]);
        let plain = results_json(&names, &sample(&dict).decode());
        let mut writer =
            ResultWriter::select(ResultFormat::Json, &names, sample(&dict), &|| false).unwrap();
        writer.set_profile("{\"rows\": 4}".to_string());
        let got = streamed(&writer);
        assert_eq!(got, format!("{}, \"profile\": {{\"rows\": 4}}}}", &plain[..plain.len() - 1]));
        // The boolean (ASK) document takes it the same way; TSV ignores it.
        let mut ask = ResultWriter::ask(ResultFormat::Json, true);
        assert_eq!(streamed(&ask), ask_json(true));
        ask.set_profile("{}".to_string());
        assert_eq!(streamed(&ask), "{\"head\":{},\"boolean\":true, \"profile\": {}}");
        let mut text = ResultWriter::ask(ResultFormat::Tsv, false);
        text.set_profile("{}".to_string());
        assert_eq!(streamed(&text), "false\n");
    }

    #[test]
    fn distinct_orders_by_terms_and_slices_after() {
        let dict = sample_dict();
        let mut rs = sample(&dict);
        let mut want = rs.decode();
        want.sort();
        want.dedup();
        rs.apply_modifiers(true, None, None);
        assert_eq!(rs.decode(), want);
        assert_eq!(rs.len(), 3, "rows 0 and 2 are equal");
        rs.apply_modifiers(false, Some(1), Some(1));
        assert_eq!(rs.decode(), want[1..2]);
        rs.apply_modifiers(false, Some(5), None);
        assert!(rs.is_empty());
    }

    #[test]
    fn a_stop_before_the_length_is_known_writes_nothing() {
        let dict = sample_dict();
        let names = vars(&["x", "y"]);
        assert_eq!(
            ResultWriter::select(ResultFormat::Json, &names, sample(&dict), &|| true).err(),
            Some(Stopped)
        );
        let writer =
            ResultWriter::select(ResultFormat::Json, &names, sample(&dict), &|| false).unwrap();
        let mut out = Vec::new();
        let err = writer.write_to(&mut out, &|| true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// Accepts at most `cap` bytes per call and fails once `budget` bytes
    /// have been taken, recording the largest slice it was offered.
    struct Grudging {
        cap: usize,
        budget: usize,
        taken: usize,
        largest: usize,
    }

    impl io::Write for Grudging {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            if self.taken >= self.budget {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer left"));
            }
            let n = buf.len().min(self.cap);
            self.taken += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_are_bounded_by_the_buffer_and_stop_at_the_first_error() {
        let mut dict = Dictionary::new();
        // One fragment larger than the buffer, repeated: it must still be
        // handed over in buffer-sized pieces.
        let big = dict.encode(&Term::literal("x".repeat(STREAM_BUFFER_BYTES + 1000)));
        let rs = ResultSet::new(&dict, Vec::new(), 1, 8, vec![big; 8]);
        let writer = ResultWriter::select(ResultFormat::Tsv, &vars(&["v"]), rs, &|| false).unwrap();
        let len = writer.body_len() as usize;
        let mut sink = Grudging { cap: 777, budget: usize::MAX, taken: 0, largest: 0 };
        writer.write_to(&mut sink, &|| false).unwrap();
        assert_eq!(sink.taken, len);
        assert!(sink.largest <= STREAM_BUFFER_BYTES, "largest write {}", sink.largest);
        let mut sink = Grudging { cap: usize::MAX, budget: 100_000, taken: 0, largest: 0 };
        let err = writer.write_to(&mut sink, &|| false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(sink.taken < 100_000 + STREAM_BUFFER_BYTES, "stopped at once: {}", sink.taken);
    }
}
