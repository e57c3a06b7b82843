//! RDF terms: IRIs, blank nodes and literals.
//!
//! Following Definition 1 of the paper, let `I`, `B`, `L` be pairwise disjoint
//! sets of IRIs, blank nodes and literals. A [`Term`] is an element of
//! `I ∪ B ∪ L`.

use std::fmt;

/// An RDF term.
///
/// Literals carry an optional language tag (`"chat"@en`) or an optional
/// datatype IRI (`"1"^^xsd:integer`); at most one of the two is present,
/// matching the RDF 1.1 abstract syntax.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI, stored without the surrounding angle brackets.
    Iri(Box<str>),
    /// A blank node label, stored without the `_:` prefix.
    Blank(Box<str>),
    /// A literal with its lexical form and optional annotation.
    Literal {
        /// The lexical form, unescaped.
        lexical: Box<str>,
        /// `Some(tag)` for language-tagged strings.
        lang: Option<Box<str>>,
        /// `Some(iri)` for typed literals. `None` means `xsd:string`
        /// (the RDF 1.1 default) for plain literals without a language tag.
        datatype: Option<Box<str>>,
    },
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(iri: impl Into<Box<str>>) -> Self {
        Term::Iri(iri.into())
    }

    /// Creates a blank node term from its label (without `_:`).
    pub fn blank(label: impl Into<Box<str>>) -> Self {
        Term::Blank(label.into())
    }

    /// Creates a plain (string) literal.
    pub fn literal(lexical: impl Into<Box<str>>) -> Self {
        Term::Literal { lexical: lexical.into(), lang: None, datatype: None }
    }

    /// Creates a language-tagged literal, e.g. `"Bill Clinton"@en`.
    pub fn lang_literal(lexical: impl Into<Box<str>>, lang: impl Into<Box<str>>) -> Self {
        Term::Literal { lexical: lexical.into(), lang: Some(lang.into()), datatype: None }
    }

    /// Creates a typed literal, e.g. `"1946-08-19"^^xsd:date`.
    pub fn typed_literal(lexical: impl Into<Box<str>>, datatype: impl Into<Box<str>>) -> Self {
        Term::Literal { lexical: lexical.into(), lang: None, datatype: Some(datatype.into()) }
    }

    /// Returns `true` if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns `true` if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// Returns `true` if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Returns `true` if this term may appear in the subject position of a
    /// triple (`I ∪ B`, Definition 1).
    pub fn is_valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// Returns `true` if this term may appear in the predicate position (`I`).
    pub fn is_valid_predicate(&self) -> bool {
        self.is_iri()
    }

    /// The IRI string if this is an IRI term.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The numeric value of this literal if its datatype is one of the XSD
    /// numeric types (integer, decimal, double, float and the
    /// integer-derived types), used for SPARQL value comparison.
    pub fn numeric_value(&self) -> Option<f64> {
        match self {
            Term::Literal { lexical, lang: None, datatype: Some(dt) } => {
                let numeric = dt.starts_with("http://www.w3.org/2001/XMLSchema#")
                    && matches!(
                        &dt["http://www.w3.org/2001/XMLSchema#".len()..],
                        "integer"
                            | "decimal"
                            | "double"
                            | "float"
                            | "long"
                            | "int"
                            | "short"
                            | "byte"
                            | "nonNegativeInteger"
                            | "positiveInteger"
                            | "negativeInteger"
                            | "nonPositiveInteger"
                            | "unsignedLong"
                            | "unsignedInt"
                            | "unsignedShort"
                            | "unsignedByte"
                    );
                if numeric {
                    lexical.parse().ok()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The lexical form if this is a literal term.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }
}

/// Writes `s` with the N-Triples string escapes, runs of characters that
/// need none going out as one slice (every escaped character is ASCII, so
/// the byte offsets at them are char boundaries).
fn escape_into(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        f.write_str(&s[clean..i])?;
        f.write_str(escaped)?;
        clean = i + 1;
    }
    f.write_str(&s[clean..])
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax. Written as plain `write_str`
    /// calls: this is the per-cell formatter of TSV results and N-Triples
    /// dumps, where `write!`'s argument machinery was most of the cost.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => {
                f.write_str("<")?;
                f.write_str(i)?;
                f.write_str(">")
            }
            Term::Blank(b) => {
                f.write_str("_:")?;
                f.write_str(b)
            }
            Term::Literal { lexical, lang, datatype } => {
                f.write_str("\"")?;
                escape_into(f, lexical)?;
                f.write_str("\"")?;
                match (lang, datatype) {
                    (Some(l), _) => {
                        f.write_str("@")?;
                        f.write_str(l)
                    }
                    (None, Some(dt)) => {
                        f.write_str("^^<")?;
                        f.write_str(dt)?;
                        f.write_str(">")
                    }
                    (None, None) => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
    }

    #[test]
    fn display_blank() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn display_lang_literal() {
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#integer").to_string(),
            "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn display_escapes_quotes_and_newlines() {
        assert_eq!(Term::literal("a\"b\nc\\d").to_string(), "\"a\\\"b\\nc\\\\d\"");
    }

    #[test]
    fn position_validity() {
        assert!(Term::iri("x").is_valid_subject());
        assert!(Term::blank("x").is_valid_subject());
        assert!(!Term::literal("x").is_valid_subject());
        assert!(Term::iri("x").is_valid_predicate());
        assert!(!Term::blank("x").is_valid_predicate());
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Term::literal("z"), Term::iri("a"), Term::blank("m")];
        v.sort();
        // Ordering is derived (variant order: Iri < Blank < Literal); we only
        // require that it is total and stable.
        assert_eq!(v[0], Term::iri("a"));
    }
}
