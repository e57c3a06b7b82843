//! Serializes a parsed [`Query`] back to SPARQL text.
//!
//! The query serializer's output uses full IRIs (no prefixes) and canonical
//! whitespace, and is re-parseable: `parse(serialize(q))` produces a query
//! equal to `q` up to prefix expansion. This gives the parser a strong
//! round-trip property test and lets tools print optimized or rewritten
//! queries. (Solution sequences and their wire formats live in
//! [`crate::results`].)

use crate::ast::{
    Element, Expr, GroupPattern, PatternTerm, Query, Selection, UpdateOp, UpdateRequest,
};
use std::fmt::Write;

/// Renders a query as SPARQL text.
pub fn serialize(q: &Query) -> String {
    let mut out = String::new();
    if q.ask {
        out.push_str("ASK ");
    } else {
        out.push_str("SELECT ");
        if q.distinct {
            out.push_str("DISTINCT ");
        }
        match &q.select {
            Selection::All => out.push_str("* "),
            Selection::Vars(vs) => {
                for v in vs {
                    match q.aggregates.iter().find(|a| &a.alias == v) {
                        Some(agg) => {
                            let _ = write!(out, "({}(", agg.func.keyword());
                            if agg.distinct {
                                out.push_str("DISTINCT ");
                            }
                            match &agg.arg {
                                Some(e) => write_expr(e, &mut out),
                                None => out.push('*'),
                            }
                            let _ = write!(out, ") AS ?{v}) ");
                        }
                        None => {
                            let _ = write!(out, "?{v} ");
                        }
                    }
                }
            }
        }
    }
    out.push_str("WHERE ");
    write_group(&q.body, &mut out, 0);
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY");
        for v in &q.group_by {
            let _ = write!(out, " ?{v}");
        }
    }
    if let Some(h) = &q.having {
        out.push_str(" HAVING(");
        write_expr(h, &mut out);
        out.push(')');
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY");
        for (v, desc) in &q.order_by {
            if *desc {
                let _ = write!(out, " DESC(?{v})");
            } else {
                let _ = write!(out, " ASC(?{v})");
            }
        }
    }
    if let Some(l) = q.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = q.offset {
        let _ = write!(out, " OFFSET {o}");
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_group(g: &GroupPattern, out: &mut String, depth: usize) {
    out.push_str("{\n");
    for el in &g.elements {
        indent(out, depth + 1);
        match el {
            Element::Triple(t) => {
                let _ = write!(
                    out,
                    "{} {} {} .",
                    term(&t.subject),
                    term(&t.predicate),
                    term(&t.object)
                );
            }
            Element::Group(inner) => write_group(inner, out, depth + 1),
            Element::Union(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" UNION ");
                    }
                    write_group(b, out, depth + 1);
                }
            }
            Element::Optional(inner) => {
                out.push_str("OPTIONAL ");
                write_group(inner, out, depth + 1);
            }
            Element::Minus(inner) => {
                out.push_str("MINUS ");
                write_group(inner, out, depth + 1);
            }
            Element::Filter(e) => {
                out.push_str("FILTER(");
                write_expr(e, out);
                out.push(')');
            }
            Element::Bind(e, v) => {
                out.push_str("BIND(");
                write_expr(e, out);
                let _ = write!(out, " AS ?{v})");
            }
            Element::Values(vs, rows) => {
                out.push_str("VALUES (");
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "?{v}");
                }
                out.push_str(") {");
                for row in rows {
                    out.push_str(" (");
                    for (i, cell) in row.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        match cell {
                            Some(t) => {
                                let _ = write!(out, "{t}");
                            }
                            None => out.push_str("UNDEF"),
                        }
                    }
                    out.push(')');
                }
                out.push_str(" }");
            }
        }
        out.push('\n');
    }
    indent(out, depth);
    out.push('}');
}

fn term(t: &PatternTerm) -> String {
    match t {
        PatternTerm::Var(v) => format!("?{v}"),
        PatternTerm::Const(c) => c.to_string(), // N-Triples form is valid SPARQL
    }
}

fn write_binary(op: &str, a: &Expr, b: &Expr, out: &mut String) {
    out.push('(');
    write_expr(a, out);
    let _ = write!(out, " {op} ");
    write_expr(b, out);
    out.push(')');
}

fn write_call(name: &str, args: &[&Expr], out: &mut String) {
    let _ = write!(out, "{name}(");
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(a, out);
    }
    out.push(')');
}

fn write_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Term(t) => {
            let _ = write!(out, "{}", term(t));
        }
        Expr::Eq(a, b) => write_binary("=", a, b, out),
        Expr::Ne(a, b) => write_binary("!=", a, b, out),
        Expr::Lt(a, b) => write_binary("<", a, b, out),
        Expr::Le(a, b) => write_binary("<=", a, b, out),
        Expr::Gt(a, b) => write_binary(">", a, b, out),
        Expr::Ge(a, b) => write_binary(">=", a, b, out),
        Expr::Add(a, b) => write_binary("+", a, b, out),
        Expr::Sub(a, b) => write_binary("-", a, b, out),
        Expr::Mul(a, b) => write_binary("*", a, b, out),
        Expr::Div(a, b) => write_binary("/", a, b, out),
        Expr::In(a, list, negated) => {
            out.push('(');
            write_expr(a, out);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(e, out);
            }
            out.push_str("))");
        }
        Expr::Regex(t, p, f) => match f {
            Some(f) => write_call("REGEX", &[t, p, f], out),
            None => write_call("REGEX", &[t, p], out),
        },
        Expr::StrStarts(a, b) => write_call("STRSTARTS", &[a, b], out),
        Expr::StrEnds(a, b) => write_call("STRENDS", &[a, b], out),
        Expr::Contains(a, b) => write_call("CONTAINS", &[a, b], out),
        Expr::Str(a) => write_call("STR", &[a], out),
        Expr::Lang(a) => write_call("LANG", &[a], out),
        Expr::Datatype(a) => write_call("DATATYPE", &[a], out),
        Expr::Cast(kind, a) => {
            let _ = write!(out, "<{}>(", kind.iri());
            write_expr(a, out);
            out.push(')');
        }
        Expr::Bound(v) => {
            let _ = write!(out, "BOUND(?{v})");
        }
        Expr::IsIri(v) => {
            let _ = write!(out, "isIRI(?{v})");
        }
        Expr::IsLiteral(v) => {
            let _ = write!(out, "isLiteral(?{v})");
        }
        Expr::IsBlank(v) => {
            let _ = write!(out, "isBlank(?{v})");
        }
        Expr::And(a, b) => write_binary("&&", a, b, out),
        Expr::Or(a, b) => write_binary("||", a, b, out),
        Expr::Not(a) => {
            out.push_str("!(");
            write_expr(a, out);
            out.push(')');
        }
    }
}

/// Renders an update request as canonical SPARQL Update text (full IRIs,
/// canonical whitespace, one statement per line, operations separated by
/// `;`). Re-parseable: `parse_update(serialize_update(u))` equals `u` up to
/// prefix expansion.
pub fn serialize_update(u: &UpdateRequest) -> String {
    let mut out = String::new();
    for (i, op) in u.ops.iter().enumerate() {
        if i > 0 {
            out.push_str(" ;\n");
        }
        match op {
            UpdateOp::InsertData(ts) => write_data_block("INSERT DATA", ts, &mut out),
            UpdateOp::DeleteData(ts) => write_data_block("DELETE DATA", ts, &mut out),
            UpdateOp::DeleteWhere(ps) => {
                out.push_str("DELETE WHERE {\n");
                for p in ps {
                    let _ = writeln!(
                        out,
                        "  {} {} {} .",
                        term(&p.subject),
                        term(&p.predicate),
                        term(&p.object)
                    );
                }
                out.push('}');
            }
        }
    }
    out
}

fn write_data_block(keyword: &str, triples: &[crate::ast::DataTriple], out: &mut String) {
    let _ = writeln!(out, "{keyword} {{");
    for t in triples {
        let _ = writeln!(out, "  {} {} {} .", t.subject, t.predicate, t.object);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(q: &str) {
        let first = parse(q).unwrap();
        let text = serialize(&first);
        let second = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(first, second, "round trip changed the query:\n{text}");
    }

    #[test]
    fn round_trips_basic() {
        round_trip("SELECT ?x WHERE { ?x <http://p> ?y . }");
    }

    #[test]
    fn round_trips_union_optional() {
        round_trip(
            "SELECT WHERE {
               ?x <http://p> <http://c> .
               { ?x <http://q> ?n } UNION { ?x <http://r> ?n } UNION { ?n <http://s> ?x }
               OPTIONAL { ?x <http://t> ?w OPTIONAL { ?w <http://u> ?z } }
             }",
        );
    }

    #[test]
    fn round_trips_literals_and_filters() {
        round_trip(
            r#"SELECT DISTINCT ?x WHERE {
               ?x <http://p> "chat"@en .
               ?x <http://q> "1946-08-19"^^<http://www.w3.org/2001/XMLSchema#date> .
               ?x <http://r> 42 .
               FILTER(!(?x != <http://c>) && BOUND(?x))
             } LIMIT 7 OFFSET 2"#,
        );
    }

    #[test]
    fn round_trips_benchmark_shapes() {
        round_trip(
            "SELECT WHERE {
               { ?v2 <http://ub/headOf> ?v1 . } UNION { ?v2 <http://ub/worksFor> ?v1 . }
               ?v2 <http://ub/degreeFrom> ?v3 .
               OPTIONAL { { ?x <http://owl/sameAs> ?same } UNION { ?same <http://owl/sameAs> ?x } }
             }",
        );
    }

    #[test]
    fn round_trips_new_surface() {
        round_trip(
            r#"SELECT ?g (COUNT(DISTINCT ?v) AS ?n) (SUM(?v) AS ?s) WHERE {
                 ?x <http://g> ?g . ?x <http://v> ?v .
                 BIND(?v * 2 AS ?w)
                 VALUES (?g ?u) { (<http://a> 1) (UNDEF "x"@en) }
                 FILTER(REGEX(STR(?x), "^http", "i") && ?v NOT IN (1, 2))
               } GROUP BY ?g HAVING(?n >= 1) ORDER BY ?g LIMIT 3"#,
        );
        round_trip("ASK WHERE { ?x <http://p> ?y FILTER(?y + 1 < 10 / ?y) }");
        round_trip(
            r#"SELECT ?y WHERE {
                 ?x <http://p> ?y
                 FILTER(STRSTARTS(?y, "a") || STRENDS(?y, "b") || CONTAINS(?y, "c"))
                 FILTER(DATATYPE(?y) != <http://www.w3.org/2001/XMLSchema#integer>
                        || LANG(?y) = "en"
                        || <http://www.w3.org/2001/XMLSchema#integer>(?y) = 1)
               }"#,
        );
    }

    #[test]
    fn canonical_keys_distinguish_new_clauses() {
        // The serializer output is the plan-cache key: structurally different
        // queries must never share a serialization.
        let base = "SELECT ?x WHERE { ?x <http://p> ?v }";
        let variants = [
            "SELECT ?x WHERE { ?x <http://p> ?v } GROUP BY ?x",
            "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <http://p> ?v } GROUP BY ?x",
            "SELECT ?x (COUNT(DISTINCT ?v) AS ?n) WHERE { ?x <http://p> ?v } GROUP BY ?x",
            "SELECT ?x WHERE { ?x <http://p> ?v } GROUP BY ?x HAVING(?x > 1)",
            "SELECT ?x WHERE { ?x <http://p> ?v VALUES ?v { 1 } }",
            "SELECT ?x WHERE { ?x <http://p> ?v VALUES ?v { 2 } }",
            "SELECT ?x WHERE { ?x <http://p> ?v BIND(?v AS ?w) }",
            "ASK { ?x <http://p> ?v }",
        ];
        let mut keys = vec![serialize(&parse(base).unwrap())];
        for v in variants {
            keys.push(serialize(&parse(v).unwrap()));
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn serialized_form_is_readable() {
        let q =
            parse("SELECT ?x WHERE { ?x <http://p> ?y OPTIONAL { ?y <http://q> ?z } }").unwrap();
        let text = serialize(&q);
        assert!(text.contains("OPTIONAL {"));
        assert!(text.starts_with("SELECT ?x WHERE {"));
    }

    fn round_trip_update(u: &str) {
        let first = crate::parse_update(u).unwrap();
        let text = serialize_update(&first);
        let second =
            crate::parse_update(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(first, second, "round trip changed the update:\n{text}");
    }

    #[test]
    fn update_round_trips() {
        round_trip_update(r#"INSERT DATA { <http://a> <http://p> "x\"y"@en . }"#);
        round_trip_update(
            "PREFIX ex: <http://ex/>
             INSERT DATA { ex:a ex:p ex:b . _:n ex:p 42 } ;
             DELETE DATA { ex:a ex:p ex:b } ;
             DELETE WHERE { ?s ex:p ?o . ?o ex:q ?z }",
        );
    }

    #[test]
    fn update_serialization_is_canonical() {
        // Whitespace/prefix variants of the same request share one canonical
        // form — the property the (future) caching layers key on.
        let a = crate::parse_update("PREFIX ex: <http://ex/>\nINSERT DATA { ex:a   ex:p   ex:b }")
            .unwrap();
        let b =
            crate::parse_update("INSERT DATA {\n <http://ex/a> <http://ex/p> <http://ex/b> . }")
                .unwrap();
        assert_eq!(serialize_update(&a), serialize_update(&b));
        assert_eq!(
            serialize_update(&a),
            "INSERT DATA {\n  <http://ex/a> <http://ex/p> <http://ex/b> .\n}"
        );
    }
}
