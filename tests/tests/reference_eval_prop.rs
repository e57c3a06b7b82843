//! Differential testing against a naive reference evaluator.
//!
//! The reference implements SPARQL semantics the obvious way — solutions
//! are `BTreeMap<var, Term>`, joins are nested loops over compatible
//! mappings, expressions walk the AST recursively — with none of the
//! production pipeline's machinery (no dictionary encoding, no BE-tree,
//! no plan transformations, no hash joins, no synthetic-id interning).
//! Random queries over random stores must produce the same solution
//! multiset on both production engines under every strategy. A divergence
//! pinpoints a planner/executor bug that hand-written cases missed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_rdf::Term;
use uo_sparql::ast::{AggFunc, CastKind, Element, Expr, GroupPattern, PatternTerm, Query};
use uo_store::{Snapshot, StoreWriter};

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
const RDF_LANGSTRING: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";

// ---------------------------------------------------------------------------
// Reference evaluator: solutions as ordered maps, Terms throughout.
// ---------------------------------------------------------------------------

type Sol = BTreeMap<String, Term>;

fn compatible(a: &Sol, b: &Sol) -> bool {
    b.iter().all(|(k, v)| a.get(k).is_none_or(|x| x == v))
}

fn merge(a: &Sol, b: &Sol) -> Sol {
    let mut m = a.clone();
    for (k, v) in b {
        m.entry(k.clone()).or_insert_with(|| v.clone());
    }
    m
}

fn join(left: Vec<Sol>, right: &[Sol]) -> Vec<Sol> {
    let mut out = Vec::new();
    for l in &left {
        for r in right {
            if compatible(l, r) {
                out.push(merge(l, r));
            }
        }
    }
    out
}

fn bind_slot(sol: &mut Sol, slot: &PatternTerm, value: &Term) -> bool {
    match slot {
        PatternTerm::Const(t) => t == value,
        PatternTerm::Var(v) => match sol.get(v) {
            Some(existing) => existing == value,
            None => {
                sol.insert(v.clone(), value.clone());
                true
            }
        },
    }
}

fn eval_group(group: &GroupPattern, data: &[(Term, Term, Term)]) -> Vec<Sol> {
    let mut rows: Vec<Sol> = vec![Sol::new()];
    for element in &group.elements {
        match element {
            Element::Triple(tp) => {
                let mut out = Vec::new();
                for row in &rows {
                    for (s, p, o) in data {
                        let mut sol = row.clone();
                        if bind_slot(&mut sol, &tp.subject, s)
                            && bind_slot(&mut sol, &tp.predicate, p)
                            && bind_slot(&mut sol, &tp.object, o)
                        {
                            out.push(sol);
                        }
                    }
                }
                rows = out;
            }
            Element::Group(g) => {
                let inner = eval_group(g, data);
                rows = join(rows, &inner);
            }
            Element::Union(branches) => {
                let mut union_rows = Vec::new();
                for b in branches {
                    union_rows.extend(eval_group(b, data));
                }
                rows = join(rows, &union_rows);
            }
            Element::Optional(g) => {
                let inner = eval_group(g, data);
                let mut out = Vec::new();
                for row in &rows {
                    let mut matched = false;
                    for r in &inner {
                        if compatible(row, r) {
                            matched = true;
                            out.push(merge(row, r));
                        }
                    }
                    if !matched {
                        out.push(row.clone());
                    }
                }
                rows = out;
            }
            Element::Minus(g) => {
                let inner = eval_group(g, data);
                rows.retain(|row| {
                    !inner
                        .iter()
                        .any(|r| compatible(row, r) && r.keys().any(|k| row.contains_key(k)))
                });
            }
            Element::Filter(e) => {
                rows.retain(|row| matches!(eval_expr(e, row).map(|t| ebv(&t)), Ok(Ok(true))));
            }
            Element::Bind(e, var) => {
                for row in &mut rows {
                    if let Ok(t) = eval_expr(e, row) {
                        row.insert(var.clone(), t);
                    }
                }
            }
            Element::Values(vars, block) => {
                let block_rows: Vec<Sol> = block
                    .iter()
                    .map(|cells| {
                        vars.iter()
                            .zip(cells)
                            .filter_map(|(v, c)| c.clone().map(|t| (v.clone(), t)))
                            .collect()
                    })
                    .collect();
                rows = join(rows, &block_rows);
            }
        }
    }
    rows
}

// --- expression semantics (SPARQL 1.1 §17, independent re-statement) ------

fn bool_term(b: bool) -> Term {
    Term::typed_literal(if b { "true" } else { "false" }, XSD_BOOLEAN)
}

fn is_integer(t: &Term) -> bool {
    matches!(t, Term::Literal { datatype: Some(dt), .. } if &**dt == XSD_INTEGER)
}

fn numeric_term(n: f64, integer: bool) -> Term {
    if integer {
        return Term::typed_literal(format!("{}", n as i64), XSD_INTEGER);
    }
    let lexical =
        if n.fract() == 0.0 && n.abs() < 9.0e15 { format!("{}", n as i64) } else { format!("{n}") };
    Term::typed_literal(lexical, XSD_DECIMAL)
}

fn ebv(t: &Term) -> Result<bool, ()> {
    match t {
        Term::Literal { lexical, lang: None, datatype: Some(dt) } if &**dt == XSD_BOOLEAN => {
            match &**lexical {
                "true" | "1" => Ok(true),
                "false" | "0" => Ok(false),
                _ => Err(()),
            }
        }
        Term::Literal { lang: None, datatype: Some(dt), .. } if &**dt != XSD_STRING => {
            match t.numeric_value() {
                Some(n) => Ok(n != 0.0 && !n.is_nan()),
                None => Err(()),
            }
        }
        Term::Literal { lexical, .. } => Ok(!lexical.is_empty()),
        _ => Err(()),
    }
}

fn term_eq(a: &Term, b: &Term) -> bool {
    a == b || matches!((a.numeric_value(), b.numeric_value()), (Some(x), Some(y)) if x == y)
}

fn string_value(t: &Term) -> Result<String, ()> {
    match t {
        Term::Literal { lexical, .. } => Ok(lexical.to_string()),
        _ => Err(()),
    }
}

fn compare(a: &Term, b: &Term) -> Result<std::cmp::Ordering, ()> {
    match (a.numeric_value(), b.numeric_value()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).ok_or(()),
        _ => Ok(a.to_string().cmp(&b.to_string())),
    }
}

fn cast(kind: CastKind, t: &Term) -> Result<Term, ()> {
    let lex = match t {
        Term::Literal { lexical, .. } => lexical.to_string(),
        Term::Iri(i) if kind == CastKind::String => i.to_string(),
        _ => return Err(()),
    };
    let trimmed = lex.trim();
    match kind {
        CastKind::String => Ok(Term::literal(lex)),
        CastKind::Boolean => match trimmed {
            "true" | "1" => Ok(bool_term(true)),
            "false" | "0" => Ok(bool_term(false)),
            _ => match t.numeric_value() {
                Some(n) => Ok(bool_term(n != 0.0)),
                None => Err(()),
            },
        },
        CastKind::Integer => {
            let n = t.numeric_value().or_else(|| trimmed.parse::<f64>().ok()).ok_or(())?;
            Ok(Term::typed_literal(format!("{}", n.trunc() as i64), XSD_INTEGER))
        }
        CastKind::Decimal | CastKind::Double => {
            let n = t.numeric_value().or_else(|| trimmed.parse::<f64>().ok()).ok_or(())?;
            Ok(Term::typed_literal(
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                },
                kind.iri(),
            ))
        }
    }
}

fn eval_expr(e: &Expr, sol: &Sol) -> Result<Term, ()> {
    use std::cmp::Ordering;
    let pair = |a: &Expr, b: &Expr| -> Result<(Term, Term), ()> {
        Ok((eval_expr(a, sol)?, eval_expr(b, sol)?))
    };
    let arith = |a: &Expr, b: &Expr, f: fn(f64, f64) -> f64| -> Result<Term, ()> {
        let (x, y) = pair(a, b)?;
        let (nx, ny) = (x.numeric_value().ok_or(())?, y.numeric_value().ok_or(())?);
        Ok(numeric_term(f(nx, ny), is_integer(&x) && is_integer(&y)))
    };
    let ebv_of = |a: &Expr| eval_expr(a, sol).and_then(|t| ebv(&t));
    let type_test = |v: &str, f: fn(&Term) -> bool| -> Result<Term, ()> {
        sol.get(v).map(|t| bool_term(f(t))).ok_or(())
    };
    match e {
        Expr::Term(PatternTerm::Const(t)) => Ok(t.clone()),
        Expr::Term(PatternTerm::Var(v)) => sol.get(v).cloned().ok_or(()),
        Expr::Eq(a, b) => pair(a, b).map(|(x, y)| bool_term(term_eq(&x, &y))),
        Expr::Ne(a, b) => pair(a, b).map(|(x, y)| bool_term(!term_eq(&x, &y))),
        Expr::Lt(a, b) => {
            pair(a, b).and_then(|(x, y)| compare(&x, &y)).map(|o| bool_term(o == Ordering::Less))
        }
        Expr::Le(a, b) => {
            pair(a, b).and_then(|(x, y)| compare(&x, &y)).map(|o| bool_term(o != Ordering::Greater))
        }
        Expr::Gt(a, b) => {
            pair(a, b).and_then(|(x, y)| compare(&x, &y)).map(|o| bool_term(o == Ordering::Greater))
        }
        Expr::Ge(a, b) => {
            pair(a, b).and_then(|(x, y)| compare(&x, &y)).map(|o| bool_term(o != Ordering::Less))
        }
        Expr::Add(a, b) => arith(a, b, |x, y| x + y),
        Expr::Sub(a, b) => arith(a, b, |x, y| x - y),
        Expr::Mul(a, b) => arith(a, b, |x, y| x * y),
        Expr::Div(a, b) => {
            let (x, y) = pair(a, b)?;
            let (nx, ny) = (x.numeric_value().ok_or(())?, y.numeric_value().ok_or(())?);
            if ny == 0.0 {
                return Err(());
            }
            Ok(numeric_term(nx / ny, false))
        }
        Expr::In(a, items, negated) => {
            let left = eval_expr(a, sol)?;
            let mut saw_error = false;
            for item in items {
                match eval_expr(item, sol) {
                    Ok(t) if term_eq(&left, &t) => return Ok(bool_term(!negated)),
                    Ok(_) => {}
                    Err(()) => saw_error = true,
                }
            }
            if saw_error {
                Err(())
            } else {
                Ok(bool_term(*negated))
            }
        }
        Expr::Regex(text, pattern, flags) => {
            let t = string_value(&eval_expr(text, sol)?)?;
            let p = string_value(&eval_expr(pattern, sol)?)?;
            let f = match flags {
                Some(fe) => string_value(&eval_expr(fe, sol)?)?,
                None => String::new(),
            };
            let re = uo_sparql::Regex::new(&p, &f).map_err(|_| ())?;
            Ok(bool_term(re.is_match(&t)))
        }
        Expr::StrStarts(a, b) => {
            let (x, y) = pair(a, b)?;
            Ok(bool_term(string_value(&x)?.starts_with(&string_value(&y)?)))
        }
        Expr::StrEnds(a, b) => {
            let (x, y) = pair(a, b)?;
            Ok(bool_term(string_value(&x)?.ends_with(&string_value(&y)?)))
        }
        Expr::Contains(a, b) => {
            let (x, y) = pair(a, b)?;
            Ok(bool_term(string_value(&x)?.contains(&string_value(&y)?)))
        }
        Expr::Str(a) => match eval_expr(a, sol)? {
            Term::Iri(i) => Ok(Term::literal(i)),
            Term::Literal { lexical, .. } => Ok(Term::literal(lexical)),
            Term::Blank(_) => Err(()),
        },
        Expr::Lang(a) => match eval_expr(a, sol)? {
            Term::Literal { lang, .. } => Ok(Term::literal(lang.as_deref().unwrap_or(""))),
            _ => Err(()),
        },
        Expr::Datatype(a) => match eval_expr(a, sol)? {
            Term::Literal { lang: Some(_), .. } => Ok(Term::iri(RDF_LANGSTRING)),
            Term::Literal { datatype: Some(dt), .. } => Ok(Term::iri(dt)),
            Term::Literal { .. } => Ok(Term::iri(XSD_STRING)),
            _ => Err(()),
        },
        Expr::Cast(kind, a) => cast(*kind, &eval_expr(a, sol)?),
        Expr::Bound(v) => Ok(bool_term(sol.contains_key(v))),
        Expr::IsIri(v) => type_test(v, Term::is_iri),
        Expr::IsLiteral(v) => type_test(v, Term::is_literal),
        Expr::IsBlank(v) => type_test(v, Term::is_blank),
        Expr::And(a, b) => match (ebv_of(a), ebv_of(b)) {
            (Ok(false), _) | (_, Ok(false)) => Ok(bool_term(false)),
            (Ok(true), Ok(true)) => Ok(bool_term(true)),
            _ => Err(()),
        },
        Expr::Or(a, b) => match (ebv_of(a), ebv_of(b)) {
            (Ok(true), _) | (_, Ok(true)) => Ok(bool_term(true)),
            (Ok(false), Ok(false)) => Ok(bool_term(false)),
            _ => Err(()),
        },
        Expr::Not(a) => Ok(bool_term(!ebv_of(a)?)),
    }
}

// --- grouping / aggregation over reference solutions -----------------------

fn eval_aggregate(
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expr>,
    members: &[Sol],
) -> Option<Term> {
    let Some(arg) = arg else {
        // COUNT(*): count rows (whole-row distinct when requested).
        let n = if distinct {
            let mut seen: Vec<&Sol> = Vec::new();
            for m in members {
                if !seen.contains(&m) {
                    seen.push(m);
                }
            }
            seen.len()
        } else {
            members.len()
        };
        return Some(Term::typed_literal(format!("{n}"), XSD_INTEGER));
    };
    let mut terms: Vec<Term> = members.iter().filter_map(|m| eval_expr(arg, m).ok()).collect();
    if distinct {
        let mut seen: Vec<Term> = Vec::new();
        terms.retain(|t| {
            if seen.contains(t) {
                false
            } else {
                seen.push(t.clone());
                true
            }
        });
    }
    match func {
        AggFunc::Count => Some(Term::typed_literal(format!("{}", terms.len()), XSD_INTEGER)),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0;
            let mut all_int = true;
            for t in &terms {
                sum += t.numeric_value()?;
                all_int &= is_integer(t);
            }
            if func == AggFunc::Sum {
                Some(numeric_term(sum, all_int))
            } else if terms.is_empty() {
                Some(Term::typed_literal("0", XSD_DECIMAL))
            } else {
                Some(numeric_term(sum / terms.len() as f64, false))
            }
        }
        AggFunc::Min => terms.into_iter().min_by(ref_term_order),
        AggFunc::Max => terms.into_iter().max_by(ref_term_order),
    }
}

/// SPARQL ordering on terms: blanks < IRIs < numeric literals (by value)
/// < other literals (by lexical form, then language, then datatype).
fn ref_term_order(a: &Term, b: &Term) -> std::cmp::Ordering {
    fn key(t: &Term) -> (u8, f64, String) {
        match t {
            Term::Blank(_) => (1, 0.0, t.to_string()),
            Term::Iri(_) => (2, 0.0, t.to_string()),
            Term::Literal { lexical, lang, datatype } => match t.numeric_value() {
                Some(n) => (3, n, t.to_string()),
                None => {
                    let lang = lang.as_deref().unwrap_or("");
                    let datatype = datatype.as_deref().unwrap_or("");
                    (4, 0.0, format!("{lexical}\u{0}{lang}\u{0}{datatype}"))
                }
            },
        }
    }
    let (ka, kb) = (key(a), key(b));
    ka.0.cmp(&kb.0)
        .then(ka.1.partial_cmp(&kb.1).unwrap_or(std::cmp::Ordering::Equal))
        .then(ka.2.cmp(&kb.2))
}

fn reference_solutions(query: &Query, data: &[(Term, Term, Term)]) -> Vec<Sol> {
    let rows = eval_group(&query.body, data);
    if !query.is_aggregated() && query.having.is_none() {
        return rows;
    }
    // Group on the GROUP BY variables (unbound cells keyed as None).
    let mut groups: Vec<(Vec<Option<Term>>, Vec<Sol>)> = Vec::new();
    for row in rows {
        let key: Vec<Option<Term>> = query.group_by.iter().map(|v| row.get(v).cloned()).collect();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut out = Vec::new();
    for (key, members) in groups {
        let mut sol = Sol::new();
        for (v, t) in query.group_by.iter().zip(key) {
            if let Some(t) = t {
                sol.insert(v.clone(), t);
            }
        }
        for agg in &query.aggregates {
            if let Some(t) = eval_aggregate(agg.func, agg.distinct, agg.arg.as_ref(), &members) {
                sol.insert(agg.alias.clone(), t);
            }
        }
        if let Some(h) = &query.having {
            if !matches!(eval_expr(h, &sol).map(|t| ebv(&t)), Ok(Ok(true))) {
                continue;
            }
        }
        out.push(sol);
    }
    out
}

// ---------------------------------------------------------------------------
// Random stores and queries.
// ---------------------------------------------------------------------------

const N_ENTITIES: u32 = 12;
const N_PREDICATES: u32 = 3;

fn entity(i: u32) -> Term {
    Term::iri(format!("http://e{i}"))
}

fn predicate(i: u32) -> Term {
    Term::iri(format!("http://p{i}"))
}

fn random_data(seed: u64) -> Vec<(Term, Term, Term)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_da7a);
    let mut data = Vec::new();
    for _ in 0..rng.gen_range(20..60) {
        data.push((
            entity(rng.gen_range(0..N_ENTITIES)),
            predicate(rng.gen_range(0..N_PREDICATES)),
            entity(rng.gen_range(0..N_ENTITIES)),
        ));
    }
    // Integer-valued triples for arithmetic/aggregate coverage.
    for _ in 0..rng.gen_range(4..12) {
        data.push((
            entity(rng.gen_range(0..N_ENTITIES)),
            Term::iri("http://val"),
            Term::typed_literal(format!("{}", rng.gen_range(0..50)), XSD_INTEGER),
        ));
    }
    data.sort_by_key(|t| format!("{t:?}"));
    data.dedup();
    data
}

fn store_from(data: &[(Term, Term, Term)]) -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    for (s, p, o) in data {
        st.insert_terms(s, p, o);
    }
    st.commit()
}

/// A random FILTER constraint over `?x` (IRI-valued), `?n` (integer-valued)
/// and optionally `?z` (an OPTIONAL-bound variable).
fn random_filter(rng: &mut StdRng, has_opt: bool) -> String {
    let c = rng.gen_range(0..50);
    match rng.gen_range(0..if has_opt { 8 } else { 7 }) {
        0 => format!("FILTER(?n > {c})"),
        1 => format!("FILTER(?n + {} <= {c})", rng.gen_range(0..10)),
        2 => format!("FILTER(?n IN ({}, {}, {c}))", rng.gen_range(0..50), rng.gen_range(0..50)),
        3 => format!("FILTER(STRSTARTS(STR(?x), \"http://e{}\"))", rng.gen_range(0..N_ENTITIES)),
        4 => format!("FILTER(?x != <http://e{}>)", rng.gen_range(0..N_ENTITIES)),
        5 => format!("FILTER(?n = {c} || ?n > {})", rng.gen_range(0..50)),
        6 => format!("FILTER(CONTAINS(STR(?x), \"e{}\"))", rng.gen_range(0..N_ENTITIES)),
        _ => "FILTER(BOUND(?z))".to_string(),
    }
}

/// A random SELECT query over the generator's vocabulary. Always binds
/// `?x` (entity) and `?n` (integer) so filters and BINDs are exercised on
/// live rows, then layers optional features on top.
fn random_select(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd_ba11);
    let mut q = String::from("SELECT WHERE {\n");
    let p0 = rng.gen_range(0..N_PREDICATES);
    let _ = writeln!(q, "  ?x <http://p{p0}> ?y .");
    let _ = writeln!(q, "  ?x <http://val> ?n .");
    if rng.gen_bool(0.4) {
        let _ = writeln!(q, "  BIND(?n + {} AS ?m)", rng.gen_range(1..10));
    }
    match rng.gen_range(0..5) {
        0 => {
            let _ =
                writeln!(q, "  OPTIONAL {{ ?y <http://p{}> ?z }}", rng.gen_range(0..N_PREDICATES));
        }
        1 => {
            let _ = writeln!(
                q,
                "  {{ ?y <http://p{}> ?w }} UNION {{ ?y <http://p{}> ?w }}",
                rng.gen_range(0..N_PREDICATES),
                rng.gen_range(0..N_PREDICATES)
            );
        }
        2 => {
            let _ = writeln!(
                q,
                "  MINUS {{ ?x <http://p{}> <http://e{}> }}",
                rng.gen_range(0..N_PREDICATES),
                rng.gen_range(0..N_ENTITIES)
            );
        }
        3 => {
            let _ = writeln!(
                q,
                "  VALUES ?x {{ <http://e{}> <http://e{}> <http://e{}> }}",
                rng.gen_range(0..N_ENTITIES),
                rng.gen_range(0..N_ENTITIES),
                rng.gen_range(0..N_ENTITIES)
            );
        }
        _ => {}
    }
    let has_opt = q.contains("OPTIONAL");
    if rng.gen_bool(0.7) {
        let _ = writeln!(q, "  {}", random_filter(&mut rng, has_opt));
    }
    q.push('}');
    q
}

/// A random aggregate query: GROUP BY an entity variable (or nothing) with
/// one or two aggregates over the integer-valued `?n`, optionally HAVING.
fn random_aggregate(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa66_41ca);
    let group = rng.gen_bool(0.6);
    let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
    let agg = match rng.gen_range(0..5) {
        0 => format!("(COUNT({distinct}*) AS ?a)"),
        1 => format!("(COUNT({distinct}?n) AS ?a)"),
        2 => format!("(SUM({distinct}?n) AS ?a)"),
        3 => "(MIN(?n) AS ?a)".to_string(),
        _ => "(MAX(?n) AS ?a)".to_string(),
    };
    let select = if group { format!("?y {agg}") } else { agg };
    let p = rng.gen_range(0..N_PREDICATES);
    let mut q =
        format!("SELECT {select} WHERE {{\n  ?x <http://p{p}> ?y .\n  ?x <http://val> ?n .\n}}");
    if group {
        q.push_str("\nGROUP BY ?y");
        if rng.gen_bool(0.4) {
            let _ = write!(q, "\nHAVING(?a >= {})", rng.gen_range(0..4));
        }
    }
    q
}

// ---------------------------------------------------------------------------
// Comparison: project both sides to string rows, compare as multisets.
// ---------------------------------------------------------------------------

fn project_reference(sols: &[Sol], projection: &[String]) -> Vec<Vec<Option<String>>> {
    let mut rows: Vec<Vec<Option<String>>> = sols
        .iter()
        .map(|s| projection.iter().map(|v| s.get(v).map(|t| t.to_string())).collect())
        .collect();
    rows.sort();
    rows
}

fn project_engine(rows: &[Vec<Option<Term>>]) -> Vec<Vec<Option<String>>> {
    let mut out: Vec<Vec<Option<String>>> = rows
        .iter()
        .map(|r| r.iter().map(|t| t.as_ref().map(|t| t.to_string())).collect())
        .collect();
    out.sort();
    out
}

fn check_query(text: &str, seed: u64) -> Result<(), TestCaseError> {
    let data = random_data(seed);
    let store = store_from(&data);
    let parsed = uo_sparql::parse(text).expect("generated query must parse");
    let expected = project_reference(&reference_solutions(&parsed, &data), &parsed.projection());
    for engine_name in ["wco", "binary"] {
        let engine: Box<dyn BgpEngine> = match engine_name {
            "wco" => Box::new(WcoEngine::sequential()),
            _ => Box::new(BinaryJoinEngine::sequential()),
        };
        for strategy in Strategy::ALL {
            let report =
                run_query_with(&store, engine.as_ref(), text, strategy, Parallelism::sequential())
                    .expect("query must execute");
            let got = project_engine(&report.results);
            prop_assert_eq!(
                &got,
                &expected,
                "{} under {} diverged from reference\nquery:\n{}",
                engine_name,
                strategy,
                text
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random SELECT queries (triples, OPTIONAL/UNION/MINUS/VALUES, BIND,
    /// FILTER expressions) agree with the reference on both engines under
    /// every strategy.
    #[test]
    fn engines_match_reference_on_select(seed in 0u64..100_000) {
        check_query(&random_select(seed), seed)?;
    }

    /// Random aggregate queries (GROUP BY / HAVING / COUNT / SUM / MIN /
    /// MAX, with DISTINCT) agree with the reference.
    #[test]
    fn engines_match_reference_on_aggregates(seed in 0u64..100_000) {
        check_query(&random_aggregate(seed), seed)?;
    }

    /// LIMIT/OFFSET — with and without ORDER BY — agree with naive
    /// full-materialize-then-slice on both engines, under every strategy,
    /// at 1/2/4 workers. This pins the early-termination row budget and
    /// the bounded top-k sort to the semantics of the unbudgeted pipeline:
    /// the sliced full run *is* the spec, the budgeted run must match it
    /// byte for byte (without ORDER BY the slice is taken in the engine's
    /// own deterministic order, which parallel determinism makes
    /// well-defined).
    #[test]
    fn engines_match_naive_slicing_under_limit(seed in 0u64..100_000) {
        let data = random_data(seed);
        let store = store_from(&data);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11_417);
        let base = random_select(seed);
        let order = match rng.gen_range(0..3) {
            0 => "",
            1 => "\nORDER BY ?x ?n",
            _ => "\nORDER BY DESC(?n) ?x",
        };
        let lim = rng.gen_range(0usize..12);
        let off = if rng.gen_bool(0.5) { rng.gen_range(0usize..6) } else { 0 };
        let full_q = format!("{base}{order}");
        let lim_q = format!("{base}{order}\nLIMIT {lim} OFFSET {off}");
        for engine_name in ["wco", "binary"] {
            for strategy in Strategy::ALL {
                let mk = |threads: usize| -> Box<dyn BgpEngine> {
                    match engine_name {
                        "wco" => Box::new(WcoEngine::with_threads(threads)),
                        _ => Box::new(BinaryJoinEngine::with_threads(threads)),
                    }
                };
                let seq = mk(1);
                let full = run_query_with(
                    &store, seq.as_ref(), &full_q, strategy, Parallelism::sequential(),
                ).expect("query must execute");
                let want: Vec<_> =
                    full.results.iter().skip(off).take(lim).cloned().collect();
                for threads in [1usize, 2, 4] {
                    let engine = mk(threads);
                    let got = run_query_with(
                        &store, engine.as_ref(), &lim_q, strategy, Parallelism::new(threads),
                    ).expect("query must execute");
                    prop_assert_eq!(
                        &got.results,
                        &want,
                        "{} under {} at {} workers diverged from naive slice\nquery:\n{}",
                        engine_name,
                        strategy,
                        threads,
                        &lim_q
                    );
                    prop_assert!(
                        got.exec_stats.rows_enumerated <= full.exec_stats.rows_enumerated,
                        "budgeted run enumerated more rows ({} > {}) on {}\nquery:\n{}",
                        got.exec_stats.rows_enumerated,
                        full.exec_stats.rows_enumerated,
                        engine_name,
                        &lim_q
                    );
                }
            }
        }
    }

    /// ASK queries agree with the reference's emptiness check.
    #[test]
    fn engines_match_reference_on_ask(seed in 0u64..100_000) {
        let data = random_data(seed);
        let store = store_from(&data);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5_a5a5);
        let text = format!(
            "ASK {{ ?x <http://p{}> ?y . ?x <http://val> ?n FILTER(?n > {}) }}",
            rng.gen_range(0..N_PREDICATES),
            rng.gen_range(0..50)
        );
        let parsed = uo_sparql::parse(&text).expect("generated query must parse");
        let expected = !reference_solutions(&parsed, &data).is_empty();
        for strategy in Strategy::ALL {
            let report = run_query_with(
                &store,
                &WcoEngine::sequential(),
                &text,
                strategy,
                Parallelism::sequential(),
            )
            .expect("query must execute");
            prop_assert_eq!(report.ask, Some(expected), "ASK diverged: {}", &text);
        }
    }
}
