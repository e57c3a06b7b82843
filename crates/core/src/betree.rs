//! The BGP-based Evaluation tree (BE-tree, Definition 8).
//!
//! A BE-tree is the paper's plan representation for SPARQL-UO queries:
//!
//! - the root is a *group graph pattern node* ([`GroupNode`]);
//! - internal nodes are group graph pattern, `UNION` or `OPTIONAL` nodes;
//! - leaves are *maximal* BGP nodes (no further coalescing possible).
//!
//! Construction from a parsed query ([`BeTree::build`]) mirrors Section 4.1:
//! each sibling triple pattern starts as a singleton BGP, then sibling BGPs
//! are coalesced (Definitions 3–4) until maximal, each coalesced BGP placed
//! where its leftmost constituent originally resided. Joins between siblings
//! remain implicit in the sibling order, exactly as Algorithm 1 consumes
//! them.

use std::collections::HashMap;
use std::sync::Mutex;
use uo_engine::{encode_bgp, EncodedBgp, EncodedTriplePattern, Slot};
use uo_rdf::{Dictionary, Id, Term, NO_ID};
use uo_sparql::algebra::{bit, VarId, VarMask, VarTable};
use uo_sparql::ast::{CastKind, Element, Expr, GroupPattern, PatternTerm, Query};

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
const RDF_LANGSTRING: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";

/// A leaf BGP node.
#[derive(Debug, Clone, PartialEq)]
pub struct BgpNode {
    /// The encoded BGP.
    pub bgp: EncodedBgp,
    /// Cached result-size estimate, filled in by the cost-driven optimizer
    /// and reused as the adaptive candidate-pruning threshold (Section 6).
    pub est_cardinality: Option<f64>,
}

impl BgpNode {
    /// Wraps an encoded BGP.
    pub fn new(bgp: EncodedBgp) -> Self {
        BgpNode { bgp, est_cardinality: None }
    }

    /// Mask of variables appearing in the BGP.
    pub fn var_mask(&self) -> VarMask {
        self.bgp.var_mask()
    }

    /// BGP coalescability (Definition 4): some constituent triple patterns
    /// share a variable at a subject/object position.
    pub fn coalescable_with(&self, other: &BgpNode) -> bool {
        bgps_coalescable(&self.bgp, &other.bgp)
    }
}

/// Definition 4 on encoded BGPs.
pub fn bgps_coalescable(a: &EncodedBgp, b: &EncodedBgp) -> bool {
    let join_mask = |bgp: &EncodedBgp| -> VarMask {
        bgp.patterns
            .iter()
            .flat_map(|p| [p.s, p.o])
            .filter_map(|s| s.as_var())
            .fold(0, |m, v| m | bit(v))
    };
    join_mask(a) & join_mask(b) != 0
}

/// One operand of an encoded FILTER comparison: a variable (resolved
/// against the row + dictionary) or a constant term. Constants are kept as
/// terms, not dictionary ids — a filter constant need not occur in the data
/// (`FILTER(?a < 10)` must work even if no triple contains `10`).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterOperand {
    /// A query variable.
    Var(VarId),
    /// A constant term.
    Const(uo_rdf::Term),
}

/// A SPARQL expression error (type error, unbound variable, division by
/// zero, invalid regex, failed cast). Errors propagate upward per the
/// SPARQL 1.1 semantics: a FILTER or HAVING whose condition errors drops
/// the row; a BIND whose expression errors leaves the target unbound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprError;

/// Decoding/interning context for expression evaluation: the store's base
/// dictionary plus *synthetic* terms minted during one execution by BIND,
/// VALUES constants absent from the data, and aggregate outputs. Synthetic
/// ids are allocated densely above the base dictionary's range, so they can
/// never collide with — or accidentally join against — scan results.
pub struct EvalCtx<'a> {
    dict: &'a Dictionary,
    extra: Mutex<ExtraTerms>,
}

#[derive(Default)]
struct ExtraTerms {
    terms: Vec<Term>,
    map: HashMap<Term, Id>,
}

impl<'a> EvalCtx<'a> {
    /// Wraps a base dictionary with an empty synthetic-term table.
    pub fn new(dict: &'a Dictionary) -> Self {
        EvalCtx { dict, extra: Mutex::new(ExtraTerms::default()) }
    }

    /// The base dictionary.
    pub fn dictionary(&self) -> &'a Dictionary {
        self.dict
    }

    /// Decodes an id to an owned term, consulting the base dictionary first
    /// and then the synthetic table.
    pub fn decode(&self, id: Id) -> Option<Term> {
        if id == NO_ID {
            return None;
        }
        let base = self.dict.len() as Id;
        if id <= base {
            return self.dict.decode(id).cloned();
        }
        let extra = self.extra.lock().unwrap();
        extra.terms.get((id - base - 1) as usize).cloned()
    }

    /// Ends the context, keeping its synthetic terms: the term of synthetic
    /// id `dictionary().len() + 1 + i` is element `i`.
    pub fn into_extra_terms(self) -> Vec<Term> {
        self.extra.into_inner().expect("no evaluation thread panicked while interning").terms
    }

    /// Interns a term: terms present in the data reuse their dictionary id
    /// (so computed values still join against scan results); novel terms get
    /// a synthetic id. Equal terms always receive the same id.
    pub fn intern(&self, t: &Term) -> Id {
        if let Some(id) = self.dict.lookup(t) {
            return id;
        }
        let base = self.dict.len() as Id;
        let mut extra = self.extra.lock().unwrap();
        if let Some(&id) = extra.map.get(t) {
            return id;
        }
        extra.terms.push(t.clone());
        let id = base + extra.terms.len() as Id;
        extra.map.insert(t.clone(), id);
        id
    }
}

/// An encoded expression over the query's variable frame: the recursive
/// SPARQL 1.1 expression core (arithmetic, comparisons, `IN`, string and
/// type builtins, `REGEX`, XSD constructor casts, boolean connectives).
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedExpr {
    /// A leaf: a variable or constant term.
    Term(FilterOperand),
    /// Term equality `a = b` (numeric literals also equal by value).
    Eq(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Inequality.
    Ne(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Value comparison `a < b` (numeric when both sides are numeric
    /// literals, else on the terms' string forms).
    Lt(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `a <= b`.
    Le(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `a > b`.
    Gt(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `a >= b`.
    Ge(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Numeric addition.
    Add(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Numeric subtraction.
    Sub(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Numeric multiplication.
    Mul(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Numeric division (always xsd:decimal; division by zero errors).
    Div(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `a IN (…)` / `a NOT IN (…)` when the flag is true.
    In(Box<EncodedExpr>, Vec<EncodedExpr>, bool),
    /// `REGEX(text, pattern[, flags])`.
    Regex(Box<EncodedExpr>, Box<EncodedExpr>, Option<Box<EncodedExpr>>),
    /// `STRSTARTS(a, b)`.
    StrStarts(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `STRENDS(a, b)`.
    StrEnds(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `CONTAINS(a, b)`.
    Contains(Box<EncodedExpr>, Box<EncodedExpr>),
    /// `STR(a)`: the lexical form of a literal or the string of an IRI.
    Str(Box<EncodedExpr>),
    /// `LANG(a)`: the language tag of a literal (empty if none).
    Lang(Box<EncodedExpr>),
    /// `DATATYPE(a)`: the datatype IRI of a literal.
    Datatype(Box<EncodedExpr>),
    /// An XSD constructor cast, e.g. `xsd:integer(?x)`.
    Cast(CastKind, Box<EncodedExpr>),
    /// `BOUND(?v)` — the one form that never errors on unbound input.
    Bound(VarId),
    /// `isIRI(?v)`.
    IsIri(VarId),
    /// `isLiteral(?v)`.
    IsLiteral(VarId),
    /// `isBlank(?v)`.
    IsBlank(VarId),
    /// Conjunction (SPARQL three-valued: `false && error` is false).
    And(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Disjunction (`true || error` is true).
    Or(Box<EncodedExpr>, Box<EncodedExpr>),
    /// Negation.
    Not(Box<EncodedExpr>),
}

fn bool_term(b: bool) -> Term {
    Term::typed_literal(if b { "true" } else { "false" }, XSD_BOOLEAN)
}

pub(crate) fn is_integer_term(t: &Term) -> bool {
    matches!(t, Term::Literal { datatype: Some(dt), .. } if &**dt == XSD_INTEGER)
}

/// Formats an f64 arithmetic result as a numeric literal. Integer-valued
/// results print without a fractional part so `2 + 3` yields `"5"`.
pub(crate) fn numeric_term(n: f64, integer: bool) -> Term {
    if integer {
        return Term::typed_literal(format!("{}", n as i64), XSD_INTEGER);
    }
    let lexical =
        if n.fract() == 0.0 && n.abs() < 9.0e15 { format!("{}", n as i64) } else { format!("{n}") };
    Term::typed_literal(lexical, XSD_DECIMAL)
}

/// The effective boolean value (SPARQL 17.2.2) of a term.
fn ebv(t: &Term) -> Result<bool, ExprError> {
    match t {
        Term::Literal { lexical, lang: None, datatype: Some(dt) } if &**dt == XSD_BOOLEAN => {
            match &**lexical {
                "true" | "1" => Ok(true),
                "false" | "0" => Ok(false),
                _ => Err(ExprError),
            }
        }
        Term::Literal { lang: None, datatype: Some(dt), .. } if &**dt != XSD_STRING => {
            match t.numeric_value() {
                Some(n) => Ok(n != 0.0 && !n.is_nan()),
                None => Err(ExprError),
            }
        }
        Term::Literal { lexical, .. } => Ok(!lexical.is_empty()),
        _ => Err(ExprError),
    }
}

/// The string value of a term for string builtins: the lexical form of a
/// literal. IRIs and blanks are type errors.
fn string_value(t: &Term) -> Result<String, ExprError> {
    match t {
        Term::Literal { lexical, .. } => Ok(lexical.to_string()),
        _ => Err(ExprError),
    }
}

fn cast_term(kind: CastKind, t: &Term) -> Result<Term, ExprError> {
    let lex = match t {
        Term::Literal { lexical, .. } => lexical.to_string(),
        Term::Iri(i) if kind == CastKind::String => i.to_string(),
        _ => return Err(ExprError),
    };
    let trimmed = lex.trim();
    match kind {
        CastKind::String => Ok(Term::literal(lex)),
        CastKind::Boolean => match trimmed {
            "true" | "1" => Ok(bool_term(true)),
            "false" | "0" => Ok(bool_term(false)),
            _ => match t.numeric_value() {
                Some(n) => Ok(bool_term(n != 0.0)),
                None => Err(ExprError),
            },
        },
        CastKind::Integer => {
            let n = t.numeric_value().or_else(|| trimmed.parse::<f64>().ok()).ok_or(ExprError)?;
            Ok(Term::typed_literal(format!("{}", n.trunc() as i64), XSD_INTEGER))
        }
        CastKind::Decimal | CastKind::Double => {
            let n = t.numeric_value().or_else(|| trimmed.parse::<f64>().ok()).ok_or(ExprError)?;
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

impl EncodedExpr {
    /// Evaluates the expression to a term. `Err` is a SPARQL expression
    /// error (unbound variable, type error, division by zero, bad regex).
    pub fn eval_term(&self, row: &[Id], ctx: &EvalCtx) -> Result<Term, ExprError> {
        use std::cmp::Ordering;
        let both = |a: &EncodedExpr, b: &EncodedExpr| -> Result<(Term, Term), ExprError> {
            Ok((a.eval_term(row, ctx)?, b.eval_term(row, ctx)?))
        };
        let cmp = |a: &EncodedExpr, b: &EncodedExpr| -> Result<Ordering, ExprError> {
            let (x, y) = both(a, b)?;
            match (x.numeric_value(), y.numeric_value()) {
                (Some(nx), Some(ny)) => nx.partial_cmp(&ny).ok_or(ExprError),
                // Fall back to ordering on the display form (covers plain
                // strings, dates in ISO form, IRIs).
                _ => Ok(x.to_string().cmp(&y.to_string())),
            }
        };
        let arith = |a: &EncodedExpr,
                     b: &EncodedExpr,
                     f: fn(f64, f64) -> f64,
                     int_result: bool|
         -> Result<Term, ExprError> {
            let (x, y) = both(a, b)?;
            let (nx, ny) =
                (x.numeric_value().ok_or(ExprError)?, y.numeric_value().ok_or(ExprError)?);
            let integer = int_result && is_integer_term(&x) && is_integer_term(&y);
            Ok(numeric_term(f(nx, ny), integer))
        };
        let type_test = |v: &VarId, f: fn(&Term) -> bool| -> Result<Term, ExprError> {
            let x = row[*v as usize];
            if x == NO_ID {
                return Err(ExprError);
            }
            Ok(bool_term(ctx.decode(x).map(|t| f(&t)).unwrap_or(false)))
        };
        match self {
            EncodedExpr::Term(op) => match op {
                FilterOperand::Const(t) => Ok(t.clone()),
                FilterOperand::Var(v) => {
                    let x = row[*v as usize];
                    if x == NO_ID {
                        return Err(ExprError);
                    }
                    ctx.decode(x).ok_or(ExprError)
                }
            },
            EncodedExpr::Eq(a, b) => both(a, b).map(|(x, y)| bool_term(term_eq(&x, &y))),
            EncodedExpr::Ne(a, b) => both(a, b).map(|(x, y)| bool_term(!term_eq(&x, &y))),
            EncodedExpr::Lt(a, b) => cmp(a, b).map(|o| bool_term(o == Ordering::Less)),
            EncodedExpr::Le(a, b) => cmp(a, b).map(|o| bool_term(o != Ordering::Greater)),
            EncodedExpr::Gt(a, b) => cmp(a, b).map(|o| bool_term(o == Ordering::Greater)),
            EncodedExpr::Ge(a, b) => cmp(a, b).map(|o| bool_term(o != Ordering::Less)),
            EncodedExpr::Add(a, b) => arith(a, b, |x, y| x + y, true),
            EncodedExpr::Sub(a, b) => arith(a, b, |x, y| x - y, true),
            EncodedExpr::Mul(a, b) => arith(a, b, |x, y| x * y, true),
            EncodedExpr::Div(a, b) => {
                let (x, y) = both(a, b)?;
                let (nx, ny) =
                    (x.numeric_value().ok_or(ExprError)?, y.numeric_value().ok_or(ExprError)?);
                if ny == 0.0 {
                    return Err(ExprError);
                }
                Ok(numeric_term(nx / ny, false))
            }
            EncodedExpr::In(a, items, negated) => {
                let left = a.eval_term(row, ctx)?;
                let mut saw_error = false;
                for item in items {
                    match item.eval_term(row, ctx) {
                        Ok(t) if term_eq(&left, &t) => return Ok(bool_term(!negated)),
                        Ok(_) => {}
                        Err(_) => saw_error = true,
                    }
                }
                if saw_error {
                    Err(ExprError)
                } else {
                    Ok(bool_term(*negated))
                }
            }
            EncodedExpr::Regex(text, pattern, flags) => {
                let t = string_value(&text.eval_term(row, ctx)?)?;
                let p = string_value(&pattern.eval_term(row, ctx)?)?;
                let f = match flags {
                    Some(fe) => string_value(&fe.eval_term(row, ctx)?)?,
                    None => String::new(),
                };
                let re = uo_sparql::Regex::new(&p, &f).map_err(|_| ExprError)?;
                Ok(bool_term(re.is_match(&t)))
            }
            EncodedExpr::StrStarts(a, b) => {
                let (x, y) = both(a, b)?;
                Ok(bool_term(string_value(&x)?.starts_with(&string_value(&y)?)))
            }
            EncodedExpr::StrEnds(a, b) => {
                let (x, y) = both(a, b)?;
                Ok(bool_term(string_value(&x)?.ends_with(&string_value(&y)?)))
            }
            EncodedExpr::Contains(a, b) => {
                let (x, y) = both(a, b)?;
                Ok(bool_term(string_value(&x)?.contains(&string_value(&y)?)))
            }
            EncodedExpr::Str(a) => match a.eval_term(row, ctx)? {
                Term::Iri(i) => Ok(Term::literal(i)),
                Term::Literal { lexical, .. } => Ok(Term::literal(lexical)),
                Term::Blank(_) => Err(ExprError),
            },
            EncodedExpr::Lang(a) => match a.eval_term(row, ctx)? {
                Term::Literal { lang, .. } => Ok(Term::literal(lang.as_deref().unwrap_or(""))),
                _ => Err(ExprError),
            },
            EncodedExpr::Datatype(a) => match a.eval_term(row, ctx)? {
                Term::Literal { lang: Some(_), .. } => Ok(Term::iri(RDF_LANGSTRING)),
                Term::Literal { datatype: Some(dt), .. } => Ok(Term::iri(dt)),
                Term::Literal { .. } => Ok(Term::iri(XSD_STRING)),
                _ => Err(ExprError),
            },
            EncodedExpr::Cast(kind, a) => cast_term(*kind, &a.eval_term(row, ctx)?),
            EncodedExpr::Bound(v) => Ok(bool_term(row[*v as usize] != NO_ID)),
            EncodedExpr::IsIri(v) => type_test(v, Term::is_iri),
            EncodedExpr::IsLiteral(v) => type_test(v, Term::is_literal),
            EncodedExpr::IsBlank(v) => type_test(v, Term::is_blank),
            EncodedExpr::And(a, b) => {
                match (a.eval_ebv(row, ctx), b.eval_ebv(row, ctx)) {
                    // SPARQL three-valued logic: a definite false wins over
                    // an error on the other side.
                    (Ok(false), _) | (_, Ok(false)) => Ok(bool_term(false)),
                    (Ok(true), Ok(true)) => Ok(bool_term(true)),
                    _ => Err(ExprError),
                }
            }
            EncodedExpr::Or(a, b) => match (a.eval_ebv(row, ctx), b.eval_ebv(row, ctx)) {
                (Ok(true), _) | (_, Ok(true)) => Ok(bool_term(true)),
                (Ok(false), Ok(false)) => Ok(bool_term(false)),
                _ => Err(ExprError),
            },
            EncodedExpr::Not(a) => Ok(bool_term(!a.eval_ebv(row, ctx)?)),
        }
    }

    /// Evaluates to the effective boolean value.
    pub fn eval_ebv(&self, row: &[Id], ctx: &EvalCtx) -> Result<bool, ExprError> {
        ebv(&self.eval_term(row, ctx)?)
    }

    /// FILTER-style evaluation against the base dictionary alone: an
    /// expression error drops the row (returns false), per SPARQL.
    pub fn eval(&self, row: &[Id], dict: &Dictionary) -> bool {
        let ctx = EvalCtx::new(dict);
        self.eval_ebv(row, &ctx).unwrap_or(false)
    }

    /// Mask of variables mentioned anywhere in the expression.
    pub fn var_mask(&self) -> VarMask {
        match self {
            EncodedExpr::Term(FilterOperand::Var(v)) => bit(*v),
            EncodedExpr::Term(FilterOperand::Const(_)) => 0,
            EncodedExpr::Eq(a, b)
            | EncodedExpr::Ne(a, b)
            | EncodedExpr::Lt(a, b)
            | EncodedExpr::Le(a, b)
            | EncodedExpr::Gt(a, b)
            | EncodedExpr::Ge(a, b)
            | EncodedExpr::Add(a, b)
            | EncodedExpr::Sub(a, b)
            | EncodedExpr::Mul(a, b)
            | EncodedExpr::Div(a, b)
            | EncodedExpr::StrStarts(a, b)
            | EncodedExpr::StrEnds(a, b)
            | EncodedExpr::Contains(a, b)
            | EncodedExpr::And(a, b)
            | EncodedExpr::Or(a, b) => a.var_mask() | b.var_mask(),
            EncodedExpr::In(a, items, _) => {
                items.iter().fold(a.var_mask(), |m, e| m | e.var_mask())
            }
            EncodedExpr::Regex(a, b, f) => {
                a.var_mask() | b.var_mask() | f.as_ref().map_or(0, |e| e.var_mask())
            }
            EncodedExpr::Str(a)
            | EncodedExpr::Lang(a)
            | EncodedExpr::Datatype(a)
            | EncodedExpr::Cast(_, a)
            | EncodedExpr::Not(a) => a.var_mask(),
            EncodedExpr::Bound(v)
            | EncodedExpr::IsIri(v)
            | EncodedExpr::IsLiteral(v)
            | EncodedExpr::IsBlank(v) => bit(*v),
        }
    }
}

/// Term equality for filters: structural equality, with numeric literals
/// also equal by value (`"1"^^xsd:integer = "1.0"^^xsd:decimal`).
pub fn term_eq(a: &uo_rdf::Term, b: &uo_rdf::Term) -> bool {
    if a == b {
        return true;
    }
    matches!((a.numeric_value(), b.numeric_value()), (Some(x), Some(y)) if x == y)
}

/// A child of a group graph pattern node.
#[derive(Debug, Clone, PartialEq)]
pub enum BeNode {
    /// A leaf BGP.
    Bgp(BgpNode),
    /// A nested group graph pattern.
    Group(GroupNode),
    /// A `UNION` node with two or more group graph pattern children.
    Union(Vec<GroupNode>),
    /// An `OPTIONAL` node with exactly one child: the OPTIONAL-right group
    /// graph pattern (the OPTIONAL-left side is the preceding siblings).
    Optional(GroupNode),
    /// A SPARQL 1.1 `MINUS` node (outside the SPARQL-UO fragment; never a
    /// transformation target, evaluated by Algorithm 1's extension).
    Minus(GroupNode),
    /// A FILTER constraint on the enclosing group.
    Filter(EncodedExpr),
    /// `BIND(expr AS ?v)`: extends each solution of the preceding siblings
    /// with the expression value (unbound on expression error).
    Bind(EncodedExpr, VarId),
    /// An inline `VALUES` block joined against the preceding siblings.
    Values(ValuesNode),
}

/// An encoded inline `VALUES` block. Cells are kept as terms, not
/// dictionary ids — a VALUES constant need not occur in the data.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuesNode {
    /// The block's variables, in declaration order.
    pub vars: Vec<VarId>,
    /// Data rows; `None` is `UNDEF`.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl ValuesNode {
    /// Mask of the block's variables.
    pub fn var_mask(&self) -> VarMask {
        self.vars.iter().fold(0, |m, v| m | bit(*v))
    }

    /// Mask of variables bound (non-UNDEF) in every data row; zero when the
    /// block has no rows.
    pub fn certain_mask(&self) -> VarMask {
        if self.rows.is_empty() {
            return 0;
        }
        self.vars
            .iter()
            .enumerate()
            .filter(|(i, _)| self.rows.iter().all(|r| r[*i].is_some()))
            .fold(0, |m, (_, v)| m | bit(*v))
    }
}

impl BeNode {
    /// True if this is a BGP leaf.
    pub fn is_bgp(&self) -> bool {
        matches!(self, BeNode::Bgp(_))
    }

    /// Mask of variables that can be bound anywhere in this subtree: BGP
    /// variables plus BIND targets (and their input variables) and VALUES
    /// variables. Used both to scope candidate derivation and as the
    /// "variables of the subtree" in the coalescing soundness guard.
    pub fn bgp_var_mask(&self) -> VarMask {
        match self {
            BeNode::Bgp(b) => b.var_mask(),
            BeNode::Group(g) | BeNode::Optional(g) | BeNode::Minus(g) => g.bgp_var_mask(),
            BeNode::Union(bs) => bs.iter().fold(0, |m, b| m | b.bgp_var_mask()),
            BeNode::Filter(_) => 0,
            BeNode::Bind(e, v) => e.var_mask() | bit(*v),
            BeNode::Values(vals) => vals.var_mask(),
        }
    }
}

/// A group graph pattern node: an ordered sequence of children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupNode {
    /// Children in sibling order.
    pub children: Vec<BeNode>,
}

impl GroupNode {
    /// Mask of variables of all BGPs in this subtree.
    pub fn bgp_var_mask(&self) -> VarMask {
        self.children.iter().fold(0, |m, c| m | c.bgp_var_mask())
    }

    /// Mask of variables *certainly bound* by every solution of this group:
    /// BGP variables and, recursively, group children; UNION children
    /// contribute only variables bound in all branches; OPTIONAL children
    /// contribute nothing.
    pub fn certain_var_mask(&self) -> VarMask {
        certain_mask_of(&self.children)
    }
}

/// The certainly-bound variable mask of a sibling prefix (see
/// [`GroupNode::certain_var_mask`]).
pub fn certain_mask_of(children: &[BeNode]) -> VarMask {
    children.iter().fold(0, |m, c| m | node_certain_mask(c))
}

fn node_certain_mask(node: &BeNode) -> VarMask {
    match node {
        BeNode::Bgp(b) => b.var_mask(),
        BeNode::Group(g) => g.certain_var_mask(),
        BeNode::Union(bs) => bs.iter().map(|b| b.certain_var_mask()).fold(!0u64, |m, c| m & c),
        // BIND may error and leave its target unbound, so it certainly
        // binds nothing.
        BeNode::Optional(_) | BeNode::Minus(_) | BeNode::Filter(_) | BeNode::Bind(..) => 0,
        BeNode::Values(vals) => vals.certain_mask(),
    }
}

/// A complete BE-tree plus the query-level context it was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct BeTree {
    /// The root group graph pattern node.
    pub root: GroupNode,
}

impl BeTree {
    /// Builds the BE-tree of a parsed query (Section 4.1), interning
    /// variables into `vars` and encoding constants against `dict`.
    pub fn build(query: &Query, vars: &mut VarTable, dict: &Dictionary) -> BeTree {
        BeTree { root: build_group(&query.body, vars, dict) }
    }

    /// Builds directly from a group pattern (used by tests).
    pub fn from_group(group: &GroupPattern, vars: &mut VarTable, dict: &Dictionary) -> BeTree {
        BeTree { root: build_group(group, vars, dict) }
    }

    /// Total number of BGP nodes in the tree.
    pub fn bgp_count(&self) -> usize {
        fn walk(g: &GroupNode) -> usize {
            g.children
                .iter()
                .map(|c| match c {
                    BeNode::Bgp(_) => 1,
                    BeNode::Group(g) | BeNode::Optional(g) | BeNode::Minus(g) => walk(g),
                    BeNode::Union(bs) => bs.iter().map(walk).sum(),
                    BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }

    /// Checks the structural invariants of Definition 8 plus maximality of
    /// BGP leaves; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(g: &GroupNode, path: &str) -> Result<(), String> {
            // Maximality: no two sibling BGPs may be coalescable.
            let bgps: Vec<(usize, &BgpNode)> = g
                .children
                .iter()
                .enumerate()
                .filter_map(|(i, c)| match c {
                    BeNode::Bgp(b) => Some((i, b)),
                    _ => None,
                })
                .collect();
            for (ai, (i, a)) in bgps.iter().enumerate() {
                for (j, b) in bgps.iter().skip(ai + 1) {
                    if a.coalescable_with(b) {
                        return Err(format!(
                            "siblings {i} and {j} at {path} are coalescable BGPs (non-maximal)"
                        ));
                    }
                }
            }
            for (i, c) in g.children.iter().enumerate() {
                match c {
                    BeNode::Union(branches) => {
                        if branches.len() < 2 {
                            return Err(format!(
                                "UNION node at {path}/{i} has {} child(ren), needs ≥ 2",
                                branches.len()
                            ));
                        }
                        for (bi, b) in branches.iter().enumerate() {
                            walk(b, &format!("{path}/{i}[{bi}]"))?;
                        }
                    }
                    BeNode::Group(gg) | BeNode::Optional(gg) | BeNode::Minus(gg) => {
                        walk(gg, &format!("{path}/{i}"))?;
                    }
                    BeNode::Bgp(b) => {
                        if b.bgp.patterns.is_empty() {
                            return Err(format!("empty BGP node at {path}/{i}"));
                        }
                    }
                    BeNode::Filter(_) | BeNode::Bind(..) => {}
                    BeNode::Values(vals) => {
                        if vals.vars.is_empty() {
                            return Err(format!("VALUES node at {path}/{i} has no variables"));
                        }
                        if let Some(r) = vals.rows.iter().find(|r| r.len() != vals.vars.len()) {
                            return Err(format!(
                                "VALUES node at {path}/{i} row arity {} != {} variables",
                                r.len(),
                                vals.vars.len()
                            ));
                        }
                    }
                }
            }
            Ok(())
        }
        walk(&self.root, "root")
    }
}

fn encode_operand(t: &PatternTerm, vars: &mut VarTable) -> FilterOperand {
    match t {
        PatternTerm::Var(v) => FilterOperand::Var(vars.intern(v)),
        PatternTerm::Const(term) => FilterOperand::Const(term.clone()),
    }
}

/// Encodes a parsed expression against the query's variable frame.
pub fn encode_expr(e: &Expr, vars: &mut VarTable) -> EncodedExpr {
    fn bx(e: &Expr, vars: &mut VarTable) -> Box<EncodedExpr> {
        Box::new(encode_expr(e, vars))
    }
    match e {
        Expr::Term(t) => EncodedExpr::Term(encode_operand(t, vars)),
        Expr::Eq(a, b) => EncodedExpr::Eq(bx(a, vars), bx(b, vars)),
        Expr::Ne(a, b) => EncodedExpr::Ne(bx(a, vars), bx(b, vars)),
        Expr::Lt(a, b) => EncodedExpr::Lt(bx(a, vars), bx(b, vars)),
        Expr::Le(a, b) => EncodedExpr::Le(bx(a, vars), bx(b, vars)),
        Expr::Gt(a, b) => EncodedExpr::Gt(bx(a, vars), bx(b, vars)),
        Expr::Ge(a, b) => EncodedExpr::Ge(bx(a, vars), bx(b, vars)),
        Expr::Add(a, b) => EncodedExpr::Add(bx(a, vars), bx(b, vars)),
        Expr::Sub(a, b) => EncodedExpr::Sub(bx(a, vars), bx(b, vars)),
        Expr::Mul(a, b) => EncodedExpr::Mul(bx(a, vars), bx(b, vars)),
        Expr::Div(a, b) => EncodedExpr::Div(bx(a, vars), bx(b, vars)),
        Expr::In(a, items, negated) => EncodedExpr::In(
            bx(a, vars),
            items.iter().map(|e| encode_expr(e, vars)).collect(),
            *negated,
        ),
        Expr::Regex(t, p, f) => {
            EncodedExpr::Regex(bx(t, vars), bx(p, vars), f.as_ref().map(|e| bx(e, vars)))
        }
        Expr::StrStarts(a, b) => EncodedExpr::StrStarts(bx(a, vars), bx(b, vars)),
        Expr::StrEnds(a, b) => EncodedExpr::StrEnds(bx(a, vars), bx(b, vars)),
        Expr::Contains(a, b) => EncodedExpr::Contains(bx(a, vars), bx(b, vars)),
        Expr::Str(a) => EncodedExpr::Str(bx(a, vars)),
        Expr::Lang(a) => EncodedExpr::Lang(bx(a, vars)),
        Expr::Datatype(a) => EncodedExpr::Datatype(bx(a, vars)),
        Expr::Cast(kind, a) => EncodedExpr::Cast(*kind, bx(a, vars)),
        Expr::Bound(v) => EncodedExpr::Bound(vars.intern(v)),
        Expr::IsIri(v) => EncodedExpr::IsIri(vars.intern(v)),
        Expr::IsLiteral(v) => EncodedExpr::IsLiteral(vars.intern(v)),
        Expr::IsBlank(v) => EncodedExpr::IsBlank(vars.intern(v)),
        Expr::And(a, b) => EncodedExpr::And(bx(a, vars), bx(b, vars)),
        Expr::Or(a, b) => EncodedExpr::Or(bx(a, vars), bx(b, vars)),
        Expr::Not(a) => EncodedExpr::Not(bx(a, vars)),
    }
}

fn build_group(group: &GroupPattern, vars: &mut VarTable, dict: &Dictionary) -> GroupNode {
    let mut children: Vec<BeNode> = Vec::with_capacity(group.elements.len());
    for el in &group.elements {
        match el {
            Element::Triple(tp) => {
                let enc = encode_bgp(std::slice::from_ref(tp), vars, dict);
                children.push(BeNode::Bgp(BgpNode::new(enc)));
            }
            Element::Group(g) => children.push(BeNode::Group(build_group(g, vars, dict))),
            Element::Union(branches) => children
                .push(BeNode::Union(branches.iter().map(|b| build_group(b, vars, dict)).collect())),
            Element::Optional(g) => children.push(BeNode::Optional(build_group(g, vars, dict))),
            Element::Minus(g) => children.push(BeNode::Minus(build_group(g, vars, dict))),
            Element::Filter(e) => children.push(BeNode::Filter(encode_expr(e, vars))),
            Element::Bind(e, v) => {
                let expr = encode_expr(e, vars);
                children.push(BeNode::Bind(expr, vars.intern(v)));
            }
            Element::Values(vs, rows) => children.push(BeNode::Values(ValuesNode {
                vars: vs.iter().map(|v| vars.intern(v)).collect(),
                rows: rows.clone(),
            })),
        }
    }
    let mut node = GroupNode { children };
    coalesce_group(&mut node);
    node
}

/// Coalesces sibling BGP nodes of `g` until all are maximal (Section 4.1).
/// Each coalesced BGP is placed at the position of its leftmost constituent.
pub fn coalesce_group(g: &mut GroupNode) {
    loop {
        let bgp_positions: Vec<usize> =
            g.children.iter().enumerate().filter(|(_, c)| c.is_bgp()).map(|(i, _)| i).collect();
        let mut merged = false;
        'outer: for (ai, &i) in bgp_positions.iter().enumerate() {
            for &j in bgp_positions.iter().skip(ai + 1) {
                let coalescable = match (&g.children[i], &g.children[j]) {
                    (BeNode::Bgp(a), BeNode::Bgp(b)) => a.coalescable_with(b),
                    _ => false,
                };
                // Coalescing moves child j's patterns to position i, i.e.
                // leftward across everything between. Crossing joins and
                // UNIONs commutes. Crossing an OPTIONAL at position k
                // changes that OPTIONAL's left operand, which is sound only
                // when every variable the OPTIONAL shares with the moving
                // BGP is certainly bound by the siblings left of k —
                // `(L ⟕ B) ⋈ M = (L ⋈ M) ⟕ B` requires
                // `vars(B) ∩ vars(M) ⊆ vars(L)`. The paper's Figure 5
                // coalescing (t1 joins t6 across an OPTIONAL sharing ?x,
                // with ?x bound by t1) is exactly the allowed case.
                let moving_mask = match &g.children[j] {
                    BeNode::Bgp(b) => b.var_mask(),
                    _ => 0,
                };
                let blocked = coalescable
                    && (i + 1..j).any(|k| match &g.children[k] {
                        BeNode::Optional(opt) => {
                            let shared = opt.bgp_var_mask() & moving_mask;
                            shared & !certain_mask_of(&g.children[..k]) != 0
                        }
                        // A BIND is evaluated over the solutions of the
                        // siblings to its left; moving a BGP that shares
                        // any of the expression's (or target's) variables
                        // across it would change the expression's input.
                        BeNode::Bind(e, v) => (e.var_mask() | bit(*v)) & moving_mask != 0,
                        _ => false,
                    });
                if coalescable && !blocked {
                    let BeNode::Bgp(b) = g.children.remove(j) else { unreachable!() };
                    let BeNode::Bgp(a) = &mut g.children[i] else { unreachable!() };
                    a.bgp.patterns.extend(b.bgp.patterns);
                    a.est_cardinality = None;
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            break;
        }
    }
}

// ---------- pretty-printing (EXPLAIN output) ----------

/// Renders a BE-tree as an indented ASCII plan, decoding constants through
/// `dict` and variable ids through `vars`.
pub fn explain(tree: &BeTree, vars: &VarTable, dict: &Dictionary) -> String {
    let mut out = String::new();
    fmt_group(&tree.root, vars, dict, 0, &mut out);
    out
}

fn slot_str(s: &Slot, vars: &VarTable, dict: &Dictionary) -> String {
    match s {
        Slot::Var(v) => format!("?{}", vars.name(*v)),
        Slot::Const(c) => match dict.decode(*c) {
            Some(t) => t.to_string(),
            None => "<absent>".to_string(),
        },
    }
}

fn fmt_pattern(p: &EncodedTriplePattern, vars: &VarTable, dict: &Dictionary) -> String {
    format!(
        "{} {} {}",
        slot_str(&p.s, vars, dict),
        slot_str(&p.p, vars, dict),
        slot_str(&p.o, vars, dict)
    )
}

/// One-line rendering of a BGP's patterns for profiler span details.
/// Variable names come from `vars` when the caller has the table; positional
/// `?_N` placeholders otherwise (e.g. raw `try_evaluate_profiled` callers).
pub(crate) fn bgp_detail(bgp: &EncodedBgp, vars: Option<&VarTable>, dict: &Dictionary) -> String {
    let slot = |s: &Slot| match (s, vars) {
        (Slot::Var(v), Some(vt)) => format!("?{}", vt.name(*v)),
        (Slot::Var(v), None) => format!("?_{v}"),
        (Slot::Const(c), _) => match dict.decode(*c) {
            Some(t) => t.to_string(),
            None => "<absent>".to_string(),
        },
    };
    bgp.patterns
        .iter()
        .map(|p| format!("{} {} {}", slot(&p.s), slot(&p.p), slot(&p.o)))
        .collect::<Vec<_>>()
        .join(" . ")
}

fn fmt_group(g: &GroupNode, vars: &VarTable, dict: &Dictionary, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}Group\n"));
    for c in &g.children {
        match c {
            BeNode::Bgp(b) => {
                let card = b.est_cardinality.map(|c| format!(" (est {c:.0})")).unwrap_or_default();
                out.push_str(&format!("{pad}  BGP{card}\n"));
                for p in &b.bgp.patterns {
                    out.push_str(&format!("{pad}    {}\n", fmt_pattern(p, vars, dict)));
                }
            }
            BeNode::Group(gg) => fmt_group(gg, vars, dict, depth + 1, out),
            BeNode::Union(branches) => {
                out.push_str(&format!("{pad}  Union\n"));
                for b in branches {
                    fmt_group(b, vars, dict, depth + 2, out);
                }
            }
            BeNode::Optional(gg) => {
                out.push_str(&format!("{pad}  Optional\n"));
                fmt_group(gg, vars, dict, depth + 2, out);
            }
            BeNode::Minus(gg) => {
                out.push_str(&format!("{pad}  Minus\n"));
                fmt_group(gg, vars, dict, depth + 2, out);
            }
            BeNode::Filter(_) => out.push_str(&format!("{pad}  Filter\n")),
            BeNode::Bind(_, v) => {
                out.push_str(&format!("{pad}  Bind ?{}\n", vars.name(*v)));
            }
            BeNode::Values(vals) => {
                let names: Vec<String> =
                    vals.vars.iter().map(|v| format!("?{}", vars.name(*v))).collect();
                out.push_str(&format!(
                    "{pad}  Values [{}] ({} rows)\n",
                    names.join(" "),
                    vals.rows.len()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uo_rdf::Term;

    fn dict_with(terms: &[&str]) -> Dictionary {
        let mut d = Dictionary::new();
        for t in terms {
            d.encode(&Term::iri(*t));
        }
        d
    }

    fn build(q: &str, dict: &Dictionary) -> (BeTree, VarTable) {
        let query = uo_sparql::parse(q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, dict);
        (tree, vars)
    }

    #[test]
    fn coalesces_adjacent_triples() {
        let dict = dict_with(&["http://p", "http://q"]);
        let (tree, _) = build("SELECT WHERE { ?x <http://p> ?y . ?y <http://q> ?z . }", &dict);
        assert_eq!(tree.root.children.len(), 1);
        match &tree.root.children[0] {
            BeNode::Bgp(b) => assert_eq!(b.bgp.patterns.len(), 2),
            other => panic!("{other:?}"),
        }
        tree.validate().unwrap();
    }

    #[test]
    fn non_coalescable_triples_stay_separate() {
        let dict = dict_with(&["http://p"]);
        let (tree, _) = build("SELECT WHERE { ?x <http://p> ?y . ?a <http://p> ?b . }", &dict);
        assert_eq!(tree.root.children.len(), 2);
        tree.validate().unwrap();
    }

    #[test]
    fn coalesces_across_intervening_operators() {
        // Figure 5: t1 and t6 coalesce around the UNION and OPTIONAL between
        // them; the BGP sits at t1's original position.
        let dict = dict_with(&["http://p", "http://q", "http://r", "http://s"]);
        let (tree, _) = build(
            "SELECT WHERE {
               ?x <http://p> ?y .
               { ?x <http://q> ?n } UNION { ?x <http://r> ?n }
               OPTIONAL { ?x <http://s> ?w }
               ?x <http://p> ?z .
             }",
            &dict,
        );
        assert_eq!(tree.root.children.len(), 3);
        match &tree.root.children[0] {
            BeNode::Bgp(b) => assert_eq!(b.bgp.patterns.len(), 2, "t1 and t6 coalesced"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(tree.root.children[1], BeNode::Union(_)));
        assert!(matches!(tree.root.children[2], BeNode::Optional(_)));
        tree.validate().unwrap();
    }

    #[test]
    fn figure2_tree_shape() {
        let dict = dict_with(&["http://p", "http://q", "http://r", "http://s", "http://t"]);
        let (tree, _) = build(
            "SELECT WHERE {
               ?x <http://p> <http://c> .
               { ?x <http://q> ?name } UNION { ?x <http://r> ?name }
               OPTIONAL { { ?x <http://s> ?same } UNION { ?same <http://s> ?x } }
               ?x <http://t> ?birth .
             }",
            &dict,
        );
        // t1+t6 coalesce; union; optional(union).
        assert_eq!(tree.root.children.len(), 3);
        assert_eq!(tree.bgp_count(), 5);
        match &tree.root.children[2] {
            BeNode::Optional(g) => {
                assert_eq!(g.children.len(), 1);
                assert!(matches!(g.children[0], BeNode::Union(_)));
            }
            other => panic!("{other:?}"),
        }
        tree.validate().unwrap();
    }

    #[test]
    fn nested_groups_coalesce_locally() {
        let dict = dict_with(&["http://p", "http://q"]);
        let (tree, _) =
            build("SELECT WHERE { OPTIONAL { ?a <http://p> ?b . ?b <http://q> ?c . } }", &dict);
        match &tree.root.children[0] {
            BeNode::Optional(g) => {
                assert_eq!(g.children.len(), 1);
                match &g.children[0] {
                    BeNode::Bgp(b) => assert_eq!(b.bgp.patterns.len(), 2),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn validate_rejects_single_branch_union() {
        let tree = BeTree {
            root: GroupNode { children: vec![BeNode::Union(vec![GroupNode::default()])] },
        };
        assert!(tree.validate().is_err());
    }

    #[test]
    fn validate_rejects_coalescable_siblings() {
        let dict = dict_with(&["http://p"]);
        let query = uo_sparql::parse("SELECT WHERE { ?x <http://p> ?y . }").unwrap();
        let mut vars = VarTable::new();
        let tree0 = BeTree::build(&query, &mut vars, &dict);
        let BeNode::Bgp(b) = &tree0.root.children[0] else { panic!() };
        // Duplicate the BGP as a sibling: now two coalescable siblings.
        let tree = BeTree {
            root: GroupNode { children: vec![BeNode::Bgp(b.clone()), BeNode::Bgp(b.clone())] },
        };
        assert!(tree.validate().is_err());
    }

    #[test]
    fn filter_is_kept_as_child() {
        let dict = dict_with(&["http://p"]);
        let (tree, _) = build("SELECT WHERE { ?x <http://p> ?y . FILTER(?x != ?y) }", &dict);
        assert_eq!(tree.root.children.len(), 2);
        assert!(matches!(tree.root.children[1], BeNode::Filter(_)));
    }

    fn var(v: VarId) -> Box<EncodedExpr> {
        Box::new(EncodedExpr::Term(FilterOperand::Var(v)))
    }

    fn cnst(t: Term) -> Box<EncodedExpr> {
        Box::new(EncodedExpr::Term(FilterOperand::Const(t)))
    }

    fn int(n: i64) -> Term {
        Term::typed_literal(n.to_string(), XSD_INTEGER)
    }

    #[test]
    fn encoded_filter_eval() {
        let dict = dict_with(&["http://a", "http://b"]);
        let e = EncodedExpr::And(
            Box::new(EncodedExpr::Ne(var(0), var(1))),
            Box::new(EncodedExpr::Bound(0)),
        );
        assert!(e.eval(&[1, 2], &dict));
        assert!(!e.eval(&[1, 1], &dict));
        assert!(!e.eval(&[NO_ID, 1], &dict));
        let not = EncodedExpr::Not(Box::new(EncodedExpr::Bound(2)));
        assert!(not.eval(&[1, 1, NO_ID], &dict));
    }

    #[test]
    fn encoded_numeric_comparison() {
        let mut d = Dictionary::new();
        let i5 = d.encode(&int(5));
        let i40 = d.encode(&int(40));
        // Numeric: 5 < 40 even though "40" < "5" lexicographically.
        let lt = EncodedExpr::Lt(var(0), var(1));
        assert!(lt.eval(&[i5, i40], &d));
        assert!(!lt.eval(&[i40, i5], &d));
        let ge = EncodedExpr::Ge(var(0), var(1));
        assert!(ge.eval(&[i40, i5], &d));
        assert!(ge.eval(&[i5, i5], &d));
    }

    #[test]
    fn encoded_type_tests() {
        let mut d = Dictionary::new();
        let iri = d.encode(&uo_rdf::Term::iri("http://x"));
        let lit = d.encode(&uo_rdf::Term::literal("x"));
        let blank = d.encode(&uo_rdf::Term::blank("b"));
        assert!(EncodedExpr::IsIri(0).eval(&[iri], &d));
        assert!(!EncodedExpr::IsIri(0).eval(&[lit], &d));
        assert!(EncodedExpr::IsLiteral(0).eval(&[lit], &d));
        assert!(EncodedExpr::IsBlank(0).eval(&[blank], &d));
        assert!(!EncodedExpr::IsBlank(0).eval(&[NO_ID], &d));
    }

    #[test]
    fn arithmetic_types_and_errors() {
        let mut d = Dictionary::new();
        let i7 = d.encode(&int(7));
        let i2 = d.encode(&int(2));
        let ctx = EvalCtx::new(&d);
        let add = EncodedExpr::Add(var(0), var(1));
        assert_eq!(add.eval_term(&[i7, i2], &ctx).unwrap(), int(9));
        // Integer division still yields a decimal.
        let div = EncodedExpr::Div(var(0), var(1));
        assert_eq!(
            div.eval_term(&[i7, i2], &ctx).unwrap(),
            Term::typed_literal("3.5", XSD_DECIMAL)
        );
        // Division by zero and unbound operands are expression errors.
        assert!(EncodedExpr::Div(var(0), cnst(int(0))).eval_term(&[i7, i2], &ctx).is_err());
        assert!(add.eval_term(&[i7, NO_ID], &ctx).is_err());
        // Non-numeric operand errors.
        let lit = d.encode(&Term::literal("x"));
        let ctx = EvalCtx::new(&d);
        assert!(add.eval_term(&[i7, lit], &ctx).is_err());
    }

    #[test]
    fn string_builtins_and_regex() {
        let mut d = Dictionary::new();
        let hello = d.encode(&Term::literal("hello world"));
        let ctx = EvalCtx::new(&d);
        let starts = EncodedExpr::StrStarts(var(0), cnst(Term::literal("hel")));
        assert!(starts.eval_ebv(&[hello], &ctx).unwrap());
        let contains = EncodedExpr::Contains(var(0), cnst(Term::literal("o w")));
        assert!(contains.eval_ebv(&[hello], &ctx).unwrap());
        let re = EncodedExpr::Regex(var(0), cnst(Term::literal("^h.*d$")), None);
        assert!(re.eval_ebv(&[hello], &ctx).unwrap());
        let re_ci = EncodedExpr::Regex(
            var(0),
            cnst(Term::literal("HELLO")),
            Some(cnst(Term::literal("i"))),
        );
        assert!(re_ci.eval_ebv(&[hello], &ctx).unwrap());
        // Invalid pattern is an expression error, not a panic.
        let bad = EncodedExpr::Regex(var(0), cnst(Term::literal("(")), None);
        assert!(bad.eval_ebv(&[hello], &ctx).is_err());
    }

    #[test]
    fn accessors_and_casts() {
        let mut d = Dictionary::new();
        let tagged = d.encode(&Term::lang_literal("bonjour", "fr"));
        let iri = d.encode(&Term::iri("http://x"));
        let ctx = EvalCtx::new(&d);
        assert_eq!(
            EncodedExpr::Lang(var(0)).eval_term(&[tagged, iri], &ctx).unwrap(),
            Term::literal("fr")
        );
        assert_eq!(
            EncodedExpr::Str(var(1)).eval_term(&[tagged, iri], &ctx).unwrap(),
            Term::literal("http://x")
        );
        assert_eq!(
            EncodedExpr::Datatype(var(0)).eval_term(&[tagged, iri], &ctx).unwrap(),
            Term::iri(RDF_LANGSTRING)
        );
        let cast = EncodedExpr::Cast(CastKind::Integer, cnst(Term::literal("42")));
        assert_eq!(cast.eval_term(&[], &ctx).unwrap(), int(42));
        let bad = EncodedExpr::Cast(CastKind::Integer, cnst(Term::literal("nope")));
        assert!(bad.eval_term(&[], &ctx).is_err());
    }

    #[test]
    fn in_list_and_error_logic() {
        let mut d = Dictionary::new();
        let i5 = d.encode(&int(5));
        let ctx = EvalCtx::new(&d);
        let inn = EncodedExpr::In(var(0), vec![*cnst(int(4)), *cnst(int(5))], false);
        assert!(inn.eval_ebv(&[i5], &ctx).unwrap());
        let not_in = EncodedExpr::In(var(0), vec![*cnst(int(4))], true);
        assert!(not_in.eval_ebv(&[i5], &ctx).unwrap());
        // A match wins even when another item errors; no match + error = error.
        let with_err = EncodedExpr::In(var(0), vec![*var(1), *cnst(int(5))], false);
        assert!(with_err.eval_ebv(&[i5, NO_ID], &ctx).unwrap());
        let all_err = EncodedExpr::In(var(0), vec![*var(1)], false);
        assert!(all_err.eval_ebv(&[i5, NO_ID], &ctx).is_err());
        // SPARQL three-valued: false && error is false, true || error is true.
        let f = EncodedExpr::Eq(cnst(int(1)), cnst(int(2)));
        let err = EncodedExpr::Lang(var(1));
        let and = EncodedExpr::And(Box::new(f.clone()), Box::new(err.clone()));
        assert!(!and.eval_ebv(&[i5, NO_ID], &ctx).unwrap());
        let t = EncodedExpr::Eq(cnst(int(1)), cnst(int(1)));
        let or = EncodedExpr::Or(Box::new(t), Box::new(err));
        assert!(or.eval_ebv(&[i5, NO_ID], &ctx).unwrap());
    }

    #[test]
    fn eval_ctx_interns_deterministically() {
        let mut d = Dictionary::new();
        let known = d.encode(&int(5));
        let ctx = EvalCtx::new(&d);
        // Terms already in the data reuse their dictionary id.
        assert_eq!(ctx.intern(&int(5)), known);
        // Novel terms get stable synthetic ids above the base range.
        let a = ctx.intern(&int(99));
        let b = ctx.intern(&Term::literal("new"));
        assert!(a > d.len() as Id && b > d.len() as Id);
        assert_ne!(a, b);
        assert_eq!(ctx.intern(&int(99)), a);
        assert_eq!(ctx.decode(a).unwrap(), int(99));
        assert_eq!(ctx.decode(known).unwrap(), int(5));
    }

    #[test]
    fn bind_and_values_build_into_tree() {
        let dict = dict_with(&["http://p"]);
        let (tree, vars) = build(
            "SELECT WHERE { ?x <http://p> ?y . BIND((?y + 1) AS ?z) \
             VALUES ?w { 1 2 } }",
            &dict,
        );
        assert_eq!(tree.root.children.len(), 3);
        let BeNode::Bind(e, v) = &tree.root.children[1] else { panic!() };
        assert_eq!(vars.name(*v), "z");
        assert!(e.var_mask() != 0);
        let BeNode::Values(vals) = &tree.root.children[2] else { panic!() };
        assert_eq!(vals.rows.len(), 2);
        assert_eq!(vals.certain_mask(), vals.var_mask());
        tree.validate().unwrap();
        let plan = explain(&tree, &vars, &dict);
        assert!(plan.contains("Bind ?z"), "{plan}");
        assert!(plan.contains("Values [?w] (2 rows)"), "{plan}");
    }

    #[test]
    fn bgps_do_not_coalesce_across_dependent_bind() {
        let dict = dict_with(&["http://p", "http://q"]);
        // The second BGP binds ?y, which the BIND reads: moving it across
        // the BIND would change the expression's input.
        let (tree, _) =
            build("SELECT WHERE { ?x <http://p> ?y . BIND(?y AS ?z) ?y <http://q> ?w . }", &dict);
        assert_eq!(tree.root.children.len(), 3);
        assert!(matches!(tree.root.children[1], BeNode::Bind(..)));
        // An independent BGP still coalesces across a VALUES block.
        let (tree2, _) =
            build("SELECT WHERE { ?x <http://p> ?y . VALUES ?v { 1 } ?y <http://q> ?w . }", &dict);
        assert_eq!(tree2.root.children.len(), 2);
        let BeNode::Bgp(b) = &tree2.root.children[0] else { panic!() };
        assert_eq!(b.bgp.patterns.len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let dict = dict_with(&["http://p"]);
        let (tree, vars) =
            build("SELECT WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://p> ?z } }", &dict);
        let s = explain(&tree, &vars, &dict);
        assert!(s.contains("BGP"));
        assert!(s.contains("Optional"));
        assert!(s.contains("?x"));
    }
}
