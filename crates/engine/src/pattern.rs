//! Dictionary-encoded triple patterns, BGPs and candidate sets.

use uo_rdf::{Dictionary, Id, NO_ID};
use uo_sparql::algebra::{bit, VarId, VarMask, VarTable};
use uo_sparql::ast::{PatternTerm, TriplePattern};
use uo_store::Snapshot;

/// One slot of an encoded triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A constant term id. Query constants absent from the dataset encode as
    /// `Const(NO_ID)`, which matches nothing.
    Const(Id),
    /// A query variable.
    Var(VarId),
}

impl Slot {
    /// The constant id, if bound; `None` for variables.
    #[inline]
    pub fn as_const(&self) -> Option<Id> {
        match self {
            Slot::Const(id) => Some(*id),
            Slot::Var(_) => None,
        }
    }

    /// The variable, if this slot is one.
    #[inline]
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Slot::Var(v) => Some(*v),
            Slot::Const(_) => None,
        }
    }

    /// Resolves the slot against a partial row: constants stay, bound
    /// variables substitute, unbound variables give `None`.
    #[inline]
    pub fn resolve(&self, row: &[Id]) -> Option<Id> {
        match self {
            Slot::Const(id) => Some(*id),
            Slot::Var(v) => {
                let val = row[*v as usize];
                (val != NO_ID).then_some(val)
            }
        }
    }
}

/// An encoded triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedTriplePattern {
    /// Subject slot.
    pub s: Slot,
    /// Predicate slot.
    pub p: Slot,
    /// Object slot.
    pub o: Slot,
}

impl EncodedTriplePattern {
    /// The three slots in s, p, o order.
    #[inline]
    pub fn slots(&self) -> [Slot; 3] {
        [self.s, self.p, self.o]
    }

    /// Mask of variables appearing anywhere in the pattern.
    pub fn var_mask(&self) -> VarMask {
        self.slots().iter().filter_map(|s| s.as_var()).fold(0, |m, v| m | bit(v))
    }

    /// Exact number of dataset triples matching the pattern with all
    /// variables treated as wildcards (repeated-variable constraints are not
    /// applied here; they can only shrink the count).
    pub fn scan_count(&self, store: &Snapshot) -> usize {
        store.count_pattern(self.s.as_const(), self.p.as_const(), self.o.as_const())
    }

    /// True if the pattern uses the same variable more than once (e.g.
    /// `?x :p ?x`), requiring an equality check during scans.
    pub fn has_repeated_var(&self) -> bool {
        self.repeats_var_outside(0)
    }

    /// True if a variable *not* in `bound` occurs more than once. Only then
    /// can [`bind`](Self::bind) reject a triple of the index range looked up
    /// with every constant and every `bound` variable resolved; otherwise
    /// the range length is the exact number of extensions.
    pub fn repeats_var_outside(&self, bound: VarMask) -> bool {
        let mut seen: VarMask = 0;
        for v in self.slots().iter().filter_map(|s| s.as_var()) {
            if bound & bit(v) != 0 {
                continue;
            }
            if seen & bit(v) != 0 {
                return true;
            }
            seen |= bit(v);
        }
        false
    }

    /// Checks an `[s, p, o]` triple against the pattern under a partial row,
    /// returning the row extended with this pattern's bindings, or `None` on
    /// mismatch.
    pub fn bind(&self, triple: [Id; 3], row: &[Id]) -> Option<Box<[Id]>> {
        let mut out: Box<[Id]> = row.into();
        self.bind_into(triple, &mut out).then_some(out)
    }

    /// [`bind`](Self::bind) in place: writes this pattern's bindings of
    /// `triple` into `row` and returns whether the triple matched. On a
    /// mismatch `row` may hold some of the bindings already.
    pub fn bind_into(&self, triple: [Id; 3], row: &mut [Id]) -> bool {
        for (slot, val) in self.slots().into_iter().zip(triple) {
            match slot {
                Slot::Const(c) => {
                    if c != val {
                        return false;
                    }
                }
                Slot::Var(v) => {
                    let cur = &mut row[v as usize];
                    if *cur == NO_ID {
                        *cur = val;
                    } else if *cur != val {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// An encoded BGP: a set of triple patterns evaluated as one conjunctive
/// subquery (Definition 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct EncodedBgp {
    /// The constituent patterns, in source order.
    pub patterns: Vec<EncodedTriplePattern>,
}

impl EncodedBgp {
    /// Mask of all variables in the BGP.
    pub fn var_mask(&self) -> VarMask {
        self.patterns.iter().fold(0, |m, p| m | p.var_mask())
    }

    /// The variables of the BGP, ascending.
    pub fn variables(&self) -> Vec<VarId> {
        let m = self.var_mask();
        (0..64).filter(|&v| m & (1 << v) != 0).map(|v| v as VarId).collect()
    }

    /// True if any pattern matches nothing because a constant is absent from
    /// the dictionary.
    pub fn has_dead_constant(&self) -> bool {
        self.patterns.iter().any(|p| p.slots().iter().any(|s| s.as_const() == Some(NO_ID)))
    }
}

/// Encodes AST triple patterns against a dictionary and variable table.
///
/// Constants that do not occur in the data become `Const(NO_ID)` (matching
/// nothing) rather than polluting the dictionary.
pub fn encode_bgp(
    patterns: &[TriplePattern],
    vars: &mut VarTable,
    dict: &Dictionary,
) -> EncodedBgp {
    let enc_slot = |t: &PatternTerm, vars: &mut VarTable| match t {
        PatternTerm::Var(name) => Slot::Var(vars.intern(name)),
        PatternTerm::Const(term) => Slot::Const(dict.lookup(term).unwrap_or(NO_ID)),
    };
    EncodedBgp {
        patterns: patterns
            .iter()
            .map(|tp| EncodedTriplePattern {
                s: enc_slot(&tp.subject, vars),
                p: enc_slot(&tp.predicate, vars),
                o: enc_slot(&tp.object, vars),
            })
            .collect(),
    }
}

/// Per-variable candidate value sets (Section 6).
///
/// A variable present in the map may only take values from its sorted list;
/// absent variables are unrestricted.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    per_var: uo_rdf::FxHashMap<VarId, Vec<Id>>,
}

impl CandidateSet {
    /// The unrestricted candidate set.
    pub fn none() -> Self {
        Self::default()
    }

    /// Restricts `v` to the given values (deduplicated and sorted here).
    pub fn restrict(&mut self, v: VarId, mut values: Vec<Id>) {
        values.sort_unstable();
        values.dedup();
        self.per_var.insert(v, values);
    }

    /// The candidate list for `v`, if restricted.
    pub fn get(&self, v: VarId) -> Option<&[Id]> {
        self.per_var.get(&v).map(|v| v.as_slice())
    }

    /// True if no variable is restricted.
    pub fn is_empty(&self) -> bool {
        self.per_var.is_empty()
    }

    /// Number of restricted variables.
    pub fn len(&self) -> usize {
        self.per_var.len()
    }

    /// True if `id` is admissible for `v`.
    #[inline]
    pub fn admits(&self, v: VarId, id: Id) -> bool {
        match self.per_var.get(&v) {
            Some(vals) => vals.binary_search(&id).is_ok(),
            None => true,
        }
    }

    /// Checks a full row against every restriction (unbound slots pass).
    pub fn admits_row(&self, row: &[Id]) -> bool {
        self.per_var.iter().all(|(&v, vals)| {
            let id = row[v as usize];
            id == NO_ID || vals.binary_search(&id).is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uo_rdf::Term;
    use uo_store::{Snapshot, StoreWriter};

    fn setup() -> (Arc<Snapshot>, VarTable) {
        let mut st = StoreWriter::new();
        st.load_ntriples(
            r#"
<http://a> <http://p> <http://b> .
<http://b> <http://p> <http://c> .
<http://a> <http://q> <http://a> .
"#,
        )
        .unwrap();
        let st = st.commit();
        (st, VarTable::new())
    }

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let conv = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                PatternTerm::Var(v.to_string())
            } else {
                PatternTerm::Const(Term::iri(x))
            }
        };
        TriplePattern::new(conv(s), conv(p), conv(o))
    }

    #[test]
    fn encode_interns_vars_and_looks_up_consts() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(&[tp("?x", "http://p", "?y")], &mut vt, st.dictionary());
        assert_eq!(bgp.patterns.len(), 1);
        assert!(matches!(bgp.patterns[0].s, Slot::Var(0)));
        assert!(matches!(bgp.patterns[0].p, Slot::Const(id) if id != NO_ID));
        assert_eq!(vt.len(), 2);
    }

    #[test]
    fn missing_constant_encodes_dead() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(&[tp("?x", "http://nope", "?y")], &mut vt, st.dictionary());
        assert!(bgp.has_dead_constant());
        assert_eq!(bgp.patterns[0].scan_count(&st), 0);
    }

    #[test]
    fn scan_count_matches_store() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(&[tp("?x", "http://p", "?y")], &mut vt, st.dictionary());
        assert_eq!(bgp.patterns[0].scan_count(&st), 2);
    }

    #[test]
    fn bind_checks_constants_and_repeats() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(&[tp("?x", "http://q", "?x")], &mut vt, st.dictionary());
        let pat = bgp.patterns[0];
        assert!(pat.has_repeated_var());
        let a = st.dictionary().lookup(&Term::iri("http://a")).unwrap();
        let b = st.dictionary().lookup(&Term::iri("http://b")).unwrap();
        let q = st.dictionary().lookup(&Term::iri("http://q")).unwrap();
        let row = vec![NO_ID; 1];
        assert!(pat.bind([a, q, a], &row).is_some());
        assert!(pat.bind([a, q, b], &row).is_none());
    }

    #[test]
    fn bind_respects_existing_bindings() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(&[tp("?x", "http://p", "?y")], &mut vt, st.dictionary());
        let pat = bgp.patterns[0];
        let a = st.dictionary().lookup(&Term::iri("http://a")).unwrap();
        let b = st.dictionary().lookup(&Term::iri("http://b")).unwrap();
        let c = st.dictionary().lookup(&Term::iri("http://c")).unwrap();
        let p = st.dictionary().lookup(&Term::iri("http://p")).unwrap();
        let mut row = vec![NO_ID; 2];
        row[0] = a;
        assert!(pat.bind([a, p, b], &row).is_some());
        assert!(pat.bind([b, p, c], &row).is_none(), "conflicts with ?x = a");
    }

    #[test]
    fn candidate_set_admission() {
        let mut cs = CandidateSet::none();
        assert!(cs.admits(0, 42));
        cs.restrict(0, vec![3, 1, 3]);
        assert!(cs.admits(0, 1));
        assert!(cs.admits(0, 3));
        assert!(!cs.admits(0, 2));
        assert_eq!(cs.get(0), Some(&[1, 3][..]));
        assert!(cs.admits_row(&[1, 99]));
        assert!(cs.admits_row(&[NO_ID, 99]), "unbound passes");
        assert!(!cs.admits_row(&[2, 99]));
    }

    #[test]
    fn bgp_variables_sorted() {
        let (st, mut vt) = setup();
        let bgp = encode_bgp(
            &[tp("?y", "http://p", "?x"), tp("?x", "http://q", "?z")],
            &mut vt,
            st.dictionary(),
        );
        // intern order: y=0, x=1, z=2; variables() is ascending by id.
        assert_eq!(bgp.variables(), vec![0, 1, 2]);
    }
}
