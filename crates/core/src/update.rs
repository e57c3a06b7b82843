//! Executing SPARQL 1.1 Update requests against a [`StoreWriter`].
//!
//! [`run_update`] applies the operations of an [`UpdateRequest`] in order.
//! `INSERT DATA` / `DELETE DATA` buffer ground triples directly;
//! `DELETE WHERE` evaluates its BGP with the configured engine — after
//! flushing any buffered operations of the same request, so later
//! operations observe earlier ones, per the SPARQL Update semantics — and
//! deletes every instantiation of the patterns under each matching
//! binding. The final commit publishes one new [`Snapshot`] and bumps the
//! epoch; readers holding the previous snapshot are unaffected.

use crate::{Cancellation, Cancelled, Parallelism};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_engine::{encode_bgp, BgpEngine, CandidateSet};
use uo_rdf::{FxHashSet, Id, Term, Triple, NO_ID};
use uo_sparql::algebra::VarTable;
use uo_sparql::{UpdateOp, UpdateRequest};
use uo_store::{Snapshot, StoreWriter};

/// The outcome of one update request.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Operations executed.
    pub ops: usize,
    /// `INSERT DATA` statements applied (before deduplication — inserting
    /// an existing triple is a no-op at commit).
    pub inserted: usize,
    /// Triples removed: `DELETE DATA` statements whose terms all existed,
    /// plus distinct triples matched by `DELETE WHERE` operations.
    pub deleted: usize,
    /// Triple count of the snapshot the request produced.
    pub triples: usize,
    /// Epoch of the snapshot the request produced.
    pub epoch: u64,
    /// Wall-clock time spent applying and committing.
    pub exec_time: Duration,
    /// The published snapshot.
    pub snapshot: Arc<Snapshot>,
}

/// Rewrites `INSERT DATA` blank-node labels to labels the store has never
/// seen (deterministically: `u{epoch}n{counter}`, skipping collisions), so
/// every request mints fresh nodes while reuse of a label *within* one
/// request still denotes a single node.
struct BnodeRenamer {
    map: std::collections::HashMap<String, Term>,
    epoch: u64,
    counter: usize,
}

impl BnodeRenamer {
    fn new(epoch: u64) -> Self {
        BnodeRenamer { map: std::collections::HashMap::new(), epoch, counter: 0 }
    }

    fn fresh<'t>(&mut self, term: &'t Term, writer: &StoreWriter) -> Cow<'t, Term> {
        let Term::Blank(label) = term else { return Cow::Borrowed(term) };
        if let Some(t) = self.map.get(&**label) {
            return Cow::Owned(t.clone());
        }
        let minted = loop {
            let candidate = Term::blank(format!("u{}n{}", self.epoch, self.counter));
            self.counter += 1;
            if writer.dictionary().lookup(&candidate).is_none() {
                break candidate;
            }
        };
        self.map.insert(label.to_string(), minted.clone());
        Cow::Owned(minted)
    }
}

/// Applies `request` to `writer` and commits. See the module docs.
pub fn run_update(
    writer: &mut StoreWriter,
    engine: &dyn BgpEngine,
    request: &UpdateRequest,
    par: Parallelism,
) -> UpdateReport {
    try_run_update(writer, engine, request, par, &Cancellation::none())
        .expect("an update without a cancellation token cannot be cancelled")
}

/// [`run_update`] under a [`Cancellation`] token, checked at operation
/// boundaries (a single operation's evaluation or commit is never
/// interrupted, mirroring the query path's BGP-boundary granularity).
///
/// On `Err(Cancelled)` the writer still holds whatever the request
/// buffered so far, and operations before an intermediate `DELETE WHERE`
/// flush may already be committed (updates are atomic per commit, not per
/// request) — callers that abandon the request should
/// [`rollback`](StoreWriter::rollback) the pending delta.
pub fn try_run_update(
    writer: &mut StoreWriter,
    engine: &dyn BgpEngine,
    request: &UpdateRequest,
    par: Parallelism,
    cancel: &Cancellation,
) -> Result<UpdateReport, Cancelled> {
    let t0 = Instant::now();
    let mut inserted = 0usize;
    let mut deleted = 0usize;
    // SPARQL 1.1 Update §19.6: blank-node labels in INSERT DATA denote
    // *fresh* nodes, disjoint from the graph store — a label is only stable
    // within one request. Rewrite each distinct label to an unused one.
    let mut bnodes = BnodeRenamer::new(writer.snapshot().epoch());
    for op in &request.ops {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        match op {
            UpdateOp::InsertData(ts) => {
                for t in ts {
                    let s = bnodes.fresh(&t.subject, writer);
                    let o = bnodes.fresh(&t.object, writer);
                    writer.insert_terms(&s, &t.predicate, &o);
                }
                inserted += ts.len();
            }
            UpdateOp::DeleteData(ts) => {
                for t in ts {
                    if writer.delete_terms(&t.subject, &t.predicate, &t.object) {
                        deleted += 1;
                    }
                }
            }
            UpdateOp::DeleteWhere(patterns) => {
                // Flush buffered operations so the BGP observes them.
                let snap = writer.commit_with(par);
                let mut vars = VarTable::new();
                let bgp = encode_bgp(patterns, &mut vars, snap.dictionary());
                if bgp.has_dead_constant() || bgp.patterns.is_empty() {
                    continue;
                }
                let bag = engine.evaluate(&snap, &bgp, vars.len(), &CandidateSet::none());
                // Instantiate every pattern under every binding; the same
                // triple may be produced repeatedly, count it once.
                let mut doomed: FxHashSet<[Id; 3]> = FxHashSet::default();
                for row in &bag.rows {
                    for p in &bgp.patterns {
                        let (Some(s), Some(pp), Some(o)) =
                            (p.s.resolve(row), p.p.resolve(row), p.o.resolve(row))
                        else {
                            continue;
                        };
                        if s != NO_ID && pp != NO_ID && o != NO_ID && doomed.insert([s, pp, o]) {
                            writer.delete(Triple::new(s, pp, o));
                        }
                    }
                }
                deleted += doomed.len();
            }
        }
    }
    if cancel.is_cancelled() {
        return Err(Cancelled);
    }
    let snapshot = writer.commit_with(par);
    Ok(UpdateReport {
        ops: request.ops.len(),
        inserted,
        deleted,
        triples: snapshot.len(),
        epoch: snapshot.epoch(),
        exec_time: t0.elapsed(),
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uo_engine::WcoEngine;
    use uo_sparql::parse_update;
    use uo_store::StoreWriter;

    fn writer() -> StoreWriter {
        let mut w = StoreWriter::new();
        w.load_ntriples(
            "<http://a> <http://p> <http://b> .\n\
             <http://a> <http://p> <http://c> .\n\
             <http://b> <http://p> <http://c> .\n\
             <http://a> <http://name> \"alice\" .\n",
        )
        .unwrap();
        w.commit_with(Parallelism::sequential());
        w
    }

    fn apply(w: &mut StoreWriter, text: &str) -> UpdateReport {
        let req = parse_update(text).unwrap();
        run_update(w, &WcoEngine::sequential(), &req, Parallelism::sequential())
    }

    #[test]
    fn insert_data_adds_triples_and_bumps_epoch() {
        let mut w = writer();
        let before = w.snapshot();
        let r = apply(&mut w, "INSERT DATA { <http://c> <http://p> <http://a> . }");
        assert_eq!(r.inserted, 1);
        assert_eq!(r.deleted, 0);
        assert_eq!(r.triples, before.len() + 1);
        assert_eq!(r.epoch, before.epoch() + 1);
    }

    #[test]
    fn inserting_existing_triple_is_idempotent() {
        let mut w = writer();
        let before = w.snapshot().len();
        let r = apply(&mut w, "INSERT DATA { <http://a> <http://p> <http://b> . }");
        assert_eq!(r.triples, before, "set semantics: no duplicate row");
    }

    #[test]
    fn delete_data_removes_only_existing() {
        let mut w = writer();
        let r = apply(
            &mut w,
            "DELETE DATA { <http://a> <http://p> <http://b> .
                           <http://a> <http://p> <http://nope> . }",
        );
        assert_eq!(r.deleted, 1, "unknown term statement is a no-op");
        assert_eq!(r.triples, 3);
    }

    #[test]
    fn delete_where_removes_all_matches() {
        let mut w = writer();
        let r = apply(&mut w, "DELETE WHERE { ?s <http://p> ?o }");
        assert_eq!(r.deleted, 3);
        assert_eq!(r.triples, 1, "only the name triple survives");
        let snap = r.snapshot;
        let p = snap.dictionary().lookup(&uo_rdf::Term::iri("http://p"));
        assert_eq!(snap.count_pattern(None, p, None), 0);
    }

    #[test]
    fn delete_where_multi_pattern_instantiates_all_patterns() {
        // Matching bindings delete the instantiation of *every* pattern.
        let mut w = writer();
        let r = apply(&mut w, "DELETE WHERE { <http://a> <http://p> ?x . ?x <http://p> ?y }");
        // Binding: x=b, y=c → deletes (a,p,b) and (b,p,c).
        assert_eq!(r.deleted, 2);
        assert_eq!(r.triples, 2);
    }

    #[test]
    fn later_ops_observe_earlier_ones() {
        let mut w = writer();
        let r = apply(
            &mut w,
            "INSERT DATA { <http://z> <http://q> <http://z2> . } ;
             DELETE WHERE { ?s <http://q> ?o }",
        );
        assert_eq!(r.inserted, 1);
        assert_eq!(r.deleted, 1, "DELETE WHERE saw the same-request insert");
        assert_eq!(r.triples, 4);
    }

    #[test]
    fn delete_where_with_dead_constant_is_noop() {
        let mut w = writer();
        let before = w.snapshot().len();
        let r = apply(&mut w, "DELETE WHERE { ?s <http://never-seen> ?o }");
        assert_eq!(r.deleted, 0);
        assert_eq!(r.triples, before);
    }

    #[test]
    fn insert_data_blank_nodes_are_fresh_per_request() {
        let mut w = writer();
        // Same label twice within one request: one node, two triples.
        let r1 =
            apply(&mut w, "INSERT DATA { _:b <http://p> <http://a> . _:b <http://name> \"bn\" }");
        assert_eq!(r1.triples, 6);
        let snap1 = Arc::clone(&r1.snapshot);
        let p = snap1.dictionary().lookup(&Term::iri("http://p")).unwrap();
        // The request's _:b was minted fresh, not the literal label "b".
        assert!(snap1.dictionary().lookup(&Term::blank("b")).is_none());
        // A second request with the same label mints a *different* node.
        let r2 = apply(&mut w, "INSERT DATA { _:b <http://p> <http://a> }");
        assert_eq!(r2.triples, 7, "second _:b is a new subject, not a duplicate triple");
        let a = r2.snapshot.dictionary().lookup(&Term::iri("http://a")).unwrap();
        assert_eq!(
            r2.snapshot.count_pattern(None, Some(p), Some(a)),
            2,
            "two distinct blank subjects point at <http://a>"
        );
    }

    #[test]
    fn cancelled_update_stops_at_op_boundary_and_rolls_back() {
        let mut w = writer();
        let before = w.snapshot();
        let req = parse_update(
            "INSERT DATA { <http://z> <http://q> <http://z2> . } ;
             DELETE WHERE { ?s ?p ?o }",
        )
        .unwrap();
        let cancel = Cancellation::after(std::time::Duration::ZERO);
        let err = try_run_update(
            &mut w,
            &WcoEngine::sequential(),
            &req,
            Parallelism::sequential(),
            &cancel,
        );
        assert!(err.is_err(), "already-expired deadline cancels before the first op");
        w.rollback();
        assert_eq!(w.pending_inserts() + w.pending_deletes(), 0);
        let snap = w.commit_with(Parallelism::sequential());
        assert!(Arc::ptr_eq(&snap, &before), "rollback discarded the buffered delta");
    }

    #[test]
    fn readers_unaffected_by_updates() {
        let mut w = writer();
        let reader = w.snapshot();
        let before: Vec<_> = reader.iter().collect();
        apply(&mut w, "DELETE WHERE { ?s ?p ?o }");
        assert_eq!(reader.iter().collect::<Vec<_>>(), before);
        assert_eq!(w.snapshot().len(), 0);
    }
}
