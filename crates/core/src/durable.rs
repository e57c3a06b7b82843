//! Durable SPARQL Update execution: [`run_update`](crate::run_update)
//! layered over a [`DurableStore`].
//!
//! The journal payload is the **canonical serialization** of the parsed
//! [`UpdateRequest`] (`uo_sparql::serialize_update`, which `parse_update`
//! round-trips), stamped with the request's post-commit epoch. Replay
//! re-parses and re-runs the request from the identical base state, which
//! reproduces the identical snapshot — including `INSERT DATA` blank-node
//! minting, whose fresh labels are a deterministic function of the base
//! epoch and dictionary.
//!
//! The protocol in [`try_run_update_durable`] is apply → journal + fsync →
//! hand back (the caller publishes and acknowledges). Applying first costs
//! nothing observably — a commit only creates a new in-memory snapshot;
//! nothing reads it until the caller swaps it in — and buys an exact
//! post-commit epoch stamp for the record. The WAL invariant that matters
//! holds: **no state is ever published or acknowledged before its record
//! is durable**, and a request that fails to journal (or is cancelled) is
//! rolled back wholesale via [`DurableStore::reset_to`], so the store
//! never diverges from its own log.

use crate::update::{try_run_update, UpdateReport};
use crate::{Cancellation, Cancelled, Parallelism};
use std::fmt;
use std::io;
use std::path::Path;
use uo_engine::BgpEngine;
use uo_sparql::{parse_update, serialize_update, UpdateRequest};
use uo_store::{DurableError, DurableOptions, DurableStore, StoreWriter};

/// Why a durable update did not complete. Either way the store was reset
/// to its pre-request state and nothing was published.
#[derive(Debug)]
pub enum DurableUpdateError {
    /// Deadline or shutdown cancelled the request at an operation boundary.
    Cancelled,
    /// The request applied but its journal write failed; acknowledging it
    /// would have risked silent loss, so it was rolled back instead.
    Journal(io::Error),
}

impl fmt::Display for DurableUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableUpdateError::Cancelled => write!(f, "update cancelled; request rolled back"),
            DurableUpdateError::Journal(e) => {
                write!(f, "journal write failed ({e}); request rolled back")
            }
        }
    }
}

impl std::error::Error for DurableUpdateError {}

impl From<Cancelled> for DurableUpdateError {
    fn from(_: Cancelled) -> Self {
        DurableUpdateError::Cancelled
    }
}

/// The standard replay function: payloads are canonical SPARQL Update
/// texts; replaying parses and re-runs them through `engine`.
pub fn replay_update<'a>(
    engine: &'a dyn BgpEngine,
    par: Parallelism,
) -> impl FnMut(&mut StoreWriter, &[u8]) -> Result<(), String> + 'a {
    move |writer, payload| {
        let text = std::str::from_utf8(payload)
            .map_err(|_| "journaled payload is not UTF-8".to_string())?;
        let request =
            parse_update(text).map_err(|e| format!("journaled update failed to parse: {e}"))?;
        crate::run_update(writer, engine, &request, par);
        Ok(())
    }
}

/// Opens (or creates) a durable store at `dir`, replaying any journaled
/// update tail through `engine`. See [`DurableStore::open`].
pub fn open_durable(
    dir: &Path,
    opts: DurableOptions,
    engine: &dyn BgpEngine,
    par: Parallelism,
) -> Result<DurableStore, DurableError> {
    DurableStore::open(dir, opts, replay_update(engine, par))
}

/// [`open_durable`] with a span recorder: recovery (checkpoint load + WAL
/// replay) is traced under a `recovery`/`open` root span, and the tracer
/// stays installed for the store's commit pipeline. See
/// [`DurableStore::open_traced`].
pub fn open_durable_traced(
    dir: &Path,
    opts: DurableOptions,
    tracer: uo_obs::Tracer,
    engine: &dyn BgpEngine,
    par: Parallelism,
) -> Result<DurableStore, DurableError> {
    DurableStore::open_traced(dir, opts, tracer, replay_update(engine, par))
}

/// Applies `request` durably: run + commit in memory, journal the
/// canonical serialization stamped with the post-commit epoch, fsync per
/// the store's policy, and return the report for the caller to publish.
/// No-op requests (nothing committed, epoch unchanged) skip the journal —
/// there is nothing to replay.
///
/// On any error the store is [`reset`](DurableStore::reset_to) to its
/// pre-request snapshot: a request is durable entirely or not at all.
pub fn try_run_update_durable(
    store: &mut DurableStore,
    engine: &dyn BgpEngine,
    request: &UpdateRequest,
    par: Parallelism,
    cancel: &Cancellation,
) -> Result<UpdateReport, DurableUpdateError> {
    let base = store.snapshot();
    match try_run_update(store.writer_mut(), engine, request, par, cancel) {
        Ok(report) => {
            if report.epoch == base.epoch() {
                return Ok(report); // nothing committed, nothing to journal
            }
            let payload = serialize_update(request);
            match store.journal(report.epoch, payload.as_bytes()) {
                Ok(()) => Ok(report),
                Err(e) => {
                    store.reset_to(base);
                    Err(DurableUpdateError::Journal(e))
                }
            }
        }
        Err(Cancelled) => {
            store.reset_to(base);
            Err(DurableUpdateError::Cancelled)
        }
    }
}

/// [`try_run_update_durable`] without a cancellation token.
pub fn run_update_durable(
    store: &mut DurableStore,
    engine: &dyn BgpEngine,
    request: &UpdateRequest,
    par: Parallelism,
) -> Result<UpdateReport, io::Error> {
    try_run_update_durable(store, engine, request, par, &Cancellation::none()).map_err(
        |e| match e {
            DurableUpdateError::Journal(e) => e,
            DurableUpdateError::Cancelled => {
                unreachable!("an update without a cancellation token cannot be cancelled")
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use uo_engine::WcoEngine;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "uo_core_durable_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> DurableStore {
        open_durable(
            dir,
            DurableOptions::default(),
            &WcoEngine::sequential(),
            Parallelism::sequential(),
        )
        .expect("open durable")
    }

    fn apply(ds: &mut DurableStore, text: &str) -> UpdateReport {
        let request = parse_update(text).unwrap();
        run_update_durable(ds, &WcoEngine::sequential(), &request, Parallelism::sequential())
            .expect("durable update")
    }

    #[test]
    fn updates_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut ds = open(&dir);
            apply(&mut ds, "INSERT DATA { <http://a> <http://p> <http://b> }");
            apply(
                &mut ds,
                "INSERT DATA { <http://a> <http://p> <http://c> . \
                               <http://b> <http://p> <http://c> } ;
                 DELETE WHERE { <http://b> <http://p> ?o }",
            );
            assert_eq!(ds.snapshot().len(), 2);
        }
        let ds = open(&dir);
        assert_eq!(ds.recovery().replayed_ops, 2);
        assert_eq!(ds.snapshot().len(), 2);
        let snap = ds.snapshot();
        let d = snap.dictionary();
        let id = |s: &str| d.lookup(&uo_rdf::Term::iri(s));
        assert_eq!(snap.count_pattern(id("http://a"), id("http://p"), None), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blank_node_minting_replays_exactly() {
        let dir = temp_dir("bnodes");
        let (len, epoch, terms) = {
            let mut ds = open(&dir);
            apply(&mut ds, "INSERT DATA { _:x <http://p> <http://a> . _:x <http://q> _:y }");
            apply(&mut ds, "INSERT DATA { _:x <http://p> <http://a> }");
            let snap = ds.snapshot();
            (snap.len(), snap.epoch(), snap.dictionary().len())
        };
        let ds = open(&dir);
        let snap = ds.snapshot();
        assert_eq!((snap.len(), snap.epoch(), snap.dictionary().len()), (len, epoch, terms));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noop_requests_are_not_journaled() {
        let dir = temp_dir("noop");
        let mut ds = open(&dir);
        apply(&mut ds, "INSERT DATA { <http://a> <http://p> <http://b> }");
        let before = ds.wal_stats().records;
        // Deleting a statement whose terms are unknown is a no-op commit.
        let r = apply(&mut ds, "DELETE DATA { <http://never> <http://p> <http://no> }");
        assert_eq!(r.epoch, 1);
        assert_eq!(ds.wal_stats().records, before, "no-op request must not grow the log");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_durable_update_rolls_back_wholesale() {
        let dir = temp_dir("cancel");
        let mut ds = open(&dir);
        apply(&mut ds, "INSERT DATA { <http://a> <http://p> <http://b> }");
        let base = ds.snapshot();
        let request = parse_update(
            "INSERT DATA { <http://z> <http://q> <http://w> . } ;
             DELETE WHERE { ?s ?p ?o }",
        )
        .unwrap();
        let cancel = Cancellation::after(std::time::Duration::ZERO);
        let err = try_run_update_durable(
            &mut ds,
            &WcoEngine::sequential(),
            &request,
            Parallelism::sequential(),
            &cancel,
        );
        assert!(matches!(err, Err(DurableUpdateError::Cancelled)));
        assert!(std::sync::Arc::ptr_eq(&ds.snapshot(), &base), "reset to the pre-request snapshot");
        // Reopen: only the journaled request exists.
        drop(ds);
        let ds = open(&dir);
        assert_eq!(ds.recovery().replayed_ops, 1);
        assert_eq!(ds.snapshot().epoch(), base.epoch());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_store_recovers_seed_plus_updates() {
        let dir = temp_dir("seeded");
        {
            let mut st = StoreWriter::new();
            st.load_ntriples(
                "<http://s1> <http://p> <http://o1> .\n<http://s2> <http://p> <http://o2> .\n",
            )
            .unwrap();
            let mut ds = open(&dir);
            ds.seed(st.commit_with(Parallelism::sequential())).unwrap();
            apply(&mut ds, "INSERT DATA { <http://s3> <http://p> <http://o3> }");
        }
        let ds = open(&dir);
        assert_eq!(ds.snapshot().len(), 3);
        assert_eq!(ds.recovery().replayed_ops, 1, "seed comes from the checkpoint, not replay");
        fs::remove_dir_all(&dir).ok();
    }
}
