//! Tiered triple store with sorted permutation indexes, memory- or
//! disk-resident.
//!
//! The store keeps every dataset triple in three sorted permutations —
//! **SPO**, **POS** and **OSP** — which together answer any triple pattern
//! with a bound prefix via binary search:
//!
//! | bound positions | index | prefix |
//! |---|---|---|
//! | s, p, o | SPO | (s,p,o) |
//! | s, p    | SPO | (s,p)   |
//! | s, o    | OSP | (o,s)   |
//! | s       | SPO | (s)     |
//! | p, o    | POS | (p,o)   |
//! | p       | POS | (p)     |
//! | o       | OSP | (o)     |
//! | —       | SPO | full scan |
//!
//! The exact match count of any single triple pattern is therefore the length
//! of a binary-searched range, which is what the paper's cardinality
//! estimation bootstraps from (Section 5.1.2).
//!
//! # MVCC architecture
//!
//! The store is split into an immutable [`Snapshot`] (a stack of tiered
//! sorted runs, the statistics and an `Arc`-shared dictionary, stamped
//! with a monotonically increasing *epoch*) and a [`StoreWriter`] that
//! buffers inserts/deletes and publishes them by **appending one small
//! level** to the previous snapshot's run stack — O(K log N) for a
//! K-triple commit, independent of the N base rows, which stay shared
//! behind `Arc`s. Reads k-way merge the per-level ranges; compaction
//! (background or inline at a hard depth cap) folds the stack back into
//! one level without changing content or epoch. Readers clone the
//! `Arc<Snapshot>` once and are never blocked or disturbed by commits;
//! queries in flight during a commit answer from their admission-time
//! version. A bulk load needs no delta: it encodes its terms into a
//! dictionary and hands the rows to [`Snapshot::build_from`], which builds
//! the single level directly.
//!
//! # Beyond-RAM operation
//!
//! Snapshots persist in the paged **UOST v3** format (`docs/FORMAT.md`):
//! page-aligned, one CRC32 per page, footer-indexed. [`load_from_file`]
//! opens such a file *lazily* — triple pages are fetched on demand into an
//! LRU cache bounded by [`PagedOptions::cache_bytes`] — so a store larger
//! than RAM serves queries cold. [`DurableStore`] layers a write-ahead log
//! and **incremental checkpoints** (immutable run files plus a small
//! manifest) on top for crash safety.
//!
//! # Example
//!
//! ```
//! use uo_rdf::Term;
//! use uo_store::StoreWriter;
//!
//! let mut writer = StoreWriter::new();
//! writer.insert_terms(
//!     &Term::iri("http://ex/alice"),
//!     &Term::iri("http://ex/knows"),
//!     &Term::iri("http://ex/bob"),
//! );
//! let snap = writer.commit();
//! let p = snap.dictionary().lookup(&Term::iri("http://ex/knows")).unwrap();
//! assert_eq!(snap.match_pattern(None, Some(p), None).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod durable;
pub mod index;
mod paged;
pub mod persist;
mod runs;
pub mod snapshot;
pub mod stats;
pub mod writer;

pub use durable::{
    CheckpointReport, DurableError, DurableMetrics, DurableOptions, DurableStore, FsyncPolicy,
    RecoveryReport,
};
pub use index::{IndexKind, MatchSet};
pub use paged::{PageCacheSnapshot, PagedOptions};
pub use persist::{
    load_from_file, load_from_file_with, read_snapshot, save_to_file, write_snapshot, SnapshotError,
};
pub use snapshot::{Snapshot, TierStats};
pub use stats::DatasetStats;
pub use writer::{CommitStats, StoreWriter};
