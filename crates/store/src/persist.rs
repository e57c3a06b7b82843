//! Binary persistence of a [`Snapshot`] (the `.uost` file format).
//!
//! Loading a large dataset from N-Triples/Turtle re-parses and re-encodes
//! every term; a snapshot file stores the dictionary and the encoded
//! indexes directly, making reloads I/O-bound. Three on-disk versions
//! share the `"UOST"` magic (the full byte-level specification lives in
//! `docs/FORMAT.md`):
//!
//! - **v1/v2** — a flat length-prefixed stream: dictionary terms followed
//!   by the SPO rows (v2 added the MVCC epoch). Fully materialized on
//!   load; permutation indexes and statistics are recomputed.
//! - **v3** — the paged container (the `paged` module): page-aligned,
//!   CRC-per-page, footer-indexed, holding every level of the tiered run
//!   stack plus the statistics. Opening one is **lazy** — triple pages
//!   stay on disk until queries touch them, so a store larger than RAM
//!   serves queries cold.
//!
//! [`save_to_file`] writes v3; [`load_from_file`] (and the streaming
//! [`read_snapshot`]) read all three versions. All integers are
//! little-endian.

use crate::paged::{
    open_container, write_container, Backing, ContainerMeta, PageCacheStats, PagedOptions,
    KIND_SNAPSHOT,
};
use crate::{Snapshot, StoreWriter};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;
use uo_par::Parallelism;
use uo_rdf::{Dictionary, Term};

const MAGIC: &[u8; 4] = b"UOST";
const VERSION: u32 = 2;
const VERSION_PAGED: u32 = 3;

/// An error while reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid snapshot data.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_str(r: &mut impl Read) -> Result<String, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 28 {
        return Err(corrupt("string length out of range"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| corrupt("invalid UTF-8 in term"))
}

/// Writes one tagged term record (shared by the v1/v2 stream format and
/// the v3 dictionary section).
pub(crate) fn write_term(w: &mut impl Write, term: &Term) -> io::Result<()> {
    match term {
        Term::Iri(i) => {
            w.write_all(&[0])?;
            write_str(w, i)
        }
        Term::Blank(b) => {
            w.write_all(&[1])?;
            write_str(w, b)
        }
        Term::Literal { lexical, lang: None, datatype: None } => {
            w.write_all(&[2])?;
            write_str(w, lexical)
        }
        Term::Literal { lexical, lang: Some(l), .. } => {
            w.write_all(&[3])?;
            write_str(w, lexical)?;
            write_str(w, l)
        }
        Term::Literal { lexical, lang: None, datatype: Some(dt) } => {
            w.write_all(&[4])?;
            write_str(w, lexical)?;
            write_str(w, dt)
        }
    }
}

/// Reads one tagged term record written by [`write_term`].
pub(crate) fn read_term(r: &mut impl Read) -> Result<Term, SnapshotError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => Term::iri(read_str(r)?),
        1 => Term::blank(read_str(r)?),
        2 => Term::literal(read_str(r)?),
        3 => {
            let lex = read_str(r)?;
            let lang = read_str(r)?;
            Term::lang_literal(lex, lang)
        }
        4 => {
            let lex = read_str(r)?;
            let dt = read_str(r)?;
            Term::typed_literal(lex, dt)
        }
        t => return Err(corrupt(format!("unknown term tag {t}"))),
    })
}

/// Writes a version-2 snapshot of `snap`.
/// The flat stream format; [`save_to_file`] writes the paged v3 layout.
pub fn write_snapshot(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&snap.epoch().to_le_bytes())?;
    let dict = snap.dictionary();
    w.write_all(&(dict.len() as u32).to_le_bytes())?;
    for (_, term) in dict.iter() {
        write_term(w, term)?;
    }
    w.write_all(&(snap.len() as u64).to_le_bytes())?;
    for t in snap.iter() {
        for c in t.as_array() {
            w.write_all(&c.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Builds a fully-wired store from an opened v3 container.
fn store_from_backing(backing: Backing, opts: PagedOptions) -> Result<StoreWriter, SnapshotError> {
    let c = open_container(backing, opts, Arc::new(PageCacheStats::default()))?;
    if c.kind != KIND_SNAPSHOT {
        return Err(corrupt("container is a run file, not a snapshot"));
    }
    let dict = c.dict.ok_or_else(|| corrupt("snapshot container missing its dictionary"))?;
    let snap = Snapshot {
        dict: Arc::new(dict),
        epoch: c.epoch,
        levels: c.levels,
        len: c.len as usize,
        next_run_id: c.next_run_id,
        stats: c.stats,
    };
    Ok(StoreWriter::from_snapshot(Arc::new(snap)))
}

/// Reads a snapshot (version 1, 2, or 3) into a writer whose base is the
/// loaded snapshot.
/// Version-1 files predate the epoch field and load at epoch 0. A
/// version-3 stream is buffered in memory (the paged layout is random
/// access); prefer [`load_from_file`] for lazy page loading off disk.
pub fn read_snapshot(r: &mut impl Read) -> Result<StoreWriter, SnapshotError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = read_u32(r)?;
    let epoch = match version {
        1 => 0,
        2 => read_u64(r)?,
        VERSION_PAGED => {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&VERSION_PAGED.to_le_bytes());
            r.read_to_end(&mut bytes)?;
            return store_from_backing(Backing::Mem(bytes), PagedOptions::default());
        }
        v => return Err(corrupt(format!("unsupported version {v}"))),
    };
    let mut dict = Dictionary::new();
    let n_terms = read_u32(r)? as usize;
    for i in 0..n_terms {
        let term = read_term(r)?;
        let id = dict.encode(&term);
        if id as usize != i + 1 {
            return Err(corrupt("duplicate term in dictionary section"));
        }
    }
    let n_triples = read_u64(r)? as usize;
    let max_id = n_terms as u32;
    let mut spo = Vec::with_capacity(n_triples.min(1 << 24));
    for _ in 0..n_triples {
        let s = read_u32(r)?;
        let p = read_u32(r)?;
        let o = read_u32(r)?;
        if s == 0 || p == 0 || o == 0 || s > max_id || p > max_id || o > max_id {
            return Err(corrupt("triple id out of range"));
        }
        spo.push([s, p, o]);
    }
    let snap = Snapshot::build_from(Arc::new(dict), spo, epoch, Parallelism::from_env());
    Ok(StoreWriter::from_snapshot(Arc::new(snap)))
}

/// Flattens a [`SnapshotError`] into the `io::Error` the save path reports.
fn io_error(e: SnapshotError) -> io::Error {
    match e {
        SnapshotError::Io(e) => e,
        SnapshotError::Corrupt(m) => io::Error::other(m),
    }
}

/// Snapshot to a file in the paged v3 layout, **atomically**: the bytes
/// are written to a temporary file in the same directory, fsynced, and
/// renamed over `path`. A crash at any point leaves either the previous
/// file intact or the new one complete — never a half-written snapshot,
/// which matters when `path` is the only checkpoint a durable store has.
pub fn save_to_file(snap: &Snapshot, path: &std::path::Path) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let file = std::fs::File::create(&tmp)?;
    let mut w = io::BufWriter::new(file);
    let meta = ContainerMeta {
        kind: KIND_SNAPSHOT,
        epoch: snap.epoch(),
        len: snap.len() as u64,
        next_run_id: snap.next_run_id,
        dict: Some(snap.dictionary()),
        stats: Some(snap.stats()),
        levels: &snap.levels,
    };
    let write = write_container(&mut w, &meta)
        .map_err(io_error)
        .and_then(|()| w.flush())
        .and_then(|()| w.get_ref().sync_all());
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: not every platform
    // supports opening directories).
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load a snapshot from a file with the default page-cache budget.
pub fn load_from_file(path: &std::path::Path) -> Result<StoreWriter, SnapshotError> {
    load_from_file_with(path, PagedOptions::default())
}

/// Load a snapshot from a file into a writer whose base is the loaded
/// snapshot. A v3 file is opened **lazily** — only the
/// header, footer, and dictionary are read eagerly; triple pages are
/// fetched on demand into a cache bounded by `opts.cache_bytes`. v1/v2
/// files are materialized in full (they predate paging).
pub fn load_from_file_with(
    path: &std::path::Path,
    opts: PagedOptions,
) -> Result<StoreWriter, SnapshotError> {
    let f = std::fs::File::open(path)?;
    let mut hdr = [0u8; 8];
    let is_paged = {
        use std::os::unix::fs::FileExt;
        f.read_exact_at(&mut hdr, 0).is_ok()
            && &hdr[0..4] == MAGIC
            && u32::from_le_bytes(hdr[4..8].try_into().unwrap()) == VERSION_PAGED
    };
    if is_paged {
        store_from_backing(Backing::File(f), opts)
    } else {
        read_snapshot(&mut io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Arc<Snapshot> {
        let mut w = StoreWriter::new();
        w.load_ntriples(
            r#"
<http://ex/a> <http://ex/knows> <http://ex/b> .
<http://ex/a> <http://ex/name> "Alice"@en .
<http://ex/b> <http://ex/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://ex/knows> <http://ex/a> .
<http://ex/c> <http://ex/name> "plain" .
"#,
        )
        .unwrap();
        w.commit()
    }

    /// Serializes in the version-1 layout (no epoch field) — the format
    /// every pre-MVCC build wrote. Kept as a test fixture generator for the
    /// backward-compatibility guarantee.
    fn write_snapshot_v1(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&1u32.to_le_bytes())?;
        let dict = snap.dictionary();
        w.write_all(&(dict.len() as u32).to_le_bytes())?;
        for (_, term) in dict.iter() {
            write_term(w, term)?;
        }
        w.write_all(&(snap.len() as u64).to_le_bytes())?;
        for t in snap.iter() {
            for c in t.as_array() {
                w.write_all(&c.to_le_bytes())?;
            }
        }
        Ok(())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let st = sample();
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        assert_eq!(loaded.dictionary().len(), st.dictionary().len());
        assert!(st.iter().eq(loaded.iter()));
        // Decoded terms identical.
        for (id, term) in st.dictionary().iter() {
            assert_eq!(loaded.dictionary().decode(id), Some(term));
        }
        // Stats recomputed.
        assert_eq!(loaded.stats().triples, st.stats().triples);
        assert_eq!(loaded.stats().entities, st.stats().entities);
        // The epoch survives the round trip.
        assert_eq!(loaded.epoch(), st.epoch());
    }

    #[test]
    fn epoch_round_trips_beyond_one() {
        // Advance the epoch with incremental commits, then persist.
        let mut w = StoreWriter::from_snapshot(sample());
        for i in 0..3 {
            w.insert_terms(
                &Term::iri(format!("http://ex/extra{i}")),
                &Term::iri("http://ex/knows"),
                &Term::iri("http://ex/a"),
            );
            w.commit();
        }
        let st = w.snapshot();
        let epoch = st.epoch();
        assert!(epoch >= 4);
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap().snapshot();
        assert_eq!(loaded.epoch(), epoch);
    }

    #[test]
    fn reads_version1_files_at_epoch_zero() {
        let st = sample();
        let mut buf = Vec::new();
        write_snapshot_v1(&st, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        assert!(st.iter().eq(loaded.iter()));
        assert_eq!(loaded.epoch(), 0, "v1 files predate epochs");
        for (id, term) in st.dictionary().iter() {
            assert_eq!(loaded.dictionary().decode(id), Some(term));
        }
    }

    #[test]
    fn rejects_truncation_inside_epoch_field() {
        let st = sample();
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        // magic (4) + version (4) + half of the epoch u64.
        buf.truncate(4 + 4 + 4);
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupt_version_field() {
        let st = sample();
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        match read_snapshot(&mut buf.as_slice()) {
            Err(SnapshotError::Corrupt(m)) => assert!(m.contains("unsupported version")),
            other => panic!("expected corrupt-version error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_snapshot(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_snapshot(&mut buf.as_slice()), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_snapshot(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let st = sample();
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        // Corrupt the last triple's object id to an enormous value.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_snapshot(&mut buf.as_slice()), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("uo_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        let loaded = load_from_file(&path).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_no_temp_left_and_overwrite_is_safe() {
        let dir = std::env::temp_dir().join(format!("uo_snapshot_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        // Overwrite with a different (larger) snapshot: the reader must see
        // either version, and afterwards exactly the new one.
        let mut w = StoreWriter::from_snapshot(sample());
        w.insert_terms(
            &Term::iri("http://ex/extra"),
            &Term::iri("http://ex/knows"),
            &Term::iri("http://ex/a"),
        );
        let st2 = w.commit();
        save_to_file(&st2, &path).unwrap();
        let loaded = load_from_file(&path).unwrap().snapshot();
        assert_eq!(loaded.len(), st2.len());
        // No temporary residue in the directory.
        let residue: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_preserves_existing_snapshot() {
        let dir = std::env::temp_dir().join(format!("uo_snapshot_keep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        // A save whose temp file cannot even be created (the parent is a
        // file, not a directory) must leave the original untouched.
        let bogus = path.join("impossible.uost");
        assert!(save_to_file(&st, &bogus).is_err());
        let loaded = load_from_file(&path).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let st = StoreWriter::new().commit();
        let mut buf = Vec::new();
        write_snapshot(&st, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap().snapshot();
        assert!(loaded.is_empty());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uo_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn v3_file_round_trip_reads_lazily() {
        let dir = temp_dir("v3rt");
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        // A deliberately tiny cache budget: every page still loads (at
        // least one page is always retained), evictions just increase.
        let loaded =
            load_from_file_with(&path, PagedOptions { cache_bytes: 4096 }).unwrap().snapshot();
        assert_eq!(loaded.epoch(), st.epoch());
        assert_eq!(loaded.len(), st.len());
        assert!(st.iter().eq(loaded.iter()));
        for (id, term) in st.dictionary().iter() {
            assert_eq!(loaded.dictionary().decode(id), Some(term));
        }
        assert_eq!(loaded.stats().triples, st.stats().triples);
        assert_eq!(loaded.stats().entities, st.stats().entities);
        assert_eq!(loaded.stats().literals, st.stats().literals);
        let cache = loaded.page_cache_stats().expect("disk-backed snapshot");
        assert!(cache.misses > 0, "the full scan had to fetch pages");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_stream_round_trip_via_read_snapshot() {
        let dir = temp_dir("v3stream");
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let loaded = read_snapshot(&mut bytes.as_slice()).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        assert!(st.iter().eq(loaded.iter()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_corrupt_row_page_fails_cleanly_with_crc_error() {
        let dir = temp_dir("v3crc");
        let path = dir.join("store.uost");
        let st = sample();
        save_to_file(&st, &path).unwrap();
        // Page 0 is the header, page 1 the dictionary; the first row page
        // (the SPO add run) starts at page 2. Flip one payload byte there.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2 * 4096] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Opening stays lazy and succeeds — the damage is found on read.
        let loaded = load_from_file(&path).unwrap().snapshot();
        match loaded.try_match_pattern(None, None, None) {
            Err(SnapshotError::Corrupt(m)) => {
                assert!(m.contains("crc mismatch"), "clean per-page error, got: {m}")
            }
            other => panic!("expected a page CRC error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_rejects_truncated_trailer() {
        let dir = temp_dir("v3trunc");
        let path = dir.join("store.uost");
        save_to_file(&sample(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_from_file(&path), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_multi_level_snapshot_round_trips_with_tombstones() {
        let dir = temp_dir("v3levels");
        let path = dir.join("store.uost");
        // Two incremental commits on top of the bulk build: the saved file
        // carries three levels including tombstones.
        let mut w = StoreWriter::from_snapshot(sample());
        w.insert_terms(
            &Term::iri("http://ex/new"),
            &Term::iri("http://ex/knows"),
            &Term::iri("http://ex/a"),
        );
        w.commit_with(Parallelism::sequential());
        assert!(w.delete_terms(
            &Term::iri("http://ex/a"),
            &Term::iri("http://ex/knows"),
            &Term::iri("http://ex/b"),
        ));
        w.commit_with(Parallelism::sequential());
        let st = w.snapshot();
        assert!(st.level_count() >= 3);
        save_to_file(&st, &path).unwrap();
        let loaded = load_from_file(&path).unwrap().snapshot();
        assert_eq!(loaded.len(), st.len());
        assert_eq!(loaded.level_count(), st.level_count());
        assert!(st.iter().eq(loaded.iter()));
        assert_eq!(loaded.stats().triples, st.stats().triples);
        std::fs::remove_dir_all(&dir).ok();
    }
}
