//! Query-level observability primitives shared by the whole stack.
//!
//! Everything in this crate is designed around one contract: **zero cost
//! when disabled, lock-free when enabled**. The three building blocks:
//!
//! - [`Histogram`] — log₂-bucketed latency histogram over `AtomicU64`
//!   buckets. Recording is a single relaxed fetch-add; p50/p90/p99 are
//!   derived from a [`HistogramSnapshot`] at read time. Bucket boundaries
//!   are exact powers of two (bucket `i ≥ 1` covers `[2^(i-1), 2^i)`,
//!   bucket 0 holds the value 0), so merging two histograms is exact:
//!   merge-then-snapshot equals snapshot-of-concatenated-samples.
//! - [`Profiler`] / [`OpProfile`] / [`QueryProfile`] — an opt-in
//!   per-query span tree. The [`Profiler`] handle is a `Copy` boolean:
//!   the disabled path in instrumented code is a single branch, no
//!   allocation, no atomics. When enabled, each plan operator records
//!   wall-nanos, its actual output cardinality, and the optimizer's
//!   estimate side by side. All timing fields are named `*_nanos` and
//!   nothing else is, so callers can compare profiles modulo timing by
//!   stripping that suffix (see [`strip_timing_fields`]).
//! - [`SlowLog`] — a bounded ring buffer of the most recent
//!   slower-than-threshold queries, plus single-line structured stderr
//!   records carrying the per-request id.
//!
//! [`RequestIds`] mints the per-request ids (`X-UO-Request-Id`) that tie
//! a response, its slow-log entry, and its stderr record together.
//!
//! Two sibling modules extend the same contract beyond single queries:
//! [`trace`] is the system-wide span recorder (connection lifecycle,
//! commit pipeline, WAL, background maintenance) with a Chrome
//! trace-event exporter, and [`prom`] renders counters and these
//! histograms as Prometheus text exposition (0.0.4).

#![warn(missing_docs)]

pub mod prom;
pub mod trace;

pub use trace::{strip_trace_timing, Tracer};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: one for the value 0 plus one per power of
/// two up to `2^63`. Values at or above `2^(BUCKETS-2)` land in the last
/// bucket.
pub const BUCKETS: usize = 64;

/// Index of the bucket a value falls into: 0 for 0, otherwise
/// `floor(log2(v)) + 1`, clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower and exclusive upper value bound of bucket `i`: bucket 0
/// is `[0, 1)`, bucket `i ≥ 1` is `[2^(i-1), 2^i)` (the last bucket's
/// upper bound saturates at `u64::MAX`).
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else if i >= BUCKETS - 1 {
        (1u64 << (BUCKETS - 2), u64::MAX)
    } else {
        (1u64 << (i - 1), 1u64 << i)
    }
}

/// Lock-free log₂-bucketed histogram. Typically records nanoseconds, but
/// the values are unitless `u64`s. All operations are wait-free relaxed
/// atomics; a snapshot taken during concurrent recording is a coherent
/// *approximation* (count/sum/buckets may straddle an in-flight record),
/// while a snapshot taken after recording quiesces is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. Wait-free: three relaxed fetch-adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self`. Because bucket boundaries
    /// are fixed powers of two, this is exact: the merged histogram equals
    /// the histogram of the concatenated sample streams.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for percentile derivation and serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// exclusive upper boundary of the first bucket at which the running
    /// count reaches `ceil(q · count)`. Returns 0 for an empty histogram.
    /// The estimate is conservative — never below the true quantile, and
    /// less than 2× above it (log₂ bucket resolution).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return if i == 0 {
                    0
                } else if hi == u64::MAX {
                    lo
                } else {
                    hi - 1
                };
            }
        }
        0
    }

    /// Renders the snapshot as a JSON object: `count`, `sum_nanos`,
    /// `p50_nanos` / `p90_nanos` / `p99_nanos`, and a sparse `buckets`
    /// array of `[lower_bound, count]` pairs for non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"count\": ");
        s.push_str(&self.count.to_string());
        s.push_str(", \"sum_nanos\": ");
        s.push_str(&self.sum.to_string());
        for (name, q) in [("p50_nanos", 0.50), ("p90_nanos", 0.90), ("p99_nanos", 0.99)] {
            s.push_str(", \"");
            s.push_str(name);
            s.push_str("\": ");
            s.push_str(&self.quantile(q).to_string());
        }
        s.push_str(", \"buckets\": [");
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let (lo, _) = bucket_bounds(i);
            s.push_str(&format!("[{lo}, {c}]"));
        }
        s.push_str("]}");
        s
    }
}

/// Opt-in profiling handle. `Copy` and branch-cheap: instrumented code
/// tests [`Profiler::is_on`] once per operator and does nothing else when
/// profiling is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profiler {
    on: bool,
}

impl Profiler {
    /// Profiling disabled — the default, zero-overhead path.
    pub const fn off() -> Profiler {
        Profiler { on: false }
    }

    /// Profiling enabled: operators record spans.
    pub const fn on() -> Profiler {
        Profiler { on: true }
    }

    /// Whether spans should be recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }
}

/// One operator's span in a [`QueryProfile`]: what it was, how long it
/// took, how many rows it actually produced, and what the optimizer
/// expected. `children` follow plan order, so the tree is deterministic
/// for a given plan — only the `wall_nanos` values vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Operator kind: `bgp`, `group`, `union`, `branch`, `optional`,
    /// `minus`, `filter`, `bind`, `values`.
    pub op: &'static str,
    /// Human-readable operator detail (e.g. the BGP's triple patterns).
    pub detail: String,
    /// Wall-clock nanoseconds spent producing this operator's output
    /// (inclusive of children).
    pub wall_nanos: u64,
    /// Actual output cardinality (rows in the operator's result bag).
    pub rows: u64,
    /// The optimizer's estimated cardinality, when it annotated one.
    pub est_rows: Option<f64>,
    /// Child operator spans, in plan order.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// A span with no children and no estimate.
    pub fn leaf(op: &'static str, detail: String, wall_nanos: u64, rows: u64) -> OpProfile {
        OpProfile { op, detail, wall_nanos, rows, est_rows: None, children: Vec::new() }
    }

    /// Renders the span tree as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"op\": \"");
        s.push_str(self.op);
        s.push_str("\", \"detail\": \"");
        s.push_str(&uo_json::escape(&self.detail));
        s.push_str("\", \"wall_nanos\": ");
        s.push_str(&self.wall_nanos.to_string());
        s.push_str(", \"rows\": ");
        s.push_str(&self.rows.to_string());
        if let Some(est) = self.est_rows {
            s.push_str(", \"est_rows\": ");
            s.push_str(&uo_json::num(est));
        }
        if !self.children.is_empty() {
            s.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&c.to_json());
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

/// How the plan cache treated a query. [`QueryProfile`] carries it so
/// EXPLAIN ANALYZE output shows whether optimize time was paid or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Plan served from the cache at the current epoch.
    Hit,
    /// No cached plan; this query planned from scratch.
    Miss,
    /// A cached plan existed but was invalidated by a newer epoch.
    Stale,
    /// The path has no plan cache (e.g. CLI one-shot execution).
    Bypass,
}

impl CacheOutcome {
    /// Stable lowercase label used in JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// The full EXPLAIN ANALYZE record for one query: per-phase wall times
/// (parse / cache lookup / optimize / execute) plus the operator span
/// tree. Serialized with [`QueryProfile::to_json`] and attached to W3C
/// results under a top-level `"profile"` key.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Engine that executed the plan (`wco` / `binary`).
    pub engine: String,
    /// Optimizer strategy label (`base` / `tt` / `cp` / `full`).
    pub strategy: String,
    /// Worker threads the evaluator was allowed to use.
    pub threads: usize,
    /// Query class (`U` / `O` / `UO` / `BGP`).
    pub query_type: String,
    /// Wall nanoseconds spent parsing (0 when a cached plan skipped it).
    pub parse_nanos: u64,
    /// Plan-cache outcome for this query.
    pub cache: CacheOutcome,
    /// Wall nanoseconds spent in plan transformations + cost-based
    /// optimization (0 on a cache hit).
    pub optimize_nanos: u64,
    /// Wall nanoseconds spent executing the plan (including aggregation,
    /// ordering and projection decode).
    pub execute_nanos: u64,
    /// End-to-end wall nanoseconds for the query.
    pub total_nanos: u64,
    /// Rows in the final result.
    pub rows: u64,
    /// Total rows the BGP engines enumerated to answer the query — the sum
    /// of every BGP node's output size. Under LIMIT pushdown this is
    /// strictly below the full-materialization count, which is how EXPLAIN
    /// ANALYZE proves work was skipped. Deterministic across worker counts.
    pub rows_enumerated: u64,
    /// Whether any budgeted operator stopped early (row budget filled, or
    /// the bounded top-k sort discarded rows beyond `OFFSET + LIMIT`).
    pub short_circuit: bool,
    /// The operator span tree, rooted at the plan's top group.
    pub root: Option<OpProfile>,
}

impl QueryProfile {
    /// Renders the profile as a JSON object (the `"profile"` block).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"engine\": \"");
        s.push_str(&uo_json::escape(&self.engine));
        s.push_str("\", \"strategy\": \"");
        s.push_str(&uo_json::escape(&self.strategy));
        s.push_str("\", \"threads\": ");
        s.push_str(&self.threads.to_string());
        s.push_str(", \"query_type\": \"");
        s.push_str(&uo_json::escape(&self.query_type));
        s.push_str("\", \"cache\": \"");
        s.push_str(self.cache.label());
        s.push_str("\", \"parse_nanos\": ");
        s.push_str(&self.parse_nanos.to_string());
        s.push_str(", \"optimize_nanos\": ");
        s.push_str(&self.optimize_nanos.to_string());
        s.push_str(", \"execute_nanos\": ");
        s.push_str(&self.execute_nanos.to_string());
        s.push_str(", \"total_nanos\": ");
        s.push_str(&self.total_nanos.to_string());
        s.push_str(", \"rows\": ");
        s.push_str(&self.rows.to_string());
        s.push_str(", \"rows_enumerated\": ");
        s.push_str(&self.rows_enumerated.to_string());
        s.push_str(", \"short_circuit\": ");
        s.push_str(if self.short_circuit { "true" } else { "false" });
        if let Some(root) = &self.root {
            s.push_str(", \"plan\": ");
            s.push_str(&root.to_json());
        }
        s.push('}');
        s
    }
}

/// Removes every `"<name>_nanos": <digits>` field from a profile JSON
/// string, so two profiles of the same plan can be compared byte-for-byte
/// modulo timing. Timing is *only* ever serialized in `*_nanos` fields.
pub fn strip_timing_fields(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Match `"..._nanos": <digits>` with an optional `, ` on either
        // side (leading comma preferred, else trailing).
        if bytes[i] == b'"' {
            if let Some(close) = json[i + 1..].find('"').map(|p| i + 1 + p) {
                let key = &json[i + 1..close];
                if key.ends_with("_nanos") && json[close + 1..].starts_with(": ") {
                    let mut j = close + 3;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    // Swallow the separator: prefer the comma we already
                    // emitted (trailing `, ` before this key), else the
                    // one that follows.
                    if out.ends_with(", ") {
                        out.truncate(out.len() - 2);
                        if json[j..].starts_with(", ") {
                            out.push_str(", ");
                            i = j + 2;
                        } else {
                            i = j;
                        }
                    } else if json[j..].starts_with(", ") {
                        i = j + 2;
                    } else {
                        i = j;
                    }
                    continue;
                }
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// Mints per-request ids: a fixed process prefix plus a monotonically
/// increasing sequence number, so ids are unique across concurrent
/// requests within a server and distinguishable across restarts.
#[derive(Debug)]
pub struct RequestIds {
    prefix: u64,
    seq: AtomicU64,
}

impl RequestIds {
    /// A generator whose ids carry `prefix` (callers typically seed it
    /// with the server start time so restarts don't collide).
    pub fn new(prefix: u64) -> RequestIds {
        RequestIds { prefix, seq: AtomicU64::new(0) }
    }

    /// The next id, e.g. `"01890f3c-000017"`.
    pub fn next_id(&self) -> String {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{:06x}", self.prefix & 0xffff_ffff, n)
    }
}

/// One slow-query record.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowEntry {
    /// The request id echoed in `X-UO-Request-Id`.
    pub id: String,
    /// Milliseconds since the Unix epoch when the query finished.
    pub unix_ms: u64,
    /// End-to-end wall nanoseconds.
    pub wall_nanos: u64,
    /// Rows in the result.
    pub rows: u64,
    /// Query class label.
    pub query_type: String,
    /// Engine label.
    pub engine: String,
    /// Snapshot epoch the query answered from — correlates a slow query
    /// with the commit history (did it run just after a big commit?).
    pub epoch: u64,
    /// Plan-cache outcome — distinguishes "slow because it planned from
    /// scratch" (miss/stale) from "slow on a warm plan" (hit).
    pub cache: CacheOutcome,
    /// The (possibly truncated) canonical query text.
    pub query: String,
}

impl SlowEntry {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\": \"{}\", \"unix_ms\": {}, \"wall_nanos\": {}, \"wall_ms\": {}, \
             \"rows\": {}, \"query_type\": \"{}\", \"engine\": \"{}\", \"epoch\": {}, \
             \"cache\": \"{}\", \"query\": \"{}\"}}",
            uo_json::escape(&self.id),
            self.unix_ms,
            self.wall_nanos,
            uo_json::num(self.wall_nanos as f64 / 1e6),
            self.rows,
            uo_json::escape(&self.query_type),
            uo_json::escape(&self.engine),
            self.epoch,
            self.cache.label(),
            uo_json::escape(&self.query),
        )
    }

    /// The single-line structured stderr record:
    /// `slow-query id=… wall_ms=… rows=… type=… engine=… epoch=… cache=…
    /// query="…"`.
    pub fn stderr_line(&self) -> String {
        format!(
            "slow-query id={} wall_ms={:.3} rows={} type={} engine={} epoch={} cache={} \
             query=\"{}\"",
            self.id,
            self.wall_nanos as f64 / 1e6,
            self.rows,
            self.query_type,
            self.engine,
            self.epoch,
            self.cache.label(),
            self.query.replace('\n', " ").replace('"', "'"),
        )
    }
}

/// Bounded ring buffer of the most recent slow queries. Pushes and
/// snapshots take a short mutex — slow queries are rare by definition, so
/// this is not on the fast path.
#[derive(Debug)]
pub struct SlowLog {
    cap: usize,
    entries: Mutex<VecDeque<SlowEntry>>,
    /// Total slow queries observed, including ones evicted from the ring.
    total: AtomicU64,
}

/// Longest query text preserved in a [`SlowEntry`]; the rest is elided.
pub const SLOW_QUERY_TEXT_MAX: usize = 512;

impl SlowLog {
    /// A ring holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> SlowLog {
        SlowLog { cap: cap.max(1), entries: Mutex::new(VecDeque::new()), total: AtomicU64::new(0) }
    }

    /// Appends an entry, evicting the oldest when full. The query text is
    /// truncated to [`SLOW_QUERY_TEXT_MAX`] bytes (at a char boundary).
    pub fn push(&self, mut e: SlowEntry) {
        if e.query.len() > SLOW_QUERY_TEXT_MAX {
            let mut cut = SLOW_QUERY_TEXT_MAX;
            while !e.query.is_char_boundary(cut) {
                cut -= 1;
            }
            e.query.truncate(cut);
            e.query.push('…');
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut g = self.entries.lock().unwrap();
        if g.len() == self.cap {
            g.pop_front();
        }
        g.push_back(e);
    }

    /// Total slow queries ever observed (≥ the ring's current length).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The ring's current contents, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// Renders the ring as a JSON document:
    /// `{"schema": "uo-slow-log/1", "total": N, "entries": [...]}`.
    pub fn to_json(&self) -> String {
        let entries = self.entries();
        let mut s = String::with_capacity(128 + entries.len() * 160);
        s.push_str("{\"schema\": \"uo-slow-log/1\", \"total\": ");
        s.push_str(&self.total().to_string());
        s.push_str(", \"entries\": [");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_cover_the_line_without_overlap() {
        let (lo, hi) = bucket_bounds(0);
        assert_eq!((lo, hi), (0, 1));
        for i in 1..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, 1u64 << (i - 1), "power-of-two lower bound");
            assert_eq!(hi, 1u64 << i, "power-of-two upper bound");
            let (next_lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi, next_lo, "buckets tile the line without gap or overlap");
        }
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1100);
        assert!(s.quantile(0.5) >= 20 && s.quantile(0.5) < 64);
        assert!(s.quantile(0.99) >= 1000 && s.quantile(0.99) < 2048);
        assert_eq!(HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0 }.quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 1, 5, 17, 300] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 9, 1024, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn profile_json_and_timing_strip() {
        let p = QueryProfile {
            engine: "wco".into(),
            strategy: "full".into(),
            threads: 2,
            query_type: "BGP".into(),
            parse_nanos: 111,
            cache: CacheOutcome::Miss,
            optimize_nanos: 222,
            execute_nanos: 333,
            total_nanos: 666,
            rows: 4,
            rows_enumerated: 17,
            short_circuit: true,
            root: Some(OpProfile {
                op: "group",
                detail: String::new(),
                wall_nanos: 333,
                rows: 4,
                est_rows: Some(3.5),
                children: vec![OpProfile::leaf("bgp", "?x p ?y".into(), 100, 4)],
            }),
        };
        let j = p.to_json();
        assert!(j.contains("\"est_rows\": 3.5"));
        assert!(j.contains("\"cache\": \"miss\""));
        let stripped = strip_timing_fields(&j);
        assert!(!stripped.contains("nanos"), "no timing left: {stripped}");
        assert!(stripped.contains("\"rows\": 4"));
        assert!(stripped.contains("\"rows_enumerated\": 17"));
        assert!(stripped.contains("\"short_circuit\": true"));
        // Stripping is idempotent and stable across differing timings.
        let mut p2 = p.clone();
        p2.execute_nanos = 999_999;
        p2.root.as_mut().unwrap().wall_nanos = 1;
        assert_eq!(stripped, strip_timing_fields(&p2.to_json()));
        assert!(uo_json::parse(&stripped).is_ok(), "stripped profile stays valid JSON");
    }

    #[test]
    fn slow_log_ring_evicts_oldest() {
        let log = SlowLog::new(2);
        for i in 0..3u64 {
            log.push(SlowEntry {
                id: format!("id-{i}"),
                unix_ms: i,
                wall_nanos: i * 1000,
                rows: i,
                query_type: "BGP".into(),
                engine: "wco".into(),
                epoch: 7,
                cache: CacheOutcome::Stale,
                query: "SELECT * WHERE { ?s ?p ?o }".into(),
            });
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "id-1");
        assert_eq!(entries[1].id, "id-2");
        assert_eq!(log.total(), 3);
        assert!(entries[0].to_json().contains("\"epoch\": 7"));
        assert!(entries[0].to_json().contains("\"cache\": \"stale\""));
        assert!(entries[0].stderr_line().contains("epoch=7 cache=stale"));
        assert!(uo_json::parse(&log.to_json()).is_ok());
    }

    #[test]
    fn request_ids_unique_and_prefixed() {
        let ids = RequestIds::new(0xabcd);
        let a = ids.next_id();
        let b = ids.next_id();
        assert_ne!(a, b);
        assert!(a.starts_with("0000abcd-"));
    }
}
