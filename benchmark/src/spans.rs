//! The benchmark's own span recorder. Spans are taken around calls into the
//! program, from outside it: the server's `uo_obs::Tracer` and `Profiler`
//! stay off. Each thread records into its own [`Recorder`]; the recorders
//! are merged and written as Chrome trace-event JSON when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` is the id of the span that caused this one (0 = none);
/// spans of one request share `request` (the operation index).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single thread's in-memory span list.
pub struct Recorder {
    origin: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread `tid` whose clock starts at `origin` (shared
    /// by all recorders of a run, so their spans line up in one trace).
    pub fn new(origin: Instant, tid: u32) -> Recorder {
        Recorder { origin, tid, spans: Vec::new() }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (u64::from(self.tid) << 32) | (self.spans.len() as u64 + 1);
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { name, id, parent, request, start_ns, end_ns });
        id
    }

    /// Runs `f` inside a span and returns its result and the span's
    /// nanoseconds. `f` receives the recorder and the new span's id, so the
    /// calls it makes can record child spans.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> (T, u64) {
        let slot = self.spans.len();
        let start = Instant::now();
        let id = self.push(name, parent, request, start, start);
        let out = f(self, id);
        let end_ns = self.at(Instant::now());
        self.spans[slot].end_ns = end_ns;
        (out, end_ns - self.spans[slot].start_ns)
    }
}

/// Count, total nanoseconds and self nanoseconds of every span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name; a span's self time excludes what its child
/// spans cover (see [`stats::self_time`]).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += stats::self_time((s.start_ns, s.end_ns), kids);
    }
    out
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, times in
/// microseconds), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"benchmark\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}",
            uo_json::escape(s.name),
            uo_json::num(s.start_ns as f64 / 1e3),
            uo_json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            s.id >> 32,
            s.id,
            s.parent,
            s.request,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, id, parent, request: 7, start_ns, end_ns }
    }

    #[test]
    fn totals_give_self_time_per_name() {
        let spans = [
            span("request", 1, 0, 0, 100),
            span("connect", 2, 1, 0, 10),
            span("read_body", 3, 1, 10, 70),
            span("request", 4, 0, 100, 150),
        ];
        let t = totals(&spans);
        assert_eq!(t["request"], NameTotals { count: 2, total_ns: 150, self_ns: 80 });
        assert_eq!(t["read_body"], NameTotals { count: 1, total_ns: 60, self_ns: 60 });
    }

    #[test]
    fn scope_nests_and_the_trace_parses() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let (inner_id, _) =
            rec.scope("outer", 0, 1, |rec, outer| rec.scope("inner", outer, 1, |_, id| id).0);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].id, inner_id);
        assert_eq!(rec.spans[1].parent, rec.spans[0].id);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = uo_json::parse(&chrome_trace(&rec.spans)).expect("valid JSON");
        let events = json.get("traceEvents").and_then(uo_json::Json::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("tid").and_then(uo_json::Json::as_f64), Some(3.0));
    }
}
