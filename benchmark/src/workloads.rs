//! What each workload sends: the store, the query texts, the per-client
//! request schedules and the update stream — all derived from `--seed`, so
//! the server only ever sees generated HTTP requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use uo_datagen::{
    generate_dbpedia, generate_lubm, queries_for, BenchQuery, Dataset, DbpediaConfig, LubmConfig,
};
use uo_store::{Snapshot, StoreWriter};

/// Closed-loop clients per workload: `nproc` on the 2-core box the bounds
/// were set on. A constant, so the load is the same on every host.
pub const CLIENTS: usize = 2;

const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// The university the update stream writes into. No generated entity and no
/// reader query mentions it, so reader results never change.
const WRITE_UNIVERSITY: usize = 999;

/// The four workloads. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UoWarm,
    BigResult,
    AdhocLookup,
    DurableRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::UoWarm, Workload::BigResult, Workload::AdhocLookup, Workload::DurableRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UoWarm => "uo_warm",
            Workload::BigResult => "big_result",
            Workload::AdhocLookup => "adhoc_lookup",
            Workload::DurableRw => "durable_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] runs the same code in about a second for `--check`.
///
/// The seed drives the DBpedia graph, the schedules, the lookup constants
/// and the update payloads, but not LUBM, which keeps its generator's own
/// seed: LUBM is structural, and the few attributes it does draw (which
/// university a degree is from) flip the optimizer between two plans for
/// q1.1 that are 100 ms apart, so that the seed, not the commit, would be
/// the largest source of variance on `big_result`.
#[derive(Debug, Clone)]
pub struct Scale {
    pub lubm: LubmConfig,
    pub dbpedia: DbpediaConfig,
    /// Distinct `adhoc_lookup` texts per client. Above the server's plan
    /// cache (256 entries), so a client cycling through its own texts never
    /// finds one of them still cached.
    pub pool_per_client: usize,
    /// At most this many warm-up requests per client.
    pub warmup_cap: usize,
}

impl Scale {
    pub fn full(seed: u64) -> Scale {
        Scale {
            lubm: LubmConfig { universities: 2, ..LubmConfig::default() },
            dbpedia: DbpediaConfig { articles: 15_000, seed, ..DbpediaConfig::default() },
            pool_per_client: 288,
            warmup_cap: 48,
        }
    }

    pub fn tiny(seed: u64) -> Scale {
        Scale {
            lubm: LubmConfig::tiny(),
            dbpedia: DbpediaConfig { seed, ..DbpediaConfig::tiny() },
            pool_per_client: 12,
            warmup_cap: 8,
        }
    }
}

/// Builds the one store every workload serves: LUBM ∪ synthetic DBpedia in
/// a single snapshot, through the same `StoreWriter` commit a bulk load uses.
///
/// The two generators run on threads of their own. That halves the time on
/// two cores, and it keeps their temporaries out of the allocator arena the
/// store itself is built in: freed there they would leave holes between the
/// store's own allocations, and `peak_rss_mb` would vary with the holes.
pub fn build_store(scale: &Scale) -> Arc<Snapshot> {
    let (lubm, dbpedia) = std::thread::scope(|s| {
        let lubm = s.spawn(|| generate_lubm(&scale.lubm));
        let dbpedia = s.spawn(|| generate_dbpedia(&scale.dbpedia));
        (
            lubm.join().expect("LUBM generator panicked"),
            dbpedia.join().expect("DBpedia generator panicked"),
        )
    });
    let mut writer = StoreWriter::new();
    for src in [lubm, dbpedia] {
        let dict = src.dictionary();
        let term = |id| dict.decode(id).expect("generated triples are dictionary-encoded");
        for t in src.iter() {
            writer.insert_terms(term(t.subject), term(t.predicate), term(t.object));
        }
    }
    writer.commit()
}

/// One distinct query request: a text and the result format asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub label: String,
    pub text: String,
    pub tsv: bool,
}

impl QuerySpec {
    fn paper(q: &BenchQuery, tsv: bool) -> QuerySpec {
        QuerySpec { label: format!("{} {}", q.dataset, q.id), text: q.text.to_string(), tsv }
    }
}

fn paper_query(dataset: Dataset, id: &str) -> BenchQuery {
    queries_for(dataset).into_iter().find(|q| q.id == id).expect("a paper query id")
}

/// The paper's queries a workload may draw from, before the row-count rule
/// of [`keeps_rows`] is applied to their reference results.
///
/// The reader of `durable_rw` leaves out LUBM q1.3. Beside a writer every
/// commit makes the cached plans stale, and re-planning runs the cost
/// model's sampling scans over a stack of up to 32 levels: for q1.4 and q1.5
/// that costs 20-50 ms a request, for q1.6, q2.1 and q2.4 next to nothing.
/// q1.3 takes 100 ms there whatever its plan, half of the reader's time.
/// With it the reader sends one query per commit, nearly every plan is
/// stale, three of six texts are slow and three fast, and the median lies on
/// the boundary between them and moves by a quarter between runs of the same
/// code. Without it two of five texts are slow, so `query_p50_ms` lies
/// inside the fast mode and `query_p95_ms` inside the re-planning one.
pub fn paper_candidates(workload: Workload) -> Vec<QuerySpec> {
    let datasets: &[Dataset] = match workload {
        Workload::UoWarm => &[Dataset::Lubm, Dataset::Dbpedia],
        Workload::DurableRw => &[Dataset::Lubm],
        Workload::BigResult | Workload::AdhocLookup => &[],
    };
    datasets
        .iter()
        .flat_map(|&d| queries_for(d))
        .filter(|q| !(workload == Workload::DurableRw && q.id == "q1.3"))
        .map(|q| QuerySpec::paper(&q, false))
        .collect()
}

/// `uo_warm` keeps the paper queries whose constants resolve at this scale
/// (at least one row) and whose result is small enough that joins, not
/// serialization, do most of the work.
pub fn keeps_rows(rows: usize) -> bool {
    (1..=5_000).contains(&rows)
}

/// The five `big_result` requests: two 13–14 k-row results in both formats
/// and the 242 550-row LUBM q1.1.
pub fn big_result_queries() -> Vec<QuerySpec> {
    let mid = [paper_query(Dataset::Lubm, "q1.2"), paper_query(Dataset::Dbpedia, "q1.5")];
    let mut out: Vec<QuerySpec> = [false, true]
        .iter()
        .flat_map(|&tsv| mid.iter().map(move |q| (q, tsv)))
        .map(|(q, tsv)| QuerySpec::paper(q, tsv))
        .collect();
    out.push(QuerySpec::paper(&paper_query(Dataset::Lubm, "q1.1"), false));
    out
}

/// One client's `big_result` cycle over the indexes of
/// [`big_result_queries`]: twice 11 of the 14 k-row requests in a seeded
/// order (five of the 22 as TSV), each time followed by q1.1. So q1.1 is 1
/// request in 12: p95 lies inside the q1.1 mode, p50 inside the 14 k-row one.
fn big_result_cycle(rng: &mut StdRng) -> Vec<usize> {
    let mut mid: Vec<usize> =
        (0..22).map(|i| (i % 2) + if matches!(i % 8, 3 | 6) { 2 } else { 0 }).collect();
    shuffle(&mut mid, rng);
    mid.insert(11, BIG_RESULT_LARGEST);
    mid.push(BIG_RESULT_LARGEST);
    mid
}

/// Index of LUBM q1.1 in [`big_result_queries`].
const BIG_RESULT_LARGEST: usize = 4;
/// Requests in one [`big_result_cycle`].
const BIG_RESULT_CYCLE: usize = 24;

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `k` distinct values below `n`, in a seeded order.
fn sample_distinct(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "cannot draw {k} distinct values below {n}");
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// The `adhoc_lookup` pool: `CLIENTS * pool_per_client` distinct selective
/// OPTIONAL+UNION lookups from three templates with seeded constants. The
/// templates cost about 0.2, 2.6 and 6.2 ms a request; with 2/8 articles,
/// 3/8 professors and 3/8 students, p50 lies well inside the professor mode
/// and p95 inside the student mode, not on a boundary between two.
pub fn adhoc_pool(scale: &Scale, rng: &mut StdRng) -> Vec<QuerySpec> {
    let total = CLIENTS * scale.pool_per_client;
    let (students, professors) = (total * 3 / 8, total * 3 / 8);
    let articles = total - students - professors;
    let l = &scale.lubm;
    let depts = l.universities * l.departments_per_univ;
    let dept = |i: usize| (i % l.departments_per_univ, i / l.departments_per_univ);

    let mut out = Vec::with_capacity(total);
    let per_dept = l.undergrads_per_dept + l.grads_per_dept;
    for i in sample_distinct(depts * per_dept, students, rng) {
        let (d, u) = dept(i / per_dept);
        let s = i % per_dept;
        let who = if s < l.undergrads_per_dept {
            format!("UndergraduateStudent{s}")
        } else {
            format!("GraduateStudent{}", s - l.undergrads_per_dept)
        };
        out.push(QuerySpec {
            label: "student".to_string(),
            text: format!(
                "PREFIX ub: <{UB}>\nSELECT ?s ?dept ?adv ?course WHERE {{\n  \
                 ?s ub:emailAddress \"{who}@Department{d}.University{u}.edu\" .\n  \
                 ?s ub:memberOf ?dept .\n  OPTIONAL {{ ?s ub:advisor ?adv . }}\n  \
                 {{ ?s ub:takesCourse ?course . }} UNION {{ ?s ub:teachingAssistantOf ?course . }} }}"
            ),
            tsv: false,
        });
    }
    for i in sample_distinct(depts * l.professors_per_dept, professors, rng) {
        let (d, u) = dept(i / l.professors_per_dept);
        let p = i % l.professors_per_dept;
        let rank = ["FullProfessor", "AssociateProfessor", "AssistantProfessor"][p % 3];
        let prof = format!("<http://www.Department{d}.University{u}.edu/{rank}{}>", p / 3);
        out.push(QuerySpec {
            label: "professor".to_string(),
            text: format!(
                "PREFIX ub: <{UB}>\nSELECT ?x ?name WHERE {{\n  \
                 {{ ?x ub:publicationAuthor {prof} . }} UNION {{ {prof} ub:teacherOf ?x . }}\n  \
                 OPTIONAL {{ ?x ub:name ?name . }} }}"
            ),
            tsv: false,
        });
    }
    for i in sample_distinct(scale.dbpedia.articles, articles, rng) {
        let a = format!("<http://dbpedia.org/resource/Entity{i}>");
        out.push(QuerySpec {
            label: "article".to_string(),
            text: format!(
                "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
                 PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                 PREFIX dbo: <http://dbpedia.org/ontology/>\n\
                 PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>\n\
                 SELECT ?label ?abstract ?lat ?long WHERE {{\n  \
                 {{ {a} rdfs:label ?label . }} UNION {{ {a} foaf:name ?label . }}\n  \
                 OPTIONAL {{ {a} dbo:abstract ?abstract . }}\n  \
                 OPTIONAL {{ {a} geo:lat ?lat . {a} geo:long ?long . }} }}"
            ),
            tsv: false,
        });
    }
    shuffle(&mut out, rng);
    out
}

/// What one client does, over and over, until the window closes.
#[derive(Debug, Clone)]
pub enum ClientPlan {
    /// Walks these indexes into [`Plan::queries`] cyclically.
    Cycle(Vec<usize>),
    /// Posts the [`UpdateStream`] of this seed.
    Writer(u64),
}

/// Independent shuffles of the distinct requests in a paper-query schedule:
/// more requests than a client sends in a window, so the order never
/// repeats. In a short cycle, which query follows which decides which of them
/// meets a stale plan beside `durable_rw`'s writer, the same way all run
/// long, and the seed moves single queries' medians by a factor of two.
const SHUFFLES: usize = 256;
/// Shuffles in one traced or untraced stretch of such a schedule.
const SHUFFLES_PER_PASS: usize = 4;

/// A workload's distinct query requests and its per-client schedules.
#[derive(Debug, Clone)]
pub struct Plan {
    pub queries: Vec<QuerySpec>,
    pub clients: Vec<ClientPlan>,
    /// Requests in one pass over a schedule: a traced run records spans on
    /// every other pass, and every pass has the same mix of requests.
    pub pass: usize,
    /// A request all clients send at the same moment, each waiting for the
    /// others to reach it. `big_result` sends q1.1 this way: two copies of
    /// the 146 MB result are then always in flight together, so latency and
    /// peak memory are those of the worst case every time, instead of
    /// depending on how often the clients' schedules happen to line up.
    pub together: Option<usize>,
}

impl Plan {
    /// Lays out the schedules over `queries` (for the paper-query workloads,
    /// the candidates that passed [`keeps_rows`]).
    pub fn new(workload: Workload, scale: &Scale, seed: u64, queries: Vec<QuerySpec>) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CED_u64);
        let reshuffled = |rng: &mut StdRng| -> Vec<usize> {
            (0..SHUFFLES)
                .flat_map(|_| {
                    let mut order: Vec<usize> = (0..queries.len()).collect();
                    shuffle(&mut order, rng);
                    order
                })
                .collect()
        };
        let clients: Vec<ClientPlan> = match workload {
            Workload::UoWarm => {
                (0..CLIENTS).map(|_| ClientPlan::Cycle(reshuffled(&mut rng))).collect()
            }
            Workload::BigResult => {
                (0..CLIENTS).map(|_| ClientPlan::Cycle(big_result_cycle(&mut rng))).collect()
            }
            // Each client owns a disjoint slice of the pool and walks it in
            // order: a text recurs only after `pool_per_client - 1` others.
            Workload::AdhocLookup => (0..CLIENTS)
                .map(|c| {
                    let from = c * scale.pool_per_client;
                    ClientPlan::Cycle((from..from + scale.pool_per_client).collect())
                })
                .collect(),
            Workload::DurableRw => {
                vec![ClientPlan::Writer(seed), ClientPlan::Cycle(reshuffled(&mut rng))]
            }
        };
        let pass = match workload {
            Workload::UoWarm | Workload::DurableRw => SHUFFLES_PER_PASS * queries.len(),
            Workload::BigResult => BIG_RESULT_CYCLE,
            Workload::AdhocLookup => scale.pool_per_client,
        };
        let together = (workload == Workload::BigResult).then_some(BIG_RESULT_LARGEST);
        Plan { queries, clients, pass, together }
    }

    /// A digest of the first `ops` requests of every client, in order: equal
    /// for equal seeds, different otherwise.
    pub fn schedule_hash(&self, ops: usize) -> u64 {
        let mut h = crate::client::BodyHash::new();
        for client in &self.clients {
            match client {
                ClientPlan::Cycle(order) => {
                    for &q in order.iter().cycle().take(ops) {
                        h.update(self.queries[q].text.as_bytes());
                        h.update(&[u8::from(self.queries[q].tsv)]);
                    }
                }
                ClientPlan::Writer(seed) => {
                    let mut stream = UpdateStream::new(*seed);
                    for _ in 0..ops {
                        h.update(stream.next_update().text.as_bytes());
                    }
                }
            }
        }
        h.finish()
    }
}

/// One generated update request and what must be true once it is
/// acknowledged.
#[derive(Debug, Clone)]
pub struct Update {
    pub text: String,
    /// The fragment of the acknowledgement body that proves the effect.
    pub ack_fragment: String,
    /// The subject the request touched, and how many triples it has after.
    pub subject: String,
    pub triples_after: usize,
    /// Triples the request inserted or deleted.
    pub triples_changed: usize,
}

#[derive(Debug, Clone)]
struct Batch {
    id: u64,
    dept: usize,
    first_course: usize,
}

const BATCH_TRIPLES: usize = 20;
const BATCH_COURSES: usize = BATCH_TRIPLES - 5;

impl Batch {
    fn subject(&self) -> String {
        format!(
            "http://www.Department{}.University{WRITE_UNIVERSITY}.edu/UndergraduateStudent{}",
            self.dept, self.id
        )
    }

    /// The batch as N-Triples-style statements. It reuses predicates the
    /// reader queries look up (so their reads cross the new levels) but only
    /// ones they reach through a join from their own entities, never by an
    /// open scan (`ub:emailAddress` is one: LUBM q1.2 lists every address).
    fn triples(&self) -> String {
        let (s, d, k) = (self.subject(), self.dept, self.id);
        let dept = format!("http://www.Department{d}.University{WRITE_UNIVERSITY}.edu");
        let mut out = format!(
            "<{s}> <{RDF_TYPE}> <{UB}UndergraduateStudent> .\n<{s}> <{UB}memberOf> <{dept}> .\n\
             <{s}> <{UB}name> \"UndergraduateStudent{k}\" .\n\
             <{s}> <{UB}researchInterest> \"Research{}\" .\n\
             <{s}> <{UB}telephone> \"xxx-xxx-{:04}\" .\n",
            k % 30,
            k % 10_000
        );
        for j in 0..BATCH_COURSES {
            let course = (self.first_course + j) % 60;
            out.push_str(&format!("<{s}> <{UB}takesCourse> <{dept}/Course{course}> .\n"));
        }
        out
    }
}

/// The seeded update stream: `INSERT DATA` batches of 20 triples, every 5th
/// request a `DELETE DATA` of the oldest untouched batch, every 50th a
/// single-BGP `DELETE WHERE` over one batch's courses.
pub struct UpdateStream {
    rng: StdRng,
    sent: u64,
    next_batch: u64,
    untouched: VecDeque<Batch>,
}

impl UpdateStream {
    pub fn new(seed: u64) -> UpdateStream {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x00DD_BA11),
            sent: 0,
            next_batch: 0,
            untouched: VecDeque::new(),
        }
    }

    pub fn next_update(&mut self) -> Update {
        self.sent += 1;
        let update = |text, inserted, deleted, subject, triples_after| Update {
            text,
            ack_fragment: format!("\"inserted\": {inserted}, \"deleted\": {deleted},"),
            subject,
            triples_after,
            triples_changed: inserted + deleted,
        };
        if self.sent.is_multiple_of(50) {
            let b = self.untouched.pop_front().expect("49 requests precede every DELETE WHERE");
            let text = format!("DELETE WHERE {{ <{}> <{UB}takesCourse> ?course . }}", b.subject());
            update(text, 0, BATCH_COURSES, b.subject(), BATCH_TRIPLES - BATCH_COURSES)
        } else if self.sent.is_multiple_of(5) {
            let b = self.untouched.pop_front().expect("4 inserts precede every DELETE DATA");
            update(format!("DELETE DATA {{\n{}}}", b.triples()), 0, BATCH_TRIPLES, b.subject(), 0)
        } else {
            let b = Batch {
                id: self.next_batch,
                dept: self.rng.gen_range(0..15),
                first_course: self.rng.gen_range(0..60),
            };
            self.next_batch += 1;
            let u = update(
                format!("INSERT DATA {{\n{}}}", b.triples()),
                BATCH_TRIPLES,
                0,
                b.subject(),
                BATCH_TRIPLES,
            );
            self.untouched.push_back(b);
            u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seed: u64) -> Plan {
        let scale = Scale::tiny(seed);
        let queries = match workload {
            Workload::UoWarm | Workload::DurableRw => paper_candidates(workload),
            Workload::BigResult => big_result_queries(),
            Workload::AdhocLookup => adhoc_pool(&scale, &mut StdRng::seed_from_u64(seed)),
        };
        Plan::new(workload, &scale, seed, queries)
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_between_seeds() {
        for w in Workload::ALL {
            let (a, again, b) = (plan(w, 11), plan(w, 11), plan(w, 12));
            assert_eq!(a.schedule_hash(300), again.schedule_hash(300), "{}", w.name());
            assert_ne!(a.schedule_hash(300), b.schedule_hash(300), "{}", w.name());
            // Another seed changes what is sent, never how much.
            assert_eq!(a.queries.len(), b.queries.len(), "{}", w.name());
            for (x, y) in a.clients.iter().zip(&b.clients) {
                match (x, y) {
                    (ClientPlan::Cycle(x), ClientPlan::Cycle(y)) => assert_eq!(x.len(), y.len()),
                    (ClientPlan::Writer(_), ClientPlan::Writer(_)) => {}
                    _ => panic!("client roles differ between seeds"),
                }
            }
        }
    }

    #[test]
    fn adhoc_texts_are_distinct_and_split_between_clients() {
        let p = plan(Workload::AdhocLookup, 5);
        let texts: BTreeSet<&str> = p.queries.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(texts.len(), p.queries.len());
        let (ClientPlan::Cycle(a), ClientPlan::Cycle(b)) = (&p.clients[0], &p.clients[1]) else {
            panic!("adhoc clients cycle");
        };
        assert!(a.iter().all(|i| !b.contains(i)));
        assert_eq!(a.len() + b.len(), p.queries.len());
    }

    #[test]
    fn big_result_cycle_has_one_large_result_in_twelve() {
        let cycle = big_result_cycle(&mut StdRng::seed_from_u64(3));
        assert_eq!(cycle.len(), BIG_RESULT_CYCLE);
        assert_eq!((cycle[11], cycle[23]), (4, 4));
        assert_eq!(cycle.iter().filter(|&&q| q == 4).count(), 2);
        assert_eq!(cycle.iter().filter(|&&q| q == 2 || q == 3).count(), 5);
        let queries = big_result_queries();
        assert!(queries[2].tsv && queries[3].tsv && !queries[4].tsv);
    }

    #[test]
    fn update_stream_follows_its_mix() {
        let mut s = UpdateStream::new(9);
        let ops: Vec<Update> = (0..100).map(|_| s.next_update()).collect();
        let starts = |p: &str| ops.iter().filter(|u| u.text.starts_with(p)).count();
        assert_eq!(starts("DELETE WHERE"), 2);
        assert_eq!(starts("DELETE DATA"), 18);
        assert_eq!(starts("INSERT DATA"), 80);
        assert!(ops.iter().all(|u| uo_sparql::parse_update(&u.text).is_ok()));
        assert_eq!(ops[0].text.matches(" .\n").count(), BATCH_TRIPLES);
        // A delete names a subject that an earlier insert created.
        assert_eq!(ops[4].subject, ops[0].subject);
        assert_eq!(ops[4].triples_after, 0);
        assert_eq!(ops[49].triples_after, 5);
    }
}
