//! A deterministic LUBM-style university data generator.
//!
//! Follows the Lehigh University Benchmark schema closely enough that the
//! paper's Appendix A.1 queries run verbatim: entity URIs use the
//! `http://www.Department{d}.University{u}.edu/...` scheme, emails look like
//! `UndergraduateStudent91@Department0.University0.edu`, and all `ub:`
//! predicates the queries touch are populated with LUBM-like multiplicities.
//!
//! The scale factor is the number of universities, as in LUBM proper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uo_rdf::{Dictionary, Id, Term};
use uo_store::Snapshot;

/// The `ub:` ontology namespace.
pub const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
/// The `rdf:` namespace.
pub const RDF: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";

/// Generator parameters. Defaults approximate LUBM's per-department
/// multiplicities at 1/2 scale so a university is ~35k triples.
#[derive(Debug, Clone)]
pub struct LubmConfig {
    /// Scale factor: number of universities.
    pub universities: usize,
    /// Departments per university (LUBM: 15–25; queries reference up to
    /// `Department12`, so keep ≥ 13).
    pub departments_per_univ: usize,
    /// Undergraduate students per department (queries reference up to
    /// `UndergraduateStudent363`, so the default keeps ≥ 364).
    pub undergrads_per_dept: usize,
    /// Graduate students per department.
    pub grads_per_dept: usize,
    /// Professors (all ranks) per department.
    pub professors_per_dept: usize,
    /// Courses per department (undergraduate + graduate).
    pub courses_per_dept: usize,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig {
            universities: 1,
            departments_per_univ: 15,
            undergrads_per_dept: 400,
            grads_per_dept: 60,
            professors_per_dept: 14,
            courses_per_dept: 40,
            seed: 42,
        }
    }
}

impl LubmConfig {
    /// A small configuration for unit/integration tests (a few thousand
    /// triples) that still contains `Department0.University0` entities.
    pub fn tiny() -> Self {
        LubmConfig {
            universities: 1,
            departments_per_univ: 2,
            undergrads_per_dept: 100,
            grads_per_dept: 15,
            professors_per_dept: 5,
            courses_per_dept: 10,
            seed: 42,
        }
    }
}

struct Gen {
    dict: Dictionary,
    rows: Vec<[Id; 3]>,
    rng: StdRng,
}

impl Gen {
    fn emit(&mut self, s: &Term, p: &Term, o: &Term) {
        self.rows.push([self.dict.encode(s), self.dict.encode(p), self.dict.encode(o)]);
    }

    fn add(&mut self, s: &Term, p: &str, o: Term) {
        self.emit(s, &Term::iri(format!("{UB}{p}")), &o);
    }

    fn add_type(&mut self, s: &Term, class: &str) {
        self.emit(s, &Term::iri(format!("{RDF}type")), &Term::iri(format!("{UB}{class}")));
    }
}

/// Generates a LUBM-style dataset as a bulk-built snapshot at epoch 1.
pub fn generate_lubm(cfg: &LubmConfig) -> Arc<Snapshot> {
    let mut g =
        Gen { dict: Dictionary::new(), rows: Vec::new(), rng: StdRng::seed_from_u64(cfg.seed) };

    let univ_iri = |u: usize| Term::iri(format!("http://www.University{u}.edu"));
    let dept_iri =
        |u: usize, d: usize| Term::iri(format!("http://www.Department{d}.University{u}.edu"));
    let member_iri = |u: usize, d: usize, kind: &str, i: usize| {
        Term::iri(format!("http://www.Department{d}.University{u}.edu/{kind}{i}"))
    };

    for u in 0..cfg.universities {
        let univ = univ_iri(u);
        g.add_type(&univ, "University");
        g.add(&univ, "name", Term::literal(format!("University{u}")));

        for d in 0..cfg.departments_per_univ {
            let dept = dept_iri(u, d);
            g.add_type(&dept, "Department");
            g.add(&dept, "subOrganizationOf", univ.clone());
            g.add(&dept, "name", Term::literal(format!("Department{d}")));

            // Research groups.
            let n_groups = 4 + (d % 3);
            for r in 0..n_groups {
                let rg = member_iri(u, d, "ResearchGroup", r);
                g.add_type(&rg, "ResearchGroup");
                g.add(&rg, "subOrganizationOf", dept.clone());
                // LUBM research groups hang off departments; a second
                // subOrganizationOf edge to the university exercises the
                // two-hop patterns of q1.3.
                g.add(&rg, "subOrganizationOf", univ.clone());
            }

            // Courses.
            let n_courses = cfg.courses_per_dept;
            let course = |i: usize| {
                if i.is_multiple_of(2) {
                    member_iri(u, d, "Course", i / 2)
                } else {
                    member_iri(u, d, "GraduateCourse", i / 2)
                }
            };
            for c in 0..n_courses {
                let ci = course(c);
                g.add_type(&ci, if c % 2 == 0 { "Course" } else { "GraduateCourse" });
                g.add(&ci, "name", Term::literal(format!("Course{c}")));
            }

            // Professors.
            let n_prof = cfg.professors_per_dept;
            let prof_kind = |i: usize| match i % 3 {
                0 => "FullProfessor",
                1 => "AssociateProfessor",
                _ => "AssistantProfessor",
            };
            let prof_iri = |i: usize| member_iri(u, d, prof_kind(i), i / 3);
            for i in 0..n_prof {
                let p = prof_iri(i);
                g.add_type(&p, prof_kind(i));
                g.add(&p, "worksFor", dept.clone());
                if i == 0 {
                    g.add(&p, "headOf", dept.clone());
                }
                g.add(&p, "name", Term::literal(format!("{}{}", prof_kind(i), i / 3)));
                g.add(
                    &p,
                    "emailAddress",
                    Term::literal(format!(
                        "{}{}@Department{d}.University{u}.edu",
                        prof_kind(i),
                        i / 3
                    )),
                );
                g.add(&p, "telephone", Term::literal(format!("xxx-xxx-{:04}", i)));
                let interest = Term::literal(format!("Research{}", g.rng.gen_range(0..30)));
                g.add(&p, "researchInterest", interest);
                // Degrees from random universities in range.
                let ug = univ_iri(g.rng.gen_range(0..cfg.universities.max(1)));
                g.add(&p, "undergraduateDegreeFrom", ug);
                let ms = univ_iri(g.rng.gen_range(0..cfg.universities.max(1)));
                g.add(&p, "mastersDegreeFrom", ms);
                let dr = univ_iri(g.rng.gen_range(0..cfg.universities.max(1)));
                g.add(&p, "doctoralDegreeFrom", dr);
                // Teaching: each professor teaches 1–2 courses.
                let n_teach = 1 + (i % 2);
                for t in 0..n_teach {
                    let ci = course((i * 2 + t) % n_courses.max(1));
                    g.add(&p, "teacherOf", ci);
                }
                // Publications: 3–7 per professor, authored with students.
                let n_pub = 3 + (i % 5);
                for j in 0..n_pub {
                    let pb = Term::iri(format!(
                        "http://www.Department{d}.University{u}.edu/{}{}/Publication{j}",
                        prof_kind(i),
                        i / 3
                    ));
                    g.add_type(&pb, "Publication");
                    g.add(&pb, "name", Term::literal(format!("Pub {i} {j}")));
                    g.add(&pb, "publicationAuthor", p.clone());
                }
            }

            // Undergraduate students.
            for s in 0..cfg.undergrads_per_dept {
                let stu = member_iri(u, d, "UndergraduateStudent", s);
                g.add_type(&stu, "UndergraduateStudent");
                g.add(&stu, "memberOf", dept.clone());
                g.add(&stu, "name", Term::literal(format!("UndergraduateStudent{s}")));
                g.add(
                    &stu,
                    "emailAddress",
                    Term::literal(format!(
                        "UndergraduateStudent{s}@Department{d}.University{u}.edu"
                    )),
                );
                g.add(&stu, "telephone", Term::literal(format!("xxx-xxx-{:04}", s)));
                let n_take = 2 + (s % 3);
                for t in 0..n_take {
                    let ci = course((s + t * 7) % n_courses.max(1));
                    g.add(&stu, "takesCourse", ci);
                }
                // 1 in 5 undergrads has a professor advisor.
                if s % 5 == 0 {
                    let adv = prof_iri(s % n_prof.max(1));
                    g.add(&stu, "advisor", adv);
                }
            }

            // Graduate students.
            for s in 0..cfg.grads_per_dept {
                let stu = member_iri(u, d, "GraduateStudent", s);
                g.add_type(&stu, "GraduateStudent");
                g.add(&stu, "memberOf", dept.clone());
                g.add(&stu, "name", Term::literal(format!("GraduateStudent{s}")));
                g.add(
                    &stu,
                    "emailAddress",
                    Term::literal(format!("GraduateStudent{s}@Department{d}.University{u}.edu")),
                );
                g.add(&stu, "telephone", Term::literal(format!("yyy-yyy-{:04}", s)));
                let from = g.rng.gen_range(0..cfg.universities.max(1));
                let from_univ = univ_iri(from);
                g.add(&stu, "undergraduateDegreeFrom", from_univ);
                let n_take = 1 + (s % 3);
                for t in 0..n_take {
                    let ci = course((s * 3 + t) % n_courses.max(1));
                    g.add(&stu, "takesCourse", ci);
                }
                let adv = prof_iri(s % n_prof.max(1));
                g.add(&stu, "advisor", adv);
                // 1 in 4 grads TAs a course they relate to.
                if s % 4 == 0 {
                    let ci = course(s % n_courses.max(1));
                    g.add(&stu, "teachingAssistantOf", ci);
                }
                // Half the grads co-author a publication with their advisor.
                if s % 2 == 0 {
                    let i = s % n_prof.max(1);
                    let pb = Term::iri(format!(
                        "http://www.Department{d}.University{u}.edu/{}{}/Publication{}",
                        prof_kind(i),
                        i / 3,
                        s % (3 + (i % 5))
                    ));
                    g.add(&pb, "publicationAuthor", stu.clone());
                }
            }
        }
    }

    // `Default` is `Parallelism::from_env()`: the `UO_THREADS` knob.
    Arc::new(Snapshot::build_from(Arc::new(g.dict), g.rows, 1, Default::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uo_rdf::Term;

    fn tiny() -> Arc<Snapshot> {
        generate_lubm(&LubmConfig::tiny())
    }

    #[test]
    fn deterministic() {
        let a = generate_lubm(&LubmConfig::tiny());
        let b = generate_lubm(&LubmConfig::tiny());
        assert_eq!(a.len(), b.len());
        let ta: Vec<_> = a.iter().collect();
        let tb: Vec<_> = b.iter().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn contains_query_constants() {
        let st = tiny();
        let d = st.dictionary();
        assert!(d
            .lookup(&Term::iri("http://www.Department0.University0.edu/UndergraduateStudent91"))
            .is_some());
        assert!(d.lookup(&Term::iri("http://www.Department0.University0.edu")).is_some());
        assert!(d
            .lookup(&Term::literal("UndergraduateStudent91@Department0.University0.edu"))
            .is_some());
    }

    #[test]
    fn predicates_present() {
        let st = tiny();
        let d = st.dictionary();
        for p in [
            "worksFor",
            "headOf",
            "memberOf",
            "subOrganizationOf",
            "undergraduateDegreeFrom",
            "doctoralDegreeFrom",
            "takesCourse",
            "teacherOf",
            "teachingAssistantOf",
            "advisor",
            "publicationAuthor",
            "name",
            "emailAddress",
            "telephone",
            "researchInterest",
        ] {
            let id = d.lookup(&Term::iri(format!("{UB}{p}")));
            assert!(id.is_some(), "missing predicate ub:{p}");
            assert!(st.count_pattern(None, id, None) > 0, "no triples for ub:{p}");
        }
    }

    #[test]
    fn head_of_unique_per_department() {
        let st = tiny();
        let d = st.dictionary();
        let head = d.lookup(&Term::iri(format!("{UB}headOf"))).unwrap();
        let dept = d.lookup(&Term::iri("http://www.Department0.University0.edu")).unwrap();
        assert_eq!(st.count_pattern(None, Some(head), Some(dept)), 1);
    }

    #[test]
    fn scales_with_universities() {
        let one = generate_lubm(&LubmConfig { universities: 1, ..LubmConfig::tiny() });
        let two = generate_lubm(&LubmConfig { universities: 2, ..LubmConfig::tiny() });
        assert!(two.len() > one.len() * 3 / 2, "{} vs {}", two.len(), one.len());
    }

    #[test]
    fn default_scale_has_dept12_and_student363() {
        // Expensive-ish (one full university); validates the constants used
        // by q1.3, q1.4, q2.5.
        let st = generate_lubm(&LubmConfig::default());
        let d = st.dictionary();
        assert!(d
            .lookup(&Term::iri("http://www.Department1.University0.edu/UndergraduateStudent363"))
            .is_some());
        assert!(d
            .lookup(&Term::literal("UndergraduateStudent309@Department12.University0.edu"))
            .is_some());
    }
}
