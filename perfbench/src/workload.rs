//! The workloads: catalogs, oracle keys and seeded request streams.
//!
//! Every workload is built from `--seed` alone. Catalogs are built as
//! in-memory schemas and datasets first and rendered to rbqa/1 directives
//! from them, so the server and the in-process oracle and traced run see
//! the same schema.

use rbqa_access::{AccessMethod, Schema};
use rbqa_common::{Instance, RelationId, Signature, Value, ValueFactory};
use rbqa_logic::constraints::tgd::inclusion_dependency;
use rbqa_logic::constraints::ConstraintSet;
use rbqa_logic::{ConjunctiveQuery, Term, VarId};

use crate::util::Rng;

/// A request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Decide,
    Synthesize,
    Execute,
}

impl Verb {
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Decide => "decide",
            Verb::Synthesize => "synthesize",
            Verb::Execute => "execute",
        }
    }
}

/// The stream-scoped execution options of an `execute` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub sharded: bool,
    pub adaptive: bool,
}

impl ExecConfig {
    pub const DEFAULT: ExecConfig = ExecConfig {
        sharded: false,
        adaptive: false,
    };

    /// The `option` lines that switch a session to this configuration.
    pub fn option_lines(self) -> String {
        format!(
            "option exec.backend {}\noption exec.adaptive {}\n",
            if self.sharded {
                "sharded:4"
            } else {
                "instance"
            },
            if self.adaptive { "on" } else { "off" }
        )
    }

    pub fn to_exec_options(self) -> rbqa_service::ExecOptions {
        let mut exec = rbqa_service::ExecOptions::default();
        if self.sharded {
            exec.backend = rbqa_service::BackendSpec::Sharded { shards: 4 };
        }
        if self.adaptive {
            exec.adaptive = rbqa_service::AdaptiveMode::On;
        }
        exec
    }
}

/// One catalog: schema, the factory that interned its constants, and an
/// optional dataset (kept both as an instance and as the fact list it was
/// built from, in insertion order).
pub struct CatalogSpec {
    pub name: String,
    pub schema: Schema,
    pub values: ValueFactory,
    pub facts: Vec<(RelationId, Vec<Value>)>,
}

impl CatalogSpec {
    fn new(name: &str, schema: Schema) -> Self {
        CatalogSpec {
            name: name.to_owned(),
            schema,
            values: ValueFactory::new(),
            facts: Vec::new(),
        }
    }

    fn fact(&mut self, relation: RelationId, names: &[&str]) {
        let tuple = names.iter().map(|n| self.values.constant(n)).collect();
        self.facts.push((relation, tuple));
    }

    /// The dataset, or `None` for a catalog without facts.
    pub fn instance(&self) -> Option<Instance> {
        if self.facts.is_empty() {
            return None;
        }
        let mut data = Instance::new(self.schema.signature().clone());
        for (rel, tuple) in &self.facts {
            data.insert(*rel, tuple.clone())
                .expect("generated facts match the signature");
        }
        Some(data)
    }

    /// The rbqa/1 directives that declare this catalog.
    pub fn directives(&self) -> String {
        let sig = self.schema.signature();
        let mut out = format!("catalog {}\n", self.name);
        for (_, rel) in sig.iter() {
            out.push_str(&format!("relation {}/{}\n", rel.name(), rel.arity()));
        }
        for tgd in self.schema.constraints().tgds() {
            out.push_str(&format!("constraint {}\n", tgd.display(sig)));
        }
        for fd in self.schema.constraints().fds() {
            out.push_str(&format!("constraint {}\n", fd.display(sig)));
        }
        for m in self.schema.methods() {
            let inputs: Vec<String> = m
                .input_positions_vec()
                .iter()
                .map(|p| (p + 1).to_string())
                .collect();
            out.push_str(&format!(
                "method {} {} in={}",
                m.name(),
                sig.name(m.relation()),
                inputs.join(",")
            ));
            if let Some(bound) = m.result_bound() {
                out.push_str(&format!(" bound={}", bound.limit));
            }
            out.push('\n');
        }
        for (rel, tuple) in &self.facts {
            let args: Vec<String> = tuple
                .iter()
                .map(|v| format!("'{}'", self.values.display(*v)))
                .collect();
            out.push_str(&format!("fact {}({})\n", sig.name(*rel), args.join(", ")));
        }
        out
    }
}

/// One oracle unit: a query against a catalog under one verb and exec
/// configuration. Requests name their key; every request of a key has the
/// same expected outcome.
pub struct Key {
    pub catalog: usize,
    pub verb: Verb,
    pub exec: ExecConfig,
    /// The query text the oracle evaluates.
    pub query: String,
    /// Index into [`Workload::classes`] (per-class latency breakdown).
    pub class: usize,
}

impl Key {
    pub fn line(&self, catalogs: &[CatalogSpec], query: &str) -> String {
        format!(
            "{} {} {}",
            self.verb.as_str(),
            catalogs[self.catalog].name,
            query
        )
    }
}

/// One request as sent: its key and the query text on the wire (the
/// key's query, or the key's template with a fresh constant).
#[derive(Clone)]
pub struct Request {
    pub key: usize,
    pub query: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DecideMiss,
    ExecuteCrawl,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "decide-miss" => Some(Kind::DecideMiss),
            "execute-crawl" => Some(Kind::ExecuteCrawl),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::DecideMiss => "decide-miss",
            Kind::ExecuteCrawl => "execute-crawl",
        }
    }
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub catalogs: Vec<CatalogSpec>,
    pub keys: Vec<Key>,
    pub classes: Vec<String>,
    /// Requests sent (split over the connections) after registration and
    /// before timing starts.
    pub warmup: Vec<Request>,
    /// The server's decision-cache budget (`None` = unbounded).
    pub cache_bytes: Option<u64>,
    /// Whether every timed response must be a cache hit.
    pub expect_hits: bool,
    /// Sampling tables for the timed stream.
    mix: Mix,
}

enum Mix {
    /// Fresh-constant templates: `(key, template, variable replaced)`,
    /// drawn with the given weights.
    Templates {
        templates: Vec<(usize, ConjunctiveQuery, VarId)>,
        weights: Vec<u32>,
    },
    /// A fixed query set: a shape uniformly, then a key of that shape.
    Fixed { keys_by_shape: Vec<Vec<usize>> },
}

/// A per-connection request stream; the same seed and connection give the
/// same sequence.
pub struct Stream<'w> {
    workload: &'w Workload,
    rng: Rng,
    conn: usize,
    sent: u64,
}

impl Iterator for Stream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let n = self.sent;
        self.sent += 1;
        Some(self.workload.draw(&mut self.rng, self.conn, n))
    }
}

impl Workload {
    pub fn build(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::DecideMiss => decide_miss(seed),
            Kind::ExecuteCrawl => execute_crawl(seed),
        }
    }

    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            workload: self,
            rng: Rng::new(
                self.seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(conn as u64 + 1),
            ),
            conn,
            sent: 0,
        }
    }

    pub fn request_line(&self, request: &Request) -> String {
        self.keys[request.key].line(&self.catalogs, &request.query)
    }

    fn draw(&self, rng: &mut Rng, conn: usize, n: u64) -> Request {
        match &self.mix {
            Mix::Templates { templates, weights } => {
                let (key, template, var) = &templates[rng.weighted(weights)];
                let constant = fresh_constant(self.seed, conn, n);
                let sig = self.catalogs[self.keys[*key].catalog].schema.signature();
                Request {
                    key: *key,
                    query: cq_text(sig, template, Some((*var, &constant))),
                }
            }
            Mix::Fixed { keys_by_shape } => {
                let keys = &keys_by_shape[rng.below(keys_by_shape.len())];
                let key = keys[rng.below(keys.len())];
                Request {
                    key,
                    query: self.keys[key].query.clone(),
                }
            }
        }
    }
}

/// A selecting constant no other request of this run uses.
fn fresh_constant(seed: u64, conn: usize, n: u64) -> String {
    format!("k{seed}c{conn}n{n}")
}

/// Renders a CQ in the wire syntax, optionally replacing one variable by
/// a constant.
pub fn cq_text(sig: &Signature, cq: &ConjunctiveQuery, subst: Option<(VarId, &str)>) -> String {
    let name = |v: VarId| match subst {
        Some((var, constant)) if var == v => format!("'{constant}'"),
        _ => cq.vars().name(v).to_owned(),
    };
    let head: Vec<String> = cq.free_vars().iter().map(|v| name(*v)).collect();
    let body: Vec<String> = cq
        .atoms()
        .iter()
        .map(|atom| {
            let args: Vec<String> = atom
                .args()
                .iter()
                .map(|t| match t {
                    Term::Var(v) => name(*v),
                    Term::Const(_) => unreachable!("generated templates have no constants"),
                })
                .collect();
            format!("{}({})", sig.name(atom.relation()), args.join(", "))
        })
        .collect();
    format!("Q({}) :- {}", head.join(", "), body.join(", "))
}

// --- decide-miss -----------------------------------------------------------

/// The twelve Table-1 schemas of `rbqa_bench::decide_cases`, one catalog
/// each. Every request is the case's chain query with a fresh selecting
/// constant in the last position of its last atom, so it misses the
/// decision cache. A quarter of the requests synthesise a plan.
fn decide_miss(seed: u64) -> Workload {
    let cases = rbqa_bench::decide_cases(false);
    let mut classes: Vec<String> = Vec::new();
    let mut catalogs = Vec::new();
    let mut keys = Vec::new();
    let mut templates = Vec::new();
    let mut weights = Vec::new();
    let mut warmup = Vec::new();
    for case in &cases {
        // Each cheap case (FDs, UIDFD rows, ≈1 ms) gets a sixth of the
        // traffic of an expensive one (IDs, BWIDs rows, 3–10 ms). The
        // expensive latencies cluster by schema, with gaps between the
        // clusters; at this weighting p50 lies inside the ≈4.7 ms cluster
        // (IDs rel12, BWIDs rel14) and p95 inside the slowest one (BWIDs
        // rel22), not in a gap, where a quantile jumps with small shifts.
        let expensive = case.suite.contains("IDs");
        let catalog = catalogs.len();
        let name = case.label.replace(['/', '-'], "_").to_lowercase();
        catalogs.push(CatalogSpec::new(&name, case.schema.clone()));
        let last = case
            .query
            .atoms()
            .last()
            .expect("chain queries are non-empty");
        let var = last
            .args()
            .last()
            .and_then(|t| t.as_var())
            .expect("chain atoms end in a variable");
        for (verb, share) in [(Verb::Decide, 3), (Verb::Synthesize, 1)] {
            let key = keys.len();
            let sig = case.schema.signature();
            // Per Table-1 row, schema size and verb: the row is the prefix.
            let label = format!("{}/{}", case.label, verb.as_str());
            let class = class_index(&mut classes, &label);
            keys.push(Key {
                catalog,
                verb,
                exec: ExecConfig::DEFAULT,
                query: cq_text(sig, &case.query, Some((var, "oracle"))),
                class,
            });
            templates.push((key, case.query.clone(), var));
            weights.push(share * if expensive { 6 } else { 1 });
            warmup.push(Request {
                key,
                query: cq_text(sig, &case.query, Some((var, &format!("warm{seed}")))),
            });
        }
    }
    Workload {
        kind: Kind::DecideMiss,
        seed,
        catalogs,
        keys,
        classes,
        warmup,
        // Far below the working set: the cache stays full and evicts on
        // every insert.
        cache_bytes: Some(64 * 1024),
        expect_hits: false,
        mix: Mix::Templates { templates, weights },
    }
}

fn class_index(classes: &mut Vec<String>, label: &str) -> usize {
    match classes.iter().position(|c| c == label) {
        Some(i) => i,
        None => {
            classes.push(label.to_owned());
            classes.len() - 1
        }
    }
}

// --- execute-crawl ---------------------------------------------------------

const CRAWL_DEPTS: usize = 500;
const CRAWL_MEMBERS: usize = 100;
const CRAWL_SALARIES: usize = 40;
const CRAWL_QUERIES_PER_SHAPE: usize = 4;

/// One catalog of departments and their members (`Member(dept, prof)`,
/// looked up by department) and professors (`Prof(id, name, salary)`,
/// looked up by id): 10⁵ facts. No method is input-free, so a crawl starts
/// from the query's constants and touches one department.
fn execute_crawl(seed: u64) -> Workload {
    let mut sig = Signature::new();
    let member = sig.add_relation("Member", 2).expect("fresh");
    let prof = sig.add_relation("Prof", 3).expect("fresh");
    let mut constraints = ConstraintSet::new();
    constraints.push_tgd(inclusion_dependency(&sig, member, &[1], prof, &[0]));
    let mut schema = Schema::with_parts(sig, constraints, vec![]).expect("valid schema");
    schema
        .add_method(AccessMethod::unbounded("mem", member, &[0]))
        .expect("valid method");
    schema
        .add_method(AccessMethod::unbounded("pr", prof, &[0]))
        .expect("valid method");
    let mut spec = CatalogSpec::new("crawl", schema);
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    for d in 0..CRAWL_DEPTS {
        for m in 0..CRAWL_MEMBERS {
            let id = format!("p{d}x{m}");
            spec.fact(member, &[&format!("d{d}"), &id]);
            let salary = format!("s{}", rng.below(CRAWL_SALARIES));
            spec.fact(prof, &[&id, &format!("n{seed}x{d}x{m}"), &salary]);
        }
    }

    let mut keys = Vec::new();
    let mut classes: Vec<String> = Vec::new();
    let mut keys_by_shape: Vec<Vec<usize>> = vec![Vec::new(); 3];
    let crawl = |d: usize| format!("Q(n) :- Member('d{d}', i), Prof(i, n, s)");
    for _ in 0..CRAWL_QUERIES_PER_SHAPE {
        let d = rng.below(CRAWL_DEPTS);
        let salary = rng.below(CRAWL_SALARIES);
        let shapes = [
            (
                "point",
                format!("Q(n, s) :- Prof('p{d}x{}', n, s)", rng.below(CRAWL_MEMBERS)),
            ),
            ("crawl", crawl(d)),
            // The second disjunct repeats the first one's bindings, which
            // the adaptive executor serves from its window.
            (
                "union",
                format!(
                    "{} || Q(n) :- Member('d{d}', i), Prof(i, n, 's{salary}')",
                    crawl(d)
                ),
            ),
        ];
        for (shape_index, (shape, query)) in shapes.into_iter().enumerate() {
            for sharded in [false, true] {
                for adaptive in [false, true] {
                    let label = format!(
                        "{shape}/{}/{}",
                        if sharded { "sharded4" } else { "instance" },
                        if adaptive { "adaptive" } else { "naive" }
                    );
                    let class = class_index(&mut classes, &label);
                    // Seven instance requests per sharded one: a sharded
                    // run repartitions the whole dataset first and takes
                    // about twice as long. At 1/8 sharded traffic p50 lies
                    // inside the instance mode and p95 inside the sharded
                    // one, away from the edges of either.
                    let copies = if sharded { 1 } else { 7 };
                    let key = keys.len();
                    keys.push(Key {
                        catalog: 0,
                        verb: Verb::Execute,
                        exec: ExecConfig { sharded, adaptive },
                        query: query.clone(),
                        class,
                    });
                    for _ in 0..copies {
                        keys_by_shape[shape_index].push(key);
                    }
                }
            }
        }
    }
    let warmup = (0..keys.len())
        .map(|key| Request {
            key,
            query: keys[key].query.clone(),
        })
        .collect();
    Workload {
        kind: Kind::ExecuteCrawl,
        seed,
        catalogs: vec![spec],
        keys,
        classes,
        warmup,
        cache_bytes: None,
        expect_hits: true,
        mix: Mix::Fixed { keys_by_shape },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_connections() {
        for kind in [Kind::DecideMiss, Kind::ExecuteCrawl] {
            let w = Workload::build(kind, 7);
            let a: Vec<String> = w.stream(0).take(50).map(|r| w.request_line(&r)).collect();
            let b: Vec<String> = w.stream(0).take(50).map(|r| w.request_line(&r)).collect();
            let c: Vec<String> = w.stream(1).take(50).map(|r| w.request_line(&r)).collect();
            assert_eq!(a, b, "{kind:?}");
            assert_ne!(a, c, "{kind:?}");
        }
    }

    #[test]
    fn decide_miss_constants_are_fresh() {
        let w = Workload::build(Kind::DecideMiss, 3);
        let mut lines: Vec<String> = w.stream(0).take(200).map(|r| r.query).collect();
        lines.extend(w.stream(1).take(200).map(|r| r.query));
        let n = lines.len();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), n);
    }
}
