//! Per-request-window adaptive state: the access cache (relevance
//! oracle), the per-method cost model, and the disjunct bookkeeping.
//!
//! One [`AdaptiveWindow`] lives exactly as long as one execution window —
//! one `Execute` request, all disjunct plans included. That scope is what
//! makes the cache sound: within a window the backend is idempotent (one
//! selection cache, one seeded remote latency/fault stream), so a cached
//! response *is* the response the backend would return.
//!
//! The window is the adaptive [`ExecPolicy`] of the one plan interpreter,
//! [`rbqa_access::plan::execute_with_policy`]. Soundness of its three
//! decisions, piece by piece:
//!
//! * **Scheduling** is a topological order of the plan's dependency graph
//!   with pure middleware run as soon as it is ready and ready access
//!   commands picked cheapest-first. Temporary tables are named and
//!   written exactly once (`Plan::validate` rejects duplicates), so every
//!   topological order computes the same tables.
//! * **Replays** return the exact response the backend returned earlier
//!   in the window, and backends are idempotent within a window.
//! * **Short-circuits** only skip a disjunct whose plan is structurally
//!   identical to one this window already executed — same plan, same
//!   window, same rows.

use rbqa_access::backend::AccessResponse;
use rbqa_access::plan::{Command, ExecPolicy, Plan, PlanReplay};
use rbqa_common::Value;
use rustc_hash::{FxHashMap, FxHashSet};

use crate::graph::DependencyGraph;

/// EWMA smoothing factor: recent calls weigh ~30%, matching the short
/// horizon of a request window (tens to hundreds of calls).
const EWMA_ALPHA: f64 = 0.3;

/// Observed cost statistics for one access method within a window.
#[derive(Debug, Clone, Default)]
pub struct MethodStats {
    latency_ewma: f64,
    fanout_ewma: f64,
    selectivity_ewma: f64,
    samples: u64,
}

impl MethodStats {
    fn observe(&mut self, fetched: usize, matched: usize, latency_micros: u64) {
        let fanout = fetched as f64;
        let selectivity = matched as f64 / (fetched.max(1)) as f64;
        let latency = latency_micros as f64;
        if self.samples == 0 {
            self.latency_ewma = latency;
            self.fanout_ewma = fanout;
            self.selectivity_ewma = selectivity;
        } else {
            self.latency_ewma += EWMA_ALPHA * (latency - self.latency_ewma);
            self.fanout_ewma += EWMA_ALPHA * (fanout - self.fanout_ewma);
            self.selectivity_ewma += EWMA_ALPHA * (selectivity - self.selectivity_ewma);
        }
        self.samples += 1;
    }

    /// Smoothed per-call simulated latency, microseconds.
    pub fn latency_ewma(&self) -> f64 {
        self.latency_ewma
    }

    /// Smoothed tuples fetched per call (the method's fan-out; lower is
    /// more selective).
    pub fn fanout_ewma(&self) -> f64 {
        self.fanout_ewma
    }

    /// Smoothed matched/fetched ratio per call (how much a result bound
    /// truncates; 1.0 = nothing dropped).
    pub fn selectivity_ewma(&self) -> f64 {
        self.selectivity_ewma
    }

    /// Number of backend calls folded into the EWMAs. Exactly one sample
    /// is taken per *logical* access: retries performed inside the
    /// `Resilient` decorator happen within a single `access()` call and
    /// are never double-counted here.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Scheduling score: cheapest-and-most-selective first (lower is
    /// better). Combines the latency and fan-out EWMAs multiplicatively so
    /// a method must be both cheap *and* selective to rank early.
    pub fn cost_score(&self) -> f64 {
        (1.0 + self.latency_ewma) * (1.0 + self.fanout_ewma)
    }
}

/// A `(method, binding)` access, the key of the window cache.
type AccessKey = (String, Vec<(usize, Value)>);

/// Mutable adaptive state shared by every plan of one execution window.
#[derive(Debug, Default)]
pub struct AdaptiveWindow {
    /// Source-arity tuples per `(method, binding)`, cached *before* output
    /// projection so different access commands sharing the binding can
    /// reuse them. Source-side accounting (matched counts, truncation,
    /// latency) is deliberately not replayed: a replay causes no backend
    /// traffic, so the run's metrics only charge fresh calls.
    cache: FxHashMap<AccessKey, Vec<Vec<Value>>>,
    stats: FxHashMap<String, MethodStats>,
    /// Completed disjuncts by structural identity (their `Debug`
    /// rendering), kept for the short-circuit; `accesses_avoided` is what
    /// a later identical disjunct avoids entirely.
    executed: FxHashMap<String, PlanReplay>,
    emitted: FxHashSet<Vec<Value>>,
    /// The plan being executed: its dependency graph and identity key.
    current: Option<(DependencyGraph, String)>,
}

impl AdaptiveWindow {
    /// A fresh window with no cached accesses and no cost observations.
    pub fn new() -> Self {
        AdaptiveWindow::default()
    }

    /// The cost statistics observed for `method` so far, if any.
    pub fn method_stats(&self, method: &str) -> Option<&MethodStats> {
        self.stats.get(method)
    }

    /// Whether every row of `rows` was already emitted by completed
    /// disjuncts of this window.
    pub fn subsumed(&self, rows: &[Vec<Value>]) -> bool {
        rows.iter().all(|r| self.emitted.contains(r))
    }
}

/// Scheduling score of a command: accesses rank by their method's cost
/// model ([`MethodStats::cost_score`]); unobserved methods rank last (and
/// fall back to plan order among themselves), so the first execution of
/// each method follows the synthesized order.
fn score(stats: &FxHashMap<String, MethodStats>, command: &Command) -> f64 {
    match command {
        Command::Middleware { .. } => f64::NEG_INFINITY,
        Command::Access { method, .. } => stats
            .get(method)
            .map_or(f64::INFINITY, MethodStats::cost_score),
    }
}

impl ExecPolicy for AdaptiveWindow {
    fn short_circuit(&mut self, plan: &Plan) -> Option<PlanReplay> {
        // A structurally identical plan already ran in this window, so its
        // rows are provably subsumed by rows already emitted — stop before
        // performing any access.
        let identity = format!("{plan:?}");
        if let Some(prev) = self.executed.get(&identity) {
            return Some(prev.clone());
        }
        self.current = Some((DependencyGraph::new(plan), identity));
        None
    }

    fn next_command(&mut self, commands: &[Command], done: &[bool], in_order: usize) -> usize {
        let Some((graph, _)) = &self.current else {
            return in_order;
        };
        let ready = |i: &usize| !done[*i] && graph.ready(*i, done);
        // Pure middleware runs as soon as its inputs exist, in plan order.
        if let Some(i) = (in_order..commands.len())
            .filter(ready)
            .find(|&i| matches!(commands[i], Command::Middleware { .. }))
        {
            return i;
        }
        // Among the ready (hence commutable) access commands, run the one
        // the cost model ranks cheapest-and-most-selective; ties and
        // unobserved methods fall back to plan order.
        (in_order..commands.len())
            .filter(ready)
            .min_by(|&a, &b| {
                score(&self.stats, &commands[a])
                    .total_cmp(&score(&self.stats, &commands[b]))
                    .then(a.cmp(&b))
            })
            .unwrap_or(in_order)
    }

    fn replay(&self, method: &str, binding: &[(usize, Value)]) -> Option<&[Vec<Value>]> {
        // Borrowed lookup would need a (str, slice) key view; the clone-free
        // variant is not worth a custom hash-map key here — bindings are a
        // few machine words.
        self.cache
            .get(&(method.to_owned(), binding.to_vec()))
            .map(Vec::as_slice)
    }

    /// Caches a fresh response under `(method, binding)` and feeds the
    /// method's cost EWMAs (exactly once per logical access).
    fn record(&mut self, method: &str, binding: &[(usize, Value)], response: &AccessResponse) {
        self.stats.entry(method.to_owned()).or_default().observe(
            response.tuples.len(),
            response.tuples_matched,
            response.latency_micros,
        );
        self.cache.insert(
            (method.to_owned(), binding.to_vec()),
            response.tuples.clone(),
        );
    }

    /// Records a completed disjunct: its output joins the emitted-row set
    /// (the subsumption baseline) and its identity key allows later
    /// structurally identical disjuncts to short-circuit.
    fn finished(&mut self, arity: usize, output: &[Vec<Value>], accesses: usize) {
        let Some((_, identity)) = self.current.take() else {
            return;
        };
        for row in output {
            self.emitted.insert(row.clone());
        }
        self.executed.entry(identity).or_insert(PlanReplay {
            arity,
            rows: output.to_vec(),
            accesses_avoided: accesses,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::backend::{AccessError, BudgetedBackend, InstanceBackend};
    use rbqa_access::plan::{execute_with_backend, execute_with_policy, PlanBuilder, PlanError};
    use rbqa_access::{AccessMethod, Condition, RaExpr, Schema};
    use rbqa_common::{Instance, Signature, ValueFactory};

    /// University schema/instance as in the interpreter's own tests: 5
    /// employees, one earning 20000, the rest 10000.
    fn setup(ud_bound: Option<usize>) -> (Schema, Instance, ValueFactory) {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut schema = Schema::new(sig.clone());
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match ud_bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        let mut vf = ValueFactory::new();
        let mut inst = Instance::new(sig);
        for i in 0..5 {
            let id = vf.constant(&format!("id{i}"));
            let name = vf.constant(&format!("name{i}"));
            let salary = if i == 3 {
                vf.constant("20000")
            } else {
                vf.constant("10000")
            };
            let addr = vf.constant(&format!("addr{i}"));
            let phone = vf.constant(&format!("phone{i}"));
            inst.insert(prof, vec![id, name, salary]).unwrap();
            inst.insert(udir, vec![id, addr, phone]).unwrap();
        }
        (schema, inst, vf)
    }

    fn salary_plan(vf: &mut ValueFactory, salary: &str) -> Plan {
        let salary = vf.constant(salary);
        PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("profs", "pr", RaExpr::table("ids"), vec![0], vec![0, 1, 2])
            .middleware(
                "matching",
                RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, salary)),
            )
            .middleware("names", RaExpr::project(RaExpr::table("matching"), vec![1]))
            .returns("names")
    }

    #[test]
    fn adaptive_matches_naive_rows_with_no_prior_state() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let mut naive_backend = InstanceBackend::truncating(&inst);
        let naive = execute_with_backend(&plan, &schema, &mut naive_backend).unwrap();
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_with_policy(&plan, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.output, naive.output);
        assert_eq!(run.accesses_performed, naive.accesses_performed);
        assert_eq!(run.accesses_skipped, 0, "cold window: nothing to skip");
        assert_eq!(run.disjuncts_short_circuited, 0);
        assert_eq!(run.calls_per_method, naive.calls_per_method);
    }

    #[test]
    fn shared_window_dedups_union_disjunct_accesses() {
        // The fixture union shape: Q(n) :- Prof(i, n, '10000') ∨ '20000'.
        // Both disjuncts crawl the same ud + pr accesses; the second must
        // answer every access from the window cache.
        let (schema, inst, mut vf) = setup(None);
        let p1 = salary_plan(&mut vf, "10000");
        let p2 = salary_plan(&mut vf, "20000");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let r1 = execute_with_policy(&p1, &schema, &mut backend, &mut window).unwrap();
        let r2 = execute_with_policy(&p2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r1.accesses_performed, 6);
        assert_eq!(r2.accesses_performed, 0, "all 6 accesses deduped");
        assert_eq!(r2.accesses_skipped, 6);
        assert_eq!(r1.output.len(), 4);
        assert_eq!(r2.output.len(), 1);
        // Naive parity for both disjuncts.
        let mut nb = InstanceBackend::truncating(&inst);
        assert_eq!(
            execute_with_backend(&p1, &schema, &mut nb).unwrap().output,
            r1.output
        );
        let mut nb = InstanceBackend::truncating(&inst);
        assert_eq!(
            execute_with_backend(&p2, &schema, &mut nb).unwrap().output,
            r2.output
        );
    }

    #[test]
    fn identical_disjunct_short_circuits_entirely() {
        let (schema, inst, mut vf) = setup(None);
        let p1 = salary_plan(&mut vf, "10000");
        let p2 = salary_plan(&mut vf, "10000");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let r1 = execute_with_policy(&p1, &schema, &mut backend, &mut window).unwrap();
        let r2 = execute_with_policy(&p2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r2.output, r1.output);
        assert_eq!(r2.disjuncts_short_circuited, 1);
        assert_eq!(r2.accesses_performed, 0);
        assert_eq!(r2.accesses_skipped, 6);
        assert!(window.subsumed(&r2.output));
    }

    #[test]
    fn duplicate_bindings_within_one_access_are_deduped() {
        // A seed table with one id listed twice through a union: naive
        // performs two pr calls for it, adaptive performs one.
        let (schema, inst, mut vf) = setup(None);
        let id2 = vf.constant("id2");
        let plan = PlanBuilder::new()
            .middleware(
                "seed",
                RaExpr::union(
                    RaExpr::singleton(vec![id2]),
                    RaExpr::project(RaExpr::singleton(vec![id2, id2]), vec![1]),
                ),
            )
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1, 2])
            .returns("prof");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_with_policy(&plan, &schema, &mut backend, &mut window).unwrap();
        // The union dedups to one row, so this degenerates to a cold call —
        // but a *repeat* of the plan in the same window is fully cached.
        assert_eq!(run.accesses_performed, 1);
        let p2 = PlanBuilder::new()
            .middleware("seed2", RaExpr::singleton(vec![id2]))
            .access("prof2", "pr", RaExpr::table("seed2"), vec![0], vec![1, 2])
            .returns("prof2");
        let r2 = execute_with_policy(&p2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(r2.accesses_performed, 0);
        assert_eq!(r2.accesses_skipped, 1);
        assert_eq!(r2.output, run.output);
    }

    #[test]
    fn cost_model_reorders_commutable_accesses() {
        // Two independent input-free accesses; after observing ud as
        // expensive (fan-out 5) and pr as cheap, a second plan with the
        // same two methods in the opposite order must be reordered.
        let (schema, inst, mut vf) = setup(None);
        let id0 = vf.constant("id0");
        let plan1 = PlanBuilder::new()
            .middleware("seed", RaExpr::singleton(vec![id0]))
            .access("cheap", "pr", RaExpr::table("seed"), vec![0], vec![0])
            .access("costly", "ud", RaExpr::unit(), vec![], vec![0])
            .middleware(
                "out",
                RaExpr::union(RaExpr::table("cheap"), RaExpr::table("costly")),
            )
            .returns("out");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        execute_with_policy(&plan1, &schema, &mut backend, &mut window).unwrap();
        let ud_score = window.method_stats("ud").unwrap().cost_score();
        let pr_score = window.method_stats("pr").unwrap().cost_score();
        assert!(
            pr_score < ud_score,
            "pr (fan-out 1) must rank cheaper than ud (fan-out 5)"
        );
        // Second plan puts the costly access first in plan order; the
        // scheduler must still run pr first (both are ready — commutable).
        let id1 = vf.constant("id1");
        let plan2 = PlanBuilder::new()
            .middleware("seed2", RaExpr::singleton(vec![id1]))
            .access("costly2", "ud", RaExpr::unit(), vec![], vec![0])
            .access("cheap2", "pr", RaExpr::table("seed2"), vec![0], vec![0])
            .middleware(
                "out2",
                RaExpr::union(RaExpr::table("costly2"), RaExpr::table("cheap2")),
            )
            .returns("out2");
        let naive_rows = {
            let mut nb = InstanceBackend::truncating(&inst);
            execute_with_backend(&plan2, &schema, &mut nb)
                .unwrap()
                .output
        };
        let run = execute_with_policy(&plan2, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.output, naive_rows, "reordering never changes rows");
        // ud was cached from plan1 (same empty binding), pr was not (new id).
        assert_eq!(run.accesses_skipped, 1);
    }

    #[test]
    fn empty_binding_sets_skip_the_access() {
        let (schema, inst, _vf) = setup(None);
        let plan = PlanBuilder::new()
            .middleware(
                "seed",
                RaExpr::Constant {
                    arity: 1,
                    rows: vec![],
                },
            )
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1])
            .returns("prof");
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let run = execute_with_policy(&plan, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.accesses_performed, 0);
        assert!(run.output.is_empty());
    }

    #[test]
    fn deadline_aborts_adaptive_execution() {
        let (schema, inst, mut vf) = setup(None);
        let plan = salary_plan(&mut vf, "10000");
        let _guard = rbqa_obs::arm_deadline(std::time::Duration::from_micros(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut backend = InstanceBackend::truncating(&inst);
        let mut window = AdaptiveWindow::new();
        let err = execute_with_policy(&plan, &schema, &mut backend, &mut window).unwrap_err();
        assert_eq!(err, PlanError::DeadlineExceeded);
    }

    /// Runs `plan` through `window` with a tracer installed, returning the
    /// run and the methods of its `access` spans in execution order.
    fn traced_run(
        plan: &Plan,
        schema: &Schema,
        backend: &mut dyn rbqa_access::AccessBackend,
        window: &mut AdaptiveWindow,
    ) -> (
        Result<rbqa_access::plan::PlanRun, PlanError>,
        rbqa_obs::Trace,
    ) {
        rbqa_obs::install(rbqa_obs::Tracer::new());
        let run = execute_with_policy(plan, schema, backend, window);
        (run, rbqa_obs::uninstall().expect("tracer installed"))
    }

    fn access_order(trace: &rbqa_obs::Trace) -> Vec<String> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == "access")
            .flat_map(|s| s.str_args.iter())
            .filter(|(k, _)| *k == "method")
            .map(|(_, v)| v.to_string())
            .collect()
    }

    #[test]
    fn adaptive_policy_reorders_once_the_later_method_is_cheaper() {
        // ud (fan-out 5) comes first in plan order, pr (fan-out 1) second;
        // the two accesses are independent. A fresh window follows plan
        // order; once a warm-up plan has shown pr to be cheaper, the
        // same plan runs pr first and still returns the naive rows.
        let (schema, inst, mut vf) = setup(None);
        let id0 = vf.constant("id0");
        let plan = PlanBuilder::new()
            .middleware("seed", RaExpr::singleton(vec![id0]))
            .access("costly", "ud", RaExpr::unit(), vec![], vec![0])
            .access("cheap", "pr", RaExpr::table("seed"), vec![0], vec![0])
            .middleware(
                "out",
                RaExpr::union(RaExpr::table("costly"), RaExpr::table("cheap")),
            )
            .returns("out");
        let naive_rows = {
            let mut nb = InstanceBackend::truncating(&inst);
            execute_with_backend(&plan, &schema, &mut nb)
                .unwrap()
                .output
        };

        let mut backend = InstanceBackend::truncating(&inst);
        let (cold, trace) = traced_run(&plan, &schema, &mut backend, &mut AdaptiveWindow::new());
        assert_eq!(cold.unwrap().output, naive_rows);
        assert_eq!(
            access_order(&trace),
            ["ud", "pr"],
            "cold window: plan order"
        );
        assert_eq!(trace.counters.adaptive_reorders, 0);

        let id1 = vf.constant("id1");
        let warm_up = PlanBuilder::new()
            .middleware("seed1", RaExpr::singleton(vec![id1]))
            .access("a", "ud", RaExpr::unit(), vec![], vec![0])
            .access("b", "pr", RaExpr::table("seed1"), vec![0], vec![0])
            .returns("b");
        let mut window = AdaptiveWindow::new();
        execute_with_policy(&warm_up, &schema, &mut backend, &mut window).unwrap();
        let (warm, trace) = traced_run(&plan, &schema, &mut backend, &mut window);
        let warm = warm.unwrap();
        assert_eq!(warm.output, naive_rows, "reordering never changes rows");
        assert_eq!(access_order(&trace), ["pr", "ud"], "cheaper pr runs first");
        assert_eq!(trace.counters.adaptive_reorders, 1);
        assert_eq!(warm.disjuncts_short_circuited, 0);
    }

    #[test]
    fn adaptive_counters_survive_a_failed_plan() {
        // The first plan spends the whole 6-call budget; the second replays
        // those 6 accesses and then fails on its first fresh call. The
        // skips it made before failing still reach the trace counters.
        let (schema, inst, mut vf) = setup(None);
        let first = salary_plan(&mut vf, "10000");
        let salary = vf.constant("20000");
        let second = PlanBuilder::new()
            .access("ids", "ud", RaExpr::unit(), vec![], vec![0])
            .access("profs", "pr", RaExpr::table("ids"), vec![0], vec![0, 1, 2])
            .middleware(
                "matching",
                RaExpr::select(RaExpr::table("profs"), Condition::eq_const(2, salary)),
            )
            .access(
                "by_name",
                "pr",
                RaExpr::project(RaExpr::table("profs"), vec![1]),
                vec![0],
                vec![0],
            )
            .returns("matching");
        let mut backend = BudgetedBackend::new(InstanceBackend::truncating(&inst), 6);
        let mut window = AdaptiveWindow::new();
        let run = execute_with_policy(&first, &schema, &mut backend, &mut window).unwrap();
        assert_eq!(run.accesses_performed, 6);
        let (run, trace) = traced_run(&second, &schema, &mut backend, &mut window);
        assert_eq!(
            run.unwrap_err(),
            PlanError::Access(AccessError::BudgetExhausted {
                budget: 6,
                calls: 7
            })
        );
        assert_eq!(trace.counters.adaptive_skips, 6);
    }
}
