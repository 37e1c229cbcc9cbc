//! Execution of monotone plans against a pluggable
//! [`AccessBackend`].
//!
//! This module holds the one plan interpreter of the workspace. It
//! resolves each access command's method against the schema, evaluates
//! the input expression, and performs one
//! [`crate::backend::AccessBackend::access`] per binding tuple — whether
//! the tuples come from a local instance, a simulated remote service, or a
//! sharded federation is the backend's business. An [`ExecPolicy`] makes
//! the three decisions in which execution strategies differ (which ready
//! command runs next, whether a response is replayed, whether a whole
//! plan is short-circuited); [`NaivePolicy`] is the paper's Section 2
//! reading, and the adaptive policy lives in `rbqa-adapt`. The historical
//! entry point [`execute`] over `(&Instance, &mut dyn AccessSelection)` is
//! a thin wrapper around the in-memory [`InstanceBackend`].

use rbqa_common::{Instance, Value};
use rustc_hash::FxHashMap;

use crate::backend::{AccessBackend, AccessResponse, InstanceBackend};
use crate::plan::ra::{PlanError, TempTable};
use crate::plan::{Command, Plan};
use crate::schema::Schema;
use crate::selection::AccessSelection;

/// The result of executing a plan: the output rows plus execution metrics.
#[derive(Debug, Clone, Default)]
pub struct PlanRun {
    /// Rows of the output table, sorted for deterministic comparison.
    pub output: Vec<Vec<Value>>,
    /// Number of individual accesses performed (one per binding tuple per
    /// access command).
    pub accesses_performed: usize,
    /// Total number of tuples returned by the services across all accesses.
    pub tuples_fetched: usize,
    /// Total number of tuples that *matched* the bindings at the source
    /// (`>= tuples_fetched`; the difference is what result bounds dropped).
    pub tuples_matched: usize,
    /// Number of accesses whose output was truncated by a result bound.
    pub truncated_accesses: usize,
    /// Total simulated backend latency across all accesses, microseconds
    /// (0 for purely local backends).
    pub latency_micros: u64,
    /// Wall-clock time of the whole plan run, microseconds. Unlike
    /// `latency_micros` (the backend's *simulated* cost model) this is
    /// real elapsed time on the executing thread.
    pub wall_micros: u64,
    /// Accesses performed, per method name.
    pub calls_per_method: FxHashMap<String, usize>,
    /// Binding-level accesses the policy answered without a backend call
    /// (replayed responses plus a short-circuited plan's avoided
    /// accesses). Always 0 under [`NaivePolicy`].
    pub accesses_skipped: usize,
    /// Whether this plan run was short-circuited as a union disjunct whose
    /// rows were provably subsumed by already-executed disjuncts (0 or 1
    /// per run; union metrics sum it). Always 0 under [`NaivePolicy`].
    pub disjuncts_short_circuited: usize,
    /// Final contents of every temporary table (for inspection/debugging).
    pub tables: FxHashMap<String, TempTable>,
}

impl PlanRun {
    /// Whether the output is non-empty (the Boolean reading of a plan whose
    /// output table has arity 0, as in Example 2.1).
    pub fn boolean_output(&self) -> bool {
        !self.output.is_empty()
    }
}

/// The rows a policy serves for a whole plan instead of executing it.
#[derive(Debug, Clone)]
pub struct PlanReplay {
    /// Arity of the plan's output table.
    pub arity: usize,
    /// The output rows, sorted.
    pub rows: Vec<Vec<Value>>,
    /// Binding-level accesses the earlier run accounted for, all of which
    /// this run avoids.
    pub accesses_avoided: usize,
}

/// The decisions in which execution strategies differ. The interpreter
/// ([`execute_with_policy`]) keeps the semantics, the accounting, the
/// `access` spans and the deadline checks; a policy only reorders that
/// work and skips the parts it can prove redundant, so every policy
/// returns the rows [`NaivePolicy`] returns.
///
/// The defaults are the naive decisions. A policy that replays must only
/// replay what the same execution window's backend returned, because a
/// backend is idempotent within a window and nowhere else.
pub trait ExecPolicy {
    /// Called once per plan, before any command runs. `Some` serves the
    /// plan from an earlier run of a structurally identical plan.
    fn short_circuit(&mut self, _plan: &Plan) -> Option<PlanReplay> {
        None
    }

    /// Index of the command to run next. `in_order` is the first pending
    /// command in plan order; it is always ready (a validated plan only
    /// scans tables of earlier commands). Any other choice must be a
    /// pending command whose input tables all exist.
    fn next_command(&mut self, _commands: &[Command], _done: &[bool], in_order: usize) -> usize {
        in_order
    }

    /// The source tuples of an earlier `(method, binding)` access of this
    /// window, if the policy replays it.
    fn replay(&self, _method: &str, _binding: &[(usize, Value)]) -> Option<&[Vec<Value>]> {
        None
    }

    /// Observes a fresh backend response.
    fn record(&mut self, _method: &str, _binding: &[(usize, Value)], _response: &AccessResponse) {}

    /// Observes a completed plan: its sorted output and the binding-level
    /// accesses it accounted for (performed plus skipped).
    fn finished(&mut self, _arity: usize, _output: &[Vec<Value>], _accesses: usize) {}
}

/// The paper's Section 2 semantics: commands strictly in plan order, one
/// backend call per binding, no cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaivePolicy;

impl ExecPolicy for NaivePolicy {}

/// Executes `plan` under `schema` against an arbitrary [`AccessBackend`],
/// with [`NaivePolicy`].
///
/// The semantics follows Section 2 of the paper: commands run in order;
/// access commands evaluate their input expression, perform one access per
/// binding tuple, take the union of the returned outputs, rename it
/// through the output map and store it; middleware commands evaluate their
/// monotone relational algebra expression over the temporary tables
/// produced so far. Backend failures surface as [`PlanError::Access`].
pub fn execute_with_backend(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
) -> Result<PlanRun, PlanError> {
    execute_with_policy(plan, schema, backend, &mut NaivePolicy)
}

/// Executes `plan` under `schema` against `backend`, asking `policy` for
/// the order of commands, replayed responses and short-circuits.
///
/// The returned [`PlanRun`] accounts *actual backend traffic*:
/// `accesses_performed`, `tuples_fetched`, `latency_micros` etc. cover
/// fresh backend calls only, while `accesses_skipped` counts the
/// binding-level accesses answered without one. The policy's savings are
/// flushed to the adaptive trace counters on every exit path, failures
/// included.
pub fn execute_with_policy<P: ExecPolicy + ?Sized>(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
    policy: &mut P,
) -> Result<PlanRun, PlanError> {
    plan.validate(schema)?;
    let wall_start = std::time::Instant::now();
    let mut run = PlanRun::default();
    let mut reorders = 0u64;
    let result = match policy.short_circuit(plan) {
        Some(replay) => {
            run.accesses_skipped = replay.accesses_avoided;
            run.disjuncts_short_circuited = 1;
            TempTable::from_rows(replay.arity, replay.rows.clone()).map(|table| {
                run.tables.insert(plan.output_table().to_owned(), table);
                run.output = replay.rows;
            })
        }
        None => run_commands(plan, schema, backend, policy, &mut run, &mut reorders),
    };
    rbqa_obs::counters::add_adaptive(
        run.accesses_skipped as u64,
        reorders,
        run.disjuncts_short_circuited as u64,
    );
    result?;
    run.wall_micros = wall_start.elapsed().as_micros() as u64;
    Ok(run)
}

/// The interpreter loop: runs every command of a validated plan in the
/// order `policy` picks, accumulating tables and accounting into `run`.
fn run_commands<P: ExecPolicy + ?Sized>(
    plan: &Plan,
    schema: &Schema,
    backend: &mut dyn AccessBackend,
    policy: &mut P,
    run: &mut PlanRun,
    reorders: &mut u64,
) -> Result<(), PlanError> {
    let commands = plan.commands();
    let mut done = vec![false; commands.len()];
    let mut in_order = 0usize;
    while in_order < commands.len() {
        let chosen = policy.next_command(commands, &done, in_order);
        match &commands[chosen] {
            Command::Middleware { output, expr } => {
                let table = expr.evaluate(&run.tables)?;
                run.tables.insert(output.clone(), table);
            }
            Command::Access {
                output,
                method,
                input,
                input_map,
                output_map,
            } => {
                if chosen != in_order {
                    *reorders += 1;
                }
                let mut access_span = rbqa_obs::span("access");
                access_span.str("method", method);
                let (fetched0, matched0, truncated0) = (
                    run.tuples_fetched,
                    run.tuples_matched,
                    run.truncated_accesses,
                );
                let m = schema
                    .method(method)
                    .ok_or_else(|| PlanError::UnknownMethod(method.clone()))?;
                let bindings_table = input.evaluate(&run.tables)?;
                access_span.num("bindings", bindings_table.len() as u64);
                let input_positions = m.input_positions_vec();
                let mut out = TempTable::new(output_map.len());
                let mut pruned = 0u64;
                for binding_row in bindings_table.rows() {
                    // Cooperative deadline check, once per access: a timed
                    // out request stops occupying the worker mid-plan
                    // instead of running to completion.
                    if rbqa_obs::deadline_expired() {
                        rbqa_obs::counters::add_deadline_expiry();
                        return Err(PlanError::DeadlineExceeded);
                    }
                    let binding: Vec<(usize, Value)> = input_positions
                        .iter()
                        .zip(input_map.iter())
                        .map(|(&pos, &col)| (pos, binding_row[col]))
                        .collect();
                    if let Some(tuples) = policy.replay(method, &binding) {
                        // A replayed response touches no counter that
                        // accounts backend traffic.
                        run.accesses_skipped += 1;
                        pruned += 1;
                        for tuple in tuples {
                            out.insert(output_map.iter().map(|&p| tuple[p]).collect())?;
                        }
                        continue;
                    }
                    let response = backend.access(m, &binding)?;
                    run.accesses_performed += 1;
                    *run.calls_per_method.entry(method.clone()).or_insert(0) += 1;
                    run.tuples_fetched += response.tuples.len();
                    run.tuples_matched += response.tuples_matched;
                    run.truncated_accesses += response.truncated as usize;
                    run.latency_micros += response.latency_micros;
                    policy.record(method, &binding, &response);
                    for tuple in response.tuples {
                        out.insert(output_map.iter().map(|&p| tuple[p]).collect())?;
                    }
                }
                access_span.num("fetched", (run.tuples_fetched - fetched0) as u64);
                access_span.num("matched", (run.tuples_matched - matched0) as u64);
                access_span.num("truncated", (run.truncated_accesses - truncated0) as u64);
                access_span.num("pruned", pruned);
                run.tables.insert(output.clone(), out);
            }
        }
        done[chosen] = true;
        while in_order < commands.len() && done[in_order] {
            in_order += 1;
        }
    }

    let output_table = run
        .tables
        .get(plan.output_table())
        .ok_or_else(|| PlanError::UnknownTable(plan.output_table().to_owned()))?;
    run.output = output_table.sorted_rows();
    policy.finished(
        output_table.arity(),
        &run.output,
        run.accesses_performed + run.accesses_skipped,
    );
    Ok(())
}

/// Executes `plan` on `instance` under `schema`, using `selection` to choose
/// the output of each (result-bounded) access — the in-memory special case
/// of [`execute_with_backend`] over an
/// [`InstanceBackend`].
pub fn execute(
    plan: &Plan,
    schema: &Schema,
    instance: &Instance,
    selection: &mut dyn AccessSelection,
) -> Result<PlanRun, PlanError> {
    let mut backend = InstanceBackend::new(instance, selection);
    execute_with_backend(plan, schema, &mut backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::AccessMethod;
    use crate::plan::ra::{Condition, RaExpr};
    use crate::plan::PlanBuilder;
    use crate::selection::{AdversarialSelection, TruncatingSelection};
    use rbqa_common::{Signature, ValueFactory};

    /// University schema and instance: 5 employees, each professor earning
    /// 10000 except one earning 20000.
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

    /// The plan of Example 1.2: ud for ids, pr per id, filter salary, return
    /// names.
    fn example_1_2_plan(vf: &mut ValueFactory) -> crate::plan::Plan {
        let salary = vf.constant("10000");
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
    fn example_1_2_plan_returns_all_names_without_bound() {
        let (schema, inst, mut vf) = setup(None);
        let plan = example_1_2_plan(&mut vf);
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        // 4 professors earn 10000.
        assert_eq!(run.output.len(), 4);
        // 1 input-free access + 5 per-id accesses.
        assert_eq!(run.accesses_performed, 6);
        assert_eq!(run.tuples_fetched, 10);
    }

    #[test]
    fn example_1_3_result_bound_makes_plan_incomplete() {
        // With a result bound of 2 on ud, the same plan misses answers, and
        // different access selections give different outputs: the plan no
        // longer answers the query.
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = example_1_2_plan(&mut vf);
        let mut first = TruncatingSelection::new();
        let run_first = execute(&plan, &schema, &inst, &mut first).unwrap();
        assert!(run_first.output.len() < 4);
        let mut second = AdversarialSelection::new();
        let run_second = execute(&plan, &schema, &inst, &mut second).unwrap();
        assert_ne!(run_first.output, run_second.output);
    }

    #[test]
    fn example_2_1_boolean_plan_is_robust_to_bounds() {
        // The plan of Examples 1.4 / 2.1: return whether Udirectory is
        // non-empty. A result bound cannot change its (Boolean) output.
        let (schema, inst, _vf) = setup(Some(1));
        let plan = PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .middleware("T0", RaExpr::project(RaExpr::table("T"), vec![]))
            .returns("T0");
        let mut t = TruncatingSelection::new();
        let mut a = AdversarialSelection::new();
        let run_t = execute(&plan, &schema, &inst, &mut t).unwrap();
        let run_a = execute(&plan, &schema, &inst, &mut a).unwrap();
        assert!(run_t.boolean_output());
        assert!(run_a.boolean_output());
        assert_eq!(run_t.output, run_a.output);

        // On an empty instance the plan returns false.
        let empty = Instance::new(schema.signature().clone());
        let mut t = TruncatingSelection::new();
        let run_empty = execute(&plan, &schema, &empty, &mut t).unwrap();
        assert!(!run_empty.boolean_output());
    }

    #[test]
    fn access_with_constant_binding() {
        // Call pr directly with a constant id taken from a singleton
        // constant relation.
        let (schema, inst, mut vf) = setup(Some(1));
        let id2 = vf.constant("id2");
        let plan = PlanBuilder::new()
            .middleware("seed", RaExpr::singleton(vec![id2]))
            .access("prof", "pr", RaExpr::table("seed"), vec![0], vec![1, 2])
            .returns("prof");
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert_eq!(run.output.len(), 1);
        assert_eq!(run.accesses_performed, 1);
        let name2 = vf.constant("name2");
        assert_eq!(run.output[0][0], name2);
    }

    #[test]
    fn tables_are_available_for_inspection() {
        let (schema, inst, mut vf) = setup(None);
        let plan = example_1_2_plan(&mut vf);
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        assert!(run.tables.contains_key("ids"));
        assert_eq!(run.tables["ids"].arity(), 1);
        assert_eq!(run.tables["ids"].len(), 5);
        assert_eq!(run.tables["profs"].len(), 5);
    }

    #[test]
    fn run_accounting_tracks_matches_and_truncation() {
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = example_1_2_plan(&mut vf);
        let mut sel = TruncatingSelection::new();
        let run = execute(&plan, &schema, &inst, &mut sel).unwrap();
        // ud matched 5 rows but returned 2 (bound), so exactly one access
        // was truncated; the per-id pr accesses are unbounded.
        assert_eq!(run.truncated_accesses, 1);
        assert!(run.tuples_matched > run.tuples_fetched);
        assert_eq!(run.calls_per_method["ud"], 1);
        assert_eq!(run.calls_per_method["pr"], 2, "one pr call per fetched id");
        assert_eq!(run.latency_micros, 0, "instance backend is local");
    }

    #[test]
    fn backend_generic_execution_matches_the_selection_path() {
        let (schema, inst, mut vf) = setup(Some(2));
        let plan = example_1_2_plan(&mut vf);
        let mut sel = TruncatingSelection::new();
        let direct = execute(&plan, &schema, &inst, &mut sel).unwrap();
        let mut backend = crate::backend::InstanceBackend::truncating(&inst);
        let via_backend = execute_with_backend(&plan, &schema, &mut backend).unwrap();
        assert_eq!(direct.output, via_backend.output);
        assert_eq!(direct.accesses_performed, via_backend.accesses_performed);
        assert_eq!(direct.tuples_fetched, via_backend.tuples_fetched);
    }

    #[test]
    fn backend_errors_surface_as_plan_errors() {
        use crate::backend::{AccessError, BudgetedBackend, InstanceBackend};
        let (schema, inst, mut vf) = setup(None);
        let plan = example_1_2_plan(&mut vf);
        let mut backend = BudgetedBackend::new(InstanceBackend::truncating(&inst), 2);
        let err = execute_with_backend(&plan, &schema, &mut backend).unwrap_err();
        assert_eq!(
            err,
            PlanError::Access(AccessError::BudgetExhausted {
                budget: 2,
                calls: 3
            })
        );
    }

    #[test]
    fn naive_policy_calls_in_plan_order() {
        // Two independent accesses, the costly listing first: the naive
        // policy must not reorder them, whatever they cost.
        use crate::backend::{InstanceBackend, RecordingBackend};
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
        let mut backend = RecordingBackend::new(InstanceBackend::truncating(&inst));
        let run = execute_with_policy(&plan, &schema, &mut backend, &mut NaivePolicy).unwrap();
        let order: Vec<&str> = backend
            .trace()
            .records
            .iter()
            .map(|r| r.method.as_str())
            .collect();
        assert_eq!(order, ["ud", "pr"]);
        assert_eq!(run.accesses_skipped, 0);
        assert_eq!(run.disjuncts_short_circuited, 0);
    }

    #[test]
    fn invalid_plan_fails_before_executing() {
        let (schema, inst, _vf) = setup(None);
        let plan = PlanBuilder::new()
            .access("T", "missing_method", RaExpr::unit(), vec![], vec![0])
            .returns("T");
        let mut sel = TruncatingSelection::new();
        assert!(execute(&plan, &schema, &inst, &mut sel).is_err());
    }
}
