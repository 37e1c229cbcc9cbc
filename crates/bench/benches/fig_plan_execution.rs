//! FIG-plan-exec: executing plans against the simulated result-bounded
//! services (Section 1 motivation).
//!
//! Measures the cost of running the Example 1.2 plan (and an existence-check
//! plan) over growing university instances, with and without result bounds,
//! counting the accesses performed along the way in the report binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbqa_access::plan::execute;
use rbqa_access::{Condition, Plan, PlanBuilder, RaExpr, TruncatingSelection};
use rbqa_common::ValueFactory;
use rbqa_engine::university_instance;
use rbqa_workloads::scenarios;

fn salary_plan(values: &mut ValueFactory) -> Plan {
    let salary = values.constant("10000");
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

fn bench_plan_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_plan_execution");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [20usize, 100, 400] {
        for bound in [None, Some(10usize)] {
            let mut scenario = scenarios::university(bound);
            let plan = salary_plan(&mut scenario.values);
            let data =
                university_instance(scenario.schema.signature(), &mut scenario.values, size, 5);
            let label = match bound {
                None => format!("unbounded/{size}"),
                Some(k) => format!("bound{k}/{size}"),
            };
            group.bench_with_input(BenchmarkId::from_parameter(label), &size, |b, _| {
                b.iter(|| {
                    let mut selection = TruncatingSelection::new();
                    execute(&plan, &scenario.schema, &data, &mut selection).expect("plan executes")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plan_execution);
criterion_main!(benches);
