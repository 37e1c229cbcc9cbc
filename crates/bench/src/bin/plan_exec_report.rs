//! FIG-plan-exec report: executes synthesised plans against the simulated
//! web services and reports completeness and access costs, reproducing the
//! motivation of Section 1 (complete answers despite result-bounded
//! interfaces, bounded data transferred).
//!
//! Run with `cargo run --release -p rbqa-bench --bin plan_exec_report`.

use rbqa_access::plan::execute;
use rbqa_access::TruncatingSelection;
use rbqa_core::{decide_monotone_answerability, AnswerabilityOptions};
use rbqa_engine::{university_instance, validate_plan};
use rbqa_logic::evaluate;
use rbqa_workloads::scenarios;

fn main() {
    println!("FIG-plan-exec: plan execution over simulated result-bounded services\n");
    println!(
        "{:<12} {:<28} {:<12} {:<10} {:<10} {:<12} {:<10}",
        "instance", "query", "answerable", "calls", "tuples", "output", "complete"
    );
    println!("{}", "-".repeat(100));

    for size in [10usize, 50, 200] {
        // The university scenario without a bound on ud: Q1 is answerable and
        // the synthesised plan must return complete answers.
        let mut scenario = scenarios::university(None);
        let query = scenario.query("Q1_salary_names").unwrap().clone();
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            crawl_rounds: 2,
            ..Default::default()
        };
        let result =
            decide_monotone_answerability(&scenario.schema, &query, &mut scenario.values, &options);
        let plan = match &result.plan {
            Some(p) => p.clone(),
            None => {
                println!("no plan synthesised for Q1 (unexpected)");
                continue;
            }
        };
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, size, 7);
        let expected = evaluate(&query, &data).expect("benchmark queries are safe");
        let mut selection = TruncatingSelection::new();
        let run = execute(&plan, &scenario.schema, &data, &mut selection).expect("plan executes");
        let complete = run.output == expected;
        println!(
            "{:<12} {:<28} {:<12} {:<10} {:<10} {:<12} {:<10}",
            format!("univ-{size}"),
            "Q1_salary_names",
            format!("{:?}", result.answerability),
            run.accesses_performed,
            run.tuples_fetched,
            run.output.len(),
            complete
        );

        // Cross-check with the validation harness under several selections.
        let report = validate_plan(&scenario.schema, &plan, &query, &[data], 2);
        if !report.is_valid() {
            println!("  validation found a discrepancy: {:?}", report.discrepancy);
        }
    }

    println!();
    println!("Existence-check query under a result bound (Example 1.4 shape):");
    for bound in [1usize, 10, 100] {
        let mut scenario = scenarios::university(Some(bound));
        let query = scenario.query("Q2_directory_nonempty").unwrap().clone();
        let options = AnswerabilityOptions {
            synthesize_plan: true,
            crawl_rounds: 1,
            ..Default::default()
        };
        let result =
            decide_monotone_answerability(&scenario.schema, &query, &mut scenario.values, &options);
        let Some(plan) = result.plan.clone() else {
            println!("  bound {bound}: no plan synthesised");
            continue;
        };
        let data = university_instance(scenario.schema.signature(), &mut scenario.values, 100, 3);
        let mut selection = TruncatingSelection::new();
        let run = execute(&plan, &scenario.schema, &data, &mut selection).expect("plan executes");
        let expected = evaluate(&query, &data).expect("benchmark queries are safe");
        println!(
            "  bound {:>4}: answerable={:?}, calls={}, tuples fetched={}, boolean output matches={}",
            bound,
            result.answerability,
            run.accesses_performed,
            run.tuples_fetched,
            run.output.is_empty() == expected.is_empty()
        );
    }
}
