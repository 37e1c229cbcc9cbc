//! The full university-directory walk-through: decide answerability,
//! synthesise a plan, execute it against simulated services, and check the
//! answers are complete — covering Examples 1.1–1.5 and 2.1 of the paper.
//!
//! Run with: `cargo run --example university_directory`

use rbqa::access::plan::execute;
use rbqa::access::{AdversarialSelection, TruncatingSelection};
use rbqa::core::{decide_monotone_answerability, Answerability, AnswerabilityOptions};
use rbqa::engine::{university_instance, validate_plan};
use rbqa::logic::evaluate;
use rbqa::workloads::scenarios;

fn main() {
    // --- Example 1.2: no result bound, Q1 is answerable and we can run the
    //     synthesised plan end to end. ---------------------------------------
    let mut scenario = scenarios::university(None);
    println!("Scenario: {}", scenario.name);
    let q1 = scenario.query("Q1_salary_names").unwrap().clone();

    let options = AnswerabilityOptions {
        synthesize_plan: true,
        crawl_rounds: 2,
        ..Default::default()
    };
    let result =
        decide_monotone_answerability(&scenario.schema, &q1, &mut scenario.values, &options);
    println!(
        "Q1 (names of professors earning 10000): {:?} via {:?}",
        result.answerability, result.strategy
    );
    let plan = result
        .plan
        .expect("Q1 is answerable, so a plan is synthesised");
    println!(
        "Synthesised crawling plan: {} commands, {} access commands",
        plan.commands().len(),
        plan.access_command_count()
    );

    // Generate data, expose it only through the services, run the plan.
    let data = university_instance(scenario.schema.signature(), &mut scenario.values, 30, 42);
    let expected = evaluate(&q1, &data).expect("example query is safe");
    let mut selection = TruncatingSelection::new();
    let run = execute(&plan, &scenario.schema, &data, &mut selection).unwrap();
    println!(
        "Plan output: {} names ({} expected), {} service calls, {} tuples fetched",
        run.output.len(),
        expected.len(),
        run.accesses_performed,
        run.tuples_fetched
    );
    assert_eq!(run.output, expected, "the plan returns the complete answer");

    // The validation harness tries several access selections.
    let report = validate_plan(&scenario.schema, &plan, &q1, &[data], 3);
    println!(
        "Validation over multiple access selections: valid = {}\n",
        report.is_valid()
    );

    // --- Example 1.3 / 1.4: with a result bound of 100 on ud, Q1 stops being
    //     answerable but the existence check Q2 survives. --------------------
    let mut bounded = scenarios::university(Some(100));
    println!("Scenario: {}", bounded.name);
    for (label, name) in [("Q1", "Q1_salary_names"), ("Q2", "Q2_directory_nonempty")] {
        let query = bounded.query(name).unwrap().clone();
        let result = decide_monotone_answerability(
            &bounded.schema,
            &query,
            &mut bounded.values,
            &AnswerabilityOptions::default(),
        );
        println!("  {label}: {:?}", result.answerability);
    }

    // The plan of Example 2.1 for Q2 returns the same (Boolean) output no
    // matter which valid access selection the bounded service uses.
    let mut fd_scenario = scenarios::university_fd();
    println!("\nScenario: {}", fd_scenario.name);
    let q3 = fd_scenario.query("Q3_address_of_id").unwrap().clone();
    let result = decide_monotone_answerability(
        &fd_scenario.schema,
        &q3,
        &mut fd_scenario.values,
        &AnswerabilityOptions::default(),
    );
    println!(
        "  Q3 (does id 12345 live on mainst?): {:?} — the FD id → address makes the single \
         returned row authoritative (Example 1.5)",
        result.answerability
    );
    assert_eq!(result.answerability, Answerability::Answerable);

    let q3b = fd_scenario.query("Q3b_phone_of_id").unwrap().clone();
    let result = decide_monotone_answerability(
        &fd_scenario.schema,
        &q3b,
        &mut fd_scenario.values,
        &AnswerabilityOptions::default(),
    );
    println!(
        "  Q3b (does id 12345 have phone 5550100?): {:?} — phone numbers are not determined",
        result.answerability
    );
    assert_eq!(result.answerability, Answerability::NotAnswerable);

    // Different access selections really do return different rows for a
    // bounded access — which is why Q1 fails under the bound.
    let mut bounded2 = scenarios::university(Some(2));
    let data = university_instance(bounded2.schema.signature(), &mut bounded2.values, 10, 7);
    let plan = {
        use rbqa::access::{PlanBuilder, RaExpr};
        PlanBuilder::new()
            .access("T", "ud", RaExpr::unit(), vec![], vec![0, 1, 2])
            .returns("T")
    };
    let mut first = TruncatingSelection::new();
    let mut second = AdversarialSelection::new();
    let rows_a = execute(&plan, &bounded2.schema, &data, &mut first)
        .unwrap()
        .output;
    let rows_b = execute(&plan, &bounded2.schema, &data, &mut second)
        .unwrap()
        .output;
    println!(
        "\nBounded listing returned {} rows under one selection and {} (different) rows under \
         another: {}",
        rows_a.len(),
        rows_b.len(),
        rows_a != rows_b
    );
}
