//! The correctness gate: every timed response is checked against an
//! in-process expectation for its key.
//!
//! * `decide`/`synthesize`: verdict, constraint class and completeness
//!   must match `decide_monotone_answerability_union` run in this process
//!   on the same schema and the key's query. Requests of one decide-miss
//!   key differ only in a fresh selecting constant that occurs nowhere
//!   else, and renaming such a constant is an isomorphism of the whole
//!   decision problem, so one in-process decision per key covers them.
//! * `execute`: rows must equal `rbqa_logic::evaluate` of the query on
//!   the generated dataset — an oracle independent of both executors.
//! * Workloads that warm every key must answer every timed request from
//!   the cache.

use std::collections::HashMap;

use rbqa_common::{Instance, ValueFactory};
use rbqa_core::{decide_monotone_answerability_union, Answerability, AnswerabilityOptions};
use rbqa_logic::parser::parse_cq;
use rbqa_logic::{evaluate, UnionOfConjunctiveQueries};

use crate::util::Json;
use crate::workload::{CatalogSpec, Verb, Workload};

/// What a key's responses must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Verdict {
        answerable: &'static str,
        constraint_class: String,
        complete: bool,
    },
    Rows(Vec<Vec<String>>),
}

pub struct Oracle<'w> {
    workload: &'w Workload,
    data: Vec<Option<Instance>>,
    memo: HashMap<usize, Expected>,
}

/// Parses `text` (`||`-separated disjuncts) against a catalog.
fn parse_union(
    catalog: &CatalogSpec,
    text: &str,
    values: &mut ValueFactory,
) -> UnionOfConjunctiveQueries {
    let mut sig = catalog.schema.signature().clone();
    let disjuncts = text
        .split("||")
        .map(|d| parse_cq(d.trim(), &mut sig, values).expect("generated queries parse"))
        .collect();
    UnionOfConjunctiveQueries::from_disjuncts(disjuncts)
}

fn answerable_str(a: Answerability) -> &'static str {
    match a {
        Answerability::Answerable => "yes",
        Answerability::NotAnswerable => "no",
        Answerability::Unknown => "unknown",
    }
}

impl<'w> Oracle<'w> {
    pub fn new(workload: &'w Workload) -> Self {
        Oracle {
            workload,
            data: workload.catalogs.iter().map(|c| c.instance()).collect(),
            memo: HashMap::new(),
        }
    }

    pub fn expected(&mut self, key: usize) -> Expected {
        if let Some(e) = self.memo.get(&key) {
            return e.clone();
        }
        let k = &self.workload.keys[key];
        let catalog = &self.workload.catalogs[k.catalog];
        let mut values = catalog.values.clone();
        let union = parse_union(catalog, &k.query, &mut values);
        let expected = match k.verb {
            Verb::Decide | Verb::Synthesize => {
                let options = AnswerabilityOptions {
                    synthesize_plan: k.verb == Verb::Synthesize,
                    ..AnswerabilityOptions::default()
                };
                let result = decide_monotone_answerability_union(
                    &catalog.schema,
                    &union,
                    &mut values,
                    &options,
                );
                let summary = result.summary();
                Expected::Verdict {
                    answerable: answerable_str(summary.answerability),
                    constraint_class: format!("{:?}", summary.constraint_class),
                    complete: summary.complete,
                }
            }
            Verb::Execute => {
                let data = self.data[k.catalog]
                    .as_ref()
                    .expect("execute keys target catalogs with data");
                let mut rows: Vec<Vec<String>> = union
                    .disjuncts()
                    .iter()
                    .flat_map(|q| evaluate(q, data).expect("generated queries evaluate"))
                    .map(|row| row.iter().map(|v| values.display(*v)).collect())
                    .collect();
                rows.sort();
                rows.dedup();
                Expected::Rows(rows)
            }
        };
        self.memo.insert(key, expected.clone());
        expected
    }

    /// Overrides a key's expectation (used by the self-test to show that a
    /// corrupted expectation is caught).
    #[cfg(test)]
    pub fn corrupt(&mut self, key: usize, expected: Expected) {
        self.memo.insert(key, expected);
    }

    /// Checks one reply; `Err` describes the mismatch.
    pub fn check(&mut self, key: usize, reply: &str) -> Result<Json, String> {
        let json = Json::parse(reply).map_err(|e| format!("unparseable reply ({e}): {reply}"))?;
        if json.str_field("status") != Some("ok") {
            return Err(format!("error reply: {reply}"));
        }
        if self.workload.expect_hits && json.bool_field("cache_hit") != Some(true) {
            return Err(format!("expected a cache hit: {reply}"));
        }
        match self.expected(key) {
            Expected::Verdict {
                answerable,
                constraint_class,
                complete,
            } => {
                let got = (
                    json.str_field("answerable"),
                    json.str_field("constraint_class"),
                    json.bool_field("complete"),
                );
                if got
                    != (
                        Some(answerable),
                        Some(constraint_class.as_str()),
                        Some(complete),
                    )
                {
                    return Err(format!(
                        "verdict mismatch: expected {answerable}/{constraint_class}/complete={complete}, got {reply}"
                    ));
                }
            }
            Expected::Rows(rows) => match json.rows() {
                Some(got) if got == rows => {}
                Some(got) => {
                    return Err(format!(
                        "rows mismatch: expected {} rows, got {} ({})",
                        rows.len(),
                        got.len(),
                        reply.chars().take(200).collect::<String>()
                    ))
                }
                None => return Err(format!("execute reply without rows: {reply}")),
            },
        }
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Workload};

    /// Builds a reply the way the server renders it, from the expectation.
    fn honest_reply(expected: &Expected, cache_hit: bool) -> String {
        match expected {
            Expected::Verdict {
                answerable,
                constraint_class,
                complete,
            } => format!(
                r#"{{"v":1,"status":"ok","cache_hit":{cache_hit},"answerable":"{answerable}","complete":{complete},"constraint_class":"{constraint_class}","micros":5}}"#
            ),
            Expected::Rows(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let cells: Vec<String> = r.iter().map(|c| format!("\"{c}\"")).collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                format!(
                    r#"{{"v":1,"status":"ok","cache_hit":{cache_hit},"rows":[{}],"micros":5}}"#,
                    rows.join(",")
                )
            }
        }
    }

    #[test]
    fn a_corrupted_verdict_expectation_is_caught() {
        let w = Workload::build(Kind::DecideMiss, 1);
        let mut oracle = Oracle::new(&w);
        let truth = oracle.expected(0);
        let reply = honest_reply(&truth, false);
        assert!(oracle.check(0, &reply).is_ok());
        let Expected::Verdict {
            answerable,
            constraint_class,
            complete,
        } = truth
        else {
            panic!("decide keys expect verdicts");
        };
        let flipped = if answerable == "yes" { "no" } else { "yes" };
        oracle.corrupt(
            0,
            Expected::Verdict {
                answerable: flipped,
                constraint_class,
                complete,
            },
        );
        assert!(oracle.check(0, &reply).is_err());
    }

    #[test]
    fn a_corrupted_row_expectation_is_caught() {
        let w = Workload::build(Kind::ExecuteCrawl, 1);
        let mut oracle = Oracle::new(&w);
        let key = 4; // a department crawl
        let Expected::Rows(mut rows) = oracle.expected(key) else {
            panic!("execute keys expect rows");
        };
        assert!(!rows.is_empty(), "a department has members");
        let reply = honest_reply(&Expected::Rows(rows.clone()), true);
        assert!(oracle.check(key, &reply).is_ok());
        rows.pop();
        oracle.corrupt(key, Expected::Rows(rows));
        assert!(oracle.check(key, &reply).is_err());
    }

    #[test]
    fn a_miss_on_a_warmed_workload_is_caught() {
        let w = Workload::build(Kind::ExecuteCrawl, 1);
        let mut oracle = Oracle::new(&w);
        let reply = honest_reply(&oracle.expected(0), false);
        assert!(oracle.check(0, &reply).unwrap_err().contains("cache hit"));
    }
}
