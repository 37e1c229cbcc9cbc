//! In-process runs: the deterministic work-counter replay and the traced
//! run that times each crate's public entry points from outside.
//!
//! The program carries no spans of its own for these layers yet, so the
//! traced run calls the same public functions the server's request path
//! calls, one at a time, and times each call. The core steps are
//! re-run by this module after the whole decision, following the class
//! dispatch of `rbqa_core::decide_monotone_answerability`; they follow
//! changes made inside those public functions, not changes to the
//! dispatch. `*.unattributed_us` is an enclosing call minus its parts,
//! where the parts are separate calls on the same input (see
//! `perfbench/README.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rbqa_access::Schema;
use rbqa_api::{response_to_json, ServiceApi, WireServer};
use rbqa_common::{Instance, ValueFactory};
use rbqa_containment::linearization::LinearizedSchema;
use rbqa_containment::saturation::MethodSignature;
use rbqa_containment::{ContainmentOutcome, Verdict};
use rbqa_core::{
    classify_constraints, decide_monotone_answerability_union, fd_simplification,
    synthesize_crawling_plan, AmondetProblem, AnswerabilityOptions, AxiomStyle, ConstraintClass,
};
use rbqa_engine::ServiceSimulator;
use rbqa_logic::ConjunctiveQuery;
use rbqa_service::{AnswerRequest, AnswerResponse, CatalogId, QueryService, RequestMode};

use crate::util::median;
use crate::workload::{ExecConfig, Request, Verb, Workload};

/// A service set up like the server: same cache budget, every catalog and
/// dataset registered.
pub struct Mirror {
    pub service: Arc<QueryService>,
    pub ids: Vec<CatalogId>,
    /// `register_catalog` + `attach_dataset` time per catalog, µs.
    pub register_us: Vec<f64>,
}

impl Mirror {
    pub fn new(workload: &Workload) -> Mirror {
        let service = Arc::new(QueryService::new());
        service.set_cache_budget(workload.cache_bytes);
        let mut ids = Vec::new();
        let mut register_us = Vec::new();
        for catalog in &workload.catalogs {
            let data = catalog.instance();
            let started = Instant::now();
            let id = service
                .register_catalog(
                    &catalog.name,
                    catalog.schema.clone(),
                    catalog.values.clone(),
                )
                .expect("catalog names are unique");
            if let Some(data) = data {
                service
                    .attach_dataset(id, data)
                    .expect("catalog just registered");
            }
            register_us.push(started.elapsed().as_secs_f64() * 1e6);
            ids.push(id);
        }
        Mirror {
            service,
            ids,
            register_us,
        }
    }

    pub fn build(&self, workload: &Workload, request: &Request) -> AnswerRequest {
        let key = &workload.keys[request.key];
        let builder = self
            .service
            .request(self.ids[key.catalog])
            .query_text(&request.query)
            .with_exec(key.exec.to_exec_options());
        let builder = match key.verb {
            Verb::Decide => builder.decide(),
            Verb::Synthesize => builder.synthesize(),
            Verb::Execute => builder.execute(),
        };
        builder.build().expect("generated requests are valid")
    }

    pub fn submit(&self, workload: &Workload, request: &Request) -> AnswerResponse {
        self.service
            .submit(&self.build(workload, request))
            .expect("generated requests succeed")
    }
}

/// The requests the in-process runs replay: the timed streams of both
/// connections, interleaved, `per_conn` from each.
pub fn replay_order(workload: &Workload, per_conn: usize) -> Vec<Request> {
    let mut streams: Vec<_> = (0..crate::load::CONNECTIONS)
        .map(|c| workload.stream(c))
        .collect();
    let mut out = Vec::new();
    for _ in 0..per_conn {
        for s in streams.iter_mut() {
            out.push(s.next().expect("streams are endless"));
        }
    }
    out
}

/// Work counts of one single-threaded replay of warm-up plus a fixed
/// prefix of the timed streams. A fixed seed must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Chase rounds run by requests that missed the cache.
    pub chase_rounds: u64,
    pub decisions_computed: u64,
    /// Backend calls of `execute` requests.
    pub total_calls: u64,
    pub accesses_skipped: u64,
    pub evictions: u64,
}

pub fn work_counters(workload: &Workload, requests: &[Request]) -> WorkCounters {
    let mirror = Mirror::new(workload);
    let mut counters = WorkCounters::default();
    for request in workload.warmup.iter().chain(requests) {
        let response = mirror.submit(workload, request);
        if !response.cache_hit {
            counters.chase_rounds += response.summary.chase_rounds as u64;
        }
        if let Some(pm) = &response.plan_metrics {
            counters.total_calls += pm.total_calls as u64;
            counters.accesses_skipped += pm.accesses_skipped as u64;
        }
    }
    let metrics = mirror.service.metrics();
    counters.decisions_computed = metrics.decisions_computed;
    counters.evictions = metrics.cache_evictions;
    counters
}

/// Per-request timings of the traced run, µs unless noted.
#[derive(Default)]
struct Sample {
    handle_line: f64,
    /// `handle_line` with an `rbqa_obs` tracer installed.
    handle_line_traced: f64,
    build: f64,
    fingerprint: f64,
    submit: f64,
    render: f64,
    core: Option<CoreSample>,
    engine: Option<EngineSample>,
}

#[derive(Default)]
struct CoreSample {
    decide: f64,
    classify: f64,
    simplify: f64,
    amondet_build: f64,
    amondet_decide: f64,
    linearize_build: f64,
    linearized_decide: f64,
    plan_synth: f64,
    linearized: bool,
    counters: rbqa_obs::CounterSnapshot,
}

struct EngineSample {
    adaptive: bool,
    run_plans: f64,
    calls: f64,
    skipped: f64,
    fetched: f64,
    matched: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// The traced run: replays `requests` in process until `budget` runs out
/// against three mirrors set up like the server, and returns
/// `(name, value)` per-layer metrics. Two mirrors sit behind `WireServer`
/// sessions, one run without and one with an `rbqa_obs` tracer installed;
/// the third is driven through the builder and service directly. All
/// three see the same registrations and the same single-threaded request
/// sequence, so their caches stay in lockstep and a request hits or
/// misses in each alike.
pub fn traced_run(
    workload: &Workload,
    requests: &[Request],
    budget: Duration,
) -> (Vec<(&'static str, f64)>, usize) {
    let wire_mirror = Mirror::new(workload);
    let traced_mirror = Mirror::new(workload);
    let direct = Mirror::new(workload);
    let mut sessions = [&wire_mirror, &traced_mirror]
        .map(|m| WireServer::with_shared_service(Arc::clone(&m.service)));
    for session in sessions.iter_mut() {
        session.handle_line("rbqa/1");
    }
    let mut session_exec = ExecConfig::DEFAULT;
    let mut switch_exec = |sessions: &mut [WireServer; 2], request: &Request| {
        let key = &workload.keys[request.key];
        if key.verb == Verb::Execute && key.exec != session_exec {
            for session in sessions.iter_mut() {
                session.handle_stream(&key.exec.option_lines());
            }
            session_exec = key.exec;
        }
    };
    for request in &workload.warmup {
        switch_exec(&mut sessions, request);
        for session in sessions.iter_mut() {
            session.handle_line(&workload.request_line(request));
        }
        direct.submit(workload, request);
    }
    let renders: Vec<ValueFactory> = direct
        .ids
        .iter()
        .map(|id| direct.service.catalog_values(*id).expect("registered"))
        .collect();
    let simulators: Vec<Option<ServiceSimulator>> = workload
        .catalogs
        .iter()
        .map(|c| {
            c.instance()
                .map(|data: Instance| ServiceSimulator::new(c.schema.clone(), data))
        })
        .collect();

    let started = Instant::now();
    let mut samples = Vec::new();
    for request in requests {
        if started.elapsed() >= budget && !samples.is_empty() {
            break;
        }
        let key = &workload.keys[request.key];
        switch_exec(&mut sessions, request);
        let line = workload.request_line(request);
        let [session, traced_session] = &mut sessions;
        let mut plain = || {
            let (reply, t) = timed(|| session.handle_line(&line));
            reply.expect("requests always answer");
            t
        };
        let mut traced = || {
            rbqa_obs::install(rbqa_obs::Tracer::new());
            let (reply, t) = timed(|| traced_session.handle_line(&line));
            rbqa_obs::uninstall();
            reply.expect("requests always answer");
            t
        };
        // Alternate which of the pair runs first, so that neither always
        // finds the caches the other warmed.
        let (handle_line, handle_line_traced) = if samples.len() % 2 == 0 {
            let t = plain();
            (t, traced())
        } else {
            let t = traced();
            (plain(), t)
        };

        let (built, build) = timed(|| direct.build(workload, request));
        let (_, fingerprint) = timed(|| direct.service.fingerprint_of(&built));
        let (response, submit) = timed(|| direct.service.submit(&built));
        let response = response.expect("generated requests succeed");
        let mode = match key.verb {
            Verb::Decide => RequestMode::Decide,
            Verb::Synthesize => RequestMode::Synthesize,
            Verb::Execute => RequestMode::Execute,
        };
        let catalog = &workload.catalogs[key.catalog];
        let (_, render) =
            timed(|| response_to_json(&response, mode, &catalog.name, &renders[key.catalog]));

        let core = (!response.cache_hit && built.query.len() == 1)
            .then(|| core_sample(&catalog.schema, &built));
        let engine = simulators[key.catalog]
            .as_ref()
            .filter(|_| key.verb == Verb::Execute)
            .map(|sim| engine_sample(sim, &response, &built));
        samples.push(Sample {
            handle_line,
            handle_line_traced,
            build,
            fingerprint,
            submit,
            render,
            core,
            engine,
        });
    }
    let register_us: f64 = direct.register_us.iter().sum();
    (layer_metrics(&samples, register_us), samples.len())
}

fn method_signatures(schema: &Schema) -> Vec<MethodSignature> {
    schema
        .methods()
        .iter()
        .map(|m| {
            MethodSignature::new(
                m.relation(),
                &m.input_positions_vec(),
                m.is_result_bounded(),
            )
        })
        .collect()
}

/// Times the decision of a single-CQ request as a whole, then step by
/// step, following the class dispatch of
/// `rbqa_core::decide_monotone_answerability`.
fn core_sample(schema: &Schema, request: &AnswerRequest) -> CoreSample {
    let options: AnswerabilityOptions = request.effective_options();
    let query: &ConjunctiveQuery = &request.query.disjuncts()[0];
    let mut s = CoreSample::default();

    let mut values = request.values.clone();
    let (_, decide) = timed(|| {
        decide_monotone_answerability_union(schema, &request.query, &mut values, &options)
    });
    s.decide = decide;

    // Counters come from a second, traced decision so that the tracer's
    // cost stays out of the timing above.
    let mut values = request.values.clone();
    rbqa_obs::install(rbqa_obs::Tracer::new());
    decide_monotone_answerability_union(schema, &request.query, &mut values, &options);
    s.counters = rbqa_obs::uninstall()
        .map(|t| t.counters)
        .unwrap_or_default();

    let mut values = request.values.clone();
    let config = options.chase_config();
    let (class, t) = timed(|| classify_constraints(schema.constraints()));
    s.classify = t;
    let (lb, t) = timed(|| schema.eliminate_upper_bounds());
    s.simplify = t;
    let outcome: ContainmentOutcome = match class {
        ConstraintClass::NoConstraints | ConstraintClass::IdsOnly { .. } => {
            s.linearized = true;
            let ids = lb.constraints().tgds().to_vec();
            let width = lb.constraints().max_id_width();
            let (lin, t) = timed(|| {
                LinearizedSchema::build(lb.signature(), &ids, &method_signatures(&lb), width)
            });
            s.linearize_build = t;
            let (out, t) = timed(|| lin.decide(query, query, &mut values, config));
            s.linearized_decide = t;
            out
        }
        other => {
            let (simplified, style) = match other {
                ConstraintClass::FdsOnly => {
                    let (simplified, t) = timed(|| fd_simplification(&lb));
                    s.simplify += t;
                    (simplified, AxiomStyle::Simplified)
                }
                ConstraintClass::UidsAndFds => {
                    let (simplified, t) = timed(|| lb.choice_simplification());
                    s.simplify += t;
                    (simplified, AxiomStyle::SeparabilityRewriting)
                }
                _ => {
                    let (simplified, t) = timed(|| lb.choice_simplification());
                    s.simplify += t;
                    (simplified, AxiomStyle::Simplified)
                }
            };
            let (problem, t) =
                timed(|| AmondetProblem::build(&simplified, query, &mut values, style));
            s.amondet_build = t;
            let (out, t) = timed(|| problem.decide(&mut values, config));
            s.amondet_decide = t;
            out
        }
    };
    if options.synthesize_plan && outcome.verdict == Verdict::Holds {
        let rounds = if options.crawl_rounds > 0 {
            options.crawl_rounds
        } else {
            (outcome.chase_stats.max_depth_reached + 1).max(2)
        };
        let (_, t) = timed(|| synthesize_crawling_plan(schema, query, rounds));
        s.plan_synth = t;
    }
    s
}

fn engine_sample(
    sim: &ServiceSimulator,
    response: &AnswerResponse,
    request: &AnswerRequest,
) -> EngineSample {
    let plans: Vec<&rbqa_access::Plan> = response.plans.iter().map(|p| p.as_ref()).collect();
    let (runs, run_plans) = timed(|| sim.run_plans_exec_results(&plans, &request.exec));
    let mut e = EngineSample {
        adaptive: request.exec.adaptive != rbqa_service::AdaptiveMode::Off,
        run_plans,
        calls: 0.0,
        skipped: 0.0,
        fetched: 0.0,
        matched: 0.0,
    };
    for (_, pm) in runs.expect("plans run").into_iter().flatten() {
        e.calls += pm.total_calls as f64;
        e.skipped += pm.accesses_skipped as f64;
        e.fetched += pm.tuples_fetched as f64;
        e.matched += pm.tuples_matched as f64;
    }
    e
}

/// Median of `f` over the samples where it is defined; 0 when none is.
fn med<T>(items: &[T], f: impl Fn(&T) -> Option<f64>) -> f64 {
    let values: Vec<f64> = items.iter().filter_map(f).collect();
    median(&values)
}

fn layer_metrics(samples: &[Sample], register_us: f64) -> Vec<(&'static str, f64)> {
    let core: Vec<&CoreSample> = samples.iter().filter_map(|s| s.core.as_ref()).collect();
    let engine: Vec<&EngineSample> = samples.iter().filter_map(|s| s.engine.as_ref()).collect();
    let c = |f: fn(&CoreSample) -> f64| med(&core, |s| Some(f(s)));
    let lin = |f: fn(&CoreSample) -> f64| med(&core, |s| s.linearized.then(|| f(s)));
    let e = |f: fn(&EngineSample) -> Option<f64>| med(&engine, |s| f(s));
    vec![
        ("api.handle_line_us", med(samples, |s| Some(s.handle_line))),
        ("trace.overhead_pct", trace_overhead_pct(samples)),
        ("api.build_us", med(samples, |s| Some(s.build))),
        ("api.render_us", med(samples, |s| Some(s.render))),
        (
            "api.unattributed_us",
            med(samples, |s| {
                Some(s.handle_line - s.build - s.submit - s.render)
            }),
        ),
        (
            "service.fingerprint_us",
            med(samples, |s| Some(s.fingerprint)),
        ),
        ("service.submit_us", med(samples, |s| Some(s.submit))),
        ("service.register_us", register_us),
        ("core.decide_us", c(|s| s.decide)),
        ("core.classify_us", c(|s| s.classify)),
        ("core.simplify_us", c(|s| s.simplify)),
        (
            "core.amondet_build_us",
            med(&core, |s| (!s.linearized).then_some(s.amondet_build)),
        ),
        (
            "core.amondet_decide_us",
            med(&core, |s| (!s.linearized).then_some(s.amondet_decide)),
        ),
        (
            "core.plan_synth_us",
            med(&core, |s| (s.plan_synth > 0.0).then_some(s.plan_synth)),
        ),
        (
            "core.unattributed_us",
            c(|s| {
                s.decide
                    - s.classify
                    - s.simplify
                    - s.amondet_build
                    - s.amondet_decide
                    - s.linearize_build
                    - s.linearized_decide
                    - s.plan_synth
            }),
        ),
        ("containment.linearize_build_us", lin(|s| s.linearize_build)),
        (
            "containment.linearized_decide_us",
            lin(|s| s.linearized_decide),
        ),
        ("chase.rounds", c(|s| s.counters.chase_rounds as f64)),
        (
            "chase.trigger_firings",
            c(|s| s.counters.trigger_firings as f64),
        ),
        ("chase.fd_passes", c(|s| s.counters.fd_passes as f64)),
        (
            "logic.posting_probes",
            c(|s| s.counters.posting_probes as f64),
        ),
        ("logic.backtracks", c(|s| s.counters.backtracks as f64)),
        ("engine.run_plans_us", e(|s| Some(s.run_plans))),
        ("access.calls_per_request", e(|s| Some(s.calls))),
        (
            "access.us_per_call",
            e(|s| (s.calls > 0.0).then(|| s.run_plans / s.calls)),
        ),
        (
            "access.match_ratio",
            e(|s| (s.fetched > 0.0).then(|| s.matched / s.fetched)),
        ),
        ("adapt.skip_ratio", skip_ratio(&engine)),
    ]
}

/// Accesses skipped ÷ (calls + skipped), summed over the adaptive
/// requests: naive requests never skip, so they would only dilute it.
fn skip_ratio(engine: &[&EngineSample]) -> f64 {
    let (skipped, total) = engine
        .iter()
        .filter(|s| s.adaptive)
        .fold((0.0, 0.0), |(k, t), s| {
            (k + s.skipped, t + s.calls + s.skipped)
        });
    if total > 0.0 {
        skipped / total
    } else {
        0.0
    }
}

/// How much slower `WireServer::handle_line` runs with an `rbqa_obs`
/// tracer installed, as a % of the untraced median.
fn trace_overhead_pct(samples: &[Sample]) -> f64 {
    let plain = med(samples, |s| Some(s.handle_line));
    let traced = med(samples, |s| Some(s.handle_line_traced));
    if plain > 0.0 {
        (traced - plain) / plain * 100.0
    } else {
        0.0
    }
}
