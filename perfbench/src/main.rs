//! `rbqa-perfbench` — the repository benchmark.
//!
//! Drives a real `rbqa-serve --listen` over loopback TCP with a closed
//! loop of two synchronous rbqa/1 sessions, checks every response, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! an in-process traced run (`--trace 1`). The last stdout line is the
//! result object; the line before it is the full report. See
//! `perfbench/README.md`.
//!
//! ```sh
//! python3 perfbench/run.py --workload decide-miss --seed 1 --seconds 20 --trace 0
//! ```

mod check;
mod load;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use check::Oracle;
use util::{json_num, json_str, median, quantile, tail_percentile, Json};
use workload::{Kind, Workload};

/// A seed no tuning run uses; a later claim is confirmed on it.
const HELD_OUT_SEED: u64 = 9973;

/// Progress on stderr, stamped with the time since start.
fn note(msg: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!("[perfbench {:7.2}s] {msg}", start.elapsed().as_secs_f64());
}

/// Timed requests per connection that the work-counter replay covers:
/// enough on decide-miss for the cache budget to evict.
fn work_prefix(kind: Kind) -> usize {
    match kind {
        Kind::DecideMiss => 100,
        Kind::ExecuteCrawl => 20,
    }
}

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    rev: String,
    rustc: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        rev: "unknown".to_owned(),
        rustc: "unknown".to_owned(),
        source_digest: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    vec![Kind::DecideMiss, Kind::ExecuteCrawl]
                } else {
                    vec![Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--server" => args.server = PathBuf::from(value()?),
            "--rev" => args.rev = value()?,
            "--rustc" => args.rustc = value()?,
            "--source-digest" => args.source_digest = value()?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if !args.server.is_file() {
        return Err(format!(
            "server binary `{}` not found",
            args.server.display()
        ));
    }
    Ok(args)
}

/// Time slices of the timed phase, each on a server of its own.
const SLICES: usize = 4;

/// Set-ups thrown away before each slice's own set-up; `setup_s` is the
/// median of every set-up. Decide-miss sets up in ≈50 ms, so it takes
/// more of them.
fn extra_setups(kind: Kind) -> usize {
    match kind {
        Kind::DecideMiss => 3,
        Kind::ExecuteCrawl => 0,
    }
}

/// Everything one workload run measured.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: String,
}

fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let workload = Workload::build(kind, args.seed);
    let directives: String = workload.catalogs.iter().map(|c| c.directives()).collect();
    note(&format!(
        "{}: {} catalogs, {} keys generated",
        kind.name(),
        workload.catalogs.len(),
        workload.keys.len()
    ));

    let mut setup_times = Vec::new();
    let mut spawn_times = Vec::new();
    let mut set_up = |keep: bool| -> Result<Option<load::Ready>, String> {
        let r = load::set_up(&args.server, &workload, &directives)?;
        if let Some(e) = r.warmup_errors.first() {
            return Err(format!("warm-up request failed: {e}"));
        }
        setup_times.push(r.setup_s);
        spawn_times.push(r.spawn_s);
        note(&format!(
            "set-up {} took {:.3} s ({:.3} s to listening)",
            setup_times.len(),
            r.setup_s,
            r.spawn_s
        ));
        if keep {
            return Ok(Some(r));
        }
        r.conns.into_iter().for_each(load::Conn::close);
        r.server.shutdown()?;
        Ok(None)
    };
    // The timed phase runs in slices spread over the run, each on a fresh
    // server, so that neither one slow spell of the host nor one server
    // process sets the figures. The request streams continue across the
    // slices.
    let mut streams: Vec<_> = (0..load::CONNECTIONS).map(|c| workload.stream(c)).collect();
    let mut samples = Vec::new();
    let mut elapsed = 0.0;
    let mut rss_kib = 0;
    let mut stats = String::new();
    for slice in 0..SLICES {
        for _ in 0..extra_setups(kind) {
            set_up(false)?;
        }
        let ready = set_up(true)?.expect("a kept set-up");
        let (mut conns, slice_samples, slice_elapsed) = load::timed_phase(
            &workload,
            ready.conns,
            &mut streams,
            args.seconds / SLICES as f64,
        );
        stats = conns[0].roundtrip("stats\n").unwrap_or_default();
        rss_kib = rss_kib.max(ready.server.peak_rss_kib().unwrap_or(0));
        conns.into_iter().for_each(load::Conn::close);
        ready.server.shutdown()?;
        samples.extend(slice_samples);
        elapsed += slice_elapsed;
        note(&format!("timed slice {} done", slice + 1));
    }

    // The correctness gate.
    let mut oracle = Oracle::new(&workload);
    let mut attempted = 0;
    let mut errors: Vec<String> = Vec::new();
    let mut rtts = Vec::new();
    let mut gaps = Vec::new();
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); workload.classes.len()];
    for sample in &samples {
        attempted += 1;
        let checked = match &sample.reply {
            Ok(reply) => oracle.check(sample.request.key, reply),
            Err(e) => Err(format!("transport: {e}")),
        };
        match checked {
            Ok(json) => {
                let micros = json.num_field("micros").unwrap_or(0.0);
                rtts.push(sample.rtt_us);
                gaps.push(sample.rtt_us - micros);
                per_class[workload.keys[sample.request.key].class].push(sample.rtt_us);
            }
            Err(e) => errors.push(e),
        }
    }
    let failed = errors.len();
    let correct = failed == 0 && attempted > 0;
    note(&format!("checked {attempted} replies, {failed} failed"));

    // Deterministic work counters, replayed twice.
    let prefix = trace::replay_order(&workload, work_prefix(kind));
    let (work, again) = std::thread::scope(|scope| {
        let first = scope.spawn(|| trace::work_counters(&workload, &prefix));
        let again = trace::work_counters(&workload, &prefix);
        (first.join().expect("replay thread panicked"), again)
    });
    let work_repeated = work == again;
    note("work counters replayed twice");

    let stats_json = Json::parse(&stats).ok();
    let stat = |path: &[&str]| -> f64 {
        let mut node = stats_json.as_ref().and_then(|j| j.get("stats"));
        for p in path {
            node = node.and_then(|n| n.get(p));
        }
        match node {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        }
    };

    let e2e: Vec<(&'static str, f64, &'static str)> = vec![
        ("rps", rtts.len() as f64 / elapsed, "req/s"),
        ("p50_us", quantile(&rtts, 0.5), "us"),
        ("p95_us", quantile(&rtts, 0.95), "us"),
        ("setup_s", median(&setup_times), "s"),
        ("rss_mb", rss_kib as f64 / 1024.0, "MiB"),
    ];
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };

    let mut per_layer: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut traced_requests = 0;
    if args.trace {
        let requests = trace::replay_order(&workload, 4_000);
        let budget = Duration::from_secs_f64(args.seconds.min(10.0));
        let (layers, n) = trace::traced_run(&workload, &requests, budget);
        traced_requests = n;
        note(&format!("traced run replayed {n} requests"));
        for (name, value) in layers {
            per_layer.push((name, value, unit_of(name)));
        }
        per_layer.push(("net.rtt_minus_service_us", median(&gaps), "us"));
        per_layer.push(("service.hit_ratio", stat(&["hit_ratio"]), "ratio"));
        per_layer.push((
            "service.decisions_computed",
            stat(&["decisions_computed"]),
            "count",
        ));
        per_layer.push(("service.evictions", stat(&["cache", "evictions"]), "count"));
        per_layer.push((
            "service.occupancy_bytes",
            stat(&["cache", "occupancy_bytes"]),
            "bytes",
        ));
        per_layer.push(("work.chase_rounds", work.chase_rounds as f64, "count"));
        per_layer.push((
            "work.decisions_computed",
            work.decisions_computed as f64,
            "count",
        ));
        per_layer.push(("work.total_calls", work.total_calls as f64, "count"));
        per_layer.push((
            "work.accesses_skipped",
            work.accesses_skipped as f64,
            "count",
        ));
        per_layer.push(("work.evictions", work.evictions as f64, "count"));
    }
    let correct = correct && work_repeated;

    let metrics = if args.trace {
        per_layer.clone()
    } else {
        e2e.clone()
    };
    let report = report_json(ReportParts {
        args,
        workload: &workload,
        e2e: &e2e,
        per_layer: &per_layer,
        error_rate,
        rtts: &rtts,
        setup_times: &setup_times,
        spawn_times: &spawn_times,
        per_class: &per_class,
        work,
        work_repeated,
        stats: &stats,
        errors: &errors,
        traced_requests,
    });
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
    })
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") || name.ends_with("us_per_call") {
        "us"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

struct ReportParts<'a> {
    args: &'a Args,
    workload: &'a Workload,
    e2e: &'a [(&'static str, f64, &'static str)],
    per_layer: &'a [(&'static str, f64, &'static str)],
    error_rate: f64,
    rtts: &'a [f64],
    setup_times: &'a [f64],
    spawn_times: &'a [f64],
    per_class: &'a [Vec<f64>],
    work: trace::WorkCounters,
    work_repeated: bool,
    stats: &'a str,
    errors: &'a [String],
    traced_requests: usize,
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn report_json(p: ReportParts<'_>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (tail_label, tail_value, tail_beyond) = tail_percentile(p.rtts);
    let classes: Vec<String> = p
        .workload
        .classes
        .iter()
        .zip(p.per_class)
        .map(|(label, rtts)| {
            format!(
                "{{\"class\":{},\"requests\":{},\"p50_us\":{},\"p95_us\":{}}}",
                json_str(label),
                rtts.len(),
                json_num(quantile(rtts, 0.5)),
                json_num(quantile(rtts, 0.95))
            )
        })
        .collect();
    let errors: Vec<String> = p.errors.iter().take(5).map(|e| json_str(e)).collect();
    let w = p.work;
    format!(
        concat!(
            "{{\"report\":{{\"workload\":{},",
            "\"provenance\":{{\"git_rev\":{},\"source_digest\":{},\"rustc\":{},\"nproc\":{},",
            "\"seed\":{},\"held_out_seed\":{},\"run_seconds\":{},\"connections\":{},",
            "\"server_workers\":{},\"setups\":{},\"timed_slices\":{},\"loop\":\"closed\"}},",
            "\"end_to_end\":{},\"error_rate\":{},",
            "\"samples\":{{\"latency\":{},\"setup\":{},\"traced_requests\":{}}},",
            "\"setups_s\":{{\"each\":[{}],\"to_listening_median\":{}}},",
            "\"tail\":{{\"percentile\":{},\"value_us\":{},\"samples_beyond\":{}}},",
            "\"classes\":[{}],",
            "\"work_counters\":{{\"chase_rounds\":{},\"decisions_computed\":{},\"total_calls\":{},",
            "\"accesses_skipped\":{},\"evictions\":{},\"repeated\":{},\"prefix_per_connection\":{}}},",
            "\"per_layer\":{},\"server_stats\":{},\"errors\":[{}]}}}}"
        ),
        json_str(p.workload.kind.name()),
        json_str(&p.args.rev),
        json_str(&p.args.source_digest),
        json_str(&p.args.rustc),
        nproc,
        p.workload.seed,
        HELD_OUT_SEED,
        json_num(p.args.seconds),
        load::CONNECTIONS,
        load::WORKERS,
        p.setup_times.len(),
        SLICES,
        metrics_json(p.e2e),
        json_num(p.error_rate),
        p.rtts.len(),
        p.setup_times.len(),
        p.traced_requests,
        p.setup_times.iter().map(|t| json_num(*t)).collect::<Vec<_>>().join(","),
        json_num(median(p.spawn_times)),
        json_str(tail_label),
        json_num(tail_value),
        tail_beyond,
        classes.join(","),
        w.chase_rounds,
        w.decisions_computed,
        w.total_calls,
        w.accesses_skipped,
        w.evictions,
        p.work_repeated,
        work_prefix(p.workload.kind),
        metrics_json(p.per_layer),
        if p.stats.starts_with('{') { p.stats } else { "null" },
        errors.join(","),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rbqa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &kind in &args.workloads {
        let outcome = match run(&args, kind) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("rbqa-perfbench: {}: {e}", kind.name());
                return ExitCode::from(2);
            }
        };
        all_correct &= outcome.correct;
        for (name, value, unit) in &outcome.metrics {
            eprintln!("{:<10} {name:<36} {value:>14.4} {unit}", kind.name());
        }
        println!("{}", outcome.report);
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            metrics_json(&outcome.metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
