//! Layer-attributed end-to-end benchmark of the desktop-grid scheduling
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|gap|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run re-drives one traced pass of the
//! workload (spans around each layer's public calls), checks the outputs,
//! and measures untraced passes in a child process for `--seconds`. With
//! `--trace 0` the last line of standard output is a JSON object carrying
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of the traced passes, and the spans of the last traced pass are
//! written to `.perfbench_traces/`. End-to-end times are scaled to a
//! reference host speed (see `host`). See `perfbench/README.md`.

mod campaign;
mod host;
mod layers;
mod serve;
mod stats;
mod sys;
mod trace;

use campaign::{golden_check, setup_once, traced_pass, untraced_pass, Kind, Outputs, Slice};
use stats::{median, quantile, quantile_u64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["table1", "gap", "serve"];

/// End-to-end metrics (untraced runs), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs), with their units.
const PER_LAYER: [(&str, &str); 47] = [
    ("process.peak_rss_mb", "MB"),
    ("host.speed_factor", "ratio"),
    ("availability.calls", "count"),
    ("availability.self_s", "s"),
    ("availability.realizations", "count"),
    ("engine.self_s", "s"),
    ("engine.executed_slots", "count"),
    ("engine.simulated_slots", "count"),
    ("heuristics.decide_calls", "count"),
    ("heuristics.reconfigurations", "count"),
    ("heuristics.reconfig_ratio", "ratio"),
    ("heuristics.decide_s", "s"),
    ("heuristics.decide_us_p50", "us"),
    ("heuristics.decide_us_p99", "us"),
    ("heuristics.decide_speedup_2t", "ratio"),
    ("analysis.lookups", "count"),
    ("analysis.lookups_per_decide", "ratio"),
    ("analysis.hit_ratio", "ratio"),
    ("analysis.group_misses", "count"),
    ("analysis.series_terms", "count"),
    ("analysis.accumulators_built", "count"),
    ("analysis.accumulators_per_miss", "ratio"),
    ("offline.project_s", "s"),
    ("offline.oracle_s", "s"),
    ("offline.trials_projected", "count"),
    ("offline.exact_trials", "count"),
    ("offline.greedy_trials", "count"),
    ("executor.self_s", "s"),
    ("executor.instances", "count"),
    ("store.bytes_written", "bytes"),
    ("store.encode_s", "s"),
    ("store.write_s", "s"),
    ("platform.scenarios", "count"),
    ("platform.setup_s", "s"),
    ("service.requests", "count"),
    ("service.parse_s", "s"),
    ("service.decide_s", "s"),
    ("service.render_s", "s"),
    ("service.online_s", "s"),
    ("service.dispatch_s", "s"),
    ("service.lookups_per_request", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_passes", "count"),
    ("trace.untraced_passes", "count"),
];

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 101;
/// Alternated 1- and 2-decision-thread runs of table1's first job behind
/// `heuristics.decide_speedup_2t` (the ratio of their medians).
const SPEEDUP_REPS: usize = 7;
/// Fewest untraced passes a run measures, however long they take.
const MIN_PASSES: usize = 2;
/// Least time between two host calibrations of a `serve` run (a campaign
/// pass is longer, so campaigns calibrate after every pass).
const CALIBRATION_INTERVAL: Duration = Duration::from_millis(250);
/// Directory (under the working directory) for stores and child reports.
const WORK_DIR: &str = ".perfbench_work";
/// Directory the spans of traced runs are written to.
const TRACE_DIR: &str = ".perfbench_traces";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    role: Option<String>,
    work: Option<PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        role: None,
        work: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--role" => args.role = Some(value()?),
            "--work" => args.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.role.as_deref() != Some("serve") && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.role.as_deref() {
        Some("timed") => timed_role(&args).map(|()| None),
        Some("serve") => {
            let work = args.work.clone().unwrap_or_else(|| PathBuf::from(WORK_DIR));
            serve::serve_role(args.seed, args.trace, &work).map(|()| None)
        }
        Some(other) => Err(format!("unknown role {other}")),
        None => run(&args).map(Some),
    };
    match outcome {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}

/// Operations attempted and checks failed during a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count `n` operations (instances simulated, requests answered).
    fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one check; report it on stderr when it fails.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

type Metrics = BTreeMap<&'static str, f64>;

/// Run one workload and render the result line.
fn run(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut checks = Checks::default();
    let result = if args.workload == "serve" {
        serve_workload(&exe, args, &work, &mut checks)
    } else {
        campaign_workload(&exe, args, &work, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let metrics = result?;
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    json.push_str("}}");
    Ok(json)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer values of one traced campaign pass.
fn layer_values(pass: &campaign::TracedPass) -> Metrics {
    let self_ns = pass.tracer.self_ns();
    let s = |names: &[&str]| secs(names.iter().map(|n| self_ns.get(n).copied().unwrap_or(0)).sum());
    let c = |name: &str| pass.counters.get(name).copied().unwrap_or(0) as f64;
    let mut m = Metrics::new();
    for (name, value) in &pass.counters {
        m.insert(name, *value as f64);
    }
    m.insert("availability.self_s", s(&["availability.realize", "availability.query"]));
    m.insert("engine.self_s", s(&["engine.run"]));
    m.insert("heuristics.decide_s", s(&["heuristics.decide"]));
    m.insert("heuristics.decide_us_p50", quantile_u64(&pass.decide_ns, 0.5) / 1e3);
    m.insert("heuristics.decide_us_p99", quantile_u64(&pass.decide_ns, 0.99) / 1e3);
    m.insert(
        "heuristics.reconfig_ratio",
        ratio(c("heuristics.reconfigurations"), c("heuristics.decide_calls")),
    );
    m.insert(
        "analysis.lookups_per_decide",
        ratio(c("analysis.lookups"), c("heuristics.decide_calls")),
    );
    m.insert("analysis.hit_ratio", 1.0 - ratio(c("analysis.group_misses"), c("analysis.lookups")));
    m.insert(
        "analysis.accumulators_per_miss",
        ratio(c("analysis.accumulators_built"), c("analysis.group_misses")),
    );
    m.insert("offline.project_s", s(&["offline.project"]));
    m.insert("offline.oracle_s", s(&["offline.oracle"]));
    m.insert(
        "executor.self_s",
        s(&["executor.config", "executor.job", "executor.instance", "executor.render"]),
    );
    m.insert("store.encode_s", s(&["store.encode"]));
    m.insert("store.write_s", s(&["store.write"]));
    m.insert("platform.setup_s", s(&["platform.setup"]));
    m.insert("trace.wall_s", secs(pass.wall_ns));
    m.insert("trace.unattributed_s", s(&["pass"]));
    m.insert("trace.layer_share", 1.0 - ratio(s(&["pass"]), secs(pass.wall_ns)));
    m
}

/// Median of each metric over several passes.
fn medians(passes: &[Metrics]) -> Metrics {
    let mut keys: Vec<&'static str> = passes.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> =
                passes.iter().map(|m| m.get(k).copied().unwrap_or(0.0)).collect();
            (k, median(&values))
        })
        .collect()
}

/// Check a traced pass's spans: well formed, and the layers' self times add
/// up to the pass's wall time.
fn check_spans(checks: &mut Checks, pass: &campaign::TracedPass) {
    let spans = pass.tracer.spans();
    let tree = trace::check_well_formed(spans);
    checks.check(tree.is_ok(), || format!("span tree: {}", tree.unwrap_err()));
    let total: u64 = pass.tracer.self_ns().values().sum();
    checks.check(total == pass.wall_ns, || {
        format!("self times sum to {total} ns, the pass took {} ns", pass.wall_ns)
    });
}

fn write_trace(args: &Args, jsonl: &str) {
    let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, jsonl));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// A campaign workload: golden check, traced passes, untraced child.
fn campaign_workload(
    exe: &Path,
    args: &Args,
    work: &Path,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let slice = Slice::for_workload(&args.workload, args.seed, &work.join("traced-store"))
        .ok_or(format!("unknown workload {}", args.workload))?;
    let golden = match args.workload.as_str() {
        "table1" => Some(Kind::Table),
        "gap" => Some(Kind::Gap),
        _ => None,
    };
    if let Some(kind) = golden {
        match golden_check(kind, &work.join("golden-store")) {
            Ok(instances) => {
                checks.ops(instances as u64);
                checks.check(true, String::new);
            }
            Err(msg) => checks.check(false, || msg),
        }
    }
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let start = Instant::now();
    let reference = traced_pass(&slice, None, None)?;
    checks.ops(reference.counters.get("executor.instances").copied().unwrap_or(0));
    check_spans(checks, &reference);
    let mut traced = vec![reference];
    while args.trace && (traced.len() < MIN_PASSES || start.elapsed() < budget) {
        let pass = traced_pass(&slice, None, None)?;
        checks.ops(pass.counters.get("executor.instances").copied().unwrap_or(0));
        check_spans(checks, &pass);
        checks.check(pass.outputs == traced[0].outputs, || "traced outputs differ".to_string());
        checks.check(pass.counters == traced[0].counters, || {
            format!("exact counters differ: {:?} vs {:?}", pass.counters, traced[0].counters)
        });
        traced.push(pass);
    }
    let reference = &traced[0];
    let child = timed_child(exe, args, budget, work)?;
    checks.ops(child.instances);
    checks.failed += child.failed;
    checks.attempted += child.failed;
    checks.check(child.outputs == reference.outputs, || {
        "untraced outputs differ from the traced pass".to_string()
    });
    for (name, value) in &child.counters {
        checks.check(reference.counters.get(name.as_str()) == Some(value), || {
            format!(
                "program counter {name} = {value}, traced {:?}",
                reference.counters.get(name.as_str())
            )
        });
    }
    let mut m = Metrics::new();
    let speed = host::speed_factor(&child.calibrations);
    if !args.trace {
        let throughput: Vec<f64> = child.walls.iter().map(|w| ratio(child.units, *w)).collect();
        m.insert("wall_s", median(&child.walls) * speed);
        m.insert("requests_per_s", median(&throughput) / speed);
        m.insert("latency_p50_us", quantile(&child.latencies, 0.5) * speed);
        m.insert("latency_p95_us", quantile(&child.latencies, 0.95) * speed);
        m.insert("setup_s", median(&child.setups) * speed);
        eprintln!(
            "perfbench: {} untraced passes, {} latency samples, {} set-ups; host speed factor \
             {speed:.4} (raw wall_s {:.6}, setup_s {:.6})",
            child.walls.len(),
            child.latencies.len(),
            child.setups.len(),
            median(&child.walls),
            median(&child.setups)
        );
        return Ok(m);
    }
    let values: Vec<Metrics> = traced.iter().map(layer_values).collect();
    m = medians(&values);
    if args.workload == "table1" {
        // Alternated, so both thread counts see the same host phases.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..SPEEDUP_REPS {
            one.push(traced_pass(&slice, Some(1), Some(1))?.job_decide_ns[0] as f64);
            two.push(traced_pass(&slice, Some(2), Some(1))?.job_decide_ns[0] as f64);
        }
        m.insert("heuristics.decide_speedup_2t", ratio(median(&one), median(&two)));
    }
    let traced_walls: Vec<f64> = traced.iter().map(|p| secs(p.wall_ns)).collect();
    m.insert("trace.overhead_ratio", ratio(median(&traced_walls), median(&child.walls)));
    m.insert("trace.traced_passes", traced.len() as f64);
    m.insert("trace.untraced_passes", child.walls.len() as f64);
    m.insert("process.peak_rss_mb", child.peak_rss_kb as f64 / 1024.0);
    m.insert("host.speed_factor", speed);
    write_trace(args, &traced[traced.len() - 1].tracer.to_jsonl());
    Ok(m)
}

/// What the untraced child measured.
#[derive(Debug, Default)]
struct ChildReport {
    walls: Vec<f64>,
    latencies: Vec<f64>,
    setups: Vec<f64>,
    calibrations: Vec<f64>,
    units: f64,
    instances: u64,
    peak_rss_kb: u64,
    failed: u64,
    counters: BTreeMap<String, u64>,
    outputs: Outputs,
}

/// Run the untraced passes of a campaign workload in a fresh process.
fn timed_child(
    exe: &Path,
    args: &Args,
    budget: Duration,
    work: &Path,
) -> Result<ChildReport, String> {
    let status = Command::new(exe)
        .args(["--role", "timed", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &budget.as_secs_f64().to_string()])
        .arg("--work")
        .arg(work)
        .status()
        .map_err(|e| format!("cannot start the timed pass: {e}"))?;
    if !status.success() {
        return Err(format!("the timed pass exited with {status}"));
    }
    let text = std::fs::read_to_string(work.join("timed.txt"))
        .map_err(|e| format!("cannot read the timed report: {e}"))?;
    let mut report = ChildReport::default();
    for line in text.lines() {
        let mut fields = line.split(' ');
        let key = fields.next().unwrap_or("");
        let values: Vec<&str> = fields.collect();
        let floats = || values.iter().filter_map(|v| v.parse::<f64>().ok()).collect::<Vec<_>>();
        let int = || values.first().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        match key {
            "wall_s" => report.walls = floats(),
            "latency_us" => report.latencies = floats(),
            "setup_s" => report.setups = floats(),
            "calibration_s" => report.calibrations = floats(),
            "units" => report.units = floats().first().copied().unwrap_or(0.0),
            "instances" => report.instances = int(),
            "peak_rss_kb" => report.peak_rss_kb = int(),
            "failed" => report.failed = int(),
            "counter" if values.len() == 2 => {
                report.counters.insert(values[0].to_string(), values[1].parse().unwrap_or(0));
            }
            _ => {}
        }
    }
    if report.walls.is_empty() {
        return Err("the timed pass reported no passes".to_string());
    }
    let slice = Slice::for_workload(&args.workload, args.seed, &work.join("timed-store"))
        .ok_or("unknown workload")?;
    let table = std::fs::read_to_string(work.join("timed-table.txt"))
        .map_err(|e| format!("cannot read the timed table: {e}"))?;
    let opts = slice.options()?;
    report.outputs = Outputs::read(table, &slice.store, slice.config(&opts)?.points().len())?;
    Ok(report)
}

/// The `timed` role: set-up repetitions, then untraced passes for
/// `--seconds`, each checked against the first and followed by a host
/// calibration; writes `timed.txt`.
fn timed_role(args: &Args) -> Result<(), String> {
    let work = args.work.clone().ok_or("the timed role needs --work")?;
    let slice = Slice::for_workload(&args.workload, args.seed, &work.join("timed-store"))
        .ok_or(format!("unknown workload {}", args.workload))?;
    let mut calibration = host::Calibration::new();
    let mut calibrations = vec![calibration.run()];
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        setup_once(&slice, &work.join("setup-store"))?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        passes.push(untraced_pass(&slice)?);
        calibrations.push(calibration.run());
    }
    let first = &passes[0];
    let mut failed = 0;
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.outputs != first.outputs || pass.counters != first.counters {
            eprintln!("perfbench: untraced pass {i} differs from the first");
            failed += 1;
        }
    }
    let join = |values: &mut dyn Iterator<Item = f64>| {
        values.map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
    };
    let mut report = String::new();
    let _ = writeln!(report, "wall_s {}", join(&mut passes.iter().map(|p| p.wall_s)));
    let _ = writeln!(
        report,
        "latency_us {}",
        join(&mut passes.iter().flat_map(|p| p.latencies_us.iter().copied()))
    );
    let _ = writeln!(report, "setup_s {}", join(&mut setups.iter().copied()));
    let _ = writeln!(report, "calibration_s {}", join(&mut calibrations.iter().copied()));
    let _ = writeln!(report, "units {}", first.latencies_us.len());
    let instances = first.counters.get("executor.instances").copied().unwrap_or(0);
    let _ = writeln!(report, "instances {}", instances * passes.len() as u64);
    let _ = writeln!(report, "peak_rss_kb {}", sys::peak_rss_kb());
    let _ = writeln!(report, "failed {failed}");
    for (name, value) in &first.counters {
        let _ = writeln!(report, "counter {name} {value}");
    }
    std::fs::write(work.join("timed-table.txt"), &first.outputs.table)
        .and_then(|()| std::fs::write(work.join("timed.txt"), report))
        .map_err(|e| format!("cannot write the timed report: {e}"))
}

/// The `serve` workload: set-up spawns, an untraced server, and with
/// `--trace 1` a traced server.
fn serve_workload(
    exe: &Path,
    args: &Args,
    work: &Path,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    // Client and server share one CPU: a cross-CPU wake-up per request made
    // the pass time bimodal (2x) on a busy two-CPU host.
    if !sys::pin_to_current_cpu() {
        eprintln!("perfbench: could not pin the serve client to one CPU");
    }
    let core = serve::load_core(args.seed)?;
    let lines = serve::record_session(&core)?;
    let first = lines.first().ok_or("the recorded session is empty")?;
    let mut calibration = host::Calibration::new();
    let mut calibrations = vec![calibration.run()];
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut server = serve::Server::spawn(exe, args.seed, false, work)?;
        server.send(&first.text)?;
        let reply = server.recv()?;
        setups.push(start.elapsed().as_secs_f64());
        server.finish()?;
        checks.ops(1);
        checks.check(!reply.contains("\"ok\":false"), || format!("set-up reply: {reply}"));
    }
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });

    // One server process per measurement: a learning pass warms its cache
    // and learns how many reply lines each online request produces, then
    // the measured passes replay the session closed-loop, with a host
    // calibration after a pass every CALIBRATION_INTERVAL.
    let mut measure = |traced: bool,
                       checks: &mut Checks,
                       calibrations: &mut Vec<f64>,
                       reference: Option<&Vec<Vec<String>>>|
     -> Result<(Vec<serve::ServePass>, Vec<Vec<String>>), String> {
        let mut server = serve::Server::spawn(exe, args.seed, traced, work)?;
        let learn = serve::replay(&mut server, &lines, None)?;
        checks.ops(lines.len() as u64);
        let (learned, mismatches) = serve::check_replies(&lines, &learn.replies);
        for mismatch in &mismatches {
            checks.check(false, || format!("served decision differs: {mismatch}"));
        }
        if let Some(reference) = reference {
            checks.check(&learned == reference, || "traced replies differ".to_string());
        }
        let counts: Vec<usize> = learn.replies.iter().map(Vec::len).collect();
        let start = Instant::now();
        let mut calibrated = start;
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || start.elapsed() < budget {
            let mut pass = serve::replay(&mut server, &lines, Some(&counts))?;
            checks.ops(lines.len() as u64);
            let (masked, mismatches) = serve::check_replies(&lines, &pass.replies);
            checks.check(mismatches.is_empty() && masked == learned, || {
                format!("replayed replies differ: {:?}", mismatches.first())
            });
            pass.replies = Vec::new();
            passes.push(pass);
            if calibrated.elapsed() >= CALIBRATION_INTERVAL {
                calibrations.push(calibration.run());
                calibrated = Instant::now();
            }
        }
        server.finish()?;
        Ok((passes, learned))
    };
    let (untraced, reference) = measure(false, checks, &mut calibrations, None)?;
    let speed = host::speed_factor(&calibrations);
    let report = std::fs::read_to_string(work.join("serve.txt"))
        .map_err(|e| format!("cannot read the serve report: {e}"))?;
    let field = |report: &str, key: &str| -> f64 {
        report
            .lines()
            .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
            .unwrap_or(0.0)
    };
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let mut m = Metrics::new();
    if !args.trace {
        let latencies: Vec<f64> = untraced.iter().flat_map(|p| p.latencies_us.clone()).collect();
        let throughput: Vec<f64> = walls.iter().map(|w| ratio(lines.len() as f64, *w)).collect();
        m.insert("wall_s", median(&walls) * speed);
        m.insert("requests_per_s", median(&throughput) / speed);
        m.insert("latency_p50_us", quantile(&latencies, 0.5) * speed);
        m.insert("latency_p95_us", quantile(&latencies, 0.95) * speed);
        m.insert("setup_s", median(&setups) * speed);
        eprintln!(
            "perfbench: {} request lines per pass, {} passes, {} decide/batch latency samples; \
             host speed factor {speed:.4} (raw wall_s {:.6}, setup_s {:.6})",
            lines.len(),
            untraced.len(),
            latencies.len(),
            median(&walls),
            median(&setups)
        );
        return Ok(m);
    }
    let (traced, _) = measure(true, checks, &mut Vec::new(), Some(&reference))?;
    let traced_report = std::fs::read_to_string(work.join("serve-traced.txt"))
        .map_err(|e| format!("cannot read the traced serve report: {e}"))?;
    // The learning pass closes each online segment with a marker too.
    let segments = lines
        .windows(2)
        .filter(|w| w[0].expect != serve::Expect::Online && w[1].expect == serve::Expect::Online)
        .count()
        + usize::from(lines[0].expect == serve::Expect::Online);
    let server_passes: Vec<serve::ServerPass> =
        traced_report.lines().filter_map(serve::ServerPass::from_line).skip(segments + 1).collect();
    checks.check(server_passes.len() == traced.len(), || {
        format!("{} traced server passes for {} client passes", server_passes.len(), traced.len())
    });
    let exact = |p: &serve::ServerPass| {
        (p.requests, p.decisions, p.reconfigurations, p.lookups, p.misses, p.online_lookups)
    };
    checks.check(server_passes.windows(2).all(|w| exact(&w[0]) == exact(&w[1])), || {
        "serve counters differ between warm passes".to_string()
    });
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let values: Vec<Metrics> = server_passes
        .iter()
        .zip(&traced_walls)
        .map(|(p, wall)| {
            let busy = p.parse_s + p.decide_s + p.render_s + p.online_s + p.dispatch_s;
            let d = p.decisions as f64;
            let all_lookups = (p.lookups + p.online_lookups) as f64;
            Metrics::from([
                ("service.requests", p.requests as f64),
                ("service.parse_s", p.parse_s),
                ("service.decide_s", p.decide_s),
                ("service.render_s", p.render_s),
                ("service.online_s", p.online_s),
                ("service.dispatch_s", p.dispatch_s),
                ("service.lookups_per_request", ratio(all_lookups, p.requests as f64)),
                ("heuristics.decide_calls", d),
                ("heuristics.reconfigurations", p.reconfigurations as f64),
                ("heuristics.reconfig_ratio", ratio(p.reconfigurations as f64, d)),
                ("heuristics.decide_s", p.decide_s),
                ("heuristics.decide_us_p50", p.decide_us_p50),
                ("heuristics.decide_us_p99", p.decide_us_p99),
                ("analysis.lookups", p.lookups as f64),
                ("analysis.lookups_per_decide", ratio(p.lookups as f64, d)),
                ("analysis.hit_ratio", 1.0 - ratio(p.misses as f64, p.lookups as f64)),
                ("analysis.group_misses", p.misses as f64),
                ("analysis.series_terms", p.series_terms as f64),
                ("analysis.accumulators_built", p.accumulators_built as f64),
                (
                    "analysis.accumulators_per_miss",
                    ratio(p.accumulators_built as f64, p.misses as f64),
                ),
                ("trace.wall_s", *wall),
                ("trace.unattributed_s", wall - busy),
                ("trace.layer_share", ratio(busy, *wall)),
            ])
        })
        .collect();
    m = medians(&values);
    m.insert("platform.scenarios", 1.0);
    m.insert("platform.setup_s", field(&traced_report, "setup_s "));
    m.insert("trace.overhead_ratio", ratio(median(&traced_walls), median(&walls)));
    m.insert("trace.traced_passes", traced.len() as f64);
    m.insert("trace.untraced_passes", untraced.len() as f64);
    m.insert("process.peak_rss_mb", field(&report, "peak_rss_kb ") / 1024.0);
    m.insert("host.speed_factor", speed);
    if let Ok(spans) = std::fs::read_to_string(work.join("serve-spans.jsonl")) {
        write_trace(args, &spans);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let args = parse_args(argv("--workload gap --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("gap", 7, 3.0, true)
        );
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--workload gap --trace 2")).is_err());
        assert!(parse_args(argv("--workload gap --seconds 0")).is_err());
        assert!(parse_args(argv("--workload gap --bogus 1")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')));
        let manifest: &str = include_str!("../../BENCHMARK.json");
        for name in names {
            assert!(manifest.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
    }
}
