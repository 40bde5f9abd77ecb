//! The campaign workloads — `table1` and `gap` — as the program
//! runs them (the untraced pass, through `run_campaign_with`/`run_gap_with`
//! exactly like the `table1` and `gap` binaries) and as the benchmark
//! re-drives them (the traced pass: the executor's job loop rebuilt from the
//! same public functions, with every layer call wrapped in a span).

use crate::layers::{TracedAvailability, TracedScheduler};
use crate::trace::{CallTimer, Tracer};
use dg_analysis::EvalCache;
use dg_availability::rng::derive_seed;
use dg_availability::RealizedTrial;
use dg_experiments::cli::CliOptions;
use dg_experiments::executor::config_fingerprint;
use dg_experiments::gap::{
    encode_gap_record, gap_fingerprint, online_slots, oracle_bounds, project_trial,
    render_gap_table, GapAggregate, GapRecord, EXACT_M_MAX,
};
use dg_experiments::runner::{scheduler_seed, trial_seed};
use dg_experiments::store::{
    encode_instance, shard_name, CampaignStore, ShardWriter, MANIFEST_NAME,
};
use dg_experiments::tables::{render_table, table_comparison};
use dg_experiments::{
    run_campaign_with, run_gap_with, CampaignAccumulator, CampaignConfig, InstanceResult,
};
use dg_platform::Scenario;
use dg_sim::{SimOutcome, SimulationLimits, Simulator};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Tasks per iteration of every campaign slice: Table I's `m`.
const TABLE_I_M: usize = 5;

/// Exact counters of one pass, by metric name.
pub type Counters = BTreeMap<&'static str, u64>;

/// Which binary's output a slice reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A Table I campaign (`table1`).
    Table,
    /// An optimality-gap sweep (`gap`).
    Gap,
}

/// One campaign slice: the CLI flags it is built from plus the benchmark's
/// own sizing on top of them.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Output kind.
    pub kind: Kind,
    /// Flags parsed by [`CliOptions::parse`], `--out` included.
    pub args: Vec<String>,
    /// Store directory.
    pub store: PathBuf,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

impl Slice {
    /// The slice of `workload` generated from `seed`, storing under `store`.
    pub fn for_workload(workload: &str, seed: u64, store: &Path) -> Option<Slice> {
        let seed = seed.to_string();
        let common = ["--trials", "1", "--threads", "1", "--decision-threads", "1", "--quiet"];
        let (kind, mut args) = match workload {
            "table1" => {
                (Kind::Table, strings(&["--scenarios", "14", "--ncom", "5,10,20", "--wmin", "1"]))
            }
            "gap" => {
                (Kind::Gap, strings(&["--scenarios", "20", "--ncom", "5,10,20", "--wmin", "1"]))
            }
            _ => return None,
        };
        args.extend(strings(&common));
        args.extend(["--seed".to_string(), seed, "--out".to_string()]);
        args.push(store.display().to_string());
        Some(Slice { kind, args, store: store.to_path_buf() })
    }

    /// The golden-corpus configuration of `kind` (`--scenarios 1 --trials 1
    /// --wmin 1,2` at the default seed).
    pub fn golden(kind: Kind, store: &Path) -> Slice {
        let mut args = strings(&["--scenarios", "1", "--trials", "1", "--wmin", "1,2", "--quiet"]);
        args.extend(["--out".to_string(), store.display().to_string()]);
        Slice { kind, args, store: store.to_path_buf() }
    }

    /// Parse the slice's flags.
    pub fn options(&self) -> Result<CliOptions, String> {
        CliOptions::parse(self.args.iter().map(String::as_str))
    }

    /// Resolve the campaign configuration from parsed options, at Table I's
    /// `m` (the `table1` binary's choice: the paper suite's smallest `m`).
    pub fn config(&self, opts: &CliOptions) -> Result<CampaignConfig, String> {
        Ok(opts.campaign()?.with_m(TABLE_I_M))
    }

    /// The rendered output's title line, as the binaries print it.
    pub fn title(&self, config: &CampaignConfig) -> String {
        match self.kind {
            Kind::Table => format!("TABLE I. RESULTS WITH m = {} TASKS.", config.m_values[0]),
            Kind::Gap => format!(
                "OPTIMALITY GAP vs OFFLINE ORACLE ({} suite, online/offline makespan ratios).",
                config.suite
            ),
        }
    }
}

/// What a pass produced: the rendered table and the store's bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outputs {
    /// Rendered table, as the binary prints it.
    pub table: String,
    /// Every shard, concatenated in point order.
    pub shards: Vec<u8>,
    /// The completed manifest.
    pub manifest: Vec<u8>,
}

impl Outputs {
    pub fn read(table: String, store: &Path, points: usize) -> Result<Outputs, String> {
        let read = |path: PathBuf| {
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let mut shards = Vec::new();
        for point in 0..points {
            shards.extend(read(store.join(shard_name(point)))?);
        }
        Ok(Outputs { table, shards, manifest: read(store.join(MANIFEST_NAME))? })
    }

    /// Bytes the pass wrote to its store.
    pub fn bytes_written(&self) -> u64 {
        (self.shards.len() + self.manifest.len()) as u64
    }
}

/// One untraced pass, timed from option parsing to the rendered table.
#[derive(Debug, Clone)]
pub struct TimedPass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Latency of each unit of work (an instance for campaigns, a trial for
    /// gap sweeps), microseconds, as seen through the progress callback.
    pub latencies_us: Vec<f64>,
    /// Outputs of the pass.
    pub outputs: Outputs,
    /// The program's own counters (`ExecutorStats` / `GapStats`).
    pub counters: Counters,
}

/// Run one untraced pass the way the `table1`/`gap` binaries do.
pub fn untraced_pass(slice: &Slice) -> Result<TimedPass, String> {
    let start = Instant::now();
    let marks: Mutex<Vec<(usize, Instant)>> = Mutex::new(Vec::with_capacity(4096));
    let progress = |done: usize, _total: usize| {
        marks.lock().expect("progress lock poisoned").push((done, Instant::now()));
    };
    let opts = slice.options()?;
    let config = slice.config(&opts)?;
    let options = opts.executor();
    let mut counters = Counters::new();
    let (table, unit) = match slice.kind {
        Kind::Table => {
            opts.require_reference("IE")?;
            let outcome = run_campaign_with(&config, &options, progress)?;
            let results = outcome.results;
            let subset: Vec<_> = results.results.iter().collect();
            let comparison = table_comparison(&subset, "IE", &results.heuristic_names());
            let table = render_table(&slice.title(&config), &comparison);
            let s = outcome.stats;
            counters
                .insert("analysis.lookups", (s.group_sets_computed + s.group_cache_hits) as u64);
            counters.insert("analysis.group_misses", s.group_sets_computed as u64);
            counters.insert("availability.realizations", s.trials_realized as u64);
            counters.insert("executor.instances", s.executed_instances as u64);
            counters.insert("platform.scenarios", s.eval_caches as u64);
            (table, 1)
        }
        Kind::Gap => {
            let outcome = run_gap_with(&config, &options, progress)?;
            let table = render_gap_table(&slice.title(&config), &outcome.aggregates);
            let s = outcome.stats;
            counters.insert("availability.realizations", s.trials_realized as u64);
            counters.insert("executor.instances", s.executed_instances as u64);
            counters.insert("offline.trials_projected", s.trials_projected as u64);
            counters.insert("offline.exact_trials", s.exact_trials as u64);
            counters.insert("offline.greedy_trials", s.greedy_trials as u64);
            (table, config.heuristics.len())
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let marks = marks.into_inner().expect("progress lock poisoned");
    let mut latencies_us = Vec::with_capacity(marks.len() / unit + 1);
    let mut previous = start;
    for &(done, at) in marks.iter().filter(|(done, _)| done % unit == 0) {
        debug_assert!(done > 0);
        latencies_us.push((at - previous).as_secs_f64() * 1e6);
        previous = at;
    }
    let outputs = Outputs::read(table, &slice.store, config.points().len())?;
    counters.insert("store.bytes_written", outputs.bytes_written());
    Ok(TimedPass { wall_s, latencies_us, outputs, counters })
}

/// One traced pass: the executor's job loop re-driven with spans.
#[derive(Debug)]
pub struct TracedPass {
    /// Wall time of the pass root span.
    pub wall_ns: u64,
    /// Outputs of the pass.
    pub outputs: Outputs,
    /// Exact counters.
    pub counters: Counters,
    /// The pass's spans.
    pub tracer: Tracer,
    /// Duration of every scheduling decision, nanoseconds.
    pub decide_ns: Vec<u64>,
    /// Decision busy time per scenario job, nanoseconds.
    pub job_decide_ns: Vec<u64>,
}

/// Per-pass accumulation shared by the campaign and gap re-drives.
#[derive(Default)]
struct Tally {
    counters: Counters,
    decide_ns: Vec<u64>,
    job_decide_ns: Vec<u64>,
}

impl Tally {
    fn add(&mut self, key: &'static str, value: u64) {
        *self.counters.entry(key).or_insert(0) += value;
    }

    fn add_cache(&mut self, cache: &EvalCache) {
        let stats = cache.stats();
        self.add("analysis.lookups", stats.lookups());
        self.add("analysis.group_misses", stats.group_misses);
        self.add("analysis.accumulators_built", cache.accumulators_built());
        self.add("analysis.series_terms", cache.series_terms());
        self.add("platform.scenarios", 1);
    }
}

/// Simulate one instance under `tracer`: an `executor.instance` span with the
/// `engine.run` span inside it, and the decision and availability calls
/// collapsed under the engine span.
#[allow(clippy::too_many_arguments)]
fn traced_instance<A: dg_availability::AvailabilityModel>(
    tracer: &mut Tracer,
    tally: &mut Tally,
    job_decide: &mut u64,
    scenario: &Scenario,
    config: &CampaignConfig,
    heuristic: &dg_heuristics::HeuristicSpec,
    trial_index: usize,
    cache: &EvalCache,
    availability: A,
    completion_log: bool,
) -> Result<(SimOutcome, Vec<u64>), String> {
    tracer.enter("executor.instance");
    let seed = scheduler_seed(config.base_seed, scenario.seed, trial_index);
    let limits =
        SimulationLimits::with_max_slots(config.max_slots).map_err(|e| format!("{e:?}"))?;
    let decide_timer = CallTimer::default();
    let availability_timer = CallTimer::default();
    let mut scheduler = TracedScheduler::new(
        heuristic.build_with_cache(seed, cache),
        &decide_timer,
        &mut tally.decide_ns,
    );
    tracer.enter("engine.run");
    let simulator =
        Simulator::new(scenario, TracedAvailability::new(availability, &availability_timer))
            .with_limits(limits)
            .with_completion_log(completion_log)
            .with_mode(config.engine);
    let (outcome, log, report) = simulator.run_with_report(&mut scheduler);
    tracer.collapsed("heuristics.decide", &decide_timer);
    tracer.collapsed("availability.query", &availability_timer);
    tracer.exit();
    let reconfigurations = scheduler.reconfigurations;
    drop(scheduler);
    tally.add("heuristics.decide_calls", decide_timer.calls());
    tally.add("heuristics.reconfigurations", reconfigurations);
    tally.add("availability.calls", availability_timer.calls());
    tally.add("engine.executed_slots", report.executed_slots);
    tally.add("engine.simulated_slots", report.simulated_slots);
    tally.add("executor.instances", 1);
    *job_decide += decide_timer.busy_ns();
    let completions = if completion_log { log.iteration_completions() } else { Vec::new() };
    tracer.exit();
    Ok((outcome, completions))
}

/// Generate the scenario of a job and its shared evaluation cache, as the
/// executor does before the job's first instance.
pub fn job_setup(
    config: &CampaignConfig,
    point_index: usize,
    scenario_index: usize,
    decision_threads: Option<usize>,
) -> (Scenario, EvalCache) {
    let params = config.points()[point_index];
    let seed = derive_seed(config.base_seed, (point_index as u64) << 20 | scenario_index as u64);
    let scenario = Scenario::generate_with(params, &config.model, seed);
    let mut cache = EvalCache::new(&scenario.platform, &scenario.master, config.epsilon);
    if let Some(threads) = decision_threads {
        cache.set_decision_threads(threads);
    }
    (scenario, cache)
}

/// Everything a campaign does before its first instance can start: parse
/// the flags, resolve the configuration, open (and clear) the store, then
/// generate the first job's scenario and evaluation cache.
pub fn setup_once(slice: &Slice, store: &Path) -> Result<(), String> {
    let opts = slice.options()?;
    let config = slice.config(&opts)?;
    let fingerprint = match slice.kind {
        Kind::Table => config_fingerprint(&config),
        Kind::Gap => gap_fingerprint(&config),
    };
    std::hint::black_box(CampaignStore::open(store, fingerprint, false)?);
    let threads = (slice.kind == Kind::Table).then_some(opts.decision_threads);
    std::hint::black_box(job_setup(&config, 0, 0, threads));
    Ok(())
}

/// Run a traced pass of `slice`. `decision_threads` overrides the slice's
/// intra-decision thread count; `max_jobs` truncates the pass (the store is
/// then left incomplete and no table is rendered).
pub fn traced_pass(
    slice: &Slice,
    decision_threads: Option<usize>,
    max_jobs: Option<usize>,
) -> Result<TracedPass, String> {
    let mut tracer = Tracer::new();
    tracer.enter("pass");
    let (opts, config) = tracer.span("executor.config", |_| {
        let opts = slice.options()?;
        let config = slice.config(&opts)?;
        Ok::<_, String>((opts, config))
    })?;
    let threads = match slice.kind {
        Kind::Table => Some(decision_threads.unwrap_or(opts.decision_threads)),
        Kind::Gap => decision_threads,
    };
    let mut tally = Tally::default();
    let table = match slice.kind {
        Kind::Table => {
            redrive_campaign(&mut tracer, &mut tally, slice, &config, threads, max_jobs)?
        }
        Kind::Gap => redrive_gap(&mut tracer, &mut tally, slice, &config, threads, max_jobs)?,
    };
    tracer.exit();
    let wall_ns = tracer.spans()[0].busy_ns;
    let outputs = match table {
        Some(table) => Outputs::read(table, &slice.store, config.points().len())?,
        None => Outputs::default(),
    };
    let mut counters = tally.counters;
    counters.insert("store.bytes_written", outputs.bytes_written());
    Ok(TracedPass {
        wall_ns,
        outputs,
        counters,
        tracer,
        decide_ns: tally.decide_ns,
        job_decide_ns: tally.job_decide_ns,
    })
}

/// The campaign executor's loop (`run_campaign_with` at one job thread).
fn redrive_campaign(
    tracer: &mut Tracer,
    tally: &mut Tally,
    slice: &Slice,
    config: &CampaignConfig,
    decision_threads: Option<usize>,
    max_jobs: Option<usize>,
) -> Result<Option<String>, String> {
    let points = config.points();
    let scenarios = config.scenarios_per_point;
    let num_jobs = points.len() * scenarios;
    let store = tracer.span("store.write", |_| {
        CampaignStore::open(&slice.store, config_fingerprint(config), false)
    })?;
    let mut shards = ShardWriter::new(Some(&store), scenarios);
    let mut streaming = CampaignAccumulator::new(config, "IE");
    let mut raw: Vec<InstanceResult> = Vec::new();
    let mut instance_id = 0u64;
    for job in 0..max_jobs.unwrap_or(num_jobs).min(num_jobs) {
        let point_index = job / scenarios;
        let scenario_index = job % scenarios;
        tracer.set_id(job as u64);
        tracer.enter("executor.job");
        let (scenario, cache) = tracer.span("platform.setup", |_| {
            job_setup(config, point_index, scenario_index, decision_threads)
        });
        let mut block = Vec::with_capacity(config.trials_per_scenario * config.heuristics.len());
        let mut job_decide = 0u64;
        for trial_index in 0..config.trials_per_scenario {
            let trial = tracer.span("availability.realize", |_| {
                let seed = trial_seed(config.base_seed, scenario.seed, trial_index);
                RealizedTrial::new(scenario.realize_trial(seed, config.max_slots))
            });
            tally.add("availability.realizations", 1);
            for heuristic in &config.heuristics {
                tracer.set_id(instance_id);
                instance_id += 1;
                let (outcome, _) = traced_instance(
                    tracer,
                    tally,
                    &mut job_decide,
                    &scenario,
                    config,
                    heuristic,
                    trial_index,
                    &cache,
                    trial.replay(),
                    false,
                )?;
                tracer.set_id(job as u64);
                block.push(InstanceResult {
                    params: points[point_index],
                    scenario_index,
                    trial_index,
                    heuristic: heuristic.name(),
                    outcome,
                });
            }
        }
        tally.add_cache(&cache);
        tally.job_decide_ns.push(job_decide);
        let lines = tracer.span("store.encode", |_| {
            block
                .iter()
                .map(|r| encode_instance(point_index, config.suite_tag(), None, r))
                .collect::<Vec<_>>()
        });
        let executed = block.len();
        let stored = tracer.span("store.write", |_| shards.consume(job, executed, lines));
        streaming.consume_scenario(point_index, &block);
        raw.extend(block);
        tracer.exit();
        if !stored {
            break;
        }
    }
    tracer.span("store.write", |_| shards.finish())?;
    if max_jobs.is_some_and(|jobs| jobs < num_jobs) {
        return Ok(None);
    }
    tracer.span("store.write", |_| store.finalize())?;
    let table = tracer.span("executor.render", |_| {
        let subset: Vec<_> = raw.iter().collect();
        let names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();
        render_table(&slice.title(config), &table_comparison(&subset, "IE", &names))
    });
    Ok(Some(table))
}

/// Fold one gap record into its per-heuristic aggregate, as the gap sweep does.
fn consume_gap(agg: &mut GapAggregate, record: &GapRecord) {
    agg.runs += 1;
    match record.ratio() {
        Some(ratio) => {
            agg.comparable += 1;
            agg.sum_ratio += ratio;
            agg.min_ratio = agg.min_ratio.min(ratio);
            agg.max_ratio = agg.max_ratio.max(ratio);
        }
        None if record.online.is_none() => agg.incomplete += 1,
        None => agg.unbounded += 1,
    }
}

/// The gap sweep's loop (`run_gap_with` at one job thread).
fn redrive_gap(
    tracer: &mut Tracer,
    tally: &mut Tally,
    slice: &Slice,
    config: &CampaignConfig,
    decision_threads: Option<usize>,
    max_jobs: Option<usize>,
) -> Result<Option<String>, String> {
    let points = config.points();
    let scenarios = config.scenarios_per_point;
    let num_jobs = points.len() * scenarios;
    let store = tracer.span("store.write", |_| {
        CampaignStore::open(&slice.store, gap_fingerprint(config), false)
    })?;
    let mut shards = ShardWriter::new(Some(&store), scenarios);
    for key in ["offline.trials_projected", "offline.exact_trials", "offline.greedy_trials"] {
        tally.add(key, 0);
    }
    let mut aggregates: Vec<GapAggregate> = config
        .heuristics
        .iter()
        .map(|h| GapAggregate {
            heuristic: h.name(),
            runs: 0,
            comparable: 0,
            sum_ratio: 0.0,
            min_ratio: f64::INFINITY,
            max_ratio: f64::NEG_INFINITY,
            incomplete: 0,
            unbounded: 0,
        })
        .collect();
    let mut instance_id = 0u64;
    for job in 0..max_jobs.unwrap_or(num_jobs).min(num_jobs) {
        let point_index = job / scenarios;
        let scenario_index = job % scenarios;
        let params = points[point_index];
        tracer.set_id(job as u64);
        tracer.enter("executor.job");
        let (scenario, cache) = tracer.span("platform.setup", |_| {
            job_setup(config, point_index, scenario_index, decision_threads)
        });
        let exact = params.tasks_per_iteration <= EXACT_M_MAX;
        let method = if exact { "exact" } else { "greedy" };
        let mut block = Vec::with_capacity(config.trials_per_scenario * config.heuristics.len());
        let mut job_decide = 0u64;
        for trial_index in 0..config.trials_per_scenario {
            let trial = tracer.span("availability.realize", |_| {
                let seed = trial_seed(config.base_seed, scenario.seed, trial_index);
                RealizedTrial::new(scenario.realize_trial(seed, config.max_slots))
            });
            tally.add("availability.realizations", 1);
            let mut fresh: Vec<SimOutcome> = Vec::with_capacity(config.heuristics.len());
            let mut online: Vec<Option<u64>> = Vec::with_capacity(config.heuristics.len());
            for heuristic in &config.heuristics {
                tracer.set_id(instance_id);
                instance_id += 1;
                let (outcome, completions) = traced_instance(
                    tracer,
                    tally,
                    &mut job_decide,
                    &scenario,
                    config,
                    heuristic,
                    trial_index,
                    &cache,
                    trial.replay(),
                    true,
                )?;
                tracer.set_id(job as u64);
                online.push(online_slots(&outcome, &completions));
                fresh.push(outcome);
            }
            let horizon = online.iter().flatten().copied().max().unwrap_or(0);
            let max_count = fresh.iter().map(|o| o.completed_iterations).max().unwrap_or(0);
            let bounds = if horizon > 0 && max_count > 0 {
                tally.add("offline.trials_projected", 1);
                tally.add(if exact { "offline.exact_trials" } else { "offline.greedy_trials" }, 1);
                let instance = tracer.span("offline.project", |t| {
                    let timer = CallTimer::default();
                    let mut replay = TracedAvailability::new(trial.replay(), &timer);
                    let instance = project_trial(&scenario, &mut replay, horizon);
                    t.collapsed("availability.query", &timer);
                    tally.add("availability.calls", timer.calls());
                    instance
                });
                tracer.span("offline.oracle", |_| oracle_bounds(&instance, max_count, exact))
            } else {
                Vec::new()
            };
            for (i, outcome) in fresh.iter().enumerate() {
                let completed = outcome.completed_iterations;
                let bound =
                    (completed >= 1).then(|| bounds.get(completed as usize - 1).copied()).flatten();
                block.push(GapRecord {
                    point_index,
                    suite: config.suite.clone(),
                    params,
                    scenario_index,
                    trial_index,
                    heuristic: config.heuristics[i].name(),
                    completed,
                    target: outcome.target_iterations,
                    online: online[i],
                    bound,
                    method: method.to_string(),
                });
            }
        }
        tally.add_cache(&cache);
        tally.job_decide_ns.push(job_decide);
        for (offset, record) in block.iter().enumerate() {
            consume_gap(&mut aggregates[offset % config.heuristics.len()], record);
        }
        let lines = tracer
            .span("store.encode", |_| block.iter().map(encode_gap_record).collect::<Vec<_>>());
        let executed = block.len();
        let stored = tracer.span("store.write", |_| shards.consume(job, executed, lines));
        tracer.exit();
        if !stored {
            break;
        }
    }
    tracer.span("store.write", |_| shards.finish())?;
    if max_jobs.is_some_and(|jobs| jobs < num_jobs) {
        return Ok(None);
    }
    tracer.span("store.write", |_| store.finalize())?;
    let table =
        tracer.span("executor.render", |_| render_gap_table(&slice.title(config), &aggregates));
    Ok(Some(table))
}

/// Re-drive the golden-corpus configuration of `kind` and compare its table
/// and shard bytes with the committed fixtures (read only).
pub fn golden_check(kind: Kind, store: &Path) -> Result<usize, String> {
    let pass = traced_pass(&Slice::golden(kind, store), None, None)?;
    let (table, shards): (&str, &[u8]) = match kind {
        Kind::Table => (
            include_str!("../../tests/golden/table1_m5.txt"),
            include_bytes!("../../tests/golden/table1_shards.jsonl"),
        ),
        Kind::Gap => (
            include_str!("../../tests/golden/gap_m5.txt"),
            include_bytes!("../../tests/golden/gap_shards.jsonl"),
        ),
    };
    if pass.outputs.table != table {
        return Err(format!("{kind:?} rendering diverged from the golden fixture"));
    }
    if pass.outputs.shards != shards {
        return Err(format!("{kind:?} shard bytes diverged from the golden fixture"));
    }
    if kind == Kind::Table
        && pass.outputs.manifest != include_bytes!("../../tests/golden/table1_manifest.json")
    {
        return Err("Table manifest diverged from the golden fixture".to_string());
    }
    Ok(pass.counters.get("executor.instances").copied().unwrap_or(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::check_well_formed;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small slice: two points of two heuristics each.
    fn small(kind: Kind, store: &Path) -> Slice {
        let mut args = vec![
            "--scenarios",
            "1",
            "--trials",
            "2",
            "--ncom",
            "10",
            "--wmin",
            "1,2",
            "--heuristics",
            "IE,Y-IE",
            "--cap",
            "20000",
            "--seed",
            "5",
            "--quiet",
            "--out",
        ]
        .into_iter()
        .map(String::from)
        .collect::<Vec<_>>();
        args.push(store.display().to_string());
        Slice { kind, args, store: store.to_path_buf() }
    }

    fn check_redrive_matches_program(kind: Kind, name: &str) {
        let dir = scratch(name);
        let slice = small(kind, &dir);
        let program = untraced_pass(&slice).unwrap();
        let traced = traced_pass(&slice, None, None).unwrap();
        assert_eq!(program.outputs, traced.outputs, "re-drive diverged from the program");
        for (key, value) in &program.counters {
            assert_eq!(traced.counters.get(key), Some(value), "counter {key}");
        }
        check_well_formed(traced.tracer.spans()).unwrap();
        let total: u64 = traced.tracer.self_ns().values().sum();
        assert_eq!(total, traced.wall_ns);
        let again = traced_pass(&slice, None, None).unwrap();
        assert_eq!(again.counters, traced.counters, "exact counters must repeat");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_campaign_redrive_matches_run_campaign_with() {
        check_redrive_matches_program(Kind::Table, "table");
    }

    #[test]
    fn traced_gap_redrive_matches_run_gap_with() {
        check_redrive_matches_program(Kind::Gap, "gap");
    }

    #[test]
    fn golden_configuration_reproduces_the_committed_fixtures() {
        let dir = scratch("golden");
        assert_eq!(golden_check(Kind::Table, &dir).unwrap(), 102);
        assert_eq!(golden_check(Kind::Gap, &dir).unwrap(), 102);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
