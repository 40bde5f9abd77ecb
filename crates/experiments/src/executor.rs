//! The sharded campaign executor.
//!
//! [`run_campaign_with`] fans a campaign's `(point, scenario)` jobs out over
//! worker threads and aggregates finished scenarios **in canonical order** on
//! the calling thread, which yields three properties the old mutex-and-`Vec`
//! fan-out lacked:
//!
//! 1. **Trial-level availability reuse** — each worker realizes a trial's
//!    availability once ([`RealizedTrial`]) and replays it for every
//!    heuristic of the trial, instead of re-realizing the same seed once per
//!    heuristic (~17× redundant sojourn sampling on full campaigns).
//!    Symmetrically, each scenario job creates **one shared
//!    [`EvalCache`]** next to its trials, so the Section V group quantities
//!    are computed once per `(scenario, member set)` instead of once per
//!    `(heuristic, trial, member set)` — the cache hit/miss counters land in
//!    [`ExecutorStats`] alongside the realization counts.
//! 2. **Deterministic results** — every finished instance lands in its
//!    pre-computed canonical slot (point-major, then scenario, trial,
//!    heuristic), so [`CampaignResults`] — and its serialized form — is
//!    byte-identical regardless of the thread count.
//! 3. **Streaming aggregation** — scenarios are reduced into
//!    [`CampaignAccumulator`] cells and (with [`ExecutorOptions::store`])
//!    written to JSONL shards as each point completes; retaining the raw
//!    `Vec<InstanceResult>` is opt-in ([`ExecutorOptions::retain_raw`]), so
//!    streaming campaigns run in O(points × heuristics) memory.
//!
//! With a store attached, `resume` skips every instance already present on
//! disk and re-runs only the missing ones; because instances round-trip
//! through the store exactly, a resumed campaign finishes with results
//! byte-identical to an uninterrupted run.

use crate::campaign::{CampaignConfig, CampaignResults, InstanceResult};
use crate::distrib::WorkerShard;
use crate::runner::{run_instance_on, trial_seed, InstanceSpec};
use crate::store::{encode_instance, CampaignStore, ShardWriter, StoredInstance};
use crate::stream::CampaignAccumulator;
use crate::suite::fingerprint_suffix;
use dg_analysis::EvalCache;
use dg_availability::rng::derive_seed;
use dg_availability::RealizedTrial;
use dg_platform::{Scenario, ScenarioParams};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The reference heuristic the paper compares everything against.
pub const DEFAULT_REFERENCE: &str = "IE";

/// Execution options orthogonal to the campaign configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecutorOptions {
    /// Retain the raw `Vec<InstanceResult>` in [`CampaignOutcome::results`].
    /// Off by default: streaming campaigns keep only the accumulator cells
    /// (and shards, when a store is attached). The table/figure code paths
    /// that consume raw results opt in.
    pub retain_raw: bool,
    /// Artifact store directory (`--out`): manifest plus one JSONL shard per
    /// experiment point, written as points complete.
    pub out: Option<PathBuf>,
    /// Resume from the store (`--resume`): skip instances already on disk.
    /// Requires [`ExecutorOptions::out`].
    pub resume: bool,
    /// Reference heuristic for the streaming accumulator
    /// ([`DEFAULT_REFERENCE`] when `None`).
    pub reference: Option<String>,
    /// Execute only this worker shard's contiguous point range
    /// (`--worker-shard I/N`) and record completion as a part manifest
    /// instead of finalizing `manifest.json`. Requires
    /// [`ExecutorOptions::out`]; the store is opened in worker mode (never
    /// cleared, never claimed).
    pub part: Option<WorkerShard>,
}

impl ExecutorOptions {
    /// Streaming-only execution: no raw retention, no store.
    pub fn new() -> ExecutorOptions {
        ExecutorOptions::default()
    }

    /// Toggle raw result retention.
    pub fn retain_raw(mut self, retain: bool) -> ExecutorOptions {
        self.retain_raw = retain;
        self
    }

    /// Attach an artifact store directory, optionally resuming from it.
    pub fn store(mut self, dir: impl Into<PathBuf>, resume: bool) -> ExecutorOptions {
        self.out = Some(dir.into());
        self.resume = resume;
        self
    }

    /// Restrict execution to one worker shard's point range.
    pub fn worker_shard(mut self, shard: WorkerShard) -> ExecutorOptions {
        self.part = Some(shard);
        self
    }
}

/// Open the store dictated by `options`: a plain/coordinator open claims the
/// directory (clearing stale artifacts on a fresh open), a worker-shard open
/// only validates it. Shared by the campaign, gap and sensitivity executors.
pub(crate) fn open_store(
    options: &ExecutorOptions,
    fingerprint: String,
) -> Result<Option<CampaignStore>, String> {
    match (&options.out, options.part) {
        (Some(dir), Some(_)) => {
            Ok(Some(CampaignStore::open_worker(dir, fingerprint, options.resume)?))
        }
        (Some(dir), None) => Ok(Some(CampaignStore::open(dir, fingerprint, options.resume)?)),
        (None, Some(_)) => {
            Err("a worker shard requires an output directory (--worker-shard needs --out)"
                .to_string())
        }
        (None, None) if options.resume => Err("resume requires an output directory".to_string()),
        (None, None) => Ok(None),
    }
}

/// Seal the store at the end of a run: a worker shard records its part
/// manifest (`manifest.part-I.json`), everything else finalizes
/// `manifest.json`. No-op without a store.
pub(crate) fn finalize_store(
    store: Option<&CampaignStore>,
    part: Option<WorkerShard>,
    num_points: usize,
) -> Result<(), String> {
    let Some(store) = store else { return Ok(()) };
    match part {
        Some(shard) => store.write_part(shard.index, shard.total, shard.points(num_points)),
        None => store.finalize(),
    }
}

/// Counters describing what one executor run actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Instances the campaign comprises (`config.total_runs()`).
    pub total_instances: usize,
    /// Instances simulated by this run.
    pub executed_instances: usize,
    /// Instances skipped because the store already held them.
    pub resumed_instances: usize,
    /// Availability realizations performed (one per trial with at least one
    /// missing instance — **not** one per instance; the difference is the
    /// work the shared [`RealizedTrial`] handle saves).
    pub trials_realized: usize,
    /// Shared evaluation caches created (one per scenario job with at least
    /// one missing instance — **not** one per instance; all heuristics and
    /// trials of the scenario evaluate through it).
    pub eval_caches: usize,
    /// Section V group sets computed across all scenario caches (cache
    /// misses). With sharing this is once per `(scenario, member set)`; the
    /// per-instance path would pay it once per `(heuristic, trial, member
    /// set)`.
    pub group_sets_computed: usize,
    /// Group-quantity lookups served from a shared cache (cache hits).
    pub group_cache_hits: usize,
}

impl ExecutorStats {
    /// Human-readable summary of the shared-evaluation-cache counters, in the
    /// style of the realization counts (the `eval cache:` line the binaries
    /// print and CI greps).
    pub fn eval_cache_summary(&self) -> String {
        let lookups = self.group_sets_computed + self.group_cache_hits;
        let hit_rate =
            if lookups == 0 { 0.0 } else { 100.0 * self.group_cache_hits as f64 / lookups as f64 };
        format!(
            "eval cache: {} group sets computed across {} scenario caches, {} hits ({:.1}% hit rate)",
            self.group_sets_computed, self.eval_caches, self.group_cache_hits, hit_rate
        )
    }
}

/// One fan-out job's output: the job's results in canonical order plus how
/// many of them were actually simulated (vs resumed from the store).
struct JobOutput {
    block: Vec<InstanceResult>,
    executed: usize,
}

/// Everything a campaign run produces.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign results; `results.results` is empty unless
    /// [`ExecutorOptions::retain_raw`] was set.
    pub results: CampaignResults,
    /// Streaming per-`(point, heuristic)` reduction of every instance.
    pub streaming: CampaignAccumulator,
    /// Execution counters.
    pub stats: ExecutorStats,
}

/// Resolve a requested thread count: `0` means "auto-detect available
/// parallelism" (the `--threads 0` CLI contract), anything else is literal.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    }
}

/// Seed used to generate scenario `scenario_index` of `point_index` (shared
/// by the campaign and sensitivity executors).
pub(crate) fn scenario_seed(base_seed: u64, point_index: usize, scenario_index: usize) -> u64 {
    derive_seed(base_seed, (point_index as u64) << 20 | scenario_index as u64)
}

/// The canonical JSON fingerprint of everything in a [`CampaignConfig`] that
/// determines results. `threads` is excluded (results are proven
/// thread-count-independent) and so is `engine` (both engines produce
/// identical outcomes), so a store can be resumed with a different thread
/// count or engine. For the default `paper` suite the fingerprint is
/// byte-identical to the pre-suite format (old stores keep resuming); any
/// other suite appends its name and canonical generator-model spec, so two
/// suites can never share a store.
pub fn config_fingerprint(config: &CampaignConfig) -> String {
    let suite = fingerprint_suffix(&config.suite, &config.model);
    format!(
        "{{\"kind\":\"campaign\",\"m\":[{}],\"ncom\":[{}],\"wmin\":[{}],\"workers\":{},\
         \"iterations\":{},\"scenarios\":{},\"trials\":{},\"cap\":{},\"heuristics\":[{}],\
         \"seed\":{},\"epsilon\":{:?}{suite}}}",
        join(&config.m_values),
        join(&config.ncom_values),
        join(&config.wmin_values),
        config.num_workers,
        config.iterations,
        config.scenarios_per_point,
        config.trials_per_scenario,
        config.max_slots,
        config.heuristics.iter().map(|h| format!("\"{}\"", h.name())).collect::<Vec<_>>().join(","),
        config.base_seed,
        config.epsilon,
    )
}

pub(crate) fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// Canonical slot of a stored instance within the campaign's flat result
/// vector, or `None` if the record does not belong to this campaign (wrong
/// suite tag, wrong parameters, out-of-range indices, unknown heuristic).
fn slot_of(
    record: &StoredInstance,
    config: &CampaignConfig,
    points: &[ScenarioParams],
    heuristic_names: &[String],
) -> Option<usize> {
    let p = record.point_index;
    let r = &record.result;
    if record.suite.as_deref() != config.suite_tag()
        || points.get(p) != Some(&r.params)
        || r.scenario_index >= config.scenarios_per_point
        || r.trial_index >= config.trials_per_scenario
    {
        return None;
    }
    let h = heuristic_names.iter().position(|n| *n == r.heuristic)?;
    let slot = ((p * config.scenarios_per_point + r.scenario_index) * config.trials_per_scenario
        + r.trial_index)
        * heuristic_names.len()
        + h;
    Some(slot)
}

/// Run a campaign under `options`.
///
/// Jobs (one per `(point, scenario)` pair) are distributed over
/// `resolve_threads(config.threads)` worker threads; `on_progress` is called
/// with `(completed_runs, total_runs)` — once up-front covering every resumed
/// instance, then after executed instances — and the reported `done` counts
/// are strictly increasing regardless of thread interleaving. Fails only on
/// store I/O or configuration-mismatch errors; a store-less campaign is
/// infallible.
pub fn run_campaign_with<F>(
    config: &CampaignConfig,
    options: &ExecutorOptions,
    on_progress: F,
) -> Result<CampaignOutcome, String>
where
    F: Fn(usize, usize) + Sync,
{
    let points = config.points();
    let num_heuristics = config.heuristics.len();
    let scenarios = config.scenarios_per_point;
    let trials = config.trials_per_scenario;
    let per_scenario = trials * num_heuristics;
    let total = config.total_runs();
    let heuristic_names: Vec<String> = config.heuristics.iter().map(|h| h.name()).collect();

    // A worker shard executes only its contiguous point range; a plain run
    // covers everything. Slots, seeds and shard names stay global either
    // way, so a shard's bytes equal the same points' bytes of a full run.
    let point_range = match options.part {
        Some(shard) => shard.points(points.len()),
        None => 0..points.len(),
    };
    let job_offset = point_range.start * scenarios;
    let num_jobs = point_range.len() * scenarios;
    let local_total = num_jobs * per_scenario;

    // Store setup and resume prefill: `prefilled[slot]` holds instances the
    // store already has; workers skip them.
    let store = open_store(options, config_fingerprint(config))?;
    let mut prefilled: Vec<Option<InstanceResult>> = vec![None; total];
    if options.resume {
        let store = store.as_ref().expect("resume requires a store");
        for record in store.load()? {
            if record.model.is_some() {
                continue; // model-tagged records belong to sensitivity stores
            }
            if let Some(slot) = slot_of(&record, config, &points, &heuristic_names) {
                prefilled[slot] = Some(record.result);
            }
        }
    }

    // Progress pre-seed (the --resume monotonicity fix): resumed instances
    // are not simulated, so counting them as the worker threads *encounter*
    // them interleaves with executed-instance counts in arbitrary thread
    // order and produced non-monotonic (done, total) callbacks. Instead,
    // every prefilled slot in the local range is counted up-front and
    // reported once; workers then report executed instances only, through a
    // last-reported guard that drops out-of-order publications.
    let preseeded = (0..num_jobs)
        .flat_map(|local| {
            let base = (job_offset + local) * per_scenario;
            base..base + per_scenario
        })
        .filter(|&slot| prefilled[slot].is_some())
        .count();
    let last_reported = std::sync::Mutex::new(0usize);
    let report = |d: usize| {
        let mut last = last_reported.lock().expect("progress lock poisoned");
        if d > *last {
            *last = d;
            on_progress(d, local_total);
        }
    };
    if preseeded > 0 {
        report(preseeded);
    }

    let done = AtomicUsize::new(preseeded);
    let executed = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let trials_realized = AtomicUsize::new(0);
    let eval_caches = AtomicUsize::new(0);
    let group_sets_computed = AtomicUsize::new(0);
    let group_cache_hits = AtomicUsize::new(0);
    let prefilled_ref = &prefilled;

    // One job per (point, scenario): generate the scenario once (skipped
    // entirely when every instance of the job was resumed), then run its
    // trials; each trial realizes availability once and replays it for every
    // heuristic that still needs to run, and the whole heuristic × trial
    // fan-out of the job evaluates through one shared EvalCache.
    let worker = |local: usize| -> JobOutput {
        let job = job_offset + local;
        let point_index = job / scenarios;
        let scenario_index = job % scenarios;
        let params = points[point_index];
        let base_slot = job * per_scenario;
        let job_missing =
            (0..per_scenario).any(|offset| prefilled_ref[base_slot + offset].is_none());
        let scenario = job_missing.then(|| {
            let seed = scenario_seed(config.base_seed, point_index, scenario_index);
            Scenario::generate_with(params, &config.model, seed)
        });
        let eval_cache =
            scenario.as_ref().map(|s| EvalCache::new(&s.platform, &s.master, config.epsilon));
        let mut block = Vec::with_capacity(per_scenario);
        let mut executed_in_job = 0usize;
        for trial_index in 0..trials {
            let trial_slots = base_slot + trial_index * num_heuristics;
            let any_missing = (0..num_heuristics).any(|i| prefilled_ref[trial_slots + i].is_none());
            let trial = any_missing.then(|| {
                let scenario = scenario.as_ref().expect("scenario generated for missing instance");
                trials_realized.fetch_add(1, Ordering::Relaxed);
                let ts = trial_seed(config.base_seed, scenario.seed, trial_index);
                // Realized per the scenario's trial model (Markov chains for
                // the paper suite; matched semi-Markov traces otherwise),
                // capped at the campaign's slot horizon.
                RealizedTrial::new(scenario.realize_trial(ts, config.max_slots))
            });
            for (i, heuristic) in config.heuristics.iter().enumerate() {
                match &prefilled_ref[trial_slots + i] {
                    Some(stored) => {
                        // Already counted by the progress pre-seed.
                        resumed.fetch_add(1, Ordering::Relaxed);
                        block.push(stored.clone());
                    }
                    None => {
                        let scenario =
                            scenario.as_ref().expect("scenario generated for missing instance");
                        let trial = trial.as_ref().expect("trial realized for missing instance");
                        let cache =
                            eval_cache.as_ref().expect("eval cache built for missing instance");
                        let spec =
                            InstanceSpec { scenario_index, trial_index, heuristic: *heuristic };
                        let (outcome, _) = run_instance_on(
                            scenario,
                            &spec,
                            trial.replay(),
                            cache,
                            config.base_seed,
                            config.max_slots,
                            config.engine,
                        );
                        executed.fetch_add(1, Ordering::Relaxed);
                        executed_in_job += 1;
                        block.push(InstanceResult {
                            params,
                            scenario_index,
                            trial_index,
                            heuristic: heuristic.name(),
                            outcome,
                        });
                        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                        report(d);
                    }
                }
            }
        }
        if let Some(cache) = &eval_cache {
            let stats = cache.stats();
            eval_caches.fetch_add(1, Ordering::Relaxed);
            group_sets_computed.fetch_add(stats.group_misses as usize, Ordering::Relaxed);
            group_cache_hits.fetch_add(stats.group_hits as usize, Ordering::Relaxed);
        }
        JobOutput { block, executed: executed_in_job }
    };

    // Aggregate on the calling thread, strictly in canonical job order: feed
    // the streaming accumulator, stream shard lines to the store, and
    // (opt-in) retain raw results — which, consumed in order, are already
    // canonically sorted. A store error aborts the fan-out.
    let reference = options.reference.as_deref().unwrap_or(DEFAULT_REFERENCE);
    let mut streaming = CampaignAccumulator::new(config, reference);
    let mut raw: Vec<InstanceResult> =
        if options.retain_raw { Vec::with_capacity(total) } else { Vec::new() };
    let mut shards = ShardWriter::new(store.as_ref(), scenarios);

    fan_out(num_jobs, resolve_threads(config.threads), worker, |local, output: JobOutput| {
        let job = job_offset + local;
        let point_index = job / scenarios;
        streaming.consume_scenario(point_index, &output.block);
        let keep_going = shards.consume(
            job,
            output.executed,
            output.block.iter().map(|r| encode_instance(point_index, config.suite_tag(), None, r)),
        );
        if options.retain_raw {
            raw.extend(output.block);
        }
        keep_going
    });

    shards.finish()?;
    finalize_store(store.as_ref(), options.part, points.len())?;
    Ok(CampaignOutcome {
        results: CampaignResults { config: config.clone(), results: raw },
        streaming,
        stats: ExecutorStats {
            total_instances: local_total,
            executed_instances: executed.into_inner(),
            resumed_instances: resumed.into_inner(),
            trials_realized: trials_realized.into_inner(),
            eval_caches: eval_caches.into_inner(),
            group_sets_computed: group_sets_computed.into_inner(),
            group_cache_hits: group_cache_hits.into_inner(),
        },
    })
}

/// Distribute `num_jobs` jobs over `threads` workers and hand every result to
/// `sink` **in job order** on the calling thread. The sink returns `true` to
/// keep going; returning `false` aborts the fan-out — already-claimed jobs
/// finish, no new jobs start.
///
/// Workers pull job indices from a shared atomic counter and send results
/// through a channel; the calling thread re-sequences out-of-order arrivals
/// through a reorder buffer. An admission gate keeps workers within a bounded
/// window of the in-order consumption frontier, so the buffer holds O(threads)
/// blocks even when one job straggles — this is what preserves the streaming
/// memory bound. With `threads <= 1` the jobs simply run inline, in order,
/// with no spawning — a sequential campaign is exactly a `for` loop. A worker
/// panic aborts the gate (so no thread waits forever) and propagates when the
/// thread scope closes.
pub(crate) fn fan_out<R, W, S>(num_jobs: usize, threads: usize, worker: W, mut sink: S)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    S: FnMut(usize, R) -> bool,
{
    let threads = threads.clamp(1, num_jobs.max(1));
    if threads == 1 {
        for job in 0..num_jobs {
            let result = worker(job);
            if !sink(job, result) {
                return;
            }
        }
        return;
    }
    let next_job = AtomicUsize::new(0);
    let gate = Gate::new(threads * 4);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let worker = &worker;
        let next_job = &next_job;
        let gate = &gate;
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || {
                // A panicking worker would leave its job forever missing from
                // the reorder sequence, stalling the admission gate; abort the
                // gate on unwind so the other workers exit and the panic can
                // propagate through the scope instead of deadlocking.
                let guard = PanicGuard(gate);
                loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= num_jobs || !gate.admit(job) || tx.send((job, worker(job))).is_err() {
                        break;
                    }
                }
                drop(guard);
            });
        }
        drop(tx);
        // Re-sequence: the sink must observe jobs in canonical order.
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut expect = 0usize;
        'drain: while let Ok((job, result)) = rx.recv() {
            pending.insert(job, result);
            while let Some(result) = pending.remove(&expect) {
                let keep_going = sink(expect, result);
                expect += 1;
                gate.advance(expect);
                if !keep_going {
                    gate.abort();
                    break 'drain;
                }
            }
        }
    });
}

/// Admission gate of [`fan_out`]: workers may run at most `window` jobs ahead
/// of the sink's in-order consumption frontier.
struct Gate {
    window: usize,
    state: std::sync::Mutex<GateState>,
    wake: std::sync::Condvar,
}

struct GateState {
    consumed: usize,
    aborted: bool,
}

impl Gate {
    fn new(window: usize) -> Gate {
        Gate {
            window: window.max(1),
            state: std::sync::Mutex::new(GateState { consumed: 0, aborted: false }),
            wake: std::sync::Condvar::new(),
        }
    }

    /// Block until `job` is within the window (or the fan-out aborted).
    /// Returns `false` on abort. Never blocks the lowest outstanding job
    /// (`job == consumed` always satisfies `job < consumed + window`), so the
    /// sink's next-expected job can always be produced — no deadlock.
    fn admit(&self, job: usize) -> bool {
        let mut state = self.state.lock().expect("gate lock poisoned");
        while !state.aborted && job >= state.consumed + self.window {
            state = self.wake.wait(state).expect("gate lock poisoned");
        }
        !state.aborted
    }

    fn advance(&self, consumed: usize) {
        self.state.lock().expect("gate lock poisoned").consumed = consumed;
        self.wake.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("gate lock poisoned").aborted = true;
        self.wake.notify_all();
    }
}

/// Aborts the gate if the holding thread unwinds (see [`fan_out`]).
struct PanicGuard<'a>(&'a Gate);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::store::{decode_instance, shard_name, MANIFEST_NAME};
    use crate::tables::{render_table, table_comparison};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dg-executor-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Canonical serialization of retained campaign results.
    fn serialize(results: &CampaignResults, scenarios: usize, trials: usize, h: usize) -> String {
        let per_point = scenarios * trials * h;
        results
            .results
            .iter()
            .enumerate()
            .map(|(i, r)| encode_instance(i / per_point, None, None, r))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// 4 experiment points x 2 scenarios x 2 trials x 2 heuristics.
    fn test_config() -> CampaignConfig {
        let mut config = CampaignConfig::smoke();
        config.ncom_values = vec![5, 10];
        config.wmin_values = vec![1, 2];
        config.scenarios_per_point = 2;
        config.trials_per_scenario = 2;
        config
    }

    #[test]
    fn fan_out_sink_sees_jobs_in_order() {
        for threads in [1, 4, 16] {
            let mut seen = Vec::new();
            fan_out(
                37,
                threads,
                |j| j * j,
                |j, r| {
                    seen.push((j, r));
                    true
                },
            );
            assert_eq!(seen.len(), 37, "threads = {threads}");
            for (i, &(j, r)) in seen.iter().enumerate() {
                assert_eq!(i, j);
                assert_eq!(r, j * j);
            }
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_job() {
        let mut calls = 0;
        fan_out(
            0,
            8,
            |_| (),
            |_, ()| {
                calls += 1;
                true
            },
        );
        assert_eq!(calls, 0);
        fan_out(
            1,
            8,
            |j| j,
            |_, r| {
                calls += r + 1;
                true
            },
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn fan_out_sink_abort_stops_claiming_jobs() {
        for threads in [1, 4] {
            let started = AtomicUsize::new(0);
            let mut consumed = 0usize;
            fan_out(
                500,
                threads,
                |j| {
                    started.fetch_add(1, Ordering::Relaxed);
                    j
                },
                |_, _| {
                    consumed += 1;
                    consumed < 5
                },
            );
            assert_eq!(consumed, 5, "threads = {threads}");
            // No new jobs start after the abort; only jobs already claimed or
            // admitted through the gate window can have run.
            assert!(
                started.load(Ordering::Relaxed) < 5 + threads * 5 + 1,
                "threads = {threads}: {} jobs started after an abort at 5",
                started.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn fan_out_worker_panic_propagates_without_deadlock() {
        // A panicking worker leaves a hole in the job sequence; the gate must
        // be aborted (not waited on forever) and the panic must surface.
        let result = std::panic::catch_unwind(|| {
            fan_out(
                200,
                4,
                |j| {
                    if j == 3 {
                        panic!("worker 3 exploded");
                    }
                    j
                },
                |_, _| true,
            );
        });
        assert!(result.is_err(), "worker panic must propagate through fan_out");
    }

    #[test]
    fn fan_out_reorder_buffer_is_bounded_by_the_gate() {
        // Job 0 straggles while the other workers churn. Until job 0 lands,
        // the consumption frontier is stuck at 0, so the admission gate lets
        // at most `window = threads * 4` jobs start — the reorder buffer can
        // never grow toward "the whole campaign" behind one slow job.
        let threads = 4;
        let started = AtomicUsize::new(0);
        let observed_while_straggling = AtomicUsize::new(0);
        fan_out(
            300,
            threads,
            |j| {
                started.fetch_add(1, Ordering::Relaxed);
                if j == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    // Nothing was consumed yet (job 0 has not been sent), so
                    // everything started so far was admitted against
                    // consumed = 0.
                    observed_while_straggling
                        .store(started.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            },
            |_, ()| true,
        );
        let observed = observed_while_straggling.load(Ordering::Relaxed);
        assert!(observed >= 1);
        assert!(observed <= threads * 4, "{observed} jobs ran ahead of a straggling job 0");
    }

    #[test]
    fn results_are_byte_identical_across_thread_counts() {
        // The satellite guarantee: serialized campaign results are
        // byte-identical for threads = 1 and threads = 8 — ordering is
        // canonical, not thread-timing-dependent.
        let mut config = test_config();
        let h = config.heuristics.len();
        config.threads = 1;
        let sequential = run_campaign(&config, |_, _| {});
        config.threads = 8;
        let parallel = run_campaign(&config, |_, _| {});
        assert_eq!(sequential.results, parallel.results);
        assert_eq!(
            serialize(&sequential, 2, 2, h),
            serialize(&parallel, 2, 2, h),
            "serialized results differ between thread counts"
        );
    }

    #[test]
    fn shared_trials_realize_once_per_trial_not_per_instance() {
        let config = test_config();
        let outcome = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        let trials = config.points().len() * 2 * 2; // points x scenarios x trials
        assert_eq!(outcome.stats.trials_realized, trials);
        assert_eq!(outcome.stats.executed_instances, config.total_runs());
        // 2 heuristics per trial: half the realizations of the per-instance path.
        assert_eq!(outcome.stats.executed_instances, trials * 2);
        // Exactly one shared evaluation cache per scenario job, with the
        // group tables reused across the job's heuristics and trials.
        assert_eq!(outcome.stats.eval_caches, config.points().len() * 2);
        assert!(outcome.stats.group_sets_computed > 0);
        assert!(outcome.stats.group_cache_hits > outcome.stats.group_sets_computed);
        let summary = outcome.stats.eval_cache_summary();
        assert!(summary.contains("group sets computed"), "{summary}");
        // Streaming-only run retains nothing raw.
        assert!(outcome.results.results.is_empty());
        assert_eq!(outcome.streaming.scenarios_consumed(), config.points().len() * 2);
    }

    #[test]
    fn eval_cache_stats_are_thread_count_independent() {
        // The cache counters aggregate per-scenario caches, so they must be
        // a pure function of the campaign — not of thread interleaving.
        let mut config = test_config();
        config.threads = 1;
        let sequential = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        config.threads = 8;
        let parallel = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {}).unwrap();
        assert_eq!(sequential.stats, parallel.stats);
        assert!(sequential.stats.group_sets_computed > 0);
    }

    #[test]
    fn executor_matches_legacy_per_instance_results() {
        // The refactor must not change a single outcome: the executor's
        // results — produced with one shared availability realization per
        // trial AND one shared EvalCache per scenario job — equal
        // per-instance `run_instance` runs, which realize their own trial and
        // build a fresh private estimator each.
        use crate::runner::run_instance;
        let config = test_config();
        let results = run_campaign(&config, |_, _| {});
        let points = config.points();
        for (i, r) in results.results.iter().enumerate() {
            let h = config.heuristics.len();
            let per_scenario = config.trials_per_scenario * h;
            let per_point = config.scenarios_per_point * per_scenario;
            let point_index = i / per_point;
            let scenario = Scenario::generate(
                points[point_index],
                scenario_seed(config.base_seed, point_index, r.scenario_index),
            );
            let spec = InstanceSpec {
                scenario_index: r.scenario_index,
                trial_index: r.trial_index,
                heuristic: config.heuristics[i % h],
            };
            let fresh = run_instance(
                &scenario,
                &spec,
                config.base_seed,
                config.max_slots,
                config.epsilon,
                config.engine,
            );
            assert_eq!(fresh, r.outcome, "instance {i} diverged");
        }
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let mut config = CampaignConfig::smoke();
        config.threads = 0; // must not panic or hang
        let auto = run_campaign(&config, |_, _| {});
        config.threads = 1;
        assert_eq!(auto.results, run_campaign(&config, |_, _| {}).results);
    }

    #[test]
    fn store_writes_manifest_and_canonical_shards() {
        let dir = temp_dir("shards");
        let config = test_config();
        let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
        let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        assert!(dir.join(MANIFEST_NAME).is_file());
        // Shards hold exactly the retained results, in canonical order.
        let mut from_shards = Vec::new();
        for p in 0..config.points().len() {
            let text = fs::read_to_string(dir.join(shard_name(p))).unwrap();
            for line in text.lines() {
                let record = decode_instance(line).unwrap();
                assert_eq!(record.point_index, p);
                from_shards.push(record.result);
            }
        }
        assert_eq!(from_shards, outcome.results.results);
        // And they are byte-identical to an 8-thread run's shards.
        let eight = temp_dir("shards8");
        let mut config8 = config.clone();
        config8.threads = 8;
        run_campaign_with(&config8, &ExecutorOptions::new().store(&eight, false), |_, _| {})
            .unwrap();
        for p in 0..config.points().len() {
            assert_eq!(
                fs::read(dir.join(shard_name(p))).unwrap(),
                fs::read(eight.join(shard_name(p))).unwrap(),
                "shard {p} differs between thread counts"
            );
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&eight);
    }

    #[test]
    fn worker_shards_merge_to_a_byte_identical_store() {
        use crate::distrib::{merge_parts, WorkerShard};
        use crate::store::part_manifest_name;
        let single = temp_dir("single");
        let config = test_config();
        run_campaign_with(&config, &ExecutorOptions::new().store(&single, false), |_, _| {})
            .unwrap();

        // Simulate a 3-worker split in-process: coordinator claims the shared
        // directory, each "worker" executes its shard range into it.
        let shared = temp_dir("sharded");
        let fingerprint = config_fingerprint(&config);
        let store = CampaignStore::open(&shared, fingerprint, false).unwrap();
        let num_points = config.points().len();
        let h = config.heuristics.len();
        for index in 1..=3 {
            let shard = WorkerShard::new(index, 3).unwrap();
            let options = ExecutorOptions::new().store(&shared, false).worker_shard(shard);
            let outcome = run_campaign_with(&config, &options, |_, _| {}).unwrap();
            assert_eq!(
                outcome.stats.total_instances,
                shard.points(num_points).len() * 2 * 2 * h,
                "worker {index} executed outside its range"
            );
            assert!(shared.join(part_manifest_name(index)).is_file());
            assert!(!store.is_complete().unwrap(), "a worker must not finalize the manifest");
        }
        let report = merge_parts(&store, 3, num_points).unwrap();
        assert_eq!(report.points, num_points);
        assert_eq!(
            fs::read(shared.join(MANIFEST_NAME)).unwrap(),
            fs::read(single.join(MANIFEST_NAME)).unwrap(),
            "merged manifest differs from the single-process manifest"
        );
        for p in 0..num_points {
            assert_eq!(
                fs::read(shared.join(shard_name(p))).unwrap(),
                fs::read(single.join(shard_name(p))).unwrap(),
                "shard {p} differs between the 3-worker split and the single-process run"
            );
        }
        // The merged store resumes like any single-process store.
        let resumed =
            run_campaign_with(&config, &ExecutorOptions::new().store(&shared, true), |_, _| {})
                .unwrap();
        assert_eq!(resumed.stats.executed_instances, 0);
        assert_eq!(resumed.stats.resumed_instances, config.total_runs());
        let _ = fs::remove_dir_all(&single);
        let _ = fs::remove_dir_all(&shared);
    }

    #[test]
    fn worker_shard_without_out_dir_errors() {
        use crate::distrib::WorkerShard;
        let config = CampaignConfig::smoke();
        let options = ExecutorOptions::new().worker_shard(WorkerShard::new(1, 2).unwrap());
        let err = run_campaign_with(&config, &options, |_, _| {}).unwrap_err();
        assert!(err.contains("--worker-shard needs --out"), "{err}");
    }

    fn table_of(results: &CampaignResults) -> String {
        let refs: Vec<_> = results.results.iter().collect();
        let names: Vec<String> = results.config.heuristics.iter().map(|h| h.name()).collect();
        render_table("T", &table_comparison(&refs, "IE", &names))
    }

    fn truncate_shard(dir: &Path, point: usize, keep_lines: usize, cut_bytes: usize) {
        let path = dir.join(shard_name(point));
        let text = fs::read_to_string(&path).unwrap();
        let mut kept: String = text.lines().take(keep_lines).map(|l| format!("{l}\n")).collect();
        if let Some(partial) = text.lines().nth(keep_lines) {
            kept.push_str(&partial[..partial.len().min(cut_bytes)]);
        }
        fs::write(&path, kept).unwrap();
    }

    #[test]
    fn resume_after_mid_campaign_kill_matches_uninterrupted_run() {
        // The satellite resume test: complete a campaign, simulate a kill by
        // truncating one shard mid-line and deleting another, then re-run
        // with resume. Results, tables, the manifest and every shard must be
        // byte-identical to the uninterrupted run.
        let dir = temp_dir("resume");
        let config = test_config();
        let options = ExecutorOptions::new().retain_raw(true).store(&dir, false);
        let uninterrupted = run_campaign_with(&config, &options, |_, _| {}).unwrap();
        let manifest_before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let shards_before: Vec<Vec<u8>> = (0..config.points().len())
            .map(|p| fs::read(dir.join(shard_name(p))).unwrap())
            .collect();

        // Simulate the kill: shard 1 survives truncated mid-line, shard 2 is
        // lost entirely, and the manifest still says incomplete (finalize
        // never ran).
        truncate_shard(&dir, 1, 3, 25);
        fs::remove_file(dir.join(shard_name(2))).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                config_fingerprint(&config)
            ),
        )
        .unwrap();
        let store = CampaignStore::open(&dir, config_fingerprint(&config), true).unwrap();
        assert!(!store.is_complete().unwrap());

        let resume_options = ExecutorOptions::new().retain_raw(true).store(&dir, true);
        let resumed = run_campaign_with(&config, &resume_options, |_, _| {}).unwrap();
        assert_eq!(resumed.results, uninterrupted.results);
        assert_eq!(table_of(&resumed.results), table_of(&uninterrupted.results));
        // Only the missing instances re-ran: shard 1 kept 3 of its 8
        // instances, shard 2 lost all 8; shards 0 and 3 were intact.
        assert_eq!(resumed.stats.resumed_instances, 2 * 8 + 3);
        assert_eq!(resumed.stats.executed_instances, 8 + 5);
        assert!(resumed.stats.trials_realized < config.points().len() * 2 * 2);
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), manifest_before);
        for (p, before) in shards_before.iter().enumerate() {
            assert_eq!(&fs::read(dir.join(shard_name(p))).unwrap(), before, "shard {p}");
        }

        // Resuming a complete store re-runs nothing.
        let resumed_again = run_campaign_with(&config, &resume_options, |_, _| {}).unwrap();
        assert_eq!(resumed_again.stats.executed_instances, 0);
        assert_eq!(resumed_again.stats.trials_realized, 0);
        assert_eq!(resumed_again.results, uninterrupted.results);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_mismatched_config_is_rejected() {
        let dir = temp_dir("reject");
        let config = test_config();
        run_campaign_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();
        let mut other = config.clone();
        other.base_seed ^= 1;
        let err = run_campaign_with(&other, &ExecutorOptions::new().store(&dir, true), |_, _| {})
            .unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        // Thread count and engine are not part of the identity.
        let mut threaded = config.clone();
        threaded.threads = 8;
        threaded.engine = dg_sim::SimMode::SlotStepped;
        assert!(run_campaign_with(&threaded, &ExecutorOptions::new().store(&dir, true), |_, _| {})
            .is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_out_dir_errors() {
        let config = CampaignConfig::smoke();
        let mut options = ExecutorOptions::new();
        options.resume = true;
        assert!(run_campaign_with(&config, &options, |_, _| {}).is_err());
    }

    #[test]
    fn progress_covers_resumed_instances() {
        let total = test_config().total_runs();
        let assert_monotonic = |seen: &[(usize, usize)]| {
            assert!(!seen.is_empty());
            assert!(seen.iter().all(|&(_, t)| t == total));
            // The bugfix pin: (done, total) callbacks are strictly increasing
            // — resumed instances are pre-seeded from the store, never
            // interleaved with executed counts in thread order.
            for pair in seen.windows(2) {
                assert!(pair[0].0 < pair[1].0, "non-monotonic progress: {pair:?}");
            }
            assert_eq!(seen.last().unwrap().0, total, "progress must end at total");
        };

        let dir = temp_dir("progress");
        let mut config = test_config();
        config.threads = 4; // exercise the cross-thread publication order
        run_campaign_with(&config, &ExecutorOptions::new().store(&dir, false), |_, _| {}).unwrap();

        // Fully resumed: everything is covered by one up-front report.
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_campaign_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, vec![(total, total)]);
        assert_eq!(outcome.stats.resumed_instances, total);

        // Partially resumed: the pre-seed covers the stored instances, the
        // re-executed remainder reports on top, still monotonically.
        truncate_shard(&dir, 1, 3, 0);
        fs::remove_file(dir.join(shard_name(2))).unwrap();
        fs::write(
            dir.join(MANIFEST_NAME),
            format!(
                "{{\"version\":{},\"complete\":false,\"config\":{}}}\n",
                crate::store::STORE_VERSION,
                config_fingerprint(&config)
            ),
        )
        .unwrap();
        let seen = Mutex::new(Vec::new());
        let outcome =
            run_campaign_with(&config, &ExecutorOptions::new().store(&dir, true), |done, total| {
                seen.lock().unwrap().push((done, total))
            })
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_monotonic(&seen);
        assert_eq!(seen[0].0, outcome.stats.resumed_instances);
        assert!(outcome.stats.executed_instances > 0);

        // A fresh run (nothing to pre-seed) is monotonic too.
        let seen = Mutex::new(Vec::new());
        run_campaign_with(&config, &ExecutorOptions::new(), |done, total| {
            seen.lock().unwrap().push((done, total))
        })
        .unwrap();
        assert_monotonic(&seen.into_inner().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }
}
