//! `campaign_throughput` — the Section VII campaign harness end to end:
//! shared-trial realization accounting plus a multi-process scaling matrix
//! over the coordinator/worker protocol of `dg_experiments::distrib`.
//!
//! Two layers are pinned:
//!
//! 1. **Realization accounting** — the sharded executor realizes each
//!    trial's availability once and replays it for every heuristic
//!    (`RealizedTrial`); the pre-executor path re-realizes per instance.
//!    The bench asserts the executor performs exactly `heuristics`× fewer
//!    realizations.
//! 2. **Multi-process scaling** — the same campaign is executed at
//!    `workers ∈ {1, 2, 4}` OS processes × `threads ∈ {1, 2}` in-process
//!    threads. Multi-worker cells re-spawn this binary in a hidden
//!    `--worker PART TOTAL OUT THREADS` mode, merge the part manifests,
//!    and assert every merged store is **byte-identical** to the
//!    single-process `workers = 1, threads = 1` baseline.
//!
//! Like `scaling`, this is a deterministic single-pass harness (not a
//! criterion target): it writes its wall-clock matrix and realization
//! counts to `BENCH_campaign.json` at the workspace root — a
//! machine-readable baseline meant to be committed, so future
//! optimisation PRs diff against it.
//!
//! Environment:
//! * `DG_CAMPAIGN_MAX_WORKERS` caps the widest process count (CI smoke
//!   runs use `2`; the committed JSON comes from a full run).

use dg_experiments::campaign::CampaignConfig;
use dg_experiments::distrib::{merge_parts, WorkerShard};
use dg_experiments::executor::{config_fingerprint, run_campaign_with, ExecutorOptions};
use dg_experiments::runner::{run_instance, InstanceSpec};
use dg_experiments::store::{shard_name, CampaignStore, MANIFEST_NAME};
use dg_heuristics::HeuristicSpec;
use dg_platform::Scenario;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Process counts swept (capped by `DG_CAMPAIGN_MAX_WORKERS`).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// In-process thread counts swept per process count.
const THREAD_COUNTS: [usize; 2] = [1, 2];

/// Four experiment points (`wmin ∈ {1, …, 4}` at `m = 5`, `ncom = 10`) with
/// 8 heuristics sharing each trial — enough points that every worker of the
/// widest split owns a non-empty contiguous range.
fn bench_config(threads: usize) -> CampaignConfig {
    let mut config = CampaignConfig::smoke();
    config.m_values = vec![5];
    config.ncom_values = vec![10];
    config.wmin_values = vec![1, 2, 3, 4];
    config.num_workers = 12;
    config.iterations = 3;
    config.scenarios_per_point = 4;
    config.trials_per_scenario = 2;
    config.max_slots = 30_000;
    config.threads = threads;
    config.heuristics = ["IE", "IAY", "IY", "IP", "Y-IE", "P-IE", "E-IAY", "RANDOM"]
        .iter()
        .map(|n| HeuristicSpec::parse(n).expect("heuristic name"))
        .collect();
    config
}

/// The pre-executor path: every instance realizes the trial's availability
/// itself (`run_instance`), so a trial is realized once **per heuristic**.
fn per_instance_campaign(config: &CampaignConfig) -> usize {
    let points = config.points();
    let mut realizations = 0;
    for (point_index, &params) in points.iter().enumerate() {
        for scenario_index in 0..config.scenarios_per_point {
            let seed = dg_availability::rng::derive_seed(
                config.base_seed,
                (point_index as u64) << 20 | scenario_index as u64,
            );
            let scenario = Scenario::generate(params, seed);
            for trial_index in 0..config.trials_per_scenario {
                for heuristic in &config.heuristics {
                    let spec = InstanceSpec { scenario_index, trial_index, heuristic: *heuristic };
                    let outcome = run_instance(
                        &scenario,
                        &spec,
                        config.base_seed,
                        config.max_slots,
                        config.epsilon,
                        config.engine,
                    );
                    std::hint::black_box(outcome);
                    realizations += 1;
                }
            }
        }
    }
    realizations
}

/// The hidden child-process mode: execute one contiguous shard of the bench
/// campaign into the shared store and exit. Spawned by multi-worker cells as
/// `current_exe() --worker PART TOTAL OUT THREADS`.
fn run_worker(args: &[String]) {
    let part: usize = args[0].parse().expect("--worker PART must be an integer");
    let total: usize = args[1].parse().expect("--worker TOTAL must be an integer");
    let dir = PathBuf::from(&args[2]);
    let threads: usize = args[3].parse().expect("--worker THREADS must be an integer");
    let config = bench_config(threads);
    let shard = WorkerShard::new(part, total).expect("bench spawns valid shards");
    let options = ExecutorOptions::new().store(&dir, false).worker_shard(shard);
    run_campaign_with(&config, &options, |_, _| {}).expect("bench worker campaign");
}

/// Assert every store artifact of `dir` equals the baseline byte-for-byte.
fn assert_store_matches(baseline: &Path, dir: &Path, num_points: usize, label: &str) {
    assert_eq!(
        fs::read(baseline.join(MANIFEST_NAME)).expect("baseline manifest"),
        fs::read(dir.join(MANIFEST_NAME)).expect("cell manifest"),
        "{label}: merged manifest differs from the single-process baseline"
    );
    for point in 0..num_points {
        assert_eq!(
            fs::read(baseline.join(shard_name(point))).expect("baseline shard"),
            fs::read(dir.join(shard_name(point))).expect("cell shard"),
            "{label}: shard {point} differs from the single-process baseline"
        );
    }
}

/// One measured `(workers, threads)` cell of the scaling matrix.
struct Cell {
    workers: usize,
    threads: usize,
    wall_millis: f64,
}

/// Run the bench campaign at `workers` processes × `threads` threads into
/// `dir` and return the wall-clock cell. Multi-worker cells spawn this
/// binary's `--worker` mode and merge the resulting part manifests.
fn measure(workers: usize, threads: usize, dir: &Path) -> Cell {
    let _ = fs::remove_dir_all(dir);
    let config = bench_config(threads);
    let num_points = config.points().len();
    let start = Instant::now();
    if workers == 1 {
        run_campaign_with(&config, &ExecutorOptions::new().store(dir, false), |_, _| {})
            .expect("single-process bench campaign");
    } else {
        let store = CampaignStore::open(dir, config_fingerprint(&config), false)
            .expect("claim bench store");
        let exe = std::env::current_exe().expect("bench binary path");
        let children: Vec<std::process::Child> = (1..=workers)
            .map(|part| {
                std::process::Command::new(&exe)
                    .arg("--worker")
                    .arg(part.to_string())
                    .arg(workers.to_string())
                    .arg(dir)
                    .arg(threads.to_string())
                    .spawn()
                    .expect("spawn bench worker")
            })
            .collect();
        for (i, mut child) in children.into_iter().enumerate() {
            let status = child.wait().expect("wait for bench worker");
            assert!(status.success(), "bench worker {}/{workers} exited with {status}", i + 1);
        }
        merge_parts(&store, workers, num_points).expect("merge bench parts");
    }
    Cell { workers, threads, wall_millis: start.elapsed().as_secs_f64() * 1e3 }
}

/// Hand-rolled JSON (the workspace vendors a no-op `serde` shim); every
/// field is numeric or a fixed ASCII literal, hence no escaping is needed.
fn render_json(
    config: &CampaignConfig,
    shared_realizations: usize,
    per_instance_realizations: usize,
    evals_per_point: usize,
    cells: &[Cell],
) -> String {
    let host_cpus = dg_bench::host_cpus();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"campaign\",\n");
    // Interpretation key for the matrix below: on a 1-CPU host the
    // wall-clock stays flat across workers/threads by construction.
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"points\": {},\n", config.points().len()));
    out.push_str(&format!("  \"instances\": {},\n", config.total_runs()));
    out.push_str(&format!(
        "  \"shape\": {{\"scenarios_per_point\": {}, \"trials_per_scenario\": {}, \"heuristics\": {}}},\n",
        config.scenarios_per_point,
        config.trials_per_scenario,
        config.heuristics.len(),
    ));
    out.push_str(&format!(
        "  \"realizations\": {{\"shared_trials\": {shared_realizations}, \"per_instance\": {per_instance_realizations}}},\n"
    ));
    out.push_str(&format!("  \"evals_per_point\": {evals_per_point},\n"));
    out.push_str("  \"matrix\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"threads\": {}, \"wall_millis\": {:.3}, \"byte_identical\": true}}{}\n",
            cell.workers,
            cell.threads,
            cell.wall_millis,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--worker") {
        run_worker(&args[2..]);
        return;
    }
    let max_workers: usize = std::env::var("DG_CAMPAIGN_MAX_WORKERS")
        .ok()
        .map(|v| v.parse().expect("DG_CAMPAIGN_MAX_WORKERS must be an integer"))
        .unwrap_or(usize::MAX);

    // Realization + evaluation accounting: the executor realizes per trial
    // and evaluates through one shared cache per scenario; the per-instance
    // path realizes per (trial, heuristic).
    let config = bench_config(1);
    let outcome = run_campaign_with(&config, &ExecutorOptions::new(), |_, _| {})
        .expect("store-less campaign cannot fail");
    let per_instance_realizations = per_instance_campaign(&config);
    let evals_per_point = (outcome.stats.group_sets_computed + outcome.stats.group_cache_hits)
        / config.points().len();
    println!(
        "availability realizations per campaign: executor (shared trials) = {}, \
         per-instance = {} ({}x fewer); group evals per point = {}",
        outcome.stats.trials_realized,
        per_instance_realizations,
        per_instance_realizations / outcome.stats.trials_realized.max(1),
        evals_per_point,
    );
    assert_eq!(
        outcome.stats.trials_realized * config.heuristics.len(),
        per_instance_realizations,
        "shared trials must realize availability heuristics-times less often"
    );

    // The scaling matrix: workers × threads, every cell's store checked
    // byte-identical against the (1 process, 1 thread) baseline.
    let scratch = std::env::temp_dir().join(format!("dg-bench-campaign-{}", std::process::id()));
    let num_points = config.points().len();
    let baseline = scratch.join("w1-t1");
    let mut cells = Vec::new();
    for &workers in WORKER_COUNTS.iter().filter(|&&w| w <= max_workers) {
        for &threads in &THREAD_COUNTS {
            let dir = scratch.join(format!("w{workers}-t{threads}"));
            let cell = measure(workers, threads, &dir);
            assert_store_matches(
                &baseline,
                &dir,
                num_points,
                &format!("{workers} workers x {threads} threads"),
            );
            println!(
                "campaign: workers = {}  threads = {}  wall = {:>9.3} ms  (byte-identical)",
                cell.workers, cell.threads, cell.wall_millis
            );
            cells.push(cell);
        }
    }
    assert!(!cells.is_empty(), "DG_CAMPAIGN_MAX_WORKERS filtered out every process count");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let json = render_json(
        &config,
        outcome.stats.trials_realized,
        per_instance_realizations,
        evals_per_point,
        &cells,
    );
    std::fs::write(path, json).expect("write BENCH_campaign.json");
    println!("campaign: wrote {} matrix cell(s) to {path}", cells.len());
    let _ = fs::remove_dir_all(&scratch);
}
