//! `scaling` — one scheduling decision vs platform size `p ∈ {20, …, 10⁶}`.
//!
//! The tentpole claim of the scaling layer is that a massive-preset
//! scheduling decision stays tractable at up to `p = 10⁶` workers: the
//! indexed candidate scan makes the per-decision evaluation count
//! `O(classes · m_tasks²)` — independent of `p` once the platform's
//! equivalence classes saturate — while the only `p`-proportional work left
//! is the single `O(p)` index-build pass. This bench pins the claim: for
//! each size it builds a massive-model scenario, runs one `IE` decision
//! under the forced indexed scan, counts group-quantity lookups through the
//! shared [`EvalCache`], and asserts the count stays under an `O(p log p)`
//! envelope.
//!
//! The record separates the `O(p)` index build from the scan proper
//! (`index_build_micros` vs `scan_micros`) and counts both the joint-series
//! terms of the final groups (`series_terms`) and the prefix-accumulator
//! extensions behind them (`accumulators_built`): wall-clock across sizes
//! is **not** monotone in `p` (the committed trajectory had 2 000 workers
//! at ≈ 3.5× the per-eval cost of 20 000 with near-identical `evals`,
//! `classes`, misses and `series_terms`). The cause is **accumulator-chain
//! sharing**, not the index build and not the final series length: a group
//! miss on members `S` reuses the memoized accumulator of the longest
//! sorted prefix of `S`, so its cost is the number of *new* chain links —
//! and at `p = 2 000` the winning workers interleave with the class
//! representatives in sorted order badly enough that the decision builds
//! ≈ 11× more accumulators (≈ 9.6·10⁴ vs ≈ 8.6·10³) for the same misses.
//! `accumulators_built` commits that attribution to the record; the fix for
//! the timing itself is the build/scan split, which pins the anomaly to the
//! scan side where the chain work lives.
//!
//! Unlike the criterion targets, this bench is a deterministic single-pass
//! harness: it writes its measurements to `BENCH_scaling.json` at the
//! workspace root — a machine-readable trajectory point meant to be
//! committed, so future optimisation PRs diff against it. Each point also
//! records `host_cpus`, so a diff across machines is attributable too.
//!
//! Environment:
//! * `DG_SCALING_MAX_M` caps the largest platform size (CI smoke runs use
//!   `2000` to stay inside the time budget; the committed JSON comes from a
//!   full run).

use std::time::Instant;

use dg_analysis::EvalCache;
use dg_availability::ProcState;
use dg_heuristics::passive::{build_incremental, PassiveKind};
use dg_heuristics::{ScanStrategy, SchedulingContext, WorkerIndex};
use dg_platform::{AvailabilityRegime, Scenario, ScenarioModel, ScenarioParams, SpeedProfile};
use dg_sim::view::{SimView, WorkerView};
use dg_sim::worker_state::WorkerDynamicState;
use dg_sim::Assignment;

/// Platform sizes swept, smallest first (paper scale up to the colossal
/// preset's 10⁶ workers).
const SIZES: [usize; 6] = [20, 200, 2_000, 20_000, 200_000, 1_000_000];

/// Scenario-generation seed (the paper campaign's base seed).
const SEED: u64 = 20_130_520;

/// Tasks per iteration, `ncom` and `wmin` of the massive/colossal presets.
const TASKS: usize = 50;
const NCOM: usize = 50;
const WMIN: u64 = 1;

/// Eval-count envelope `offset + factor · p · log2(p)`.
///
/// The offset covers the `p`-independent part of an indexed decision
/// (`≈ classes · m_tasks²/2` group lookups once every class is realized);
/// the `p log p` term leaves room for the index build and candidate sorting.
/// The reference exhaustive scan needs `Θ(p · m_tasks²)` lookups —
/// ≈ 2.7·10⁷ at `p = 20 000`, more than 14× this envelope — so the assert
/// fails if the indexed path ever degrades to a rescan-all-`p` shape.
const BOUND_OFFSET: f64 = 400_000.0;
const BOUND_FACTOR: f64 = 5.0;

/// One measured platform size.
struct Point {
    workers: usize,
    classes: usize,
    host_cpus: usize,
    evals: u64,
    group_misses: u64,
    series_terms: u64,
    accumulators_built: u64,
    index_build_micros: u128,
    scan_micros: u128,
    decision_micros: u128,
    bound_evals: u64,
}

fn eval_bound(p: usize) -> f64 {
    BOUND_OFFSET + BOUND_FACTOR * (p as f64) * (p as f64).log2()
}

/// The massive preset's generator axes (mirrors `SuiteSpec::massive()` —
/// and, at `p = 10⁶`, `SuiteSpec::colossal()` — in `dg-experiments`, which
/// `dg-bench` keeps out of this target's hot path).
fn massive_model() -> ScenarioModel {
    ScenarioModel {
        speeds: SpeedProfile::Clustered { fast_fraction: 0.3, slow_factor: 8 },
        availability: AvailabilityRegime::Pooled { classes: 16 },
        ..ScenarioModel::paper()
    }
}

/// Render an assignment as the same `[[worker,tasks],…]` array the service
/// protocol uses, for the `scaling-winner:` line.
fn render_assignment(assignment: &Assignment) -> String {
    let entries: Vec<String> =
        assignment.entries().iter().map(|(q, x)| format!("[{q},{x}]")).collect();
    format!("[{}]", entries.join(","))
}

/// Measure one `IE` decision on an all-`UP` massive-model platform of `p`
/// workers under the forced indexed scan.
fn measure(p: usize) -> Point {
    let params = ScenarioParams {
        num_workers: p,
        tasks_per_iteration: TASKS,
        ncom: NCOM,
        wmin: WMIN,
        iterations: 3,
    };
    let scenario = Scenario::generate_with(params, &massive_model(), SEED);
    let workers: Vec<WorkerView> = (0..p)
        .map(|_| WorkerView { state: ProcState::Up, dynamic: WorkerDynamicState::fresh() })
        .collect();
    let view = SimView {
        time: 0,
        iteration: 0,
        completed_iterations: 0,
        iteration_started_at: 0,
        workers: &workers,
        platform: &scenario.platform,
        application: &scenario.application,
        master: &scenario.master,
        current: None,
    };

    // The standalone index build attributes the O(p) pass; the decision
    // below rebuilds it internally, so `scan_micros` is the decision's wall
    // clock net of one build.
    let build_start = Instant::now();
    let classes = WorkerIndex::build(&view).num_classes();
    let index_build_micros = build_start.elapsed().as_micros();

    let cache = EvalCache::new(&scenario.platform, &scenario.master, 1e-7);
    let mut context = SchedulingContext::with_cache(cache.clone());
    context.set_scan_strategy(ScanStrategy::Indexed);

    let start = Instant::now();
    let assignment = build_incremental(&mut context, &view, PassiveKind::IE)
        .expect("an all-UP platform can hold the massive workload");
    let decision_micros = start.elapsed().as_micros();
    assert_eq!(assignment.total_tasks(), TASKS, "p = {p}: decision must place every task");

    let stats = cache.stats();
    let evals = stats.group_hits + stats.group_misses;
    let bound = eval_bound(p);
    assert!(
        (evals as f64) <= bound,
        "p = {p}: {evals} group lookups exceed the O(p log p) envelope {bound:.0} — the \
         indexed scan has degraded toward the exhaustive rescan"
    );
    println!("scaling-winner: p = {p} assignment = {}", render_assignment(&assignment));

    Point {
        workers: p,
        classes,
        host_cpus: dg_bench::host_cpus(),
        evals,
        group_misses: stats.group_misses,
        series_terms: cache.series_terms(),
        accumulators_built: cache.accumulators_built(),
        index_build_micros,
        scan_micros: decision_micros.saturating_sub(index_build_micros),
        decision_micros,
        bound_evals: bound as u64,
    }
}

/// Hand-rolled JSON (the workspace vendors a no-op `serde` shim, so
/// machine-readable output is assembled directly; every field is numeric or
/// a fixed ASCII literal, hence no escaping is needed).
fn render_json(points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scaling\",\n");
    out.push_str("  \"suite\": \"massive\",\n");
    out.push_str("  \"heuristic\": \"IE\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!(
        "  \"workload\": {{\"tasks_per_iteration\": {TASKS}, \"ncom\": {NCOM}, \"wmin\": {WMIN}}},\n"
    ));
    out.push_str(&format!(
        "  \"bound\": {{\"form\": \"evals <= offset + factor * p * log2(p)\", \
         \"offset\": {BOUND_OFFSET}, \"factor\": {BOUND_FACTOR}}},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, pt) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"classes\": {}, \
             \"host_cpus\": {}, \"evals\": {}, \"group_misses\": {}, \"series_terms\": {}, \
             \"accumulators_built\": {}, \"index_build_micros\": {}, \"scan_micros\": {}, \
             \"decision_micros\": {}, \"bound_evals\": {}}}{}\n",
            pt.workers,
            pt.classes,
            pt.host_cpus,
            pt.evals,
            pt.group_misses,
            pt.series_terms,
            pt.accumulators_built,
            pt.index_build_micros,
            pt.scan_micros,
            pt.decision_micros,
            pt.bound_evals,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let max_m: usize = std::env::var("DG_SCALING_MAX_M")
        .ok()
        .map(|v| v.parse().expect("DG_SCALING_MAX_M must be an integer"))
        .unwrap_or(usize::MAX);

    let mut points = Vec::new();
    for &p in SIZES.iter().filter(|&&p| p <= max_m) {
        let pt = measure(p);
        println!(
            "scaling: p = {:>7}  classes = {:>4}  evals = {:>9}  bound = {:>9}  \
             build = {:>8} µs  scan = {:>9} µs  decision = {} µs",
            pt.workers,
            pt.classes,
            pt.evals,
            pt.bound_evals,
            pt.index_build_micros,
            pt.scan_micros,
            pt.decision_micros
        );
        points.push(pt);
    }
    assert!(!points.is_empty(), "DG_SCALING_MAX_M filtered out every platform size");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    std::fs::write(path, render_json(&points)).expect("write BENCH_scaling.json");
    println!("scaling: wrote {} point(s) to {path}", points.len());
}
