//! `service_latency` — the scheduler service's warm-cache value proposition,
//! measured: the first decision on a cold [`ServiceCore`] pays the Section V
//! group-set computations; every later decision on the warm core answers the
//! same request entirely from cache hits.
//!
//! For each benched heuristic the harness builds a **fresh** core, answers
//! one cold request (recording its latency and cache-miss count), then
//! answers the same request repeatedly on the now-warm core and records the
//! median warm latency. It asserts the warm path incurs **zero** misses and
//! is faster than the cold path, and writes the cold/warm table to
//! `BENCH_service.json` at the workspace root — a machine-readable baseline
//! meant to be committed, so future optimisation PRs diff against it. The
//! file records `host_cpus`, so a diff across machines is attributable.
//!
//! Environment:
//! * `DG_SERVICE_WARM_ITERS` overrides the warm-sample count (default 50;
//!   CI smoke runs use a smaller value).

use dg_experiments::service::{DecideRequest, ScheduleService, ServiceCore};
use dg_platform::{Scenario, ScenarioParams};
use std::sync::Arc;

/// The paper's platform scale: 20 workers, m = 5, ncom = 10, wmin = 2.
fn bench_core() -> ServiceCore {
    let scenario = Scenario::generate(ScenarioParams::paper(5, 10, 2), 20130520);
    ServiceCore::new(scenario, 1e-7, 42)
}

/// One heuristic's cold/warm measurement.
struct Row {
    heuristic: &'static str,
    cold_us: u64,
    cold_misses: u64,
    warm_median_us: u64,
    warm_hits: u64,
}

/// A mid-run world state: a few workers reclaimed or down, the rest fresh —
/// more representative than the all-UP first slot, and identical across the
/// cold and warm paths.
fn bench_request(heuristic: &str) -> DecideRequest {
    DecideRequest::new(heuristic, "UUURUUDUUURUUUUUURUU")
}

fn measure(heuristic: &'static str, warm_iters: usize) -> Row {
    let core = bench_core();
    let cold = core.decide(&bench_request(heuristic)).expect("cold decision");
    assert!(cold.cache.group_misses > 0, "{heuristic}: the cold decision must compute group sets");

    let mut warm_latencies = Vec::with_capacity(warm_iters);
    let mut warm_hits = 0;
    for _ in 0..warm_iters {
        let warm = core.decide(&bench_request(heuristic)).expect("warm decision");
        assert_eq!(
            warm.cache.group_misses, 0,
            "{heuristic}: a warm decision must be answered entirely from cache"
        );
        assert_eq!(warm.assignment, cold.assignment, "{heuristic}: warm decision diverged");
        warm_hits = warm.cache.group_hits;
        warm_latencies.push(warm.latency_us);
    }
    warm_latencies.sort_unstable();
    let warm_median_us = warm_latencies[warm_latencies.len() / 2];
    assert!(
        warm_median_us <= cold.latency_us,
        "{heuristic}: warm median {warm_median_us}us exceeds the cold decision {}us",
        cold.latency_us
    );
    Row {
        heuristic,
        cold_us: cold.latency_us,
        cold_misses: cold.cache.group_misses,
        warm_median_us,
        warm_hits,
    }
}

/// Extract the batch-level `latency_us` (the last one on the line — member
/// replies carry their own) from a rendered batch reply.
fn batch_latency(reply: &str) -> u64 {
    let at = reply.rfind("\"latency_us\":").expect("batch reply has a latency") + 13;
    reply[at..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

/// Answer the same `group`-member batch twice on one core — the first pass
/// pays the cold misses, the second is the measured warm batch (entirely
/// cache hits, like the per-request warm path above) — and return the warm
/// batch latency.
fn measure_batch(group: usize) -> u64 {
    let mut service = ScheduleService::new(Arc::new(bench_core()));
    let heuristics = ["IE", "IAY", "P-IE", "E-IE", "Y-IE", "Y-IAY"];
    let entries: Vec<String> = (0..group)
        .map(|i| {
            let mut req = bench_request(heuristics[i % heuristics.len()]);
            req.id = Some(i as u64);
            req.render()
        })
        .collect();
    let line = format!("{{\"batch\":[{}]}}", entries.join(","));
    let _cold = service.handle_line(&line);
    let reply = service.handle_line(&line).pop().expect("a batch answers as one line");
    batch_latency(&reply)
}

/// Hand-rolled JSON (the workspace vendors a no-op `serde` shim); heuristic
/// names are fixed ASCII literals, hence no escaping is needed.
fn render_json(warm_iters: usize, rows: &[Row], batch_us: u64, group: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"service_latency\",\n");
    out.push_str("  \"platform\": {\"workers\": 20, \"m\": 5, \"ncom\": 10, \"wmin\": 2},\n");
    out.push_str(&format!("  \"host_cpus\": {},\n", dg_bench::host_cpus()));
    out.push_str(&format!("  \"warm_iters\": {warm_iters},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"heuristic\": \"{}\", \"cold_us\": {}, \"cold_misses\": {}, \
             \"warm_median_us\": {}, \"warm_misses\": 0, \"warm_hits\": {}}}{}\n",
            row.heuristic,
            row.cold_us,
            row.cold_misses,
            row.warm_median_us,
            row.warm_hits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"batch\": {{\"requests\": {group}, \"latency_us\": {batch_us}}}\n"));
    out.push_str("}\n");
    out
}

fn main() {
    let warm_iters: usize = std::env::var("DG_SERVICE_WARM_ITERS")
        .ok()
        .map(|v| v.parse().expect("DG_SERVICE_WARM_ITERS must be an integer"))
        .unwrap_or(50);

    // One passive, one proactive per criterion, plus the heaviest builder —
    // the spread of decision costs a daemon actually serves.
    let heuristics = ["IE", "IAY", "P-IE", "E-IE", "Y-IE", "Y-IAY"];
    let mut rows = Vec::new();
    for heuristic in heuristics {
        let row = measure(heuristic, warm_iters);
        println!(
            "service: {:<6} cold = {:>7} us ({} misses)   warm median = {:>5} us (0 misses, {} hits)",
            row.heuristic, row.cold_us, row.cold_misses, row.warm_median_us, row.warm_hits,
        );
        rows.push(row);
    }

    // One warm 12-request op:batch line.
    let group = 12;
    let batch_us = measure_batch(group);
    println!("service: batch of {group} = {batch_us:>6} us");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let json = render_json(warm_iters, &rows, batch_us, group);
    std::fs::write(path, json).expect("write BENCH_service.json");
    println!("service: wrote {} row(s) to {path}", rows.len());
}
