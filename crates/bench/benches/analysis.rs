//! Ablation bench for the Section V approximations (Theorem 5.1): cost of
//! computing `Eu(S)`, `A(S)`, `P₊^(S)` and `E_c^(S)` as a function of the
//! requested precision `ε` and of the set size `|S|`, plus the cost of the
//! quadratic first-return reference used for validation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dg_analysis::series::WorkerSeries;
use dg_analysis::{GroupComputation, DEFAULT_EPSILON};
use dg_availability::rng::rng_from_seed;
use dg_availability::MarkovChain3;
use std::time::Duration;

fn paper_series(n: usize, seed: u64) -> Vec<WorkerSeries> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| WorkerSeries::new(&MarkovChain3::sample_paper_model(&mut rng), DEFAULT_EPSILON))
        .collect()
}

fn precision_sweep(c: &mut Criterion) {
    let series = paper_series(5, 17);
    let refs: Vec<&WorkerSeries> = series.iter().collect();
    let mut group = c.benchmark_group("analysis_epsilon");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for eps in [1e-3, 1e-7, 1e-12] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            let comp = GroupComputation::new(eps);
            b.iter(|| comp.compute(&refs));
        });
    }
    group.finish();
}

fn set_size_sweep(c: &mut Criterion) {
    let series = paper_series(20, 23);
    let comp = GroupComputation::new(1e-7);
    let mut group = c.benchmark_group("analysis_set_size");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for k in [1usize, 5, 10, 20] {
        let refs: Vec<&WorkerSeries> = series[..k].iter().collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| comp.compute(&refs));
        });
    }
    group.finish();
}

fn closed_form_vs_reference(c: &mut Criterion) {
    let series = paper_series(4, 31);
    let refs: Vec<&WorkerSeries> = series.iter().collect();
    let comp = GroupComputation::new(1e-6);
    let mut group = c.benchmark_group("analysis_method");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("closed_form", |b| b.iter(|| comp.compute(&refs)));
    group.bench_function("first_return_reference", |b| {
        b.iter(|| comp.first_return_reference(&refs))
    });
    group.finish();
}

criterion_group!(benches, precision_sweep, set_size_sweep, closed_form_vs_reference);
criterion_main!(benches);
