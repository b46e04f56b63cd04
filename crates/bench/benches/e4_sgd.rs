//! E4 (§4.3): SGD linear regression — gradient-descent handler vs.
//! hand-coded tape SGD vs. closed-form least squares. Asserts the
//! convergence shape and times one epoch at several dataset sizes.
//! `SELC_BENCH_SMOKE=1` times the 16-point dataset only, for the CI
//! smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selc_ml::dataset::Dataset;
use selc_ml::linreg::{train_handler_sgd, train_tape_sgd};

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

fn bench(c: &mut Criterion) {
    let d = Dataset::linear(64, 2.0, 1.0, 0.0, 3);
    let (hw, hb) = train_handler_sgd(&d, (0.0, 0.0), 0.05, 20);
    let (lw, lb) = d.least_squares();
    assert!((hw - lw).abs() < 0.05 && (hb - lb).abs() < 0.05);
    println!("E4: handler SGD (w,b)=({hw:.3},{hb:.3}) vs least squares ({lw:.3},{lb:.3})");

    let mut g = c.benchmark_group("e4_sgd");
    let sizes: &[usize] = if smoke() { &[16] } else { &[16, 64, 256] };
    for &n in sizes {
        let d = Dataset::linear(n, 2.0, 1.0, 0.05, 11);
        g.bench_with_input(BenchmarkId::new("handler_epoch", n), &d, |b, d| {
            b.iter(|| std::hint::black_box(train_handler_sgd(d, (0.0, 0.0), 0.05, 1)));
        });
        g.bench_with_input(BenchmarkId::new("tape_epoch", n), &d, |b, d| {
            b.iter(|| std::hint::black_box(train_tape_sgd(d, (0.0, 0.0), 0.05, 1)));
        });
        g.bench_with_input(BenchmarkId::new("least_squares", n), &d, |b, d| {
            b.iter(|| std::hint::black_box(d.least_squares()));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(500)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench
}
criterion_main!(benches);
