//! Criterion benchmarks of the synthesis engine: `resyn2rs` on the
//! mult8 / C1908 class, the suite's largest member and the paper's
//! add-16 and C1355 workloads; the individual in-place passes on the
//! multiplier; the functional balance and rewrite wrappers on add-16;
//! and the C6288 generator.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cntfet_synth::{balance_inplace, refactor_inplace, resyn2rs, rewrite_inplace};

fn bench_synth(c: &mut Criterion) {
    for (name, g) in [
        ("mult8", cntfet_circuits::array_multiplier(8)),
        ("c1908", cntfet_circuits::c1908_like()),
        ("des", cntfet_circuits::des_like()),
        ("add16", cntfet_circuits::ripple_adder(16)),
        ("c1355", cntfet_circuits::c1355_like()),
    ] {
        c.bench_function(&format!("resyn2rs/{name}"), |b| b.iter(|| resyn2rs(black_box(&g))));
    }

    // Individual in-place passes on the multiplier.
    let mult8 = cntfet_circuits::array_multiplier(8).compact();
    c.bench_function("pass_rewrite/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            rewrite_inplace(black_box(&mut g), false)
        })
    });
    c.bench_function("pass_refactor8/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            refactor_inplace(black_box(&mut g), 8, false)
        })
    });
    c.bench_function("pass_balance/mult8", |b| {
        b.iter(|| {
            let mut g = mult8.clone();
            balance_inplace(black_box(&mut g))
        })
    });

    let add16 = cntfet_circuits::ripple_adder(16);
    c.bench_function("balance/add16", |b| {
        b.iter(|| cntfet_synth::balance(black_box(&add16)))
    });
    c.bench_function("rewrite/add16", |b| {
        b.iter(|| cntfet_synth::rewrite(black_box(&add16), false))
    });
    c.bench_function("generator/c6288_multiplier", |b| {
        b.iter(|| cntfet_circuits::array_multiplier(black_box(16)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_synth
}
criterion_main!(benches);
