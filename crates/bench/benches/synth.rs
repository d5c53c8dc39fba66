//! Criterion benchmarks of the in-place DAG-aware synthesis engine
//! (PR 5) against the seed rebuild-based engine, on the circuits the
//! acceptance targets name (mult8 / C1908 class) plus the suite's
//! largest member.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cntfet_synth::{
    balance_inplace, refactor_inplace, resyn2rs, resyn2rs_with, rewrite_inplace, SynthEngine,
    SynthOptions,
};

fn bench_synth(c: &mut Criterion) {
    let seed_opts = SynthOptions { engine: SynthEngine::Seed, ..Default::default() };

    for (name, g) in [
        ("mult8", cntfet_circuits::array_multiplier(8)),
        ("c1908", cntfet_circuits::c1908_like()),
        ("des", cntfet_circuits::des_like()),
    ] {
        c.bench_function(&format!("resyn2rs_inplace/{name}"), |b| {
            b.iter(|| resyn2rs(black_box(&g)))
        });
        c.bench_function(&format!("resyn2rs_seed/{name}"), |b| {
            b.iter(|| resyn2rs_with(black_box(&g), &seed_opts))
        });
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
