//! Criterion benchmarks of the library-characterization engine
//! (Table 1/2 machinery): topology enumeration, per-family
//! characterization, library construction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_characterization(c: &mut Criterion) {
    c.bench_function("characterize_family/tg_static_46_gates", |b| {
        b.iter(|| cntfet_core::characterize_family(black_box(cntfet_core::LogicFamily::TgStatic)))
    });
    c.bench_function("library_build/tg_static", |b| {
        b.iter(|| cntfet_core::Library::new(black_box(cntfet_core::LogicFamily::TgStatic)))
    });
    c.bench_function("enumerate_gates/ambipolar_46", |b| {
        b.iter(|| cntfet_core::enumerate_gates(black_box(true)))
    });
    c.bench_function("enumerate_gates/cmos_7", |b| {
        b.iter(|| cntfet_core::enumerate_gates(black_box(false)))
    });
    c.bench_function("npn_canonical/6var", |b| {
        let f05 = cntfet_core::GateId::new(43).function().to_tt(6);
        b.iter(|| cntfet_boolfn::npn_canonical(black_box(&f05)))
    });
    // A DES-chain cut function on which every variable ties on every
    // cofactor count: the search visits all 64 × 720 transforms.
    c.bench_function("npn_canonical/6var_all_ties", |b| {
        let f = cntfet_boolfn::TruthTable::from_bits(6, 0x5a5a_1248_1248_5a5a);
        b.iter(|| cntfet_boolfn::npn_canonical(black_box(&f)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_characterization
}
criterion_main!(benches);
