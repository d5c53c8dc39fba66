//! Criterion benchmarks of the batch synthesis service: cold vs warm
//! request latency (the fingerprint-keyed dedup cache at work), batch
//! throughput over a small circuit set, and the AIGER frontend's
//! parse/write costs that the service's file path pays per request.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cntfet_bench::serve::{SynthRequest, SynthService};
use cntfet_core::LogicFamily;
use cntfet_synth::SynthOptions;
use cntfet_techmap::MapOptions;

fn bench_service(c: &mut Criterion) {
    let svc = SynthService::with_options(
        LogicFamily::TgStatic,
        MapOptions::default(),
        SynthOptions::default(),
        false,
    );

    // Cold: every iteration clears the service cache, paying the full
    // synth+map pipeline. Warm: the service cache answers.
    let adder = cntfet_circuits::ripple_adder(16);
    c.bench_function("serve_cold/add-16", |b| {
        b.iter(|| {
            svc.clear_cache();
            svc.run(black_box(&SynthRequest::new("add-16", adder.clone())))
        })
    });
    let _ = svc.run(&SynthRequest::new("add-16", adder.clone()));
    c.bench_function("serve_warm/add-16", |b| {
        b.iter(|| svc.run(black_box(&SynthRequest::new("add-16", adder.clone()))))
    });

    // Batch throughput over a mixed small set, warm caches.
    let batch: Vec<SynthRequest> = [
        ("add-16", cntfet_circuits::ripple_adder(16)),
        ("c1355", cntfet_circuits::c1355_like()),
        ("t481-ish", cntfet_circuits::parity(16)),
    ]
    .into_iter()
    .map(|(n, g)| SynthRequest::new(n, g))
    .collect();
    c.bench_function("serve_batch3_warm", |b| {
        b.iter(|| svc.process_batch(black_box(&batch), 0))
    });

    // The frontend costs the file path pays per request.
    let des = cntfet_circuits::des_like();
    let ascii = cntfet_aig::write_aiger_ascii(&des);
    let binary = cntfet_aig::write_aiger_binary(&des);
    c.bench_function("aiger_write_ascii/des", |b| {
        b.iter(|| cntfet_aig::write_aiger_ascii(black_box(&des)))
    });
    c.bench_function("aiger_write_binary/des", |b| {
        b.iter(|| cntfet_aig::write_aiger_binary(black_box(&des)))
    });
    c.bench_function("aiger_parse_ascii/des", |b| {
        b.iter(|| cntfet_aig::parse_aiger(black_box(ascii.as_bytes())))
    });
    c.bench_function("aiger_parse_binary/des", |b| {
        b.iter(|| cntfet_aig::parse_aiger(black_box(&binary)))
    });
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
