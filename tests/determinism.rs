//! Workspace determinism tests: the fan-out across circuits — the
//! benchmark suite and the batch service, one circuit per task —
//! returns the same results, in the same order, at every worker count,
//! and the suite's per-node cut lists, `resyn2rs` outputs and covers,
//! and Table 1's gate enumeration, are pinned. The engines inside a
//! circuit run on its task's thread; parallelism is allowed to change
//! wall time and nothing else.
//!
//! The tests of one binary run concurrently, so only
//! `suite_report_identical_across_worker_counts` sets the process-wide
//! `threadpool::Jobs` budget; every other test passes its worker count
//! explicitly.

use cntfet_aig::{enumerate_cuts_custom, enumerate_cuts_with, Aig, CutArena, CutParams, CutRank};
use cntfet_bench::{run_suite_with, suite_libraries};
use cntfet_bench::serve::{BatchReport, ServeOutcome, ServeStats, SynthRequest, SynthService};
use cntfet_circuits::{
    array_multiplier, cla_adder, des_chain, paper_benchmarks, ripple_adder, shift_add_multiplier,
};
use cntfet_core::{enumerate_gates, Library, LogicFamily};
use cntfet_synth::resyn2rs;
use cntfet_techmap::{map, MapOptions, Mapping, Objective, PoBinding, Source};

/// The benchmark suite (a verified subset, to keep the test fast)
/// produces the same report — stats, verdicts, SAT counters — whether
/// the workers run one benchmark at a time or all at once.
#[test]
fn suite_report_identical_across_worker_counts() {
    let run = |jobs: usize| {
        threadpool::Jobs::set(jobs);
        let rows = run_suite_with(true, Some(&["add-16", "C1355"]), MapOptions::default());
        threadpool::Jobs::set(0);
        assert!(rows.iter().all(|r| r.verified), "suite failed verification at jobs={jobs}");
        format!("{rows:?}")
    };
    let sequential = run(1);
    for jobs in [2, 4] {
        assert_eq!(sequential, run(jobs), "suite report diverged at jobs={jobs}");
    }
}

/// One SplitMix64 finalizer step folding `x` into the digest `h`.
fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds every node's cut list — leaves and function word, in list
/// order — into `h`.
fn fold_cut_lists(mut h: u64, g: &Aig, arena: &CutArena) -> u64 {
    for id in g.node_ids() {
        let cuts = arena.of(id);
        h = mix(h, cuts.len() as u64);
        for cut in cuts {
            h = mix(h, cut.size() as u64);
            for l in cut.leaves() {
                h = mix(h, l.index() as u64);
            }
            h = mix(h, cut.function_word());
        }
    }
    h
}

/// Every per-node cut list of the 15 suite circuits is pinned by one
/// digest: under the size rank at k = 6 and k = 4, and under an
/// external oracle that ranks on the function word at k = 6. Cut lists
/// decide covers, Table 3 and the rewriting candidates; the digest
/// changes only together with them.
#[test]
fn cut_lists_are_pinned() {
    let size6 = CutParams { k: 6, max_cuts: 10, rank: CutRank::Size };
    let size4 = CutParams { k: 4, max_cuts: 8, rank: CutRank::Size };
    let mut h = 0u64;
    for b in paper_benchmarks() {
        for params in [size6, size4] {
            h = fold_cut_lists(h, &b.aig, &enumerate_cuts_with(&b.aig, params));
        }
        let by_word = enumerate_cuts_custom(&b.aig, size6, |_, leaves, tt| {
            (tt.count_ones(), leaves.len() as u32)
        });
        h = fold_cut_lists(h, &b.aig, &by_word);
    }
    assert_eq!(h, 0x82ba_1791_7f69_37f8, "a cut list changed");
}

/// A mapping source as one word: PI index or gate root, tagged.
fn source_code(s: Source) -> u64 {
    match s {
        Source::Pi(i) => (i as u64) << 1,
        Source::Node(n) => (n.index() as u64) << 1 | 1,
    }
}

/// Folds a whole cover into `h`: every gate (root, cell, pins,
/// `out_compl`, leaves), every wire alias, every PO binding and the
/// `MapStats`.
fn fold_mapping(mut h: u64, m: &Mapping) -> u64 {
    h = mix(h, m.gates.len() as u64);
    for gate in &m.gates {
        h = mix(h, gate.root.index() as u64);
        h = mix(h, gate.cell as u64);
        h = mix(h, gate.pins.len() as u64);
        for &(src, compl) in &gate.pins {
            h = mix(h, source_code(src) << 1 | u64::from(compl));
        }
        h = mix(h, u64::from(gate.out_compl));
        h = mix(h, gate.leaves.len() as u64);
        for l in &gate.leaves {
            h = mix(h, l.index() as u64);
        }
    }
    h = mix(h, m.wires.len() as u64);
    for (node, leaves) in &m.wires {
        h = mix(h, node.index() as u64);
        h = mix(h, leaves.len() as u64);
        for l in leaves {
            h = mix(h, l.index() as u64);
        }
    }
    h = mix(h, m.pos.len() as u64);
    for po in &m.pos {
        h = match *po {
            PoBinding::Const(v) => mix(mix(h, 0), u64::from(v)),
            PoBinding::Signal(src, compl) => mix(mix(h, 1), source_code(src) << 1 | u64::from(compl)),
        };
    }
    let s = m.stats;
    for x in [s.gates as u64, s.inverters as u64, s.area.to_bits(), u64::from(s.levels)] {
        h = mix(h, x);
    }
    mix(mix(h, s.delay_norm.to_bits()), s.delay_ps.to_bits())
}

/// Every cover of the 15 optimized suite circuits, on the three
/// families under the area, delay and balanced objectives, is pinned
/// by one digest. Covers are what Table 3, the service and the
/// benchmark's QoR sums report. The circuits map on two workers and
/// fold in suite order.
#[test]
fn covers_are_pinned() {
    let libs = suite_libraries();
    let benches = paper_benchmarks();
    let covers = threadpool::par_map(2, benches.len(), |i| {
        let optimized = resyn2rs(&benches[i].aig);
        let mut covers = Vec::new();
        for lib in &libs {
            for objective in [Objective::Area, Objective::Delay, Objective::Balanced] {
                covers.push(map(&optimized, lib, MapOptions { objective, ..MapOptions::default() }));
            }
        }
        covers
    });
    let h = covers.iter().flatten().fold(0u64, fold_mapping);
    assert_eq!(h, 0x3cd0_7c86_4072_c740, "a cover changed");
}

/// The TG-static delay cover of a 2-round DES Feistel chain after
/// `resyn2rs` is pinned by one digest. The chain is the benchmark's
/// circuit family (large-par delay-maps the 8-round chain the same
/// way), and no suite circuit chains Feistel rounds.
#[test]
fn des_chain_delay_cover_is_pinned() {
    let optimized = resyn2rs(&des_chain(2));
    let lib = Library::new(LogicFamily::TgStatic);
    let opts = MapOptions { objective: Objective::Delay, ..MapOptions::default() };
    let h = fold_mapping(0, &map(&optimized, &lib, opts));
    assert_eq!(h, 0x825f_2fb4_5e77_8bd6, "the DES-chain delay cover changed");
}

/// The `resyn2rs` output of each of the 15 suite circuits is pinned by
/// one digest over the graphs' 128-bit fingerprints. The optimized
/// graphs feed every mapping, Table 3 and the service; the digest
/// changes only together with them.
#[test]
fn resyn2rs_outputs_are_pinned() {
    let mut h = 0u64;
    for b in paper_benchmarks() {
        let fp = resyn2rs(&b.aig).fingerprint();
        h = mix(h, fp as u64);
        h = mix(h, (fp >> 64) as u64);
    }
    assert_eq!(h, 0x47ac_a832_b4a3_9ad6, "a resyn2rs output changed");
}

/// Table 1's two enumerations — the 46 ambipolar and the 7 CMOS gate
/// classes, in the order `table1` prints them — are pinned by one
/// digest over each class's variable count, truth-table word and
/// description. The order is the truth tables' `Ord` (after support
/// size), so the digest changes only together with Table 1.
#[test]
fn table1_enumeration_is_pinned() {
    let mut h = 0u64;
    for with_xor in [true, false] {
        let r = enumerate_gates(with_xor);
        h = mix(h, r.classes.len() as u64);
        for (tt, name) in &r.classes {
            h = mix(h, tt.nvars() as u64);
            h = mix(h, tt.bits());
            for b in name.bytes() {
                h = mix(h, u64::from(b));
            }
        }
    }
    assert_eq!(h, 0xa5c7_3ef8_e94d_5f20, "a Table 1 class, its order or its description changed");
}

/// A batch of distinct small circuits: no two requests share a
/// fingerprint, so within one batch no request can hit the service
/// cache, whatever order the workers claim them in.
fn batch_requests() -> Vec<SynthRequest> {
    [
        ("mult4", array_multiplier(4)),
        ("shift-add4", shift_add_multiplier(4)),
        ("add-8", ripple_adder(8)),
        ("cla-8", cla_adder(8)),
        ("add-12", ripple_adder(12)),
    ]
    .into_iter()
    .map(|(name, g)| SynthRequest::new(name, g))
    .collect()
}

/// A batch's outcomes without their wall times: name, stats and
/// whether the service cache answered.
fn outcomes(report: &BatchReport) -> Vec<(String, ServeStats, bool)> {
    report
        .outcomes
        .iter()
        .map(|(name, outcome)| match outcome {
            ServeOutcome::Done { stats, cached, .. } => (name.clone(), stats.clone(), *cached),
            other => panic!("{name} did not complete: {other:?}"),
        })
        .collect()
}

/// `process_batch` returns every outcome in request order, identical
/// at one, two and four workers. Each width starts from a fresh
/// service, so every request runs the whole pipeline, verification
/// included.
#[test]
fn batch_outcomes_identical_across_worker_counts() {
    let requests = batch_requests();
    let run = |jobs: usize| {
        outcomes(&SynthService::new(LogicFamily::TgStatic).process_batch(&requests, jobs))
    };
    let sequential = run(1);
    let names: Vec<&str> = sequential.iter().map(|(name, ..)| name.as_str()).collect();
    let want: Vec<&str> = requests.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, want, "outcomes out of request order");
    assert!(sequential.iter().all(|(_, stats, _)| stats.verified == Some(true)));
    for jobs in [2, 4] {
        assert_eq!(sequential, run(jobs), "batch outcomes diverged at jobs={jobs}");
    }
}

/// The service cache keys on the circuit fingerprint alone, so a batch
/// first served at one worker is answered from the cache at four
/// (unless caching is switched off), with the stats the pipeline
/// computed.
#[test]
fn service_cache_key_ignores_worker_count() {
    let service = SynthService::new(LogicFamily::TgStatic);
    let requests = batch_requests();
    let cold = outcomes(&service.process_batch(&requests, 1));
    let warm = outcomes(&service.process_batch(&requests, 4));
    assert!(cold.iter().all(|(.., cached)| !cached), "the first batch must run the pipeline");
    if cntfet_boolfn::cache::enabled() {
        assert!(
            warm.iter().all(|(.., cached)| *cached),
            "the jobs=4 batch must be answered from the cache"
        );
    }
    let stats = |o: &[(String, ServeStats, bool)]| -> Vec<ServeStats> {
        o.iter().map(|(_, s, _)| s.clone()).collect()
    };
    assert_eq!(stats(&cold), stats(&warm));
}
