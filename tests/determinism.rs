//! Workspace determinism tests: the fan-out across circuits — the
//! benchmark suite and the batch service, one circuit per task —
//! returns the same results, in the same order, at every worker count,
//! and every per-node cut list and `resyn2rs` output of the suite is
//! pinned. The engines inside a circuit run on its task's thread;
//! parallelism is allowed to change wall time and nothing else.
//!
//! The tests of one binary run concurrently, so only
//! `suite_report_identical_across_worker_counts` sets the process-wide
//! `threadpool::Jobs` budget; every other test passes its worker count
//! explicitly.

use cntfet_aig::{enumerate_cuts_custom, enumerate_cuts_with, Aig, CutArena, CutParams, CutRank};
use cntfet_bench::run_suite_with;
use cntfet_bench::serve::{BatchReport, ServeOutcome, ServeStats, SynthRequest, SynthService};
use cntfet_circuits::{
    array_multiplier, cla_adder, paper_benchmarks, ripple_adder, shift_add_multiplier,
};
use cntfet_core::LogicFamily;
use cntfet_synth::resyn2rs;
use cntfet_techmap::MapOptions;

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

/// Folds every node's cut list — leaves, function word and rank cost,
/// in list order — into `h`.
fn fold_cut_lists(mut h: u64, g: &Aig, arena: &CutArena) -> u64 {
    for id in g.node_ids() {
        let cuts = arena.of(id);
        h = mix(h, cuts.len() as u64);
        for cut in cuts {
            h = mix(h, cut.size() as u64);
            for l in cut.leaves() {
                h = mix(h, l.index() as u64);
            }
            let (primary, secondary) = cut.rank_cost();
            h = mix(h, cut.function_word().unwrap_or(0));
            h = mix(h, u64::from(primary) << 32 | u64::from(secondary));
        }
    }
    h
}

/// Every per-node cut list of the 15 suite circuits is pinned by one
/// digest: under the size and depth ranks at k = 6, the size rank at
/// k = 4, and an external oracle that ranks on the function word. Cut
/// lists decide covers, Table 3 and the rewriting candidates; the
/// digest changes only together with them.
#[test]
fn cut_lists_are_pinned() {
    let size6 = CutParams { k: 6, max_cuts: 10, rank: CutRank::Size };
    let depth6 = CutParams { rank: CutRank::Depth, ..size6 };
    let size4 = CutParams { k: 4, max_cuts: 8, rank: CutRank::Size };
    let arrival6 = CutParams { rank: CutRank::Arrival, ..size6 };
    let mut h = 0u64;
    for b in paper_benchmarks() {
        for params in [size6, depth6, size4] {
            h = fold_cut_lists(h, &b.aig, &enumerate_cuts_with(&b.aig, params));
        }
        let by_word = enumerate_cuts_custom(&b.aig, arrival6, |_, leaves, tt| {
            (tt.count_ones(), leaves.len() as u32)
        });
        h = fold_cut_lists(h, &b.aig, &by_word);
    }
    assert_eq!(h, 0x7fa1_ffc1_e96c_89f7, "a cut list changed");
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
