//! Workspace determinism tests: every result is identical at every
//! worker count — same synthesized graphs, same mapped covers, same
//! sweep reports, same suite reports. Three layers use the pool:
//! chunked simulation, sharded cut enumeration (and its incremental
//! update) and the suite/batch fan-out; the tests below pin the
//! engines built on them. Parallelism is allowed to change wall time
//! and nothing else.

use cntfet_aig::{
    check_equivalence_sweeping_report, enumerate_cuts_custom, enumerate_cuts_with_jobs,
    equivalent, Aig, CecResult, CutArena, CutParams, CutRank, SweepOptions,
};
use cntfet_bench::run_suite_with;
use cntfet_bench::serve::{ServeOutcome, SynthRequest, SynthService};
use cntfet_circuits::{
    array_multiplier, cla_adder, paper_benchmarks, ripple_adder, shift_add_multiplier,
};
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs, Script};
use cntfet_techmap::{map, verify_mapping_report, MapOptions, Objective};
use proptest::prelude::*;

/// Builds a random DAG from a script of (op, operand indices) choices.
fn random_aig(num_pis: usize, script: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new("det");
    let pis = g.add_pis(num_pis);
    let mut pool: Vec<cntfet_aig::Lit> = pis;
    for &(op, ai, bi) in script {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        let l = match op % 5 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.and(a.negate(), b),
            _ => g.or(a, b.negate()),
        };
        pool.push(l);
    }
    for i in 0..4.min(pool.len()) {
        g.add_po(pool[pool.len() - 1 - i]);
    }
    g
}

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
/// k = 4, and an external oracle that ranks on the function word. The
/// builtin ranks enumerate at the default worker count, so a run with
/// `CNTFET_JOBS=2` pins the sharded enumerator to the same lists. Cut
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
            h = fold_cut_lists(h, &b.aig, &enumerate_cuts_with_jobs(&b.aig, params, 0));
        }
        let by_word = enumerate_cuts_custom(&b.aig, arrival6, |_, leaves, tt| {
            (tt.count_ones(), leaves.len() as u32)
        });
        h = fold_cut_lists(h, &b.aig, &by_word);
    }
    assert_eq!(h, 0x7fa1_ffc1_e96c_89f7, "a cut list changed");
}

/// A deterministic pseudo-random op script for the larger determinism
/// fixtures (big enough that cut enumeration shards over several
/// topological ranks per worker).
fn big_script(len: usize, mut seed: u64) -> Vec<(u8, u16, u16)> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 60) as u8, (seed >> 16) as u16, (seed >> 32) as u16)
        })
        .collect()
}

/// Synthesis over sharded cut enumeration and sharded arena updates
/// commits the same replacement sequence at every worker count: the
/// synthesized graph is bit-identical (stats + structural
/// fingerprint), and stays equivalent to its source.
#[test]
fn synth_identical_across_worker_counts() {
    for seed in [0x5EED_0001u64, 0x5EED_0002] {
        let g = random_aig(8, &big_script(400, seed));
        let run = |jobs: usize| {
            threadpool::Jobs::set(jobs);
            let mut o = g.clone();
            let mut script = Script::resyn2rs();
            script.run(&mut o);
            script.run(&mut o); // second round reuses the persistent arenas
            threadpool::Jobs::set(0);
            o
        };
        let seq = run(1);
        assert!(equivalent(&g, &seq), "sequential synthesis broke equivalence");
        for jobs in [2usize, 4] {
            let par = run(jobs);
            assert_eq!(
                (seq.num_ands(), seq.depth()),
                (par.num_ands(), par.depth()),
                "synth stats diverged at jobs={jobs}"
            );
            assert_eq!(
                seq.fingerprint(),
                par.fingerprint(),
                "synth result not bit-identical at jobs={jobs}"
            );
        }
    }
}

/// Mapping over sharded initial cut enumeration selects the exact
/// cover the sequential enumerator leads to, gate for gate, on graphs
/// large enough that the enumeration's topological ranks split across
/// workers — through every covering pass (the [`Objective::Area`] cases run
/// exact-area recovery, the [`Objective::Delay`] case the
/// arrival-aware rounds, the CMOS case phase tracking).
#[test]
fn cover_identical_across_worker_counts() {
    let cases = [
        (LogicFamily::TgStatic, Objective::Area, 0xC0FE_0001u64),
        (LogicFamily::TgStatic, Objective::Delay, 0xC0FE_0002),
        (LogicFamily::TgPseudo, Objective::Area, 0xC0FE_0003),
        (LogicFamily::CmosStatic, Objective::Balanced, 0xC0FE_0004),
    ];
    for (family, objective, seed) in cases {
        let g = random_aig(8, &big_script(500, seed));
        let lib = Library::new(family);
        let opts = MapOptions { objective, jobs: 1, ..MapOptions::default() };
        let seq = map(&g, &lib, opts);
        assert_eq!(
            verify_mapping_report(&g, &seq, &lib).result,
            CecResult::Equivalent,
            "{family:?}/{objective:?} sequential cover broke equivalence"
        );
        for jobs in [2usize, 4] {
            let par = map(&g, &lib, MapOptions { jobs, ..opts });
            assert_eq!(
                format!("{:?} {:?}", seq.gates, seq.pos),
                format!("{:?} {:?}", par.gates, par.pos),
                "{family:?}/{objective:?} cover diverged at jobs={jobs}"
            );
            assert_eq!(
                format!("{:?}", seq.stats),
                format!("{:?}", par.stats),
                "{family:?}/{objective:?} stats diverged at jobs={jobs}"
            );
        }
    }
}

/// The library's `resyn2rs` round loop, never-worse guard included,
/// returns the bit-identical graph at one, two and four workers.
#[test]
fn resyn2rs_identical_across_worker_counts() {
    let g = random_aig(7, &big_script(250, 0xCAFE_F00D));
    let run = |jobs: usize| {
        threadpool::Jobs::set(jobs);
        let o = resyn2rs(&g);
        threadpool::Jobs::set(0);
        o.fingerprint()
    };
    let seq = run(1);
    for jobs in [2usize, 4] {
        assert_eq!(seq, run(jobs), "resyn2rs diverged at jobs={jobs}");
    }
}

/// The service cache keys on the circuit fingerprint alone, so a
/// request first served at one worker is answered from the cache at
/// two (unless caching is switched off), with the stats the pipeline
/// computed.
#[test]
fn service_cache_key_ignores_worker_count() {
    let service = SynthService::new(LogicFamily::TgStatic);
    let request = SynthRequest::new("mult4", array_multiplier(4));
    let run = |jobs: usize| {
        threadpool::Jobs::set(jobs);
        let outcome = service.run(&request);
        threadpool::Jobs::set(0);
        match outcome {
            ServeOutcome::Done { stats, cached, .. } => (stats, cached),
            other => panic!("request did not complete at jobs={jobs}: {other:?}"),
        }
    };
    let (cold, cached) = run(1);
    assert!(!cached, "the first request must run the pipeline");
    let (warm, cached) = run(2);
    if cntfet_boolfn::cache::enabled() {
        assert!(cached, "the jobs=2 request must be answered from the cache");
    }
    assert_eq!(cold, warm);
}

/// SAT sweeping returns the same full [`cntfet_aig::CecReport`] —
/// verdict, internal proofs, refinements and every solver counter — at
/// one and at two workers. The ripple/carry-lookahead pair has 17
/// inputs, so the default options sweep it; the 5-bit multipliers run
/// the sweep with the exhaustive tier switched off and need
/// counterexample refinement.
#[test]
fn sweep_report_identical_across_worker_counts() {
    let no_exhaustive = SweepOptions { exhaustive_pis: 0, ..SweepOptions::default() };
    let cases = [
        (ripple_adder(8), cla_adder(8), SweepOptions::default()),
        (array_multiplier(5), shift_add_multiplier(5), no_exhaustive),
    ];
    for (a, b, opts) in &cases {
        let run = |jobs: usize| {
            threadpool::Jobs::set(jobs);
            let r = check_equivalence_sweeping_report(a, b, opts);
            threadpool::Jobs::set(0);
            r
        };
        let seq = run(1);
        assert_eq!(seq.result, CecResult::Equivalent, "{} vs {}", a.name(), b.name());
        assert!(!seq.exhaustive && seq.internal_proofs > 0, "the SAT sweep must run");
        assert_eq!(
            format!("{seq:?}"),
            format!("{:?}", run(2)),
            "{} vs {}: sweep report diverged at jobs=2",
            a.name(),
            b.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Technology mapping with sharded cut enumeration selects the
    /// exact cover the sequential engine does on arbitrary random
    /// networks — and that cover is SAT-equivalent to its source.
    #[test]
    fn prop_parallel_mapping_matches_sequential(
        script in proptest::collection::vec((0u8..5, 0u16..300, 0u16..300), 20..90),
        delay in 0u8..2,
    ) {
        let g = random_aig(6, &script);
        let lib = Library::new(LogicFamily::TgStatic);
        let objective = if delay == 1 { Objective::Delay } else { Objective::Balanced };
        let opts = MapOptions { objective, jobs: 1, ..MapOptions::default() };
        let seq = map(&g, &lib, opts);
        let par = map(&g, &lib, MapOptions { jobs: 3, ..opts });
        prop_assert_eq!(
            format!("{:?} {:?} {:?}", seq.gates, seq.pos, seq.stats),
            format!("{:?} {:?} {:?}", par.gates, par.pos, par.stats)
        );
        let report = verify_mapping_report(&g, &par, &lib);
        prop_assert_eq!(report.result, CecResult::Equivalent);
    }
}
