//! Performance snapshot: measures the workspace's hot paths —
//! synthesis, technology mapping, verification (the per-gate mapping
//! certificate vs SAT, and SAT CEC), the suite fan-out at several
//! worker counts, the batch synthesis service (cold vs warm
//! throughput), and peak memory per AND of a delay-mapped DES chain at
//! three sizes — and writes the numbers to `BENCH_PR10.json` in the
//! current directory (run it from a scratch directory to keep the
//! committed snapshot). Its ratio and memory assertions run in CI at
//! the default worker count. The JSON continues the bench trajectory
//! the ROADMAP asks for: `BENCH_PR3.json` records the verification
//! rebuild, `BENCH_PR4.json` the arrival-aware mapper,
//! `BENCH_PR5.json` the synthesis rebuild, `BENCH_PR7.json` the
//! thread pool, `BENCH_PR8.json` the caches, `BENCH_PR9.json` the
//! service, this file the hot-path rows after them. The engines
//! keep no result cache, so every engine timing row recomputes on
//! every iteration; the service's cold/warm row is where its
//! fingerprint cache is allowed to shine. The suite scaling row is an
//! honest measurement of the machine the snapshot ran on:
//! `available_parallelism` is recorded next to it, and on a
//! single-core container the jobs>1 rows will not (and must not
//! pretend to) beat jobs=1.
//!
//! The memory row runs each chain size in a child process
//! (`perfsnap --mem-row ROUNDS`), so every size's peak RSS is its own;
//! it reads `VmHWM` from `/proc/self/status` and so needs Linux.

use cntfet_aig::{check_equivalence_sweeping_report, CecResult, SweepOptions};
use cntfet_bench::serve::{SynthRequest, SynthService};
use cntfet_bench::run_suite_with;
use cntfet_boolfn::{canon_cache_stats, CacheStats};
use cntfet_circuits::{
    array_multiplier, c1908_like, cla_adder, des_chain, ripple_adder, shift_add_multiplier,
};
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs, SynthOptions};
use cntfet_techmap::{map, mapping_to_aig, verify_mapping_report, MapOptions, Objective};
use std::time::Instant;

/// Best-of-`n` wall time of `f`, in milliseconds.
fn best_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Formats a hit/miss counter pair as a JSON fragment.
fn stats_json(s: &CacheStats) -> String {
    format!(
        r#"{{ "hits": {}, "misses": {}, "hit_rate": {:.3} }}"#,
        s.hits,
        s.misses,
        s.hit_rate()
    )
}

/// DES-chain round counts of the memory row: about 11.6k, 46.5k and
/// 186k ANDs after synthesis.
const MEM_ROW_ROUNDS: [usize; 3] = [8, 32, 128];
/// Ceiling on the largest chain's peak RSS, in KiB per AND.
const MEM_ROW_MAX_KIB_PER_AND: f64 = 1.6;
/// Ceiling on the growth of KiB per AND per decade of ANDs, from the
/// smallest chain to the largest: memory must stay linear in the graph.
const MEM_ROW_MAX_GROWTH_PER_DECADE: f64 = 1.3;

/// The process's peak resident set size (`VmHWM`), in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status")
}

/// The `--mem-row ROUNDS` child: builds the `ROUNDS`-round DES chain,
/// runs `resyn2rs` and then a TG-static delay map, and prints the ANDs
/// after synthesis and the process's peak RSS in kB.
fn mem_row_child(rounds: usize) {
    let optimized = resyn2rs(&des_chain(rounds));
    let lib = Library::new(LogicFamily::TgStatic);
    let opts = MapOptions { objective: Objective::Delay, ..Default::default() };
    assert!(map(&optimized, &lib, opts).stats.gates > 0);
    println!("{} {}", optimized.num_ands(), vm_hwm_kb());
}

/// One row of the memory table, measured by a `--mem-row` child:
/// (ANDs after synthesis, peak RSS in kB).
fn mem_row_sample(rounds: usize) -> (u64, u64) {
    let exe = std::env::current_exe().expect("perfsnap's own path");
    let out = std::process::Command::new(exe)
        .args(["--mem-row", &rounds.to_string()])
        .output()
        .expect("start the --mem-row child");
    let text = String::from_utf8_lossy(&out.stdout);
    let row: Vec<u64> = text.split_whitespace().filter_map(|w| w.parse().ok()).collect();
    match row[..] {
        [ands, kb] if out.status.success() && ands > 0 => (ands, kb),
        _ => panic!("memory row at {rounds} rounds failed: {} {text}", out.status),
    }
}

fn usage() -> ! {
    eprintln!("usage: perfsnap [--mem-row ROUNDS]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mem_row: Option<usize> = match args.as_slice() {
        [] => None,
        [flag, rounds] if flag == "--mem-row" => Some(rounds.parse().unwrap_or_else(|_| usage())),
        _ => usage(),
    };
    // Timing numbers with the invariant checkers compiled in would be
    // garbage — refuse to record them.
    if cfg!(feature = "paranoid") {
        eprintln!("perfsnap: built with --features paranoid; rebuild without it for timing runs");
        std::process::exit(2);
    }
    if let Some(rounds) = mem_row {
        return mem_row_child(rounds);
    }
    println!("perfsnap: measuring synthesis, mapping, verification and cache hot paths...");

    // --- synthesis (tracked for regressions) ---
    let mult8_src = array_multiplier(8);
    let c1908_src = c1908_like();
    let des_src = cntfet_circuits::des_like();
    let synth_mult8_ms = best_ms(5, || {
        assert!(resyn2rs(&mult8_src).num_ands() > 0);
    });
    let synth_c1908_ms = best_ms(5, || {
        assert!(resyn2rs(&c1908_src).num_ands() > 0);
    });
    let synth_des_ms = best_ms(3, || {
        assert!(resyn2rs(&des_src).num_ands() > 0);
    });
    let m8_opt = resyn2rs(&mult8_src);
    let c19_opt = resyn2rs(&c1908_src);

    // --- mapping (tracked for regressions) ---
    let lib = Library::new(LogicFamily::TgStatic);
    let add16 = resyn2rs(&ripple_adder(16));
    let map_add16_ms = best_ms(5, || {
        assert!(map(&add16, &lib, MapOptions::default()).stats.gates > 0);
    });
    let map_c1908_ms = best_ms(5, || {
        assert!(map(&c19_opt, &lib, MapOptions::default()).stats.gates > 0);
    });
    let delay_opts = MapOptions { objective: Objective::Delay, ..Default::default() };
    let map_mult8_delay_ms = best_ms(5, || {
        assert!(map(&m8_opt, &lib, delay_opts).stats.gates > 0);
    });

    // --- verification (tracked for regressions) ---
    let m_cols = array_multiplier(8);
    let m_sa = shift_add_multiplier(8);
    let r32 = ripple_adder(32);
    let c32 = cla_adder(32);
    let cec_mult8_default_ms = best_ms(5, || {
        let r = check_equivalence_sweeping_report(&m_sa, &m_cols, &SweepOptions::default());
        assert_eq!(r.result, CecResult::Equivalent);
    });
    let cec_adder32_sweep_ms = best_ms(5, || {
        let r = check_equivalence_sweeping_report(&r32, &c32, &SweepOptions::default());
        assert_eq!(r.result, CecResult::Equivalent);
    });

    // --- parallel suite scaling ---
    // One unverified suite pass per worker count; `0` is the resolved
    // "all cores" default. The reports must be identical — that's the
    // determinism contract, checked here on the real suite — while the
    // wall times say whatever this machine's core count lets them say.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("perfsnap: suite scaling on {cores} core(s)...");
    let suite_at = |jobs: usize| {
        threadpool::Jobs::set(jobs);
        let t = Instant::now();
        let rows = run_suite_with(false, None, cntfet_techmap::MapOptions::default());
        let secs = t.elapsed().as_secs_f64();
        (secs, format!("{rows:?}"))
    };
    let (suite_jobs1_s, report1) = suite_at(1);
    let (suite_jobs2_s, report2) = suite_at(2);
    let (suite_jobs4_s, report4) = suite_at(4);
    let (suite_all_s, report_all) = suite_at(0);
    threadpool::Jobs::set(0);
    let deterministic = report1 == report2 && report1 == report4 && report1 == report_all;
    assert!(deterministic, "suite reports diverged across worker counts");

    // --- mapping verification: certificate vs SAT ---
    // The des-like TG-static cover, proven by the per-gate certificate
    // that `verify_mapping_report` runs first, and by SAT sweeping on
    // the rebuilt netlist, its fallback. The certificate must decide
    // and be at least 10x faster.
    println!("perfsnap: mapping verification (certificate vs SAT) on des-like...");
    let des_opt = resyn2rs(&des_src);
    let des_map = map(&des_opt, &lib, MapOptions::default());
    let verify_des_cert_ms = best_ms(5, || {
        assert!(verify_mapping_report(&des_opt, &des_map, &lib).certified);
    });
    let verify_des_sat_ms = best_ms(3, || {
        let rebuilt = mapping_to_aig(&des_map, &lib, des_opt.num_pis());
        let r = check_equivalence_sweeping_report(&des_opt, &rebuilt, &SweepOptions::default());
        assert_eq!(r.result, CecResult::Equivalent);
    });
    assert!(
        verify_des_cert_ms * 10.0 <= verify_des_sat_ms,
        "mapping certificate below 10x SAT: {verify_des_cert_ms:.3}ms vs {verify_des_sat_ms:.1}ms"
    );

    // --- batch synthesis service (PR 9): cold vs warm throughput ---
    // The full 15-circuit suite through `SynthService::process_batch`,
    // once on a fresh service (cold — the real pipeline runs) and once
    // again immediately after (warm — the fingerprint-keyed service
    // cache answers every request). Warm throughput must be at
    // least 2x cold; that is the dedup contract `batch_synth` sells.
    println!("perfsnap: batch synthesis service cold/warm throughput...");
    let svc = SynthService::with_options(
        LogicFamily::TgStatic,
        MapOptions::default(),
        SynthOptions::default(),
        false,
    );
    let requests: Vec<SynthRequest> = cntfet_circuits::paper_benchmarks()
        .into_iter()
        .map(|b| SynthRequest::new(b.name, b.aig))
        .collect();
    let serve_cold = svc.process_batch(&requests, 0);
    let serve_warm = svc.process_batch(&requests, 0);
    assert_eq!(serve_cold.completed(), requests.len(), "cold batch dropped requests");
    assert_eq!(serve_warm.completed(), requests.len(), "warm batch dropped requests");
    let (serve_cold_cps, serve_warm_cps) =
        (serve_cold.circuits_per_sec(), serve_warm.circuits_per_sec());
    assert!(
        serve_warm_cps >= 2.0 * serve_cold_cps,
        "warm batch throughput below 2x cold: {serve_cold_cps:.1} vs {serve_warm_cps:.1} circuits/s"
    );

    // --- AIGER frontend: the per-request file-path costs ---
    let des_graph = cntfet_circuits::des_like();
    let des_ascii = cntfet_aig::write_aiger_ascii(&des_graph);
    let des_binary = cntfet_aig::write_aiger_binary(&des_graph);
    let aiger_write_ascii_ms = best_ms(5, || {
        assert!(!cntfet_aig::write_aiger_ascii(&des_graph).is_empty());
    });
    let aiger_write_binary_ms = best_ms(5, || {
        assert!(!cntfet_aig::write_aiger_binary(&des_graph).is_empty());
    });
    let aiger_parse_ascii_ms = best_ms(5, || {
        assert!(cntfet_aig::parse_aiger(des_ascii.as_bytes()).is_ok());
    });
    let aiger_parse_binary_ms = best_ms(5, || {
        assert!(cntfet_aig::parse_aiger(&des_binary).is_ok());
    });

    // --- peak memory per AND, by graph size ---
    // A DES chain synthesized and delay-mapped in a child process per
    // size. The delay map sets the peak: its candidates and cut arena
    // grow with the graph, so a layout regression shows up here as
    // KiB per AND, and superlinear growth as a rising row.
    println!("perfsnap: memory per AND on DES chains of {MEM_ROW_ROUNDS:?} rounds...");
    let mem_rows: Vec<(usize, u64, u64, f64)> = MEM_ROW_ROUNDS
        .iter()
        .map(|&rounds| {
            let (ands, kb) = mem_row_sample(rounds);
            let kib_per_and = kb as f64 / ands as f64;
            println!(
                "perfsnap:   {rounds} rounds: {ands} ANDs, VmHWM {kb} kB, {kib_per_and:.2} KiB per AND"
            );
            (rounds, ands, kb, kib_per_and)
        })
        .collect();
    let (_, small_ands, _, small_kib) = mem_rows[0];
    let (large_rounds, large_ands, _, large_kib) = mem_rows[mem_rows.len() - 1];
    let decades = (large_ands as f64 / small_ands as f64).log10();
    let mem_growth_per_decade = (large_kib / small_kib).powf(1.0 / decades);
    assert!(
        large_kib <= MEM_ROW_MAX_KIB_PER_AND,
        "{large_rounds}-round chain peaks at {large_kib:.2} KiB per AND, above {MEM_ROW_MAX_KIB_PER_AND}"
    );
    assert!(
        mem_growth_per_decade <= MEM_ROW_MAX_GROWTH_PER_DECADE,
        "KiB per AND grows {mem_growth_per_decade:.2}x per decade of ANDs, \
         above {MEM_ROW_MAX_GROWTH_PER_DECADE}x"
    );
    let mem_rows_json = mem_rows
        .iter()
        .map(|(rounds, ands, kb, kib)| {
            format!(
                r#"{{ "rounds": {rounds}, "ands": {ands}, "vmhwm_kb": {kb}, "kib_per_and": {kib:.3} }}"#
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");

    // --- NPN memo counters, accumulated over everything above ---
    let canon = canon_cache_stats();

    let json = format!(
        r#"{{
  "pr": 10,
  "description": "Hot-path rows of synthesis, mapping, verification, the service and peak memory per AND; the suite report is identical at every worker count",
  "service": {{
    "requests": {n_requests},
    "verify": false,
    "cold_batch_s": {serve_cold_s:.3},
    "cold_circuits_per_sec": {serve_cold_cps:.1},
    "warm_batch_s": {serve_warm_s:.4},
    "warm_circuits_per_sec": {serve_warm_cps:.1},
    "warm_over_cold": {serve_speedup:.1}
  }},
  "aiger_ms": {{
    "circuit": "des-like",
    "write_ascii": {aiger_write_ascii_ms:.3},
    "write_binary": {aiger_write_binary_ms:.3},
    "parse_ascii": {aiger_parse_ascii_ms:.3},
    "parse_binary": {aiger_parse_binary_ms:.3}
  }},
  "memory_per_and": {{
    "circuit": "des_chain, resyn2rs then a TG-static delay map, one process per size",
    "rows": [
      {mem_rows_json}
    ],
    "growth_per_decade": {mem_growth_per_decade:.3}
  }},
  "caching": {{
    "counters": {{
      "npn_canon": {canon_json}
    }}
  }},
  "parallel": {{
    "available_parallelism": {cores},
    "suite_wall_s": {{
      "jobs_1": {suite_jobs1_s:.2},
      "jobs_2": {suite_jobs2_s:.2},
      "jobs_4": {suite_jobs4_s:.2},
      "jobs_all": {suite_all_s:.2}
    }},
    "identical_reports_across_worker_counts": {deterministic}
  }},
  "synth_ms": {{
    "mult8_inplace": {synth_mult8_ms:.3},
    "c1908_inplace": {synth_c1908_ms:.3},
    "des_inplace": {synth_des_ms:.3}
  }},
  "synth_outcomes": {{
    "mult8_ands_inplace": {},
    "mult8_depth_inplace": {},
    "c1908_ands_inplace": {}
  }},
  "mapping_ms": {{
    "add16_tg_static_balanced": {map_add16_ms:.3},
    "c1908_tg_static_balanced": {map_c1908_ms:.3},
    "mult8_tg_static_delay": {map_mult8_delay_ms:.3}
  }},
  "cec_ms": {{
    "mult8_shift_add_vs_columns_default": {cec_mult8_default_ms:.3},
    "ripple_vs_cla_32_sweep": {cec_adder32_sweep_ms:.3},
    "des_tg_static_mapping_certificate": {verify_des_cert_ms:.3},
    "des_tg_static_mapping_sat": {verify_des_sat_ms:.1}
  }}
}}
"#,
        m8_opt.num_ands(),
        m8_opt.depth(),
        c19_opt.num_ands(),
        canon_json = stats_json(&canon),
        n_requests = requests.len(),
        serve_cold_s = serve_cold.elapsed_s,
        serve_warm_s = serve_warm.elapsed_s,
        serve_speedup = serve_warm_cps / serve_cold_cps,
    );
    std::fs::write("BENCH_PR10.json", &json).expect("write BENCH_PR10.json");
    print!("{json}");
    println!("wrote BENCH_PR10.json");
}
