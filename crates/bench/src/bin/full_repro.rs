//! Runs the complete reproduction: Table 1, Table 2 family averages,
//! Table 3 with verification, and the Figure 6 summary — then prints a
//! paper-vs-measured scoreboard, the one-shot check of every
//! reproduced table and figure.
//!
//! `--jobs N` sets the worker-thread budget (default: `CNTFET_JOBS`
//! or the detected core count); every number in the scoreboard is
//! identical for every value. `--input FILE` (repeatable) additionally
//! pushes external AIGER/BLIF circuits through the verified pipeline
//! and adds their verdicts to the scoreboard. Any other argument exits
//! with status 2 and a usage line.

use cntfet_aig::{
    check_equivalence_sweeping, enumerate_cuts, parse_aiger, write_aiger_ascii,
    write_aiger_binary, Aig, CecResult,
};
use cntfet_bench::serve::load_circuit;
use cntfet_bench::{
    run_circuit, run_suite, run_suite_with, suite_averages, suite_libraries,
    suite_verification_stats, SEED_RESYN2RS,
};
use cntfet_circuits::paper_benchmarks;
use cntfet_core::{characterize_family, enumerate_gates, family_averages, Library, LogicFamily};
use cntfet_sat::Solver;
use cntfet_synth::{resyn2rs, AigStats};
use cntfet_techmap::{
    check_mapping, map, mapping_to_aig, verify_mapping_report, MapOptions, MapStats, Objective,
};

struct Check {
    what: &'static str,
    paper: f64,
    measured: f64,
    tolerance_pct: f64,
}

impl Check {
    fn passed(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured == 0.0;
        }
        ((self.measured - self.paper) / self.paper).abs() * 100.0 <= self.tolerance_pct
    }
}

/// The accepted arguments; anything else exits with status 2.
const USAGE: &str = "usage: full_repro [--jobs N] [--input FILE]...";

/// Prints `msg` and the usage line, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("full_repro: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    // `--input FILE` (repeatable): external circuits audited alongside
    // the built-in suite.
    let mut inputs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => threadpool::Jobs::set(n),
                _ => usage_error("--jobs expects a positive integer"),
            },
            "--input" => match args.next() {
                Some(f) if !f.starts_with("--") => inputs.push(f),
                _ => usage_error("--input expects a file path (.aag, .aig or .blif)"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let t0 = std::time::Instant::now();
    let mut checks: Vec<Check> = Vec::new();

    // Table 1.
    let e_cntfet = enumerate_gates(true);
    let e_cmos = enumerate_gates(false);
    checks.push(Check {
        what: "Table 1: ambipolar gate functions",
        paper: 46.0,
        measured: e_cntfet.num_functions() as f64,
        tolerance_pct: 0.0,
    });
    checks.push(Check {
        what: "Table 1: CMOS gate functions",
        paper: 7.0,
        measured: e_cmos.num_functions() as f64,
        tolerance_pct: 0.0,
    });

    // Table 2 family averages.
    let st = family_averages(&characterize_family(LogicFamily::TgStatic));
    let ps = family_averages(&characterize_family(LogicFamily::TgPseudo));
    let pp = family_averages(&characterize_family(LogicFamily::PassPseudo));
    let cm = family_averages(&characterize_family(LogicFamily::CmosStatic));
    for (what, paper, measured) in [
        ("Table 2: TG static avg transistors", 9.1, st.transistors),
        ("Table 2: TG static avg area", 12.3, st.area),
        ("Table 2: TG static avg FO4 worst", 11.3, st.fo4_worst),
        ("Table 2: TG static avg FO4 avg", 9.0, st.fo4_avg),
        ("Table 2: TG pseudo avg area", 8.5, ps.area),
        ("Table 2: TG pseudo avg FO4 avg", 12.0, ps.fo4_avg),
        ("Table 2: pass pseudo avg area", 11.5, pp.area),
        ("Table 2: pass pseudo avg FO4 avg", 24.1, pp.fo4_avg),
        ("Table 2: CMOS avg area", 12.7, cm.area),
        ("Table 2: CMOS avg FO4 avg", 9.0, cm.fo4_avg),
    ] {
        checks.push(Check { what, paper, measured, tolerance_pct: 7.0 });
    }

    // Table 3 + Fig. 6 (verified).
    println!("running the 15-benchmark synthesis+mapping suite (verified)...");
    let t_suite = std::time::Instant::now();
    let rows = run_suite(true, None);
    let suite_secs = t_suite.elapsed().as_secs_f64();
    // What decided the checks, and what SAT cost, so solver
    // regressions show up in repro runs rather than only in the
    // criterion benches.
    let (vstats, certified, exhaustive) = suite_verification_stats(&rows);
    let sat_checks = 3 * rows.len() as u32 - certified - exhaustive;
    println!(
        "verification: {certified} checks by certificate, {exhaustive} by exhaustive \
         simulation, {sat_checks} by SAT ({} conflicts, {} propagations, {} learnts kept, \
         {} restarts, {} reductions, {} GCs) ({suite_secs:.1}s suite)",
        vstats.conflicts,
        vstats.propagations,
        vstats.learnts,
        vstats.restarts,
        vstats.reduces,
        vstats.gcs,
    );
    // The delay-objective engines compared below (single enumeration
    // vs arrival-aware rounds) are verified too.
    let with_rounds = |delay_rounds| {
        run_suite_with(
            true,
            None,
            MapOptions { objective: Objective::Delay, delay_rounds, ..Default::default() },
        )
    };
    let single = with_rounds(0);
    let iterated = with_rounds(MapOptions::default().delay_rounds);
    let all_verified = rows.iter().chain(&single).chain(&iterated).all(|r| r.verified);
    let a = suite_averages(&rows);
    checks.push(Check {
        what: "Table 3: all mappings verified equivalent",
        paper: 1.0,
        measured: all_verified as u8 as f64,
        tolerance_pct: 0.0,
    });
    // Shape targets (generous tolerances — our benchmarks are
    // reconstructions and the mapper is not ABC bit-for-bit).
    let gate_red = 100.0 * (1.0 - a.tg_static.0 / a.cmos.0);
    let area_red_static = 100.0 * (1.0 - a.tg_static.1 / a.cmos.1);
    let area_red_pseudo = 100.0 * (1.0 - a.tg_pseudo.1 / a.cmos.1);
    let speedup_static = a.cmos.4 / a.tg_static.4;
    let speedup_pseudo = a.cmos.4 / a.tg_pseudo.4;
    for (what, paper, measured, tol) in [
        ("Table 3: gate-count reduction % (static)", 38.6, gate_red, 60.0),
        ("Table 3: area reduction % (static)", 37.7, area_red_static, 60.0),
        ("Table 3: area reduction % (pseudo)", 64.5, area_red_pseudo, 45.0),
        ("Fig. 6: mean speedup (static)", 6.9, speedup_static, 50.0),
        ("Fig. 6: mean speedup (pseudo)", 5.8, speedup_pseudo, 50.0),
    ] {
        checks.push(Check { what, paper, measured, tolerance_pct: tol });
    }
    // Arrival-aware delay mapping vs the single-enumeration engine:
    // under Objective::Delay the re-enumeration rounds must never
    // lengthen any critical path, and the area they pay is reported.
    println!("\ncomparing delay-objective engines (single enumeration vs arrival-aware)...");
    let pick = |r: &cntfet_bench::Table3Row, fam: usize| -> MapStats {
        match fam {
            0 => r.tg_static,
            1 => r.tg_pseudo,
            _ => r.cmos,
        }
    };
    let mut worse_cells = 0usize;
    let mut improved_cells = 0usize;
    for (fam, family) in ["static", "pseudo", "cmos"].into_iter().enumerate() {
        let (mut d0, mut d1, mut a0, mut a1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (s, i) in single.iter().zip(&iterated) {
            let (ss, si) = (pick(s, fam), pick(i, fam));
            if si.delay_norm > ss.delay_norm + 1e-9 {
                worse_cells += 1;
                println!("  REGRESSION {family}/{}: {} -> {}", s.name, ss.delay_norm, si.delay_norm);
            } else if si.delay_norm < ss.delay_norm - 1e-9 {
                improved_cells += 1;
            }
            d0 += ss.delay_norm;
            d1 += si.delay_norm;
            a0 += ss.area;
            a1 += si.area;
        }
        let n = single.len() as f64;
        println!(
            "  {family:>6}: avg delay {:.1} -> {:.1} τ ({:+.1}%), avg area {:.0} -> {:.0} ({:+.1}%)",
            d0 / n,
            d1 / n,
            100.0 * (d1 - d0) / d0,
            a0 / n,
            a1 / n,
            100.0 * (a1 - a0) / a0,
        );
    }
    println!("  {improved_cells} of {} benchmark×family cells improved", single.len() * 3);
    checks.push(Check {
        what: "Mapper: arrival rounds never worsen delay",
        paper: 0.0,
        measured: worse_cells as f64,
        tolerance_pct: 0.0,
    });

    // Synthesis: every `resyn2rs` output is CEC-verified against its
    // source, and never worse in (ands, depth) than the seed-era
    // rebuild engine reached on the same circuit (pinned constants).
    println!("\nchecking resyn2rs against the pinned seed-engine results...");
    let benches = paper_benchmarks();
    let synth_runs = threadpool::par_map(0, benches.len(), |i| {
        let opt = resyn2rs(&benches[i].aig);
        let verified = check_equivalence_sweeping(&benches[i].aig, &opt) == CecResult::Equivalent;
        (AigStats::of(&opt), verified)
    });
    let mut synth_worse = 0usize;
    let mut synth_unverified = 0usize;
    let (mut seed_ands, mut new_ands) = (0usize, 0usize);
    for ((b, &(name, seed)), (stats, verified)) in
        benches.iter().zip(&SEED_RESYN2RS).zip(&synth_runs)
    {
        assert_eq!(b.name, name, "pinned seed table out of suite order");
        if seed.better_than(stats) {
            synth_worse += 1;
            println!(
                "  REGRESSION {name}: resyn2rs {}/{} vs seed {}/{}",
                stats.ands, stats.depth, seed.ands, seed.depth
            );
        }
        synth_unverified += usize::from(!verified);
        seed_ands += seed.ands;
        new_ands += stats.ands;
    }
    println!(
        "  total ands {seed_ands} (seed) -> {new_ands} ({:+.1}%)",
        100.0 * (new_ands as f64 - seed_ands as f64) / seed_ands as f64,
    );
    checks.push(Check {
        what: "Synth: never worse than seed (ands, depth)",
        paper: 0.0,
        measured: synth_worse as f64,
        tolerance_pct: 0.0,
    });
    checks.push(Check {
        what: "Synth: every resyn2rs output CEC-verified",
        paper: 0.0,
        measured: synth_unverified as f64,
        tolerance_pct: 0.0,
    });

    // Structural invariant audit: the same checkers the `paranoid`
    // feature threads into the engines' hot seams, run explicitly on a
    // suite sample — synthesized graphs, cut arenas, mapped covers per
    // family, and a solver after solving with forced DB reductions.
    println!("\nauditing structural invariants (graph / cuts / cover / solver checkers)...");
    let mut invariant_violations = 0usize;
    // The same mappings (plus t481 under the delay objective, whose
    // covers resolve pins through wire aliases) feed the certificate
    // vs SAT cross-check below.
    let mut certificate_audit: Vec<(String, Aig, MapOptions)> = Vec::new();
    for b in paper_benchmarks().iter().filter(|b| ["C1908", "add-16", "C6288"].contains(&b.name))
    {
        let opt = resyn2rs(&b.aig);
        if let Err(e) = opt.check() {
            invariant_violations += 1;
            println!("  VIOLATION {}: graph: {e}", b.name);
        }
        let cuts = enumerate_cuts(&opt, 6, 8);
        if let Err(e) = cuts.check(&opt) {
            invariant_violations += 1;
            println!("  VIOLATION {}: cut arena: {e}", b.name);
        }
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(&opt, &lib, MapOptions::default());
            if let Err(e) = check_mapping(&opt, &m, &lib) {
                invariant_violations += 1;
                println!("  VIOLATION {}/{family:?}: cover: {e}", b.name);
            }
        }
        certificate_audit.push((b.name.to_string(), opt, MapOptions::default()));
    }
    {
        // Pigeonhole (5 into 4): UNSAT with enough conflicts to learn
        // clauses; reduce twice to force arena churn, checking after
        // each solver step.
        let mut s = Solver::new();
        let v: Vec<_> = (0..20).map(|_| s.new_var()).collect();
        for p in 0..5 {
            let hole: Vec<_> = (0..4).map(|h| v[p * 4 + h].pos()).collect();
            s.add_clause(&hole);
        }
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    s.add_clause(&[v[p1 * 4 + h].neg(), v[p2 * 4 + h].neg()]);
                }
            }
        }
        for round in 0..2 {
            let _ = s.solve_limited(&[], 60);
            s.reduce_learnts();
            if let Err(e) = s.check() {
                invariant_violations += 1;
                println!("  VIOLATION solver round {round}: {e}");
            }
        }
    }
    println!("  invariant audit: {invariant_violations} violations");
    checks.push(Check {
        what: "Checkers: structural invariants hold",
        paper: 0.0,
        measured: invariant_violations as f64,
        tolerance_pct: 0.0,
    });

    // Mapping certificate vs SAT: SAT sweeping on the rebuilt netlist
    // stays the independent cross-check of every certified verdict,
    // and the certificate must decide every mapper cover.
    println!("\ncross-checking the mapping certificate against SAT CEC...");
    if let Some(b) = paper_benchmarks().into_iter().find(|b| b.name == "t481") {
        let delay = MapOptions { objective: Objective::Delay, ..Default::default() };
        certificate_audit.push(("t481 (delay)".to_string(), resyn2rs(&b.aig), delay));
    }
    let (mut mappings, mut disagreements) = (0usize, 0usize);
    let (mut cert_ms, mut sat_ms) = (0.0f64, 0.0f64);
    for (name, opt, opts) in &certificate_audit {
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(opt, &lib, *opts);
            let t = std::time::Instant::now();
            let certified = verify_mapping_report(opt, &m, &lib).certified;
            cert_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = std::time::Instant::now();
            let rebuilt = mapping_to_aig(&m, &lib, opt.num_pis());
            let sat_equivalent = check_equivalence_sweeping(opt, &rebuilt) == CecResult::Equivalent;
            sat_ms += t.elapsed().as_secs_f64() * 1e3;
            mappings += 1;
            if certified != sat_equivalent {
                disagreements += 1;
                println!(
                    "  DISAGREE {name}/{family:?}: certified {certified}, SAT equivalent \
                     {sat_equivalent}"
                );
            }
        }
    }
    println!(
        "  {mappings} mappings, {disagreements} disagreements (certificate {cert_ms:.1} ms, \
         SAT {sat_ms:.0} ms)"
    );
    checks.push(Check {
        what: "Mapping: certificate agrees with SAT CEC",
        paper: 0.0,
        measured: disagreements as f64,
        tolerance_pct: 0.0,
    });

    // AIGER frontend (PR 9): every suite circuit must survive a write →
    // parse round trip through BOTH formats with identical structural
    // stats and CEC-proven equivalence. This is the contract the batch
    // service's file path stands on.
    println!("\nauditing AIGER round-trips (write -> parse -> stats + CEC, ascii + binary)...");
    let t_rt = std::time::Instant::now();
    let mut roundtrip_failures = 0usize;
    for b in paper_benchmarks() {
        let encodings = [
            ("ascii", write_aiger_ascii(&b.aig).into_bytes()),
            ("binary", write_aiger_binary(&b.aig)),
        ];
        for (fmt, bytes) in encodings {
            match parse_aiger(&bytes) {
                Ok(back) => {
                    let stats_ok = back.num_ands() == b.aig.num_ands()
                        && back.depth() == b.aig.depth()
                        && back.num_pis() == b.aig.num_pis()
                        && back.num_pos() == b.aig.num_pos();
                    let equivalent =
                        check_equivalence_sweeping(&b.aig, &back) == CecResult::Equivalent;
                    if !stats_ok || !equivalent {
                        roundtrip_failures += 1;
                        println!(
                            "  FAIL {}/{fmt}: stats identical: {stats_ok}, CEC: {equivalent}",
                            b.name
                        );
                    }
                }
                Err(e) => {
                    roundtrip_failures += 1;
                    println!("  FAIL {}/{fmt}: re-parse error: {e}", b.name);
                }
            }
        }
    }
    println!(
        "  {} circuits x 2 formats, {roundtrip_failures} failures ({:.1}s)",
        paper_benchmarks().len(),
        t_rt.elapsed().as_secs_f64(),
    );

    // External inputs (`--input`): load, synthesize, map, SAT-verify,
    // and round-trip through AIGER like the suite circuits above.
    let mut external_failures = 0usize;
    if !inputs.is_empty() {
        println!("\nrunning {} external input(s) through the verified pipeline...", inputs.len());
        let libs = suite_libraries();
        for f in &inputs {
            match load_circuit(std::path::Path::new(f)) {
                Ok(aig) => {
                    let name = aig.name().to_string();
                    let row = run_circuit(
                        &name,
                        "external",
                        &aig,
                        true,
                        MapOptions::default(),
                        &libs,
                    );
                    let rt_ok = parse_aiger(&write_aiger_binary(&aig))
                        .map(|back| {
                            check_equivalence_sweeping(&aig, &back) == CecResult::Equivalent
                        })
                        .unwrap_or(false);
                    if !row.verified || !rt_ok {
                        external_failures += 1;
                    }
                    println!(
                        "  {name}: {} PIs / {} POs, {} ands; static {} gates / {:.0} area; \
                         verified: {}, round-trip: {rt_ok}",
                        aig.num_pis(),
                        aig.num_pos(),
                        aig.num_ands(),
                        row.tg_static.gates,
                        row.tg_static.area,
                        row.verified,
                    );
                }
                Err(e) => {
                    external_failures += 1;
                    println!("  FAIL {f}: {e}");
                }
            }
        }
    }

    // Directional claims.
    let mult = rows.iter().find(|r| r.name == "C6288").unwrap();
    let avg_speedup = rows.iter().map(|r| r.speedup_static()).sum::<f64>() / rows.len() as f64;
    checks.push(Check {
        what: "Fig. 6: multiplier beats the average speedup",
        paper: 1.0,
        measured: (mult.speedup_static() > avg_speedup) as u8 as f64,
        tolerance_pct: 0.0,
    });

    checks.push(Check {
        what: "AIGER: suite round-trips (stats + CEC)",
        paper: 0.0,
        measured: roundtrip_failures as f64,
        tolerance_pct: 0.0,
    });
    if !inputs.is_empty() {
        checks.push(Check {
            what: "External inputs: verified + round-tripped",
            paper: 0.0,
            measured: external_failures as f64,
            tolerance_pct: 0.0,
        });
    }

    println!("\n== paper vs measured ==");
    println!("{:<48} {:>10} {:>10} {:>8}", "check", "paper", "measured", "status");
    let mut failures = 0;
    for c in &checks {
        let ok = c.passed();
        if !ok {
            failures += 1;
        }
        println!(
            "{:<48} {:>10.2} {:>10.2} {:>8}",
            c.what,
            c.paper,
            c.measured,
            if ok { "ok" } else { "DEVIATES" }
        );
    }
    println!(
        "\n{} checks, {} deviations — {:.0}s total",
        checks.len(),
        failures,
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 || !all_verified {
        std::process::exit(1);
    }
}
