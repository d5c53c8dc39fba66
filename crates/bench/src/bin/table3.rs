//! Regenerates **Table 3** of the paper: technology-mapping results
//! (gate count, area, logic depth, normalized and absolute delay) for
//! all 15 benchmarks in the CNTFET static, CNTFET pseudo and CMOS
//! libraries, including the Average and Improvement rows.
//!
//! Every mapping is verified against the optimized netlist (by the
//! per-gate certificate, with SAT as its fallback) unless `--fast` is
//! given. `--objective area` / `--objective delay` report
//! the area- and delay-pressed corners of the multi-objective coverer
//! instead of the default balanced covering; `--delay-rounds N`
//! overrides the arrival-aware re-enumeration round bound (`0`
//! reproduces the single-enumeration engine); `--jobs N` sets the
//! worker-thread budget (default: `CNTFET_JOBS` or the detected core
//! count — the table is identical for every value); `--input FILE`
//! (repeatable) runs external AIGER/BLIF circuits through the same
//! pipeline instead of the built-in suite.

use cntfet_bench::serve::load_circuit;
use cntfet_bench::{print_table3, run_circuit, run_suite_with, suite_libraries, Table3Row};
use cntfet_techmap::{MapOptions, Objective};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let objective = match args.iter().position(|a| a == "--objective") {
        None => Objective::Balanced,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("area") => Objective::Area,
            Some("delay") => Objective::Delay,
            Some("balanced") => Objective::Balanced,
            other => {
                eprintln!(
                    "unknown objective {other:?}: expected area, delay or balanced"
                );
                std::process::exit(2);
            }
        },
    };
    let delay_rounds = match args.iter().position(|a| a == "--delay-rounds") {
        None => MapOptions::default().delay_rounds,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("--delay-rounds expects a non-negative integer");
                std::process::exit(2);
            }
        },
    };
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) if n > 0 => threadpool::Jobs::set(n),
            _ => {
                eprintln!("--jobs expects a positive integer");
                std::process::exit(2);
            }
        }
    }
    // `--input FILE` (repeatable): run external circuits instead of
    // the built-in suite.
    let mut inputs: Vec<String> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--input" {
            match args.get(i + 1) {
                Some(f) if !f.starts_with("--") => inputs.push(f.clone()),
                _ => {
                    eprintln!("--input expects a file path (.aag, .aig or .blif)");
                    std::process::exit(2);
                }
            }
        }
    }

    println!("== Table 3 reproduction: synthesis + technology mapping ==");
    println!(
        "(resyn2rs optimization, 6-cut NPN matching, \
         {objective:?} covering, {delay_rounds} arrival round(s), {} worker(s); \
         verification {})\n",
        threadpool::Jobs::get(),
        if fast { "OFF (--fast)" } else { "ON" }
    );
    let t0 = std::time::Instant::now();
    let map_opts = MapOptions { objective, delay_rounds, ..Default::default() };
    let rows: Vec<Table3Row> = if inputs.is_empty() {
        run_suite_with(!fast, None, map_opts)
    } else {
        let libs = suite_libraries();
        inputs
            .iter()
            .map(|f| match load_circuit(std::path::Path::new(f)) {
                Ok(aig) => {
                    let name = aig.name().to_string();
                    run_circuit(&name, "external", &aig, !fast, map_opts, &libs)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            })
            .collect()
    };
    print_table3(&rows);
    let all_verified = rows.iter().all(|r| r.verified);
    println!(
        "\n{} benchmarks in {:.1}s — equivalence checks: {}",
        rows.len(),
        t0.elapsed().as_secs_f64(),
        if fast {
            "skipped".to_string()
        } else if all_verified {
            "ALL PASSED".to_string()
        } else {
            "FAILURES!".to_string()
        }
    );
    println!(
        "\npaper averages: static 762 gates / 6727 area / 21.3 lvl / 198.7τ / 117.2 ps;\n\
         pseudo 771 / 3839 / 21.7 / 234.8 / 138.5; CMOS 1241 / 10805 / 36.4 / 269.9 / 809.7\n\
         paper improvements: 38.6% gates, 37.7%/64.5% area, 41.5%/40.4% levels, 6.9×/5.8× speed"
    );
    if !fast && !all_verified {
        std::process::exit(1);
    }
}
