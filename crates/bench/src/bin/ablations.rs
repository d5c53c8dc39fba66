//! Ablation studies of the reproduction's design choices:
//!
//! 1. **cut size** — how much of the CNTFET advantage needs the wide
//!    (5/6-input) cells vs the small ones;
//! 2. **area-recovery rounds** — delay/area trade of the mapper;
//! 3. **flat-only sub-library** — the cost of restricting to the 24
//!    single-block (GNOR/GNAND-shaped) cells, i.e. what the nested
//!    AOI/OAI-style gates of Table 1 contribute;
//! 4. **adder architecture** — ripple vs carry-lookahead under both
//!    technologies (the XOR win is architectural, not carry-specific);
//! 5. **verification engine** — what each tier of the CEC stack
//!    (exhaustive simulation, SAT sweeping, pure output miters) costs
//!    on a multiplier-class miter;
//! 6. **synthesis passes** — what `resyn2rs` takes off each circuit,
//!    and each pass's contribution to one round.

use cntfet_aig::{check_equivalence_sweeping_report, CecResult, SweepOptions};
use cntfet_circuits::{cla_adder, ripple_adder, shift_add_multiplier};
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs, Script};
use cntfet_techmap::{map, MapOptions, Objective};

fn main() {
    let bench = resyn2rs(&ripple_adder(16));
    let c1908 = resyn2rs(&cntfet_circuits::c1908_like());
    let lib = Library::new(LogicFamily::TgStatic);

    println!("== Ablation 1: cut size (add-16, TG static) ==");
    println!("{:>4} {:>7} {:>9} {:>9}", "k", "gates", "area", "delay/τ");
    for k in 2..=6 {
        let m = map(&bench, &lib, MapOptions { cut_size: k, ..Default::default() });
        println!(
            "{:>4} {:>7} {:>9.1} {:>9.1}",
            k, m.stats.gates, m.stats.area, m.stats.delay_norm
        );
    }

    println!("\n== Ablation 2: area-recovery rounds (C1908, TG static) ==");
    println!("{:>7} {:>7} {:>9} {:>9}", "rounds", "gates", "area", "delay/τ");
    for rounds in 0..=3 {
        let m = map(&c1908, &lib, MapOptions { area_rounds: rounds, ..Default::default() });
        println!(
            "{:>7} {:>7} {:>9.1} {:>9.1}",
            rounds, m.stats.gates, m.stats.area, m.stats.delay_norm
        );
    }

    println!("\n== Ablation 2b: covering objective (C1908, TG static) ==");
    println!("{:>9} {:>7} {:>9} {:>9}", "objective", "gates", "area", "delay/τ");
    for (name, objective) in [
        ("area", Objective::Area),
        ("balanced", Objective::Balanced),
        ("delay", Objective::Delay),
    ] {
        let m = map(&c1908, &lib, MapOptions { objective, ..Default::default() });
        println!(
            "{:>9} {:>7} {:>9.1} {:>9.1}",
            name, m.stats.gates, m.stats.area, m.stats.delay_norm
        );
    }

    println!("\n== Ablation 3: full 46-cell library vs 24 flat cells (C1908) ==");
    let flat = cntfet_fabric::fabric_library();
    for (name, l) in [("46 cells", &lib), ("24 flat cells", &flat)] {
        let m = map(&c1908, l, MapOptions::default());
        println!(
            "{:<14} gates={:<5} area={:<9.1} delay={:.1}τ",
            name, m.stats.gates, m.stats.area, m.stats.delay_norm
        );
    }
    println!("(the delta is what the nested GAOI/GOAI gates buy)");

    println!("\n== Ablation 4: adder architecture × technology (16 bit) ==");
    println!(
        "{:<22} {:>7} {:>9} {:>9} {:>10}",
        "configuration", "gates", "area", "delay/τ", "delay[ps]"
    );
    for (arch, aig) in [("ripple", ripple_adder(16)), ("carry-lookahead", cla_adder(16))] {
        // Mapped without resynthesis so the architectural structure
        // (serial carry vs flattened lookahead products) is preserved.
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let l = Library::new(family);
            let m = map(&aig, &l, MapOptions::default());
            println!(
                "{:<28} {:>7} {:>9.1} {:>9.1} {:>10.1}",
                format!("{arch} / {family:?}"),
                m.stats.gates,
                m.stats.area,
                m.stats.delay_norm,
                m.stats.delay_ps
            );
        }
    }
    println!("(lookahead trades area for depth under BOTH technologies — the");
    println!(" CNTFET advantage is orthogonal to the carry architecture)");

    println!("\n== Ablation 5: verification engine (mult8 shift-add vs columns miter) ==");
    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "engine", "time", "conflicts", "props", "proofs", "refines"
    );
    let m1 = shift_add_multiplier(8);
    let m2 = cntfet_circuits::array_multiplier(8);
    for (name, opts) in [
        ("exhaustive sim", SweepOptions::default()),
        ("SAT sweeping", SweepOptions { exhaustive_pis: 0, ..Default::default() }),
        (
            "pure output miters",
            SweepOptions { exhaustive_pis: 0, node_budget: 0, ..Default::default() },
        ),
    ] {
        let t = std::time::Instant::now();
        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent, "{name} disagreed on the miter");
        println!(
            "{:<22} {:>10.1?} {:>10} {:>9} {:>8} {:>8}",
            name,
            t.elapsed(),
            r.sat_stats.conflicts,
            r.sat_stats.propagations,
            r.internal_proofs,
            r.refinements
        );
    }
    println!("(every tier returns the same verdict; the stack picks the cheapest)");

    println!("\n== Ablation 6: synthesis passes (resyn2rs) ==");
    println!("{:<10} {:>9} {:>9} {:>9}", "circuit", "input", "resyn2rs", "time");
    for (name, g) in [
        ("mult8", cntfet_circuits::array_multiplier(8)),
        ("c1908", cntfet_circuits::c1908_like()),
        ("des", cntfet_circuits::des_like()),
    ] {
        let t = std::time::Instant::now();
        let opt = resyn2rs(&g);
        let elapsed = t.elapsed();
        println!("{:<10} {:>9} {:>9} {:>8.1?}", name, g.num_ands(), opt.num_ands(), elapsed);
    }
    println!("\nper-pass contribution (mult8, one resyn2rs round):");
    let mut g = cntfet_circuits::array_multiplier(8).compact();
    let report = Script::resyn2rs().run(&mut g);
    println!("{:>20} {:>9} {:>9} {:>9}", "pass", "ands", "applied", "time");
    for p in &report.passes {
        if p.skipped {
            println!("{:>20} {:>9} {:>9} {:>9}", p.name, "-", "skip", "-");
        } else {
            println!(
                "{:>20} {:>9} {:>9} {:>8.1?}",
                p.name, p.after.ands, p.applied, p.time
            );
        }
    }
    println!("(the pass framework skips reruns that are provable no-ops)");
}
