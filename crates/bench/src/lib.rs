//! Shared experiment harness: the synth→map pipeline over the paper's
//! benchmark suite, with Table-3-style reporting. The `table1/2/3`,
//! `fig*` and `full_repro` binaries and the Criterion benches all
//! build on this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod serve;

use cntfet_aig::Aig;
use cntfet_circuits::{paper_benchmarks, Benchmark};
use cntfet_core::{Library, LogicFamily};
use cntfet_sat::SolverStats;
use cntfet_synth::{resyn2rs, AigStats};
use cntfet_techmap::{map, verify_mapping_report, MapOptions, MapStats};

/// Mapping results of one benchmark across the three Table 3 families.
#[derive(Debug)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// (inputs, outputs).
    pub io: (usize, usize),
    /// Paper's function description.
    pub function: String,
    /// Static CNTFET result.
    pub tg_static: MapStats,
    /// Pseudo CNTFET result.
    pub tg_pseudo: MapStats,
    /// CMOS result.
    pub cmos: MapStats,
    /// Whether each mapping was proven equivalent to the optimized
    /// netlist.
    pub verified: bool,
    /// Aggregated SAT-solver statistics of the three verification runs
    /// (all-zero when `verify` was off or no check reached SAT).
    pub sat_stats: SolverStats,
    /// Verification checks decided by the per-gate mapping certificate.
    pub certified_checks: u32,
    /// Verification checks decided purely by exhaustive simulation.
    pub exhaustive_checks: u32,
}

impl Table3Row {
    /// Absolute-delay speedup of the static family vs CMOS (Fig. 6).
    pub fn speedup_static(&self) -> f64 {
        self.cmos.delay_ps / self.tg_static.delay_ps
    }

    /// Absolute-delay speedup of the pseudo family vs CMOS (Fig. 6).
    pub fn speedup_pseudo(&self) -> f64 {
        self.cmos.delay_ps / self.tg_pseudo.delay_ps
    }
}

/// The three Table 3 libraries, in column order (TG static, TG
/// pseudo, CMOS). Built once per suite run and shared (immutably)
/// across all suite workers; `table3 --input` builds them once per
/// invocation the same way.
pub fn suite_libraries() -> [Library; 3] {
    [
        Library::new(LogicFamily::TgStatic),
        Library::new(LogicFamily::TgPseudo),
        Library::new(LogicFamily::CmosStatic),
    ]
}

/// Runs the full Table 3 pipeline (synth → map × 3 families →
/// optional verification) on an arbitrary circuit — the entry point behind
/// `table3 --input` and `full_repro --input`, where the circuit came
/// from an AIGER or BLIF file instead of the built-in generators.
pub fn run_circuit(
    name: &str,
    function: &str,
    aig: &Aig,
    verify: bool,
    opts: MapOptions,
    libs: &[Library; 3],
) -> Table3Row {
    let optimized = resyn2rs(aig);
    let mut stats = Vec::with_capacity(3);
    let mut verified = true;
    let mut sat_stats = SolverStats::default();
    let mut certified_checks = 0;
    let mut exhaustive_checks = 0;
    for lib in libs {
        let m = map(&optimized, lib, opts);
        if verify {
            let report = verify_mapping_report(&optimized, &m, lib);
            verified &= report.result == cntfet_aig::CecResult::Equivalent;
            sat_stats.absorb(&report.sat_stats);
            certified_checks += u32::from(report.certified);
            exhaustive_checks += u32::from(report.exhaustive);
        }
        stats.push(m.stats);
    }
    Table3Row {
        name: name.to_string(),
        io: (aig.num_pis(), aig.num_pos()),
        function: function.to_string(),
        tg_static: stats[0],
        tg_pseudo: stats[1],
        cmos: stats[2],
        verified,
        sat_stats,
        certified_checks,
        exhaustive_checks,
    }
}

/// Runs the whole suite (all 15 benchmarks) with default (balanced)
/// mapper options. `verify` checks every mapping with
/// [`cntfet_techmap::verify_mapping_report`] (the per-gate
/// certificate, SAT when it cannot decide); `subset` optionally
/// restricts by name.
pub fn run_suite(verify: bool, subset: Option<&[&str]>) -> Vec<Table3Row> {
    run_suite_with(verify, subset, MapOptions::default())
}

/// [`run_suite`] with explicit mapper options.
///
/// Benchmarks run in parallel across the workspace worker budget
/// ([`threadpool::Jobs`]; `CNTFET_JOBS=1` forces sequential), one
/// benchmark per task. Each task owns its whole synth→map→verify chain
/// and [`threadpool::par_map`] returns the rows in suite order, so the
/// report is identical for every worker count.
pub fn run_suite_with(verify: bool, subset: Option<&[&str]>, opts: MapOptions) -> Vec<Table3Row> {
    let benches: Vec<Benchmark> = paper_benchmarks()
        .into_iter()
        .filter(|b| subset.map(|s| s.contains(&b.name)).unwrap_or(true))
        .collect();
    // Shared read-only state: the three libraries (NPN index
    // included), built ahead of the fan-out so workers never race to
    // build them lazily.
    let libs = suite_libraries();
    threadpool::par_map(0, benches.len(), |i| {
        let b = &benches[i];
        run_circuit(b.name, b.function, &b.aig, verify, opts, &libs)
    })
}

/// `(ands, depth)` that the seed-era rebuild-based synthesis engine's
/// `resyn2rs` reached on each suite circuit, in suite order. The
/// engine was deleted once these were recorded; `resyn2rs` must never
/// be worse than them (see [`AigStats::better_than`]), which the
/// `synth_suite` test and `full_repro` check.
pub const SEED_RESYN2RS: [(&str, AigStats); 15] = [
    ("C2670", AigStats { ands: 2537, depth: 43 }),
    ("C1908", AigStats { ands: 306, depth: 27 }),
    ("C3540", AigStats { ands: 1038, depth: 33 }),
    ("dalu", AigStats { ands: 1824, depth: 64 }),
    ("C7552", AigStats { ands: 1743, depth: 32 }),
    ("C6288", AigStats { ands: 2336, depth: 181 }),
    ("C5315", AigStats { ands: 1979, depth: 50 }),
    ("des", AigStats { ands: 6829, depth: 16 }),
    ("i10", AigStats { ands: 5099, depth: 61 }),
    ("t481", AigStats { ands: 57, depth: 16 }),
    ("i18", AigStats { ands: 2020, depth: 52 }),
    ("C1355", AigStats { ands: 363, depth: 16 }),
    ("add-16", AigStats { ands: 144, depth: 34 }),
    ("add-32", AigStats { ands: 288, depth: 66 }),
    ("add-64", AigStats { ands: 576, depth: 130 }),
];

/// Column-wise averages in the style of Table 3's "Average" row.
#[derive(Debug, Clone, Copy)]
pub struct SuiteAverages {
    /// Mean over benchmarks, per family: (gates, area, levels,
    /// delay_norm, delay_ps).
    pub tg_static: (f64, f64, f64, f64, f64),
    /// See `tg_static`.
    pub tg_pseudo: (f64, f64, f64, f64, f64),
    /// See `tg_static`.
    pub cmos: (f64, f64, f64, f64, f64),
}

fn avg(rows: &[Table3Row], pick: impl Fn(&Table3Row) -> MapStats) -> (f64, f64, f64, f64, f64) {
    let n = rows.len() as f64;
    let mut acc = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in rows {
        let s = pick(r);
        acc.0 += s.gates as f64;
        acc.1 += s.area;
        acc.2 += s.levels as f64;
        acc.3 += s.delay_norm;
        acc.4 += s.delay_ps;
    }
    (acc.0 / n, acc.1 / n, acc.2 / n, acc.3 / n, acc.4 / n)
}

/// Aggregates the verification-engine statistics across rows: total
/// SAT-solver counters, and how many checks the mapping certificate
/// and exhaustive simulation decided without SAT, in that order.
pub fn suite_verification_stats(rows: &[Table3Row]) -> (SolverStats, u32, u32) {
    let mut stats = SolverStats::default();
    let (mut certified, mut exhaustive) = (0, 0);
    for r in rows {
        stats.absorb(&r.sat_stats);
        certified += r.certified_checks;
        exhaustive += r.exhaustive_checks;
    }
    (stats, certified, exhaustive)
}

/// Computes suite averages.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn suite_averages(rows: &[Table3Row]) -> SuiteAverages {
    assert!(!rows.is_empty());
    SuiteAverages {
        tg_static: avg(rows, |r| r.tg_static),
        tg_pseudo: avg(rows, |r| r.tg_pseudo),
        cmos: avg(rows, |r| r.cmos),
    }
}

/// Pretty-prints rows in the paper's Table 3 layout.
pub fn print_table3(rows: &[Table3Row]) {
    println!(
        "{:<8} {:>9} {:<18} | {:>6} {:>9} {:>4} {:>8} {:>8} | {:>6} {:>9} {:>4} {:>8} {:>8} | {:>6} {:>9} {:>4} {:>8} {:>8}",
        "Name", "I/O", "Function", "No.", "Area", "Lvl", "Norm", "Abs[ps]", "No.", "Area", "Lvl",
        "Norm", "Abs[ps]", "No.", "Area", "Lvl", "Norm", "Abs[ps]"
    );
    println!(
        "{:<37}| {:^40}| {:^40}| {:^40}",
        "", "CNTFET TG static", "CNTFET TG pseudo", "CMOS static"
    );
    for r in rows {
        println!(
            "{:<8} {:>4}/{:<4} {:<18} | {:>6} {:>9.1} {:>4} {:>8.1} {:>8.1} | {:>6} {:>9.1} {:>4} {:>8.1} {:>8.1} | {:>6} {:>9.1} {:>4} {:>8.1} {:>8.1}",
            r.name,
            r.io.0,
            r.io.1,
            r.function,
            r.tg_static.gates,
            r.tg_static.area,
            r.tg_static.levels,
            r.tg_static.delay_norm,
            r.tg_static.delay_ps,
            r.tg_pseudo.gates,
            r.tg_pseudo.area,
            r.tg_pseudo.levels,
            r.tg_pseudo.delay_norm,
            r.tg_pseudo.delay_ps,
            r.cmos.gates,
            r.cmos.area,
            r.cmos.levels,
            r.cmos.delay_norm,
            r.cmos.delay_ps,
        );
    }
    let a = suite_averages(rows);
    println!(
        "{:<37} | {:>6.1} {:>9.1} {:>4.1} {:>8.1} {:>8.1} | {:>6.1} {:>9.1} {:>4.1} {:>8.1} {:>8.1} | {:>6.1} {:>9.1} {:>4.1} {:>8.1} {:>8.1}",
        "Average",
        a.tg_static.0, a.tg_static.1, a.tg_static.2, a.tg_static.3, a.tg_static.4,
        a.tg_pseudo.0, a.tg_pseudo.1, a.tg_pseudo.2, a.tg_pseudo.3, a.tg_pseudo.4,
        a.cmos.0, a.cmos.1, a.cmos.2, a.cmos.3, a.cmos.4,
    );
    // Improvement row (vs CMOS), as in the paper's footer.
    let imp = |ours: f64, theirs: f64| 100.0 * (1.0 - ours / theirs);
    println!(
        "{:<37} | {:>5.1}% {:>8.1}% {:>3.1}% {:>7.1}% {:>7.1}x | {:>5.1}% {:>8.1}% {:>3.1}% {:>7.1}% {:>7.1}x |",
        "Improvement vs CMOS",
        imp(a.tg_static.0, a.cmos.0),
        imp(a.tg_static.1, a.cmos.1),
        imp(a.tg_static.2, a.cmos.2),
        imp(a.tg_static.3, a.cmos.3),
        a.cmos.4 / a.tg_static.4,
        imp(a.tg_pseudo.0, a.cmos.0),
        imp(a.tg_pseudo.1, a.cmos.1),
        imp(a.tg_pseudo.2, a.cmos.2),
        imp(a.tg_pseudo.3, a.cmos.3),
        a.cmos.4 / a.tg_pseudo.4,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_on_small_benchmarks() {
        let rows = run_suite(true, Some(&["add-16", "C1355"]));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.verified, "{} failed verification", r.name);
            // The XOR-rich circuits must favour CNTFET in gate count.
            assert!(
                r.tg_static.gates < r.cmos.gates,
                "{}: {} vs {}",
                r.name,
                r.tg_static.gates,
                r.cmos.gates
            );
            assert!(r.speedup_static() > 1.0, "{} speedup", r.name);
        }
    }
}
