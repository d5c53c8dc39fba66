//! `batch_synth`: the CLI face of the batch synthesis service.
//!
//! Streams N circuit files (AIGER `.aag`/`.aig` or BLIF `.blif`)
//! through one persistent [`SynthService`] — shared library, warmed
//! rewriting tables, fingerprint-deduplicated results — and reports
//! per-circuit mapping stats plus circuits/sec per pass. With no
//! files given it runs the built-in 15-benchmark paper suite.
//!
//! ```text
//! batch_synth [FILES...]
//!     --family tg-static|tg-pseudo|cmos   library to map onto (default tg-static)
//!     --objective area|delay|balanced     covering objective (default balanced)
//!     --no-verify                         skip CEC of every mapping
//!     --jobs N                            batch-level worker threads (default CNTFET_JOBS/cores)
//!     --inner-jobs N                      per-circuit engine threads (default: same as --jobs)
//!     --repeat N                          passes over the batch (default 2: cold+warm)
//!     --max-ands N                        admission budget per request
//!     --export-suite DIR                  write the suite as .aag/.aig into DIR, exit
//! ```
//!
//! The two job knobs compose: `--jobs` fans circuits over the batch
//! pool, while each circuit's own engines (synthesis sweeps, cut
//! enumeration, covering, SAT sweeping) spawn their *own* workers.
//! Without a bound that nests to `jobs × jobs` threads; `--inner-jobs`
//! caps the per-circuit engine count so a wide batch can pin
//! `--inner-jobs 1` and stay at exactly `--jobs` threads. Results are
//! bit-identical for every combination — the engines are
//! deterministic at any worker count — so the knobs trade nothing but
//! scheduling.
//!
//! Pass 1 is the cold run; later passes are answered from the result
//! cache, which is where the warm ≥ 2× cold throughput recorded in
//! `BENCH_PR9.json` comes from.
//! The hit/miss counts each pass prints are that service cache's own.

use cntfet_bench::serve::{load_circuit, ServeOutcome, SynthRequest, SynthService};
use cntfet_core::LogicFamily;
use cntfet_synth::SynthOptions;
use cntfet_techmap::{MapOptions, Objective};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut family = LogicFamily::TgStatic;
    let mut objective = Objective::Balanced;
    let mut verify = true;
    let mut jobs = 0usize;
    let mut inner_jobs = 0usize;
    let mut repeat = 2usize;
    let mut max_ands: Option<usize> = None;
    let mut export: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |what: &str| -> String {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{arg} expects {what}");
                std::process::exit(2);
            })
        };
        match arg {
            "--family" => {
                family = match value("a family").as_str() {
                    "tg-static" => LogicFamily::TgStatic,
                    "tg-pseudo" => LogicFamily::TgPseudo,
                    "cmos" => LogicFamily::CmosStatic,
                    other => {
                        eprintln!("unknown family {other}: expected tg-static, tg-pseudo or cmos");
                        std::process::exit(2);
                    }
                }
            }
            "--objective" => {
                objective = match value("an objective").as_str() {
                    "area" => Objective::Area,
                    "delay" => Objective::Delay,
                    "balanced" => Objective::Balanced,
                    other => {
                        eprintln!("unknown objective {other}: expected area, delay or balanced");
                        std::process::exit(2);
                    }
                }
            }
            "--no-verify" => verify = false,
            "--jobs" => jobs = parse_count(&value("a positive integer"), arg, 1),
            "--inner-jobs" => inner_jobs = parse_count(&value("a positive integer"), arg, 1),
            "--repeat" => repeat = parse_count(&value("a positive integer"), arg, 1),
            "--max-ands" => max_ands = Some(parse_count(&value("an integer"), arg, 0)),
            "--export-suite" => export = Some(PathBuf::from(value("a directory"))),
            _ if arg.starts_with("--") => {
                eprintln!("unknown flag {arg}");
                std::process::exit(2);
            }
            _ => files.push(PathBuf::from(arg)),
        }
        i += 1;
    }
    // The batch fan-out count is pinned before the workspace default
    // is overridden, so `--inner-jobs` bounds only the per-circuit
    // engines (which resolve through the default); without it the
    // engines inherit `--jobs`, the historical behavior.
    let outer = threadpool::Jobs::resolve(jobs);
    if inner_jobs > 0 {
        threadpool::Jobs::set(inner_jobs);
    } else if jobs > 0 {
        threadpool::Jobs::set(jobs);
    }

    if let Some(dir) = export {
        match cntfet_circuits::export_suite(&dir) {
            Ok(paths) => {
                println!("exported {} files to {}", paths.len(), dir.display());
                return;
            }
            Err(e) => {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Build the request list: the given files, or the built-in suite.
    let mut requests: Vec<SynthRequest> = Vec::new();
    if files.is_empty() {
        for b in cntfet_circuits::paper_benchmarks() {
            requests.push(SynthRequest::new(b.name, b.aig));
        }
    } else {
        for f in &files {
            match load_circuit(f) {
                Ok(aig) => {
                    let name = aig.name().to_string();
                    requests.push(SynthRequest::new(name, aig));
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    for r in &mut requests {
        r.limits.max_ands = max_ands;
    }

    let service =
        SynthService::with_options(family, MapOptions { objective, ..Default::default() }, SynthOptions::default(), verify);
    println!(
        "== batch_synth: {} circuit(s), {family:?} library, {objective:?} covering, \
         {outer} batch worker(s) x {} engine worker(s), verification {} ==",
        requests.len(),
        threadpool::Jobs::get(),
        if verify { "ON" } else { "OFF (--no-verify)" },
    );

    let mut all_ok = true;
    for pass in 0..repeat {
        let label = if pass == 0 { "cold" } else { "warm" };
        let report = service.process_batch(&requests, outer);
        println!("\n-- pass {} ({label}) --", pass + 1);
        println!(
            "{:<10} {:>8} {:>8} {:>6} {:>9} {:>9} {:>6} {:>9}",
            "name", "in-ands", "opt-ands", "gates", "area", "delay_ps", "cached", "ms"
        );
        for (name, outcome) in &report.outcomes {
            match outcome {
                ServeOutcome::Done { stats, cached, ms } => {
                    all_ok &= stats.verified != Some(false);
                    println!(
                        "{:<10} {:>8} {:>8} {:>6} {:>9.1} {:>9.1} {:>6} {:>9.2}{}",
                        name,
                        stats.input.0,
                        stats.optimized.0,
                        stats.mapping.gates,
                        stats.mapping.area,
                        stats.mapping.delay_ps,
                        if *cached { "yes" } else { "no" },
                        ms,
                        match stats.verified {
                            Some(false) => "  CEC FAILED",
                            _ => "",
                        },
                    );
                }
                ServeOutcome::Rejected { ands, max_ands } => {
                    println!("{name:<10} rejected: {ands} ANDs over the {max_ands} budget");
                }
                ServeOutcome::Cancelled { stage } => {
                    println!("{name:<10} cancelled before {stage}");
                }
            }
        }
        let cache = service.cache_stats();
        println!(
            "pass {}: {} completed in {:.2}s — {:.1} circuits/sec (cache: {} hits / {} misses)",
            pass + 1,
            report.completed(),
            report.elapsed_s,
            report.circuits_per_sec(),
            cache.hits,
            cache.misses,
        );
    }
    if !all_ok {
        eprintln!("\nCEC FAILURES detected");
        std::process::exit(1);
    }
}

fn parse_count(s: &str, flag: &str, min: usize) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => {
            eprintln!("{flag} expects an integer ≥ {min}");
            std::process::exit(2);
        }
    }
}
