//! Benchmark of the synthesis flow: `resyn2rs` → `map` → verify, on
//! three workloads (see `NOTES.md`).
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload table3-seq|service-stream|large-par --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and the spans are written under `flowbench/out/`.

#![forbid(unsafe_code)]

mod flow;
mod trace;
mod workload;

use cntfet_aig::{CutParams, CutRank};
use cntfet_bench::serve::SynthService;
use cntfet_boolfn::RwrLibrary;
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs_with, SynthOptions};
use cntfet_techmap::{map, verify_mapping_report, MapOptions};
use flow::{Counters, Qor, Served};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::{Recorder, Trace, REQUEST};
use workload::{Inputs, Kind, Request};

/// Set-up samples per run: the run's own set-up plus this many child
/// processes, each paying the process-wide first-use costs afresh.
const SETUP_CHILDREN: usize = 8;

/// Thread ids of the spans recorded outside the client threads.
const TID_MAIN: u32 = 100;
const TID_PROBE: u32 = 200;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: flowbench --workload table3-seq|service-stream|large-par --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let value = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let kind = value("--workload")
        .as_deref()
        .and_then(Kind::parse)
        .unwrap_or_else(|| usage());
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let trace = match value("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if seconds <= 0.0 {
        usage();
    }
    Args {
        kind,
        seed,
        seconds,
        trace,
    }
}

/// The engines a workload's clients call, built in set-up.
enum Engine {
    Flow(Vec<(LogicFamily, Library)>),
    Service(Box<SynthService>),
}

/// Set-up: the first `RwrLibrary::global()` plus `Library::new` for the
/// workload's families (inside `SynthService` for the stream). Returns
/// the engine and the set-up seconds.
fn setup(kind: Kind, rec: &mut Recorder) -> (Engine, f64) {
    let t = Instant::now();
    rec.span("boolfn.rwr_build", |_| {
        let _ = RwrLibrary::global();
    });
    let engine = rec.span("core.library", |_| match kind {
        Kind::ServiceStream => Engine::Service(Box::new(SynthService::with_options(
            LogicFamily::TgStatic,
            map_options(kind, kind.workers()),
            SynthOptions::default(),
            true,
        ))),
        _ => Engine::Flow(
            kind.families()
                .iter()
                .map(|&f| (f, Library::new(f)))
                .collect(),
        ),
    });
    (engine, t.elapsed().as_secs_f64())
}

fn map_options(kind: Kind, jobs: usize) -> MapOptions {
    MapOptions {
        objective: kind.objective(),
        jobs,
        ..MapOptions::default()
    }
}

/// One set-up sample: a `--setup-probe` child process, which pays the
/// process-wide first-use costs afresh and prints its set-up seconds.
fn setup_sample(kind: Kind) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args(["--setup-probe", kind.name()])
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!("setup probe failed: {} {text}", out.status)),
    }
}

/// One pass of requests shared by the clients.
struct PassJob {
    requests: Vec<Request>,
    next: AtomicUsize,
    start: Instant,
    pass: u64,
    /// Record spans (traced run, timed pass).
    trace: bool,
    /// Keep the optimized graphs (for the cut-enumeration probe).
    keep_graphs: bool,
}

enum Outcome {
    Flow(Qor),
    Served(Served),
}

struct Record {
    pos: usize,
    item: usize,
    latency_ms: f64,
    outcome: Result<Outcome, String>,
    optimized: Option<cntfet_aig::Aig>,
}

/// What one client thread did in one pass.
struct ClientPass {
    tid: u32,
    records: Vec<Record>,
    /// From the start of the pass to this client's last outcome.
    busy_s: f64,
    spans: Vec<trace::Span>,
    counters: Counters,
}

/// One client's spans, counters and busy time over all timed passes.
#[derive(Default)]
struct ClientEnd {
    spans: Vec<trace::Span>,
    counters: Counters,
    busy_s: f64,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// A closed-loop client on a thread of its own: takes the next request
/// of the pass as soon as its previous one is done.
fn client(
    tid: u32,
    engine: &Engine,
    opts: MapOptions,
    epoch: Instant,
    job: &PassJob,
) -> ClientPass {
    let mut rec = Recorder::new(job.trace, epoch, tid);
    let mut acc = Counters::default();
    let mut records = Vec::new();
    loop {
        let pos = job.next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = job.requests.get(pos) else {
            break;
        };
        rec.set_request(job.pass << 16 | pos as u64);
        let depth = rec.depth();
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            rec.span(REQUEST, |rec| match (req, engine) {
                (Request::Flow(circuit), Engine::Flow(libs)) => {
                    flow::run_flow(circuit, libs, opts, rec, &mut acc)
                        .map(|(qor, g)| (Outcome::Flow(qor), job.keep_graphs.then_some(g)))
                }
                (
                    Request::Service {
                        name,
                        bytes,
                        reference,
                        ..
                    },
                    Engine::Service(svc),
                ) => flow::run_service(svc, name, bytes, reference, rec, &mut acc)
                    .map(|s| (Outcome::Served(s), None)),
                _ => Err("request does not match the engine".into()),
            })
        }));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (outcome, optimized) = match run {
            Ok(Ok((o, g))) => (Ok(o), g),
            Ok(Err(e)) => (Err(e), None),
            Err(p) => {
                rec.close_to(depth);
                (Err(format!("panic: {}", panic_message(p))), None)
            }
        };
        let latency_ms = match &outcome {
            Ok(Outcome::Served(s)) => s.latency_ms,
            _ => wall_ms,
        };
        records.push(Record {
            pos,
            item: req.item(),
            latency_ms,
            outcome,
            optimized,
        });
    }
    ClientPass {
        tid,
        records,
        busy_s: job.start.elapsed().as_secs_f64(),
        spans: rec.into_spans(),
        counters: acc,
    }
}

/// Everything the timed phase produced.
struct Timed {
    pass_walls: Vec<f64>,
    /// Records of the timed passes, per pass.
    passes: Vec<Vec<Record>>,
    warm: Vec<Record>,
    /// Per client thread id.
    clients: BTreeMap<u32, ClientEnd>,
    /// Set-up seconds of the `--setup-probe` children.
    setup_s: Vec<f64>,
}

/// The warm-up pass, then timed passes until their walls add up to
/// `seconds`, with `probes` set-up samples spread between the passes.
///
/// Every pass runs on freshly spawned client threads (and at 2 workers
/// the pool spawns its workers per call), so thread-local memos start
/// empty in every pass, while process-wide state built in set-up stays
/// warm. Passes rename their circuits, so no fingerprint-keyed cache
/// answers a request from another pass.
fn run_timed(
    kind: Kind,
    engine: &Engine,
    inputs: &Inputs,
    seconds: f64,
    trace_on: bool,
    epoch: Instant,
    probes: usize,
) -> Result<Timed, String> {
    let opts = map_options(kind, kind.workers());
    let run_pass = |requests: Vec<Request>, pass: u64, warm: bool| {
        let job = PassJob {
            requests,
            next: AtomicUsize::new(0),
            start: Instant::now(),
            pass,
            trace: trace_on && !warm,
            keep_graphs: trace_on && pass == 0 && !warm,
        };
        let parts: Vec<ClientPass> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..kind.clients() as u32)
                .map(|tid| {
                    let job = &job;
                    s.spawn(move || client(tid, engine, opts, epoch, job))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = parts.iter().map(|p| p.busy_s).fold(0.0, f64::max);
        (wall, parts)
    };
    // Warm-up under names no timed pass uses: lazy state is built,
    // but no cache can answer a timed request.
    let (_, warm) = run_pass(inputs.warm_up(), u64::MAX >> 16, true);
    let mut timed = Timed {
        pass_walls: Vec::new(),
        passes: Vec::new(),
        warm: sorted_records(warm),
        clients: BTreeMap::new(),
        setup_s: Vec::new(),
    };
    let mut timed_s = 0.0;
    while timed.passes.is_empty() || timed_s < seconds {
        let p = timed.passes.len() as u64;
        let (wall, mut parts) = run_pass(inputs.pass(&format!("p{p}")), p, false);
        timed_s += wall;
        timed.pass_walls.push(wall);
        for part in parts.iter_mut() {
            let end = timed.clients.entry(part.tid).or_default();
            end.spans.append(&mut part.spans);
            end.counters.add(&part.counters);
            end.busy_s += part.busy_s;
        }
        timed.passes.push(sorted_records(parts));
        // Reaches `probes` with the last pass.
        let due = (probes as f64 * (timed_s / seconds).min(1.0)).ceil() as usize;
        while timed.setup_s.len() < due {
            timed.setup_s.push(setup_sample(kind)?);
        }
    }
    Ok(timed)
}

/// The records of all clients of one pass, in request order.
fn sorted_records(parts: Vec<ClientPass>) -> Vec<Record> {
    let mut records: Vec<Record> = parts.into_iter().flat_map(|p| p.records).collect();
    records.sort_by_key(|r| r.pos);
    records
}

impl Outcome {
    /// Quality of results, compared exactly across passes and repeats.
    fn qor(&self) -> Qor {
        match self {
            Outcome::Flow(q) => *q,
            Outcome::Served(s) => Qor {
                opt_ands: s.stats.optimized.0 as f64,
                area: s.stats.mapping.area,
                delay_ps: s.stats.mapping.delay_ps,
            },
        }
    }
}

/// Counts failed records: errors, and any result that differs from the
/// first result of the same item (results must repeat exactly).
fn count_failures<'a>(
    records: impl Iterator<Item = &'a Record>,
    first: &mut BTreeMap<usize, Qor>,
) -> usize {
    let mut failed = 0;
    for r in records {
        let q = match &r.outcome {
            Ok(o) => o.qor(),
            Err(e) => {
                eprintln!("request {} (item {}) failed: {e}", r.pos, r.item);
                failed += 1;
                continue;
            }
        };
        let want = *first.entry(r.item).or_insert(q);
        if want != q {
            eprintln!("item {}: result {q:?} differs from {want:?}", r.item);
            failed += 1;
        }
    }
    failed
}

/// Linear-interpolation percentile of sorted values; 0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let x = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, arg: &str) -> String {
    std::process::Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_machine_block() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let avail = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("machine.nproc: {}", command_line("nproc", "--all"));
    println!("machine.available_parallelism: {avail}");
    println!("machine.cpu: {cpu}");
    println!("machine.rustc: {}", command_line("rustc", "-V"));
}

/// One metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (
        name.into(),
        if value.is_finite() { value } else { 0.0 },
        unit,
    )
}

fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Per-layer metrics of the flow layers, from spans and counters that
/// cover `passes` passes.
fn flow_layer_metrics(
    layers: &BTreeMap<&'static str, trace::LayerTotals>,
    c: &Counters,
    passes: f64,
) -> Vec<Metric> {
    let ms = |name: &str| layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6) / passes;
    let per = |x: u64| x as f64 / passes;
    vec![
        metric("synth.ms", ms("synth"), "ms"),
        metric("synth.rounds", per(c.synth_rounds), "count"),
        metric("synth.applied", per(c.synth_applied), "count"),
        metric(
            "synth.pass.balance_ms",
            c.pass_ns[0] as f64 / 1e6 / passes,
            "ms",
        ),
        metric(
            "synth.pass.rewrite_ms",
            c.pass_ns[1] as f64 / 1e6 / passes,
            "ms",
        ),
        metric(
            "synth.pass.refactor_ms",
            c.pass_ns[2] as f64 / 1e6 / passes,
            "ms",
        ),
        metric(
            "techmap.map_ms.tg_static",
            ms("techmap.map.tg_static"),
            "ms",
        ),
        metric(
            "techmap.map_ms.tg_pseudo",
            ms("techmap.map.tg_pseudo"),
            "ms",
        ),
        metric("techmap.map_ms.cmos", ms("techmap.map.cmos"), "ms"),
        metric("techmap.gates", per(c.gates), "count"),
        metric("techmap.to_aig_ms", ms("techmap.to_aig"), "ms"),
        metric("aig.cec_ms", ms("aig.cec"), "ms"),
        metric(
            "aig.cec.exhaustive_frac",
            c.cec_exhaustive as f64 / c.cec_checks.max(1) as f64,
            "frac",
        ),
        metric("aig.cec.internal_proofs", per(c.internal_proofs), "count"),
        metric("aig.cec.refinements", per(c.refinements), "count"),
        metric("sat.conflicts", per(c.conflicts), "count"),
        metric("sat.decisions", per(c.decisions), "count"),
        metric("sat.propagations", per(c.propagations), "count"),
    ]
}

/// `enumerate_cuts_with` at the mapper's cut parameters over `graphs`:
/// (total ms, cuts per AND node).
fn cut_probe(graphs: &[cntfet_aig::Aig], rec: &mut Recorder) -> (f64, f64) {
    let d = MapOptions::default();
    let params = CutParams {
        k: d.cut_size,
        max_cuts: d.cuts_per_node,
        rank: CutRank::Size,
    };
    let (mut ns, mut cuts, mut ands) = (0u128, 0usize, 0usize);
    for g in graphs {
        let t = Instant::now();
        let arena = rec.span("aig.cuts.enumerate", |_| {
            cntfet_aig::enumerate_cuts_with(g, params)
        });
        ns += t.elapsed().as_nanos();
        cuts += arena.num_cuts();
        ands += g.num_ands();
    }
    (ns as f64 / 1e6, cuts as f64 / ands.max(1) as f64)
}

/// large-par's stages at 1 and at 2 workers, through the library's
/// `resyn2rs_with`. Returns the `par.*` metrics, and the results if
/// they verified and matched across worker counts.
fn par_probe(
    inputs: &Inputs,
    libs: &[(LogicFamily, Library)],
    rec: &mut Recorder,
) -> (Vec<Metric>, Option<Qor>) {
    let chain = &inputs.circuits()[0].aig;
    let (family, lib) = &libs[0];
    let d = MapOptions::default();
    let params = CutParams {
        k: d.cut_size,
        max_cuts: d.cuts_per_node,
        rank: CutRank::Size,
    };
    let mut stage_s = [[0.0f64; 4]; 2];
    let mut conflicts = [0u64; 2];
    let mut results = Vec::new();
    for (w, jobs) in [1usize, 2].into_iter().enumerate() {
        threadpool::Jobs::set(jobs);
        let mut src = chain.clone();
        src.set_name(format!("{}@par-j{jobs}", chain.name()));
        let mut timed =
            |stage: usize, name: &'static str, rec: &mut Recorder, f: &mut dyn FnMut()| {
                let t = Instant::now();
                rec.span(name, |_| f());
                stage_s[w][stage] = t.elapsed().as_secs_f64();
            };
        let mut optimized = None;
        timed(0, "synth", rec, &mut || {
            optimized = Some(resyn2rs_with(&src, &SynthOptions::default()))
        });
        let optimized = optimized.expect("synthesis ran");
        timed(1, "aig.cuts.enumerate", rec, &mut || {
            std::hint::black_box(
                cntfet_aig::enumerate_cuts_with_jobs(&optimized, params, jobs).num_cuts(),
            );
        });
        let mut mapping = None;
        let opts = map_options(Kind::LargePar, jobs);
        timed(2, workload::map_span(*family), rec, &mut || {
            mapping = Some(map(&optimized, lib, opts))
        });
        let mapping = mapping.expect("mapping ran");
        let mut report = None;
        timed(3, "aig.cec", rec, &mut || {
            report = Some(verify_mapping_report(&optimized, &mapping, lib))
        });
        let report = report.expect("verification ran");
        conflicts[w] = report.sat_stats.conflicts;
        results.push((
            Qor {
                opt_ands: optimized.num_ands() as f64,
                area: mapping.stats.area,
                delay_ps: mapping.stats.delay_ps,
            },
            report.result == cntfet_aig::CecResult::Equivalent,
        ));
    }
    threadpool::Jobs::set(Kind::LargePar.workers());
    let qor = (results[0] == results[1] && results[0].1).then_some(results[0].0);
    let ratio = |s: usize| stage_s[1][s] / stage_s[0][s];
    let metrics = vec![
        metric("par.synth.j2_over_j1", ratio(0), "ratio"),
        metric("par.cuts.j2_over_j1", ratio(1), "ratio"),
        metric("par.map.j2_over_j1", ratio(2), "ratio"),
        metric("par.cec.j2_over_j1", ratio(3), "ratio"),
        metric("sat.conflicts.j1", conflicts[0] as f64, "count"),
        metric("sat.conflicts.j2", conflicts[1] as f64, "count"),
    ];
    (metrics, qor)
}

fn write_trace_files(kind: Kind, seed: u64, trace: &Trace) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{seed}", kind.name());
    let write = |ext: &str, body: String| {
        let path = dir.join(format!("{stem}.{ext}"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("trace.file: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    };
    write("trace.json", trace.chrome_json());
    write("layers.json", trace.summary_json());
}

/// Counts of requests tried and failed outside the timed passes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

fn end_to_end_metrics(timed: &Timed, setup_s: &[f64], latencies: &[f64], qor: Qor) -> Vec<Metric> {
    let total_wall: f64 = timed.pass_walls.iter().sum();
    vec![
        metric("wall_s", median(&timed.pass_walls), "s"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("requests_per_s", latencies.len() as f64 / total_wall, "1/s"),
        metric("latency_ms_p50", percentile(latencies, 0.50), "ms"),
        metric("latency_ms_p95", percentile(latencies, 0.95), "ms"),
        metric("opt_ands", qor.opt_ands, "count"),
        metric("mapped_area", qor.area, "area"),
        metric("mapped_delay_ps", qor.delay_ps, "ps"),
    ]
}

/// The stream's flow layers: one replay of its distinct circuits
/// through the calls the service makes, outside the service. Each
/// result must equal what the service returned. Returns the optimized
/// graphs.
fn replay_stream(
    inputs: &Inputs,
    svc: &SynthService,
    first: &BTreeMap<usize, Qor>,
    rec: &mut Recorder,
    counters: &mut Counters,
    tally: &mut Tally,
) -> Vec<cntfet_aig::Aig> {
    let libs = [(LogicFamily::TgStatic, svc.library().clone())];
    let mut graphs = Vec::new();
    for (i, c) in inputs.circuits().iter().enumerate() {
        let mut circuit = c.clone();
        circuit.aig.set_name(format!("{}@replay", c.aig.name()));
        rec.set_request(i as u64);
        tally.attempted += 1;
        let opts = map_options(Kind::ServiceStream, 1);
        match rec.span(REQUEST, |rec| {
            flow::run_flow(&circuit, &libs, opts, rec, counters)
        }) {
            Ok((q, optimized)) if first.get(&c.item) == Some(&q) => graphs.push(optimized),
            Ok((q, _)) => {
                eprintln!(
                    "replay of item {} gave {q:?}, the service {:?}",
                    c.item,
                    first.get(&c.item)
                );
                tally.failed += 1;
            }
            Err(e) => {
                eprintln!("replay of item {} failed: {e}", c.item);
                tally.failed += 1;
            }
        }
    }
    graphs
}

/// Per-layer metrics of a traced run, from the clients' spans and
/// counters plus the probes; writes the trace files.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    kind: Kind,
    seed: u64,
    engine: &Engine,
    inputs: &Inputs,
    timed: Timed,
    first: &BTreeMap<usize, Qor>,
    setup_spans: Vec<trace::Span>,
    epoch: Instant,
    tally: &mut Tally,
) -> Vec<Metric> {
    let passes = timed.passes.len() as f64;
    let mut clients = Trace::default();
    let mut counters = Counters::default();
    let mut busy_by_tid = BTreeMap::new();
    for (tid, c) in timed.clients {
        counters.add(&c.counters);
        busy_by_tid.insert(tid, c.busy_s);
        clients.append(c.spans);
    }
    let covered = clients.covered_ns_by_thread();
    let coverage = busy_by_tid
        .iter()
        .map(|(tid, busy)| covered.get(tid).copied().unwrap_or(0) as f64 / 1e9 / busy)
        .fold(f64::INFINITY, f64::min);
    let busy_total: f64 = busy_by_tid.values().sum();
    let overhead = clients.len() as f64 * trace::span_cost_ns() / 1e9 / busy_total;
    let client_layers = clients.layers();
    let total_ms = |layers: &BTreeMap<&str, trace::LayerTotals>, name: &str| {
        layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6)
    };

    let mut setup = Trace::default();
    setup.append(setup_spans);
    let setup_layers = setup.layers();
    let parse_ms = total_ms(&client_layers, "aig.io.parse");
    let parse_mb_s = if parse_ms > 0.0 {
        counters.parse_bytes as f64 / 1e6 / (parse_ms / 1e3)
    } else {
        0.0
    };
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for r in timed.passes.iter().flatten() {
        if let Ok(Outcome::Served(s)) = &r.outcome {
            if s.cached { &mut hit_ms } else { &mut miss_ms }.push(s.service_ms);
        }
    }
    let hit_rate = match engine {
        Engine::Service(svc) => svc.cache_stats().hit_rate(),
        Engine::Flow(_) => 0.0,
    };
    let mut metrics = vec![
        metric(
            "core.library_ms",
            total_ms(&setup_layers, "core.library"),
            "ms",
        ),
        metric(
            "boolfn.rwr_build_ms",
            total_ms(&setup_layers, "boolfn.rwr_build"),
            "ms",
        ),
        metric("aig.io.parse_ms", parse_ms / passes, "ms"),
        metric("aig.io.parse_mb_s", parse_mb_s, "MB/s"),
        metric("serve.cache_hit_rate", hit_rate, "frac"),
        metric("serve.hit_ms_p50", median(&hit_ms), "ms"),
        metric("serve.miss_ms_p50", median(&miss_ms), "ms"),
    ];

    let mut trace = Trace::default();
    trace.append(setup.into_spans());
    let mut probe = Recorder::new(true, epoch, TID_PROBE);
    let graphs = match engine {
        Engine::Flow(_) => {
            metrics.extend(flow_layer_metrics(&client_layers, &counters, passes));
            timed.passes[0]
                .iter()
                .filter_map(|r| r.optimized.clone())
                .collect()
        }
        Engine::Service(svc) => {
            let mut c = Counters::default();
            let mut rec = Recorder::new(true, epoch, TID_PROBE + 1);
            let graphs = replay_stream(inputs, svc, first, &mut rec, &mut c, tally);
            let mut replay = Trace::default();
            replay.append(rec.into_spans());
            metrics.extend(flow_layer_metrics(&replay.layers(), &c, 1.0));
            trace.append(replay.into_spans());
            graphs
        }
    };
    trace.append(clients.into_spans());
    let (cut_ms, per_node) = cut_probe(&graphs, &mut probe);
    metrics.push(metric("aig.cuts.enumerate_ms", cut_ms, "ms"));
    metrics.push(metric("aig.cuts.per_node", per_node, "count"));

    match (engine, kind) {
        (Engine::Flow(libs), Kind::LargePar) => {
            tally.attempted += 1;
            // The clients' traced synthesis drives the script itself; the
            // probe's library call must give the same results.
            let (m, qor) = par_probe(inputs, libs, &mut probe);
            if qor.is_none() || qor.as_ref() != first.get(&0) {
                eprintln!(
                    "large-par probe gave {qor:?} at 1 and 2 workers, the clients {:?}",
                    first.get(&0)
                );
                tally.failed += 1;
            }
            metrics.extend(m);
        }
        _ => {
            for n in [
                "par.synth.j2_over_j1",
                "par.cuts.j2_over_j1",
                "par.map.j2_over_j1",
                "par.cec.j2_over_j1",
            ] {
                metrics.push(metric(n, 0.0, "ratio"));
            }
            for n in ["sat.conflicts.j1", "sat.conflicts.j2"] {
                metrics.push(metric(n, 0.0, "count"));
            }
        }
    }
    metrics.push(metric("trace.overhead_frac", overhead, "frac"));
    metrics.push(metric("trace.span_coverage", coverage, "frac"));
    metrics.push(metric(
        "latency.samples",
        timed.passes.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    ));

    trace.append(probe.into_spans());
    write_trace_files(kind, seed, &trace);
    metrics
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if cfg!(debug_assertions) {
        eprintln!("refusing to record timings: build with --release");
        std::process::exit(2);
    }
    if !cntfet_boolfn::cache::enabled() {
        eprintln!("refusing to record timings: CNTFET_NO_CACHE disables the service cache the stream measures");
        std::process::exit(2);
    }
    if let Some(i) = args.iter().position(|a| a == "--setup-probe") {
        let kind = args
            .get(i + 1)
            .and_then(|s| Kind::parse(s))
            .unwrap_or_else(|| usage());
        let (_, secs) = setup(kind, &mut Recorder::new(false, Instant::now(), TID_MAIN));
        println!("{secs}");
        return;
    }
    let a = parse_args(&args);
    let kind = a.kind;
    print_machine_block();
    threadpool::Jobs::set(kind.workers());
    let epoch = Instant::now();
    let mut main_rec = Recorder::new(a.trace, epoch, TID_MAIN);
    let (engine, own_setup) = setup(kind, &mut main_rec);
    let inputs = Inputs::new(kind, a.seed);
    let timed = run_timed(
        kind,
        &engine,
        &inputs,
        a.seconds,
        a.trace,
        epoch,
        SETUP_CHILDREN,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mut setup_s = vec![own_setup];
    setup_s.extend(&timed.setup_s);

    // Every pass and every exact repeat must reproduce the first timed
    // result of its item.
    let mut first = BTreeMap::new();
    let mut tally = Tally {
        attempted: timed.warm.len() + timed.passes.iter().map(Vec::len).sum::<usize>(),
        failed: count_failures(timed.passes.iter().flatten(), &mut first)
            + count_failures(timed.warm.iter(), &mut BTreeMap::new()),
    };
    let qor = first.values().fold(Qor::default(), |acc, q| Qor {
        opt_ands: acc.opt_ands + q.opt_ands,
        area: acc.area + q.area,
        delay_ps: acc.delay_ps + q.delay_ps,
    });
    let mut latencies: Vec<f64> = timed
        .passes
        .iter()
        .flatten()
        .map(|r| r.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "workload: {} seed={} seconds={} workers={} clients={} latency_samples={} pass_walls_s=[{}] setup_samples_s=[{}]",
        kind.name(),
        a.seed,
        a.seconds,
        kind.workers(),
        kind.clients(),
        latencies.len(),
        list(&timed.pass_walls),
        list(&setup_s)
    );
    let metrics = if a.trace {
        layer_metrics(
            kind,
            a.seed,
            &engine,
            &inputs,
            timed,
            &first,
            main_rec.into_spans(),
            epoch,
            &mut tally,
        )
    } else {
        end_to_end_metrics(&timed, &setup_s, &latencies, qor)
    };
    print_result(tally.attempted, tally.failed, &metrics);
}
