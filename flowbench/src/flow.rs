//! One request through the layers, with a span around every call into
//! a layer's public API and a check of every output.

use crate::trace::Recorder;
use crate::workload::{map_span, Circuit, Reference};
use cntfet_aig::{Aig, CecReport, CecResult};
use cntfet_bench::serve::{ServeOutcome, ServeStats, SynthRequest, SynthService};
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs_with, AigStats, Script, SynthOptions};
use cntfet_techmap::{map, mapping_to_aig, verify_mapping_report, MapOptions};

/// Quality of results of one circuit: post-synthesis ANDs, and mapped
/// area and delay summed over the mapped families.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Qor {
    pub opt_ands: f64,
    pub area: f64,
    pub delay_ps: f64,
}

/// Deterministic per-layer work counts, summed over requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub synth_rounds: u64,
    pub synth_applied: u64,
    /// Script pass time by kind: balance, rewrite, refactor (ns).
    pub pass_ns: [u64; 3],
    pub gates: u64,
    pub cec_checks: u64,
    pub cec_exhaustive: u64,
    pub internal_proofs: u64,
    pub refinements: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub parse_bytes: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.synth_rounds += o.synth_rounds;
        self.synth_applied += o.synth_applied;
        for (a, b) in self.pass_ns.iter_mut().zip(o.pass_ns) {
            *a += b;
        }
        self.gates += o.gates;
        self.cec_checks += o.cec_checks;
        self.cec_exhaustive += o.cec_exhaustive;
        self.internal_proofs += o.internal_proofs;
        self.refinements += o.refinements;
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.parse_bytes += o.parse_bytes;
    }

    fn add_cec(&mut self, r: &CecReport) {
        self.cec_checks += 1;
        self.cec_exhaustive += u64::from(r.exhaustive);
        self.internal_proofs += r.internal_proofs;
        self.refinements += r.refinements;
        self.conflicts += r.sat_stats.conflicts;
        self.decisions += r.sat_stats.decisions;
        self.propagations += r.sat_stats.propagations;
    }
}

/// `resyn2rs`. Untraced, this is the library's `resyn2rs_with` with
/// default options. Traced, the benchmark drives the same rounds of one
/// `Script::resyn2rs()` instance (each kept only while it strictly
/// improves `(ands, depth)`), because only the script's `ScriptReport`
/// exposes per-pass times; the stream's traced replay checks that both
/// give the same results.
fn synthesize(aig: &Aig, rec: &Recorder, acc: &mut Counters) -> Aig {
    if !rec.enabled() {
        return resyn2rs_with(aig, &SynthOptions::default());
    }
    let mut best = aig.compact();
    let mut best_stats = AigStats::of(&best);
    let mut script = Script::resyn2rs();
    for _ in 0..SynthOptions::default().rounds {
        let mut cur = best.clone();
        let report = script.run(&mut cur);
        acc.synth_rounds += 1;
        acc.synth_applied += report.total_applied() as u64;
        for p in &report.passes {
            let kind = if p.name.starts_with("balance") {
                0
            } else if p.name.starts_with("rewrite") {
                1
            } else {
                2
            };
            acc.pass_ns[kind] += p.time.as_nanos() as u64;
        }
        let stats = AigStats::of(&cur);
        if !stats.better_than(&best_stats) {
            break;
        }
        best = cur;
        best_stats = stats;
    }
    best
}

/// synth → (map → verify → rebuild-and-check) per library, on one
/// circuit. Every mapping must verify `Equivalent`, and both the
/// optimized graph and each rebuilt mapping must match the reference
/// model.
pub fn run_flow(
    circuit: &Circuit,
    libs: &[(LogicFamily, Library)],
    opts: MapOptions,
    rec: &mut Recorder,
    acc: &mut Counters,
) -> Result<(Qor, Aig), String> {
    let optimized = rec.span("synth", |rec| synthesize(&circuit.aig, rec, acc));
    rec.span("bench.check", |_| {
        circuit.reference.check(&optimized, "optimized graph")
    })?;
    let mut qor = Qor {
        opt_ands: optimized.num_ands() as f64,
        ..Qor::default()
    };
    for (family, lib) in libs {
        let mapping = rec.span(map_span(*family), |_| map(&optimized, lib, opts));
        let report = rec.span("aig.cec", |_| {
            verify_mapping_report(&optimized, &mapping, lib)
        });
        acc.add_cec(&report);
        if report.result != CecResult::Equivalent {
            return Err(format!(
                "{family:?} mapping is not equivalent: {:?}",
                report.result
            ));
        }
        let rebuilt = rec.span("techmap.to_aig", |_| {
            mapping_to_aig(&mapping, lib, optimized.num_pis())
        });
        rec.span("bench.check", |_| {
            circuit.reference.check(&rebuilt, "mapped netlist")
        })?;
        acc.gates += mapping.stats.gates as u64;
        qor.area += mapping.stats.area;
        qor.delay_ps += mapping.stats.delay_ps;
    }
    Ok((qor, optimized))
}

/// What one service request returned.
#[derive(Debug, Clone)]
pub struct Served {
    pub stats: ServeStats,
    pub cached: bool,
    /// The service's own timing of the request, milliseconds.
    pub service_ms: f64,
    /// From sending the request (parse included) to its outcome,
    /// milliseconds.
    pub latency_ms: f64,
}

/// Parse → `SynthService::run` on one AIGER-binary request, then a
/// check of the parsed graph against the reference model.
pub fn run_service(
    svc: &SynthService,
    name: &str,
    bytes: &[u8],
    reference: &Reference,
    rec: &mut Recorder,
    acc: &mut Counters,
) -> Result<Served, String> {
    let t0 = std::time::Instant::now();
    let mut aig = rec
        .span("aig.io.parse", |_| cntfet_aig::parse_aiger(bytes))
        .map_err(|e| format!("parse: {e}"))?;
    acc.parse_bytes += bytes.len() as u64;
    aig.set_name(name);
    let req = SynthRequest::new(name, aig);
    let outcome = rec.span("serve.run", |_| svc.run(&req));
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    rec.span("bench.check", |_| {
        reference.check(&req.aig, "parsed request")
    })?;
    match outcome {
        ServeOutcome::Done { stats, cached, ms } => {
            if stats.verified != Some(true) {
                return Err(format!("mapping verdict {:?}", stats.verified));
            }
            Ok(Served {
                stats,
                cached,
                service_ms: ms,
                latency_ms,
            })
        }
        other => Err(format!("outcome {other:?}")),
    }
}
