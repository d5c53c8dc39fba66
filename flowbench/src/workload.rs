//! The three workloads and their inputs. Everything here is made from
//! the workload seed before any timing starts.

use cntfet_aig::{Aig, Lit};
use cntfet_circuits::{
    alu_control, array_multiplier, cla_adder, des_f, des_f_reference, paper_benchmarks,
    random_logic, ripple_adder, SplitMix64,
};
use cntfet_core::LogicFamily;
use cntfet_techmap::Objective;
use std::sync::Arc;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 15-circuit paper suite, one client, engines at 1 worker.
    Table3Seq,
    /// AIGER requests through one `SynthService`, 2 clients, engines
    /// at 1 worker.
    ServiceStream,
    /// One 8-round DES Feistel chain, delay mapping, engines at 2
    /// workers.
    LargePar,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "table3-seq" => Some(Kind::Table3Seq),
            "service-stream" => Some(Kind::ServiceStream),
            "large-par" => Some(Kind::LargePar),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table3Seq => "table3-seq",
            Kind::ServiceStream => "service-stream",
            Kind::LargePar => "large-par",
        }
    }

    /// Engine worker count, always pinned (never the core-count default).
    pub fn workers(self) -> usize {
        match self {
            Kind::Table3Seq | Kind::ServiceStream => 1,
            Kind::LargePar => 2,
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Kind::ServiceStream => 2,
            Kind::Table3Seq | Kind::LargePar => 1,
        }
    }

    pub fn families(self) -> &'static [LogicFamily] {
        match self {
            Kind::Table3Seq => &LogicFamily::MAPPED,
            Kind::ServiceStream | Kind::LargePar => &[LogicFamily::TgStatic],
        }
    }

    pub fn objective(self) -> Objective {
        match self {
            Kind::LargePar => Objective::Delay,
            Kind::Table3Seq | Kind::ServiceStream => Objective::Balanced,
        }
    }
}

/// The span wrapping `map` for one family.
pub fn map_span(f: LogicFamily) -> &'static str {
    match f {
        LogicFamily::TgStatic => "techmap.map.tg_static",
        LogicFamily::TgPseudo => "techmap.map.tg_pseudo",
        LogicFamily::CmosStatic => "techmap.map.cmos",
        _ => "techmap.map.other",
    }
}

/// An independent model of what a circuit computes, sampled on seeded
/// random vectors.
#[derive(Debug)]
pub enum Reference {
    /// An n-bit adder (`a[n] b[n] cin` → `sum[n] cout`), checked with
    /// `eval_adder` against integer addition.
    Adder {
        n: usize,
        vectors: Vec<(u64, u64, bool)>,
    },
    /// An n×n multiplier, checked with `eval_multiplier` against the
    /// integer product.
    Multiplier { n: usize, vectors: Vec<(u64, u64)> },
    /// 64 patterns per primary input and the expected output words.
    Words {
        inputs: Vec<u64>,
        expected: Vec<u64>,
    },
}

const ARITH_VECTORS: usize = 16;

impl Reference {
    fn adder(n: usize, rng: &mut SplitMix64) -> Reference {
        let mask = (1u64 << n) - 1;
        let vectors = (0..ARITH_VECTORS)
            .map(|_| (rng.next_u64() & mask, rng.next_u64() & mask, rng.coin()))
            .collect();
        Reference::Adder { n, vectors }
    }

    fn multiplier(n: usize, rng: &mut SplitMix64) -> Reference {
        let mask = (1u64 << n) - 1;
        let vectors = (0..ARITH_VECTORS)
            .map(|_| (rng.next_u64() & mask, rng.next_u64() & mask))
            .collect();
        Reference::Multiplier { n, vectors }
    }

    /// The generator's own output, simulated on 64 random patterns.
    fn source(aig: &Aig, rng: &mut SplitMix64) -> Reference {
        let inputs: Vec<u64> = (0..aig.num_pis()).map(|_| rng.next_u64()).collect();
        let values = aig.simulate_words(&inputs);
        let expected = aig
            .pos()
            .iter()
            .map(|&l| aig.lit_word(&values, l))
            .collect();
        Reference::Words { inputs, expected }
    }

    /// `rounds` Feistel rounds of the software `des_f_reference` on 64
    /// random (L, R, keys) patterns, in the PI/PO order of
    /// [`des_chain`].
    fn des_chain(rounds: usize, rng: &mut SplitMix64) -> Reference {
        let mut inputs = vec![0u64; 64 + 48 * rounds];
        let mut expected = vec![0u64; 64];
        for bit in 0..64 {
            let mut l = rng.next_u64() as u32;
            let mut r = rng.next_u64() as u32;
            let keys: Vec<u64> = (0..rounds)
                .map(|_| rng.next_u64() & ((1 << 48) - 1))
                .collect();
            let mut put = |pi: usize, v: bool| inputs[pi] |= u64::from(v) << bit;
            for i in 0..32 {
                put(i, l >> i & 1 == 1);
                put(32 + i, r >> i & 1 == 1);
            }
            for (k, key) in keys.iter().enumerate() {
                for i in 0..48 {
                    put(64 + 48 * k + i, key >> i & 1 == 1);
                }
            }
            for key in &keys {
                (l, r) = (r, l ^ des_f_reference(r, *key));
            }
            for i in 0..32 {
                expected[i] |= u64::from(l >> i & 1) << bit;
                expected[32 + i] |= u64::from(r >> i & 1) << bit;
            }
        }
        Reference::Words { inputs, expected }
    }

    /// Checks `aig` against the model; `what` names the checked output.
    pub fn check(&self, aig: &Aig, what: &str) -> Result<(), String> {
        match self {
            Reference::Adder { n, vectors } => {
                for &(a, b, cin) in vectors {
                    let (sum, cout) = cntfet_circuits::eval_adder(aig, *n, a, b, cin);
                    let full = a + b + u64::from(cin);
                    if sum != full & ((1 << n) - 1) || cout != (full >> n & 1 == 1) {
                        return Err(format!("{what}: {a} + {b} + {cin} gave {sum} carry {cout}"));
                    }
                }
            }
            Reference::Multiplier { n, vectors } => {
                for &(a, b) in vectors {
                    let p = cntfet_circuits::eval_multiplier(aig, *n, a, b);
                    if p != u128::from(a) * u128::from(b) {
                        return Err(format!("{what}: {a} * {b} gave {p}"));
                    }
                }
            }
            Reference::Words { inputs, expected } => {
                if aig.num_pis() != inputs.len() || aig.num_pos() != expected.len() {
                    return Err(format!(
                        "{what}: interface {}/{} differs from {}/{}",
                        aig.num_pis(),
                        aig.num_pos(),
                        inputs.len(),
                        expected.len()
                    ));
                }
                let values = aig.simulate_words(inputs);
                for (i, (&l, &want)) in aig.pos().iter().zip(expected).enumerate() {
                    let got = aig.lit_word(&values, l);
                    if got != want {
                        return Err(format!(
                            "{what}: output {i} differs ({got:#x} vs {want:#x})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A `rounds`-round DES Feistel chain built from the public `des_f`:
/// PIs `L[32] R[32] K1[48] … Kn[48]`, POs the final `L[32] R[32]`.
pub fn des_chain(rounds: usize) -> Aig {
    let mut g = Aig::new(format!("des-chain-{rounds}"));
    let mut l = g.add_pis(32);
    let mut r = g.add_pis(32);
    let keys: Vec<Vec<Lit>> = (0..rounds).map(|_| g.add_pis(48)).collect();
    for k in &keys {
        let f = des_f(&mut g, &r, k);
        let next: Vec<Lit> = (0..32).map(|i| g.xor(l[i], f[i])).collect();
        l = std::mem::replace(&mut r, next);
    }
    for &o in l.iter().chain(&r) {
        g.add_po(o);
    }
    g
}

/// One circuit of a workload, with its model.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Stable index within the workload (results of the same item must
    /// repeat exactly across passes).
    pub item: usize,
    pub aig: Aig,
    pub reference: Arc<Reference>,
}

/// One unit of client work.
#[derive(Debug)]
pub enum Request {
    /// synth → map (each family) → verify, driven by the benchmark.
    Flow(Box<Circuit>),
    /// An AIGER-binary request to the service. Exact repeats share the
    /// name and bytes of an earlier request of the pass.
    Service {
        name: String,
        item: usize,
        bytes: Arc<Vec<u8>>,
        reference: Arc<Reference>,
    },
}

impl Request {
    pub fn item(&self) -> usize {
        match self {
            Request::Flow(circuit) => circuit.item,
            Request::Service { item, .. } => *item,
        }
    }
}

/// Requests per service-stream pass: distinct circuits plus exact
/// repeats (a quarter of the pass).
const STREAM_DISTINCT: usize = 72;
const STREAM_REPEATS: usize = 24;
/// Repeats only point at requests this early in the pass, so the
/// original has usually finished and the repeat is a cache hit.
const REPEAT_WINDOW: usize = 56;
/// Seed of the stream's circuit structures. It is fixed, so that the
/// quality-of-results sums do not depend on the workload seed; the
/// workload seed picks the request order, the repeats and the test
/// vectors.
const STREAM_STRUCTURE_SEED: u64 = 0x5EED_C17C_0175;

/// The inputs of one run: a template of circuits, renamed per pass so
/// that no pass finds another pass's results in a fingerprint-keyed
/// cache.
pub struct Inputs {
    kind: Kind,
    seed: u64,
    circuits: Vec<Circuit>,
    /// AIGER-binary form of each circuit (service stream only).
    bytes: Vec<Arc<Vec<u8>>>,
}

impl Inputs {
    pub fn new(kind: Kind, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let circuits = match kind {
            Kind::Table3Seq => paper_benchmarks()
                .into_iter()
                .enumerate()
                .map(|(item, b)| {
                    let reference = match b.name {
                        "C6288" => Reference::multiplier(16, &mut rng),
                        "add-16" => Reference::adder(16, &mut rng),
                        "add-32" => Reference::adder(32, &mut rng),
                        _ => Reference::source(&b.aig, &mut rng),
                    };
                    Circuit {
                        item,
                        aig: b.aig,
                        reference: Arc::new(reference),
                    }
                })
                .collect(),
            Kind::LargePar => vec![des_circuit(LARGE_PAR_ROUNDS, &mut rng)],
            Kind::ServiceStream => stream_template(&mut rng),
        };
        let bytes = match kind {
            Kind::ServiceStream => circuits
                .iter()
                .map(|c| Arc::new(cntfet_aig::write_aiger_binary(&c.aig)))
                .collect(),
            Kind::Table3Seq | Kind::LargePar => Vec::new(),
        };
        Inputs {
            kind,
            seed,
            circuits,
            bytes,
        }
    }

    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// The warm-up pass: one 2-round DES chain, which no timed pass
    /// uses, through the workload's path. It builds lazy process-wide
    /// state at a fraction of the cost of a pass.
    pub fn warm_up(&self) -> Vec<Request> {
        let mut rng = SplitMix64::new(self.seed);
        let mut circuit = des_circuit(2, &mut rng);
        circuit.item = WARM_ITEM;
        circuit.aig.set_name("des-chain-2@warm");
        let request = match self.kind {
            Kind::ServiceStream => Request::Service {
                name: circuit.aig.name().to_string(),
                item: WARM_ITEM,
                bytes: Arc::new(cntfet_aig::write_aiger_binary(&circuit.aig)),
                reference: circuit.reference,
            },
            Kind::Table3Seq | Kind::LargePar => Request::Flow(Box::new(circuit)),
        };
        vec![request]
    }

    /// The requests of one pass. `tag` makes every name unique to the
    /// pass; the circuits themselves are the same in every pass.
    pub fn pass(&self, tag: &str) -> Vec<Request> {
        if self.kind != Kind::ServiceStream {
            return self
                .circuits
                .iter()
                .map(|c| {
                    let mut circuit = c.clone();
                    circuit.aig.set_name(format!("{}@{tag}", c.aig.name()));
                    Request::Flow(Box::new(circuit))
                })
                .collect();
        }
        let mut rng = SplitMix64::new(self.seed ^ tag_hash(tag));
        let mut order: Vec<usize> = (0..self.circuits.len()).collect();
        shuffle(&mut order, &mut rng);
        let service = |i: usize| {
            let c = &self.circuits[i];
            Request::Service {
                name: format!("{}@{tag}", c.aig.name()),
                item: c.item,
                bytes: self.bytes[i].clone(),
                reference: c.reference.clone(),
            }
        };
        let mut repeats: Vec<usize> = (0..STREAM_REPEATS)
            .map(|_| order[rng.below(REPEAT_WINDOW.min(order.len()))])
            .collect();
        shuffle(&mut repeats, &mut rng);
        order.iter().chain(&repeats).map(|&i| service(i)).collect()
    }
}

/// Rounds of the large-par chain.
const LARGE_PAR_ROUNDS: usize = 8;
/// Item id of the warm-up circuit, which no timed pass uses.
const WARM_ITEM: usize = usize::MAX;

fn des_circuit(rounds: usize, rng: &mut SplitMix64) -> Circuit {
    Circuit {
        item: 0,
        aig: des_chain(rounds),
        reference: Arc::new(Reference::des_chain(rounds, rng)),
    }
}

fn tag_hash(tag: &str) -> u64 {
    tag.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The distinct circuits of a service-stream pass: adders, small
/// multipliers, ALU/control blocks and random logic, with sizes capped
/// so that no single request dominates a pass. Structures come from
/// [`STREAM_STRUCTURE_SEED`]; `rng` (the workload seed) draws the test
/// vectors.
fn stream_template(rng: &mut SplitMix64) -> Vec<Circuit> {
    let mut shape = SplitMix64::new(STREAM_STRUCTURE_SEED);
    let mut out: Vec<(Aig, Reference)> = Vec::with_capacity(STREAM_DISTINCT);
    for (i, n) in [8, 12, 16, 20, 24, 32]
        .into_iter()
        .cycle()
        .take(16)
        .enumerate()
    {
        let mut aig = ripple_adder(n);
        aig.set_name(format!("s{i:02}-add{n}"));
        out.push((aig, Reference::adder(n, rng)));
    }
    for n in [8, 12, 16, 8] {
        let mut aig = cla_adder(n);
        aig.set_name(format!("s{:02}-cla{n}", out.len()));
        out.push((aig, Reference::adder(n, rng)));
    }
    for n in [4, 5, 6, 7, 8].into_iter().cycle().take(12) {
        let mut aig = array_multiplier(n);
        aig.set_name(format!("s{:02}-mul{n}", out.len()));
        out.push((aig, Reference::multiplier(n, rng)));
    }
    for _ in 0..20 {
        let (ins, outs) = (24 + shape.below(41), 8 + shape.below(17));
        let aig = alu_control(
            &format!("s{:02}-alu{ins}x{outs}", out.len()),
            ins,
            outs,
            shape.next_u64(),
        );
        let reference = Reference::source(&aig, rng);
        out.push((aig, reference));
    }
    while out.len() < STREAM_DISTINCT {
        let (ins, outs) = (8 + shape.below(17), 2 + shape.below(7));
        let aig = random_logic(
            &format!("s{:02}-rand{ins}x{outs}", out.len()),
            ins,
            outs,
            shape.next_u64(),
        );
        let reference = Reference::source(&aig, rng);
        out.push((aig, reference));
    }
    out.into_iter()
        .enumerate()
        .map(|(item, (aig, reference))| Circuit {
            item,
            aig,
            reference: Arc::new(reference),
        })
        .collect()
}
