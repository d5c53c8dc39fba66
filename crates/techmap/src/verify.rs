//! Verification of a mapped netlist against its source network: a
//! per-gate truth-table certificate first, and SAT sweeping on the
//! netlist rebuilt as an AIG when the certificate cannot decide.

use crate::check::check_mapping;
use crate::mapper::{MappedGate, Mapping, PoBinding, Source};
use cntfet_aig::{
    check_equivalence_sweeping_report, Aig, CecReport, CecResult, Lit, NodeId, SweepOptions,
};
use cntfet_boolfn::word::{self, MAX_WORD_VARS};
use cntfet_core::Library;
use std::collections::HashMap;

/// Rebuilds the logic of a mapped netlist as an AIG with the same
/// PI/PO interface as the source.
pub fn mapping_to_aig(mapping: &Mapping, library: &Library, num_pis: usize) -> Aig {
    let mut g = Aig::new("mapped");
    let pis = g.add_pis(num_pis);
    let mut value: HashMap<u32, Lit> = HashMap::new();

    let src_lit = |src: Source, compl: bool, value: &HashMap<u32, Lit>, pis: &[Lit]| -> Lit {
        let base = match src {
            Source::Pi(i) => pis[i],
            Source::Node(n) => *value.get(&(n.index() as u32)).expect("gate emitted before use"),
        };
        base.negate_if(compl)
    };

    for gate in &mapping.gates {
        let cell = &library.cells()[gate.cell];
        let expr = cell.gate.function();
        let leaves: Vec<Lit> = gate
            .pins
            .iter()
            .map(|&(src, compl)| src_lit(src, compl, &value, &pis))
            .collect();
        let lit = g.build_expr(&expr, &leaves).negate_if(gate.out_compl);
        value.insert(gate.root.index() as u32, lit);
    }

    for po in &mapping.pos {
        let lit = match *po {
            PoBinding::Const(compl) => Lit::FALSE.negate_if(compl),
            PoBinding::Signal(src, compl) => src_lit(src, compl, &value, &pis),
        };
        g.add_po(lit);
    }
    g
}

/// Checks that a mapping implements exactly the source AIG.
///
/// The mapping is first proven by a certificate that its own structure
/// makes cheap. Every cell was matched on a cut of at most 6 leaves
/// ([`crate::MappedGate::leaves`]), so the proof walks gates and wires
/// ([`Mapping::wires`]) in topological order and compares one truth
/// table per gate: the root's function over its leaves must equal the
/// cell function over the pins, where each pin names a leaf whose
/// value is already proven. Every output binding must then name its
/// source output's proven value, and equivalence follows by
/// induction. When the certificate cannot decide, SAT sweeping
/// ([`cntfet_aig::check_equivalence_sweeping`]) checks the netlist
/// rebuilt by [`mapping_to_aig`] and yields a counterexample.
///
/// # Panics
///
/// Only on the SAT path: panics if a pin or output names a gate the
/// mapping has not emitted earlier, or if the output counts differ.
pub fn verify_mapping(source: &Aig, mapping: &Mapping, library: &Library) -> CecResult {
    verify_mapping_report(source, mapping, library).result
}

/// [`verify_mapping`] returning the full [`CecReport`], so callers
/// (repro binaries, benches) can track what decided the check and
/// what it cost. When the certificate decides, the report is
/// `Equivalent` with [`CecReport::certified`] set and zero solver
/// statistics; otherwise it is the SAT sweep's report. Under
/// `--features paranoid` the sweep also runs after every accepted
/// certificate and must agree.
///
/// # Panics
///
/// As [`verify_mapping`].
pub fn verify_mapping_report(source: &Aig, mapping: &Mapping, library: &Library) -> CecReport {
    if !certify(source, mapping, library) {
        return sat_report(source, mapping, library);
    }
    #[cfg(feature = "paranoid")]
    {
        let sat = sat_report(source, mapping, library);
        assert_eq!(sat.result, CecResult::Equivalent, "paranoid: SAT refutes a certified mapping");
    }
    CecReport {
        result: CecResult::Equivalent,
        sat_stats: Default::default(),
        internal_proofs: 0,
        refinements: 0,
        exhaustive: false,
        certified: true,
    }
}

/// The SAT path: the netlist rebuilt as an AIG, swept against the
/// source.
fn sat_report(source: &Aig, mapping: &Mapping, library: &Library) -> CecReport {
    let rebuilt = mapping_to_aig(mapping, library, source.num_pis());
    check_equivalence_sweeping_report(source, &rebuilt, &SweepOptions::default())
}

/// Cone nodes one gate or wire proof may expand before it gives up
/// and leaves the mapping to SAT (the cuts of the benchmark suite's
/// covers expand at most 24).
const CONE_BUDGET: usize = 256;

/// The mapping certificate: true only if `mapping` provably implements
/// `source` (see [`verify_mapping`]). False means "not proven", not
/// "inequivalent". It never panics, whatever the mapping holds.
fn certify(source: &Aig, mapping: &Mapping, library: &Library) -> bool {
    if check_mapping(source, mapping, library).is_err() {
        return false;
    }
    let mut c = Certifier::new(source);
    // Root order proves every leaf before a pin or a wire reads it.
    let mut wires = mapping.wires.iter().peekable();
    for g in &mapping.gates {
        while let Some((w, leaves)) = wires.next_if(|(w, _)| *w < g.root) {
            if !c.prove_wire(*w, leaves) {
                return false;
            }
        }
        if !c.prove_gate(g, library) {
            return false;
        }
    }
    if !wires.all(|(w, leaves)| c.prove_wire(*w, leaves)) {
        return false;
    }
    source.pos().iter().zip(&mapping.pos).all(|(po, binding)| match *binding {
        PoBinding::Const(value) => po.node() == NodeId::CONST && value == po.is_complement(),
        PoBinding::Signal(src, compl) => {
            c.known[po.node().index()] == Some((src, compl ^ po.is_complement()))
        }
    })
}

/// Per-mapping state of the certificate, indexed by AIG node.
struct Certifier<'a> {
    aig: &'a Aig,
    /// Proven values: the node equals the source's value, complemented
    /// iff the flag is set.
    known: Vec<Option<(Source, bool)>>,
    /// Cone truth tables, valid where `stamp` equals `proof`.
    word: Vec<u64>,
    stamp: Vec<u32>,
    /// Number of cone walks so far.
    proof: u32,
    stack: Vec<NodeId>,
}

impl<'a> Certifier<'a> {
    fn new(aig: &'a Aig) -> Self {
        let n = aig.num_nodes();
        let mut known = vec![None; n];
        for (i, pi) in aig.pis().iter().enumerate() {
            known[pi.index()] = Some((Source::Pi(i), false));
        }
        Certifier { aig, known, word: vec![0; n], stamp: vec![0; n], proof: 0, stack: Vec::new() }
    }

    /// The function of `root` over `leaves` (leaf `i` is variable `i`),
    /// or `None` unless the leaves are distinct nodes that cut `root`
    /// off the primary inputs within [`CONE_BUDGET`] expansions. The
    /// walk starts below `root` even when `root` is itself a leaf.
    fn cone_table(&mut self, root: NodeId, leaves: &[NodeId]) -> Option<u64> {
        let n = self.word.len();
        if leaves.len() > MAX_WORD_VARS || root.index() >= n {
            return None;
        }
        if self.proof == u32::MAX {
            self.stamp.fill(0);
            self.proof = 0;
        }
        self.proof += 1;
        let proof = self.proof;
        for (i, leaf) in leaves.iter().enumerate() {
            let l = leaf.index();
            if l >= n || self.stamp[l] == proof {
                return None;
            }
            self.stamp[l] = proof;
            self.word[l] = word::var_word(i);
        }
        self.stamp[root.index()] = 0;
        self.stack.clear();
        self.stack.push(root);
        let mut expanded = 0;
        while let Some(&top) = self.stack.last() {
            let t = top.index();
            if self.stamp[t] == proof {
                self.stack.pop();
                continue;
            }
            if top == NodeId::CONST {
                self.word[t] = 0;
            } else if !self.aig.is_and(top) {
                return None; // a primary input outside the leaves
            } else {
                let (a, b) = self.aig.fanins(top);
                let ready_a = self.stamp[a.node().index()] == proof;
                let ready_b = self.stamp[b.node().index()] == proof;
                if !(ready_a && ready_b) {
                    expanded += 1;
                    if expanded > CONE_BUDGET {
                        return None;
                    }
                    if !ready_a {
                        self.stack.push(a.node());
                    }
                    if !ready_b {
                        self.stack.push(b.node());
                    }
                    continue;
                }
                self.word[t] = self.lit_word(a) & self.lit_word(b);
            }
            self.stamp[t] = proof;
            self.stack.pop();
        }
        Some(self.word[root.index()])
    }

    fn lit_word(&self, l: Lit) -> u64 {
        self.word[l.node().index()] ^ mask(l.is_complement())
    }

    /// Proves that `g` computes its root over its leaves, reading each
    /// pin from a leaf whose value is already proven; on success the
    /// root's value becomes the gate's output.
    fn prove_gate(&mut self, g: &MappedGate, library: &Library) -> bool {
        let Some(table) = self.cone_table(g.root, &g.leaves) else {
            return false;
        };
        let cell = library.cells().get(g.cell);
        let Some(function) = cell.map(|cell| cell.function.bits()) else {
            return false;
        };
        if g.pins.len() > MAX_WORD_VARS {
            return false;
        }
        let mut pins = [0u64; MAX_WORD_VARS];
        for (pin, &(src, compl)) in pins.iter_mut().zip(&g.pins) {
            let leaf = g.leaves.iter().enumerate().find_map(|(i, leaf)| {
                match self.known[leaf.index()] {
                    Some((s, c)) if s == src => Some((i, c)),
                    _ => None,
                }
            });
            let Some((i, c)) = leaf else {
                return false;
            };
            *pin = word::var_word(i) ^ mask(c ^ compl);
        }
        let out = compose(function, &pins[..g.pins.len()]) ^ mask(g.out_compl);
        if out != table && (out ^ table) & self.care(&g.leaves) != 0 {
            return false;
        }
        self.known[g.root.index()] = Some((Source::Node(g.root), false));
        true
    }

    /// Proves that the wire alias `node` equals one of its leaves, up
    /// to sign, and gives it that leaf's proven value.
    fn prove_wire(&mut self, node: NodeId, leaves: &[NodeId]) -> bool {
        let Some(table) = self.cone_table(node, leaves) else {
            return false;
        };
        let value = self.forwarded(leaves, table, !0).or_else(|| {
            let care = self.care(leaves);
            self.forwarded(leaves, table, care)
        });
        let Some(value) = value else {
            return false;
        };
        self.known[node.index()] = Some(value);
        true
    }

    /// The proven value, sign applied, of a leaf that `table` equals
    /// up to sign on `care`.
    fn forwarded(&self, leaves: &[NodeId], table: u64, care: u64) -> Option<(Source, bool)> {
        leaves.iter().enumerate().find_map(|(i, leaf)| {
            let (src, c) = self.known[leaf.index()]?;
            let v = word::var_word(i);
            let sign = [false, true].into_iter().find(|&s| (table ^ v ^ mask(s)) & care == 0)?;
            Some((src, c ^ sign))
        })
    }

    /// The leaf assignments the circuit can produce, as far as the
    /// certificate can tell: leaves proven equal to the same source
    /// agree up to their signs, and a leaf that the other leaves cut
    /// off from the primary inputs equals its function of them. Cut
    /// enumeration can derive a cut's function through such a leaf's
    /// cone instead of stopping at the leaf, so a correct match may
    /// differ from the cone walk's table outside this set.
    fn care(&mut self, leaves: &[NodeId]) -> u64 {
        let mut care = !0u64;
        for (i, leaf) in leaves.iter().enumerate() {
            let v = word::var_word(i);
            if let Some(t) = self.cone_table(*leaf, leaves) {
                care &= !(v ^ t);
            }
            let Some((si, ci)) = self.known[leaf.index()] else {
                continue;
            };
            for (j, other) in leaves.iter().enumerate().skip(i + 1) {
                if let Some((sj, cj)) = self.known[other.index()] {
                    if si == sj {
                        care &= !(v ^ word::var_word(j) ^ mask(ci ^ cj));
                    }
                }
            }
        }
        care
    }
}

/// All-ones when `b` is set: XOR-ing it complements a truth table.
fn mask(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
}

/// `f(inputs)`: the function word `f` of `inputs.len() <= 6` variables
/// applied to one truth table per variable, by Shannon expansion from
/// variable 0 upward.
fn compose(f: u64, inputs: &[u64]) -> u64 {
    let mut cof = [0u64; 64];
    let mut len = 1usize << inputs.len();
    for (m, c) in cof[..len].iter_mut().enumerate() {
        *c = mask(f >> m & 1 == 1);
    }
    for &x in inputs {
        len /= 2;
        for j in 0..len {
            cof[j] = (x & cof[2 * j + 1]) | (!x & cof[2 * j]);
        }
    }
    cof[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapOptions, Objective};
    use cntfet_aig::check_equivalence;
    use cntfet_core::LogicFamily;

    const FAMILIES: [LogicFamily; 3] =
        [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic];
    const OBJECTIVES: [Objective; 3] = [Objective::Area, Objective::Delay, Objective::Balanced];

    fn full_adder_chain(bits: usize) -> Aig {
        let mut g = Aig::new("adder");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            g.add_po(s);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    #[test]
    fn mapped_adder_equivalent_all_families() {
        let src = full_adder_chain(6);
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(&src, &lib, MapOptions::default());
            assert_eq!(
                verify_mapping(&src, &m, &lib),
                CecResult::Equivalent,
                "{family:?} mapping broke the adder"
            );
            assert!(m.stats.gates > 0);
            assert!(m.stats.area > 0.0);
            assert!(m.stats.delay_norm > 0.0);
        }
    }

    #[test]
    fn cntfet_maps_xor_in_one_gate() {
        let mut g = Aig::new("xor2");
        let p = g.add_pis(2);
        let x = g.xor(p[0], p[1]);
        g.add_po(x);
        let lib = Library::new(LogicFamily::TgStatic);
        let m = map(&g, &lib, MapOptions::default());
        assert_eq!(m.stats.gates, 1, "XOR must map to a single F01 cell");
        assert_eq!(lib.cells()[m.gates[0].cell].name, "F01");
        assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    #[test]
    fn cmos_needs_more_gates_for_xor() {
        let mut g = Aig::new("xor2");
        let p = g.add_pis(2);
        let x = g.xor(p[0], p[1]);
        g.add_po(x);
        let lib = Library::new(LogicFamily::CmosStatic);
        let m = map(&g, &lib, MapOptions::default());
        assert!(m.stats.gates >= 3, "CMOS XOR takes several NAND/NOR/INV");
        assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    #[test]
    fn po_polarities_and_constants() {
        let mut g = Aig::new("polarity");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x.negate()); // NAND output
        g.add_po(Lit::TRUE);
        g.add_po(p[0]); // PI passthrough
        g.add_po(p[1].negate()); // complemented PI
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(&g, &lib, MapOptions::default());
            assert_eq!(
                verify_mapping(&g, &m, &lib),
                CecResult::Equivalent,
                "{family:?}"
            );
        }
    }

    #[test]
    fn area_recovery_does_not_break_function() {
        let src = full_adder_chain(8);
        let lib = Library::new(LogicFamily::TgStatic);
        let fast = map(&src, &lib, MapOptions { area_rounds: 0, ..Default::default() });
        let tight = map(&src, &lib, MapOptions { area_rounds: 3, ..Default::default() });
        assert_eq!(verify_mapping(&src, &tight, &lib), CecResult::Equivalent);
        assert!(tight.stats.area <= fast.stats.area + 1e-9);
        assert!(tight.stats.delay_norm >= fast.stats.delay_norm - 1e-9);
    }

    /// Selector logic: a 4:1 multiplexer and a majority vote over
    /// shared inputs.
    fn control_logic() -> Aig {
        let mut g = Aig::new("control");
        let p = g.add_pis(6);
        let lo = g.mux(p[4], p[1], p[0]);
        let hi = g.mux(p[4], p[3], p[2]);
        let sel = g.mux(p[5], hi, lo);
        g.add_po(sel);
        let ab = g.and(p[0], p[1]);
        let bc = g.and(p[1], p[2]);
        let ca = g.and(p[2], p[0]);
        let maj = g.or(ab, bc);
        let maj = g.or(maj, ca);
        g.add_po(maj.negate());
        g
    }

    /// `n = a & (a | b)` is the wire `a` in disguise (structural
    /// hashing keeps the node), and it drives an output directly.
    fn disguised_wire() -> Aig {
        let mut g = Aig::new("wire");
        let p = g.add_pis(3);
        let t = g.or(p[0], p[1]);
        let n = g.and(p[0], t);
        let y = g.xor(n, p[2]);
        g.add_po(y);
        g.add_po(n.negate());
        g
    }

    fn samples() -> Vec<Aig> {
        vec![full_adder_chain(5), control_logic(), disguised_wire()]
    }

    /// The independent verdict: a plain SAT miter on the rebuilt netlist.
    fn sat_equivalent(src: &Aig, m: &Mapping, lib: &Library) -> bool {
        check_equivalence(src, &mapping_to_aig(m, lib, src.num_pis())) == CecResult::Equivalent
    }

    #[test]
    fn certificate_accepts_and_sat_agrees() {
        for src in samples() {
            for family in FAMILIES {
                let lib = Library::new(family);
                for objective in OBJECTIVES {
                    let m = map(&src, &lib, MapOptions { objective, ..Default::default() });
                    let r = verify_mapping_report(&src, &m, &lib);
                    let what = format!("{}/{family:?}/{objective:?}", src.name());
                    assert!(r.certified, "{what}: certificate rejected a mapper cover");
                    assert_eq!(r.result, CecResult::Equivalent, "{what}");
                    assert_eq!(r.sat_stats.propagations, 0, "{what}: SAT ran");
                    assert!(!r.exhaustive && r.internal_proofs == 0, "{what}");
                    assert!(sat_equivalent(&src, &m, &lib), "{what}: SAT disagrees");
                }
            }
        }
    }

    /// A mutant must not be certified, and the SAT fallback must give
    /// the verdict an independent SAT miter gives.
    fn assert_rejected(src: &Aig, m: &Mapping, lib: &Library, what: &str) {
        let r = verify_mapping_report(src, m, lib);
        assert!(!r.certified, "{what}: certificate accepted a mutant");
        let sat = sat_equivalent(src, m, lib);
        assert_eq!(r.result == CecResult::Equivalent, sat, "{what}: verdict differs from SAT");
        if let CecResult::Counterexample { inputs, output } = &r.result {
            let rebuilt = mapping_to_aig(m, lib, src.num_pis());
            assert_ne!(src.eval(inputs)[*output], rebuilt.eval(inputs)[*output], "{what}");
        }
    }

    #[test]
    fn certificate_rejects_every_mutant_kind() {
        let (mut swapped_pins, mut wrong_cells) = (0, 0);
        for src in samples() {
            for family in FAMILIES {
                let lib = Library::new(family);
                let cells = lib.cells();
                let m = map(&src, &lib, MapOptions::default());
                let name = format!("{}/{family:?}", src.name());
                for i in 0..m.gates.len() {
                    let mut bad = m.clone();
                    bad.gates[i].out_compl ^= true;
                    assert_rejected(&src, &bad, &lib, &format!("{name}: out_compl of gate {i}"));

                    let mut bad = m.clone();
                    bad.gates[i].pins[0].1 ^= true;
                    assert_rejected(&src, &bad, &lib, &format!("{name}: pin 0 of gate {i}"));

                    let gate = &m.gates[i];
                    let f = cells[gate.cell].function.bits();
                    if gate.pins[0] != gate.pins[1] && word::swap_vars(f, 0, 1) != f {
                        let mut bad = m.clone();
                        bad.gates[i].pins.swap(0, 1);
                        assert_rejected(&src, &bad, &lib, &format!("{name}: pins of gate {i}"));
                        swapped_pins += 1;
                    }

                    let cell = &cells[gate.cell];
                    let other = cells.iter().position(|c| {
                        c.num_inputs == cell.num_inputs && c.function != cell.function
                    });
                    if let Some(other) = other {
                        let mut bad = m.clone();
                        bad.gates[i].cell = other;
                        assert_rejected(&src, &bad, &lib, &format!("{name}: cell of gate {i}"));
                        wrong_cells += 1;
                    }
                }
                for o in 0..m.pos.len() {
                    let mut bad = m.clone();
                    bad.pos[o] = match bad.pos[o] {
                        PoBinding::Const(v) => PoBinding::Const(!v),
                        PoBinding::Signal(s, c) => PoBinding::Signal(s, !c),
                    };
                    assert_rejected(&src, &bad, &lib, &format!("{name}: negated output {o}"));
                    if o > 0 && src.pos()[o] != src.pos()[0] {
                        let mut bad = m.clone();
                        bad.pos.swap(0, o);
                        assert_rejected(&src, &bad, &lib, &format!("{name}: outputs 0 and {o}"));
                    }
                }
            }
        }
        assert!(swapped_pins > 0 && wrong_cells > 0, "{swapped_pins} / {wrong_cells} mutants");
    }

    #[test]
    fn broken_structure_is_rejected_without_panic() {
        let src = full_adder_chain(4);
        let lib = Library::new(LogicFamily::TgStatic);
        let m = map(&src, &lib, MapOptions::default());
        assert!(certify(&src, &m, &lib));
        let last = m.gates.len() - 1;
        let far = NodeId::from_index(src.num_nodes() + 7);

        // Dangling: a pin reads its own gate.
        let mut bad = m.clone();
        bad.gates[last].pins[0].0 = Source::Node(m.gates[last].root);
        assert!(!certify(&src, &bad, &lib));
        // Out of order: a consumer emitted before its producer.
        let mut bad = m.clone();
        let consumer = (0..m.gates.len())
            .find(|&i| m.gates[i].pins.iter().any(|p| matches!(p.0, Source::Node(_))))
            .expect("an internal edge");
        let producer = m.gates[consumer]
            .pins
            .iter()
            .find_map(|p| match p.0 {
                Source::Node(r) => m.gates.iter().position(|g| g.root == r),
                Source::Pi(_) => None,
            })
            .expect("a covered producer");
        bad.gates.swap(consumer, producer);
        assert!(!certify(&src, &bad, &lib));
        // An output bound to a node no gate implements.
        let mut bad = m.clone();
        let uncovered = src.and_ids().find(|&n| m.gates.iter().all(|g| g.root != n));
        bad.pos[0] = PoBinding::Signal(Source::Node(uncovered.expect("an uncovered node")), false);
        assert!(!certify(&src, &bad, &lib));
        // Roots and leaves outside the graph, too many or repeated
        // leaves, and leaves that do not cut the root off the inputs.
        let mut bad = m.clone();
        bad.gates[0].root = far;
        assert!(!certify(&src, &bad, &lib));
        for leaves in [vec![], vec![far], vec![src.pis()[0]; 2], src.pis().to_vec()] {
            let mut bad = m.clone();
            bad.gates[last].leaves = leaves;
            assert!(!certify(&src, &bad, &lib));
        }
        let mut bad = m.clone();
        bad.wires.push((far, vec![src.pis()[0]]));
        assert!(!certify(&src, &bad, &lib));
    }

    #[test]
    fn delay_mapping_resolves_outputs_through_wires() {
        let src = disguised_wire();
        let lib = Library::new(LogicFamily::TgStatic);
        let m = map(&src, &lib, MapOptions { objective: Objective::Delay, ..Default::default() });
        assert!(!m.wires.is_empty(), "the disguised wire must be an alias");
        let r = verify_mapping_report(&src, &m, &lib);
        assert!(r.certified && r.result == CecResult::Equivalent);
        // The output that reads the alias is only provable through it.
        let mut bare = m.clone();
        bare.wires.clear();
        assert!(!certify(&src, &bare, &lib));
        assert_eq!(verify_mapping(&src, &bare, &lib), CecResult::Equivalent);
    }

    #[test]
    fn leaves_determined_by_other_leaves_are_constrained() {
        // r = (a & b) & a. The mapper covers r with one AND-type cell
        // on the cut {a, b}. Over the cut {a, b, x = a & b} the cone
        // walk stops at x and reads r = x & a, which agrees with the
        // cell only where x = a & b: cut enumeration can derive a
        // cut's function through such a leaf.
        let mut src = Aig::new("dependent");
        let p = src.add_pis(2);
        let x = src.and(p[0], p[1]);
        let r = src.and(x, p[0]);
        src.add_po(r);
        let lib = Library::new(LogicFamily::TgStatic);
        let mut m = map(&src, &lib, MapOptions::default());
        assert_eq!(m.gates.len(), 1);
        assert_eq!(m.gates[0].leaves, src.pis());
        m.gates[0].leaves.push(x.node());
        assert!(certify(&src, &m, &lib));
    }

    #[test]
    fn compose_matches_pointwise_evaluation() {
        let f = 0x6996_0ff0_a55a_3cc3u64;
        let inputs = [0x1234_5678_9abc_def0u64, !0, 0, 0xdead_beef_0bad_f00d];
        let out = compose(f, &inputs[..4]);
        for bit in 0..64 {
            let m = (0..4).fold(0, |m, v| m | ((inputs[v] >> bit & 1) << v));
            assert_eq!(out >> bit & 1, f >> m & 1, "bit {bit}");
        }
    }
}
