//! Precomputed rewrite library: one near-optimal AIG structure per
//! NPN class of ≤ 4-input functions.
//!
//! DAG-aware rewriting replaces the logic cone of a 4-feasible cut by
//! a precomputed structure for the cut function's NPN class, instead
//! of re-deriving an implementation (ISOP + factoring) per node. The
//! structures are a fixed function of the code, so they are derived
//! once, by the `rwrgen` binary (`src/bin/rwrgen.rs`), and committed
//! as a table (`src/rwr_table.rs`) that [`RwrLibrary::global`] decodes
//! on first use. The generator derives each class's structure in two
//! steps:
//!
//! 1. a breadth-first exact enumeration over all 65 536 four-variable
//!    functions finds minimal AND-tree implementations up to a node
//!    budget (this covers every cheap class — the ones rewriting gains
//!    on);
//! 2. the few classes beyond the budget fall back to the better of a
//!    Shannon/XOR-aware decomposition and the two factored-SOP phases.
//!
//! CI reruns the generator and fails when its output differs from the
//! committed table.
//!
//! Entries are keyed by the same [`npn_canonical`](crate::npn_canonical)
//! form the technology mapper's library index uses, so a lookup is one
//! canonicalization plus a hash probe; the returned [`NpnTransform`]
//! tells the caller how to wire cut leaves onto structure inputs.

use crate::npn::NpnTransform;
use crate::rwr_table::{NUM_EXACT, TABLE};
use crate::tt::TruthTable;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Number of variables the library covers (structures for smaller
/// functions are found by padding the table).
pub const RWR_VARS: usize = 4;

/// Literal encoding of [`RwrStructure`] operands: `index << 1 |
/// complement`, where indices `0..4` are the structure's leaves and
/// `4 + i` is the output of step `i`. Two codes are reserved for the
/// constants ([`RwrStructure::FALSE`], [`RwrStructure::TRUE`]).
pub type RwrLit = u8;

/// A decoded structure operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwrOperand {
    /// Structure leaf `0..4`, with complement flag.
    Leaf(usize, bool),
    /// Output of an earlier step, with complement flag.
    Step(usize, bool),
    /// A constant.
    Const(bool),
}

/// The AIG structure of one NPN class: a sequence of AND steps over
/// four leaves, plus the output literal.
#[derive(Debug, Clone)]
pub struct RwrStructure {
    steps: Vec<(RwrLit, RwrLit)>,
    out: RwrLit,
}

impl RwrStructure {
    /// The constant-false literal code.
    pub const FALSE: RwrLit = 0xFE;
    /// The constant-true literal code.
    pub const TRUE: RwrLit = 0xFF;
    /// Upper bound on [`num_ands`](Self::num_ands) over the library, so
    /// a structure walk fits a fixed buffer (the committed table's
    /// longest structure has 16 steps; `rwrgen` asserts the bound).
    pub const MAX_STEPS: usize = 16;

    /// The AND steps, in build order (operands of step `i` reference
    /// only leaves and steps `< i`).
    pub fn steps(&self) -> &[(RwrLit, RwrLit)] {
        &self.steps
    }

    /// The output literal.
    pub fn out(&self) -> RwrLit {
        self.out
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.steps.len()
    }

    /// Decodes an operand literal.
    pub fn decode(lit: RwrLit) -> RwrOperand {
        match lit {
            Self::FALSE => RwrOperand::Const(false),
            Self::TRUE => RwrOperand::Const(true),
            _ => {
                let idx = (lit >> 1) as usize;
                let compl = lit & 1 == 1;
                if idx < RWR_VARS {
                    RwrOperand::Leaf(idx, compl)
                } else {
                    RwrOperand::Step(idx - RWR_VARS, compl)
                }
            }
        }
    }

    /// Evaluates the structure over four leaf words (the check used by
    /// the test-suite; leaves beyond the function's support are
    /// ignored).
    pub fn eval16(&self, leaves: [u16; 4]) -> u16 {
        Self::eval_steps(&self.steps, self.out, leaves)
    }

    /// [`eval16`](Self::eval16) for AND steps and an output literal
    /// that are not (yet) a structure; the `rwrgen` generator checks
    /// every class with it. Operands of step `i` must reference only
    /// leaves, constants and steps `< i` (it panics otherwise).
    pub fn eval_steps(steps: &[(RwrLit, RwrLit)], out: RwrLit, leaves: [u16; 4]) -> u16 {
        let lit_val = |vals: &[u16], l: RwrLit| -> u16 {
            match Self::decode(l) {
                RwrOperand::Const(b) => {
                    if b {
                        !0
                    } else {
                        0
                    }
                }
                RwrOperand::Leaf(i, c) => leaves[i] ^ if c { !0 } else { 0 },
                RwrOperand::Step(i, c) => vals[i] ^ if c { !0 } else { 0 },
            }
        };
        let mut vals: Vec<u16> = Vec::with_capacity(steps.len());
        for &(a, b) in steps {
            let v = lit_val(&vals, a) & lit_val(&vals, b);
            vals.push(v);
        }
        lit_val(&vals, out)
    }
}

/// A library hit: the class structure plus the transform mapping the
/// queried function onto the class representative
/// (`transform.apply(query) == canonical`). To realize the query,
/// structure input position `transform.perm(i)` must be driven by leaf
/// `i` of the query, complemented iff `transform.input_flipped(i)`,
/// and the output complemented iff `transform.output_flipped()`.
#[derive(Debug, Clone)]
pub struct RwrMatch<'a> {
    /// The class structure.
    pub structure: &'a RwrStructure,
    /// Transform from the queried function to the canonical form.
    pub transform: NpnTransform,
}

/// One row of the committed class table: the class's canonical truth
/// table, its output literal and its AND steps.
pub(crate) struct RwrEntry {
    pub(crate) key: u16,
    pub(crate) out: RwrLit,
    pub(crate) steps: &'static [(RwrLit, RwrLit)],
}

/// The precomputed per-NPN-class structure library (see module docs).
#[derive(Debug)]
pub struct RwrLibrary {
    entries: HashMap<u16, RwrStructure>,
}

impl RwrLibrary {
    /// The process-wide library, decoded on first use from the
    /// committed table the `rwrgen` binary generates; the search
    /// behind the table runs only in the generator.
    pub fn global() -> &'static RwrLibrary {
        static LIB: OnceLock<RwrLibrary> = OnceLock::new();
        LIB.get_or_init(|| RwrLibrary {
            entries: TABLE
                .iter()
                .map(|e| (e.key, RwrStructure { steps: e.steps.to_vec(), out: e.out }))
                .collect(),
        })
    }

    /// Number of NPN classes stored (222 for 4 variables).
    pub fn num_classes(&self) -> usize {
        self.entries.len()
    }

    /// Number of classes whose structure came from the generator's
    /// exact enumeration (the rest use decomposition fallbacks).
    pub fn num_exact(&self) -> usize {
        NUM_EXACT
    }

    /// Looks up the structure for a function given as a replicated
    /// truth-table word over at most 4 variables (the form cut
    /// enumeration produces) — see [`RwrMatch`] for how to apply it.
    pub fn lookup_word(&self, word: u64) -> RwrMatch<'_> {
        let tt = TruthTable::from_bits(RWR_VARS, word);
        let canon = crate::npn::npn_canonical_cached(&tt);
        let key = (canon.table.bits() & 0xFFFF) as u16;
        let structure = self
            .entries
            .get(&key)
            .expect("rewrite library covers every 4-variable NPN class");
        RwrMatch { structure, transform: canon.transform }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VAR16: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

    #[test]
    fn library_covers_all_222_classes() {
        let lib = RwrLibrary::global();
        assert_eq!(lib.num_classes(), 222);
        // The exact enumeration should cover the overwhelming majority.
        assert!(lib.num_exact() >= 200, "only {} exact classes", lib.num_exact());
    }

    #[test]
    fn every_entry_computes_its_class_function() {
        let lib = RwrLibrary::global();
        for (&key, s) in &lib.entries {
            assert_eq!(s.eval16(VAR16), key, "class {key:#06x}");
        }
    }

    #[test]
    fn every_structure_fits_max_steps() {
        for e in TABLE {
            assert!(e.steps.len() <= RwrStructure::MAX_STEPS, "class {:#06x}", e.key);
        }
    }

    #[test]
    fn lookup_transform_realizes_the_query() {
        // For every 4-input function: wiring the structure per the
        // returned transform must reproduce the function exactly. Every
        // lookup finds an entry, and there are 222 of them, so the keys
        // are exactly the NPN class representatives.
        let lib = RwrLibrary::global();
        for f in 0..=u16::MAX {
            let m = lib.lookup_word(TruthTable::from_bits(4, f as u64).bits());
            // Structure input position perm(i) carries the query's
            // variable i, complemented per the transform.
            let t = &m.transform;
            let mut leaves = [0u16; 4];
            for i in 0..4 {
                leaves[t.perm(i)] = VAR16[i] ^ if t.input_flipped(i) { !0 } else { 0 };
            }
            let mut got = m.structure.eval16(leaves);
            if t.output_flipped() {
                got = !got;
            }
            assert_eq!(got, f, "function {f:#06x}");
        }
    }

    #[test]
    fn rwr_table_is_pinned() {
        // The structures decide what rewriting commits, so the whole
        // table is pinned: each entry's key, output literal and steps,
        // in key order. The digest was computed with the runtime search
        // the generator replaced; it changes only together with the
        // synthesis results.
        fn mix(h: u64, x: u64) -> u64 {
            let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let lib = RwrLibrary::global();
        let mut keys: Vec<u16> = lib.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut h = 0u64;
        for key in keys {
            let s = &lib.entries[&key];
            h = mix(h, u64::from(key) << 16 | u64::from(s.out) << 8 | s.steps.len() as u64);
            for &(a, b) in &s.steps {
                h = mix(h, u64::from(a) << 8 | u64::from(b));
            }
        }
        assert_eq!(h, 0xcc29_013e_1825_6f32, "a rewrite structure changed");
        assert_eq!(lib.num_exact(), 208);
    }

    #[test]
    fn cheap_classes_get_optimal_structures() {
        let lib = RwrLibrary::global();
        // AND2 class: a single node.
        let and2 = TruthTable::from_bits(4, 0x8888);
        assert_eq!(lib.lookup_word(and2.bits()).structure.num_ands(), 1);
        // XOR2 class: three nodes.
        let xor2 = TruthTable::from_bits(4, 0x6666);
        assert_eq!(lib.lookup_word(xor2.bits()).structure.num_ands(), 3);
        // MUX class: three nodes.
        let mux = TruthTable::from_fn(4, |m| {
            if m & 1 != 0 {
                m & 2 != 0
            } else {
                m & 4 != 0
            }
        });
        assert_eq!(lib.lookup_word(mux.bits()).structure.num_ands(), 3);
        // Constant class: no nodes.
        assert_eq!(lib.lookup_word(0).structure.num_ands(), 0);
    }
}
