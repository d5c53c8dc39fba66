//! CNF export (Tseitin encoding) and SAT-based combinational
//! equivalence checking.
//!
//! Circuits with at most [`crate::sim::EXHAUSTIVE_MAX_PIS`] primary
//! inputs are decided by exhaustive 64-bit-parallel simulation (a
//! complete check — `2^n` patterns is at most 1024 words per node),
//! which is orders of magnitude faster than CDCL on the classic
//! multiplier-miter shapes. Wider circuits go through a random
//! simulation pre-filter and then a per-output SAT miter.

use crate::graph::{Aig, Lit, NodeId};
use crate::sim::{exhaustive_feasible, SimMatrix, EXHAUSTIVE_MAX_PIS};
use cntfet_sat::{Lit as SatLit, SolveResult, Solver, SolverStats, Var};

/// Encodes the AIG into `solver`, returning the SAT variable of every
/// node (indexable by `NodeId::index`).
///
/// The constant node is encoded as a variable constrained to false.
pub fn tseitin(aig: &Aig, solver: &mut Solver) -> Vec<Var> {
    let vars: Vec<Var> = (0..aig.num_nodes()).map(|_| solver.new_var()).collect();
    solver.add_clause(&[vars[NodeId::CONST.index()].neg()]);
    for id in aig.and_ids() {
        let (a, b) = aig.fanins(id);
        let c = vars[id.index()].pos();
        let la = sat_lit(&vars, a);
        let lb = sat_lit(&vars, b);
        // c ↔ a ∧ b
        solver.add_clause(&[c.negate(), la]);
        solver.add_clause(&[c.negate(), lb]);
        solver.add_clause(&[c, la.negate(), lb.negate()]);
    }
    vars
}

/// Maps an AIG literal to the corresponding SAT literal.
pub fn sat_lit(vars: &[Var], l: Lit) -> SatLit {
    vars[l.node().index()].lit(!l.is_complement())
}

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// The two networks implement identical functions.
    Equivalent,
    /// A distinguishing input assignment (per PI) and the index of the
    /// first differing output.
    Counterexample {
        /// Input assignment exposing the difference.
        inputs: Vec<bool>,
        /// Index of an output where the networks disagree.
        output: usize,
    },
}

/// Verdict plus the work the verification engine did to reach it —
/// surfaced so repro runs and benches can watch verification cost.
#[derive(Debug, Clone)]
pub struct CecReport {
    /// The equivalence verdict.
    pub result: CecResult,
    /// Aggregated statistics of every SAT solver run by the check
    /// (all-zero when simulation alone decided).
    pub sat_stats: SolverStats,
    /// Internal node-pair equivalences proven during sweeping.
    pub internal_proofs: u64,
    /// Counterexample-directed simulation refinements during sweeping.
    pub refinements: u64,
    /// True when exhaustive simulation decided the check without SAT.
    pub exhaustive: bool,
    /// True when a structural certificate decided the check without
    /// simulation or SAT (see `cntfet_techmap::verify_mapping_report`,
    /// which proves a mapping gate by gate over its cut truth tables).
    /// Every check in this crate leaves it false.
    pub certified: bool,
}

impl CecReport {
    fn simulation_only(result: CecResult) -> CecReport {
        CecReport {
            result,
            sat_stats: SolverStats::default(),
            internal_proofs: 0,
            refinements: 0,
            exhaustive: true,
            certified: false,
        }
    }
}

/// Decides equivalence of two narrow-input networks by complete
/// simulation. Returns the first differing output (scanning in output
/// order) with a distinguishing assignment.
pub(crate) fn exhaustive_cec(a: &Aig, b: &Aig) -> CecResult {
    let ma = SimMatrix::exhaustive(a);
    let mb = SimMatrix::exhaustive(b);
    for (o, (&la, &lb)) in a.pos().iter().zip(b.pos().iter()).enumerate() {
        for w in 0..ma.words() {
            let d = ma.lit_word(la, w) ^ mb.lit_word(lb, w);
            if d != 0 {
                let bit = d.trailing_zeros();
                return CecResult::Counterexample {
                    inputs: ma.pattern_inputs(a, w, bit),
                    output: o,
                };
            }
        }
    }
    CecResult::Equivalent
}

/// Checks combinational equivalence of two AIGs with identical
/// interfaces: exhaustive simulation for narrow-input circuits, else
/// random simulation as a fast pre-filter and a SAT miter for the
/// proof.
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence(a: &Aig, b: &Aig) -> CecResult {
    check_equivalence_report(a, b).result
}

/// [`check_equivalence`] returning the full [`CecReport`].
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_report(a: &Aig, b: &Aig) -> CecReport {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");

    if exhaustive_feasible(a, EXHAUSTIVE_MAX_PIS) && exhaustive_feasible(b, EXHAUSTIVE_MAX_PIS) {
        return CecReport::simulation_only(exhaustive_cec(a, b));
    }

    // Random-simulation pre-filter: cheap counterexamples first. Both
    // matrices draw the same seeded rounds, so the networks see
    // identical input patterns.
    const PREFILTER_WORDS: usize = 8;
    let seed = 0x1234_5678_9ABC_DEF0u64;
    let ma = SimMatrix::random(a, PREFILTER_WORDS, seed);
    let mb = SimMatrix::random(b, PREFILTER_WORDS, seed);
    for (o, (&la, &lb)) in a.pos().iter().zip(b.pos().iter()).enumerate() {
        for w in 0..ma.words() {
            let d = ma.lit_word(la, w) ^ mb.lit_word(lb, w);
            if d != 0 {
                let bit = d.trailing_zeros();
                return CecReport {
                    result: CecResult::Counterexample {
                        inputs: ma.pattern_inputs(a, w, bit),
                        output: o,
                    },
                    sat_stats: SolverStats::default(),
                    internal_proofs: 0,
                    refinements: 0,
                    exhaustive: false,
                    certified: false,
                };
            }
        }
    }

    // SAT miter, one output at a time (keeps learnt clauses local and
    // yields the earliest distinguishing output index). The output
    // XOR is expressed as assumptions — `la ≠ lb` is satisfiable iff
    // one of the two phase combinations is — so no miter variables or
    // clauses accumulate in the incremental solver.
    let mut solver = Solver::new();
    let va = tseitin(a, &mut solver);
    let vb = tseitin(b, &mut solver);
    // Tie the primary inputs together.
    for (pa, pb) in a.pis().iter().zip(b.pis()) {
        let la = va[pa.index()].pos();
        let lb = vb[pb.index()].pos();
        solver.add_clause(&[la.negate(), lb]);
        solver.add_clause(&[la, lb.negate()]);
    }
    let mut result = CecResult::Equivalent;
    'outputs: for o in 0..a.num_pos() {
        let la = sat_lit(&va, a.pos()[o]);
        let lb = sat_lit(&vb, b.pos()[o]);
        for assumptions in [[la, lb.negate()], [la.negate(), lb]] {
            if solver.solve(&assumptions) == SolveResult::Sat {
                let inputs = a
                    .pis()
                    .iter()
                    .map(|pi| solver.value(va[pi.index()]).unwrap_or(false))
                    .collect();
                result = CecResult::Counterexample { inputs, output: o };
                break 'outputs;
            }
        }
    }
    CecReport {
        result,
        sat_stats: solver.stats(),
        internal_proofs: 0,
        refinements: 0,
        exhaustive: false,
        certified: false,
    }
}

/// Convenience wrapper returning `true` iff equivalent.
pub fn equivalent(a: &Aig, b: &Aig) -> bool {
    check_equivalence(a, b) == CecResult::Equivalent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(n: usize, balanced: bool) -> Aig {
        let mut g = Aig::new("x");
        let pis = g.add_pis(n);
        let out = if balanced {
            g.xor_many(&pis)
        } else {
            let mut acc = pis[0];
            for &p in &pis[1..] {
                acc = g.xor(acc, p);
            }
            acc
        };
        g.add_po(out);
        g
    }

    #[test]
    fn equivalent_structures() {
        let a = xor_chain(7, true);
        let b = xor_chain(7, false);
        assert_eq!(check_equivalence(&a, &b), CecResult::Equivalent);
    }

    #[test]
    fn wide_circuits_take_the_sat_path() {
        let a = xor_chain(20, true);
        let b = xor_chain(20, false);
        let r = check_equivalence_report(&a, &b);
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(!r.exhaustive);
        assert!(r.sat_stats.propagations > 0, "miter must have run SAT");

        // Broken polarity on a wide circuit: the random pre-filter
        // finds it without SAT.
        let mut c = xor_chain(20, false);
        let po = c.pos()[0];
        c.set_po(0, po.negate());
        let r = check_equivalence_report(&a, &c);
        match r.result {
            CecResult::Counterexample { inputs, output } => {
                assert_ne!(a.eval(&inputs)[output], c.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("must not be equivalent"),
        }
    }

    #[test]
    fn inequivalent_detected_with_counterexample() {
        let a = xor_chain(5, true);
        let mut b = xor_chain(5, false);
        // Break output polarity.
        let po = b.pos()[0];
        b.set_po(0, po.negate());
        match check_equivalence(&a, &b) {
            CecResult::Counterexample { inputs, output } => {
                assert_eq!(output, 0);
                assert_ne!(a.eval(&inputs)[0], b.eval(&inputs)[0]);
            }
            CecResult::Equivalent => panic!("must not be equivalent"),
        }
    }

    #[test]
    fn subtle_inequivalence_found() {
        // Two functions agreeing everywhere except one minterm.
        let mut a = Aig::new("a");
        let pis = a.add_pis(12);
        let conj = a.and_many(&pis);
        let o = a.or(conj, pis[0]);
        a.add_po(o);

        let mut b = Aig::new("b");
        let pis_b = b.add_pis(12);
        b.add_po(pis_b[0]);
        // a = AND(all) OR pi0 differs from pi0 exactly on the minterm
        // where all other inputs are 1 and pi0 = 0... actually AND(all)
        // requires pi0 too, so they are equivalent!
        assert_eq!(check_equivalence(&a, &b), CecResult::Equivalent);

        // Now make a real difference: OR of AND(pis[1..]) and pi0.
        let mut c = Aig::new("c");
        let pis_c = c.add_pis(12);
        let conj = c.and_many(&pis_c[1..]);
        let o = c.or(conj, pis_c[0]);
        c.add_po(o);
        match check_equivalence(&c, &b) {
            CecResult::Counterexample { inputs, output } => {
                assert_eq!(output, 0);
                assert_ne!(c.eval(&inputs)[0], b.eval(&inputs)[0]);
            }
            CecResult::Equivalent => panic!("c and b differ on one minterm"),
        }
    }

    #[test]
    fn single_minterm_difference_on_wide_circuit_found_by_sat() {
        // 20 inputs: past the exhaustive bound, and random simulation
        // essentially never hits the single differing minterm — only
        // the SAT miter can find it.
        let mut a = Aig::new("a");
        let pis = a.add_pis(20);
        let conj = a.and_many(&pis[1..]);
        let o = a.or(conj, pis[0]);
        a.add_po(o);

        let mut b = Aig::new("b");
        let pis_b = b.add_pis(20);
        b.add_po(pis_b[0]);

        let r = check_equivalence_report(&a, &b);
        assert!(!r.exhaustive);
        match r.result {
            CecResult::Counterexample { inputs, output } => {
                assert_eq!(output, 0);
                assert_ne!(a.eval(&inputs)[0], b.eval(&inputs)[0]);
            }
            CecResult::Equivalent => panic!("a and b differ on one minterm"),
        }
    }

    #[test]
    fn multi_output_mismatch_reports_index() {
        let mut a = Aig::new("a");
        let p = a.add_pis(2);
        let x = a.and(p[0], p[1]);
        let y = a.or(p[0], p[1]);
        a.add_po(x);
        a.add_po(y);

        let mut b = Aig::new("b");
        let q = b.add_pis(2);
        let x = b.and(q[0], q[1]);
        let y = b.xor(q[0], q[1]); // differs
        b.add_po(x);
        b.add_po(y);

        match check_equivalence(&a, &b) {
            CecResult::Counterexample { output, .. } => assert_eq!(output, 1),
            CecResult::Equivalent => panic!("outputs differ"),
        }
    }
}
