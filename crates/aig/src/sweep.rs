//! SAT sweeping (fraig-style) combinational equivalence checking.
//!
//! Plain miter-SAT struggles on arithmetic circuits (the classic
//! multiplier-miter problem). Sweeping exploits the structural
//! similarity of the two networks: candidate-equivalent internal node
//! pairs are detected by random simulation over a flat
//! structure-of-arrays signature matrix, proven one by one with
//! conflict-budgeted assumption solves in topological order, and every
//! proven equality is added back to the incremental solver as clauses
//! — so later proofs ride on earlier ones, and the final output miters
//! become trivial. Narrow-input circuits (≤ 16 PIs) skip SAT entirely:
//! exhaustive simulation is a complete check there.

use crate::cec::{exhaustive_cec, sat_lit, tseitin, CecReport, CecResult};
use crate::graph::{Aig, Lit, NodeId};
use crate::sim::{exhaustive_feasible, SimMatrix, EXHAUSTIVE_MAX_PIS};
use cntfet_sat::{Lit as SatLit, SolveResult, Solver, SolverStats, Var};
use std::collections::HashMap;

/// Tuning knobs of [`check_equivalence_sweeping_with`]. The defaults
/// reproduce the library's standard behavior; tests and benches can
/// stress specific paths (e.g. `node_budget: 0` disables internal
/// sweeping entirely, forcing the pure output-miter fallback).
///
/// Every tier runs on the calling thread, so the report — solver
/// counters included — is a function of the two graphs and these
/// options alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepOptions {
    /// Conflict budget per internal equivalence proof; `0` skips the
    /// internal sweep and solves only the output miters.
    pub node_budget: u64,
    /// Initial simulation words (64 patterns each) for candidate
    /// detection.
    pub sim_words: usize,
    /// Seed of the candidate-detection pattern generator.
    pub seed: u64,
    /// PI counts up to this bound are decided by exhaustive simulation
    /// without SAT; `0` disables the shortcut.
    pub exhaustive_pis: u32,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            node_budget: 2_000,
            sim_words: 4,
            seed: 0x1357_9BDF_2468_ACE0,
            exhaustive_pis: EXHAUSTIVE_MAX_PIS,
        }
    }
}

/// Checks equivalence of two AIGs with identical interfaces using SAT
/// sweeping under default [`SweepOptions`], as
/// [`crate::check_equivalence`] does; scales to multiplier-class
/// circuits.
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping(a: &Aig, b: &Aig) -> CecResult {
    check_equivalence_sweeping_with(a, b, &SweepOptions::default())
}

/// [`check_equivalence_sweeping`] with explicit options.
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping_with(a: &Aig, b: &Aig, opts: &SweepOptions) -> CecResult {
    check_equivalence_sweeping_report(a, b, opts).result
}

/// [`check_equivalence_sweeping`] returning the full [`CecReport`]
/// (solver statistics, internal proof and refinement counts).
///
/// # Panics
///
/// Panics if the PI/PO counts differ.
pub fn check_equivalence_sweeping_report(a: &Aig, b: &Aig, opts: &SweepOptions) -> CecReport {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");
    // Narrow interface: complete simulation decides without SAT (as
    // long as the matrices fit the memory budget).
    if opts.exhaustive_pis > 0
        && exhaustive_feasible(a, opts.exhaustive_pis)
        && exhaustive_feasible(b, opts.exhaustive_pis)
    {
        return CecReport {
            result: exhaustive_cec(a, b),
            sat_stats: SolverStats::default(),
            internal_proofs: 0,
            refinements: 0,
            exhaustive: true,
            certified: false,
        };
    }

    // ---- joint network (shared PIs, shared structure via strash) ----
    let mut joint = Aig::new("joint");
    let pis = joint.add_pis(a.num_pis());
    let pos_a = append(a, &mut joint, &pis);
    let pos_b = append(b, &mut joint, &pis);
    let n = joint.num_nodes();

    // ---- SAT instance over the joint network ----
    let mut solver = Solver::new();
    let vars = tseitin(&joint, &mut solver);

    // Union-find with complement phases: node -> (repr, phase).
    let mut repr: Vec<(u32, bool)> = (0..n as u32).map(|i| (i, false)).collect();

    let (internal_proofs, refinements) = if opts.node_budget > 0 {
        sweep(&joint, &mut solver, &vars, &mut repr, opts)
    } else {
        (0, 0)
    };

    // ---- output miters (trivial when sweeping did its job) ----
    let mut result = CecResult::Equivalent;
    'outputs: for (o, (&la, &lb)) in pos_a.iter().zip(pos_b.iter()).enumerate() {
        if la == lb {
            continue; // strash merged them (includes equal constants)
        }
        if la.is_const() && lb.is_const() {
            // Differing constants: every assignment distinguishes.
            result = CecResult::Counterexample {
                inputs: vec![false; a.num_pis()],
                output: o,
            };
            break;
        }
        // Same proven equivalence class with matching phase?
        let (root_a, ph_a) = find(&mut repr, la.node().index() as u32);
        let (root_b, ph_b) = find(&mut repr, lb.node().index() as u32);
        if root_a == root_b && ph_a ^ la.is_complement() == ph_b ^ lb.is_complement() {
            continue;
        }
        let sa = sat_lit(&vars, la);
        let sb = sat_lit(&vars, lb);
        for assumptions in [[sa, sb.negate()], [sa.negate(), sb]] {
            if solver.solve(&assumptions) == SolveResult::Sat {
                let inputs: Vec<bool> = joint
                    .pis()
                    .iter()
                    .map(|pi| solver.value(vars[pi.index()]).unwrap_or(false))
                    .collect();
                result = CecResult::Counterexample { inputs, output: o };
                break 'outputs;
            }
        }
    }
    CecReport {
        result,
        sat_stats: solver.stats(),
        internal_proofs,
        refinements,
        exhaustive: false,
        certified: false,
    }
}

/// The internal sweep: candidate pairs proven in topological order on
/// the one incremental solver, with bucket rebuilds after every
/// refinement. Returns `(internal proofs, refinements)`.
fn sweep(
    joint: &Aig,
    solver: &mut Solver,
    vars: &[Var],
    repr: &mut Vec<(u32, bool)>,
    opts: &SweepOptions,
) -> (u64, u64) {
    let ids: Vec<NodeId> = joint.and_ids().collect();
    let mut internal_proofs = 0u64;
    let mut refinements = 0u64;
    // Flat simulation signatures (only needed for candidate
    // detection, so the pure-miter fallback skips the pass).
    let mut sim = SimMatrix::random(joint, opts.sim_words, opts.seed);
    // Bucket map: complement-normalized signature -> representative.
    let mut buckets: HashMap<Vec<u64>, u32> = HashMap::new();
    buckets.insert(vec![0u64; sim.words()], 0);
    let mut i = 0usize;
    while i < ids.len() {
        let id = ids[i];
        let (sig_n, phase_n) = norm(sim.sig(id.index()));
        match buckets.get(&sig_n) {
            None => {
                buckets.insert(sig_n, id.index() as u32);
                i += 1;
            }
            Some(&r) => {
                // Candidate: id == r ^ (phase_n ^ phase_r).
                let (_, phase_r) = norm(sim.sig(r as usize));
                let want_phase = phase_n ^ phase_r;
                // Already known?
                let (root_n, ph_n) = find(repr, id.index() as u32);
                let (root_r, ph_r) = find(repr, r);
                if root_n == root_r {
                    i += 1;
                    continue;
                }
                // Prove ln ≡ lr by refuting both disagreement
                // phases under assumptions — no miter variables or
                // clauses enter the incremental solver.
                let ln = vars[id.index()].pos();
                let lr = vars[r as usize].lit(!want_phase);
                match prove_equal(solver, ln, lr, opts.node_budget) {
                    Proof::Equal => {
                        // Proven: record and teach the solver.
                        internal_proofs += 1;
                        repr[root_n as usize] = (root_r, ph_n ^ ph_r ^ want_phase);
                        solver.add_clause(&[ln.negate(), lr]);
                        solver.add_clause(&[ln, lr.negate()]);
                        i += 1;
                    }
                    Proof::Differ => {
                        // Counterexample: refine every signature
                        // with a fresh word seeded by it, rebuild
                        // the buckets, and retry this node.
                        refinements += 1;
                        let cex: Vec<bool> = joint
                            .pis()
                            .iter()
                            .map(|pi| solver.value(vars[pi.index()]).unwrap_or(false))
                            .collect();
                        sim.refine(joint, &cex);
                        buckets.clear();
                        buckets.insert(vec![0u64; sim.words()], 0);
                        for &prev in ids.iter().take(i) {
                            let (s, _) = norm(sim.sig(prev.index()));
                            buckets.entry(s).or_insert(prev.index() as u32);
                        }
                    }
                    Proof::Unknown => {
                        // Budget exhausted: treat as distinct.
                        i += 1;
                    }
                }
            }
        }
    }
    (internal_proofs, refinements)
}

enum Proof {
    Equal,
    Differ,
    Unknown,
}

/// Budgeted equivalence proof of two SAT literals: `la ≡ lb` iff both
/// disagreement phases are unsatisfiable. On `Differ` the solver holds
/// the distinguishing model.
fn prove_equal(solver: &mut Solver, la: SatLit, lb: SatLit, budget: u64) -> Proof {
    for assumptions in [[la, lb.negate()], [la.negate(), lb]] {
        match solver.solve_limited(&assumptions, budget) {
            Some(SolveResult::Unsat) => {}
            Some(SolveResult::Sat) => return Proof::Differ,
            None => return Proof::Unknown,
        }
    }
    Proof::Equal
}

/// Normalized signature: complement-canonical (flip all words if bit 0
/// of word 0 is set) so a node and its complement share a bucket.
fn norm(sig: &[u64]) -> (Vec<u64>, bool) {
    if sig[0] & 1 == 1 {
        (sig.iter().map(|w| !w).collect(), true)
    } else {
        (sig.to_vec(), false)
    }
}

/// Union-find lookup with path compression; returns the class root and
/// the phase of `x` relative to it.
fn find(repr: &mut Vec<(u32, bool)>, x: u32) -> (u32, bool) {
    let (p, ph) = repr[x as usize];
    if p == x {
        return (x, false);
    }
    let (root, root_ph) = find(repr, p);
    let total = ph ^ root_ph;
    repr[x as usize] = (root, total);
    (root, total)
}

/// Imports `src` into `dst` reusing the shared PIs; returns the PO
/// literals in `dst`.
fn append(src: &Aig, dst: &mut Aig, pis: &[Lit]) -> Vec<Lit> {
    let mut map: Vec<Lit> = vec![Lit::FALSE; src.num_nodes()];
    for (i, &pi) in src.pis().iter().enumerate() {
        map[pi.index()] = pis[i];
    }
    for id in src.and_ids() {
        let (f0, f1) = src.fanins(id);
        let a = map[f0.node().index()].negate_if(f0.is_complement());
        let b = map[f1.node().index()].negate_if(f1.is_complement());
        map[id.index()] = dst.and(a, b);
    }
    src.pos()
        .iter()
        .map(|po| map[po.node().index()].negate_if(po.is_complement()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_agrees_with_plain_cec_on_structures() {
        let mut a = Aig::new("a");
        let p = a.add_pis(6);
        let x = a.xor_many(&p);
        a.add_po(x);
        let mut b = Aig::new("b");
        let q = b.add_pis(6);
        let mut acc = q[0];
        for &l in &q[1..] {
            acc = b.xor(acc, l);
        }
        b.add_po(acc);
        assert_eq!(check_equivalence_sweeping(&a, &b), CecResult::Equivalent);

        // Break it.
        let po = b.pos()[0];
        b.set_po(0, po.negate());
        match check_equivalence_sweeping(&a, &b) {
            CecResult::Counterexample { inputs, output } => {
                assert_ne!(a.eval(&inputs)[output], b.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("inequivalent pair reported equivalent"),
        }
    }

    #[test]
    fn sweep_handles_small_multipliers() {
        // Two structurally different 6-bit multipliers; 12 PIs, so the
        // exhaustive path decides.
        let m1 = cntfet_circuits_multiplier_columns(6);
        let m2 = cntfet_circuits_multiplier_shift_add(6);
        let r = check_equivalence_sweeping_report(&m1, &m2, &SweepOptions::default());
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(r.exhaustive);
    }

    #[test]
    fn sweep_proper_runs_past_the_exhaustive_bound() {
        // Force the SAT-sweeping machinery even on a narrow circuit.
        let m1 = cntfet_circuits_multiplier_columns(5);
        let m2 = cntfet_circuits_multiplier_shift_add(5);
        let opts = SweepOptions { exhaustive_pis: 0, ..Default::default() };
        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent);
        assert!(!r.exhaustive);
        assert!(r.internal_proofs > 0, "internal equivalences must be proven");
        assert!(r.sat_stats.propagations > 0, "SAT must have run");

        // And an inequivalent pair through the same machinery.
        let mut broken = cntfet_circuits_multiplier_shift_add(5);
        let po = broken.pos()[3];
        broken.set_po(3, po.negate());
        match check_equivalence_sweeping_with(&m1, &broken, &opts) {
            CecResult::Counterexample { inputs, output } => {
                assert_ne!(m1.eval(&inputs)[output], broken.eval(&inputs)[output]);
            }
            CecResult::Equivalent => panic!("broken multiplier reported equivalent"),
        }
    }

    #[test]
    fn zero_node_budget_forces_pure_miter_fallback() {
        let m1 = cntfet_circuits_multiplier_columns(4);
        let m2 = cntfet_circuits_multiplier_shift_add(4);
        let opts = SweepOptions { node_budget: 0, exhaustive_pis: 0, ..Default::default() };
        let r = check_equivalence_sweeping_report(&m1, &m2, &opts);
        assert_eq!(r.result, CecResult::Equivalent);
        assert_eq!(r.internal_proofs, 0, "budget 0 must skip internal sweeping");
        assert_eq!(r.refinements, 0);
        assert!(!r.exhaustive);
    }

    fn cntfet_circuits_multiplier_columns(n: usize) -> Aig {
        // Use the same column algorithm as cntfet-circuits (inlined to
        // avoid a dev-dependency cycle).
        use std::collections::VecDeque;
        let mut g = Aig::new("m1");
        let a = g.add_pis(n);
        let b = g.add_pis(n);
        let mut cols: Vec<VecDeque<Lit>> = vec![VecDeque::new(); 2 * n];
        for i in 0..n {
            for j in 0..n {
                let pp = g.and(a[i], b[j]);
                cols[i + j].push_back(pp);
            }
        }
        let mut out = Vec::new();
        for c in 0..(2 * n) {
            while cols[c].len() > 1 {
                let x = cols[c].pop_front().unwrap();
                let y = cols[c].pop_front().unwrap();
                let z = cols[c].pop_front().unwrap_or(Lit::FALSE);
                let xy = g.xor(x, y);
                let s = g.xor(xy, z);
                let c1 = g.and(x, y);
                let c2 = g.and(xy, z);
                let carry = g.or(c1, c2);
                cols[c].push_back(s);
                if c + 1 < 2 * n {
                    cols[c + 1].push_back(carry);
                }
            }
            out.push(cols[c].front().copied().unwrap_or(Lit::FALSE));
        }
        for o in out {
            g.add_po(o);
        }
        g
    }

    fn cntfet_circuits_multiplier_shift_add(n: usize) -> Aig {
        let mut g = Aig::new("m2");
        let a = g.add_pis(n);
        let b = g.add_pis(n);
        // acc += (a & b[j]) << j, ripple adder per row.
        let mut acc: Vec<Lit> = vec![Lit::FALSE; 2 * n];
        for (j, &bj) in b.iter().enumerate() {
            let row: Vec<Lit> = a.iter().map(|&ai| g.and(ai, bj)).collect();
            let mut carry = Lit::FALSE;
            for i in 0..=n {
                let idx = i + j;
                let addend = row.get(i).copied().unwrap_or(Lit::FALSE);
                let x = g.xor(acc[idx], addend);
                let s = g.xor(x, carry);
                let c1 = g.and(acc[idx], addend);
                let c2 = g.and(x, carry);
                carry = g.or(c1, c2);
                acc[idx] = s;
            }
        }
        for o in acc {
            g.add_po(o);
        }
        g
    }
}
