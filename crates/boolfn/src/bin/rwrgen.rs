//! `rwrgen`: generates the rewrite library's table, one AIG structure
//! per NPN class of ≤ 4-input functions, and prints it as the Rust
//! source of `crates/boolfn/src/rwr_table.rs`:
//!
//! ```text
//! cargo run --release -p cntfet-boolfn --bin rwrgen > crates/boolfn/src/rwr_table.rs
//! ```
//!
//! Each class gets its structure in two steps:
//!
//! 1. a breadth-first exact enumeration over all 65 536 four-variable
//!    functions finds minimal AND-tree implementations up to a node
//!    budget (this covers every cheap class — the ones rewriting gains
//!    on);
//! 2. the few classes beyond the budget fall back to the better of a
//!    Shannon/XOR-aware decomposition and the two factored-SOP phases.
//!
//! Every structure is checked to compute its class function, and to fit
//! in [`RwrStructure::MAX_STEPS`] steps, before the table is printed,
//! sorted by key. CI reruns this binary and fails when its output
//! differs from the committed table.

use cntfet_boolfn::rwr::{RwrLit, RWR_VARS};
use cntfet_boolfn::{factor, isop, npn_canonical, Expr, NpnTransform, RwrStructure, TruthTable};
use std::collections::{BTreeMap, HashMap};

fn main() {
    let enumeration = enumerate_exact();
    let mut entries: BTreeMap<u16, Structure> = BTreeMap::new();
    let mut exact = 0usize;
    let mut visited = vec![false; 1 << 16];
    let transforms = all_transforms();
    for t in 0..(1u32 << 16) {
        if visited[t as usize] {
            continue;
        }
        let tt = TruthTable::from_bits(RWR_VARS, t as u64);
        // Mark the whole NPN orbit so each class is processed once.
        for tr in &transforms {
            let img = (tr.apply(&tt).bits() & 0xFFFF) as u16;
            visited[img as usize] = true;
        }
        let canon = npn_canonical(&tt);
        let key = (canon.table.bits() & 0xFFFF) as u16;
        let (structure, was_exact) = synth_class(key, &enumeration);
        let value = RwrStructure::eval_steps(&structure.steps, structure.out, VAR16);
        assert_eq!(value, key, "class {key:#06x} structure is wrong");
        assert!(
            structure.steps.len() <= RwrStructure::MAX_STEPS,
            "class {key:#06x} needs {} steps, over RwrStructure::MAX_STEPS",
            structure.steps.len()
        );
        exact += usize::from(was_exact);
        entries.insert(key, structure);
    }
    print_table(&entries, exact);
}

/// Prints the table module: entries in key order, one per line.
fn print_table(entries: &BTreeMap<u16, Structure>, exact: usize) {
    println!("//! The rewrite library's class structures (see [`crate::rwr`]).");
    println!("//!");
    println!("//! Generated by `rwrgen` (`crates/boolfn/src/bin/rwrgen.rs`); do not");
    println!("//! edit. Regenerate with");
    println!("//!");
    println!("//! ```text");
    println!("//! cargo run --release -p cntfet-boolfn --bin rwrgen > crates/boolfn/src/rwr_table.rs");
    println!("//! ```");
    println!();
    println!("use crate::rwr::RwrEntry;");
    println!();
    println!("/// Number of classes whose structure came from the exact enumeration.");
    println!("pub(crate) const NUM_EXACT: usize = {exact};");
    println!();
    println!("/// One entry per NPN class of ≤ 4-input functions, sorted by key.");
    println!("#[rustfmt::skip]");
    println!("pub(crate) const TABLE: &[RwrEntry] = &[");
    for (key, s) in entries {
        let steps: Vec<String> = s.steps.iter().map(|(a, b)| format!("({a}, {b})")).collect();
        println!("    RwrEntry {{ key: {key:#06x}, out: {}, steps: &[{}] }},", s.out, steps.join(", "));
    }
    println!("];");
}

/// A class structure under construction: AND steps over four leaves
/// plus the output literal, in the library's literal encoding.
struct Structure {
    steps: Vec<(RwrLit, RwrLit)>,
    out: RwrLit,
}

impl Structure {
    fn num_ands(&self) -> usize {
        self.steps.len()
    }
}

/// All 768 NPN transforms on 4 variables (24 permutations × 16 input
/// polarities × 2 output polarities).
fn all_transforms() -> Vec<NpnTransform> {
    let mut perms: Vec<[usize; 4]> = Vec::with_capacity(24);
    let mut p = [0usize, 1, 2, 3];
    loop {
        perms.push(p);
        // next_permutation
        let mut i = 3;
        while i > 0 && p[i - 1] >= p[i] {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        let mut j = 3;
        while p[j] <= p[i - 1] {
            j -= 1;
        }
        p.swap(i - 1, j);
        p[i..].reverse();
    }
    let mut out = Vec::with_capacity(perms.len() * 32);
    for perm in &perms {
        for flips in 0u8..16 {
            for of in [false, true] {
                out.push(NpnTransform::new(RWR_VARS, perm, flips, of));
            }
        }
    }
    out
}

const UNREACHED: u8 = u8::MAX;

/// How a function was first reached during the exact enumeration.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// A projection (or complemented projection) of one variable.
    Leaf { var: u8, neg: bool },
    /// An AND of two previously reached functions, possibly with the
    /// output complemented.
    Node { a: u16, b: u16, neg: bool },
}

struct Enumeration {
    cost: Vec<u8>,
    recs: Vec<Option<Rec>>,
}

/// Breadth-first exact enumeration: finds, for every 4-variable
/// function reachable within `CAP` AND-tree nodes, a minimal tree.
/// The function set is closed under complement (an AIG edge
/// complements for free), so plain pairwise ANDs cover all input
/// polarities.
fn enumerate_exact() -> Enumeration {
    const CAP: usize = 12;
    let n = 1usize << 16;
    let mut cost = vec![UNREACHED; n];
    let mut recs: Vec<Option<Rec>> = vec![None; n];
    let mut by_cost: Vec<Vec<u16>> = vec![Vec::new(); CAP + 1];
    for (v, &w) in VAR16.iter().enumerate() {
        for (t, neg) in [(w, false), (!w, true)] {
            cost[t as usize] = 0;
            recs[t as usize] = Some(Rec::Leaf { var: v as u8, neg });
            by_cost[0].push(t);
        }
    }
    for c in 1..=CAP {
        for ca in 0..c {
            let cb = c - 1 - ca;
            if cb < ca {
                break;
            }
            for ia in 0..by_cost[ca].len() {
                let fa = by_cost[ca][ia];
                for ib in 0..by_cost[cb].len() {
                    let fb = by_cost[cb][ib];
                    let t = fa & fb;
                    if t == 0 || t == u16::MAX || cost[t as usize] != UNREACHED {
                        continue;
                    }
                    cost[t as usize] = c as u8;
                    recs[t as usize] = Some(Rec::Node { a: fa, b: fb, neg: false });
                    by_cost[c].push(t);
                    let nt = !t;
                    if cost[nt as usize] == UNREACHED {
                        cost[nt as usize] = c as u8;
                        recs[nt as usize] = Some(Rec::Node { a: fa, b: fb, neg: true });
                        by_cost[c].push(nt);
                    }
                }
            }
        }
    }
    Enumeration { cost, recs }
}

/// Structural-hashing mini-builder the structures are compiled with:
/// steps dedupe by operand pair and the trivial AND rules apply, so
/// no structure carries constant or duplicated steps.
struct MiniAig {
    steps: Vec<(RwrLit, RwrLit)>,
    strash: HashMap<(RwrLit, RwrLit), RwrLit>,
}

impl MiniAig {
    fn new() -> MiniAig {
        MiniAig { steps: Vec::new(), strash: HashMap::new() }
    }

    fn and(&mut self, a: RwrLit, b: RwrLit) -> RwrLit {
        const F: RwrLit = RwrStructure::FALSE;
        const T: RwrLit = RwrStructure::TRUE;
        if a == F || b == F {
            return F;
        }
        if a == T {
            return b;
        }
        if b == T || a == b {
            return a;
        }
        if a ^ b == 1 {
            return F;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&l) = self.strash.get(&key) {
            return l;
        }
        let lit = ((RWR_VARS + self.steps.len()) as u8) << 1;
        self.steps.push(key);
        self.strash.insert(key, lit);
        lit
    }

    fn or(&mut self, a: RwrLit, b: RwrLit) -> RwrLit {
        self.and(a ^ 1, b ^ 1) ^ 1
    }

    fn xor(&mut self, a: RwrLit, b: RwrLit) -> RwrLit {
        let n0 = self.and(a, b ^ 1);
        let n1 = self.and(a ^ 1, b);
        self.or(n0, n1)
    }
}

/// Builds the structure of one canonical function.
fn synth_class(key: u16, e: &Enumeration) -> (Structure, bool) {
    if key == 0 {
        return (Structure { steps: Vec::new(), out: RwrStructure::FALSE }, true);
    }
    if e.cost[key as usize] != UNREACHED {
        let mut mini = MiniAig::new();
        let mut memo = HashMap::new();
        let out = build_rec(key, e, &mut mini, &mut memo);
        return (Structure { steps: mini.steps, out }, true);
    }
    // Beyond the enumeration budget: best of Shannon/XOR decomposition
    // and the two factored-SOP phases.
    let mut best: Option<Structure> = None;
    let mut consider = |s: Structure| {
        if best.as_ref().map(|b| s.num_ands() < b.num_ands()).unwrap_or(true) {
            best = Some(s);
        }
    };
    {
        let mut mini = MiniAig::new();
        let mut memo = HashMap::new();
        let out = decompose(key, e, &mut mini, &mut memo);
        consider(Structure { steps: mini.steps, out });
    }
    let tt = TruthTable::from_bits(RWR_VARS, key as u64);
    for (expr, out_neg) in [(factor(&isop(&tt)), false), (factor(&isop(&!tt)), true)] {
        let mut mini = MiniAig::new();
        let out = compile_expr(&expr, &mut mini);
        consider(Structure { steps: mini.steps, out: out ^ out_neg as u8 });
    }
    (best.expect("at least one fallback candidate"), false)
}

/// Replays the enumeration's recipe for `t` into `mini`, sharing
/// repeated sub-functions through `memo`.
fn build_rec(t: u16, e: &Enumeration, mini: &mut MiniAig, memo: &mut HashMap<u16, RwrLit>) -> RwrLit {
    if let Some(&l) = memo.get(&t) {
        return l;
    }
    let lit = match e.recs[t as usize].expect("function reached by enumeration") {
        Rec::Leaf { var, neg } => (var << 1) | neg as u8,
        Rec::Node { a, b, neg } => {
            let la = build_rec(a, e, mini, memo);
            let lb = build_rec(b, e, mini, memo);
            mini.and(la, lb) ^ neg as u8
        }
    };
    memo.insert(t, lit);
    memo.insert(!t, lit ^ 1);
    lit
}

const VAR16: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

fn cof0(t: u16, v: usize) -> u16 {
    let lo = t & !VAR16[v];
    lo | (lo << (1 << v))
}

fn cof1(t: u16, v: usize) -> u16 {
    let hi = t & VAR16[v];
    hi | (hi >> (1 << v))
}

/// Shannon/XOR-aware recursive decomposition for functions beyond the
/// enumeration budget; reaches back into the enumeration for any
/// sub-function it already covers.
fn decompose(t: u16, e: &Enumeration, mini: &mut MiniAig, memo: &mut HashMap<u16, RwrLit>) -> RwrLit {
    if t == 0 {
        return RwrStructure::FALSE;
    }
    if t == u16::MAX {
        return RwrStructure::TRUE;
    }
    if let Some(&l) = memo.get(&t) {
        return l;
    }
    if e.cost[t as usize] != UNREACHED {
        return build_rec(t, e, mini, memo);
    }
    let mut split = None;
    for v in 0..RWR_VARS {
        let (c0, c1) = (cof0(t, v), cof1(t, v));
        if c0 == c1 {
            continue; // independent of v
        }
        if c0 == !c1 {
            // t = v ⊕ cof0: peel the XOR.
            let sub = decompose(c0, e, mini, memo);
            let lit = mini.xor((v as u8) << 1, sub);
            memo.insert(t, lit);
            memo.insert(!t, lit ^ 1);
            return lit;
        }
        if split.is_none() {
            split = Some(v);
        }
    }
    let v = split.expect("non-constant function depends on some variable");
    let (c0, c1) = (cof0(t, v), cof1(t, v));
    let l1 = decompose(c1, e, mini, memo);
    let l0 = decompose(c0, e, mini, memo);
    let hi = mini.and((v as u8) << 1, l1);
    let lo = mini.and((v as u8) << 1 | 1, l0);
    let lit = mini.or(hi, lo);
    memo.insert(t, lit);
    memo.insert(!t, lit ^ 1);
    lit
}

fn compile_expr(expr: &Expr, mini: &mut MiniAig) -> RwrLit {
    match expr {
        Expr::Const(b) => {
            if *b {
                RwrStructure::TRUE
            } else {
                RwrStructure::FALSE
            }
        }
        Expr::Var(v) => *v << 1,
        Expr::Not(inner) => compile_expr(inner, mini) ^ 1,
        Expr::And(es) => {
            let lits: Vec<RwrLit> = es.iter().map(|e| compile_expr(e, mini)).collect();
            lits.into_iter().reduce(|a, b| mini.and(a, b)).unwrap_or(RwrStructure::TRUE)
        }
        Expr::Or(es) => {
            let lits: Vec<RwrLit> = es.iter().map(|e| compile_expr(e, mini)).collect();
            lits.into_iter().reduce(|a, b| mini.or(a, b)).unwrap_or(RwrStructure::FALSE)
        }
        Expr::Xor(es) => {
            let lits: Vec<RwrLit> = es.iter().map(|e| compile_expr(e, mini)).collect();
            lits.into_iter().reduce(|a, b| mini.xor(a, b)).unwrap_or(RwrStructure::FALSE)
        }
    }
}
