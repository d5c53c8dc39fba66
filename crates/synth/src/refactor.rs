//! In-place wide-cut refactoring: re-derives an implementation
//! (ISOP + algebraic factoring, both phases) for the widest cut of
//! every node and applies it when the exact gain is positive.
//!
//! Complements [`crate::Rewrite`]: rewriting covers the 4-feasible
//! cuts through the precomputed class library; refactoring attacks
//! wider cones (up to `k` leaves) where a factored form can collapse
//! redundancy the small cuts cannot see. Candidates are costed with
//! the same dry builder / MFFC machinery — nothing is built unless the
//! candidate is accepted, so gains are exact and order-independent.

use crate::dry::{real, revive_count, Build, DryBuild, DryScratch, MffcSet, RealBuild, VLit};
use crate::pass::PassCtx;
use cntfet_aig::{Aig, CutParams, CutRank, Lit, NodeId};
use cntfet_boolfn::{factor, isop, Expr, TruthTable};
use std::collections::HashMap;
use std::rc::Rc;

/// Priority cuts kept per node during refactoring.
const REFACTOR_CUTS: usize = 5;

/// Bail-out bound for the cone walk of one candidate (stale cuts can
/// in principle bound large cones; such candidates are skipped).
const CONE_LIMIT: usize = 128;

/// Entry bound of the cross-pass factoring cache.
const FACTOR_CACHE_CAP: usize = 1 << 16;

/// The wide-cut refactoring pass (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Refactor {
    /// Maximum cut width considered.
    pub k: usize,
    /// Accept zero-gain replacements (perturbation).
    pub zero_cost: bool,
}

impl Refactor {
    /// A refactoring pass over `k`-feasible cuts.
    pub fn new(k: usize, zero_cost: bool) -> Refactor {
        Refactor { k, zero_cost }
    }
}

impl crate::Pass for Refactor {
    fn name(&self) -> String {
        if self.zero_cost {
            format!("refactor -z (k={})", self.k)
        } else {
            format!("refactor (k={})", self.k)
        }
    }

    fn apply(&mut self, aig: &mut Aig) -> usize {
        refactor_inplace(aig, self.k, self.zero_cost)
    }

    fn apply_ctx(&mut self, aig: &mut Aig, ctx: &mut PassCtx) -> usize {
        refactor_ctx(aig, self.k, self.zero_cost, ctx)
    }
}

thread_local! {
    /// Cross-pass factoring cache: structured circuits repeat cone
    /// functions heavily, both inside a graph and across the
    /// passes/rounds of a script.
    static FACTOR_CACHE: std::cell::RefCell<HashMap<TruthTable, Rc<(Expr, Expr)>>> =
        std::cell::RefCell::new(HashMap::new());
}

/// Runs one in-place refactoring sweep with cut width `k`; returns the
/// number of replacements applied. The result is compacted unless the
/// sweep was a no-op.
pub fn refactor_inplace(aig: &mut Aig, k: usize, zero_cost: bool) -> usize {
    refactor_ctx(aig, k, zero_cost, &mut PassCtx::ephemeral())
}

/// [`refactor_inplace`] with a [`PassCtx`] carrying persistent cut
/// arenas across passes and rounds.
pub(crate) fn refactor_ctx(aig: &mut Aig, k: usize, zero_cost: bool, ctx: &mut PassCtx) -> usize {
    assert!(!aig.is_editing(), "pass expects sole ownership of the graph");
    let params = CutParams { k, max_cuts: REFACTOR_CUTS, rank: CutRank::Size };
    ctx.sync(aig);
    let cuts = ctx.take_or_enumerate(aig, params);
    let n0 = aig.num_nodes();
    let mut mffc = MffcSet::default();
    let mut mffc_buf: Vec<NodeId> = Vec::new();
    let mut revive_buf: Vec<NodeId> = Vec::new();
    let mut scratch = DryScratch::default();
    let mut cone_memo: Vec<(NodeId, TruthTable)> = Vec::new();
    let mut applied = 0usize;

    aig.begin_edit();
    for idx in 1..n0 {
        let id = NodeId::from_index(idx);
        if !aig.is_and(id) || aig.ref_count(id) == 0 {
            continue;
        }
        // Rewriting owns the ≤4-leaf cones; refactor only pays off on
        // wider ones.
        let Some(cut_leaves) = cuts
            .of(id)
            .filter(|c| c.size() > cntfet_boolfn::rwr::RWR_VARS)
            .max_by_key(|c| c.size())
            .map(|c| c.leaves().to_vec())
        else {
            continue;
        };
        // Resolve the (possibly stale) leaves through the replacement
        // map; the cone is then re-walked on the *current* graph, so
        // the function is exact by construction.
        let mut leaves: Vec<Lit> = Vec::with_capacity(cut_leaves.len());
        let mut ok = true;
        for &l in &cut_leaves {
            let r = aig.resolve(l.lit());
            if aig.is_dead(r.node()) || r.is_const() {
                ok = false;
                break;
            }
            leaves.push(r);
        }
        if !ok {
            continue;
        }
        let Some(tt) = cone_function(aig, id, &leaves, &mut cone_memo) else { continue };
        let exprs = FACTOR_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            // Wide-cone functions are unbounded in number; cap the
            // cache so long-running processes stay at a fixed
            // footprint (a full reset is fine — hit rates come from
            // repetition within and between nearby passes).
            if c.len() >= FACTOR_CACHE_CAP {
                c.clear();
            }
            c.entry(tt.clone())
                .or_insert_with(|| Rc::new((factor(&isop(&tt)), factor(&isop(&!&tt)))))
                .clone()
        });
        let (e_pos, e_neg) = (&exprs.0, &exprs.1);

        mffc_buf.clear();
        let saved = aig.mffc_deref_into(id, &mut mffc_buf);
        mffc.begin(aig.num_nodes());
        for &m in &mffc_buf {
            mffc.insert(m);
        }
        let vleaves: Vec<VLit> = leaves.iter().map(|&l| real(l)).collect();
        let mut best: Option<(isize, &Expr, bool)> = None;
        for (expr, neg) in [(e_pos, false), (e_neg, true)] {
            let mut dry = DryBuild::new(aig, &mut scratch);
            walk_expr(&mut dry, expr, &vleaves);
            let revive = revive_count(
                aig,
                &mffc,
                leaves.iter().map(|l| l.node()).chain(scratch.reused.iter().copied()),
                &mut revive_buf,
            );
            let gain = saved as isize - (scratch.created + revive) as isize;
            if best.as_ref().map(|b| gain > b.0).unwrap_or(true) {
                best = Some((gain, expr, neg));
            }
        }
        aig.mffc_ref(id);

        if let Some((gain, expr, neg)) = best {
            if gain > 0 || (zero_cost && gain == 0) {
                let out = walk_expr(&mut RealBuild(aig), expr, &leaves);
                let out = if neg { out.negate() } else { out };
                if out.node() != id {
                    aig.replace_node(id, out);
                    applied += 1;
                }
            }
        }
    }
    let delta = aig.end_edit();
    ctx.put(params, cuts);
    ctx.absorb(aig, &delta);
    if applied > 0 {
        let (out, map) = aig.compact_with_map();
        ctx.rebase(&map, &out);
        *aig = out;
    }
    ctx.finish(aig);
    applied
}

/// Computes the function of `root` over the resolved leaf literals by
/// walking the *current* graph; `None` when the walk escapes the
/// leaves (the stale cut no longer bounds the cone) or exceeds the
/// cone limit. The memo is a linear list — cones are bounded by
/// [`CONE_LIMIT`], where a scan beats hashing.
fn cone_function(
    aig: &Aig,
    root: NodeId,
    leaves: &[Lit],
    memo: &mut Vec<(NodeId, TruthTable)>,
) -> Option<TruthTable> {
    let k = leaves.len();
    memo.clear();
    memo.push((NodeId::CONST, TruthTable::zero(k)));
    for (i, &l) in leaves.iter().enumerate() {
        // Duplicate leaf nodes keep the first variable assignment: the
        // function stays exact over the shared signal.
        if memo.iter().all(|(n, _)| *n != l.node()) {
            let v = TruthTable::var(k, i);
            memo.push((l.node(), if l.is_complement() { !v } else { v }));
        }
    }
    let lookup = |memo: &[(NodeId, TruthTable)], n: NodeId| -> Option<usize> {
        memo.iter().position(|(m, _)| *m == n)
    };
    let mut visits = 0usize;
    let mut stack = vec![root];
    while let Some(&n) = stack.last() {
        if lookup(memo, n).is_some() {
            stack.pop();
            continue;
        }
        if !aig.is_and(n) {
            return None; // escaped the cut (PI or dead node)
        }
        visits += 1;
        if visits > CONE_LIMIT {
            return None;
        }
        let (f0, f1) = aig.fanins(n);
        match (lookup(memo, f0.node()), lookup(memo, f1.node())) {
            (Some(a), Some(b)) => {
                let t = memo[a].1.and_with_compl(&memo[b].1, f0.is_complement(), f1.is_complement());
                memo.push((n, t));
                stack.pop();
            }
            (a, b) => {
                if a.is_none() {
                    stack.push(f0.node());
                }
                if b.is_none() {
                    stack.push(f1.node());
                }
            }
        }
    }
    let i = lookup(memo, root).expect("root computed");
    Some(memo[i].1.clone())
}

/// Builds an expression over leaf literals through a builder (dry or
/// real); the expression's variable `v` maps to `leaves[v]`. The
/// balanced multi-operand reductions mirror [`Aig::build_expr`]'s
/// shape so dry costs match real builds exactly.
fn walk_expr<B: Build>(b: &mut B, e: &Expr, leaves: &[B::L]) -> B::L {
    match e {
        Expr::Const(c) => {
            if *c {
                B::ltrue()
            } else {
                B::lfalse()
            }
        }
        Expr::Var(v) => leaves[*v as usize],
        Expr::Not(inner) => B::not(walk_expr(b, inner, leaves)),
        Expr::And(es) => {
            let lits: Vec<B::L> = es.iter().map(|e| walk_expr(b, e, leaves)).collect();
            reduce(b, &lits, B::ltrue(), B::and)
        }
        Expr::Or(es) => {
            let lits: Vec<B::L> = es.iter().map(|e| walk_expr(b, e, leaves)).collect();
            reduce(b, &lits, B::lfalse(), B::or)
        }
        Expr::Xor(es) => {
            let lits: Vec<B::L> = es.iter().map(|e| walk_expr(b, e, leaves)).collect();
            reduce(b, &lits, B::lfalse(), B::xor)
        }
    }
}

/// Balanced pairwise reduction, mirroring `Aig::reduce`.
fn reduce<B: Build>(
    b: &mut B,
    lits: &[B::L],
    unit: B::L,
    mut op: impl FnMut(&mut B, B::L, B::L) -> B::L,
) -> B::L {
    match lits.len() {
        0 => unit,
        1 => lits[0],
        _ => {
            let mut layer = lits.to_vec();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for pair in layer.chunks(2) {
                    next.push(if pair.len() == 2 { op(b, pair[0], pair[1]) } else { pair[0] });
                }
                layer = next;
            }
            layer[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_aig::equivalent;

    #[test]
    fn refactor_removes_redundancy() {
        // (a·b) + (a·b·c) == a·b — refactoring should shrink it.
        let mut g = Aig::new("red");
        let p = g.add_pis(3);
        let ab = g.and(p[0], p[1]);
        let abc = g.and(ab, p[2]);
        let o = g.or(ab, abc);
        g.add_po(o);
        let mut r = g.clone();
        // k=6 so the whole cone is one cut (wider than the rewrite
        // domain thanks to the >4 filter being on cut size, not k).
        refactor_inplace(&mut r, 6, false);
        // The redundancy is below 5 leaves, so rewrite's domain covers
        // it; refactor must at minimum not break or grow anything.
        assert!(equivalent(&g, &r));
        assert!(r.num_ands() <= g.num_ands());
        let mut w = g.clone();
        crate::rewrite_inplace(&mut w, false);
        assert!(equivalent(&g, &w));
        assert_eq!(w.num_ands(), 1, "rewrite collapses to a·b");
    }

    #[test]
    fn refactor_preserves_function_on_wide_cones() {
        // An 8-input majority-ish function with redundant re-compute.
        let mut g = Aig::new("wide");
        let p = g.add_pis(8);
        let mut acc = Lit::FALSE;
        for w in p.windows(2) {
            let t = g.and(w[0], w[1]);
            acc = g.or(acc, t);
        }
        let dup = {
            let mut acc2 = Lit::FALSE;
            for w in p.windows(2) {
                let t = g.and(w[1], w[0]);
                acc2 = g.or(acc2, t);
            }
            acc2
        };
        let o = g.and(acc, dup); // == acc
        g.add_po(o);
        let mut r = g.clone();
        refactor_inplace(&mut r, 10, false);
        assert!(equivalent(&g, &r));
        assert!(r.num_ands() <= g.num_ands());
    }
}
