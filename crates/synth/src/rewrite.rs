//! DAG-aware NPN-class rewriting over priority cuts.
//!
//! For every AND node (in topological order of the input graph), the
//! pass considers the node's 4-feasible priority cuts, looks the cut
//! function up in the precomputed per-NPN-class structure library
//! ([`RwrLibrary`]), and evaluates the *gain* of replacing the node's
//! cone: the size of the node's MFFC (what a replacement frees) minus
//! the exact number of nodes the class structure would add (dry-built
//! against the strash, with reused-MFFC cones charged back). The best
//! positive-gain candidate is applied in place through
//! [`Aig::replace_node`]; with `zero_cost` enabled, zero-gain
//! replacements are applied too (perturbation, as in ABC's
//! `rewrite -z`).
//!
//! Earlier replacements may invalidate a later node's cuts
//! structurally — leaves are forwarded through the editing session's
//! replacement map ([`Aig::resolve`]), which keeps every candidate
//! *globally* sound: a live node's global function never changes, so
//! implementing its (stale) cut function over the forwarded leaf
//! signals still realizes the node's function.

use crate::dry::{real, revive_count, Build, DryBuild, DryScratch, MffcSet, RealBuild};
use crate::pass::PassCtx;
use cntfet_aig::{Aig, CutParams, CutRank, Lit, NodeId};
use cntfet_boolfn::hash::FastMap;
use cntfet_boolfn::{cache, RwrLibrary, RwrMatch, RwrOperand, RwrStructure};

/// Rewriting's cuts: up to [`cntfet_boolfn::rwr::RWR_VARS`] leaves,
/// eight size-ranked priority cuts per node. [`PassCtx`] keeps the
/// arena at these parameters across the passes of a script.
pub(crate) const REWRITE_CUTS: CutParams =
    CutParams { k: cntfet_boolfn::rwr::RWR_VARS, max_cuts: 8, rank: CutRank::Size };

/// The DAG-aware rewriting pass (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Rewrite {
    /// Accept zero-gain replacements (perturbation).
    pub zero_cost: bool,
}

impl Rewrite {
    /// A rewriting pass; `zero_cost` also accepts replacements that do
    /// not shrink the graph.
    pub fn new(zero_cost: bool) -> Rewrite {
        Rewrite { zero_cost }
    }
}

impl crate::Pass for Rewrite {
    fn name(&self) -> String {
        if self.zero_cost { "rewrite -z".into() } else { "rewrite".into() }
    }

    fn apply(&mut self, aig: &mut Aig) -> usize {
        rewrite_inplace(aig, self.zero_cost)
    }

    fn apply_ctx(&mut self, aig: &mut Aig, ctx: &mut PassCtx) -> usize {
        rewrite_ctx(aig, self.zero_cost, ctx)
    }

    /// `rewrite -z` implies `rewrite`. On a graph it left untouched, the
    /// plain sweep evaluates every node exactly as the `-z` sweep did
    /// and accepts a subset of what `-z` accepts, so it applies nothing
    /// either.
    fn implied_noops(&self) -> Vec<String> {
        if self.zero_cost {
            vec![Rewrite::new(false).name()]
        } else {
            Vec::new()
        }
    }
}

thread_local! {
    /// Cross-pass memo of [`RwrLibrary::lookup_word`], keyed by the
    /// function's 16-bit truth table (a cut word of at most four leaves
    /// is its low 16 bits replicated, and the lookup reads only those).
    /// Canonicalization dominates the lookup, and cut functions repeat
    /// heavily both inside a graph and across the passes and rounds of
    /// a script. At most 65,536 entries; off when
    /// [`cache::enabled`] is false.
    static LOOKUP_CACHE: std::cell::RefCell<FastMap<u16, RwrMatch<'static>>> =
        std::cell::RefCell::new(FastMap::default());
}

/// The library entry of a cut function, through [`LOOKUP_CACHE`].
fn lookup(lib: &'static RwrLibrary, word: u64) -> RwrMatch<'static> {
    if !cache::enabled() {
        return lib.lookup_word(word);
    }
    LOOKUP_CACHE.with(|c| {
        c.borrow_mut().entry(word as u16).or_insert_with(|| lib.lookup_word(word)).clone()
    })
}

/// Runs one DAG-aware rewriting sweep in place; returns the number of
/// replacements applied. The result is compacted unless the sweep was
/// a no-op.
pub fn rewrite_inplace(aig: &mut Aig, zero_cost: bool) -> usize {
    rewrite_ctx(aig, zero_cost, &mut PassCtx::ephemeral())
}

/// [`rewrite_inplace`] with a [`PassCtx`] carrying the persistent cut
/// arena across passes and rounds.
pub(crate) fn rewrite_ctx(aig: &mut Aig, zero_cost: bool, ctx: &mut PassCtx) -> usize {
    assert!(!aig.is_editing(), "pass expects sole ownership of the graph");
    ctx.sync(aig);
    let cuts = ctx.take_or_enumerate(aig);
    let lib = RwrLibrary::global();
    let n0 = aig.num_nodes();
    let mut mffc = MffcSet::default();
    let mut mffc_buf: Vec<NodeId> = Vec::new();
    let mut scratch = DryScratch::default();
    let mut applied = 0usize;

    aig.begin_edit();
    for idx in 1..n0 {
        let id = NodeId::from_index(idx);
        if !aig.is_and(id) || aig.ref_count(id) == 0 {
            continue;
        }
        // The MFFC is a property of the node, shared by all cuts.
        // Refs stay dereferenced while candidates are costed (so the
        // dry build sees the graph as if the cone were gone), and are
        // restored before anything is actually built.
        mffc_buf.clear();
        let saved = aig.mffc_deref_into(id, &mut mffc_buf);
        mffc.begin(aig.num_nodes());
        for &m in &mffc_buf {
            mffc.insert(m);
        }

        let mut best: Option<(isize, RwrMatch<'static>, [Lit; 4])> = None;
        for cut in cuts.of(id) {
            if cut.size() < 2 {
                continue;
            }
            let Some(word) = cut.function_word() else { continue };
            let mut leaves = [Lit::FALSE; 4];
            let mut ok = true;
            for (i, &l) in cut.leaves().iter().enumerate() {
                let r = aig.resolve(l.lit());
                if aig.is_dead(r.node()) || r.is_const() {
                    ok = false;
                    break;
                }
                leaves[i] = r;
            }
            if !ok {
                continue;
            }
            let m = lookup(lib, word);
            let mut dry = DryBuild::new(aig, &mut scratch);
            walk_structure(&mut dry, &m, &leaves.map(real));
            let revive = revive_count(
                aig,
                &mut mffc,
                leaves
                    .iter()
                    .take(cut.size())
                    .map(|l| l.node())
                    .chain(scratch.reused.iter().copied()),
            );
            let gain = saved as isize - (scratch.created + revive) as isize;
            if best.as_ref().map(|b| gain > b.0).unwrap_or(true) {
                best = Some((gain, m, leaves));
            }
        }
        aig.mffc_ref(id);

        if let Some((gain, m, leaves)) = best {
            if gain > 0 || (zero_cost && gain == 0) {
                let out = walk_structure(&mut RealBuild(aig), &m, &leaves);
                if out.node() != id {
                    aig.replace_node(id, out);
                    applied += 1;
                }
            }
        }
    }
    let delta = aig.end_edit();
    ctx.put(cuts);
    ctx.absorb(aig, &delta);
    if applied > 0 {
        let (out, map) = aig.compact_with_map();
        ctx.rebase(&map, &out);
        *aig = out;
    }
    ctx.finish(aig);
    applied
}

/// Walks a class structure through a builder (dry or real), wiring
/// query leaves onto structure inputs per the NPN transform: input
/// position `perm(i)` carries leaf `i`, complemented per the
/// transform; the output is complemented per the transform.
pub(crate) fn walk_structure<B: Build>(b: &mut B, m: &RwrMatch<'_>, leaves: &[B::L; 4]) -> B::L {
    let t = &m.transform;
    let mut inputs = [B::lfalse(); 4];
    for (i, &leaf) in leaves.iter().enumerate() {
        let l = if t.input_flipped(i) { B::not(leaf) } else { leaf };
        inputs[t.perm(i)] = l;
    }
    let mut steps = [B::lfalse(); RwrStructure::MAX_STEPS];
    let operand = |steps: &[B::L], inputs: &[B::L; 4], lit| match RwrStructure::decode(lit) {
        RwrOperand::Const(c) => {
            if c {
                B::ltrue()
            } else {
                B::lfalse()
            }
        }
        RwrOperand::Leaf(i, c) => {
            if c {
                B::not(inputs[i])
            } else {
                inputs[i]
            }
        }
        RwrOperand::Step(i, c) => {
            if c {
                B::not(steps[i])
            } else {
                steps[i]
            }
        }
    };
    for (i, &(a, b2)) in m.structure.steps().iter().enumerate() {
        let la = operand(&steps, &inputs, a);
        let lb = operand(&steps, &inputs, b2);
        steps[i] = b.and(la, lb);
    }
    let out = operand(&steps, &inputs, m.structure.out());
    if t.output_flipped() {
        B::not(out)
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_aig::equivalent;

    #[test]
    fn rewrite_merges_functional_duplicates() {
        // Two structurally different XORs of the same inputs feeding an
        // AND: rewriting must discover z == x and shrink.
        let mut g = Aig::new("dup");
        let p = g.add_pis(3);
        let x = g.xor(p[0], p[1]);
        let n0 = g.and(p[0], p[1]);
        let n1 = g.and(p[0].negate(), p[1].negate());
        let y = g.or(n0, n1).negate(); // xor via xnor-complement
        let z = g.and(x, y); // == x
        let o = g.and(z, p[2]);
        g.add_po(o);
        let before = g.num_ands();
        let applied = rewrite_inplace(&mut g, false);
        assert!(applied > 0);
        assert!(g.num_ands() < before, "{} -> {}", before, g.num_ands());

        // (a·b) + (a·b·c) == a·b: the absorbed term goes entirely.
        let mut g = Aig::new("absorb");
        let p = g.add_pis(3);
        let ab = g.and(p[0], p[1]);
        let abc = g.and(ab, p[2]);
        let o = g.or(ab, abc);
        g.add_po(o);
        let reference = g.clone();
        rewrite_inplace(&mut g, false);
        assert!(equivalent(&reference, &g));
        assert_eq!(g.num_ands(), 1, "rewrite collapses to a·b");
    }

    #[test]
    fn rewrite_preserves_function_on_random_logic() {
        let mut state = 0xFEED_5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = Aig::new("rand");
        let pis = g.add_pis(8);
        let mut pool: Vec<Lit> = pis.clone();
        for _ in 0..60 {
            let a = pool[(next() % pool.len() as u64) as usize];
            let b = pool[(next() % pool.len() as u64) as usize];
            let l = match next() % 3 {
                0 => g.and(a, b),
                1 => g.or(a, b.negate()),
                _ => g.xor(a, b),
            };
            pool.push(l);
        }
        for i in 0..4 {
            g.add_po(pool[pool.len() - 1 - i]);
        }
        let mut r = g.clone();
        let before = r.num_ands();
        rewrite_inplace(&mut r, false);
        assert!(equivalent(&g, &r));
        assert!(r.num_ands() <= before);
        let mut rz = g.clone();
        rewrite_inplace(&mut rz, true);
        assert!(equivalent(&g, &rz));
        assert!(rz.num_ands() <= before);
    }

    #[test]
    fn gain_accounting_is_deterministic_and_leaves_no_garbage() {
        // Regression for the seed refactor's accounting bug: rejected
        // dry-built candidates stayed in the output strash, making
        // gains order-dependent and leaving dangling garbage until
        // `compact()`. The in-place engine costs candidates without
        // touching the graph, so (1) runs are bit-deterministic,
        // (2) sweeps never grow the graph, (3) a pass output carries
        // no dangling nodes, and (4) a graph with no profitable
        // rewrite is returned untouched.
        let mut g = Aig::new("acct");
        let p = g.add_pis(6);
        let mut layer: Vec<Lit> = p.clone();
        let mut s = 0x1234_5678u64;
        for _ in 0..40 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = layer[(s >> 33) as usize % layer.len()];
            let b = layer[(s >> 13) as usize % layer.len()];
            layer.push(if s & 1 == 0 { g.and(a, b) } else { g.xor(a, b) });
        }
        for i in 0..3 {
            g.add_po(layer[layer.len() - 1 - i]);
        }
        let g = g.compact();

        // (1) determinism: identical runs give identical graphs.
        let (mut r1, mut r2) = (g.clone(), g.clone());
        let a1 = rewrite_inplace(&mut r1, false);
        let a2 = rewrite_inplace(&mut r2, false);
        assert_eq!(a1, a2);
        assert_eq!(r1.num_ands(), r2.num_ands());
        assert_eq!(r1.depth(), r2.depth());
        assert!(equivalent(&g, &r1));

        // (2) monotone until fixpoint, (3) outputs are garbage-free.
        let mut cur = r1;
        for _sweep in 0..8 {
            let before = cur.num_ands();
            assert_eq!(cur.compact().num_ands(), before, "dangling nodes survived the pass");
            let applied = rewrite_inplace(&mut cur, false);
            assert!(cur.num_ands() <= before);
            if applied == 0 {
                break;
            }
        }
        let fixpoint = cur.num_ands();
        assert_eq!(rewrite_inplace(&mut cur, false), 0, "fixpoint not reached");
        assert_eq!(cur.num_ands(), fixpoint);

        // (4) no-gain graphs come back untouched: the fixpoint graph
        // itself re-runs to zero applications with identical counts.
        let snapshot = cur.num_nodes();
        rewrite_inplace(&mut cur, false);
        assert_eq!(cur.num_nodes(), snapshot, "rejected candidates left residue");
    }
}
