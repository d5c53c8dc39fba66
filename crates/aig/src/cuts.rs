//! Arena-backed k-feasible priority-cut enumeration with in-pass cut
//! functions — shared infrastructure for rewriting and technology
//! mapping.
//!
//! All cuts of a network live in one [`CutArena`]: a flat contiguous
//! leaf buffer plus per-node slices, in the style of ABC's priority
//! cuts. Enumeration keeps a bounded list of the best cuts per node —
//! the smallest ones, or those an external cost oracle ranks first
//! ([`enumerate_cuts_custom`]) — prunes dominated cuts with
//! bloom-style signatures, and computes every kept cut's function as a
//! single `u64` word in the same forward pass (cuts have at most
//! [`word::MAX_WORD_VARS`] leaves), so downstream consumers never walk
//! cones or allocate per-cut sets.

use crate::graph::{Aig, NodeId};
use cntfet_boolfn::{word, TruthTable};

/// The builtin cut ranking: fewer leaves first, ties in discovery
/// order. It is the only one, so [`CutParams::rank`] selects nothing;
/// the enum and that field stay only until the benchmark under
/// `flowbench/` stops naming them. An external ranking goes through
/// [`enumerate_cuts_custom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CutRank {
    /// Fewer leaves first — favours large cones per cell.
    #[default]
    Size,
}

/// Parameters of [`enumerate_cuts_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CutParams {
    /// Maximum cut size (`2 ≤ k ≤ 6`).
    pub k: usize,
    /// Priority cuts kept per node, unit cut included. The direct
    /// fanin-pair cut of an AND node is always among them (displacing
    /// the worst-ranked survivor if necessary), so `max_cuts ≥ 2`
    /// guarantees every AND node a mappable cut.
    pub max_cuts: usize,
    /// Ignored: [`CutRank`] has one value. The field stays only until
    /// the benchmark under `flowbench/` stops setting it.
    pub rank: CutRank,
}

/// Per-cut record: a slice of the arena's leaf buffer plus signature
/// and the cut function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutData {
    /// Offset of the first leaf in the arena buffer.
    pub(crate) off: u32,
    /// Number of leaves.
    pub(crate) len: u16,
    /// Bloom-style signature (`1 << (leaf % 64)` folded over leaves).
    pub(crate) sig: u64,
    /// Function of the cut's root over its leaves (leaf `i` is
    /// variable `i`), replicated-u64 form.
    pub(crate) tt: u64,
}

/// All cuts of an AIG, arena-packed: one contiguous leaf buffer,
/// per-node cut spans.
#[derive(Debug, Clone)]
pub struct CutArena {
    pub(crate) k: usize,
    pub(crate) leaves: Vec<NodeId>,
    pub(crate) cuts: Vec<CutData>,
    /// Per node: `[start, end)` into `cuts`.
    pub(crate) spans: Vec<(u32, u32)>,
}

impl CutArena {
    /// Total number of cuts stored.
    pub fn num_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// The cuts of a node; the first cut is always the unit cut.
    pub fn of(&self, node: NodeId) -> CutIter<'_> {
        let (start, end) = self.spans[node.index()];
        CutIter { arena: self, cur: start as usize, end: end as usize }
    }
}

/// Borrowed view of one cut in a [`CutArena`].
#[derive(Debug, Clone, Copy)]
pub struct CutView<'a> {
    leaves: &'a [NodeId],
    tt: u64,
}

impl<'a> CutView<'a> {
    /// The sorted leaves.
    pub fn leaves(&self) -> &'a [NodeId] {
        self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// The cut function as a replicated `u64` word over `size()`
    /// variables (leaf `i` is variable `i`).
    pub fn function_word(&self) -> u64 {
        self.tt
    }

    /// The cut function as a [`TruthTable`] (see
    /// [`CutView::function_word`]).
    pub fn function(&self) -> TruthTable {
        TruthTable::from_bits(self.size(), self.tt)
    }
}

/// Iterator over a node's cuts (see [`CutArena::of`]).
#[derive(Debug, Clone)]
pub struct CutIter<'a> {
    arena: &'a CutArena,
    cur: usize,
    end: usize,
}

impl<'a> Iterator for CutIter<'a> {
    type Item = CutView<'a>;

    fn next(&mut self) -> Option<CutView<'a>> {
        if self.cur >= self.end {
            return None;
        }
        let d = self.arena.cuts[self.cur];
        self.cur += 1;
        Some(CutView {
            leaves: &self.arena.leaves[d.off as usize..d.off as usize + d.len as usize],
            tt: d.tt,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.cur;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CutIter<'_> {}

/// Merged cut assembled while processing one node; leaves live in a
/// shared scratch buffer that is recycled across nodes.
#[derive(Clone, Copy)]
struct ScratchCut {
    off: u32,
    len: u16,
    sig: u64,
    /// Arena indices of the two fanin cuts it was merged from.
    src: (u32, u32),
    /// Cut function; computed only once the cut is known to be needed.
    tt: u64,
    /// The cost oracle's ranking key (primary, secondary); smaller is
    /// better. Unused under the size rank.
    cost: (u32, u32),
}

impl ScratchCut {
    /// The cut's leaves in the node's scratch leaf buffer.
    fn leaves<'a>(&self, sleaves: &'a [NodeId]) -> &'a [NodeId] {
        &sleaves[self.off as usize..self.off as usize + self.len as usize]
    }
}

/// Enumerates up to `max_cuts` k-feasible priority cuts per node,
/// smallest first (the first cut of every node is its unit cut). See
/// [`enumerate_cuts_with`] for the full interface.
///
/// # Panics
///
/// Panics unless `2 ≤ k ≤ 6`.
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> CutArena {
    enumerate_cuts_with(aig, CutParams { k, max_cuts, rank: CutRank::Size })
}

/// Enumerates k-feasible priority cuts into a fresh [`CutArena`].
///
/// For every AND node, the cut sets of its fanins are pairwise merged
/// (signature quick-reject first), dominated cuts are pruned, the
/// survivors are ranked by size (ties in discovery order) and
/// truncated to `max_cuts - 1`, and the unit cut is prepended.
/// Dominance is decided after all merges, visiting cuts by size: a cut
/// survives iff no smaller or earlier-found surviving cut is a subset
/// of it. That visiting order is the rank order, so the visit stops
/// once the list is full and later cuts are never compared. Each kept
/// cut's function is derived from its two fanin cuts' words — expanded
/// onto the merged leaf set and ANDed — so no cone traversal ever
/// happens afterwards; cuts that are pruned or truncated get no word.
///
/// # Panics
///
/// Panics unless `2 ≤ params.k ≤ 6` ([`word::MAX_WORD_VARS`]).
pub fn enumerate_cuts_with(aig: &Aig, params: CutParams) -> CutArena {
    enumerate_impl(aig, params, None)
}

/// [`enumerate_cuts_with`] under an external ranking oracle: `cost` is
/// called once per surviving (non-dominated, non-unit) cut, after all
/// of the node's merges and dominance checks, in discovery order, with
/// the cut's root, sorted leaves and function word, and must return the `(primary, secondary)` ranking cost
/// (smaller is better); ties keep discovery order. Dominance is
/// decided for every merged cut, and every surviving cut gets its word
/// before its oracle call. `params.rank` is ignored. Technology
/// mapping's arrival-aware rounds enumerate through here: their oracle
/// resolves each cut against the library's NPN index and ranks by the
/// mapped arrival time of the best matching cell, tie-broken on
/// area-flow — so the priority list keeps the cuts that are *fast to
/// implement*, not merely structurally shallow. The costs only order
/// the list; the arena does not keep them.
///
/// # Panics
///
/// Panics unless `2 ≤ params.k ≤ 6`.
pub fn enumerate_cuts_custom<F>(aig: &Aig, params: CutParams, mut cost: F) -> CutArena
where
    F: FnMut(NodeId, &[NodeId], u64) -> (u32, u32),
{
    enumerate_impl(aig, params, Some(&mut cost))
}

/// [`enumerate_cuts_with`]; the worker count is ignored.
///
/// Cut enumeration runs on the calling thread only. This forwarder and
/// its worker-count argument stay only until the benchmark under
/// `flowbench/` stops calling it; new code calls
/// [`enumerate_cuts_with`].
///
/// # Panics
///
/// Same contract as [`enumerate_cuts_with`].
pub fn enumerate_cuts_with_jobs(aig: &Aig, params: CutParams, _jobs: usize) -> CutArena {
    enumerate_cuts_with(aig, params)
}

/// A cut-ranking oracle: `(root, sorted leaves, function word) →
/// (primary, secondary)` cost, smaller is better. Enumeration without
/// one (`None`) ranks by size.
type CutCost<'a> = dyn FnMut(NodeId, &[NodeId], u64) -> (u32, u32) + 'a;

/// Node-local scratch recycled across the nodes of one enumeration
/// pass.
#[derive(Default)]
struct NodeScratch {
    /// Shared leaf buffer the scratch cuts slice into.
    sleaves: Vec<NodeId>,
    /// Merged cuts of the node under construction, in discovery order.
    scuts: Vec<ScratchCut>,
    /// Indices into `scuts` by (size, discovery order).
    by_size: Vec<usize>,
    /// Indices into `scuts` of the kept cuts, in rank order.
    order: Vec<usize>,
    /// Leaf-position scratch for `expand_cut_word`.
    pos: Vec<usize>,
}

fn fresh_arena(aig: &Aig, k: usize, max_cuts: usize) -> CutArena {
    let n = aig.num_nodes();
    // Sized once, so that enumeration does not regrow either buffer (a
    // regrowth copies the whole buffer while the old one is live): no
    // node keeps more than `max_cuts` cuts, and they average at most
    // four leaves per kept slot. At k ≤ 4 that is a bound; at the
    // mapper's k = 6 the suite and the DES chain fill at most 97 % of
    // it, even when the widest cuts rank first. Past 16 cuts per node
    // the buffers grow as needed instead.
    let cuts = n * max_cuts.min(16);
    CutArena {
        k,
        leaves: Vec::with_capacity(cuts * k.min(4)),
        cuts: Vec::with_capacity(cuts),
        spans: vec![(0, 0); n],
    }
}

/// Computes the ranked non-unit cuts of AND node `id` from its fanins'
/// cut lists in `arena`, leaving the winners in `sc.order` (indices
/// into `sc.scuts`, rank order) for [`emit_node`] to append.
///
/// Two phases. First every fanin-cut pair is merged (signature
/// quick-reject, then the leaf merge) and recorded with its source
/// pair; nothing else is computed. Then the merged cuts are visited in
/// (size, discovery) order, and each survives iff no surviving cut is
/// a subset of it — a subset is never larger, and among equal leaf
/// sets the first found survives, so the survivors are exactly the
/// minimal cuts, first among equals. Without an oracle that order is
/// the rank order, so the visit stops once `max_cuts - 1` cuts
/// survived (and the fanin-pair cut was visited) and the unvisited
/// cuts are never compared. An oracle visits every cut and is then
/// called once per survivor, in discovery order, with its word. Words
/// are computed only for the cuts that are kept, or under the oracle
/// for every survivor.
fn compute_node_cuts(
    arena: &CutArena,
    aig: &Aig,
    id: NodeId,
    max_cuts: usize,
    oracle: Option<&mut CutCost<'_>>,
    sc: &mut NodeScratch,
) {
    let k = arena.k;
    let (f0, f1) = aig.fanins(id);
    sc.sleaves.clear();
    sc.scuts.clear();
    let (s0, e0) = arena.spans[f0.node().index()];
    let (s1, e1) = arena.spans[f1.node().index()];
    for i0 in s0..e0 {
        let c0 = arena.cuts[i0 as usize];
        for i1 in s1..e1 {
            let c1 = arena.cuts[i1 as usize];
            // Signature quick-reject: the popcount of the united
            // signatures is a lower bound on the true union size.
            let sig = c0.sig | c1.sig;
            if sig.count_ones() as usize > k {
                continue;
            }
            let off = sc.sleaves.len() as u32;
            if !merge_leaves(arena, &c0, &c1, k, &mut sc.sleaves) {
                sc.sleaves.truncate(off as usize);
                continue;
            }
            let len = (sc.sleaves.len() - off as usize) as u16;
            sc.scuts.push(ScratchCut { off, len, sig, src: (i0, i1), tt: 0, cost: (0, 0) });
        }
    }

    // Dominance, by (size, discovery order). The fanin-pair cut (the
    // very first merge: unit × unit) must be visited even past a full
    // list: it is kept below whenever it survives.
    let scuts = &mut sc.scuts;
    sc.by_size.clear();
    sc.by_size.extend(0..scuts.len());
    sc.by_size.sort_by_key(|&i| scuts[i].len);
    let keep = max_cuts.saturating_sub(1);
    let size_ranked = oracle.is_none();
    let (mut pair_seen, mut pair_kept) = (false, false);
    sc.order.clear();
    for &i in &sc.by_size {
        if size_ranked && pair_seen && sc.order.len() >= keep {
            break;
        }
        let c = &scuts[i];
        let leaves = c.leaves(&sc.sleaves);
        let dominated = sc.order.iter().any(|&a| {
            let a = &scuts[a];
            subset(a.leaves(&sc.sleaves), a.sig, leaves, c.sig)
        });
        if i == 0 {
            pair_seen = true;
            pair_kept = !dominated;
        }
        if !dominated {
            sc.order.push(i);
        }
    }

    let compl = [flip(f0.is_complement()), flip(f1.is_complement())];
    if let Some(cost) = oracle {
        // Cost the survivors in discovery order, each with its word.
        sc.order.sort_unstable();
        for &i in &sc.order {
            let s = &mut scuts[i];
            s.tt = merged_word(arena, s, &sc.sleaves, compl, &mut sc.pos);
            s.cost = cost(id, s.leaves(&sc.sleaves), s.tt);
        }
        sc.order.sort_by_key(|&i| scuts[i].cost);
    }
    sc.order.truncate(keep);
    // The direct fanin-pair cut is the universal fallback every
    // 2-input-complete library can realize — keep it even when the
    // ranking would truncate it, so mapping never runs out of
    // candidates. It displaces the worst-ranked survivor, keeping the
    // per-node count within `max_cuts`.
    if pair_kept && !sc.order.contains(&0) {
        sc.order.pop();
        sc.order.push(0);
    }
    if size_ranked {
        for &i in &sc.order {
            scuts[i].tt = merged_word(arena, &scuts[i], &sc.sleaves, compl, &mut sc.pos);
        }
    }
}

/// Appends `id`'s unit cut plus its kept scratch cuts (rank order) to
/// the arena and records the node's span.
fn emit_node(arena: &mut CutArena, id: NodeId, sc: &NodeScratch) {
    let start = arena.cuts.len() as u32;
    push_unit(arena, id);
    for &i in &sc.order {
        let s = sc.scuts[i];
        let off = arena.leaves.len() as u32;
        arena.leaves.extend_from_slice(s.leaves(&sc.sleaves));
        arena.cuts.push(CutData { off, len: s.len, sig: s.sig, tt: s.tt });
    }
    arena.spans[id.index()] = (start, arena.cuts.len() as u32);
}

fn enumerate_impl(aig: &Aig, params: CutParams, mut oracle: Option<&mut CutCost<'_>>) -> CutArena {
    let CutParams { k, max_cuts, .. } = params;
    assert!(
        (2..=word::MAX_WORD_VARS).contains(&k),
        "cut size must be between 2 and {}",
        word::MAX_WORD_VARS
    );
    let mut arena = fresh_arena(aig, k, max_cuts);
    let mut sc = NodeScratch::default();
    for id in aig.node_ids() {
        if !aig.is_and(id) {
            // Constant node or PI: just the unit cut. The constant's
            // "function" is 0 (it never appears as an AND cut leaf —
            // structural hashing folds constant fanins away).
            let start = arena.cuts.len() as u32;
            push_unit(&mut arena, id);
            arena.spans[id.index()] = (start, arena.cuts.len() as u32);
            continue;
        }
        compute_node_cuts(&arena, aig, id, max_cuts, oracle.as_deref_mut(), &mut sc);
        emit_node(&mut arena, id, &sc);
    }
    arena
}

fn flip(c: bool) -> u64 {
    if c {
        !0
    } else {
        0
    }
}

fn push_unit(arena: &mut CutArena, id: NodeId) {
    let off = arena.leaves.len() as u32;
    arena.leaves.push(id);
    let tt = if id == NodeId::CONST { 0 } else { word::var_word(0) };
    arena.cuts.push(CutData { off, len: 1, sig: 1 << (id.index() % 64), tt });
}

/// Merges the (sorted) leaf slices of two arena cuts onto the end of
/// `out`; false if the union exceeds `k`.
fn merge_leaves(arena: &CutArena, a: &CutData, b: &CutData, k: usize, out: &mut Vec<NodeId>) -> bool {
    let base = out.len();
    let la = &arena.leaves[a.off as usize..(a.off + a.len as u32) as usize];
    let lb = &arena.leaves[b.off as usize..(b.off + b.len as u32) as usize];
    let (mut i, mut j) = (0, 0);
    while i < la.len() || j < lb.len() {
        let next = match (la.get(i), lb.get(j)) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    i += 1;
                    x
                } else if y < x {
                    j += 1;
                    y
                } else {
                    i += 1;
                    j += 1;
                    x
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        if out.len() - base >= k {
            return false;
        }
        out.push(next);
    }
    true
}

/// True iff `a ⊆ b` (both sorted).
fn subset(a: &[NodeId], sig_a: u64, b: &[NodeId], sig_b: u64) -> bool {
    if sig_a & !sig_b != 0 || a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &x in a {
        loop {
            match b.get(j) {
                Some(&y) if y < x => j += 1,
                Some(&y) if y == x => {
                    j += 1;
                    break;
                }
                _ => return false,
            }
        }
    }
    true
}

/// Computes the function of `root` in terms of the given cut leaves
/// (leaf `i` becomes variable `i`) by an iterative cone walk — the
/// reference the in-pass cut functions are tested against; enumerated
/// cuts carry their function already (see [`CutView::function`]).
///
/// # Panics
///
/// Panics if the cut has more than [`word::MAX_WORD_VARS`] leaves or
/// does not actually cover the root's cone.
pub fn cut_function(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> TruthTable {
    use std::collections::HashMap;
    let k = leaves.len();
    assert!(k <= word::MAX_WORD_VARS);
    let mut memo: HashMap<NodeId, TruthTable> = HashMap::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        memo.insert(leaf, TruthTable::var(k, i));
    }
    memo.insert(NodeId::CONST, TruthTable::zero(k));
    // Iterative post-order: push fanins until resolvable, then combine.
    let mut stack = vec![root];
    while let Some(&n) = stack.last() {
        if memo.contains_key(&n) {
            stack.pop();
            continue;
        }
        assert!(aig.is_and(n), "cut does not cover the cone (reached PI {n:?})");
        let (f0, f1) = aig.fanins(n);
        match (memo.get(&f0.node()), memo.get(&f1.node())) {
            (Some(&a), Some(&b)) => {
                let a = if f0.is_complement() { !a } else { a };
                let b = if f1.is_complement() { !b } else { b };
                memo.insert(n, a & b);
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
    memo.remove(&root).expect("root computed")
}

/// The function word of merged cut `s`: its two fanin cuts' words
/// expanded onto its leaves, complemented per fanin edge (`compl`) and
/// ANDed.
fn merged_word(
    arena: &CutArena,
    s: &ScratchCut,
    sleaves: &[NodeId],
    compl: [u64; 2],
    pos: &mut Vec<usize>,
) -> u64 {
    let merged = s.leaves(sleaves);
    let ta = expand_cut_word(arena, &arena.cuts[s.src.0 as usize], merged, pos);
    let tb = expand_cut_word(arena, &arena.cuts[s.src.1 as usize], merged, pos);
    (ta ^ compl[0]) & (tb ^ compl[1])
}

/// Expands a fanin cut's function word onto the merged leaf set.
fn expand_cut_word(arena: &CutArena, c: &CutData, merged: &[NodeId], pos: &mut Vec<usize>) -> u64 {
    #[cfg(test)]
    EXPANDED.with(|n| n.set(n.get() + 1));
    let leaves = &arena.leaves[c.off as usize..(c.off + c.len as u32) as usize];
    pos.clear();
    let mut j = 0;
    for &l in leaves {
        while merged[j] != l {
            j += 1;
        }
        pos.push(j);
        j += 1;
    }
    word::expand(c.tt, pos, merged.len())
}

#[cfg(test)]
thread_local! {
    /// Fanin-cut words [`expand_cut_word`] expanded on this thread.
    static EXPANDED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let x = g.xor(a, b);
        let y = g.and(c, d);
        let z = g.or(x, y);
        g.add_po(z);
        g
    }

    #[test]
    fn unit_cuts_exist() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 4, 8);
        for id in g.and_ids() {
            let mut cuts = cs.of(id);
            assert!(cuts.len() > 0);
            let unit = cuts.next().unwrap();
            assert_eq!(unit.leaves(), &[id]);
            assert_eq!(unit.function(), TruthTable::var(1, 0));
        }
    }

    #[test]
    fn root_has_pi_cut() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 4, 16);
        let root = g.pos()[0].node();
        let pi_cut = cs
            .of(root)
            .find(|c| c.leaves().iter().all(|&l| g.is_pi(l)))
            .expect("4-input function must have a full PI cut");
        assert_eq!(pi_cut.size(), 4);
    }

    #[test]
    fn in_pass_functions_match_cone_walk() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 4, 16);
        for id in g.and_ids() {
            for cut in cs.of(id) {
                let inpass = cut.function();
                let walked = cut_function(&g, id, cut.leaves());
                assert_eq!(inpass, walked, "node {id:?}, cut {:?}", cut.leaves());
            }
        }
    }

    #[test]
    fn cut_function_matches_cone() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 4, 16);
        let root = g.pos()[0].node();
        let pi_cut = cs
            .of(root)
            .find(|c| c.size() == 4 && c.leaves().iter().all(|&l| g.is_pi(l)))
            .unwrap();
        let mut tt = pi_cut.function();
        if g.pos()[0].is_complement() {
            tt = !tt;
        }
        // Leaves are sorted by node id = PI creation order here.
        let expect = TruthTable::from_fn(4, |m| {
            let (a, b, c, d) = (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0);
            (a ^ b) || (c && d)
        });
        assert_eq!(tt, expect);
    }

    #[test]
    fn dominated_cuts_are_pruned() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 4, 16);
        for id in g.and_ids() {
            let cuts: Vec<CutView<'_>> = cs.of(id).collect();
            for (i, a) in cuts.iter().enumerate() {
                for (j, b) in cuts.iter().enumerate() {
                    let is_subset = a.leaves().iter().all(|l| b.leaves().contains(l));
                    if i != j && is_subset {
                        // Unit cut dominates nothing else by construction;
                        // other dominations must have been pruned.
                        assert_eq!(a.size(), 1, "dominated cut kept at node {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_respects_k() {
        let g = sample_aig();
        let cs = enumerate_cuts(&g, 2, 8);
        // With k=2 no cut exceeds 2 leaves.
        for id in g.and_ids() {
            for c in cs.of(id) {
                assert!(c.size() <= 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cut size must be between 2 and 6")]
    fn cuts_wider_than_one_word_are_rejected() {
        enumerate_cuts(&sample_aig(), 7, 8);
    }

    #[test]
    fn custom_cost_oracle_ranks_and_records() {
        let g = sample_aig();
        let oracle = |_root: NodeId, leaves: &[NodeId], _tt: u64| {
            (leaves.iter().map(|l| l.index() as u32).sum(), leaves.len() as u32)
        };
        let arena = enumerate_cuts_custom(
            &g,
            CutParams { k: 4, max_cuts: 4, rank: CutRank::Size },
            oracle,
        );
        for id in g.and_ids() {
            let cuts: Vec<CutView<'_>> = arena.of(id).collect();
            assert_eq!(cuts[0].leaves(), &[id], "unit cut first");
            // The kept cuts are in the oracle's order, recomputed here:
            // all but the last are sorted, and the first carries the
            // minimum cost (the always-kept fanin-pair cut may sit out
            // of order at the end).
            let costs: Vec<(u32, u32)> =
                cuts[1..].iter().map(|c| oracle(id, c.leaves(), 0)).collect();
            let ranked = &costs[..costs.len().saturating_sub(1)];
            assert!(ranked.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
            if let Some(&first) = costs.first() {
                assert!(costs.iter().all(|&c| first <= c), "{costs:?}");
            }
        }
    }

    #[test]
    fn oracle_costs_only_surviving_cuts() {
        // n = f0 & (f0 & r) with f0 = p & q. Ranked widest first, f1
        // lists {p, q, r} before {f0, r}, so at n the merge
        // {f0, p, q, r} comes before the merge {f0, r} that kills it.
        let mut kill = Aig::new("kill");
        let pis = kill.add_pis(3);
        let f0 = kill.and(pis[0], pis[1]);
        let f1 = kill.and(f0, pis[2]);
        let n = kill.and(f0, f1);
        kill.add_po(n);
        for (g, k) in [(kill, 6), (reconvergent_aig(), 4)] {
            // Nothing is truncated, so every survivor is kept.
            let params = CutParams { k, max_cuts: 1000, rank: CutRank::Size };
            let mut calls = 0usize;
            let arena = enumerate_cuts_custom(&g, params, |_, leaves, _| {
                calls += 1;
                (u32::MAX - leaves.len() as u32, 0)
            });
            assert_eq!(calls, arena.num_cuts() - g.num_nodes(), "{}", g.name());
        }
    }

    #[test]
    fn size_rank_expands_words_only_for_kept_cuts() {
        // Tight lists truncate most survivors; each kept non-unit cut
        // costs exactly its two fanin-cut expansions.
        let cases = [(reconvergent_aig(), 6, 4), (reconvergent_aig(), 4, 2), (sample_aig(), 4, 8)];
        for (g, k, max_cuts) in cases {
            let params = CutParams { k, max_cuts, rank: CutRank::Size };
            let before = EXPANDED.with(|n| n.get());
            let arena = enumerate_cuts_with(&g, params);
            let expanded = EXPANDED.with(|n| n.get()) - before;
            let kept = arena.num_cuts() - g.num_nodes();
            assert_eq!(expanded, 2 * kept, "{} at {params:?}", g.name());
        }
    }

    /// A reconvergent multi-level circuit: every carry feeds both the
    /// next sum and the next carry.
    fn reconvergent_aig() -> Aig {
        let mut g = Aig::new("reconv");
        let pis = g.add_pis(10);
        let mut acc = pis[0];
        let mut outs = Vec::new();
        for &p in &pis[1..] {
            let sum = g.xor(acc, p);
            let carry = g.and(acc, p);
            outs.push(sum);
            acc = g.or(sum, carry);
        }
        outs.push(acc);
        for o in outs {
            g.add_po(o);
        }
        g
    }
}
