//! Arena-backed k-feasible priority-cut enumeration with in-pass cut
//! functions — shared infrastructure for rewriting and technology
//! mapping.
//!
//! All cuts of a network live in one [`CutArena`]: a flat contiguous
//! leaf buffer plus per-node slices, in the style of ABC's priority
//! cuts. Enumeration keeps a bounded list of the best cuts per node —
//! the smallest ones, or those an external cost oracle ranks first
//! ([`enumerate_cuts_custom`]) — prunes dominated cuts with
//! bloom-style signatures, and — for cut sizes the mapper uses
//! (`k ≤ 6`) — computes every kept cut's function as a single `u64`
//! word in the same forward pass, so downstream consumers never walk
//! cones or allocate per-cut sets.

use crate::edit::EditDelta;
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
    /// Maximum cut size (`k ≥ 2`).
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
/// and (for `k ≤ 6`) the cut function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CutData {
    /// Offset of the first leaf in the arena buffer.
    pub(crate) off: u32,
    /// Number of leaves.
    pub(crate) len: u16,
    /// Bloom-style signature (`1 << (leaf % 64)` folded over leaves).
    pub(crate) sig: u64,
    /// Function of the cut's root over its leaves (leaf `i` is
    /// variable `i`), replicated-u64 form; valid iff the arena carries
    /// truth tables.
    pub(crate) tt: u64,
}

/// All cuts of an AIG, arena-packed: one contiguous leaf buffer,
/// per-node cut spans.
#[derive(Debug, Clone)]
pub struct CutArena {
    pub(crate) k: usize,
    pub(crate) has_tts: bool,
    pub(crate) leaves: Vec<NodeId>,
    pub(crate) cuts: Vec<CutData>,
    /// Per node: `[start, end)` into `cuts`.
    pub(crate) spans: Vec<(u32, u32)>,
}

impl CutArena {
    /// The cut-size bound enumeration ran with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether cut functions were computed in-pass (`k ≤ 6`).
    pub fn has_functions(&self) -> bool {
        self.has_tts
    }

    /// Total number of cuts stored.
    pub fn num_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// Total number of leaf slots stored.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The cuts of a node; the first cut is always the unit cut.
    pub fn of(&self, node: NodeId) -> CutIter<'_> {
        let (start, end) = self.spans[node.index()];
        CutIter { arena: self, cur: start as usize, end: end as usize }
    }

    /// Re-enumerates cuts only where an editing session changed the
    /// graph, splicing the refreshed lists into the arena in place.
    ///
    /// `delta` is the [`EditDelta`] returned by [`Aig::end_edit`] and
    /// `params` must carry the same `k` the arena was built with. The
    /// ascending pass recomputes every seed-dirty node plus any node
    /// whose fanin's cut list actually changed, and stops propagating
    /// as soon as a refreshed list comes out identical to the stored
    /// one — so the work is proportional to the edit's structural
    /// footprint, not to the graph.
    ///
    /// After the call every node's cut list — leaves, functions, rank
    /// order — is identical to what
    /// [`enumerate_cuts_with`] would produce from scratch on the
    /// post-edit graph (including its convention that a fanin appended
    /// *after* its fanout reads as an empty list during the ascending
    /// pass). Only the arena's internal storage order may differ:
    /// superseded spans linger as unreachable garbage until the next
    /// full enumeration. With `CNTFET_NO_CACHE=1` set
    /// ([`cntfet_boolfn::cache::enabled`]) the whole arena is rebuilt
    /// from scratch instead — behaviourally identical, just without
    /// the dirty-region shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `params.k` differs from the arena's, or if the arena,
    /// delta and graph sizes are inconsistent (e.g. the arena was not
    /// built from the delta's pre-edit graph).
    pub fn update(&mut self, aig: &Aig, delta: &EditDelta, params: CutParams) {
        if !cntfet_boolfn::cache::enabled() {
            self.update_prepare(aig, delta, params);
            *self = enumerate_cuts_with(aig, params);
            return;
        }
        self.update_prepare(aig, delta, params);
        let n = aig.num_nodes();
        let mut seed = vec![false; n];
        for d in delta.dirty() {
            seed[d.index()] = true;
        }
        let mut changed = vec![false; n];
        let mut sc = NodeScratch::default();
        let (mut tmp_leaves, mut tmp_cuts) = (Vec::new(), Vec::new());
        for i in 0..n {
            let id = NodeId::from_index(i);
            let is_and = aig.is_and(id);
            let need = seed[i]
                || (is_and && {
                    let (f0, f1) = aig.fanins(id);
                    let (a, b) = (f0.node().index(), f1.node().index());
                    // Propagation only flows upward: the from-scratch
                    // pass reads an empty list for a fanin at or above
                    // the node's id, so its content cannot matter here.
                    (a < i && changed[a]) || (b < i && changed[b])
                });
            if !need {
                continue;
            }
            if is_and {
                // Emulate the from-scratch ascending-order semantics on
                // an edited (non-topological) graph: a fanin whose id
                // is not below the node's reads as an empty cut list —
                // hide such spans for the duration of the merge.
                let (f0, f1) = aig.fanins(id);
                let mut hid: [Option<(usize, (u32, u32))>; 2] = [None, None];
                for (slot, fi) in [f0.node().index(), f1.node().index()].into_iter().enumerate()
                {
                    if fi >= i && hid[0].map(|(x, _)| x) != Some(fi) {
                        hid[slot] = Some((fi, self.spans[fi]));
                        self.spans[fi] = (0, 0);
                    }
                }
                compute_node_cuts(self, aig, id, params.max_cuts, None, &mut sc);
                for (fi, span) in hid.into_iter().flatten() {
                    self.spans[fi] = span;
                }
                rebase_scratch(&sc, &mut tmp_leaves, &mut tmp_cuts);
            } else {
                // PI, constant or reclaimed node: the list is just the
                // unit cut, exactly as the from-scratch pass emits it.
                tmp_leaves.clear();
                tmp_cuts.clear();
            }
            if self.stored_equals(id, &tmp_cuts, &tmp_leaves) {
                continue;
            }
            changed[i] = true;
            self.splice(id, &tmp_cuts, &tmp_leaves);
        }
    }

    /// Follows the arena across [`Aig::compact_with_map`]: remaps every
    /// stored cut into the compacted graph's id space, then repairs the
    /// lists compaction changed — so a persistent arena survives the
    /// `end_edit → update → compact` cycle of a synthesis pass instead
    /// of being re-enumerated from scratch each round.
    ///
    /// `aig` must be the compacted graph the map describes and the
    /// arena must be current for the pre-compaction graph (i.e.
    /// [`CutArena::update`] already ran for the session's delta). Per
    /// cut, leaves follow the map and are re-sorted under the new id
    /// order, the function word is permuted along, and the signature is
    /// refolded; the list order carries over, because a renaming keeps
    /// every cut's leaf count. Two kinds of AND node are re-enumerated,
    /// and the change propagated upward with the same stop-on-equal
    /// walk [`CutArena::update`] uses: nodes whose pre-compaction list
    /// was computed under the edited graph's empty-fanin convention (an
    /// appended fanout preceding its fanin in id order), which are
    /// exactly the unit-only lists, and nodes whose fanins compaction
    /// put in the other order, because equal-size cuts keep the order
    /// in which the fanins' cuts were merged.
    ///
    /// After the call every node's cut list is identical to what
    /// [`enumerate_cuts_with`] would produce from scratch on the
    /// compacted graph. When the remap is not a clean positive
    /// bijection (compaction merged, complemented or constant-folded
    /// surviving nodes) or `CNTFET_NO_CACHE=1` disables incremental
    /// paths, the arena is rebuilt from scratch instead — behaviourally
    /// identical.
    ///
    /// # Panics
    ///
    /// Panics if `params.k` differs from the arena's, or if the arena,
    /// map and graph sizes are inconsistent.
    pub fn rebase(&mut self, map: &crate::graph::CompactMap, aig: &Aig, params: CutParams) {
        assert!(params.k >= 2, "cut size must be at least 2");
        assert_eq!(params.k, self.k, "rebase must reuse the arena's cut size");
        assert_eq!(
            self.spans.len(),
            map.old_len(),
            "arena was not built from the map's pre-compaction graph"
        );
        assert_eq!(aig.num_nodes(), map.new_len(), "graph is not the map's compacted graph");
        if !cntfet_boolfn::cache::enabled() {
            *self = enumerate_cuts_with(aig, params);
            return;
        }
        match self.rebase_clean(map, aig, params) {
            Some(out) => *self = out,
            None => *self = enumerate_cuts_with(aig, params),
        }
    }

    /// The remap-and-repair path of [`CutArena::rebase`]; `None` when
    /// the map is not a clean positive bijection and the caller must
    /// re-enumerate.
    fn rebase_clean(
        &self,
        map: &crate::graph::CompactMap,
        aig: &Aig,
        params: CutParams,
    ) -> Option<CutArena> {
        let n_new = map.new_len();
        // Invert the map, requiring a positive bijection: every
        // surviving old node maps to a distinct uncomplemented new
        // node and every new node has a preimage. Anything else means
        // compaction rewrote structure (strash merges, trivial folds)
        // and cut lists cannot be carried over one-for-one.
        let mut pre: Vec<Option<NodeId>> = vec![None; n_new];
        let mut old2new: Vec<u32> = vec![u32::MAX; map.old_len()];
        for (i, slot) in old2new.iter_mut().enumerate() {
            if let Some(l) = map.map_id(NodeId::from_index(i)) {
                if l.is_complement() || pre[l.node().index()].is_some() {
                    return None;
                }
                pre[l.node().index()] = Some(NodeId::from_index(i));
                *slot = l.node().index() as u32;
            }
        }
        if pre.iter().any(Option::is_none) {
            return None;
        }

        let mut out = fresh_arena(aig, self.k, params.max_cuts);
        let mut seed = vec![false; n_new];
        let mut newl: Vec<NodeId> = Vec::new();
        let mut ord: Vec<usize> = Vec::new();
        let mut perm: Vec<usize> = Vec::new();
        for j in 0..n_new {
            let id = NodeId::from_index(j);
            let start = out.cuts.len() as u32;
            push_unit(&mut out, id);
            if aig.is_and(id) {
                let old = pre[j]?; // checked non-None above
                let (s, e) = self.spans[old.index()];
                let mut nonunit = 0usize;
                // Skip the stored unit cut (always first) — `push_unit`
                // already emitted the new one.
                for ci in s as usize + 1..e as usize {
                    let c = self.cuts[ci];
                    let lv = &self.leaves[c.off as usize..(c.off + c.len as u32) as usize];
                    newl.clear();
                    for &l in lv {
                        let t = old2new[l.index()];
                        if t == u32::MAX {
                            return None; // leaf died: list is stale, rebuild
                        }
                        newl.push(NodeId::from_index(t as usize));
                    }
                    // Re-sort leaves under the new id order; the cut
                    // function's variables follow the same permutation.
                    ord.clear();
                    ord.extend(0..newl.len());
                    ord.sort_by_key(|&p| newl[p]);
                    let tt = if out.has_tts {
                        perm.clear();
                        perm.resize(ord.len(), 0);
                        for (p, &oi) in ord.iter().enumerate() {
                            perm[oi] = p;
                        }
                        word::permute(c.tt, &perm)
                    } else {
                        0
                    };
                    let off = out.leaves.len() as u32;
                    let mut sig = 0u64;
                    for &p in &ord {
                        out.leaves.push(newl[p]);
                        sig |= 1 << (newl[p].index() % 64);
                    }
                    out.cuts.push(CutData { off, len: c.len, sig, tt });
                    nonunit += 1;
                }
                // A from-scratch AND list always keeps at least the
                // direct fanin-pair cut; a unit-only list is exactly
                // the edited graph's empty-fanin degeneracy and must be
                // re-enumerated against the (topological) new graph.
                // So must a list whose fanins compaction put in the
                // other order: enumeration merges the lower fanin's
                // cuts first, and equal costs keep that merge order.
                let (f0, f1) = aig.fanins(id);
                let swapped = pre[f0.node().index()] > pre[f1.node().index()];
                seed[j] = nonunit == 0 || swapped;
            }
            out.spans[j] = (start, out.cuts.len() as u32);
        }

        // Repair pass: recompute the degenerate seeds and propagate
        // upward while lists keep changing — the compacted graph is
        // topological in id order, so the plain ascending walk of
        // `update` applies without span hiding.
        let mut changed = vec![false; n_new];
        let mut sc = NodeScratch::default();
        let (mut tmp_leaves, mut tmp_cuts) = (Vec::new(), Vec::new());
        for i in 0..n_new {
            let id = NodeId::from_index(i);
            if !aig.is_and(id) {
                continue;
            }
            let (f0, f1) = aig.fanins(id);
            if !(seed[i] || changed[f0.node().index()] || changed[f1.node().index()]) {
                continue;
            }
            compute_node_cuts(&out, aig, id, params.max_cuts, None, &mut sc);
            rebase_scratch(&sc, &mut tmp_leaves, &mut tmp_cuts);
            if out.stored_equals(id, &tmp_cuts, &tmp_leaves) {
                continue;
            }
            changed[i] = true;
            out.splice(id, &tmp_cuts, &tmp_leaves);
        }
        Some(out)
    }

    /// Shared sanity checks of the incremental entry points, plus span
    /// growth for nodes the edit appended.
    fn update_prepare(&mut self, aig: &Aig, delta: &EditDelta, params: CutParams) {
        assert!(params.k >= 2, "cut size must be at least 2");
        assert_eq!(params.k, self.k, "incremental update must reuse the arena's cut size");
        assert_eq!(
            self.spans.len(),
            delta.nodes_before(),
            "arena was not built from the delta's pre-edit graph"
        );
        assert_eq!(
            aig.num_nodes(),
            delta.nodes_after(),
            "delta does not describe the post-edit graph"
        );
        self.spans.resize(aig.num_nodes(), (0, 0));
    }

    /// True iff `id`'s stored cut list equals the unit cut followed by
    /// `cuts` (whose offsets index `leaves`).
    fn stored_equals(&self, id: NodeId, cuts: &[CutData], leaves: &[NodeId]) -> bool {
        let (start, end) = self.spans[id.index()];
        let (start, end) = (start as usize, end as usize);
        if end - start != cuts.len() + 1 {
            return false;
        }
        let u = self.cuts[start];
        let unit_tt = if id == NodeId::CONST { 0 } else { word::var_word(0) };
        if u.len != 1
            || self.leaves[u.off as usize] != id
            || u.sig != 1 << (id.index() % 64)
            || u.tt != unit_tt
        {
            return false;
        }
        for (c_old, c_new) in self.cuts[start + 1..end].iter().zip(cuts) {
            if c_old.len != c_new.len || c_old.sig != c_new.sig || c_old.tt != c_new.tt {
                return false;
            }
            let lo = &self.leaves[c_old.off as usize..(c_old.off + c_old.len as u32) as usize];
            let ln = &leaves[c_new.off as usize..(c_new.off + c_new.len as u32) as usize];
            if lo != ln {
                return false;
            }
        }
        true
    }

    /// Appends the unit cut of `id` plus `cuts` (offsets indexing
    /// `leaves`) at the arena's end and re-points the node's span; the
    /// old span becomes unreachable garbage.
    fn splice(&mut self, id: NodeId, cuts: &[CutData], leaves: &[NodeId]) {
        let start = self.cuts.len() as u32;
        push_unit(self, id);
        for c in cuts {
            let off = self.leaves.len() as u32;
            self.leaves
                .extend_from_slice(&leaves[c.off as usize..(c.off + c.len as u32) as usize]);
            self.cuts.push(CutData { off, ..*c });
        }
        self.spans[id.index()] = (start, self.cuts.len() as u32);
    }
}

/// Borrowed view of one cut in a [`CutArena`].
#[derive(Debug, Clone, Copy)]
pub struct CutView<'a> {
    leaves: &'a [NodeId],
    tt: u64,
    has_tt: bool,
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
    /// variables (leaf `i` is variable `i`), when the arena computed
    /// functions in-pass.
    pub fn function_word(&self) -> Option<u64> {
        self.has_tt.then_some(self.tt)
    }

    /// The cut function as a [`TruthTable`], when available (see
    /// [`CutView::function_word`]).
    pub fn function(&self) -> Option<TruthTable> {
        self.has_tt.then(|| TruthTable::from_bits(self.size(), self.tt))
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
            has_tt: self.arena.has_tts,
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
/// Panics if `k < 2`.
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
/// once the list is full and later cuts are never compared. When
/// `k ≤ 6` each kept cut's function is derived from its two fanin
/// cuts' words — expanded onto the merged leaf set and ANDed — so no
/// cone traversal ever happens afterwards; cuts that are pruned or
/// truncated get no word.
///
/// # Panics
///
/// Panics if `params.k < 2`.
pub fn enumerate_cuts_with(aig: &Aig, params: CutParams) -> CutArena {
    enumerate_impl(aig, params, None)
}

/// [`enumerate_cuts_with`] under an external ranking oracle: `cost` is
/// called once per surviving (non-dominated, non-unit) cut, after all
/// of the node's merges and dominance checks, in discovery order, with
/// the cut's root, sorted leaves and — when `k ≤ 6` — its function
/// word, and must return the `(primary, secondary)` ranking cost
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
/// Panics if `params.k < 2`.
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
        has_tts: k <= word::MAX_WORD_VARS,
        leaves: Vec::with_capacity(cuts * k.min(4)),
        cuts: Vec::with_capacity(cuts),
        spans: vec![(0, 0); n],
    }
}

/// Computes the ranked non-unit cuts of AND node `id` from its fanins'
/// cut lists in `arena`, leaving the winners in `sc.order` (indices
/// into `sc.scuts`, rank order). Reads the arena only — callers store
/// the results themselves: the from-scratch pass appends them, and
/// [`CutArena::update`] first compares them with the stored list.
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
    let has_tts = arena.has_tts;
    if let Some(cost) = oracle {
        // Cost the survivors in discovery order, each with its word.
        sc.order.sort_unstable();
        for &i in &sc.order {
            let s = &mut scuts[i];
            if has_tts {
                s.tt = merged_word(arena, s, &sc.sleaves, compl, &mut sc.pos);
            }
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
    if has_tts && size_ranked {
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

/// Rebases the kept scratch cuts of one node into caller-owned
/// buffers (offsets indexing `leaves`), clearing both first — the
/// interchange format [`CutArena::stored_equals`] and
/// [`CutArena::splice`] consume.
fn rebase_scratch(sc: &NodeScratch, leaves: &mut Vec<NodeId>, cuts: &mut Vec<CutData>) {
    leaves.clear();
    cuts.clear();
    for &i in &sc.order {
        let s = sc.scuts[i];
        let off = leaves.len() as u32;
        leaves.extend_from_slice(s.leaves(&sc.sleaves));
        cuts.push(CutData { off, len: s.len, sig: s.sig, tt: s.tt });
    }
}

fn enumerate_impl(aig: &Aig, params: CutParams, mut oracle: Option<&mut CutCost<'_>>) -> CutArena {
    let CutParams { k, max_cuts, .. } = params;
    assert!(k >= 2, "cut size must be at least 2");
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
/// fallback for cuts wider than [`word::MAX_WORD_VARS`]; cuts the
/// arena enumerated with `k ≤ 6` carry their function already (see
/// [`CutView::function`]).
///
/// # Panics
///
/// Panics if the cut has more than [`cntfet_boolfn::MAX_VARS`] leaves
/// or does not actually cover the root's cone.
pub fn cut_function(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> TruthTable {
    use std::collections::HashMap;
    let k = leaves.len();
    assert!(k <= cntfet_boolfn::MAX_VARS);
    let mut memo: HashMap<NodeId, TruthTable> = HashMap::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        memo.insert(leaf, TruthTable::var(k, i));
    }
    memo.insert(NodeId::CONST, TruthTable::zero(k));
    // Iterative post-order: push fanins until resolvable, then combine
    // with a single allocation per cone node.
    let mut stack = vec![root];
    while let Some(&n) = stack.last() {
        if memo.contains_key(&n) {
            stack.pop();
            continue;
        }
        assert!(aig.is_and(n), "cut does not cover the cone (reached PI {n:?})");
        let (f0, f1) = aig.fanins(n);
        match (memo.get(&f0.node()), memo.get(&f1.node())) {
            (Some(a), Some(b)) => {
                let t = a.and_with_compl(b, f0.is_complement(), f1.is_complement());
                memo.insert(n, t);
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
            assert_eq!(unit.function(), Some(TruthTable::var(1, 0)));
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
                let inpass = cut.function().expect("k <= 6 carries functions");
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
        let mut tt = pi_cut.function().unwrap();
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

    fn assert_same_per_node(g: &Aig, a: &CutArena, b: &CutArena) {
        assert_eq!(a.k(), b.k());
        assert_eq!(a.has_functions(), b.has_functions());
        for id in g.node_ids() {
            let ca: Vec<_> = a.of(id).map(|c| (c.leaves().to_vec(), c.function_word())).collect();
            let cb: Vec<_> = b.of(id).map(|c| (c.leaves().to_vec(), c.function_word())).collect();
            assert_eq!(ca, cb, "cut lists diverge at node {id:?}");
        }
    }

    #[test]
    fn update_matches_scratch_after_reassociation() {
        // The edit appends nodes referenced by a lower-id fanout, so
        // the update must reproduce the from-scratch empty-span
        // convention on the now non-topological graph.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = Aig::new("t");
        let p = g.add_pis(4);
        let c1 = g.and(p[0], p[1]);
        let c2 = g.and(c1, p[2]);
        let top = g.and(c2, p[3]);
        g.add_po(top);
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        let r = g.and(p[1], p[2]);
        let c2b = g.and(p[0], r);
        g.replace_node(c2.node(), c2b);
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        assert_same_per_node(&g, &enumerate_cuts_with(&g, params), &arena);
    }

    #[test]
    fn update_matches_scratch_after_cascade_collapse() {
        // Replacing by a constant collapses a fanout chain and
        // reclaims nodes: the refreshed lists of dead nodes shrink to
        // the unit cut, exactly as from-scratch enumeration emits them.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        let z = g.or(y, p[0]);
        g.add_po(z);
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        g.replace_node(x.node(), crate::graph::Lit::FALSE);
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        assert_same_per_node(&g, &enumerate_cuts_with(&g, params), &arena);
    }

    #[test]
    fn update_with_empty_delta_is_noop() {
        let mut g = reconvergent_aig();
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut arena = enumerate_cuts_with(&g, params);
        let (cuts_before, leaves_before) = (arena.num_cuts(), arena.num_leaves());
        g.begin_edit();
        let delta = g.end_edit();
        assert!(delta.is_empty());
        arena.update(&g, &delta, params);
        if cntfet_boolfn::cache::enabled() {
            assert_eq!(arena.num_cuts(), cuts_before);
            assert_eq!(arena.num_leaves(), leaves_before);
        }
        assert_same_per_node(&g, &enumerate_cuts_with(&g, params), &arena);
    }

    #[test]
    fn update_matches_scratch_on_topological_edit() {
        // Replacing by an already-present lower-id node keeps the
        // graph topological in id order: no fanin reads as an empty
        // list, unlike the re-association edits above.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let a1 = g.and(p[0], p[1]);
        let top1 = g.and(a1, p[2]);
        let a2 = g.and(p[0], p[1].negate());
        let top2 = g.and(a2, p[2]);
        g.add_po(top1);
        g.add_po(top2);
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        g.replace_node(a2.node(), a1);
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        assert_same_per_node(&g, &enumerate_cuts_with(&g, params), &arena);
    }

    #[test]
    fn update_matches_scratch_on_larger_session() {
        // Several re-associations in one session over a reconvergent
        // graph: cascades may merge or kill nodes collected earlier,
        // and the delta must still drive the arena to the from-scratch
        // fixpoint.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = reconvergent_aig();
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        let ands: Vec<NodeId> = g.and_ids().collect();
        let mut done = 0;
        for id in ands {
            if done == 3 {
                break;
            }
            if !g.is_and(id) {
                continue; // died in an earlier cascade
            }
            let (f0, f1) = g.fanins(id);
            if f0.is_complement() || !g.is_and(f0.node()) {
                continue;
            }
            // (g0·g1)·f1 → g0·(g1·f1).
            let (g0, g1) = g.fanins(f0.node());
            let inner = g.and(g1, f1);
            let outer = g.and(g0, inner);
            g.replace_node(id, outer);
            done += 1;
        }
        assert!(done > 0, "expected at least one re-association");
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        assert_same_per_node(&g, &enumerate_cuts_with(&g, params), &arena);
    }

    #[test]
    fn rebase_matches_scratch_after_compaction() {
        // The full persistent-arena cycle: edit → update (on the
        // edited graph) → compact_with_map → rebase, checked against
        // from-scratch enumeration of the compacted graph.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = Aig::new("t");
        let p = g.add_pis(4);
        let c1 = g.and(p[0], p[1]);
        let c2 = g.and(c1, p[2]);
        let top = g.and(c2, p[3]);
        g.add_po(top);
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        let r = g.and(p[1], p[2]);
        let c2b = g.and(p[0], r);
        g.replace_node(c2.node(), c2b);
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        let (compacted, map) = g.compact_with_map();
        arena.rebase(&map, &compacted, params);
        assert_same_per_node(&compacted, &enumerate_cuts_with(&compacted, params), &arena);
    }

    #[test]
    fn rebase_matches_scratch_on_larger_session() {
        // Several re-associations (as in the update test) followed by
        // compaction; cascades reclaim nodes so the remap really
        // renumbers, and wide (k = 8, no in-pass functions) arenas ride
        // along too.
        for k in [4, 8] {
            let params = CutParams { k, max_cuts: 6, rank: CutRank::Size };
            let mut g = reconvergent_aig();
            let mut arena = enumerate_cuts_with(&g, params);
            g.begin_edit();
            let ands: Vec<NodeId> = g.and_ids().collect();
            let mut done = 0;
            for id in ands {
                if done == 3 {
                    break;
                }
                if !g.is_and(id) {
                    continue;
                }
                let (f0, f1) = g.fanins(id);
                if f0.is_complement() || !g.is_and(f0.node()) {
                    continue;
                }
                let (g0, g1) = g.fanins(f0.node());
                let inner = g.and(g1, f1);
                let outer = g.and(g0, inner);
                g.replace_node(id, outer);
                done += 1;
            }
            assert!(done > 0, "expected at least one re-association");
            let delta = g.end_edit();
            arena.update(&g, &delta, params);
            let (compacted, map) = g.compact_with_map();
            arena.rebase(&map, &compacted, params);
            assert_same_per_node(&compacted, &enumerate_cuts_with(&compacted, params), &arena);
        }
    }

    #[test]
    fn rebase_falls_back_when_compaction_folds() {
        // Replacing by a constant makes compaction fold nodes away
        // (the survivor map is not a positive bijection), so rebase
        // must detect it and rebuild — still matching from-scratch.
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        let z = g.or(y, p[0]);
        g.add_po(z);
        g.add_po(x);
        let mut arena = enumerate_cuts_with(&g, params);
        g.begin_edit();
        g.replace_node(y.node(), p[2]);
        let delta = g.end_edit();
        arena.update(&g, &delta, params);
        let (compacted, map) = g.compact_with_map();
        arena.rebase(&map, &compacted, params);
        assert_same_per_node(&compacted, &enumerate_cuts_with(&compacted, params), &arena);
    }

    #[test]
    fn wide_cuts_fall_back_to_cone_walk() {
        let mut g = Aig::new("wide");
        let pis = g.add_pis(8);
        let x = g.xor_many(&pis);
        g.add_po(x);
        let cs = enumerate_cuts(&g, 8, 16);
        assert!(!cs.has_functions());
        let root = g.pos()[0].node();
        let wide = cs.of(root).max_by_key(|c| c.size()).unwrap();
        assert!(wide.function().is_none());
        let tt = cut_function(&g, root, wide.leaves());
        assert_eq!(tt.nvars(), wide.size());
    }
}
