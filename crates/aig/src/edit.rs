//! In-place AIG editing: fanout-aware node replacement, MFFC
//! (maximum fanout-free cone) reference-count walks, and
//! strash-consistent node reclamation.
//!
//! The DAG-aware synthesis passes in `cntfet-synth` edit one graph
//! instead of rebuilding it per pass: a replacement redirects every
//! fanout of a node to an equivalent literal, cascades structural
//! re-hashing (a patched fanout whose new fanin pair already exists in
//! the strash merges into the existing node), and reclaims the
//! unreferenced cone. The bookkeeping lives in an explicit *editing
//! session*:
//!
//! ```
//! use cntfet_aig::Aig;
//!
//! let mut g = Aig::new("t");
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let slow = g.and(a, b);
//! let top = g.and(slow, a.negate());   // == FALSE, but built structurally
//! g.add_po(top);
//!
//! g.begin_edit();
//! assert_eq!(g.mffc_size(top.node()), 2); // both ANDs die with `top`
//! g.replace_node(top.node(), cntfet_aig::Lit::FALSE);
//! g.end_edit();
//! let g = g.compact();
//! assert_eq!(g.num_ands(), 0);
//! assert!(!g.eval(&[true, true])[0]);
//! ```
//!
//! Replacements may append nodes whose fanouts carry smaller ids, so
//! an edited graph's id order is no longer topological; the traversal
//! helpers ([`Aig::levels`], [`Aig::eval`], [`Aig::compact`], …) run
//! over [`Aig::topo_order`] and stay exact, and `compact()` restores
//! ascending topological ids.

use crate::graph::{Aig, Lit, Node, NodeId};

/// Reference counts, fanout lists and replacement forwarding of one
/// editing session (see [`Aig::begin_edit`]).
#[derive(Debug, Clone)]
pub(crate) struct EditState {
    /// Number of graph edges into each node: AND fanin slots plus
    /// primary-output references.
    pub(crate) refs: Vec<u32>,
    /// AND nodes referencing each node. May contain stale entries for
    /// fanouts that died or were re-pointed; consumers verify against
    /// the actual fanin slots.
    pub(crate) fanouts: Vec<Vec<NodeId>>,
    /// Replacement forwarding: `fwd[n]` is the literal the (positive)
    /// node was replaced by, or its own positive literal while alive.
    pub(crate) fwd: Vec<Lit>,
}

impl EditState {
    fn build(aig: &Aig) -> EditState {
        let n = aig.num_nodes();
        let refs = aig.fanout_counts();
        let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for id in aig.and_ids() {
            let (f0, f1) = aig.fanins(id);
            fanouts[f0.node().index()].push(id);
            fanouts[f1.node().index()].push(id);
        }
        let fwd = (0..n).map(|i| NodeId::from_index(i).lit()).collect();
        EditState { refs, fanouts, fwd }
    }

    /// Extends the session state for `added` freshly appended nodes.
    pub(crate) fn grow(&mut self, added: usize) {
        for _ in 0..added {
            let id = NodeId::from_index(self.refs.len());
            self.refs.push(0);
            self.fanouts.push(Vec::new());
            self.fwd.push(id.lit());
        }
    }
}

impl Aig {
    /// Starts an in-place editing session: builds reference counts and
    /// fanout lists, enabling [`Aig::replace_node`] and the MFFC
    /// walks. [`Aig::and`]/[`Aig::add_po`] keep the bookkeeping
    /// current while the session is active.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active.
    pub fn begin_edit(&mut self) {
        assert!(self.edit.is_none(), "editing session already active");
        self.edit = Some(Box::new(EditState::build(self)));
    }

    /// Ends the editing session, dropping the bookkeeping. Dead nodes
    /// stay in the node array until [`Aig::compact`].
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub fn end_edit(&mut self) {
        assert!(self.edit.is_some(), "no editing session active");
        #[cfg(feature = "paranoid")]
        {
            let r = self.check();
            assert!(r.is_ok(), "paranoid: end_edit on a corrupt graph: {r:?}");
        }
        self.edit = None;
    }

    /// True while an editing session is active.
    pub fn is_editing(&self) -> bool {
        self.edit.is_some()
    }

    /// The session's reference count of a node (AND fanin slots plus
    /// primary-output references).
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active.
    pub fn ref_count(&self, id: NodeId) -> u32 {
        self.edit.as_ref().expect("no editing session active").refs[id.index()]
    }

    /// Resolves a literal through the session's replacement
    /// forwarding: if the literal's node was replaced (possibly through
    /// a chain of replacements), returns the literal it now stands for;
    /// otherwise returns the input. Nodes that were *reclaimed* without
    /// a replacement (interior MFFC nodes) resolve to themselves while
    /// dead — check [`Aig::is_dead`] on the result.
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active.
    pub fn resolve(&self, mut l: Lit) -> Lit {
        let edit = self.edit.as_ref().expect("no editing session active");
        loop {
            let f = edit.fwd[l.node().index()];
            if f.node() == l.node() {
                return l;
            }
            l = f.negate_if(l.is_complement());
        }
    }

    /// Dereferences the maximum fanout-free cone of `root`: walks the
    /// cone decrementing fanin reference counts, recursing into AND
    /// fanins whose count reaches zero, and returns the number of AND
    /// nodes (root included) that would be freed if `root` were
    /// removed. Must be undone with [`Aig::mffc_ref`] unless the cone
    /// is actually being replaced.
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active or `root` is not a live
    /// AND node.
    pub fn mffc_deref(&mut self, root: NodeId) -> usize {
        self.mffc_deref_collect(root, None)
    }

    /// [`Aig::mffc_deref`] that also appends the freed node ids (root
    /// first) to `out`.
    pub fn mffc_deref_into(&mut self, root: NodeId, out: &mut Vec<NodeId>) -> usize {
        self.mffc_deref_collect(root, Some(out))
    }

    fn mffc_deref_collect(&mut self, root: NodeId, mut out: Option<&mut Vec<NodeId>>) -> usize {
        assert!(self.is_and(root), "MFFC root must be a live AND node");
        let edit = self.edit.as_mut().expect("no editing session active");
        let mut count = 0;
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            count += 1;
            if let Some(out) = out.as_deref_mut() {
                out.push(x);
            }
            let node = self.nodes[x.index()];
            for f in [node.f0, node.f1] {
                let fi = f.node().index();
                edit.refs[fi] -= 1;
                if edit.refs[fi] == 0 && self.nodes[fi].is_and() {
                    stack.push(f.node());
                }
            }
        }
        count
    }

    /// Re-references the cone dereferenced by [`Aig::mffc_deref`]
    /// (exact inverse); returns the same node count.
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active.
    pub fn mffc_ref(&mut self, root: NodeId) -> usize {
        assert!(self.is_and(root), "MFFC root must be a live AND node");
        let edit = self.edit.as_mut().expect("no editing session active");
        let mut count = 0;
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            count += 1;
            let node = self.nodes[x.index()];
            for f in [node.f0, node.f1] {
                let fi = f.node().index();
                if edit.refs[fi] == 0 && self.nodes[fi].is_and() {
                    stack.push(f.node());
                }
                edit.refs[fi] += 1;
            }
        }
        count
    }

    /// Size (in AND nodes, root included) of the maximum fanout-free
    /// cone of `root`: the logic that would be freed if `root` were
    /// replaced — a deref walk immediately undone by a ref walk.
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active or `root` is not a live
    /// AND node.
    pub fn mffc_size(&mut self, root: NodeId) -> usize {
        let n = self.mffc_deref(root);
        let m = self.mffc_ref(root);
        debug_assert_eq!(n, m);
        n
    }

    /// Replaces every reference to `old` (AND fanin slots and primary
    /// outputs) by the equivalent literal `new`, then reclaims the
    /// unreferenced cone of `old`. Patched fanouts are re-hashed:
    /// trivial fanin pairs collapse to a literal and pairs that
    /// already exist in the strash merge into the existing node, both
    /// cascading further replacements. The caller asserts that `new`
    /// computes the same global function as `old`.
    ///
    /// After the call, `old` (and any cascade-merged node) resolves to
    /// its replacement via [`Aig::resolve`]; id order may no longer be
    /// topological until [`Aig::compact`].
    ///
    /// # Panics
    ///
    /// Panics if no editing session is active, `old` is not a live AND
    /// node, or `new` points to a dead node.
    pub fn replace_node(&mut self, old: NodeId, new: Lit) {
        assert!(self.edit.is_some(), "no editing session active");
        assert!(self.is_and(old), "replaced node must be a live AND node");
        assert!(!self.is_dead(new.node()), "replacement literal is dead");
        // Fanouts of `old` may now reference later-appended nodes:
        // ascending id order is no longer topological.
        self.edited = true;
        let mut work: Vec<(NodeId, Lit)> = vec![(old, new)];
        while let Some((o, n)) = work.pop() {
            if self.is_dead(o) {
                continue; // already merged away by a cascade
            }
            let mut n = self.resolve(n);
            if n.node() == o {
                continue;
            }
            if self.is_dead(n.node()) {
                // The merge target vanished (reclaimed elsewhere in the
                // cascade): re-home `o` under its own key instead, or
                // merge into whichever live node owns it now.
                let node = self.nodes[o.index()];
                let key = (node.f0.code(), node.f1.code());
                match self.strash.get(&key) {
                    Some(&z) if z != o => n = z.lit(),
                    Some(_) => continue,
                    None => {
                        self.strash.insert(key, o);
                        continue;
                    }
                }
            }

            // Patch primary outputs.
            for i in 0..self.pos.len() {
                let po = self.pos[i];
                if po.node() == o {
                    self.pos[i] = n.negate_if(po.is_complement());
                    let edit = self.edit.as_mut().expect("session checked active on entry");
                    edit.refs[o.index()] -= 1;
                    edit.refs[n.node().index()] += 1;
                }
            }

            // Patch AND fanouts, re-hashing each.
            let fanouts =
                std::mem::take(&mut self.edit.as_mut().expect("session active").fanouts[o.index()]);
            for f_id in fanouts {
                let fnode = self.nodes[f_id.index()];
                if !fnode.is_and() || (fnode.f0.node() != o && fnode.f1.node() != o) {
                    continue; // stale entry: fanout died or was re-pointed
                }
                let (f0, f1) = (fnode.f0, fnode.f1);
                let old_key = (f0.code(), f1.code());
                if self.strash.get(&old_key) == Some(&f_id) {
                    self.strash.remove(&old_key);
                }
                let nf0 = if f0.node() == o { n.negate_if(f0.is_complement()) } else { f0 };
                let nf1 = if f1.node() == o { n.negate_if(f1.is_complement()) } else { f1 };
                let edit = self.edit.as_mut().expect("session checked active on entry");
                for (old_f, new_f) in [(f0, nf0), (f1, nf1)] {
                    if old_f != new_f {
                        edit.refs[o.index()] -= 1;
                        edit.refs[new_f.node().index()] += 1;
                        edit.fanouts[new_f.node().index()].push(f_id);
                    }
                }
                // Trivial simplifications leave the stored fanins
                // semantically exact (TRUE·x, x·x, …) while the node
                // awaits its own cascade replacement.
                let collapsed = if nf0 == Lit::FALSE || nf1 == Lit::FALSE || nf0 == nf1.negate() {
                    Some(Lit::FALSE)
                } else if nf0 == Lit::TRUE {
                    Some(nf1)
                } else if nf1 == Lit::TRUE || nf0 == nf1 {
                    Some(nf0)
                } else {
                    None
                };
                let (w0, w1) =
                    if nf0.code() <= nf1.code() { (nf0, nf1) } else { (nf1, nf0) };
                self.nodes[f_id.index()] = Node { f0: w0, f1: w1 };
                match collapsed {
                    Some(l) => work.push((f_id, l)),
                    None => {
                        let key = (w0.code(), w1.code());
                        match self.strash.get(&key) {
                            Some(&z) if z != f_id => work.push((f_id, z.lit())),
                            _ => {
                                self.strash.insert(key, f_id);
                            }
                        }
                    }
                }
            }

            let edit = self.edit.as_mut().expect("session active");
            edit.fwd[o.index()] = n;
            if edit.refs[o.index()] == 0 {
                self.reclaim(o);
            }
        }
    }

    /// Reclaims the unreferenced cone rooted at `root`: removes each
    /// node's strash entry, dereferences its fanins (recursing into
    /// newly unreferenced AND nodes) and marks it dead.
    fn reclaim(&mut self, root: NodeId) {
        let mut stack = vec![root];
        while let Some(x) = stack.pop() {
            let xi = x.index();
            let node = self.nodes[xi];
            if !node.is_and() || self.edit.as_ref().expect("session active").refs[xi] != 0 {
                continue;
            }
            let key = (node.f0.code(), node.f1.code());
            if self.strash.get(&key) == Some(&x) {
                self.strash.remove(&key);
            }
            let edit = self.edit.as_mut().expect("session active");
            for f in [node.f0, node.f1] {
                let fi = f.node().index();
                edit.refs[fi] -= 1;
                edit.fanouts[fi].retain(|&y| y != x);
                if edit.refs[fi] == 0 && self.nodes[fi].is_and() {
                    stack.push(f.node());
                }
            }
            self.nodes[xi] = Node { f0: crate::graph::LIT_DEAD, f1: crate::graph::LIT_DEAD };
            self.edit.as_mut().expect("session active").fanouts[xi].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{Aig, Lit};

    #[test]
    fn refs_match_fanout_counts() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.or(x, a);
        g.add_po(y);
        g.add_po(x);
        g.begin_edit();
        let fo = g.fanout_counts();
        for id in g.node_ids() {
            assert_eq!(g.ref_count(id), fo[id.index()]);
        }
    }

    #[test]
    fn mffc_excludes_shared_logic() {
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let shared = g.and(p[0], p[1]);
        let inner = g.and(shared, p[2]);
        let root = g.and(inner, p[0].negate());
        let other = g.and(shared, p[2].negate()); // keeps `shared` alive
        g.add_po(root.negate_if(false));
        g.add_po(other);
        g.begin_edit();
        // root's MFFC: root + inner; `shared` survives via `other`.
        assert_eq!(g.mffc_size(root.node()), 2);
        assert_eq!(g.mffc_size(other.node()), 1);
        // deref/ref roundtrip restores counts exactly.
        let fo = g.fanout_counts();
        for id in g.node_ids() {
            assert_eq!(g.ref_count(id), fo[id.index()]);
        }
    }

    #[test]
    fn replace_redirects_pos_and_reclaims() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let slow = g.xor(p[0], p[1]); // 3 AND nodes
        g.add_po(slow.negate());
        g.begin_edit();
        // Replace the xor root by a freshly built equivalent.
        let n0 = g.and(p[0], p[1].negate());
        let n1 = g.and(p[0].negate(), p[1]);
        let fast = g.or(n0, n1); // strashes onto the existing xor nodes
        assert_eq!(fast, slow, "identical structure must strash-hit");
        let before = g.num_ands();
        g.replace_node(slow.node(), slow); // no-op replacement
        assert_eq!(g.num_ands(), before);

        // Now replace via the xnor identity. `slow` is a complemented
        // literal (`or` negates), so the node itself computes XNOR —
        // the replacement literal must compute XNOR too.
        assert!(slow.is_complement());
        let xnor = {
            let e0 = g.and(p[0], p[1]);
            let e1 = g.and(p[0].negate(), p[1].negate());
            g.or(e0, e1)
        };
        g.replace_node(slow.node(), xnor);
        g.end_edit();
        let c = g.compact();
        for m in 0..4u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0];
            assert_eq!(c.eval(&ins)[0], !(ins[0] ^ ins[1]));
        }
    }

    #[test]
    fn replace_with_constant_collapses_cascade() {
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        let z = g.or(y, p[0]);
        g.add_po(z);
        g.begin_edit();
        // Pretend x was proved constant false: y collapses to FALSE,
        // z collapses to p[0].
        g.replace_node(x.node(), Lit::FALSE);
        assert_eq!(g.resolve(z), p[0]);
        g.end_edit();
        let c = g.compact();
        assert_eq!(c.num_ands(), 0);
        for m in 0..8u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            assert_eq!(c.eval(&ins)[0], ins[0]);
        }
    }

    #[test]
    fn cascade_merges_structural_duplicates() {
        let mut g = Aig::new("t");
        let p = g.add_pis(3);
        let a1 = g.and(p[0], p[1]);
        let top1 = g.and(a1, p[2]);
        // A parallel branch over a different first gate.
        let a2 = g.and(p[0], p[1].negate());
        let top2 = g.and(a2, p[2]);
        g.add_po(top1);
        g.add_po(top2);
        g.begin_edit();
        // Replacing a2 by a1 makes top2 structurally identical to
        // top1: the cascade must merge them.
        g.replace_node(a2.node(), a1);
        assert_eq!(g.resolve(top2).node(), g.resolve(top1).node());
        g.end_edit();
        let c = g.compact();
        assert_eq!(c.num_ands(), 2);
    }

    #[test]
    fn edited_graph_traversals_stay_exact() {
        // Build, edit so that a fanout precedes its fanin in id order,
        // then check levels/eval/depth agree with the compacted graph.
        let mut g = Aig::new("t");
        let p = g.add_pis(4);
        let chain1 = g.and(p[0], p[1]);
        let chain2 = g.and(chain1, p[2]);
        let top = g.and(chain2, p[3]);
        g.add_po(top);
        g.begin_edit();
        // Replace chain2 by a deeper (but equivalent) re-association:
        // (p0·p1)·p2 == p0·(p1·p2).
        let r = g.and(p[1], p[2]);
        let chain2b = g.and(p[0], r);
        g.replace_node(chain2.node(), chain2b);
        g.end_edit();
        let c = g.compact();
        assert_eq!(g.depth(), c.depth());
        for m in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|v| m >> v & 1 == 1).collect();
            assert_eq!(g.eval(&ins), c.eval(&ins));
        }
    }
}
