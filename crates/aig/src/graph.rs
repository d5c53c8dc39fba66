//! The And-Inverter Graph structure with structural hashing.

use cntfet_boolfn::hash::{FastHash, FastMap};
use std::fmt;

/// An edge in the AIG: a node index plus an optional complement flag.
///
/// `Lit(0)` is constant false and `Lit(1)` constant true (node 0 is
/// the constant node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

/// Sentinel literal used for the fanins of non-AND nodes.
const LIT_NONE: Lit = Lit(u32::MAX);

/// Sentinel literal marking a reclaimed (dead) node during in-place
/// editing; dead nodes are skipped by every traversal and physically
/// removed by [`Aig::compact`].
pub(crate) const LIT_DEAD: Lit = Lit(u32::MAX - 1);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node id and complement flag.
    pub fn new(node: NodeId, complement: bool) -> Lit {
        Lit(node.0 << 1 | complement as u32)
    }

    /// The node this literal points to.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the edge is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Complements iff `c` is true.
    #[must_use]
    pub fn negate_if(self, c: bool) -> Lit {
        Lit(self.0 ^ c as u32)
    }

    /// Raw encoding (node << 1 | complement).
    pub fn code(self) -> u32 {
        self.0
    }

    /// Rebuilds from [`Lit::code`].
    pub fn from_code(code: u32) -> Lit {
        Lit(code)
    }

    /// True for the constant literals.
    pub fn is_const(self) -> bool {
        self.node() == NodeId(0)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Lit::FALSE {
            write!(f, "0")
        } else if *self == Lit::TRUE {
            write!(f, "1")
        } else if self.is_complement() {
            write!(f, "¬n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

/// Index of a node in the AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant node (id 0).
    pub const CONST: NodeId = NodeId(0);

    /// Builds a node id from a raw index (callers must ensure it is in
    /// range for the AIG it is used with).
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this node.
    pub fn lit(self) -> Lit {
        Lit::new(self, false)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) f0: Lit,
    pub(crate) f1: Lit,
}

impl Node {
    pub(crate) fn is_and(&self) -> bool {
        self.f0 != LIT_NONE && self.f0 != LIT_DEAD
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.f0 == LIT_DEAD
    }
}

/// A structurally-hashed combinational And-Inverter Graph.
///
/// # Examples
///
/// ```
/// use cntfet_aig::Aig;
///
/// let mut aig = Aig::new("xor2");
/// let a = aig.add_pi();
/// let b = aig.add_pi();
/// let x = aig.xor(a, b);
/// aig.add_po(x);
/// assert_eq!(aig.num_ands(), 3);
/// assert!(aig.eval(&[true, false])[0]);
/// assert!(!aig.eval(&[true, true])[0]);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    name: String,
    pub(crate) nodes: Vec<Node>,
    pis: Vec<NodeId>,
    pub(crate) pos: Vec<Lit>,
    /// Structural hashing: sorted fanin codes → AND node. Keyed with
    /// the process's [`FastHash`] seed, so a crafted input cannot
    /// force its probes into one bucket.
    pub(crate) strash: FastMap<(u32, u32), NodeId>,
    /// Reference counts and fanout lists, live during an in-place
    /// editing session (see [`Aig::begin_edit`]). Boxed, so a graph
    /// outside a session stays small to move and store.
    pub(crate) edit: Option<Box<crate::edit::EditState>>,
    /// Set by [`Aig::replace_node`]: ascending id order may no longer
    /// be topological, so traversals must take the DFS path. Fresh and
    /// compacted graphs keep it false (plain construction appends
    /// nodes after their fanins and cannot break the order).
    pub(crate) edited: bool,
}

impl Aig {
    /// Creates an empty AIG.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_hasher(name.into(), FastHash::default())
    }

    /// An empty AIG whose strash is keyed with `seed` instead of the
    /// process's seed.
    #[cfg(test)]
    pub(crate) fn with_strash_seed(name: impl Into<String>, seed: u64) -> Self {
        Self::with_hasher(name.into(), FastHash::with_seed(seed))
    }

    fn with_hasher(name: String, hasher: FastHash) -> Self {
        Aig {
            name,
            nodes: vec![Node { f0: LIT_NONE, f1: LIT_NONE }], // constant node
            pis: Vec::new(),
            pos: Vec::new(),
            strash: FastMap::with_hasher(hasher),
            edit: None,
            edited: false,
        }
    }

    /// Name of the network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network (note that [`Aig::fingerprint`] covers the
    /// name, so renaming changes the fingerprint).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary input; returns its (positive) literal.
    pub fn add_pi(&mut self) -> Lit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { f0: LIT_NONE, f1: LIT_NONE });
        self.pis.push(id);
        if let Some(edit) = &mut self.edit {
            edit.grow(1);
        }
        id.lit()
    }

    /// Adds `n` primary inputs.
    pub fn add_pis(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.add_pi()).collect()
    }

    /// Registers a primary output.
    pub fn add_po(&mut self, l: Lit) {
        debug_assert!(l.node().index() < self.nodes.len());
        self.pos.push(l);
        if let Some(edit) = &mut self.edit {
            edit.refs[l.node().index()] += 1;
        }
    }

    /// The AND of two literals (standard simplifications plus
    /// structural hashing).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Trivial rules and structural hashing live in `find_and`, so
        // dry-run costing and real construction can never disagree.
        if let Some(l) = self.find_and(a, b) {
            return l;
        }
        let key = if a.code() < b.code() {
            (a.code(), b.code())
        } else {
            (b.code(), a.code())
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { f0: Lit(key.0), f1: Lit(key.1) });
        self.strash.insert(key, id);
        if let Some(edit) = &mut self.edit {
            edit.grow(1);
            for f in [Lit(key.0), Lit(key.1)] {
                edit.refs[f.node().index()] += 1;
                edit.fanouts[f.node().index()].push(id);
            }
        }
        id.lit()
    }

    /// Probes for an AND of two literals without creating anything:
    /// `Some` when the trivial simplification rules resolve the pair or
    /// a structurally-hashed node already exists, `None` when
    /// [`Aig::and`] would have to allocate a fresh node. This is the
    /// single home of the simplification rules — `and()` delegates to
    /// it — and the dry-run primitive behind rewriting gain
    /// evaluation.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        // Constant / trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == b.negate() {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE || a == b {
            return Some(a);
        }
        let key = if a.code() < b.code() {
            (a.code(), b.code())
        } else {
            (b.code(), a.code())
        };
        self.strash.get(&key).map(|&id| id.lit())
    }

    /// The OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.negate(), b.negate()).negate()
    }

    /// The XOR of two literals (three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n0 = self.and(a, b.negate());
        let n1 = self.and(a.negate(), b);
        self.or(n0, n1)
    }

    /// The XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).negate()
    }

    /// if `s` then `t` else `e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(s.negate(), e);
        self.or(a, b)
    }

    /// AND over many literals (balanced reduction).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce(lits, Lit::TRUE, Self::and)
    }

    /// OR over many literals (balanced reduction).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce(lits, Lit::FALSE, Self::or)
    }

    /// XOR over many literals (balanced reduction).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce(lits, Lit::FALSE, Self::xor)
    }

    fn reduce(&mut self, lits: &[Lit], unit: Lit, mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit) -> Lit {
        match lits.len() {
            0 => unit,
            1 => lits[0],
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            op(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Number of nodes (constant + PIs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and()).count()
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Primary inputs.
    pub fn pis(&self) -> &[NodeId] {
        &self.pis
    }

    /// Primary outputs.
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Replaces output `i` with a new literal.
    pub fn set_po(&mut self, i: usize, l: Lit) {
        if let Some(edit) = &mut self.edit {
            edit.refs[self.pos[i].node().index()] -= 1;
            edit.refs[l.node().index()] += 1;
        }
        self.pos[i] = l;
    }

    /// True iff the node is an AND gate.
    pub fn is_and(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_and()
    }

    /// True iff the node was reclaimed by in-place editing (see
    /// [`Aig::replace_node`]); dead nodes are skipped by traversals and
    /// removed by [`Aig::compact`].
    pub fn is_dead(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_dead()
    }

    /// True iff the node is a primary input.
    pub fn is_pi(&self, id: NodeId) -> bool {
        id != NodeId::CONST && !self.is_and(id) && !self.is_dead(id)
    }

    /// Fanins of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub fn fanins(&self, id: NodeId) -> (Lit, Lit) {
        let n = &self.nodes[id.index()];
        assert!(n.is_and(), "node {id:?} is not an AND");
        (n.f0, n.f1)
    }

    /// Iterates over all AND node ids in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len())
            .filter(move |&i| self.nodes[i].is_and())
            .map(|i| NodeId(i as u32))
    }

    /// All node ids including constant and PIs, topologically ordered.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// A 128-bit structural fingerprint of the graph: a deterministic
    /// hash of its name, primary inputs, every node's raw fanin codes
    /// and the primary-output literals, accumulated by two
    /// independently seeded splitmix-style streams. Equal structures
    /// (same name, same node array, same outputs) always produce equal
    /// fingerprints; distinct ones collide with probability ~2⁻¹²⁸.
    ///
    /// The walk is pure id order and never touches the strash table
    /// (whose iteration order is arbitrary), so the fingerprint is
    /// stable across processes, job counts and insertion histories —
    /// the property the batch service's result cache relies on to key
    /// whole requests.
    pub fn fingerprint(&self) -> u128 {
        let mut lo = FpStream { acc: 0x243F_6A88_85A3_08D3, mul: 0xBF58_476D_1CE4_E5B9 };
        let mut hi = FpStream { acc: 0x1319_8A2E_0370_7344, mul: 0xA076_1D64_78BD_642F };
        let mut put = |x: u64| {
            lo.put(x);
            hi.put(x);
        };
        let bytes = self.name.as_bytes();
        put(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            put(u64::from_le_bytes(w));
        }
        put(self.pis.len() as u64);
        for &pi in &self.pis {
            put(pi.index() as u64);
        }
        put(self.nodes.len() as u64);
        for n in &self.nodes {
            // The raw fanin pair distinguishes every node kind: ANDs
            // carry literal codes, PIs/constants the NONE sentinel,
            // reclaimed nodes the DEAD sentinel.
            put((n.f0.code() as u64) << 32 | n.f1.code() as u64);
        }
        put(self.pos.len() as u64);
        for po in &self.pos {
            put(po.code() as u64);
        }
        ((hi.acc as u128) << 64) | lo.acc as u128
    }

    /// All live AND nodes in a topological order (every node after its
    /// fanins). For freshly built or compacted graphs this is simply
    /// ascending id order; after in-place editing (where replacements
    /// append nodes whose fanouts have smaller ids) it is the order the
    /// DFS discovers, and the traversal helpers below use it so they
    /// stay correct on edited graphs.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut order = Vec::with_capacity(n);
        if !self.edited {
            // Never edited: ascending id order is already topological.
            order.extend(
                (0..n).filter(|&i| self.nodes[i].is_and()).map(|i| NodeId(i as u32)),
            );
            return order;
        }
        let mut done = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for root in 0..n {
            if done[root] || !self.nodes[root].is_and() {
                continue;
            }
            stack.push(NodeId(root as u32));
            while let Some(&x) = stack.last() {
                let xi = x.index();
                if done[xi] {
                    stack.pop();
                    continue;
                }
                let node = &self.nodes[xi];
                let mut ready = true;
                for f in [node.f0.node(), node.f1.node()] {
                    if self.nodes[f.index()].is_and() && !done[f.index()] {
                        stack.push(f);
                        ready = false;
                    }
                }
                if ready {
                    done[xi] = true;
                    order.push(x);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Logic level of every node (PIs/constant at level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for id in self.topo_order() {
            let n = &self.nodes[id.index()];
            lv[id.index()] = 1 + lv[n.f0.node().index()].max(lv[n.f1.node().index()]);
        }
        lv
    }

    /// Depth (maximum level over outputs).
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.pos.iter().map(|l| lv[l.node().index()]).max().unwrap_or(0)
    }

    /// Fanout counts (POs included).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if n.is_and() {
                fo[n.f0.node().index()] += 1;
                fo[n.f1.node().index()] += 1;
            }
        }
        for l in &self.pos {
            fo[l.node().index()] += 1;
        }
        fo
    }

    /// Evaluates all outputs for one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_pis()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.pis.len(), "input width mismatch");
        let mut val = vec![false; self.nodes.len()];
        for (pi, &v) in self.pis.iter().zip(inputs) {
            val[pi.index()] = v;
        }
        for id in self.topo_order() {
            let n = &self.nodes[id.index()];
            let a = val[n.f0.node().index()] ^ n.f0.is_complement();
            let b = val[n.f1.node().index()] ^ n.f1.is_complement();
            val[id.index()] = a && b;
        }
        self.pos
            .iter()
            .map(|l| val[l.node().index()] ^ l.is_complement())
            .collect()
    }

    /// 64-way parallel simulation: each input/output is a word of 64
    /// independent patterns. Returns per-node values (indexable by
    /// `NodeId::index`).
    pub fn simulate_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.pis.len(), "input width mismatch");
        let mut val = vec![0u64; self.nodes.len()];
        for (pi, &v) in self.pis.iter().zip(inputs) {
            val[pi.index()] = v;
        }
        for id in self.topo_order() {
            let n = &self.nodes[id.index()];
            let a = val[n.f0.node().index()] ^ if n.f0.is_complement() { !0 } else { 0 };
            let b = val[n.f1.node().index()] ^ if n.f1.is_complement() { !0 } else { 0 };
            val[id.index()] = a & b;
        }
        val
    }

    /// Value of a literal given a node-value vector from
    /// [`Aig::simulate_words`].
    pub fn lit_word(&self, values: &[u64], l: Lit) -> u64 {
        values[l.node().index()] ^ if l.is_complement() { !0 } else { 0 }
    }

    /// Returns a compacted copy containing only logic reachable from
    /// the outputs, with structural hashing re-applied.
    pub fn compact(&self) -> Aig {
        let mut out = Aig::with_hasher(self.name.clone(), *self.strash.hasher());
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        // PIs keep their order (all of them, even unused, so that the
        // interface stays stable).
        for &pi in &self.pis {
            map[pi.index()] = Some(out.add_pi());
        }
        // Mark reachable nodes.
        let mut reach = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.pos.iter().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if reach[id.index()] {
                continue;
            }
            reach[id.index()] = true;
            let n = &self.nodes[id.index()];
            if n.is_and() {
                stack.push(n.f0.node());
                stack.push(n.f1.node());
            }
        }
        // Rebuild in a DFS topological order, so edited graphs (whose
        // ids need not be topologically sorted any more) compact
        // correctly too.
        for id in self.topo_order() {
            if !reach[id.index()] {
                continue;
            }
            let n = &self.nodes[id.index()];
            let a = Self::map_lit(&map, n.f0);
            let b = Self::map_lit(&map, n.f1);
            map[id.index()] = Some(out.and(a, b));
        }
        for &po in &self.pos {
            let l = Self::map_lit(&map, po);
            out.add_po(l);
        }
        out
    }

    fn map_lit(map: &[Option<Lit>], l: Lit) -> Lit {
        map[l.node().index()]
            .expect("fanin must be mapped before use")
            .negate_if(l.is_complement())
    }

    /// Builds an AIG node for an [`cntfet_boolfn::Expr`] over the given
    /// leaf literals (index `v` of the expression maps to `leaves[v]`).
    pub fn build_expr(&mut self, e: &cntfet_boolfn::Expr, leaves: &[Lit]) -> Lit {
        use cntfet_boolfn::Expr;
        match e {
            Expr::Const(b) => {
                if *b {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            Expr::Var(v) => leaves[*v as usize],
            Expr::Not(inner) => self.build_expr(inner, leaves).negate(),
            Expr::And(es) => {
                let lits: Vec<Lit> = es.iter().map(|e| self.build_expr(e, leaves)).collect();
                self.and_many(&lits)
            }
            Expr::Or(es) => {
                let lits: Vec<Lit> = es.iter().map(|e| self.build_expr(e, leaves)).collect();
                self.or_many(&lits)
            }
            Expr::Xor(es) => {
                let lits: Vec<Lit> = es.iter().map(|e| self.build_expr(e, leaves)).collect();
                self.xor_many(&lits)
            }
        }
    }

    /// GraphViz dot output (for debugging / documentation).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph aig {\n  rankdir=BT;\n");
        for (i, &pi) in self.pis.iter().enumerate() {
            s.push_str(&format!("  n{} [shape=triangle,label=\"pi{}\"];\n", pi.0, i));
        }
        for id in self.and_ids() {
            let (a, b) = self.fanins(id);
            s.push_str(&format!("  n{} [shape=circle,label=\"∧\"];\n", id.0));
            for f in [a, b] {
                let style = if f.is_complement() { "dashed" } else { "solid" };
                s.push_str(&format!("  n{} -> n{} [style={}];\n", f.node().0, id.0, style));
            }
        }
        for (i, po) in self.pos.iter().enumerate() {
            let style = if po.is_complement() { "dashed" } else { "solid" };
            s.push_str(&format!("  po{i} [shape=invtriangle,label=\"po{i}\"];\n"));
            s.push_str(&format!("  n{} -> po{} [style={}];\n", po.node().0, i, style));
        }
        s.push_str("}\n");
        s
    }
}

/// One stream of [`Aig::fingerprint`]: a seeded splitmix64-style
/// multiply-xor accumulator. Two streams with independent seeds and
/// middle multipliers give the fingerprint its 128 bits.
struct FpStream {
    acc: u64,
    mul: u64,
}

impl FpStream {
    fn put(&mut self, x: u64) {
        let mut z = self.acc ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(self.mul);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.acc = z ^ (z >> 31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_hashing_dedups() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn fingerprint_separates_structures() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let base = g.fingerprint();
        // Deterministic across calls and across an identical rebuild.
        assert_eq!(base, g.fingerprint());
        let mut g2 = Aig::new("t");
        let a2 = g2.add_pi();
        let b2 = g2.add_pi();
        let x2 = g2.and(a2, b2);
        g2.add_po(x2);
        assert_eq!(base, g2.fingerprint());
        // Name, output polarity and structure all separate.
        let mut renamed = g.clone();
        renamed.name = "u".into();
        assert_ne!(base, renamed.fingerprint());
        let mut flipped = g.clone();
        flipped.set_po(0, x.negate());
        assert_ne!(base, flipped.fingerprint());
        let mut grown = g.clone();
        let c = grown.add_pi();
        let y = grown.and(x, c);
        grown.set_po(0, y);
        assert_ne!(base, grown.fingerprint());
    }

    #[test]
    fn strash_seed_never_reaches_a_result() {
        // A suite circuit rebuilt under two strash seeds, then
        // compacted: the node arrays and fingerprints agree.
        let bench = cntfet_circuits::paper_benchmarks()
            .into_iter()
            .find(|b| b.name == "C1908")
            .expect("the suite has C1908");
        let src = &bench.aig;
        let build = |seed| {
            let mut g = Aig::with_strash_seed(src.name(), seed);
            let mut map = vec![Lit::FALSE; src.num_nodes()];
            for pi in src.pis() {
                map[pi.index()] = g.add_pi();
            }
            let lit = |map: &[Lit], code: u32| map[code as usize >> 1].negate_if(code & 1 == 1);
            for id in src.and_ids() {
                let (a, b) = src.fanins(id);
                map[id.index()] = g.and(lit(&map, a.code()), lit(&map, b.code()));
            }
            for po in src.pos() {
                let l = lit(&map, po.code());
                g.add_po(l);
            }
            g.compact()
        };
        let (a, b) = (build(1), build(0x9E37_79B9_7F4A_7C15));
        let fanins = |g: &Aig| g.nodes.iter().map(|n| (n.f0, n.f1)).collect::<Vec<_>>();
        assert_eq!(fanins(&a), fanins(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn trivial_rules() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.negate()), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn eval_full_adder() {
        let mut g = Aig::new("fa");
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.xor(a, b);
        let sum = g.xor(ab, c);
        let c1 = g.and(a, b);
        let c2 = g.and(ab, c);
        let cout = g.or(c1, c2);
        g.add_po(sum);
        g.add_po(cout);
        for m in 0..8u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let outs = g.eval(&ins);
            let total = ins.iter().filter(|&&x| x).count();
            assert_eq!(outs[0], total % 2 == 1, "sum m={m}");
            assert_eq!(outs[1], total >= 2, "cout m={m}");
        }
    }

    #[test]
    fn word_sim_matches_eval() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let y = g.mux(c, x, a);
        g.add_po(y);
        // words: pattern i in bit i
        let ins: Vec<u64> = (0..3)
            .map(|v| {
                let mut w = 0u64;
                for m in 0..8u64 {
                    if m >> v & 1 == 1 {
                        w |= 1 << m;
                    }
                }
                w
            })
            .collect();
        let vals = g.simulate_words(&ins);
        let w = g.lit_word(&vals, g.pos()[0]);
        for m in 0..8u64 {
            let bits = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            assert_eq!(w >> m & 1 == 1, g.eval(&bits)[0]);
        }
    }

    #[test]
    fn compact_removes_dangling() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let _dead = g.xor(a, b); // 3 nodes, never used
        let keep = g.and(a, b);
        g.add_po(keep);
        // xor created 3 ands; and(a,b)... note xor internals include and(a,b')
        let compacted = g.compact();
        assert_eq!(compacted.num_ands(), 1);
        assert_eq!(compacted.num_pis(), 2);
        for m in 0..4u32 {
            let ins = [(m & 1) != 0, (m & 2) != 0];
            assert_eq!(g.eval(&ins), compacted.eval(&ins));
        }
    }

    #[test]
    fn build_from_expr() {
        let e: cntfet_boolfn::Expr = "(A⊕B)·C + A'·B'".parse().unwrap();
        let mut g = Aig::new("t");
        let leaves = g.add_pis(3);
        let l = g.build_expr(&e, &leaves);
        g.add_po(l);
        let tt = e.to_tt(3);
        for m in 0..8u64 {
            let ins: Vec<bool> = (0..3).map(|v| m >> v & 1 == 1).collect();
            assert_eq!(g.eval(&ins)[0], tt.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.add_po(y);
        assert_eq!(g.depth(), 2);
        let lv = g.levels();
        assert_eq!(lv[y.node().index()], 2);
        assert_eq!(lv[x.node().index()], 1);
    }

    #[test]
    fn dot_output_mentions_all_pos() {
        let mut g = Aig::new("t");
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let dot = g.to_dot();
        assert!(dot.contains("po0"));
        assert!(dot.contains("shape=triangle"));
    }
}
