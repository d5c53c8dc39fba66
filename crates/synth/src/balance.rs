//! In-place AND-tree balancing: every maximal single-fanout AND tree
//! is flattened into its leaves and recombined lowest-level-first
//! (Huffman style), minimizing the tree's depth. Shared logic (fanout
//! above 1) stays shared; the replacement happens through
//! [`Aig::replace_node`], so only trees whose balanced form differs
//! structurally cost anything.

use cntfet_aig::{Aig, Lit, NodeId};

/// The balancing pass (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Balance;

impl crate::Pass for Balance {
    fn name(&self) -> String {
        "balance".into()
    }

    fn apply(&mut self, aig: &mut Aig) -> usize {
        balance_inplace(aig)
    }
}

/// Runs one in-place balancing sweep; returns the number of
/// restructured trees. The result is compacted unless the sweep was
/// a no-op.
pub fn balance_inplace(aig: &mut Aig) -> usize {
    assert!(!aig.is_editing(), "pass expects sole ownership of the graph");
    let n0 = aig.num_nodes();
    let mut lv = aig.levels();
    let mut applied = 0usize;
    aig.begin_edit();
    for idx in 1..n0 {
        let id = NodeId::from_index(idx);
        if !aig.is_and(id) || aig.ref_count(id) == 0 {
            continue;
        }
        // Flatten the multi-input AND through non-complemented,
        // single-fanout AND edges (the node's private tree).
        let (f0, f1) = aig.fanins(id);
        let mut leaves: Vec<Lit> = Vec::new();
        let mut stack = vec![f0, f1];
        while let Some(l) = stack.pop() {
            if !l.is_complement() && aig.is_and(l.node()) && aig.ref_count(l.node()) == 1 {
                let (a, b) = aig.fanins(l.node());
                stack.push(a);
                stack.push(b);
            } else {
                leaves.push(l);
            }
        }
        // Combine the two lowest-level operands repeatedly. Leaf
        // levels are refreshed one step from each leaf's current
        // fanins: cascade merges in earlier replacements can re-point
        // fanins at deeper nodes, and visited nodes re-record their
        // level below, so one step keeps the combine order honest.
        let mut queue: Vec<(u32, Lit)> = leaves
            .into_iter()
            .map(|l| (refreshed_level(aig, &mut lv, l.node()), l))
            .collect();
        while queue.len() > 1 {
            queue.sort_by_key(|&(level, l)| (std::cmp::Reverse(level), std::cmp::Reverse(l.code())));
            let (_, a) = queue.pop().expect("balance queue keeps two entries");
            let (_, b) = queue.pop().expect("balance queue keeps two entries");
            let n = aig.and(a, b);
            let level = level_of(aig, &mut lv, n.node());
            queue.push((level, n));
        }
        let new = queue.pop().map(|(_, l)| l).unwrap_or(Lit::TRUE);
        if new.node() != id {
            aig.replace_node(id, new);
            // Record the replacement root's level so later trees
            // combine on the fresh value.
            let root = new.node();
            lv[root.index()] = refreshed_level(aig, &mut lv, root);
            applied += 1;
        } else {
            // Unchanged tree: refresh this node's level from its
            // current fanins so parents combine on fresh values.
            lv[id.index()] = refreshed_level(aig, &mut lv, id);
        }
    }
    aig.end_edit();
    if applied > 0 {
        *aig = aig.compact();
    }
    applied
}

/// Level of a node, extending the level array for nodes appended
/// since the pass started (their fanins always precede them in id
/// order, so one forward fill suffices).
fn level_of(aig: &Aig, lv: &mut Vec<u32>, id: NodeId) -> u32 {
    while lv.len() < aig.num_nodes() {
        let next = NodeId::from_index(lv.len());
        let level = if aig.is_and(next) {
            let (a, b) = aig.fanins(next);
            1 + lv[a.node().index()].max(lv[b.node().index()])
        } else {
            0
        };
        lv.push(level);
    }
    lv[id.index()]
}

/// [`level_of`] recomputed one step from the node's *current* fanins
/// (live AND nodes only) — corrects the recorded level after an
/// earlier replacement re-pointed the fanins.
fn refreshed_level(aig: &Aig, lv: &mut Vec<u32>, id: NodeId) -> u32 {
    if !aig.is_and(id) {
        return level_of(aig, lv, id);
    }
    let (a, b) = aig.fanins(id);
    let la = level_of(aig, lv, a.node());
    let lb = level_of(aig, lv, b.node());
    1 + la.max(lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AigStats;
    use cntfet_aig::equivalent;

    fn unbalanced_and(n: usize) -> Aig {
        let mut g = Aig::new("and_chain");
        let pis = g.add_pis(n);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        g
    }

    #[test]
    fn balance_reduces_and_chain_depth() {
        let g = unbalanced_and(16);
        assert_eq!(g.depth(), 15);
        let mut b = g.clone();
        balance_inplace(&mut b);
        assert_eq!(b.depth(), 4);
        assert!(equivalent(&g, &b));
    }

    #[test]
    fn balance_preserves_function_on_xor_trees() {
        let mut g = Aig::new("chain");
        let pis = g.add_pis(8);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.xor(acc, p);
        }
        g.add_po(acc);
        let mut b = g.clone();
        balance_inplace(&mut b);
        assert!(equivalent(&g, &b));
        assert!(b.depth() <= g.depth());
    }

    /// `(ands, depth)` of the seed-era rebuild balance on
    /// `unbalanced_and(n)`, recorded before that engine was deleted.
    const SEED_AND_CHAINS: [(usize, AigStats); 5] = [
        (3, AigStats { ands: 2, depth: 2 }),
        (5, AigStats { ands: 4, depth: 3 }),
        (9, AigStats { ands: 8, depth: 4 }),
        (17, AigStats { ands: 16, depth: 5 }),
        (31, AigStats { ands: 30, depth: 5 }),
    ];

    #[test]
    fn balance_matches_seed_balance_quality() {
        // Same flatten rule, same combine rule: the in-place pass must
        // never end worse than the seed rebuild did on these shapes.
        for (n, seed) in SEED_AND_CHAINS {
            let g = unbalanced_and(n);
            let mut inp = g.clone();
            balance_inplace(&mut inp);
            assert!(equivalent(&g, &inp));
            let stats = AigStats::of(&inp);
            assert!(!seed.better_than(&stats), "n={n}: in-place {stats:?} vs seed {seed:?}");
        }
    }
}
