//! Workspace property tests for the incrementality substrate:
//! random edit sequences driven through [`cntfet_aig::CutArena::update`]
//! must land on exactly the from-scratch cut lists, an arena must
//! survive compaction via
//! [`cntfet_aig::CutArena::rebase`] and keep absorbing deltas on the
//! compacted graph, and the NPN canonicalization memo must agree with
//! the direct canonicalizer on every query.

use cntfet_aig::{enumerate_cuts_with, Aig, CutArena, CutParams, CutRank, Lit, NodeId};
use cntfet_boolfn::{npn_canonical, npn_canonical_cached, CanonCache, TruthTable};
use cntfet_circuits::paper_benchmarks;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Builds a random DAG from a script of (op, operand indices) choices
/// (same shape as tests/properties.rs).
fn random_aig(num_pis: usize, script: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new("prop-incr");
    let pis = g.add_pis(num_pis);
    let mut pool: Vec<Lit> = pis;
    for &(op, ai, bi) in script {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        let l = match op % 6 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.and(a.negate(), b),
            4 => g.or(a, b.negate()),
            _ => {
                let s = pool[(ai as usize + bi as usize) % pool.len()];
                g.mux(s, a, b)
            }
        };
        pool.push(l);
    }
    for i in 0..4.min(pool.len()) {
        g.add_po(pool[pool.len() - 1 - i]);
    }
    g
}

/// Applies one scripted in-place edit inside an active editing
/// session. Returns `true` when the edit actually fired (targets may
/// have died in an earlier cascade, or a guard may not fit).
fn apply_edit(g: &mut Aig, op: u8, ti: u16) -> bool {
    let ands: Vec<NodeId> = g.and_ids().collect();
    if ands.is_empty() {
        return false;
    }
    let id = ands[ti as usize % ands.len()];
    if !g.is_and(id) {
        return false;
    }
    let (f0, f1) = g.fanins(id);
    match op % 3 {
        0 => {
            // Re-association: (g0·g1)·f1 → g0·(g1·f1). Appends fresh
            // nodes at the tail, so fanout patching leaves the graph
            // non-topological — the hardest path for `update`.
            if f0.is_complement() || !g.is_and(f0.node()) {
                return false;
            }
            let (g0, g1) = g.fanins(f0.node());
            let inner = g.and(g1, f1);
            let outer = g.and(g0, inner);
            if outer == id.lit() {
                return false; // strash handed the node back unchanged
            }
            g.replace_node(id, outer);
            true
        }
        1 => {
            // Merge onto a fanin, as strash-sweeping would after
            // proving the node redundant. Structurally always acyclic.
            g.replace_node(id, f0);
            true
        }
        _ => {
            // Constant propagation: the node was "proved" false.
            g.replace_node(id, Lit::FALSE);
            true
        }
    }
}

/// Per-node cut-list snapshot used to compare arenas for equality.
type CutSnapshot = Vec<Vec<(Vec<NodeId>, Option<u64>)>>;

fn snapshot(g: &Aig, arena: &CutArena) -> CutSnapshot {
    g.node_ids()
        .map(|id| arena.of(id).map(|c| (c.leaves().to_vec(), c.function_word())).collect())
        .collect()
}

/// Re-associates every `stride`-th AND node of `g` from `offset` on
/// (`apply_edit` op 0) in one editing session, drives `arena` through
/// the update, the compaction and the rebase, and returns the
/// compacted graph. Compaction renumbers the appended nodes, which puts
/// some nodes' fanins in the other order.
fn reassociate_and_rebase(
    mut g: Aig,
    arena: &mut CutArena,
    params: CutParams,
    stride: usize,
    offset: usize,
) -> Aig {
    g.begin_edit();
    for ti in (offset..g.num_ands()).step_by(stride) {
        apply_edit(&mut g, 0, ti as u16);
    }
    let delta = g.end_edit();
    arena.update(&g, &delta, params);
    let (compacted, map) = g.compact_with_map();
    arena.rebase(&map, &compacted, params);
    compacted
}

/// The suite circuits the re-association rebase property draws from,
/// in suite order, built once per test binary.
fn rebase_circuits() -> &'static [Aig] {
    static CIRCUITS: OnceLock<Vec<Aig>> = OnceLock::new();
    CIRCUITS.get_or_init(|| {
        let names = ["C1908", "C6288", "t481", "C1355", "add-16"];
        paper_benchmarks().into_iter().filter(|b| names.contains(&b.name)).map(|b| b.aig).collect()
    })
}

/// Re-association across a whole suite circuit, then compaction: the
/// renumbering puts some nodes' fanins in the other order, and the
/// rebased lists must still equal from-scratch enumeration, whose
/// equal-cost cuts keep the merge order the fanin order sets.
#[test]
fn rebase_matches_scratch_when_compaction_reorders_fanins() {
    let c1908 = paper_benchmarks().into_iter().find(|b| b.name == "C1908").expect("suite circuit");
    let params = CutParams { k: 4, max_cuts: 8, rank: CutRank::Size };
    let mut arena = enumerate_cuts_with(&c1908.aig, params);
    let compacted = reassociate_and_rebase(c1908.aig, &mut arena, params, 5, 0);
    let scratch = snapshot(&compacted, &enumerate_cuts_with(&compacted, params));
    assert!(snapshot(&compacted, &arena) == scratch, "rebased arena diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random edit sequences through `CutArena::update` reproduce the
    /// from-scratch enumeration exactly, per node.
    #[test]
    fn prop_incremental_cuts_match_scratch(
        script in proptest::collection::vec((0u8..6, 0u16..500, 0u16..500), 20..100),
        edits in proptest::collection::vec((0u8..3, 0u16..500), 1..10),
    ) {
        let mut g = random_aig(6, &script);
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut arena = enumerate_cuts_with(&g, params);

        g.begin_edit();
        for &(op, ti) in &edits {
            apply_edit(&mut g, op, ti);
        }
        let delta = g.end_edit();

        arena.update(&g, &delta, params);
        let scratch = snapshot(&g, &enumerate_cuts_with(&g, params));
        prop_assert_eq!(&snapshot(&g, &arena), &scratch, "incremental update diverges");
    }

    /// An arena that rides an edit session, an incremental update, a
    /// compaction ([`Aig::compact_with_map`] + [`CutArena::rebase`])
    /// and a *second* edit round still matches from-scratch
    /// enumeration at every step — the exact lifetime a synthesis
    /// `Script`'s persistent arena lives through across passes.
    #[test]
    fn prop_arena_survives_compaction(
        script in proptest::collection::vec((0u8..6, 0u16..500, 0u16..500), 20..100),
        edits in proptest::collection::vec((0u8..3, 0u16..500), 1..8),
        edits2 in proptest::collection::vec((0u8..3, 0u16..500), 1..8),
    ) {
        let mut g = random_aig(6, &script);
        let params = CutParams { k: 4, max_cuts: 6, rank: CutRank::Size };
        let mut arena = enumerate_cuts_with(&g, params);

        g.begin_edit();
        for &(op, ti) in &edits {
            apply_edit(&mut g, op, ti);
        }
        let delta = g.end_edit();
        arena.update(&g, &delta, params);

        let (compacted, map) = g.compact_with_map();
        arena.rebase(&map, &compacted, params);
        let scratch = snapshot(&compacted, &enumerate_cuts_with(&compacted, params));
        prop_assert_eq!(&snapshot(&compacted, &arena), &scratch, "rebased arena diverges");

        // Second round on the compacted graph: the survivor keeps
        // absorbing deltas exactly like a freshly-enumerated arena.
        let mut g2 = compacted;
        g2.begin_edit();
        for &(op, ti) in &edits2 {
            apply_edit(&mut g2, op, ti);
        }
        let delta2 = g2.end_edit();
        arena.update(&g2, &delta2, params);
        let scratch2 = snapshot(&g2, &enumerate_cuts_with(&g2, params));
        prop_assert_eq!(&snapshot(&g2, &arena), &scratch2, "post-compaction update diverges");
    }

    /// Re-association across a whole suite circuit at a drawn stride
    /// and offset, then compaction: unlike the small random DAGs
    /// above, these graphs make compaction reorder the fanins of nodes
    /// whose equal-size cuts tie, so the rebased lists must follow the
    /// new merge order to equal from-scratch enumeration.
    #[test]
    fn prop_rebase_matches_scratch_after_suite_reassociation(
        circuit in 0usize..5,
        stride in 2usize..9,
        offset in 0usize..8,
        wide: bool,
    ) {
        let g = rebase_circuits()[circuit].clone();
        let (k, max_cuts) = if wide { (6, 10) } else { (4, 8) };
        let params = CutParams { k, max_cuts, rank: CutRank::Size };
        let mut arena = enumerate_cuts_with(&g, params);
        let compacted = reassociate_and_rebase(g, &mut arena, params, stride, offset);
        let scratch = snapshot(&compacted, &enumerate_cuts_with(&compacted, params));
        prop_assert!(
            snapshot(&compacted, &arena) == scratch,
            "rebased arena diverges: {} stride {stride} offset {offset} k {k}",
            compacted.name()
        );
    }

    /// The NPN canonicalization memo — both the process-wide
    /// thread-local instance behind `npn_canonical_cached` and a fresh
    /// local `CanonCache` queried twice (miss, then hit) — agrees with
    /// the direct canonicalizer, table and transform included.
    #[test]
    fn prop_canon_cache_agrees_with_direct(bits: u64, nvars in 0usize..7) {
        let mask = if nvars >= 6 { u64::MAX } else { (1u64 << (1u64 << nvars)) - 1 };
        let tt = TruthTable::from_bits(nvars, bits & mask);
        let direct = npn_canonical(&tt);

        let cached = npn_canonical_cached(&tt);
        prop_assert_eq!(&cached.table, &direct.table);
        prop_assert_eq!(cached.transform.apply(&tt), direct.table.clone());

        let mut local = CanonCache::with_log2_slots(6);
        for pass in 0..2 {
            let c = local.canonical(&tt);
            prop_assert_eq!(&c.table, &direct.table, "local cache pass {}", pass);
            prop_assert_eq!(c.transform.apply(&tt), direct.table.clone());
        }
    }
}
