//! Round-trip and differential tests for the AIGER frontend: random
//! DAGs and the full 15-circuit benchmark suite must survive a
//! write → parse round trip in BOTH formats (ASCII `aag` and binary
//! `aig`) with identical structural statistics and CEC-proven
//! equivalence — and the BLIF and AIGER writers must describe the same
//! circuit (differential check).

use ambipolar_cntfet::prelude::*;
use cntfet_aig::{parse_aiger, parse_blif, write_aiger_ascii, write_aiger_binary, write_blif, Aig};
use proptest::prelude::*;

/// Builds a random DAG from a script of (op, operand indices) choices.
fn random_aig(num_pis: usize, script: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new("prop");
    let pis = g.add_pis(num_pis);
    let mut pool: Vec<cntfet_aig::Lit> = pis;
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

/// Writes `g` in both AIGER formats, re-parses each, and checks the
/// round-trip contract: identical structural statistics (ands, depth,
/// PI/PO counts — and the strash fingerprint, since both writers emit
/// the construction sequence in replayable order) plus CEC-proven
/// equivalence.
fn assert_roundtrips(g: &Aig) {
    let encodings = [
        ("ascii", write_aiger_ascii(g).into_bytes()),
        ("binary", write_aiger_binary(g)),
    ];
    for (fmt, bytes) in encodings {
        let back = parse_aiger(&bytes)
            .unwrap_or_else(|e| panic!("{}/{fmt}: own output failed to parse: {e}", g.name()));
        assert_eq!(back.num_pis(), g.num_pis(), "{}/{fmt}: PI count", g.name());
        assert_eq!(back.num_pos(), g.num_pos(), "{}/{fmt}: PO count", g.name());
        assert_eq!(back.num_ands(), g.num_ands(), "{}/{fmt}: AND count", g.name());
        assert_eq!(back.depth(), g.depth(), "{}/{fmt}: depth", g.name());
        assert_eq!(back.fingerprint(), g.fingerprint(), "{}/{fmt}: fingerprint", g.name());
        assert_eq!(
            check_equivalence_sweeping(g, &back),
            CecResult::Equivalent,
            "{}/{fmt}: CEC failed",
            g.name()
        );
    }
}

/// Every circuit of the paper's 15-benchmark suite survives the round
/// trip through both formats, CEC-checked. This is the same contract
/// `full_repro` re-audits in its scoreboard.
#[test]
fn suite_circuits_roundtrip_both_formats() {
    for b in cntfet_circuits::paper_benchmarks() {
        assert_roundtrips(&b.aig);
    }
}

/// The two frontends describe the same circuit: an AIG pushed through
/// BLIF and through AIGER parses back to functionally equivalent
/// graphs with the same interface.
#[test]
fn blif_aiger_differential_on_suite_sample() {
    for b in cntfet_circuits::paper_benchmarks()
        .into_iter()
        .filter(|b| ["add-16", "C1355", "mux-16", "C1908"].contains(&b.name))
    {
        let via_blif = parse_blif(&write_blif(&b.aig)).expect("BLIF round trip parses");
        let via_aiger = parse_aiger(write_aiger_ascii(&b.aig).as_bytes())
            .expect("AIGER round trip parses");
        assert_eq!(via_blif.num_pis(), via_aiger.num_pis());
        assert_eq!(via_blif.num_pos(), via_aiger.num_pos());
        assert_eq!(
            check_equivalence_sweeping(&via_blif, &via_aiger),
            CecResult::Equivalent,
            "{}: BLIF and AIGER disagree",
            b.name
        );
        assert_eq!(
            check_equivalence_sweeping(&b.aig, &via_aiger),
            CecResult::Equivalent,
            "{}: AIGER round trip changed the function",
            b.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary random DAGs — dangling cones, complemented edges,
    /// constant outputs and all — survive the round trip through both
    /// formats with identical stats and CEC equivalence.
    #[test]
    fn prop_aiger_roundtrip_random_dags(
        script in proptest::collection::vec((0u8..6, 0u16..400, 0u16..400), 10..80),
        num_pis in 2usize..8
    ) {
        let g = random_aig(num_pis, &script);
        assert_roundtrips(&g);
    }

    /// Differential: the BLIF path and the AIGER path agree on random
    /// networks (same interface, equivalent function). BLIF drops
    /// dangling cones (`parse_blif` compacts), so only the function is
    /// compared, not the structural statistics.
    #[test]
    fn prop_blif_aiger_differential(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..60)
    ) {
        let g = random_aig(5, &script);
        let via_blif = parse_blif(&write_blif(&g)).expect("BLIF round trip parses");
        let via_aiger = parse_aiger(&write_aiger_binary(&g)).expect("AIGER round trip parses");
        prop_assert_eq!(via_blif.num_pis(), via_aiger.num_pis());
        prop_assert_eq!(via_blif.num_pos(), via_aiger.num_pos());
        prop_assert_eq!(check_equivalence_sweeping(&via_blif, &via_aiger), CecResult::Equivalent);
        prop_assert_eq!(check_equivalence_sweeping(&g, &via_blif), CecResult::Equivalent);
    }
}
