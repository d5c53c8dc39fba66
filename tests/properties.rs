//! Cross-crate property-based tests (proptest): randomized circuits
//! and functions exercising the invariants the reproduction rests on.

use ambipolar_cntfet::prelude::*;
use cntfet_aig::Aig;
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
    // A handful of outputs from the tail.
    for i in 0..4.min(pool.len()) {
        g.add_po(pool[pool.len() - 1 - i]);
    }
    g
}

/// A deterministic pseudo-random op script for the fixed fixtures
/// below, which run past the sizes the proptest scripts draw.
fn big_script(len: usize, mut seed: u64) -> Vec<(u8, u16, u16)> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 60) as u8, (seed >> 16) as u16, (seed >> 32) as u16)
        })
        .collect()
}

/// Two rounds of one resyn2rs [`Script`] — the second reusing the cut
/// arena the first kept up to date — preserve the function of
/// 400-op random networks.
#[test]
fn script_rounds_preserve_function_on_large_networks() {
    for seed in [0x5EED_0001u64, 0x5EED_0002] {
        let g = random_aig(8, &big_script(400, seed));
        let mut o = g.clone();
        let mut script = Script::resyn2rs();
        script.run(&mut o);
        script.run(&mut o);
        assert!(equivalent(&g, &o), "seed {seed:#x}: two script rounds broke equivalence");
    }
}

/// Covers of 500-op random networks verify through every covering
/// pass: exact-area recovery (the area cases), the arrival-aware
/// rounds (the delay case) and CMOS phase tracking.
#[test]
fn large_covers_verify_across_families() {
    let cases = [
        (LogicFamily::TgStatic, Objective::Area, 0xC0FE_0001u64),
        (LogicFamily::TgStatic, Objective::Delay, 0xC0FE_0002),
        (LogicFamily::TgPseudo, Objective::Area, 0xC0FE_0003),
        (LogicFamily::CmosStatic, Objective::Balanced, 0xC0FE_0004),
    ];
    for (family, objective, seed) in cases {
        let g = random_aig(8, &big_script(500, seed));
        let lib = Library::new(family);
        let m = map(&g, &lib, MapOptions { objective, ..MapOptions::default() });
        assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent, "{family:?}/{objective:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// resyn2rs preserves the function of arbitrary random networks
    /// (certified by SAT CEC).
    #[test]
    fn prop_resyn2rs_preserves_function(
        script in proptest::collection::vec((0u8..6, 0u16..500, 0u16..500), 10..120)
    ) {
        let g = random_aig(6, &script);
        let o = resyn2rs(&g);
        prop_assert!(equivalent(&g, &o));
        prop_assert!(o.num_ands() <= g.num_ands());
    }

    /// Every synthesis pass and script of the in-place DAG-aware
    /// engine preserves equivalence (SAT CEC) across the benchmark
    /// suite's five circuit families (adders, multipliers,
    /// error-correcting XOR logic, selector/ALU-style muxing, and
    /// unstructured random logic).
    #[test]
    fn prop_synth_passes_preserve_equivalence(
        family_idx in 0usize..5,
        size in 2usize..5,
        seed in 0u64..1000,
        pass_idx in 0usize..5,
    ) {
        use cntfet_circuits::{mux_tree, parity, random_logic};
        use cntfet_synth::{quick_opt, AigStats};
        let g = match family_idx {
            0 => ripple_adder(size + 2),
            1 => array_multiplier(size),
            2 => parity(4 * size),
            3 => mux_tree(size),
            _ => random_logic("prop", 4 + size, 4, seed),
        };
        let o = match pass_idx {
            0 => balance(&g),
            1 => rewrite(&g, false),
            2 => rewrite(&g, true),
            3 => quick_opt(&g),
            _ => resyn2rs(&g),
        };
        prop_assert!(equivalent(&g, &o), "pass {pass_idx} broke family {family_idx}");
        if pass_idx == 4 {
            // The script's never-worse guard: (ands, depth) vs input.
            let (si, so) = (AigStats::of(&g.compact()), AigStats::of(&o));
            prop_assert!(
                so.ands < si.ands || (so.ands == si.ands && so.depth <= si.depth),
                "resyn2rs made {si:?} worse: {so:?}"
            );
        }
    }

    /// Mapping onto any family is formally equivalent to the source.
    #[test]
    fn prop_mapping_equivalent(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..80),
        family_idx in 0usize..3
    ) {
        let g = random_aig(5, &script);
        let family = [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic][family_idx];
        let lib = Library::new(family);
        let m = map(&g, &lib, MapOptions::default());
        prop_assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    /// Mapping is formally equivalent to the source under every
    /// covering objective, for all four ambipolar CNTFET libraries and
    /// the CMOS baseline.
    #[test]
    fn prop_mapping_equivalent_all_objectives(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..60),
        family_idx in 0usize..5,
        objective_idx in 0usize..3
    ) {
        let g = random_aig(5, &script);
        let family = [
            LogicFamily::TgStatic,
            LogicFamily::TgPseudo,
            LogicFamily::PassStatic,
            LogicFamily::PassPseudo,
            LogicFamily::CmosStatic,
        ][family_idx];
        let objective =
            [Objective::Area, Objective::Delay, Objective::Balanced][objective_idx];
        let lib = Library::new(family);
        let m = map(&g, &lib, MapOptions { objective, ..Default::default() });
        prop_assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    /// The per-gate certificate decides every cover the mapper emits
    /// for a random network under every objective (including the
    /// delay objective's wire aliases), and a plain SAT miter on the
    /// rebuilt netlist agrees.
    #[test]
    fn prop_mapping_certificate_agrees_with_sat(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..80),
        family_idx in 0usize..3,
        objective_idx in 0usize..3
    ) {
        let g = random_aig(6, &script);
        let family = [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic][family_idx];
        let objective =
            [Objective::Area, Objective::Delay, Objective::Balanced][objective_idx];
        let lib = Library::new(family);
        let m = map(&g, &lib, MapOptions { objective, ..Default::default() });
        let r = cntfet_techmap::verify_mapping_report(&g, &m, &lib);
        prop_assert!(r.certified, "certificate rejected a {family:?}/{objective:?} cover");
        prop_assert_eq!(r.result, CecResult::Equivalent);
        let rebuilt = cntfet_techmap::mapping_to_aig(&m, &lib, g.num_pis());
        prop_assert!(equivalent(&g, &rebuilt), "SAT refutes a certified cover");
    }

    /// Under Objective::Delay, area recovery must not worsen the
    /// critical path the delay pass established.
    #[test]
    fn prop_area_recovery_keeps_delay(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 20..80),
        family_idx in 0usize..3
    ) {
        let g = random_aig(6, &script);
        let family = [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic][family_idx];
        let lib = Library::new(family);
        let opts = |area_rounds| MapOptions {
            area_rounds,
            objective: Objective::Delay,
            ..Default::default()
        };
        let pure = map(&g, &lib, opts(0));
        let rec = map(&g, &lib, opts(3));
        prop_assert!(rec.stats.delay_norm <= pure.stats.delay_norm + 1e-9,
            "recovery worsened delay: {} -> {}", pure.stats.delay_norm, rec.stats.delay_norm);
    }

    /// Arrival-aware delay mapping (the default `delay_rounds`) never
    /// maps to a longer critical path than the single-enumeration
    /// PR 2 engine (`delay_rounds: 0`), and the iterated cover stays
    /// formally equivalent to the source.
    #[test]
    fn prop_arrival_rounds_never_worsen_delay(
        script in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 20..100),
        family_idx in 0usize..3
    ) {
        let g = random_aig(6, &script);
        let family = [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic][family_idx];
        let lib = Library::new(family);
        let opts = |delay_rounds| MapOptions {
            delay_rounds,
            objective: Objective::Delay,
            ..Default::default()
        };
        let single = map(&g, &lib, opts(0));
        let iterated = map(&g, &lib, opts(MapOptions::default().delay_rounds));
        prop_assert!(
            iterated.stats.delay_norm <= single.stats.delay_norm + 1e-9,
            "arrival rounds worsened delay: {} -> {}",
            single.stats.delay_norm, iterated.stats.delay_norm
        );
        prop_assert_eq!(verify_mapping(&g, &iterated, &lib), CecResult::Equivalent);
    }

    /// The tiers of the sweeping CEC stack agree on random 6-input
    /// networks: `check_equivalence` decides them by exhaustive
    /// simulation, and SAT sweeping (exhaustive simulation disabled)
    /// and the `node_budget: 0` output-miter fallback, which disables
    /// internal sweeping, must reach the same verdict.
    #[test]
    fn prop_sweep_tiers_agree_with_plain_cec(
        script_a in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..80),
        script_b in proptest::collection::vec((0u8..6, 0u16..300, 0u16..300), 10..80)
    ) {
        let a = random_aig(6, &script_a);
        let b = random_aig(6, &script_b);
        let plain = check_equivalence(&a, &b);
        let agree = |r: CecResult| match (&plain, r) {
            (CecResult::Equivalent, CecResult::Equivalent) => true,
            (CecResult::Counterexample { .. }, CecResult::Counterexample { inputs, output }) => {
                // Counterexamples may differ; each must be valid.
                a.eval(&inputs)[output] != b.eval(&inputs)[output]
            }
            _ => false,
        };
        let no_exhaustive = SweepOptions { exhaustive_pis: 0, ..Default::default() };
        prop_assert!(
            agree(cntfet_aig::check_equivalence_sweeping_with(&a, &b, &no_exhaustive)),
            "SAT sweeping tier disagreed"
        );
        let miter_fallback = SweepOptions { exhaustive_pis: 0, node_budget: 0, ..Default::default() };
        prop_assert!(
            agree(cntfet_aig::check_equivalence_sweeping_with(&a, &b, &miter_fallback)),
            "pure-miter fallback disagreed"
        );
    }

    /// The adder generator agrees with machine arithmetic.
    #[test]
    fn prop_adder_matches_u64(a in 0u64..=0xFFFF, b in 0u64..=0xFFFF, cin: bool) {
        let g = ripple_adder(16);
        let (sum, cout) = cntfet_circuits::eval_adder(&g, 16, a, b, cin);
        let want = a + b + cin as u64;
        prop_assert_eq!(sum, want & 0xFFFF);
        prop_assert_eq!(cout, want >> 16 & 1 == 1);
    }

    /// The multiplier generator agrees with machine arithmetic.
    #[test]
    fn prop_multiplier_matches_u64(a in 0u64..=0xFF, b in 0u64..=0xFF) {
        let g = array_multiplier(8);
        prop_assert_eq!(cntfet_circuits::eval_multiplier(&g, 8, a, b), (a as u128) * (b as u128));
    }

    /// NPN canonicalization is invariant across random transforms of
    /// the 46 gate functions.
    #[test]
    fn prop_gate_npn_invariance(
        gate in 0usize..46,
        perm_seed in 0u64..720,
        flips in 0u8..64,
        out_flip: bool
    ) {
        use cntfet_boolfn::NpnTransform;
        let g = GateId::new(gate);
        let tt = g.function().to_tt(6);
        // Derive a permutation of 0..6 from the seed.
        let mut perm: Vec<usize> = (0..6).collect();
        let mut s = perm_seed;
        for i in (1..6).rev() {
            let j = (s % (i as u64 + 1)) as usize;
            perm.swap(i, j);
            s /= i as u64 + 1;
        }
        let t = NpnTransform::new(6, &perm, flips, out_flip);
        let canon_a = npn_canonical(&tt).table;
        let canon_b = npn_canonical(&t.apply(&tt)).table;
        prop_assert_eq!(canon_a, canon_b);
    }

    /// Switch-level simulation of a random static gate agrees with its
    /// Boolean function at every minterm (full swing included).
    #[test]
    fn prop_switch_level_matches_function(gate in 0usize..46) {
        let g = GateId::new(gate);
        let gn = gate_netlist(g, LogicFamily::TgStatic).unwrap();
        let expr = g.function();
        let k = gn.signals.len();
        for m in 0..(1u64 << k) {
            let mut full = 0u64;
            for (i, &s) in gn.signals.iter().enumerate() {
                if m >> i & 1 == 1 {
                    full |= 1 << s;
                }
            }
            let sol = solve(&gn.netlist, &gn.input_vector(m));
            prop_assert_eq!(sol.logic(gn.output), Some(!expr.eval(full)));
            prop_assert!(sol.is_full_swing(gn.output));
        }
    }

    /// ISOP followed by factoring is exact on random 6-variable
    /// functions.
    #[test]
    fn prop_isop_factor_roundtrip(bits in any::<u64>()) {
        let tt = TruthTable::from_bits(6, bits);
        let cover = isop(&tt);
        prop_assert_eq!(cover.to_tt(), tt);
        let e = factor(&cover);
        prop_assert_eq!(e.to_tt(6), tt);
    }
}
