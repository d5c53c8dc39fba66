//! Workspace property test of the NPN canonicalization memo: it must
//! agree with the direct canonicalizer on every query, hit or miss.

use cntfet_boolfn::{npn_canonical, npn_canonical_cached, CanonCache, TruthTable};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
