//! NPN boolean matching of cut functions against library cells.
//!
//! The heavy lifting — canonicalizing every cell and grouping by NPN
//! class — happens once per [`Library`] (see
//! [`Library::npn_matches`]). Matching a cut is then one
//! canonicalization of the cut function, one hash lookup, and a
//! transform composition per hit; and because the same cut functions
//! recur constantly during mapping, the whole result is memoized
//! behind a word-keyed cache.

use cntfet_boolfn::hash::FastMap;
use cntfet_boolfn::{npn_canonical_cached, NpnTransform, TruthTable};
use cntfet_core::{Cell, Library};
use std::collections::hash_map::Entry;

/// A successful match: `transform.apply(cell_function) == cut_function`.
///
/// Its semantics for netlist construction: **cell pin `i` is driven by
/// cut variable `transform.perm(i)`, complemented iff
/// `transform.input_flipped(i)`; the node equals the cell function
/// output complemented iff `transform.output_flipped()`.**
#[derive(Debug, Clone)]
pub struct CellMatch {
    /// Index of the cell in the library.
    pub cell: usize,
    /// Transform from the cell function to the cut function.
    pub transform: NpnTransform,
}

/// Boolean matcher over a library's precomputed NPN index.
///
/// The matcher itself is a thin memo layer: cut functions are keyed by
/// their single-word truth table (all mapped cuts have ≤ 6 inputs), so
/// a repeat lookup is one probe of a `(u8, u64)` key in a table under
/// the keyed [`FastHash`](cntfet_boolfn::hash::FastHash).
#[derive(Debug)]
pub struct Matcher<'lib> {
    library: &'lib Library,
    cache: FastMap<(u8, u64), Vec<CellMatch>>,
}

impl<'lib> Matcher<'lib> {
    /// Builds a matcher over a library (cheap — the NPN index already
    /// lives in the [`Library`]).
    pub fn new(library: &'lib Library) -> Matcher<'lib> {
        Matcher { library, cache: FastMap::default() }
    }

    /// Number of indexed cells.
    pub fn num_cells(&self) -> usize {
        self.library.cells().len()
    }

    /// All cells matching a cut function given as a replicated `u64`
    /// word over `nvars` variables (the form cut enumeration produces).
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 6`.
    pub fn matches_word(&mut self, nvars: usize, word: u64) -> &[CellMatch] {
        assert!(nvars <= 6, "cut function too wide for matching");
        let slot = match self.cache.entry((nvars as u8, word)) {
            Entry::Occupied(e) => return e.into_mut(),
            Entry::Vacant(v) => v,
        };
        // Constant-time NPN-invariant pre-filters before paying for
        // canonicalization (`word` is replicated, so each of the
        // 2^nvars minterms appears 2^(6-nvars) times). A rejected word
        // is not cached either — the filters are cheaper than the
        // insert.
        let ones = (word.count_ones() >> (6 - nvars)) as u64;
        if !self.library.npn_popcount_feasible(nvars, ones)
            || !self.library.npn_cofactor_feasible(nvars, word)
        {
            return &[];
        }
        let canon = npn_canonical_cached(&TruthTable::from_bits(nvars, word));
        // h = T_h⁻¹(T_cell(cell_fn)): compose cell→canon with
        // canon→cut.
        let inv = canon.transform.inverse();
        slot.insert(
            self.library
                .npn_matches(&canon.table)
                .iter()
                .map(|(cell, t_cell)| CellMatch { cell: *cell, transform: t_cell.then(&inv) })
                .collect(),
        )
    }

    /// All cells matching the (support-compacted) cut function.
    ///
    /// # Panics
    ///
    /// Panics if `f` has more than 6 variables.
    pub fn matches(&mut self, f: &TruthTable) -> &[CellMatch] {
        assert!(f.nvars() <= 6, "cut function too wide for matching");
        self.matches_word(f.nvars(), f.bits())
    }
}

/// Verifies a match binding (used by tests and debug assertions).
pub fn match_is_valid(cell: &Cell, m: &CellMatch, cut_fn: &TruthTable) -> bool {
    m.transform.apply(&cell.function) == *cut_fn
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_core::LogicFamily;

    #[test]
    fn every_cell_matches_itself() {
        let lib = Library::new(LogicFamily::TgStatic);
        let mut m = Matcher::new(&lib);
        assert_eq!(m.num_cells(), 46);
        for (i, cell) in lib.cells().iter().enumerate() {
            let ms = m.matches(&cell.function).to_vec();
            assert!(!ms.is_empty(), "{} has no match", cell.name);
            assert!(ms.iter().any(|mm| mm.cell == i));
            for mm in &ms {
                assert!(match_is_valid(&lib.cells()[mm.cell], mm, &cell.function));
            }
        }
    }

    #[test]
    fn matches_under_random_npn_transform() {
        let lib = Library::new(LogicFamily::TgStatic);
        let mut m = Matcher::new(&lib);
        // F05 = (A⊕B)·C under a random transform still matches.
        let f05 = &lib.cells()[5].function;
        let t = NpnTransform::new(3, &[2, 0, 1], 0b101, true);
        let g = t.apply(f05);
        let ms = m.matches(&g).to_vec();
        assert!(!ms.is_empty());
        for mm in &ms {
            assert!(match_is_valid(&lib.cells()[mm.cell], mm, &g));
        }
    }

    #[test]
    fn word_and_table_lookups_agree() {
        let lib = Library::new(LogicFamily::TgStatic);
        let mut m = Matcher::new(&lib);
        let f = lib.cells()[5].function; // F05 = (A⊕B)·C
        let by_table: Vec<usize> = m.matches(&f).iter().map(|c| c.cell).collect();
        let by_word: Vec<usize> = m.matches_word(3, f.bits()).iter().map(|c| c.cell).collect();
        assert_eq!(by_table, by_word);
        assert!(!by_table.is_empty());
    }

    #[test]
    fn npn_prefilters_are_sound_on_random_words() {
        // Whenever the constant-time popcount/cofactor pre-filters
        // reject a word, full canonicalization must also find nothing
        // — the filters may only skip work, never matches.
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for _ in 0..500 {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                for nvars in 2..=6usize {
                    let w = cntfet_boolfn::word::replicate(nvars, x);
                    let ones = (w.count_ones() >> (6 - nvars)) as u64;
                    let rejected = !lib.npn_popcount_feasible(nvars, ones)
                        || !lib.npn_cofactor_feasible(nvars, w);
                    if rejected {
                        let canon = cntfet_boolfn::npn_canonical(&TruthTable::from_bits(nvars, w));
                        assert!(
                            lib.npn_matches(&canon.table).is_empty(),
                            "{family:?}: filter rejected matchable word {w:#x} over {nvars} vars"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cmos_matches_all_two_input_functions() {
        let lib = Library::new(LogicFamily::CmosStatic);
        let mut m = Matcher::new(&lib);
        // All 2-input AND-like functions land on F03's class.
        for bits in [0b1000u64, 0b0100, 0b0010, 0b0001, 0b0111, 0b1110, 0b1101, 0b1011] {
            let f = TruthTable::from_bits(2, bits);
            assert!(!m.matches(&f).is_empty(), "bits {bits:#b}");
        }
        // XOR has no CMOS single-cell match.
        let x = TruthTable::from_bits(2, 0b0110);
        assert!(m.matches(&x).is_empty());
    }

    #[test]
    fn xor3_matches_cntfet_but_not_cmos() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = a ^ b ^ c;
        let cmos = Library::new(LogicFamily::CmosStatic);
        let mut cm = Matcher::new(&cmos);
        assert!(cm.matches(&f).is_empty());
        // 3-input parity is not among the 46 either (it needs XOR of
        // XOR, not series/parallel) — but (A⊕B)+C style functions are.
        let g = (a ^ b) | c;
        let tg = Library::new(LogicFamily::TgStatic);
        let mut tm = Matcher::new(&tg);
        assert!(!tm.matches(&g).is_empty());
    }
}
