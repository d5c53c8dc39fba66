//! Exhaustive enumeration of realizable gate topologies — the
//! experiment behind the paper's Table 1 claim:
//!
//! > "Logic gates with no more than three SB-CNTFETs each in the
//! > pull-up (PU) and pull-down (PD) networks respectively can
//! > implement **46** functions, as compared to only **7** functions
//! > with CMOS logic having the same topology."
//!
//! The enumeration builds every series/parallel composition of at most
//! three elements, where an element is a plain device (gate signal
//! from the ≤3 data inputs) or — for ambipolar CNTFETs — an XOR
//! transmission gate (gate signal from the data inputs, polarity
//! signal from the ≤3 control inputs). Functions are counted up to
//! *input renaming and input complementation* (both input polarities
//! of every signal are available in these libraries), but not output
//! complementation — NOR and NAND are different pull-down networks.

use cntfet_boolfn::{word, TruthTable};
use std::collections::HashMap;

/// One element choice in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Elem {
    /// Plain device driven by data signal `d`.
    Lit(u8),
    /// XOR transmission gate over data signal `d` and control `c`.
    Xor(u8, u8),
}

/// Series/parallel skeletons with at most three leaves (flattened —
/// nested same-type nodes are canonicalized away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Skeleton {
    One,
    Series2,
    Parallel2,
    Series3,
    Parallel3,
    /// (a · b) + c
    ParallelOfSeries,
    /// (a + b) · c
    SeriesOfParallel,
}

const SKELETONS: [Skeleton; 7] = [
    Skeleton::One,
    Skeleton::Series2,
    Skeleton::Parallel2,
    Skeleton::Series3,
    Skeleton::Parallel3,
    Skeleton::ParallelOfSeries,
    Skeleton::SeriesOfParallel,
];

impl Skeleton {
    fn leaves(self) -> usize {
        match self {
            Skeleton::One => 1,
            Skeleton::Series2 | Skeleton::Parallel2 => 2,
            _ => 3,
        }
    }

    /// Conduction function of the skeleton over leaf conduction tables.
    fn compose(self, l: &[TruthTable]) -> TruthTable {
        match self {
            Skeleton::One => l[0],
            Skeleton::Series2 => l[0] & l[1],
            Skeleton::Parallel2 => l[0] | l[1],
            Skeleton::Series3 => l[0] & l[1] & l[2],
            Skeleton::Parallel3 => l[0] | l[1] | l[2],
            Skeleton::ParallelOfSeries => (l[0] & l[1]) | l[2],
            Skeleton::SeriesOfParallel => (l[0] | l[1]) & l[2],
        }
    }

    fn describe(self, parts: &[String]) -> String {
        match self {
            Skeleton::One => parts[0].clone(),
            Skeleton::Series2 => format!("{}·{}", parts[0], parts[1]),
            Skeleton::Parallel2 => format!("{} + {}", parts[0], parts[1]),
            Skeleton::Series3 => format!("{}·{}·{}", parts[0], parts[1], parts[2]),
            Skeleton::Parallel3 => format!("{} + {} + {}", parts[0], parts[1], parts[2]),
            Skeleton::ParallelOfSeries => format!("{}·{} + {}", parts[0], parts[1], parts[2]),
            Skeleton::SeriesOfParallel => format!("({} + {})·{}", parts[0], parts[1], parts[2]),
        }
    }
}

/// Result of the topology enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// Distinct functions (canonical under input renaming and
    /// complementation), each with a representative description.
    pub classes: Vec<(TruthTable, String)>,
    /// Total raw topologies examined.
    pub topologies_examined: usize,
}

impl EnumerationResult {
    /// Number of distinct realizable gate functions.
    pub fn num_functions(&self) -> usize {
        self.classes.len()
    }
}

/// Compacts a function onto its support variables.
fn compact_support(tt: &TruthTable) -> TruthTable {
    let mut support = Vec::new();
    word::support(tt.bits(), tt.nvars(), &mut support);
    TruthTable::from_bits(support.len().max(1), word::shrink_to(tt.bits(), &support))
}

/// Canonical form under input permutation and input complementation
/// (NP-equivalence, output polarity fixed): support-compacts the
/// function, then takes the lexicographic minimum over all `k!·2^k`
/// input transforms.
pub fn np_canonical(tt: &TruthTable) -> TruthTable {
    let compact = compact_support(tt);
    let k = if compact.is_zero() || compact.is_one() { 0 } else { compact.nvars() };
    if k == 0 {
        return compact;
    }
    let mut best: Option<TruthTable> = None;
    let mut perm: Vec<usize> = (0..k).collect();
    loop {
        for flips in 0..(1u32 << k) {
            let mut cand = compact;
            for v in 0..k {
                if flips >> v & 1 == 1 {
                    cand = cand.flip_var(v);
                }
            }
            let cand = cand.permute_vars(&perm);
            if best.as_ref().map(|b| cand < *b).unwrap_or(true) {
                best = Some(cand);
            }
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }
    best.expect("every gate function admits at least one network within the bound")
}

fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// Enumerates all gate functions realizable with at most three
/// series/parallel elements.
///
/// `with_xor` enables ambipolar XOR elements (CNTFET libraries);
/// without it the enumeration models plain CMOS and yields the
/// classical 7 functions.
pub fn enumerate_gates(with_xor: bool) -> EnumerationResult {
    // Variables 0..3 = data (A,B,C), 3..6 = control (D,E,F). Each
    // element's regular gate is driven by its own distinct data input
    // (data inputs fan out to exactly one gate terminal); polarity
    // gates draw freely from the three control inputs, so controls may
    // be shared across elements — exactly the sharing discipline of
    // the paper's Table 1 (e.g. the common D of F16, never a data
    // signal reused by another element).
    let leaf_options = |leaf_index: u8| -> Vec<Elem> {
        let mut v = vec![Elem::Lit(leaf_index)];
        if with_xor {
            for c in 3..6u8 {
                v.push(Elem::Xor(leaf_index, c));
            }
        }
        v
    };

    let elem_tt = |e: Elem| -> TruthTable {
        match e {
            Elem::Lit(d) => TruthTable::var(6, d as usize),
            Elem::Xor(d, c) => TruthTable::var(6, d as usize) ^ TruthTable::var(6, c as usize),
        }
    };
    let elem_desc = |e: Elem| -> String {
        let name = |v: u8| (b'A' + v) as char;
        match e {
            Elem::Lit(d) => name(d).to_string(),
            Elem::Xor(d, c) => format!("({}⊕{})", name(d), name(c)),
        }
    };

    let mut canon_cache: HashMap<TruthTable, TruthTable> = HashMap::new();
    let mut classes: HashMap<TruthTable, String> = HashMap::new();
    let mut examined = 0usize;

    for &skel in &SKELETONS {
        let k = skel.leaves();
        let options: Vec<Vec<Elem>> = (0..k as u8).map(leaf_options).collect();
        let mut idx = vec![0usize; k];
        loop {
            examined += 1;
            let leaves: Vec<Elem> = idx.iter().zip(&options).map(|(&i, o)| o[i]).collect();
            let tts: Vec<TruthTable> = leaves.iter().map(|&e| elem_tt(e)).collect();
            let f = skel.compose(&tts);
            if !f.is_zero() && !f.is_one() {
                let canon = *canon_cache.entry(f).or_insert_with(|| np_canonical(&f));
                classes.entry(canon).or_insert_with(|| {
                    let parts: Vec<String> = leaves.iter().map(|&e| elem_desc(e)).collect();
                    skel.describe(&parts)
                });
            }
            // Advance the index vector (odometer).
            let mut pos = 0;
            loop {
                idx[pos] += 1;
                if idx[pos] < options[pos].len() {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
                if pos == k {
                    break;
                }
            }
            if pos == k {
                break;
            }
        }
    }

    let mut sorted: Vec<(TruthTable, String)> = classes.into_iter().collect();
    sorted.sort_by_key(|(tt, _)| (tt.support_size(), *tt));
    EnumerationResult { classes: sorted, topologies_examined: examined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::GateId;
    use std::collections::BTreeSet;

    #[test]
    fn cmos_topologies_yield_seven_functions() {
        let r = enumerate_gates(false);
        for (tt, desc) in &r.classes {
            assert!(tt.support_size() <= 3, "{desc}");
        }
        assert_eq!(r.num_functions(), 7, "paper: 7 CMOS functions");
    }

    #[test]
    fn ambipolar_topologies_yield_46_functions() {
        let r = enumerate_gates(true);
        assert_eq!(r.num_functions(), 46, "paper: 46 ambipolar functions");
    }

    #[test]
    fn enumerated_classes_match_table1_exactly() {
        let r = enumerate_gates(true);
        let enumerated: BTreeSet<TruthTable> =
            r.classes.iter().map(|(tt, _)| *tt).collect();
        let table1: BTreeSet<TruthTable> = GateId::all()
            .map(|g| np_canonical(&g.function().to_tt(6)))
            .collect();
        assert_eq!(table1.len(), 46, "Table 1 entries are distinct NP classes");
        assert_eq!(enumerated, table1, "enumeration reproduces Table 1");
    }

    #[test]
    fn np_canonical_properties() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        // Invariant under permutation.
        let f1 = (a & b) | c;
        let f2 = (c & b) | a;
        assert_eq!(np_canonical(&f1), np_canonical(&f2));
        // Invariant under input complementation: A·B ~ A'·B.
        let g1 = a & b;
        let g2 = !a & b;
        assert_eq!(np_canonical(&g1), np_canonical(&g2));
        // But NOT under output complementation: AND vs OR differ.
        let and2 = a & b;
        let or2 = a | b;
        assert_ne!(np_canonical(&and2), np_canonical(&or2));
    }

    #[test]
    fn degenerate_sharing_collapses() {
        // A·(A⊕D) = A·D' must land in the A·B class, not a new one.
        let a = TruthTable::var(6, 0);
        let d = TruthTable::var(6, 3);
        let f = a & (a ^ d);
        let b = TruthTable::var(6, 1);
        let g = a & b;
        assert_eq!(np_canonical(&f), np_canonical(&g));
    }
}
