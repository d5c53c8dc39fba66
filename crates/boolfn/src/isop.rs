//! Irredundant sum-of-products computation (Minato–Morreale ISOP).
//!
//! Given an interval `[lower, upper]` of Boolean functions, computes a
//! cover `C` with `lower ⊆ C ⊆ upper` that is irredundant: removing
//! any cube breaks `lower ⊆ C`. The plain ISOP of `f` is
//! `isop_interval(f, f)`.

use crate::cube::{Cube, Sop};
use crate::tt::TruthTable;

/// Computes an irredundant SOP cover of `f`.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::{isop, TruthTable};
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let f = (a ^ b) | c;
/// let cover = isop(&f);
/// assert_eq!(cover.to_tt(), f);
/// ```
pub fn isop(f: &TruthTable) -> Sop {
    isop_interval(f, f)
}

/// Computes an irredundant cover `C` with `lower ⊆ C ⊆ upper`.
///
/// # Panics
///
/// Panics if `lower ⊄ upper` or variable counts differ.
pub fn isop_interval(lower: &TruthTable, upper: &TruthTable) -> Sop {
    assert_eq!(lower.nvars(), upper.nvars());
    assert!((*lower & !*upper).is_zero(), "lower bound not contained in upper bound");
    let nvars = lower.nvars();
    let cubes = rec(*lower, *upper, nvars);
    Sop::from_cubes(nvars, cubes)
}

fn rec(l: TruthTable, u: TruthTable, top: usize) -> Vec<Cube> {
    if l.is_zero() {
        return Vec::new();
    }
    if u.is_one() {
        return vec![Cube::new()];
    }
    // Splitting variable: highest variable either bound depends on.
    let mut x = top;
    loop {
        debug_assert!(x > 0, "non-constant interval must have support");
        x -= 1;
        if l.depends_on(x) || u.depends_on(x) {
            break;
        }
    }
    let l0 = l.cofactor0(x);
    let l1 = l.cofactor1(x);
    let u0 = u.cofactor0(x);
    let u1 = u.cofactor1(x);

    // Cubes that must contain literal x'.
    let f0 = rec(l0 & !u1, u0, x);
    // Cubes that must contain literal x.
    let f1 = rec(l1 & !u0, u1, x);

    let cov0 = cover_tt(&f0, l.nvars());
    let cov1 = cover_tt(&f1, l.nvars());

    // Remaining onset not yet covered, coverable without literal x.
    let lstar = (l0 & !cov0) | (l1 & !cov1);
    let fstar = rec(lstar, u0 & u1, x);

    let mut out = Vec::with_capacity(f0.len() + f1.len() + fstar.len());
    for c in f0 {
        out.push(c.with_neg(x));
    }
    for c in f1 {
        out.push(c.with_pos(x));
    }
    out.extend(fstar);
    out
}

fn cover_tt(cubes: &[Cube], nvars: usize) -> TruthTable {
    let mut t = TruthTable::zero(nvars);
    for c in cubes {
        t = t | c.to_tt(nvars);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_exact(f: &TruthTable) {
        let cover = isop(f);
        assert_eq!(cover.to_tt(), *f, "cover must equal the function");
        // Irredundancy: dropping any cube must lose part of the onset.
        for skip in 0..cover.num_cubes() {
            let rest: Vec<Cube> = cover
                .cubes()
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, c)| *c)
                .collect();
            let t = Sop::from_cubes(f.nvars(), rest).to_tt();
            assert_ne!(t, *f, "cube {skip} is redundant");
        }
    }

    #[test]
    fn exhaustive_3vars() {
        for bits in 0..256u64 {
            check_exact(&TruthTable::from_bits(3, bits));
        }
    }

    #[test]
    fn random_5vars() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for _ in 0..50 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let f = TruthTable::from_bits(5, state & 0xFFFF_FFFF);
            check_exact(&f);
        }
    }

    #[test]
    fn xor_cover_size() {
        // XOR of n vars needs 2^(n-1) cubes in SOP form.
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let f = (a ^ b) ^ (c ^ d);
        let cover = isop(&f);
        assert_eq!(cover.num_cubes(), 8);
        assert_eq!(cover.to_tt(), f);
    }

    #[test]
    fn interval_allows_dc() {
        // lower = a·b, upper = a: cover may be just "a".
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let lower = a & b;
        let cover = isop_interval(&lower, &a);
        assert_eq!(cover.num_cubes(), 1);
        let t = cover.to_tt();
        assert!((lower & !t).is_zero());
        assert!((t & !a).is_zero());
    }

    #[test]
    fn constants() {
        assert_eq!(isop(&TruthTable::zero(4)).num_cubes(), 0);
        let one = isop(&TruthTable::one(4));
        assert_eq!(one.num_cubes(), 1);
        assert!(one.cubes()[0].is_tautology());
    }
}
