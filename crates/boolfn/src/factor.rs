//! Algebraic factoring of sum-of-products covers into multi-level
//! expressions (the "quick factor" flavour used by classic synthesis
//! tools, with weak algebraic division by level-0 kernels).

use crate::cube::{Cube, Sop};
use crate::expr::Expr;

/// Factors a cover into a (usually) multi-level expression.
///
/// The result is logically equivalent to the cover and never has more
/// literals than the flat SOP form.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::{factor, isop, Expr, TruthTable};
///
/// let f: Expr = "A·C + A·D + B·C + B·D".parse()?;
/// let tt = f.to_tt(4);
/// let factored = factor(&isop(&tt));
/// assert_eq!(factored.to_tt(4), tt);
/// assert!(factored.num_literals() <= 4); // (A+B)·(C+D)
/// # Ok::<(), cntfet_boolfn::ParseExprError>(())
/// ```
pub fn factor(sop: &Sop) -> Expr {
    let e = factor_cubes(sop.cubes());
    debug_assert_eq!(e.to_tt(sop.nvars()), sop.to_tt());
    e
}

fn literal_expr(v: usize, positive: bool) -> Expr {
    let e = Expr::var(v);
    if positive {
        e
    } else {
        e.not()
    }
}

fn cube_expr(c: &Cube) -> Expr {
    let mut parts = Vec::new();
    for v in 0..32 {
        if c.pos() >> v & 1 == 1 {
            parts.push(literal_expr(v, true));
        }
        if c.neg() >> v & 1 == 1 {
            parts.push(literal_expr(v, false));
        }
    }
    Expr::and(parts)
}

/// True iff cube `inner` is contained in `outer` (all literals of
/// `inner` appear in `outer`).
fn cube_contains(outer: &Cube, inner: &Cube) -> bool {
    inner.pos() & outer.pos() == inner.pos() && inner.neg() & outer.neg() == inner.neg()
}

/// Removes the literals of `d` from `c` (assumes `cube_contains(c, d)`).
fn cube_minus(c: &Cube, d: &Cube) -> Cube {
    let mut out = Cube::new();
    for v in 0..32 {
        if c.pos() >> v & 1 == 1 && d.pos() >> v & 1 == 0 {
            out = out.with_pos(v);
        }
        if c.neg() >> v & 1 == 1 && d.neg() >> v & 1 == 0 {
            out = out.with_neg(v);
        }
    }
    out
}

/// Weak (algebraic) division `F / D`: returns `(Q, R)` such that
/// `F = Q·D + R` where the product is algebraic (variable-disjoint).
fn weak_div(f: &[Cube], d: &[Cube]) -> (Vec<Cube>, Vec<Cube>) {
    if d.is_empty() {
        return (Vec::new(), f.to_vec());
    }
    // Candidate quotient cubes from the first divisor cube.
    let d0 = &d[0];
    let mut quotient = Vec::new();
    for c in f {
        if !cube_contains(c, d0) {
            continue;
        }
        let q = cube_minus(c, d0);
        // q is valid iff q·di is in F for every divisor cube di.
        let ok = d.iter().all(|di| {
            q.and(di)
                .map(|qd| f.contains(&qd))
                .unwrap_or(false)
        });
        if ok && !quotient.contains(&q) {
            quotient.push(q);
        }
    }
    // Remainder: cubes of F not expressible as q·d.
    let mut products = Vec::new();
    for q in &quotient {
        for di in d {
            if let Some(p) = q.and(di) {
                products.push(p);
            }
        }
    }
    let remainder: Vec<Cube> = f.iter().filter(|c| !products.contains(c)).copied().collect();
    (quotient, remainder)
}

/// Extracts the cube of literals common to every cube of `f`.
fn common_cube(f: &[Cube]) -> Cube {
    let mut pos = !0u32;
    let mut neg = !0u32;
    for c in f {
        pos &= c.pos();
        neg &= c.neg();
    }
    let mut out = Cube::new();
    for v in 0..32 {
        if pos >> v & 1 == 1 {
            out = out.with_pos(v);
        }
        if neg >> v & 1 == 1 {
            out = out.with_neg(v);
        }
    }
    out
}

fn factor_cubes(cubes: &[Cube]) -> Expr {
    if cubes.is_empty() {
        return Expr::Const(false);
    }
    if cubes.iter().any(Cube::is_tautology) {
        return Expr::Const(true);
    }
    if cubes.len() == 1 {
        return cube_expr(&cubes[0]);
    }

    // Pull out literals common to every cube.
    let common = common_cube(cubes);
    if !common.is_tautology() {
        let rest: Vec<Cube> = cubes.iter().map(|c| cube_minus(c, &common)).collect();
        return Expr::and(vec![cube_expr(&common), factor_cubes(&rest)]);
    }

    // Find the literal occurring in the most cubes.
    let mut best: Option<(usize, bool, usize)> = None; // (var, positive, count)
    for v in 0..32 {
        let pos_count = cubes.iter().filter(|c| c.pos() >> v & 1 == 1).count();
        let neg_count = cubes.iter().filter(|c| c.neg() >> v & 1 == 1).count();
        for (positive, count) in [(true, pos_count), (false, neg_count)] {
            if count >= 2 && best.map(|(_, _, bc)| count > bc).unwrap_or(true) {
                best = Some((v, positive, count));
            }
        }
    }

    let Some((v, positive, _)) = best else {
        // No shared literal: plain disjunction of cubes.
        return Expr::or(cubes.iter().map(cube_expr).collect());
    };

    // Quick divisor: the quotient of F by the best literal, made
    // cube-free, approximates a level-0 kernel.
    let lit_cube = if positive {
        Cube::new().with_pos(v)
    } else {
        Cube::new().with_neg(v)
    };
    let mut divisor: Vec<Cube> = cubes
        .iter()
        .filter(|c| cube_contains(c, &lit_cube))
        .map(|c| cube_minus(c, &lit_cube))
        .collect();
    let dc = common_cube(&divisor);
    if !dc.is_tautology() {
        divisor = divisor.iter().map(|c| cube_minus(c, &dc)).collect();
    }
    divisor.retain(|c| !c.is_tautology());
    divisor.dedup();

    if divisor.len() > 1 {
        let (q, r) = weak_div(cubes, &divisor);
        if q.len() > 1 {
            let head = Expr::and(vec![factor_cubes(&q), factor_cubes(&divisor)]);
            return if r.is_empty() {
                head
            } else {
                Expr::or(vec![head, factor_cubes(&r)])
            };
        }
    }

    // Literal division fallback: F = lit·Q + R.
    let mut quotient = Vec::new();
    let mut remainder = Vec::new();
    for c in cubes {
        if cube_contains(c, &lit_cube) {
            quotient.push(cube_minus(c, &lit_cube));
        } else {
            remainder.push(*c);
        }
    }
    let head = Expr::and(vec![literal_expr(v, positive), factor_cubes(&quotient)]);
    if remainder.is_empty() {
        head
    } else {
        Expr::or(vec![head, factor_cubes(&remainder)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isop::isop;
    use crate::tt::TruthTable;

    fn roundtrip(f: &TruthTable) {
        let cover = isop(f);
        let e = factor(&cover);
        assert_eq!(e.to_tt(f.nvars()), *f);
        assert!(e.num_literals() <= cover.num_literals().max(1));
    }

    #[test]
    fn exhaustive_3vars() {
        for bits in 0..256u64 {
            roundtrip(&TruthTable::from_bits(3, bits));
        }
    }

    #[test]
    fn random_6vars() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let hi = state;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let f = TruthTable::from_bits(6, hi ^ state.rotate_left(17));
            roundtrip(&f);
        }
    }

    #[test]
    fn factoring_reduces_literals() {
        // A·C + A·D + B·C + B·D = (A+B)·(C+D): 8 literals -> 4.
        let f: crate::Expr = "A·C + A·D + B·C + B·D".parse().unwrap();
        let tt = f.to_tt(4);
        let e = factor(&isop(&tt));
        assert_eq!(e.num_literals(), 4);
    }

    #[test]
    fn weak_division_example() {
        // F = AC + AD + BC + BD + E; D = {C, D} -> Q = {A, B}, R = {E}.
        let cubes = vec![
            Cube::new().with_pos(0).with_pos(2),
            Cube::new().with_pos(0).with_pos(3),
            Cube::new().with_pos(1).with_pos(2),
            Cube::new().with_pos(1).with_pos(3),
            Cube::new().with_pos(4),
        ];
        let d = vec![Cube::new().with_pos(2), Cube::new().with_pos(3)];
        let (q, r) = weak_div(&cubes, &d);
        assert_eq!(q.len(), 2);
        assert_eq!(r, vec![Cube::new().with_pos(4)]);
    }

    #[test]
    fn common_cube_extraction() {
        // A·B·C + A·B·D = A·B·(C+D): 6 literals -> 4.
        let f: crate::Expr = "A·B·C + A·B·D".parse().unwrap();
        let tt = f.to_tt(4);
        let e = factor(&isop(&tt));
        assert_eq!(e.to_tt(4), tt);
        assert!(e.num_literals() <= 4);
    }

    #[test]
    fn constants() {
        assert_eq!(factor(&Sop::zero(3)), Expr::Const(false));
        let taut = Sop::from_cubes(3, vec![Cube::new()]);
        assert_eq!(factor(&taut), Expr::Const(true));
    }
}
