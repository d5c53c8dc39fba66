//! Truth tables of Boolean functions of up to
//! [`MAX_WORD_VARS`](crate::word::MAX_WORD_VARS) variables, each held
//! in one `u64` word.
//!
//! Minterm `i` assigns variable `v` the value `(i >> v) & 1`; bit `i`
//! of the word is the function value on minterm `i`. A table of fewer
//! than 6 variables keeps the upper bits as periodic copies of the low
//! `2^nvars` bits (the normal form of [`crate::word`]), so the word
//! operators act directly as Boolean connectives. A [`TruthTable`] is
//! that word plus its variable count; its methods are the `word`
//! kernels with the variable count checked.

use crate::word::{self, MAX_WORD_VARS};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A complete truth table over a fixed number of variables, at most
/// [`MAX_WORD_VARS`](crate::word::MAX_WORD_VARS).
///
/// Tables order by variable count, then by word.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::TruthTable;
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let maj = (a & b) | (b & c) | (a & c);
/// assert_eq!(maj.count_ones(), 4);
/// assert!(maj.eval(0b111));
/// assert!(!maj.eval(0b001));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    nvars: usize,
    bits: u64,
}

impl TruthTable {
    /// The constant-zero function of `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_WORD_VARS`.
    pub fn zero(nvars: usize) -> Self {
        Self::from_bits(nvars, 0)
    }

    /// The constant-one function of `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_WORD_VARS`.
    pub fn one(nvars: usize) -> Self {
        Self::from_bits(nvars, !0)
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= nvars` or `nvars > MAX_WORD_VARS`.
    pub fn var(nvars: usize, v: usize) -> Self {
        assert!(v < nvars, "variable {v} out of range for {nvars} vars");
        Self::from_bits(nvars, word::var_word(v))
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_WORD_VARS`.
    pub fn from_fn<F: FnMut(u64) -> bool>(nvars: usize, mut f: F) -> Self {
        assert!(nvars <= MAX_WORD_VARS, "too many variables: {nvars}");
        let low = (0..1u64 << nvars).filter(|&m| f(m)).fold(0, |w, m| w | 1 << m);
        Self::from_bits(nvars, low)
    }

    /// Builds a table of `nvars` variables from the low `2^nvars` bits
    /// of `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_WORD_VARS`.
    pub fn from_bits(nvars: usize, bits: u64) -> Self {
        TruthTable { nvars, bits: word::replicate(nvars, bits) }
    }

    /// Number of variables.
    pub fn nvars(self) -> usize {
        self.nvars
    }

    /// The table's word, in the periodic normal form of
    /// [`crate::word`].
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Value on minterm `m`.
    pub fn eval(self, m: u64) -> bool {
        debug_assert!(m < 1 << self.nvars);
        self.bits >> m & 1 == 1
    }

    /// Number of satisfying minterms.
    pub fn count_ones(self) -> u64 {
        // The word holds 2^(6 - nvars) copies of the table.
        u64::from(self.bits.count_ones()) >> (MAX_WORD_VARS - self.nvars)
    }

    /// True iff the function is constant 0.
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// True iff the function is constant 1.
    pub fn is_one(self) -> bool {
        self.bits == !0
    }

    /// Positive cofactor with respect to variable `v`: the result no
    /// longer depends on `v`.
    pub fn cofactor1(self, v: usize) -> Self {
        assert!(v < self.nvars);
        let hi = self.bits & word::var_word(v);
        TruthTable { bits: hi | hi >> (1 << v), ..self }
    }

    /// Negative cofactor with respect to variable `v`.
    pub fn cofactor0(self, v: usize) -> Self {
        assert!(v < self.nvars);
        let lo = self.bits & !word::var_word(v);
        TruthTable { bits: lo | lo << (1 << v), ..self }
    }

    /// True iff the function depends on variable `v`.
    pub fn depends_on(self, v: usize) -> bool {
        assert!(v < self.nvars);
        word::depends_on(self.bits, v)
    }

    /// The set of variables the function depends on, as a bitmask.
    pub fn support(self) -> u32 {
        (0..self.nvars).filter(|&v| self.depends_on(v)).fold(0, |s, v| s | 1 << v)
    }

    /// Number of variables in the support.
    pub fn support_size(self) -> usize {
        self.support().count_ones() as usize
    }

    /// Replaces `f` by `f` with variable `v` complemented
    /// (`flip_var` ∘ `flip_var` = identity).
    pub fn flip_var(self, v: usize) -> Self {
        assert!(v < self.nvars);
        TruthTable { bits: word::flip_var(self.bits, v), ..self }
    }

    /// Swaps variables `u` and `v`.
    pub fn swap_vars(self, u: usize, v: usize) -> Self {
        assert!(u < self.nvars && v < self.nvars);
        TruthTable { bits: word::swap_vars(self.bits, u, v), ..self }
    }

    /// Renames variables: output variable `perm[i]` takes the role of
    /// input variable `i`, i.e. `g(x_{perm[0]}, …)` where
    /// `g = f.permute_vars(perm)` satisfies `g(y) = f(x)` with
    /// `y_{perm[i]} = x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute_vars(self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.nvars);
        let mut seen = 0u32;
        for &p in perm {
            assert!(p < self.nvars && seen >> p & 1 == 0, "invalid permutation");
            seen |= 1 << p;
        }
        TruthTable { bits: word::permute(self.bits, perm), ..self }
    }

    /// Hexadecimal string of the table (most significant minterm first).
    pub fn to_hex(self) -> String {
        let digits = ((1usize << self.nvars) / 4).max(1);
        format!("{:016x}", self.bits)[16 - digits..].to_string()
    }

    /// Composes this table over sub-functions: result(m) =
    /// `self(inputs[0](m), …, inputs[n-1](m))`.
    ///
    /// All `inputs` must share the same variable count.
    pub fn compose(self, inputs: &[TruthTable]) -> TruthTable {
        assert_eq!(inputs.len(), self.nvars);
        let inner = inputs.first().map_or(0, |t| t.nvars);
        assert!(inputs.iter().all(|t| t.nvars == inner));
        // Shannon expansion over this table's variables.
        fn rec(f: TruthTable, inputs: &[TruthTable], v: usize, inner: usize) -> TruthTable {
            if f.is_zero() {
                return TruthTable::zero(inner);
            }
            if f.is_one() {
                return TruthTable::one(inner);
            }
            debug_assert!(v > 0, "non-constant function with no variables left");
            let v = v - 1;
            let f0 = rec(f.cofactor0(v), inputs, v, inner);
            let f1 = rec(f.cofactor1(v), inputs, v, inner);
            (f1 & inputs[v]) | (f0 & !inputs[v])
        }
        rec(self, inputs, self.nvars, inner)
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, 0x{})", self.nvars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
                TruthTable { bits: self.bits $op rhs.bits, ..self }
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        TruthTable { bits: !self.bits, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_projection() {
        for n in 1..=MAX_WORD_VARS {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for m in 0..(1u64 << n) {
                    assert_eq!(t.eval(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn small_tables_are_periodic() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = a ^ b;
        // Period-4 pattern 0b0110 replicated.
        assert_eq!(f.bits(), 0x6666_6666_6666_6666);
    }

    #[test]
    fn cofactors() {
        let n = 6;
        let a = TruthTable::var(n, 0);
        let g = TruthTable::var(n, 5);
        let f = a & g;
        assert_eq!(f.cofactor1(5), a);
        assert!(f.cofactor0(5).is_zero());
        assert!(f.depends_on(0));
        assert!(f.depends_on(5));
        assert!(!f.depends_on(3));
        assert_eq!(f.support(), 0b10_0001);
    }

    #[test]
    fn flip_is_involution() {
        let f = TruthTable::from_fn(6, |m| (m * 2654435761) % 7 < 3);
        for v in 0..6 {
            assert_eq!(f.flip_var(v).flip_var(v), f);
        }
    }

    #[test]
    fn swap_matches_semantics() {
        let f = TruthTable::from_fn(6, |m| (m ^ (m >> 3)).count_ones() % 2 == 0);
        for u in 0..6 {
            for v in 0..6 {
                let g = f.swap_vars(u, v);
                for m in 0..(1u64 << 6) {
                    let bu = (m >> u) & 1;
                    let bv = (m >> v) & 1;
                    let mm = (m & !((1 << u) | (1 << v))) | (bv << u) | (bu << v);
                    assert_eq!(g.eval(m), f.eval(mm));
                }
            }
        }
    }

    #[test]
    fn permutation_roundtrip() {
        let f = TruthTable::from_fn(5, |m| m % 3 == 0);
        let perm = [2usize, 0, 4, 1, 3];
        let g = f.permute_vars(&perm);
        // g(y) = f(x) with y[perm[i]] = x[i].
        for m in 0..(1u64 << 5) {
            let mut y = 0u64;
            for (i, &p) in perm.iter().enumerate() {
                y |= ((m >> i) & 1) << p;
            }
            assert_eq!(g.eval(y), f.eval(m));
        }
    }

    #[test]
    fn compose_majority_of_xors() {
        // maj(a^b, b^c, c^d) over 4 inner vars.
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let f = maj.compose(&[a ^ b, b ^ c, c ^ d]);
        for m in 0..16u64 {
            let (a, b, c, d) = (m & 1, (m >> 1) & 1, (m >> 2) & 1, (m >> 3) & 1);
            let expect = ((a ^ b) + (b ^ c) + (c ^ d)) >= 2;
            assert_eq!(f.eval(m), expect, "m={m}");
        }
    }

    #[test]
    fn counting_and_constants() {
        assert!(TruthTable::zero(3).is_zero());
        assert!(TruthTable::one(3).is_one());
        assert_eq!(TruthTable::one(3).count_ones(), 8);
        assert_eq!(TruthTable::var(3, 1).count_ones(), 4);
        let f = TruthTable::from_bits(2, 0b0110);
        assert_eq!(f.count_ones(), 2);
    }

    #[test]
    fn hex_rendering() {
        let f = TruthTable::from_bits(3, 0b1001_0110);
        assert_eq!(f.to_hex(), "96");
        let g = TruthTable::var(2, 0);
        assert_eq!(g.to_hex(), "a");
    }
}
