//! Dense truth-table representation of Boolean functions of up to
//! [`MAX_VARS`] variables.
//!
//! Minterm `i` assigns variable `v` the value `(i >> v) & 1`; bit `i`
//! of the table is the function value on minterm `i`. Tables with
//! fewer than 6 variables still occupy one `u64` word, with the upper
//! bits kept as periodic copies of the lower `2^nvars` bits so that
//! word-level operators remain valid.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum number of variables a [`TruthTable`] can hold.
///
/// 16 variables ⇒ 2¹⁶ bits = 1024 words, which keeps exhaustive
/// equivalence checks in tests comfortably fast.
pub const MAX_VARS: usize = 16;

/// Bit masks selecting the positions where variable `v < 6` is 1
/// inside a single 64-bit word.
pub(crate) const WORD_VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table over a fixed number of variables.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::TruthTable;
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let c = TruthTable::var(3, 2);
/// let maj = (&a & &b) | (&b & &c) | (&a & &c);
/// assert_eq!(maj.count_ones(), 4);
/// assert!(maj.eval(0b111));
/// assert!(!maj.eval(0b001));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    nvars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Number of 64-bit words used to store `nvars` variables.
    fn word_count(nvars: usize) -> usize {
        if nvars <= 6 {
            1
        } else {
            1 << (nvars - 6)
        }
    }

    /// Replicates the low `2^nvars` bits periodically across the word
    /// (only meaningful for `nvars < 6`).
    fn normalize(&mut self) {
        if self.nvars < 6 {
            let period = 1usize << self.nvars;
            let mut w = self.words[0] & (!0u64 >> (64 - period));
            let mut width = period;
            while width < 64 {
                w |= w << width;
                width *= 2;
            }
            self.words[0] = w;
        }
    }

    /// The constant-zero function of `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn zero(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "too many variables: {nvars}");
        TruthTable { nvars, words: vec![0; Self::word_count(nvars)] }
    }

    /// The constant-one function of `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn one(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "too many variables: {nvars}");
        TruthTable { nvars, words: vec![!0u64; Self::word_count(nvars)] }
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= nvars` or `nvars > MAX_VARS`.
    pub fn var(nvars: usize, v: usize) -> Self {
        assert!(v < nvars, "variable {v} out of range for {nvars} vars");
        let mut t = Self::zero(nvars);
        if v < 6 {
            for w in &mut t.words {
                *w = WORD_VAR_MASKS[v];
            }
        } else {
            let block = 1usize << (v - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / block) & 1 == 1 {
                    *w = !0;
                }
            }
        }
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    pub fn from_fn<F: FnMut(u64) -> bool>(nvars: usize, mut f: F) -> Self {
        let mut t = Self::zero(nvars);
        for m in 0..(1u64 << nvars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t.normalize();
        t
    }

    /// Builds a table of `nvars <= 6` variables from the low `2^nvars`
    /// bits of `bits`.
    pub fn from_bits(nvars: usize, bits: u64) -> Self {
        assert!(nvars <= 6, "from_bits only supports up to 6 variables");
        let mut t = Self::zero(nvars);
        t.words[0] = bits;
        t.normalize();
        t
    }

    /// Builds a table from raw words (little-endian minterm order).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match the variable count.
    pub fn from_words(nvars: usize, words: Vec<u64>) -> Self {
        assert!(nvars <= MAX_VARS);
        assert_eq!(words.len(), Self::word_count(nvars), "word count mismatch");
        let mut t = TruthTable { nvars, words };
        t.normalize();
        t
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Raw storage words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value on minterm `m`.
    pub fn eval(&self, m: u64) -> bool {
        debug_assert!(m < (1u64 << self.nvars) || self.nvars >= 6);
        (self.words[(m >> 6) as usize] >> (m & 63)) & 1 == 1
    }

    /// Sets the value on minterm `m` (keeps periodic normalization for
    /// small tables).
    pub fn set(&mut self, m: u64, value: bool) {
        let (w, b) = ((m >> 6) as usize, m & 63);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
        self.normalize();
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        if self.nvars < 6 {
            (self.words[0] & (!0u64 >> (64 - (1 << self.nvars)))).count_ones() as u64
        } else {
            self.words.iter().map(|w| w.count_ones() as u64).sum()
        }
    }

    /// True iff the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True iff the function is constant 1.
    pub fn is_one(&self) -> bool {
        if self.nvars < 6 {
            let mask = !0u64 >> (64 - (1 << self.nvars));
            self.words[0] & mask == mask
        } else {
            self.words.iter().all(|&w| w == !0)
        }
    }

    /// Positive cofactor with respect to variable `v`: the result no
    /// longer depends on `v`.
    pub fn cofactor1(&self, v: usize) -> Self {
        assert!(v < self.nvars);
        let mut t = self.clone();
        if v < 6 {
            let m = WORD_VAR_MASKS[v];
            let s = 1u32 << v;
            for w in &mut t.words {
                let hi = *w & m;
                *w = hi | (hi >> s);
            }
        } else {
            let block = 1usize << (v - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..block {
                    t.words[i + j] = t.words[i + block + j];
                }
                i += 2 * block;
            }
        }
        t
    }

    /// Negative cofactor with respect to variable `v`.
    pub fn cofactor0(&self, v: usize) -> Self {
        assert!(v < self.nvars);
        let mut t = self.clone();
        if v < 6 {
            let m = WORD_VAR_MASKS[v];
            let s = 1u32 << v;
            for w in &mut t.words {
                let lo = *w & !m;
                *w = lo | (lo << s);
            }
        } else {
            let block = 1usize << (v - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..block {
                    t.words[i + block + j] = t.words[i + j];
                }
                i += 2 * block;
            }
        }
        t
    }

    /// True iff the function depends on variable `v`.
    pub fn depends_on(&self, v: usize) -> bool {
        self.cofactor0(v) != self.cofactor1(v)
    }

    /// The set of variables the function depends on, as a bitmask.
    pub fn support(&self) -> u32 {
        let mut s = 0;
        for v in 0..self.nvars {
            if self.depends_on(v) {
                s |= 1 << v;
            }
        }
        s
    }

    /// Number of variables in the support.
    pub fn support_size(&self) -> usize {
        self.support().count_ones() as usize
    }

    /// Replaces `f` by `f` with variable `v` complemented
    /// (`flip_var` ∘ `flip_var` = identity).
    pub fn flip_var(&self, v: usize) -> Self {
        assert!(v < self.nvars);
        let mut t = self.clone();
        if v < 6 {
            let m = WORD_VAR_MASKS[v];
            let s = 1u32 << v;
            for w in &mut t.words {
                *w = ((*w & m) >> s) | ((*w & !m) << s);
            }
        } else {
            let block = 1usize << (v - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..block {
                    t.words.swap(i + j, i + block + j);
                }
                i += 2 * block;
            }
        }
        t
    }

    /// Swaps variables `u` and `v`.
    pub fn swap_vars(&self, u: usize, v: usize) -> Self {
        assert!(u < self.nvars && v < self.nvars);
        if u == v {
            return self.clone();
        }
        let (u, v) = (u.min(v), u.max(v));
        let mut t = self.clone();
        if v < 6 {
            for w in &mut t.words {
                *w = crate::word::swap_vars(*w, u, v);
            }
        } else {
            // Fall back to an explicit minterm permutation.
            let mut out = Self::zero(self.nvars);
            for m in 0..(1u64 << self.nvars) {
                let bu = (m >> u) & 1;
                let bv = (m >> v) & 1;
                let mm = (m & !((1 << u) | (1 << v))) | (bv << u) | (bu << v);
                if self.eval(mm) {
                    out.set(m, true);
                }
            }
            t = out;
        }
        t
    }

    /// Renames variables: output variable `perm[i]` takes the role of
    /// input variable `i`, i.e. `g(x_{perm[0]}, …)` where
    /// `g = f.permute_vars(perm)` satisfies `g(y) = f(x)` with
    /// `y_{perm[i]} = x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute_vars(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.nvars);
        let mut seen = vec![false; self.nvars];
        for &p in perm {
            assert!(p < self.nvars && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        // Decompose into transpositions via cycle-chasing on a mutable
        // copy: repeatedly swap until each slot holds its target.
        let mut t = self.clone();
        let mut cur: Vec<usize> = (0..self.nvars).collect();
        for (i, &target) in perm.iter().enumerate() {
            // Find where variable that must end at perm[i] currently is.
            let j = cur.iter().position(|&c| c == i).expect("permutation is a bijection, i is present");
            // We want variable i (currently at slot j) to move to slot target.
            if j != target {
                t = t.swap_vars(j, target);
                cur.swap(j, target);
            }
        }
        t
    }

    /// Extends the table to `new_nvars ≥ nvars` variables (the added
    /// variables are don't-cares the function ignores).
    pub fn extend_to(&self, new_nvars: usize) -> Self {
        assert!(new_nvars >= self.nvars && new_nvars <= MAX_VARS);
        if new_nvars == self.nvars {
            return self.clone();
        }
        let mut t = TruthTable {
            nvars: new_nvars,
            words: vec![0; Self::word_count(new_nvars)],
        };
        let src = Self::word_count(self.nvars);
        for i in 0..t.words.len() {
            t.words[i] = self.words[i % src];
        }
        t
    }

    /// Restricts to the first `new_nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if the function depends on any dropped variable.
    pub fn shrink_to(&self, new_nvars: usize) -> Self {
        assert!(new_nvars <= self.nvars);
        for v in new_nvars..self.nvars {
            assert!(!self.depends_on(v), "function depends on dropped variable {v}");
        }
        let mut t = TruthTable {
            nvars: new_nvars,
            words: self.words[..Self::word_count(new_nvars)].to_vec(),
        };
        t.normalize();
        t
    }

    /// Hexadecimal string of the table (most significant minterm first).
    pub fn to_hex(&self) -> String {
        let digits = ((1usize << self.nvars) / 4).max(1);
        let mut s = String::new();
        for w in self.words.iter().rev() {
            s.push_str(&format!("{w:016x}"));
        }
        let keep = s.len().saturating_sub(digits);
        s[keep..].to_string()
    }

    /// The conjunction `(self ⊕ ca) & (other ⊕ cb)` in one pass —
    /// complements applied on the fly, so callers combining cone
    /// functions (AIG fanins carry edge complements) allocate only the
    /// result instead of cloning and negating both operands first.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn and_with_compl(&self, other: &TruthTable, ca: bool, cb: bool) -> TruthTable {
        assert_eq!(self.nvars, other.nvars, "variable count mismatch");
        let ma = if ca { !0u64 } else { 0 };
        let mb = if cb { !0u64 } else { 0 };
        TruthTable {
            nvars: self.nvars,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| (a ^ ma) & (b ^ mb))
                .collect(),
        }
    }

    /// Composes this table over sub-functions: result(m) =
    /// `self(inputs[0](m), …, inputs[n-1](m))`.
    ///
    /// All `inputs` must share the same variable count.
    pub fn compose(&self, inputs: &[TruthTable]) -> TruthTable {
        assert_eq!(inputs.len(), self.nvars);
        let inner = inputs.first().map(|t| t.nvars()).unwrap_or(0);
        for t in inputs {
            assert_eq!(t.nvars(), inner);
        }
        // Shannon expansion over this table's variables.
        fn rec(f: &TruthTable, inputs: &[TruthTable], v: usize, inner: usize) -> TruthTable {
            if f.is_zero() {
                return TruthTable::zero(inner);
            }
            if f.is_one() {
                return TruthTable::one(inner);
            }
            debug_assert!(v > 0, "non-constant function with no variables left");
            let v = v - 1;
            let f0 = rec(&f.cofactor0(v), inputs, v, inner);
            let f1 = rec(&f.cofactor1(v), inputs, v, inner);
            let x = &inputs[v];
            (&f1 & x) | (&f0 & &!x)
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
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                assert_eq!(self.nvars, rhs.nvars, "variable count mismatch");
                TruthTable {
                    nvars: self.nvars,
                    words: self
                        .words
                        .iter()
                        .zip(&rhs.words)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self) $op (&rhs)
            }
        }
        impl $trait<&TruthTable> for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                (&self) $op rhs
            }
        }
        impl $trait<TruthTable> for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                self $op (&rhs)
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        TruthTable {
            nvars: self.nvars,
            words: self.words.iter().map(|w| !w).collect(),
        }
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        !&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_projection() {
        for n in 1..=8 {
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
        let f = &a ^ &b;
        // Period-4 pattern 0b0110 replicated.
        assert_eq!(f.words()[0], 0x6666_6666_6666_6666);
    }

    #[test]
    fn cofactors() {
        let n = 7;
        let a = TruthTable::var(n, 0);
        let g = TruthTable::var(n, 6);
        let f = &a & &g;
        assert_eq!(f.cofactor1(6), a);
        assert!(f.cofactor0(6).is_zero());
        assert!(f.depends_on(0));
        assert!(f.depends_on(6));
        assert!(!f.depends_on(3));
        assert_eq!(f.support(), 0b100_0001);
    }

    #[test]
    fn flip_is_involution() {
        let f = TruthTable::from_fn(8, |m| (m * 2654435761) % 7 < 3);
        for v in 0..8 {
            assert_eq!(f.flip_var(v).flip_var(v), f);
        }
    }

    #[test]
    fn swap_matches_semantics() {
        let f = TruthTable::from_fn(7, |m| (m ^ (m >> 3)).count_ones() % 2 == 0);
        for u in 0..7 {
            for v in 0..7 {
                let g = f.swap_vars(u, v);
                for m in 0..(1u64 << 7) {
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
    fn extend_and_shrink() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() >= 2);
        let g = f.extend_to(9);
        assert!(!g.depends_on(7));
        assert_eq!(g.shrink_to(4), f);
        for m in 0..(1u64 << 9) {
            assert_eq!(g.eval(m), f.eval(m & 0xF));
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
        let f = maj.compose(&[&a ^ &b, &b ^ &c, &c ^ &d]);
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
