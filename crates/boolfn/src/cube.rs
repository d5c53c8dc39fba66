//! Cubes (product terms) and sum-of-products covers.

use crate::tt::TruthTable;
use std::fmt;

/// A product term over at most 16 variables, stored as positive- and
/// negative-literal bitmasks.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::Cube;
///
/// let c = Cube::new().with_pos(0).with_neg(2); // x0 · x2'
/// assert_eq!(c.num_literals(), 2);
/// assert!(c.eval(0b001));
/// assert!(!c.eval(0b101));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    pos: u32,
    neg: u32,
}

impl Cube {
    /// The empty (tautology) cube.
    pub fn new() -> Self {
        Cube { pos: 0, neg: 0 }
    }

    /// Adds a positive literal for variable `v`.
    pub fn with_pos(mut self, v: usize) -> Self {
        self.pos |= 1 << v;
        self
    }

    /// Adds a negative literal for variable `v`.
    pub fn with_neg(mut self, v: usize) -> Self {
        self.neg |= 1 << v;
        self
    }

    /// Positive-literal mask.
    pub fn pos(&self) -> u32 {
        self.pos
    }

    /// Negative-literal mask.
    pub fn neg(&self) -> u32 {
        self.neg
    }

    /// True iff the cube contains no literals (constant one).
    pub fn is_tautology(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }

    /// True iff the cube contains contradictory literals (constant
    /// zero).
    pub fn is_contradiction(&self) -> bool {
        self.pos & self.neg != 0
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        (self.pos | self.neg).count_ones() as usize
    }

    /// Whether the cube mentions variable `v` (in either polarity).
    pub fn mentions(&self, v: usize) -> bool {
        (self.pos | self.neg) >> v & 1 == 1
    }

    /// Evaluates the cube on a minterm.
    pub fn eval(&self, m: u64) -> bool {
        let m32 = m as u32;
        (m32 & self.pos) == self.pos && (!m32 & self.neg) == self.neg
    }

    /// Truth table of the cube over `nvars` variables.
    pub fn to_tt(&self, nvars: usize) -> TruthTable {
        let mut t = TruthTable::one(nvars);
        for v in 0..nvars {
            if self.pos >> v & 1 == 1 {
                t = t & TruthTable::var(nvars, v);
            }
            if self.neg >> v & 1 == 1 {
                t = t & !TruthTable::var(nvars, v);
            }
        }
        t
    }

    /// Intersection (product) of two cubes, or `None` if contradictory.
    pub fn and(&self, other: &Cube) -> Option<Cube> {
        let c = Cube { pos: self.pos | other.pos, neg: self.neg | other.neg };
        if c.is_contradiction() {
            None
        } else {
            Some(c)
        }
    }

    /// Removes any literal on variable `v`.
    pub fn without(&self, v: usize) -> Cube {
        Cube { pos: self.pos & !(1 << v), neg: self.neg & !(1 << v) }
    }
}

impl Default for Cube {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tautology() {
            return write!(f, "1");
        }
        let mut first = true;
        for v in 0..32 {
            if self.pos >> v & 1 == 1 {
                if !first {
                    write!(f, "·")?;
                }
                write!(f, "{}", var_name(v))?;
                first = false;
            }
            if self.neg >> v & 1 == 1 {
                if !first {
                    write!(f, "·")?;
                }
                write!(f, "{}'", var_name(v))?;
                first = false;
            }
        }
        Ok(())
    }
}

pub(crate) fn var_name(v: usize) -> char {
    (b'A' + v as u8) as char
}

/// A sum-of-products cover.
///
/// # Examples
///
/// ```
/// use cntfet_boolfn::{Cube, Sop, TruthTable};
///
/// let sop = Sop::from_cubes(2, vec![
///     Cube::new().with_pos(0).with_neg(1),
///     Cube::new().with_neg(0).with_pos(1),
/// ]);
/// let a = TruthTable::var(2, 0);
/// let b = TruthTable::var(2, 1);
/// assert_eq!(sop.to_tt(), a ^ b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sop {
    nvars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// Creates a cover from explicit cubes.
    pub fn from_cubes(nvars: usize, cubes: Vec<Cube>) -> Self {
        Sop { nvars, cubes }
    }

    /// The empty (constant-zero) cover.
    pub fn zero(nvars: usize) -> Self {
        Sop { nvars, cubes: Vec::new() }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Evaluates the cover on a minterm.
    pub fn eval(&self, m: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(m))
    }

    /// Truth table of the cover.
    pub fn to_tt(&self) -> TruthTable {
        let mut t = TruthTable::zero(self.nvars);
        for c in &self.cubes {
            t = t | c.to_tt(self.nvars);
        }
        t
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_algebra() {
        let a = Cube::new().with_pos(0);
        let b = Cube::new().with_neg(0);
        assert!(a.and(&b).is_none());
        let c = Cube::new().with_pos(1);
        let ac = a.and(&c).unwrap();
        assert_eq!(ac.num_literals(), 2);
        assert!(ac.eval(0b11));
        assert!(!ac.eval(0b10));
        assert_eq!(ac.without(0), c);
    }

    #[test]
    fn cube_tt() {
        let c = Cube::new().with_pos(0).with_neg(2);
        let t = c.to_tt(3);
        for m in 0..8u64 {
            assert_eq!(t.eval(m), (m & 1 == 1) && (m & 4 == 0));
        }
    }

    #[test]
    fn sop_display() {
        let sop = Sop::from_cubes(
            3,
            vec![
                Cube::new().with_pos(0).with_neg(1),
                Cube::new().with_pos(2),
            ],
        );
        assert_eq!(sop.to_string(), "A·B' + C");
        assert_eq!(sop.num_literals(), 3);
    }

    #[test]
    fn tautology_and_zero() {
        assert!(Cube::new().is_tautology());
        assert!(Sop::zero(3).to_tt().is_zero());
        let taut = Sop::from_cubes(3, vec![Cube::new()]);
        assert!(taut.to_tt().is_one());
    }
}
