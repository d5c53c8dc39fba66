//! Synthesis entry points: `resyn2rs`/`quick_opt` as scripts over the
//! pass framework, with a never-worse guard.

use crate::pass::{AigStats, Script};
use cntfet_aig::Aig;

/// Options of [`resyn2rs_with`] / [`quick_opt_with`].
///
/// # Examples
///
/// ```
/// use cntfet_aig::{equivalent, Aig};
/// use cntfet_synth::{resyn2rs_with, SynthOptions};
///
/// let mut g = Aig::new("chain");
/// let pis = g.add_pis(8);
/// let mut acc = pis[0];
/// for &p in &pis[1..] {
///     acc = g.and(acc, p);
/// }
/// g.add_po(acc);
///
/// // One self-checked round.
/// let opts = SynthOptions { rounds: 1, self_check: true };
/// let opt = resyn2rs_with(&g, &opts);
/// assert!(equivalent(&g, &opt));
/// assert!(opt.depth() <= 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthOptions {
    /// Maximum script rounds (each round runs the full pass sequence;
    /// iteration stops early once a round stops improving).
    pub rounds: usize,
    /// Run the CEC self-check hook after every pass (expensive;
    /// intended for tests and debugging).
    pub self_check: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions { rounds: 4, self_check: false }
    }
}

/// Runs the `resyn2rs`-flavoured optimization script with default
/// options (4 rounds).
///
/// Returns an AIG logically equivalent to the input that is never
/// worse than it in `(ands, depth)`: each round must strictly improve
/// or its result is discarded.
pub fn resyn2rs(aig: &Aig) -> Aig {
    resyn2rs_with(aig, &SynthOptions::default())
}

/// [`resyn2rs`] with explicit [`SynthOptions`].
pub fn resyn2rs_with(aig: &Aig, opts: &SynthOptions) -> Aig {
    run_rounds(aig, opts, Script::resyn2rs)
}

/// A light script for quick optimization (one balance + rewrite).
pub fn quick_opt(aig: &Aig) -> Aig {
    quick_opt_with(aig, &SynthOptions { rounds: 1, ..Default::default() })
}

/// [`quick_opt`] with explicit [`SynthOptions`].
pub fn quick_opt_with(aig: &Aig, opts: &SynthOptions) -> Aig {
    run_rounds(aig, opts, Script::quick)
}

/// Round loop with the never-worse guard: keeps the best `(ands,
/// depth)` snapshot, stops as soon as a round fails to improve it.
/// One [`Script`] instance runs all rounds, so its no-op skip state
/// carries over — a converged graph's follow-up round costs almost
/// nothing.
fn run_rounds(aig: &Aig, opts: &SynthOptions, script: fn() -> Script) -> Aig {
    let mut best = aig.compact();
    let mut best_stats = AigStats::of(&best);
    let mut script = script().with_self_check(opts.self_check);
    for _round in 0..opts.rounds {
        let mut cur = best.clone();
        script.run(&mut cur);
        let stats = AigStats::of(&cur);
        if stats.better_than(&best_stats) {
            best = cur;
            best_stats = stats;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_aig::equivalent;

    /// A messy ripple-carry adder with redundant logic sprinkled in.
    fn messy_adder(bits: usize) -> Aig {
        let mut g = Aig::new("messy");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = cntfet_aig::Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            // Redundant re-computation of the same sum.
            let x2 = g.xor(b[i], a[i]);
            let s2 = g.xor(carry, x2);
            let both = g.and(s, s2); // == s
            g.add_po(both);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    #[test]
    fn resyn2rs_preserves_function_and_shrinks() {
        let g = messy_adder(6);
        let o = resyn2rs(&g);
        assert!(equivalent(&g, &o), "resyn2rs must preserve the function");
        assert!(o.num_ands() <= g.num_ands(), "{} -> {}", g.num_ands(), o.num_ands());
    }

    /// `(ands, depth)` of the seed-era rebuild engine's `resyn2rs` on
    /// `messy_adder(bits)`, recorded before that engine was deleted.
    const SEED_MESSY_ADDERS: [(usize, AigStats); 3] = [
        (2, AigStats { ands: 13, depth: 4 }),
        (4, AigStats { ands: 31, depth: 8 }),
        (6, AigStats { ands: 49, depth: 12 }),
    ];

    #[test]
    fn in_place_never_worse_than_seed_on_messy_adders() {
        for (bits, seed) in SEED_MESSY_ADDERS {
            let g = messy_adder(bits);
            let new = resyn2rs(&g);
            assert!(equivalent(&g, &new));
            let ns = AigStats::of(&new);
            assert!(!seed.better_than(&ns), "bits={bits}: in-place {ns:?} vs seed {seed:?}");
        }
    }

    #[test]
    fn quick_opt_preserves_function() {
        let g = messy_adder(4);
        let o = quick_opt(&g);
        assert!(equivalent(&g, &o));
    }

    #[test]
    fn self_check_mode_runs_clean() {
        let g = messy_adder(3);
        let opts = SynthOptions { rounds: 2, self_check: true };
        let o = resyn2rs_with(&g, &opts);
        assert!(equivalent(&g, &o));
    }

    #[test]
    fn stats_capture() {
        let g = messy_adder(2);
        let s = AigStats::of(&g);
        assert!(s.ands > 0);
        assert!(s.depth > 0);
    }
}
