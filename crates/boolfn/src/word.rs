//! Single-word truth-table kernels: functions of up to
//! [`MAX_WORD_VARS`] variables packed into one `u64`.
//!
//! Bit `i` is the function value on minterm `i`, and for fewer than 6
//! variables the upper bits hold periodic copies of the low `2^nvars`
//! bits, so `&`, `|`, `^` and `!` act directly as Boolean connectives.
//! A [`crate::TruthTable`] is such a word with its variable count, and
//! its methods are these kernels; cut enumeration, technology mapping
//! and NPN canonicalization call them on bare words.

/// Maximum variable count a single word can hold.
pub const MAX_WORD_VARS: usize = 6;

/// Positions where variable `v` is 1 inside a 64-bit word.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The projection word of variable `v` (any arity that contains `v`).
///
/// # Panics
///
/// Panics if `v >= MAX_WORD_VARS`.
pub fn var_word(v: usize) -> u64 {
    VAR_MASKS[v]
}

/// Replicates the low `2^nvars` bits of `low` periodically across the
/// word — the normal form every helper in this module expects and
/// produces.
///
/// # Panics
///
/// Panics if `nvars > MAX_WORD_VARS`.
pub fn replicate(nvars: usize, low: u64) -> u64 {
    assert!(nvars <= MAX_WORD_VARS);
    if nvars >= 6 {
        return low;
    }
    let period = 1usize << nvars;
    let mut w = low & (!0u64 >> (64 - period));
    let mut width = period;
    while width < 64 {
        w |= w << width;
        width *= 2;
    }
    w
}

/// Complements variable `v` of the function: `flip_var(tt, v)` is
/// `tt` with the two `v`-cofactors exchanged (an involution).
///
/// # Panics
///
/// Panics if `v >= MAX_WORD_VARS`.
pub fn flip_var(tt: u64, v: usize) -> u64 {
    let m = VAR_MASKS[v];
    let s = 1u32 << v;
    ((tt & m) >> s) | ((tt & !m) << s)
}

/// Exchanges variables `u` and `v` of the function (a delta swap of
/// the minterm pairs that differ in exactly those two coordinates).
///
/// # Panics
///
/// Panics if `u` or `v` is `>= MAX_WORD_VARS`.
pub fn swap_vars(tt: u64, u: usize, v: usize) -> u64 {
    let (u, v) = (u.min(v), u.max(v));
    if u == v {
        return tt;
    }
    // Minterms with x_u = 1, x_v = 0 trade places with their partners
    // `shift` positions up, where x_u = 0, x_v = 1.
    let low = VAR_MASKS[u] & !VAR_MASKS[v];
    let shift = (1u32 << v) - (1u32 << u);
    let delta = ((tt >> shift) ^ tt) & low;
    tt ^ delta ^ (delta << shift)
}

/// True iff the function depends on variable `v < MAX_WORD_VARS`.
pub fn depends_on(tt: u64, v: usize) -> bool {
    let m = VAR_MASKS[v];
    ((tt & m) >> (1u32 << v)) != tt & !m
}

/// Ascending list of variables (below `nvars`) the function depends
/// on, appended to `out`.
pub fn support(tt: u64, nvars: usize, out: &mut Vec<usize>) {
    out.clear();
    for v in 0..nvars.min(MAX_WORD_VARS) {
        if depends_on(tt, v) {
            out.push(v);
        }
    }
}

/// Compacts `tt` onto the (ascending) variable subset `vars`: the
/// result is a function of `vars.len()` variables where new variable
/// `i` stands for old variable `vars[i]`, in normal form. Only
/// meaningful when `tt` does not depend on any variable outside
/// `vars`.
///
/// At most `vars.len()` delta swaps: ascending, each moves `vars[i]`
/// down to position `i`, which no later swap touches.
pub fn shrink_to(tt: u64, vars: &[usize]) -> u64 {
    let k = vars.len();
    debug_assert!(k <= MAX_WORD_VARS);
    debug_assert!(vars.windows(2).all(|w| w[0] < w[1]));
    let mut w = tt;
    for (i, &v) in vars.iter().enumerate() {
        if v != i {
            w = swap_vars(w, i, v);
        }
    }
    replicate(k, w)
}

/// Re-expresses `tt`, a function of `k = pos.len()` variables, over a
/// wider space of `to_nvars` variables: source variable `i` becomes
/// target variable `pos[i]` (`pos` strictly ascending). The inverse
/// direction of [`shrink_to`]. Only the low `2^k` bits of `tt` are
/// read, and the result is in normal form over `to_nvars`; when `pos`
/// fills the whole space, `tt` comes back unchanged.
///
/// The input is put in normal form over `k` variables, then at most
/// `k` delta swaps follow: descending, each moves source variable `i`
/// up onto `pos[i]`, which by then holds a variable the word does not
/// depend on.
pub fn expand(tt: u64, pos: &[usize], to_nvars: usize) -> u64 {
    debug_assert!(to_nvars <= MAX_WORD_VARS);
    debug_assert!(pos.windows(2).all(|w| w[0] < w[1]));
    if pos.len() == to_nvars {
        // Ascending positions filling the whole space ⇒ identity.
        return tt;
    }
    let mut w = replicate(pos.len(), tt);
    for (i, &p) in pos.iter().enumerate().rev() {
        if p != i {
            w = swap_vars(w, i, p);
        }
    }
    w
}

/// Reorders the variables of `tt`, a function of `perm.len()`
/// variables: source variable `i` becomes target variable `perm[i]`
/// (`perm` a permutation of `0..perm.len()`, in any order — the
/// general-permutation counterpart of [`expand`]'s ascending
/// embedding). Used when a cut's leaves are re-sorted under a new id
/// order and the stored function word must follow them, and by NPN
/// transforms.
pub fn permute(tt: u64, perm: &[usize]) -> u64 {
    let k = perm.len();
    debug_assert!(k <= MAX_WORD_VARS);
    debug_assert!((0..k).all(|v| perm.contains(&v)));
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        return tt;
    }
    // `at[p]` = source variable now at position `p`, `pos` its
    // inverse. Each swap moves source variable `i` to its target and
    // never disturbs the variables placed before it.
    let mut at = [0, 1, 2, 3, 4, 5];
    let mut pos = at;
    let mut w = tt;
    for (i, &to) in perm.iter().enumerate() {
        let from = pos[i];
        if from != to {
            w = swap_vars(w, from, to);
            let displaced = at[to];
            at.swap(from, to);
            pos[displaced] = from;
            pos[i] = to;
        }
    }
    replicate(k, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_reorders_variables() {
        // f = x0 & ¬x2 over 3 vars; swap x0 ↔ x2.
        let f = var_word(0) & !var_word(2);
        let g = permute(f, &[2, 1, 0]);
        assert_eq!(g, replicate(3, var_word(2) & !var_word(0)));
        // Identity permutation is a no-op.
        assert_eq!(permute(f, &[0, 1, 2]), f);
        // A 4-var rotation checked against per-minterm evaluation.
        let h = replicate(4, 0xBEEF);
        let perm = [1usize, 2, 3, 0];
        let r = permute(h, &perm);
        for m in 0..16u64 {
            let mut to = 0u64;
            for (i, &p) in perm.iter().enumerate() {
                to |= (m >> i & 1) << p;
            }
            assert_eq!(r >> to & 1, h >> m & 1, "minterm {m}");
        }
    }

    #[test]
    fn depends_and_support() {
        // f = x0 & x2 over 3 vars.
        let f = var_word(0) & var_word(2);
        assert!(depends_on(f, 0));
        assert!(!depends_on(f, 1));
        assert!(depends_on(f, 2));
        let mut s = Vec::new();
        support(f, 3, &mut s);
        assert_eq!(s, vec![0, 2]);
    }

    #[test]
    fn shrink_then_expand_roundtrips() {
        // f = x1 ^ x3 over 4 vars; support {1, 3}.
        let f = replicate(4, var_word(1) ^ var_word(3));
        let small = shrink_to(f, &[1, 3]);
        assert_eq!(small, replicate(2, var_word(0) ^ var_word(1)));
        assert_eq!(expand(small, &[1, 3], 4), f);
    }

    /// The bit-serial `shrink_to` the delta swaps replaced: every
    /// minterm of the result reads its source bit through a loop over
    /// the variables.
    fn shrink_to_reference(tt: u64, vars: &[usize]) -> u64 {
        let k = vars.len();
        if vars.iter().enumerate().all(|(i, &v)| i == v) {
            return replicate(k, tt);
        }
        let mut out = 0u64;
        for m in 0..(1u64 << k) {
            let mut full = 0u64;
            for (i, &v) in vars.iter().enumerate() {
                full |= (m >> i & 1) << v;
            }
            if tt >> full & 1 == 1 {
                out |= 1 << m;
            }
        }
        replicate(k, out)
    }

    /// The bit-serial `expand` the delta swaps replaced.
    fn expand_reference(tt: u64, pos: &[usize], to_nvars: usize) -> u64 {
        if pos.len() == to_nvars {
            return tt;
        }
        let mut out = 0u64;
        for m in 0..(1u64 << to_nvars) {
            let mut sub = 0u64;
            for (i, &p) in pos.iter().enumerate() {
                sub |= (m >> p & 1) << i;
            }
            if tt >> sub & 1 == 1 {
                out |= 1 << m;
            }
        }
        replicate(to_nvars, out)
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn delta_swap_kernels_match_bit_serial_reference() {
        // Every ascending position set of every arity: all words of up
        // to 3 variables, 500 random normalized words above that.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for n in 0..=MAX_WORD_VARS {
            for set in 0u32..(1 << n) {
                let pos: Vec<usize> = (0..n).filter(|&v| set >> v & 1 == 1).collect();
                let k = pos.len();
                let words: Vec<u64> = if k <= 3 {
                    (0..1u64 << (1u32 << k)).map(|bits| replicate(k, bits)).collect()
                } else {
                    (0..500).map(|_| replicate(k, xorshift(&mut x))).collect()
                };
                for f in words {
                    let wide = expand(f, &pos, n);
                    assert_eq!(wide, expand_reference(f, &pos, n), "expand({f:#x}, {pos:?}, {n})");
                    assert_eq!(shrink_to(wide, &pos), f, "round trip of {f:#x} via {pos:?}");
                    assert_eq!(shrink_to(wide, &pos), shrink_to_reference(wide, &pos));
                    // Unnormalized input: only the low 2^k bits count,
                    // unless `pos` is the identity and the word passes
                    // through unchanged — in both versions.
                    let raw = xorshift(&mut x);
                    assert_eq!(
                        expand(raw, &pos, n),
                        expand_reference(raw, &pos, n),
                        "expand({raw:#x}, {pos:?}, {n})"
                    );
                }
            }
        }
    }

    #[test]
    fn expand_identity_fast_path() {
        let f = replicate(3, 0b1011_0010);
        assert_eq!(expand(f, &[0, 1, 2], 3), f);
    }
}
