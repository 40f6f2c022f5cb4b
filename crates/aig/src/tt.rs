//! Truth-table utilities for functions of up to six variables.
//!
//! A truth table is a `u64` whose bit `m` holds the function value on the
//! input minterm `m` (variable `i` contributes bit `i` of `m`). Tables over
//! `k < 6` variables occupy the low `2^k` bits; the rest must be zero and is
//! enforced by [`mask`].
//!
//! These tables drive cut-function computation ([`crate::cut`]), exact
//! XOR/MAJ detection (`gamora-exact`) and NPN Boolean matching
//! (`gamora-techmap`).

/// Maximum supported variable count.
pub const MAX_VARS: usize = 6;

/// Truth table of the projection onto variable `i` (over 6 variables).
///
/// # Panics
///
/// Panics if `i >= 6`.
pub const fn var(i: usize) -> u64 {
    const VARS: [u64; MAX_VARS] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    VARS[i]
}

/// Bit mask covering the `2^k` valid minterm bits of a `k`-variable table.
///
/// # Panics
///
/// Panics if `k > 6`.
pub const fn mask(k: usize) -> u64 {
    assert!(k <= MAX_VARS);
    if k == MAX_VARS {
        u64::MAX
    } else {
        (1u64 << (1usize << k)) - 1
    }
}

/// Two-input XOR (`a ^ b`) over 2 variables.
pub const XOR2: u64 = 0x6;
/// Two-input AND (`a & b`) over 2 variables.
pub const AND2: u64 = 0x8;
/// Three-input parity (`a ^ b ^ c`) over 3 variables.
pub const XOR3: u64 = 0x96;
/// Three-input majority (`ab + ac + bc`) over 3 variables.
pub const MAJ3: u64 = 0xE8;
/// Multiplexer `a ? b : c` (select = var 0) over 3 variables.
pub const MUX3: u64 = 0xCA;

/// The (positive) cofactor of `tt` with respect to variable `i`: the table
/// obtained by fixing `x_i = 1`, made vacuous in `i`.
pub fn cofactor1(tt: u64, i: usize) -> u64 {
    let shift = 1usize << i;
    let hi = tt & var(i);
    hi | (hi >> shift)
}

/// The negative cofactor of `tt` with respect to variable `i` (`x_i = 0`).
pub fn cofactor0(tt: u64, i: usize) -> u64 {
    let shift = 1usize << i;
    let lo = tt & !var(i);
    lo | (lo << shift)
}

/// Whether `tt` (over `k` vars) functionally depends on variable `i`.
pub fn depends_on(tt: u64, k: usize, i: usize) -> bool {
    let m = mask(k);
    (cofactor0(tt, i) & m) != (cofactor1(tt, i) & m)
}

/// Bitmask of variables in the functional support of `tt`.
pub fn support(tt: u64, k: usize) -> u32 {
    (0..k)
        .filter(|&i| depends_on(tt, k, i))
        .fold(0, |m, i| m | 1 << i)
}

/// Applies a full input transform to `tt` over `k` variables:
/// the result `g` satisfies
/// `g(x_0, .., x_{k-1}) = f(x_{perm[0]} ^ neg_0, .., x_{perm[k-1]} ^ neg_{k-1}) ^ out_neg`
/// where `neg_i` is bit `i` of `neg`.
///
/// # Panics
///
/// Panics if `perm.len() != k` or `k > 6`.
pub fn transform(tt: u64, k: usize, perm: &[usize], neg: u32, out_neg: bool) -> u64 {
    assert_eq!(perm.len(), k);
    assert!(k <= MAX_VARS);
    let mut out = 0u64;
    for m in 0..(1u64 << k) {
        let mut fm = 0usize;
        for (i, &p) in perm.iter().enumerate() {
            let bit = ((m >> p) & 1) ^ ((neg >> i) as u64 & 1);
            fm |= (bit as usize) << i;
        }
        out |= (((tt >> fm) & 1) ^ out_neg as u64) << m;
    }
    out
}

/// Removes vacuous variables from `tt`, compacting the support to the low
/// positions. Returns `(new_tt, new_k, kept)` where `kept[j]` is the original
/// position of new variable `j` (the first `new_k` entries are used).
pub fn shrink(tt: u64, k: usize) -> (u64, usize, [usize; MAX_VARS]) {
    let sup = support(tt, k);
    let mut kept = [0; MAX_VARS];
    let mut nk = 0;
    for i in (0..k).filter(|&i| sup >> i & 1 != 0) {
        kept[nk] = i;
        nk += 1;
    }
    let mut out = 0u64;
    for m in 0..(1u64 << nk) {
        let mut full = 0usize;
        for (j, &orig) in kept[..nk].iter().enumerate() {
            full |= (((m >> j) & 1) as usize) << orig;
        }
        out |= ((tt >> full) & 1) << m;
    }
    (out, nk, kept)
}

/// All permutations of `0..k` in lexicographic order.
///
/// # Panics
///
/// Panics if `k > 6` (factorial growth).
pub fn permutations(k: usize) -> Vec<Vec<usize>> {
    assert!(k <= MAX_VARS);
    let mut result = Vec::new();
    let mut items: Vec<usize> = (0..k).collect();
    fn heap(items: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if n <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..n {
            heap(items, n - 1, out);
            if n.is_multiple_of(2) {
                items.swap(i, n - 1);
            } else {
                items.swap(0, n - 1);
            }
        }
    }
    heap(&mut items, k, &mut result);
    result.sort();
    result.dedup();
    result
}

/// The NPN transform that maps one function onto another.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NpnTransform {
    /// Input permutation (`perm[i]` = which target variable feeds input `i`).
    pub perm: [usize; MAX_VARS],
    /// Input negation mask (bit `i` set = input `i` complemented).
    pub neg: u32,
    /// Whether the output is complemented.
    pub out_neg: bool,
}

/// Canonical representative (numeric minimum) of the NPN class of `tt`.
///
/// Exhaustive over `k! * 2^k * 2` transforms; intended for `k <= 4`.
///
/// # Panics
///
/// Panics if `k > 4`.
pub fn npn_canon(tt: u64, k: usize) -> u64 {
    assert!(k <= 4, "exhaustive NPN canonicalisation supports k <= 4");
    let m = mask(k);
    let tt = tt & m;
    let mut best = u64::MAX;
    for perm in permutations(k) {
        for neg in 0..(1u32 << k) {
            let t = transform(tt, k, &perm, neg, false);
            best = best.min(t).min(!t & m);
        }
    }
    best
}

/// Finds a transform of `gate` that realises `target`
/// (`target = transform(gate, ..)`), if the two are NPN-equivalent.
pub fn npn_match(target: u64, gate: u64, k: usize) -> Option<NpnTransform> {
    assert!(k <= 4, "exhaustive NPN matching supports k <= 4");
    let m = mask(k);
    let (target, gate) = (target & m, gate & m);
    for perm in permutations(k) {
        for neg in 0..(1u32 << k) {
            let t = transform(gate, k, &perm, neg, false);
            for out_neg in [false, true] {
                let t = if out_neg { !t & m } else { t };
                if t == target {
                    let mut p = [0usize; MAX_VARS];
                    p[..k].copy_from_slice(&perm);
                    return Some(NpnTransform {
                        perm: p,
                        neg,
                        out_neg,
                    });
                }
            }
        }
    }
    None
}

/// Classification of 2- and 3-input cut functions relevant to adder
/// extraction, following the paper's NPN-widened definitions.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AdderFunc {
    /// Parity of 2 inputs (XOR2/XNOR2 under NPN).
    Xor2,
    /// Parity of 3 inputs (XOR3 class under NPN).
    Xor3,
    /// Majority of 3 inputs (MAJ3 class under NPN).
    Maj3,
    /// Conjunction of 2 inputs (AND2 class: candidate HA carry).
    And2,
}

/// Classifies a `k`-input truth table against the adder-relevant NPN
/// classes, or returns `None`.
///
/// Parity is closed under input negation up to output complement, so the
/// XOR classes have two members each; MAJ3 is self-dual, giving 8 distinct
/// members; the AND2 class has all 8 two-literal products and their
/// complements.
pub fn classify_adder_func(tt: u64, k: usize) -> Option<AdderFunc> {
    let m = mask(k);
    let tt = tt & m;
    match k {
        2 => {
            if tt == XOR2 || tt == (!XOR2 & m) {
                Some(AdderFunc::Xor2)
            } else if is_and2_class(tt) {
                Some(AdderFunc::And2)
            } else {
                None
            }
        }
        3 => {
            if tt == XOR3 || tt == (!XOR3 & m) {
                Some(AdderFunc::Xor3)
            } else if is_maj3_class(tt) {
                Some(AdderFunc::Maj3)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_and2_class(tt: u64) -> bool {
    // All products of two literals and their complements.
    matches!(tt, 0x8 | 0x4 | 0x2 | 0x1 | 0x7 | 0xB | 0xD | 0xE)
}

fn is_maj3_class(tt: u64) -> bool {
    // MAJ3 with any subset of inputs negated, output possibly negated.
    // Self-duality folds the 32 transforms into 8 distinct tables.
    const CLASS: [u64; 8] = [
        0xE8, 0x17, // MAJ3, !MAJ3
        0xD4, 0x2B, // MAJ3(!a,b,c), complement
        0xB2, 0x4D, // MAJ3(a,!b,c), complement
        0x8E, 0x71, // MAJ3(a,b,!c), complement
    ];
    CLASS.contains(&tt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_masks_consistent() {
        for i in 0..MAX_VARS {
            for m in 0..64u64 {
                let expected = (m >> i) & 1 == 1;
                assert_eq!(var(i) >> m & 1 == 1, expected);
            }
        }
    }

    #[test]
    fn known_function_values() {
        // XOR3 on minterm 0b011 (a=1,b=1,c=0) = 0.
        assert_eq!(XOR3 >> 0b011 & 1, 0);
        assert_eq!(XOR3 >> 0b111 & 1, 1);
        assert_eq!(MAJ3 >> 0b011 & 1, 1);
        assert_eq!(MAJ3 >> 0b100 & 1, 0);
        // MUX3: a ? b : c — minterm a=1,c=1,b=0 -> b = 0.
        assert_eq!(MUX3 >> 0b101 & 1, 0);
        assert_eq!(MUX3 >> 0b011 & 1, 1);
    }

    #[test]
    fn cofactors_and_support() {
        // f = a & b over 2 vars.
        assert_eq!(cofactor1(AND2, 0) & mask(2), 0xC); // f|a=1 = b
        assert_eq!(cofactor0(AND2, 0) & mask(2), 0x0);
        assert_eq!(support(AND2, 2), 0b11);
        // constant has empty support
        assert_eq!(support(0, 3), 0);
        assert_eq!(support(mask(3), 3), 0);
        // a table vacuous in var 1
        let f = var(0) & mask(2); // f = a
        assert_eq!(support(f, 2), 0b01);
    }

    #[test]
    fn transform_identity() {
        let id = [0, 1, 2];
        assert_eq!(transform(MAJ3, 3, &id, 0, false), MAJ3);
        assert_eq!(transform(MAJ3, 3, &id, 0, true), !MAJ3 & mask(3));
    }

    #[test]
    fn maj_self_dual() {
        // MAJ(!a,!b,!c) = !MAJ(a,b,c)
        let t = transform(MAJ3, 3, &[0, 1, 2], 0b111, false);
        assert_eq!(t, !MAJ3 & mask(3));
    }

    #[test]
    fn xor_negation_flips_output() {
        let t = transform(XOR3, 3, &[0, 1, 2], 0b001, false);
        assert_eq!(t, !XOR3 & mask(3));
        let t2 = transform(XOR3, 3, &[0, 1, 2], 0b011, false);
        assert_eq!(t2, XOR3);
    }

    #[test]
    fn shrink_removes_vacuous() {
        // g(a,b,c) = a & c — vacuous in b.
        let g = var(0) & var(2) & mask(3);
        let (tt, k, kept) = shrink(g, 3);
        assert_eq!(k, 2);
        assert_eq!(kept[..k], [0, 2]);
        assert_eq!(tt, AND2);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn npn_canon_class_invariance() {
        // Every member of the MAJ class canonicalises identically.
        let c = npn_canon(MAJ3, 3);
        for neg in 0..8u32 {
            for out in [false, true] {
                let t = transform(MAJ3, 3, &[2, 0, 1], neg, out);
                assert_eq!(npn_canon(t, 3), c);
            }
        }
        // XOR and MAJ are different classes.
        assert_ne!(npn_canon(XOR3, 3), npn_canon(MAJ3, 3));
    }

    #[test]
    fn npn_match_roundtrip() {
        let target = transform(MUX3, 3, &[1, 2, 0], 0b101, true);
        let t = npn_match(target, MUX3, 3).expect("same class");
        let rebuilt = transform(MUX3, 3, &t.perm[..3], t.neg, t.out_neg);
        assert_eq!(rebuilt, target);
        // AND2 never matches XOR2.
        assert!(npn_match(XOR2, AND2, 2).is_none());
    }

    #[test]
    fn adder_classification() {
        assert_eq!(classify_adder_func(XOR3, 3), Some(AdderFunc::Xor3));
        assert_eq!(
            classify_adder_func(!XOR3 & mask(3), 3),
            Some(AdderFunc::Xor3)
        );
        assert_eq!(classify_adder_func(MAJ3, 3), Some(AdderFunc::Maj3));
        assert_eq!(classify_adder_func(0xD4, 3), Some(AdderFunc::Maj3));
        assert_eq!(classify_adder_func(XOR2, 2), Some(AdderFunc::Xor2));
        assert_eq!(classify_adder_func(AND2, 2), Some(AdderFunc::And2));
        assert_eq!(classify_adder_func(0xE, 2), Some(AdderFunc::And2)); // NAND
        assert_eq!(classify_adder_func(MUX3, 3), None);
        assert_eq!(classify_adder_func(0xA, 2), None); // projection
    }

    #[test]
    fn maj_class_is_exactly_the_negation_orbit() {
        let mut orbit = std::collections::BTreeSet::new();
        for neg in 0..8u32 {
            for out in [false, true] {
                for perm in permutations(3) {
                    orbit.insert(transform(MAJ3, 3, &perm, neg, out));
                }
            }
        }
        for tt in 0..256u64 {
            assert_eq!(
                orbit.contains(&tt),
                classify_adder_func(tt, 3) == Some(AdderFunc::Maj3)
                    || (tt == XOR3 || tt == !XOR3 & mask(3)) && orbit.contains(&tt),
                "tt = {tt:#x}"
            );
        }
    }
}
