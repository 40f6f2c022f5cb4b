//! Dadda-style multiplier and carry-select adder — alternative
//! architectures used to probe generalisation beyond the paper's two
//! multiplier families.

use crate::columns::{add_bits3, ripple_merge};
use crate::types::{ArithCircuit, MultiplierKind, Provenance};
use gamora_aig::{Aig, Lit};

/// Generates an unsigned Dadda multiplier: partial products are compressed
/// with the minimum number of full/half adders per stage, following Dadda's
/// descending height sequence (..., 13, 9, 6, 4, 3, 2), then merged with a
/// ripple carry-propagate adder.
///
/// Compared to [`crate::csa_multiplier`], the adder tree is shallower and
/// placed irregularly — a harder target for structure-based reasoning.
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// ```
/// let m = gamora_circuits::dadda_multiplier(8);
/// assert_eq!(m.eval(123, 45), 123 * 45);
/// ```
pub fn dadda_multiplier(bits: usize) -> ArithCircuit {
    assert!(
        bits >= MultiplierKind::Dadda.min_bits(),
        "multiplier width must be positive"
    );
    let mut aig = Aig::with_capacity(12 * bits * bits);
    aig.set_name(format!("dadda_mult{bits}"));
    let a = aig.add_inputs(bits);
    let b = aig.add_inputs(bits);
    let width = 2 * bits;
    let mut columns: Vec<Vec<Lit>> = vec![Vec::new(); width];
    for (i, &bi) in b.iter().enumerate() {
        for (j, &aj) in a.iter().enumerate() {
            let pp = aig.and(aj, bi);
            columns[i + j].push(pp);
        }
    }
    let mut provenance = Provenance::default();

    // Dadda height sequence: d_1 = 2, d_{k+1} = floor(1.5 * d_k).
    let mut heights = vec![2usize];
    while *heights.last().unwrap() < bits {
        let next = heights.last().unwrap() * 3 / 2;
        heights.push(next);
    }
    // Reduce stage by stage to each target height (descending).
    for &target in heights.iter().rev() {
        for w in 0..width {
            while columns[w].len() > target {
                let excess = columns[w].len() - target;
                if excess >= 2 {
                    // Full adder removes two bits from this column.
                    let (x, y, z) = (columns[w][0], columns[w][1], columns[w][2]);
                    columns[w].drain(..3);
                    let (s, c) = add_bits3(&mut aig, &mut provenance, x, y, z);
                    columns[w].push(s);
                    if w + 1 < width {
                        columns[w + 1].push(c);
                    }
                } else {
                    // Half adder removes one bit.
                    let (x, y) = (columns[w][0], columns[w][1]);
                    columns[w].drain(..2);
                    let (s, c) = add_bits3(&mut aig, &mut provenance, x, y, Lit::FALSE);
                    columns[w].push(s);
                    if w + 1 < width {
                        columns[w + 1].push(c);
                    }
                }
            }
        }
    }
    // Final two rows -> ripple carry-propagate addition.
    let xs: Vec<Lit> = columns
        .iter()
        .map(|c| c.first().copied().unwrap_or(Lit::FALSE))
        .collect();
    let ys: Vec<Lit> = columns
        .iter()
        .map(|c| c.get(1).copied().unwrap_or(Lit::FALSE))
        .collect();
    let (outputs, _) = ripple_merge(&mut aig, &xs, &ys, Lit::FALSE, &mut provenance);
    for &o in &outputs {
        aig.add_output(o);
    }
    ArithCircuit {
        aig,
        a,
        b,
        extra_operands: Vec::new(),
        outputs,
        provenance,
    }
}

/// Generates a carry-select adder: the upper half is computed twice (for
/// carry-in 0 and 1) and selected by the lower half's carry-out. Contains
/// genuine FA/HA slices *plus* mux selection logic — a mixed workload.
///
/// # Panics
///
/// Panics if `bits < 2`.
///
/// ```
/// let add = gamora_circuits::carry_select_adder(8);
/// assert_eq!(add.eval(200, 99), 299);
/// ```
pub fn carry_select_adder(bits: usize) -> ArithCircuit {
    assert!(bits >= 2, "carry-select needs at least 2 bits");
    let mut aig = Aig::with_capacity(30 * bits);
    aig.set_name(format!("csel{bits}"));
    let a = aig.add_inputs(bits);
    let b = aig.add_inputs(bits);
    let half = bits / 2;
    let mut provenance = Provenance::default();
    let (low_sum, low_carry) = ripple_merge(
        &mut aig,
        &a[..half],
        &b[..half],
        Lit::FALSE,
        &mut provenance,
    );
    let (hi0, c0) = ripple_merge(
        &mut aig,
        &a[half..],
        &b[half..],
        Lit::FALSE,
        &mut provenance,
    );
    let (hi1, c1) = ripple_merge(&mut aig, &a[half..], &b[half..], Lit::TRUE, &mut provenance);
    let mut outputs = low_sum;
    for (s0, s1) in hi0.iter().zip(&hi1) {
        outputs.push(aig.mux(low_carry, *s1, *s0));
    }
    outputs.push(aig.mux(low_carry, c1, c0));
    for &o in &outputs {
        aig.add_output(o);
    }
    ArithCircuit {
        aig,
        a,
        b,
        extra_operands: Vec::new(),
        outputs,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dadda_exhaustive_small() {
        for bits in [1usize, 2, 3, 4] {
            let m = dadda_multiplier(bits);
            for a in 0..(1u64 << bits) {
                for b in 0..(1u64 << bits) {
                    assert_eq!(
                        m.eval(a, b),
                        (a as u128) * (b as u128),
                        "{bits}-bit {a}*{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dadda_random_wide() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDADDA);
        for bits in [8usize, 16, 32] {
            let m = dadda_multiplier(bits);
            let mask = (1u64 << bits) - 1;
            for _ in 0..8 {
                let a = rng.gen::<u64>() & mask;
                let b = rng.gen::<u64>() & mask;
                assert_eq!(m.eval(a, b), (a as u128) * (b as u128));
            }
        }
    }

    #[test]
    fn dadda_is_shallower_than_csa() {
        let csa = crate::csa_multiplier(16);
        let dadda = dadda_multiplier(16);
        assert!(
            dadda.aig.stats().levels <= csa.aig.stats().levels,
            "dadda {} vs csa {}",
            dadda.aig.stats().levels,
            csa.aig.stats().levels
        );
    }

    #[test]
    fn carry_select_exhaustive_small() {
        for bits in [2usize, 3, 4, 5] {
            let add = carry_select_adder(bits);
            for a in 0..(1u64 << bits) {
                for b in 0..(1u64 << bits) {
                    assert_eq!(add.eval(a, b), (a + b) as u128, "{bits}-bit {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn carry_select_random_wide() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5E1);
        for bits in [16usize, 32, 48] {
            let add = carry_select_adder(bits);
            let mask = (1u64 << bits) - 1;
            for _ in 0..8 {
                let a = rng.gen::<u64>() & mask;
                let b = rng.gen::<u64>() & mask;
                assert_eq!(add.eval(a, b), a as u128 + b as u128);
            }
        }
    }
}
