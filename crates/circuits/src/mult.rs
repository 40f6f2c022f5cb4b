//! Carry-save-array multiplier generator.

use crate::columns::reduce_columns;
use crate::types::{ArithCircuit, MultiplierKind, Provenance};
use gamora_aig::{Aig, Lit};

/// Generates an unsigned `bits x bits -> 2*bits` carry-save-array (CSA)
/// multiplier, the regular workload of the paper's Figures 4, 5, 7 and 8.
///
/// The construction ANDs every operand bit pair into a partial-product
/// matrix, compresses the weight columns with a carry-save adder tree and
/// merges the final two rows with a ripple carry-propagate chain — the same
/// architecture `abc`'s multiplier generator emits, and the one whose adder
/// tree `&atree` (and Gamora) recovers.
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// ```
/// let m = gamora_circuits::csa_multiplier(8);
/// assert_eq!(m.eval(250, 201), 250 * 201);
/// assert!(m.provenance.real_adders().count() > 0);
/// ```
pub fn csa_multiplier(bits: usize) -> ArithCircuit {
    assert!(
        bits >= MultiplierKind::Csa.min_bits(),
        "multiplier width must be positive"
    );
    let mut aig = Aig::with_capacity(12 * bits * bits);
    aig.set_name(format!("csa_mult{bits}"));
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
    let outputs = reduce_columns(&mut aig, columns, &mut provenance);
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
    use crate::types::AdderKind;
    use rand::{Rng, SeedableRng};

    #[test]
    fn one_bit_multiplier_is_an_and() {
        let m = csa_multiplier(1);
        assert_eq!(m.eval(1, 1), 1);
        assert_eq!(m.eval(1, 0), 0);
        assert_eq!(m.outputs.len(), 2);
    }

    #[test]
    fn exhaustive_small_widths() {
        for bits in 2..=5usize {
            let m = csa_multiplier(bits);
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
    fn random_large_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5A);
        for bits in [8usize, 16, 24, 32, 48, 64] {
            let m = csa_multiplier(bits);
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            for _ in 0..8 {
                let a = rng.gen::<u64>() & mask;
                let b = rng.gen::<u64>() & mask;
                assert_eq!(
                    m.eval(a, b),
                    (a as u128) * (b as u128),
                    "{bits}-bit {a}*{b}"
                );
            }
        }
    }

    #[test]
    fn three_bit_structure_matches_paper_example() {
        // The paper's Figure 3 walks a 3-bit CSA multiplier with an adder
        // tree of 3 full adders and 3 half adders.
        let m = csa_multiplier(3);
        let fa = m
            .provenance
            .real_adders()
            .filter(|r| r.kind == AdderKind::Full)
            .count();
        let ha = m
            .provenance
            .real_adders()
            .filter(|r| r.kind == AdderKind::Half)
            .count();
        assert_eq!(
            (fa, ha),
            (3, 3),
            "expected 3 FA + 3 HA, got {fa} FA + {ha} HA"
        );
    }

    #[test]
    fn node_count_scales_quadratically() {
        let n8 = csa_multiplier(8).aig.num_ands() as f64;
        let n16 = csa_multiplier(16).aig.num_ands() as f64;
        let n32 = csa_multiplier(32).aig.num_ands() as f64;
        let r1 = n16 / n8;
        let r2 = n32 / n16;
        assert!(r1 > 3.0 && r1 < 5.0, "8->16 ratio {r1}");
        assert!(r2 > 3.0 && r2 < 5.0, "16->32 ratio {r2}");
    }
}
