//! Radix-4 Booth-encoded multiplier generator.
//!
//! Booth recoding halves the number of partial products by scanning the
//! multiplier in overlapping 3-bit windows and selecting a signed digit in
//! `{-2, -1, 0, +1, +2}` per window. The resulting netlist is markedly less
//! regular than a CSA array — encoder cells, operand muxing, conditional
//! negation and sign-extension bookkeeping — which is exactly why the paper
//! uses it to probe Gamora's generalisation to "structurally complex"
//! designs (Figures 5 and 6).

use crate::columns::reduce_columns;
use crate::types::{ArithCircuit, MultiplierKind, Provenance};
use gamora_aig::{Aig, Lit};

/// Generates an unsigned `bits x bits -> 2*bits` radix-4 Booth multiplier.
///
/// Each Booth digit `d_k` is recoded from multiplier bits
/// `(b[2k+1], b[2k], b[2k-1])`; the partial product `d_k * a` is formed by
/// muxing `a`/`2a`, conditionally complementing, and adding a two's
/// complement correction bit. Sign extension uses the standard inverted
/// sign-bit trick with a single compile-time constant, so all rows stay
/// `bits + 2` wide before column compression.
///
/// # Panics
///
/// Panics if `bits < 2` (radix-4 needs at least one full digit window).
///
/// ```
/// let m = gamora_circuits::booth_multiplier(8);
/// assert_eq!(m.eval(255, 255), 255 * 255);
/// ```
pub fn booth_multiplier(bits: usize) -> ArithCircuit {
    assert!(
        bits >= MultiplierKind::Booth.min_bits(),
        "booth multiplier needs at least 2 bits"
    );
    let n = bits;
    let width = 2 * n;
    let mut aig = Aig::with_capacity(16 * n * n);
    aig.set_name(format!("booth_mult{n}"));
    let a = aig.add_inputs(n);
    let b = aig.add_inputs(n);

    let a_bit = |j: isize| -> Lit {
        if j < 0 || j as usize >= n {
            Lit::FALSE
        } else {
            a[j as usize]
        }
    };
    let b_bit = |j: isize| -> Lit {
        if j < 0 || j as usize >= n {
            Lit::FALSE
        } else {
            b[j as usize]
        }
    };

    let digits = n / 2 + 1;
    let mut columns: Vec<Vec<Lit>> = vec![Vec::new(); width];
    // Accumulates the compile-time constant from the inverted-sign-bit
    // trick: for each row we replace the sign bit `s` at absolute weight
    // `w_k` by `!s` and owe `-2^{w_k}`, summed here as `t` then negated.
    let mut t = vec![false; width];

    for k in 0..digits {
        let (b_hi, b_mid, b_lo) = (
            b_bit(2 * k as isize + 1),
            b_bit(2 * k as isize),
            b_bit(2 * k as isize - 1),
        );
        // Booth encoder: one = +/-1 selected, two = +/-2 selected, neg = sign.
        let one = aig.xor(b_mid, b_lo);
        let hi_mid = aig.xor(b_hi, b_mid);
        let two = aig.and(hi_mid, !one);
        let neg = b_hi;

        // Row bits j = 0 .. n+1 at absolute weight 2k + j.
        for j in 0..=(n + 1) {
            let w = 2 * k + j;
            if w >= width {
                continue;
            }
            let take_one = aig.and(one, a_bit(j as isize));
            let take_two = aig.and(two, a_bit(j as isize - 1));
            let raw = aig.or(take_one, take_two);
            let bit = aig.xor(raw, neg);
            if j == n + 1 {
                // Sign position: push the inverted sign and owe -2^w.
                columns[w].push(!bit);
                add_power(&mut t, w);
            } else {
                columns[w].push(bit);
            }
        }
        // Two's complement correction (+1 when the digit is negative).
        columns[2 * k].push(neg);
    }

    // Convert owed constant -t into +((2^width - t) mod 2^width) and push
    // its set bits as constant-true column entries.
    for (w, bit) in negate_mod(&t).into_iter().enumerate() {
        if bit {
            columns[w].push(Lit::TRUE);
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

/// Adds `2^w` into a little-endian bit vector (modulo its width).
fn add_power(bits: &mut [bool], w: usize) {
    let mut carry = true;
    let mut i = w;
    while carry && i < bits.len() {
        carry = bits[i];
        bits[i] = !bits[i];
        i += 1;
    }
}

/// Two's complement negation of a little-endian bit vector (mod 2^width).
fn negate_mod(bits: &[bool]) -> Vec<bool> {
    let mut out: Vec<bool> = bits.iter().map(|b| !b).collect();
    add_power_vec(&mut out, 0);
    out
}

fn add_power_vec(bits: &mut [bool], w: usize) {
    add_power(bits, w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exhaustive_small_widths() {
        for bits in 2..=5usize {
            let m = booth_multiplier(bits);
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
        for bits in [8usize, 16, 24, 32, 48, 64] {
            let m = booth_multiplier(bits);
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
    fn corner_cases() {
        let m = booth_multiplier(8);
        for (a, b) in [
            (0, 0),
            (0, 255),
            (255, 0),
            (255, 255),
            (1, 255),
            (128, 128),
            (85, 170),
        ] {
            assert_eq!(m.eval(a, b), (a as u128) * (b as u128), "{a}*{b}");
        }
    }

    #[test]
    fn booth_is_smaller_than_csa_in_partial_products_but_less_regular() {
        // Booth halves the partial-product rows; with our conservative
        // encoder the node count stays within ~2x of CSA while the
        // structure becomes far less regular (more distinct level shapes).
        let booth = booth_multiplier(16);
        let csa = crate::csa_multiplier(16);
        let ratio = booth.aig.num_ands() as f64 / csa.aig.num_ands() as f64;
        assert!(ratio < 2.0, "booth/csa node ratio {ratio}");
    }

    #[test]
    fn bitvec_helpers() {
        let mut v = vec![false; 4];
        add_power(&mut v, 1); // 2
        add_power(&mut v, 1); // 4
        add_power(&mut v, 0); // 5
        assert_eq!(v, vec![true, false, true, false]);
        // negate: -5 mod 16 = 11 = 0b1011
        assert_eq!(negate_mod(&v), vec![true, true, false, true]);
    }
}
