//! Bit-parallel simulation of AIGs.
//!
//! Each node is simulated on 64 input patterns at once (one `u64` word per
//! node). This is the engine behind functional validation of the circuit
//! generators and the equivalence spot-checks in technology mapping.

use crate::{Aig, Lit};
use rand::{Rng, SeedableRng};

/// Simulates one 64-pattern word per input; returns a word per node.
///
/// # Panics
///
/// Panics if `inputs.len() != aig.num_inputs()`.
pub fn simulate(aig: &Aig, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(
        inputs.len(),
        aig.num_inputs(),
        "one word per input required"
    );
    let mut values = vec![0; aig.num_nodes()];
    for (i, &n) in aig.inputs().iter().enumerate() {
        values[n.index()] = inputs[i];
    }
    for n in aig.node_ids() {
        if aig.is_and(n) {
            let (f0, f1) = aig.fanins(n);
            values[n.index()] = lit_word(&values, f0) & lit_word(&values, f1);
        }
    }
    values
}

#[inline]
fn lit_word(values: &[u64], l: Lit) -> u64 {
    let w = values[l.var().index()];
    if l.is_complement() {
        !w
    } else {
        w
    }
}

/// Extracts the output words from a node-value vector produced by
/// [`simulate`].
pub fn output_words(aig: &Aig, values: &[u64]) -> Vec<u64> {
    aig.outputs().iter().map(|&o| lit_word(values, o)).collect()
}

/// Evaluates the AIG on a single Boolean input assignment.
///
/// # Panics
///
/// Panics if `inputs.len() != aig.num_inputs()`.
pub fn eval(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs
        .iter()
        .map(|&b| if b { u64::MAX } else { 0 })
        .collect();
    let values = simulate(aig, &words);
    output_words(aig, &values)
        .iter()
        .map(|&w| w & 1 != 0)
        .collect()
}

/// Checks two AIGs with identical interfaces for equivalence on `words * 64`
/// random patterns (a probabilistic refutation check, not a proof).
///
/// Returns `Err(pattern)` with a counter-example input assignment on the
/// first mismatching pattern.
///
/// # Panics
///
/// Panics if the two AIGs differ in input or output count.
pub fn random_equivalence_check(
    a: &Aig,
    b: &Aig,
    words: usize,
    seed: u64,
) -> Result<(), Vec<bool>> {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input counts differ");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output counts differ");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..words {
        let inputs: Vec<u64> = (0..a.num_inputs()).map(|_| rng.gen()).collect();
        let va = simulate(a, &inputs);
        let vb = simulate(b, &inputs);
        let oa = output_words(a, &va);
        let ob = output_words(b, &vb);
        for (wa, wb) in oa.iter().zip(&ob) {
            let diff = wa ^ wb;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                let cex = inputs.iter().map(|w| w >> bit & 1 != 0).collect();
                return Err(cex);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let x = aig.xor(a, b);
        aig.add_output(x);
        aig
    }

    #[test]
    fn xor_truth_table_by_eval() {
        let aig = xor_aig();
        assert_eq!(eval(&aig, &[false, false]), vec![false]);
        assert_eq!(eval(&aig, &[true, false]), vec![true]);
        assert_eq!(eval(&aig, &[false, true]), vec![true]);
        assert_eq!(eval(&aig, &[true, true]), vec![false]);
    }

    #[test]
    fn word_simulation_matches_bitwise_xor() {
        let aig = xor_aig();
        let a = 0xDEAD_BEEF_0123_4567;
        let b = 0x0F0F_F0F0_AAAA_5555;
        let values = simulate(&aig, &[a, b]);
        assert_eq!(output_words(&aig, &values), vec![a ^ b]);
    }

    #[test]
    fn full_adder_semantics() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        for m in 0..8u32 {
            let bits = [m & 1 != 0, m & 2 != 0, m & 4 != 0];
            let out = eval(&aig, &bits);
            let total = bits.iter().filter(|&&b| b).count() as u32;
            assert_eq!(out[0], total & 1 != 0, "sum at {m}");
            assert_eq!(out[1], total >= 2, "carry at {m}");
        }
    }

    #[test]
    fn equivalence_check_catches_difference() {
        let good = xor_aig();
        let mut bad = Aig::new();
        let a = bad.add_input().lit();
        let b = bad.add_input().lit();
        let o = bad.or(a, b); // OR, not XOR
        bad.add_output(o);
        let err = random_equivalence_check(&good, &bad, 4, 42).unwrap_err();
        // The counterexample must be a=b=1 (only differing assignment).
        assert_eq!(err, vec![true, true]);
        // And XOR is equivalent to itself.
        assert!(random_equivalence_check(&good, &xor_aig(), 4, 7).is_ok());
    }

    #[test]
    fn constant_outputs() {
        let mut aig = Aig::new();
        let _ = aig.add_input();
        aig.add_output(Lit::TRUE);
        aig.add_output(Lit::FALSE);
        assert_eq!(eval(&aig, &[false]), vec![true, false]);
    }
}
