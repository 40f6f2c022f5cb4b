//! Shared types: generated-circuit bundle and adder provenance.

use gamora_aig::{sim, Aig, Lit};
use std::fmt;

/// The flavour of multiplier architecture to generate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MultiplierKind {
    /// Carry-save array: AND partial products + column compression.
    Csa,
    /// Radix-4 Booth encoding: signed digit recoding + column compression.
    Booth,
    /// Dadda tree: minimal-stage column reduction + carry-select merge.
    Dadda,
}

impl fmt::Display for MultiplierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiplierKind::Csa => write!(f, "CSA"),
            MultiplierKind::Booth => write!(f, "Booth"),
            MultiplierKind::Dadda => write!(f, "Dadda"),
        }
    }
}

/// Whether a placed adder bitslice was a half or full adder.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AdderKind {
    /// Two-input half adder (sum = XOR2, carry = AND2).
    Half,
    /// Three-input full adder (sum = XOR3, carry = MAJ3).
    Full,
}

/// One adder bitslice placed by a generator: where its sum and carry ended
/// up in the AIG and which literals fed it.
///
/// Constant folding may collapse a slice (e.g. an input is constant zero);
/// [`AdderRecord::is_degenerate`] identifies records whose outputs are no
/// longer distinct AND nodes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AdderRecord {
    /// Half or full adder.
    pub kind: AdderKind,
    /// The sum literal (XOR of the inputs).
    pub sum: Lit,
    /// The carry-out literal (AND2 / MAJ3 of the inputs).
    pub carry: Lit,
    /// Input literals; `inputs[2]` is constant false for half adders.
    pub inputs: [Lit; 3],
}

impl AdderRecord {
    /// True when folding reduced the slice below a real adder (constant or
    /// pass-through outputs), so it cannot be expected in extraction results.
    pub fn is_degenerate(&self) -> bool {
        self.sum.is_const()
            || self.carry.is_const()
            || self.sum.var() == self.carry.var()
            || self.inputs.iter().any(|i| self.sum.var() == i.var())
    }
}

/// The complete placement record of a generated circuit.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// Every adder bitslice in construction order.
    pub adders: Vec<AdderRecord>,
}

impl Provenance {
    /// Records a half adder.
    pub fn push_half(&mut self, a: Lit, b: Lit, sum: Lit, carry: Lit) {
        self.adders.push(AdderRecord {
            kind: AdderKind::Half,
            sum,
            carry,
            inputs: [a, b, Lit::FALSE],
        });
    }

    /// The records that survived constant folding as real adders.
    pub fn real_adders(&self) -> impl Iterator<Item = &AdderRecord> {
        self.adders.iter().filter(|r| !r.is_degenerate())
    }
}

/// A generated arithmetic circuit: the AIG plus its operand/result pins and
/// construction provenance.
#[derive(Clone, Debug)]
pub struct ArithCircuit {
    /// The flattened netlist.
    pub aig: Aig,
    /// Operand A input literals, least-significant first.
    pub a: Vec<Lit>,
    /// Operand B input literals (empty for single-operand circuits).
    pub b: Vec<Lit>,
    /// Additional operand pin groups (e.g. the accumulator of a MAC, or the
    /// remaining vector lanes of a dot product), in order after `a` and `b`.
    pub extra_operands: Vec<Vec<Lit>>,
    /// Result literals, least-significant first (also the AIG outputs).
    pub outputs: Vec<Lit>,
    /// Adders placed during construction.
    pub provenance: Provenance,
}

impl ArithCircuit {
    /// Evaluates the circuit with one unsigned value per operand group
    /// (`a`, `b`, then each entry of `extra_operands`) and decodes the
    /// result. Intended for widths ≤ 64 per operand and ≤ 128 result bits.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the operand groups,
    /// if a value does not fit its pin vector, or if the result exceeds
    /// 128 bits.
    pub fn eval_all(&self, values: &[u64]) -> u128 {
        let mut groups: Vec<&[Lit]> = Vec::new();
        if !self.a.is_empty() {
            groups.push(&self.a);
        }
        if !self.b.is_empty() {
            groups.push(&self.b);
        }
        for extra in &self.extra_operands {
            groups.push(extra);
        }
        assert_eq!(values.len(), groups.len(), "one value per operand group");
        assert!(self.outputs.len() <= 128, "result exceeds 128 bits");
        let mut words = vec![0u64; self.aig.num_inputs()];
        for (&value, pins) in values.iter().zip(&groups) {
            assert!(
                pins.len() >= 64 || value < (1u64 << pins.len()),
                "operand value {value} too wide for {} pins",
                pins.len()
            );
            for (i, lit) in pins.iter().enumerate() {
                let pos = self
                    .aig
                    .inputs()
                    .iter()
                    .position(|n| *n == lit.var())
                    .expect("operand pin is an input");
                words[pos] = if value >> i & 1 == 1 { u64::MAX } else { 0 };
            }
        }
        let node_values = sim::simulate(&self.aig, &words);
        let mut result = 0u128;
        for (i, &o) in self.outputs.iter().enumerate() {
            let w = node_values[o.var().index()];
            let bit = (if o.is_complement() { !w } else { w }) & 1;
            result |= (bit as u128) << i;
        }
        result
    }

    /// Two-operand convenience wrapper over [`ArithCircuit::eval_all`].
    ///
    /// # Panics
    ///
    /// See [`ArithCircuit::eval_all`].
    pub fn eval(&self, a: u64, b: u64) -> u128 {
        self.eval_all(&[a, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_detection() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let (s, c) = aig.half_adder(a, b);
        let good = AdderRecord {
            kind: AdderKind::Half,
            sum: s,
            carry: c,
            inputs: [a, b, Lit::FALSE],
        };
        assert!(!good.is_degenerate());
        let folded = AdderRecord {
            kind: AdderKind::Half,
            sum: a, // passes through
            carry: Lit::FALSE,
            inputs: [a, Lit::FALSE, Lit::FALSE],
        };
        assert!(folded.is_degenerate());
    }

    #[test]
    fn provenance_filters() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let (s, c) = aig.half_adder(a, b);
        let mut p = Provenance::default();
        p.push_half(a, b, s, c);
        p.push_half(a, Lit::FALSE, a, Lit::FALSE);
        assert_eq!(p.adders.len(), 2);
        assert_eq!(p.real_adders().count(), 1);
    }

    #[test]
    fn multiplier_kind_display() {
        assert_eq!(MultiplierKind::Csa.to_string(), "CSA");
        assert_eq!(MultiplierKind::Booth.to_string(), "Booth");
    }
}
