//! A fast, non-cryptographic hasher for structural hashing tables, and the
//! two whole-graph hashes `gamora-serve` keys its prediction cache on: the
//! renumbering-invariant [`structural_fingerprint`] and the
//! numbering-exact, 128-bit [`identity_fingerprint`].
//!
//! Building multi-million-node AIGs performs one hash-map probe per created
//! AND gate, so the default SipHash is a measurable cost. This is a simple
//! Fx-style multiply-xor hasher (the same construction used by rustc);
//! it is *not* DoS-resistant and is only used for internal tables keyed by
//! node indices and hashes we produced ourselves. No submitted AIG's
//! content is streamed through it: the identity hash, which once chained
//! every fanin literal through [`FxHasher`], has its own lanes and
//! finaliser below.

use crate::{Aig, NodeKind};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over machine words.
#[derive(Default, Clone, Debug)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// SplitMix64 finaliser: full-avalanche mixing of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Combines two words order-sensitively with full avalanche.
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    mix64(a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.rotate_left(32))
}

const INPUT_TAG: u64 = 0x1157_0000_0000_0001;
const CONST_TAG: u64 = 0xC057_0000_0000_0002;
const COMPLEMENT_TAG: u64 = 0xF11F_9E37_79B9_7F4A;

/// A canonical whole-graph structural hash, the prediction-cache key of
/// `gamora-serve`.
///
/// Every node receives a hash derived purely from its *function-relevant
/// structure*: constants and input positions at the leaves, and for each
/// AND gate the **unordered** pair of (fanin hash, complement flag)
/// operands. The fingerprint digests the input count and the ordered,
/// complement-aware output literals.
///
/// Consequently the fingerprint is invariant under
///
/// * node renumbering (any topological relabelling, e.g. a binary-AIGER
///   round trip that moves inputs to the lowest indices), and
/// * fanin order within an AND gate (AND is commutative);
///
/// while distinguishing complement edges, output order, and input order —
/// the things that change what a served prediction means. Two AIGs with
/// equal fingerprints have isomorphic *reachable* logic per output, so
/// cached per-node predictions transfer between them only via their own
/// node numbering; `gamora-serve` therefore keys on the fingerprint *and*
/// the node count, and callers submitting structurally identical graphs
/// (the common repeated-netlist case) get exact reuse.
///
/// Unreferenced (dangling) nodes do not affect the fingerprint.
pub fn structural_fingerprint(aig: &Aig) -> u64 {
    fingerprint_from_node_hashes(aig, &structural_node_hashes(aig))
}

/// The per-node canonical hashes underlying [`structural_fingerprint`]:
/// each node's hash is a pure function of its input-position-rooted cone
/// (renumber- and fanin-order-invariant). `gamora-serve` uses these to
/// transfer cached per-node predictions onto an isomorphic, differently
/// numbered resubmission.
pub fn structural_node_hashes(aig: &Aig) -> Vec<u64> {
    let mut node_hash = vec![0u64; aig.num_nodes()];
    // Input position, not node index: renumber-invariant.
    for (pos, &input) in aig.inputs().iter().enumerate() {
        node_hash[input.index()] = mix64(INPUT_TAG ^ (pos as u64));
    }
    for n in aig.node_ids() {
        match aig.kind(n) {
            NodeKind::Const0 => node_hash[n.index()] = mix64(CONST_TAG),
            NodeKind::And => node_hash[n.index()] = and_hash(aig, n, &node_hash),
            NodeKind::Input => {}
        }
    }
    node_hash
}

/// The canonical hash of one AND node from its fanins' hashes and
/// complement flags.
#[inline]
fn and_hash(aig: &Aig, n: crate::NodeId, node_hash: &[u64]) -> u64 {
    let (f0, f1) = aig.fanins(n);
    let operand = |lit: crate::Lit| {
        let h = node_hash[lit.var().index()];
        if lit.is_complement() {
            mix64(h ^ COMPLEMENT_TAG)
        } else {
            h
        }
    };
    let (a, b) = (operand(f0), operand(f1));
    // Sort the operand hashes: AND is commutative.
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    combine(lo, hi)
}

/// Digests pre-computed [`structural_node_hashes`] into the whole-graph
/// fingerprint (input count plus ordered, complement-aware outputs).
pub fn fingerprint_from_node_hashes(aig: &Aig, node_hash: &[u64]) -> u64 {
    let mut acc = mix64(aig.num_inputs() as u64 ^ 0xA16_0000_0000_0003);
    for &o in aig.outputs() {
        let mut h = node_hash[o.var().index()];
        if o.is_complement() {
            h = mix64(h ^ COMPLEMENT_TAG);
        }
        acc = combine(acc, h);
    }
    acc
}

/// Words of the identity digest in flight at once: consecutive words go to
/// consecutive lanes, so each lane's multiply overlaps the next three
/// instead of waiting on one dependent chain.
const IDENTITY_LANES: usize = 4;
const IDENTITY_MUL_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const IDENTITY_MUL_HI: u64 = 0xD6E8_FEB8_6659_FD93;

/// Running state of [`identity_fingerprint`]: two independent 64-bit
/// multiply-rotate hashes (`lo`, `hi`: different odd multipliers and
/// rotations) over one word stream. Every step is a bijection of its lane
/// for a fixed word, so two streams that differ in a single word can never
/// meet again in either half.
struct IdentityLanes {
    lo: [u64; IDENTITY_LANES],
    hi: [u64; IDENTITY_LANES],
}

impl IdentityLanes {
    fn new() -> IdentityLanes {
        IdentityLanes {
            lo: std::array::from_fn(|lane| mix64(0x1DE7_0000_0000_0004 + lane as u64)),
            hi: std::array::from_fn(|lane| mix64(0x1DE7_0000_0000_0104 + lane as u64)),
        }
    }

    #[inline]
    fn step(&mut self, lane: usize, word: u64) {
        self.lo[lane] = (self.lo[lane] ^ word)
            .wrapping_mul(IDENTITY_MUL_LO)
            .rotate_left(29);
        self.hi[lane] = (self.hi[lane] ^ word)
            .wrapping_mul(IDENTITY_MUL_HI)
            .rotate_left(37);
    }

    /// Streams one section, item `i` into lane `i % IDENTITY_LANES`. Every
    /// section starts at lane 0; [`IdentityLanes::finish`] digests the
    /// section lengths, so where one section ends is never ambiguous.
    #[inline]
    fn absorb<T: Copy>(&mut self, items: &[T], word: impl Fn(T) -> u64) {
        let mut chunks = items.chunks_exact(IDENTITY_LANES);
        for chunk in &mut chunks {
            for (lane, &item) in chunk.iter().enumerate() {
                self.step(lane, word(item));
            }
        }
        for (lane, &item) in chunks.remainder().iter().enumerate() {
            self.step(lane, word(item));
        }
    }

    fn finish(self, lengths: [usize; 3]) -> u128 {
        let mut lo = mix64(0x1DE7_0000_0000_0204);
        let mut hi = mix64(0x1DE7_0000_0000_0304);
        for len in lengths {
            lo = combine(lo, len as u64);
            hi = combine(hi, len as u64);
        }
        for lane in 0..IDENTITY_LANES {
            lo = combine(lo, self.lo[lane]);
            hi = combine(hi, self.hi[lane]);
        }
        (hi as u128) << 64 | lo as u128
    }
}

/// An *order-sensitive* exact structural digest: two AIGs share it only if
/// they have identical node numbering, kinds, fanin literals, input order
/// and outputs. Where [`structural_fingerprint`] answers "same circuit up
/// to renumbering?", this answers "byte-identical structure?" — the key of
/// `gamora-serve`'s verbatim tier, under which cached per-node predictions
/// are served unchanged without any structural pass.
///
/// One streaming pass: the node array (each node's two fanin literals as
/// one word, leaves included, so position is the node index), then the
/// input ids, then the output literals, through four independent
/// multiply-rotate lanes, [`mix64`]-finalised together with the three
/// lengths. The result is **128 bits** — two independent 64-bit hashes of
/// the same stream — because a verbatim cache answer rests on this digest
/// and the node count alone. About 0.7 ns per node with the node array in
/// cache; `gamora-serve` takes it on the submitting thread.
pub fn identity_fingerprint(aig: &Aig) -> u128 {
    let mut lanes = IdentityLanes::new();
    lanes.absorb(aig.nodes(), |node| node.word());
    lanes.absorb(aig.inputs(), |input| input.as_u32() as u64);
    lanes.absorb(aig.outputs(), |output| output.raw() as u64);
    lanes.finish([aig.num_nodes(), aig.num_inputs(), aig.num_outputs()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently_mostly() {
        let mut set = FxHashSet::default();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            set.insert(h.finish());
        }
        // A decent hash of 10k distinct words should produce 10k distinct values.
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i * 2);
        }
        assert_eq!(m.get(&(41, 42)), Some(&82));
        assert_eq!(m.len(), 1000);
    }

    fn full_adder_aig() -> Aig {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(c);
        aig
    }

    #[test]
    fn fingerprint_is_deterministic_and_rebuild_stable() {
        assert_eq!(
            structural_fingerprint(&full_adder_aig()),
            structural_fingerprint(&full_adder_aig())
        );
    }

    #[test]
    fn fingerprint_survives_binary_aiger_renumbering() {
        // write_binary renumbers inputs to the lowest indices; the reloaded
        // AIG is isomorphic but differently numbered.
        let aig = full_adder_aig();
        let mut buf = Vec::new();
        crate::aiger::write_binary(&aig, &mut buf).unwrap();
        let back = crate::aiger::read(&buf[..]).unwrap();
        assert_eq!(structural_fingerprint(&aig), structural_fingerprint(&back));
    }

    #[test]
    fn fingerprint_distinguishes_function_changes() {
        let base = structural_fingerprint(&full_adder_aig());

        // Complementing an output changes the function.
        let mut flipped = full_adder_aig();
        let out = flipped.outputs()[1];
        flipped.set_output(1, !out);
        assert_ne!(base, structural_fingerprint(&flipped));

        // Swapping output order changes the word-level meaning.
        let mut swapped = Aig::new();
        let ins = swapped.add_inputs(3);
        let (s, c) = swapped.full_adder(ins[0], ins[1], ins[2]);
        swapped.add_output(c);
        swapped.add_output(s);
        assert_ne!(base, structural_fingerprint(&swapped));

        // A different circuit entirely.
        let mut xor = Aig::new();
        let ins = xor.add_inputs(2);
        let x = xor.xor(ins[0], ins[1]);
        xor.add_output(x);
        assert_ne!(base, structural_fingerprint(&xor));
    }

    #[test]
    fn identity_fingerprint_is_numbering_sensitive() {
        let aig = full_adder_aig();
        assert_eq!(
            identity_fingerprint(&aig),
            identity_fingerprint(&full_adder_aig())
        );
        // A binary AIGER round trip renumbers: canonical fingerprint holds,
        // identity fingerprint (usually) does not need to — but structure
        // read back from ASCII AIGER written from a canonical AIG is
        // numbering-identical.
        let mut buf = Vec::new();
        crate::aiger::write_ascii(&aig, &mut buf).unwrap();
        let back = crate::aiger::read(&buf[..]).unwrap();
        assert_eq!(identity_fingerprint(&aig), identity_fingerprint(&back));

        // An input created after the ANDs is moved down by the binary
        // writer: same circuit, another numbering, and both halves of the
        // digest say so.
        let mut late = full_adder_aig();
        let enable = late.add_input().lit();
        let gated = late.and(late.outputs()[0], enable);
        late.add_output(gated);
        let mut buf = Vec::new();
        crate::aiger::write_binary(&late, &mut buf).unwrap();
        let renumbered = crate::aiger::read(&buf[..]).unwrap();
        assert_eq!(
            structural_fingerprint(&late),
            structural_fingerprint(&renumbered)
        );
        let (a, b) = (
            identity_fingerprint(&late),
            identity_fingerprint(&renumbered),
        );
        assert_ne!(a as u64, b as u64);
        assert_ne!((a >> 64) as u64, (b >> 64) as u64);
    }

    #[test]
    fn node_hashes_align_across_renumbering() {
        let aig = full_adder_aig();
        let mut buf = Vec::new();
        crate::aiger::write_binary(&aig, &mut buf).unwrap();
        let back = crate::aiger::read(&buf[..]).unwrap();
        // The multisets of canonical node hashes agree.
        let mut a = structural_node_hashes(&aig);
        let mut b = structural_node_hashes(&back);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_is_input_arity_sensitive() {
        // Same (empty) logic, different input counts.
        let mut a = Aig::new();
        a.add_inputs(2);
        let mut b = Aig::new();
        b.add_inputs(3);
        assert_ne!(structural_fingerprint(&a), structural_fingerprint(&b));
    }

    #[test]
    fn write_bytes_stable() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is more than eight bytes");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is more than eight bytes");
        assert_eq!(a.finish(), b.finish());
    }
}
