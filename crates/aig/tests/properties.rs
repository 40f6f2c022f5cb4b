//! Property-based tests for the AIG substrate.

use gamora_aig::hasher::{identity_fingerprint, structural_fingerprint};
use gamora_aig::{aiger, cut, sim, tt, Aig, Lit};
use proptest::prelude::*;

/// Recipe for building a random AIG: each step picks an operator and two
/// (possibly complemented) previously available literals.
#[derive(Clone, Debug)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, u16, bool, u16, bool)>,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (2usize..6, 1usize..40).prop_flat_map(|(num_inputs, num_steps)| {
        let step = (
            0u8..6,
            any::<u16>(),
            any::<bool>(),
            any::<u16>(),
            any::<bool>(),
        );
        proptest::collection::vec(step, num_steps)
            .prop_map(move |steps| Recipe { num_inputs, steps })
    })
}

fn build(recipe: &Recipe) -> Aig {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = aig.add_inputs(recipe.num_inputs);
    pool.push(Lit::FALSE);
    for &(op, a, ac, b, bc) in &recipe.steps {
        let la = pool[a as usize % pool.len()].complement_if(ac);
        let lb = pool[b as usize % pool.len()].complement_if(bc);
        let r = match op {
            0 => aig.and(la, lb),
            1 => aig.or(la, lb),
            2 => aig.xor(la, lb),
            3 => aig.nand(la, lb),
            4 => aig.mux(la, lb, !la),
            _ => aig.maj3(la, lb, !lb),
        };
        pool.push(r);
    }
    aig.add_output(*pool.last().unwrap());
    aig
}

/// Reference evaluation of a recipe directly on booleans.
fn eval_recipe(recipe: &Recipe, inputs: &[bool]) -> bool {
    let mut pool: Vec<bool> = inputs.to_vec();
    pool.push(false);
    for &(op, a, ac, b, bc) in &recipe.steps {
        let la = pool[a as usize % pool.len()] ^ ac;
        let lb = pool[b as usize % pool.len()] ^ bc;
        let r = match op {
            0 => la & lb,
            1 => la | lb,
            2 => la ^ lb,
            3 => !(la & lb),
            4 => {
                if la {
                    lb
                } else {
                    !la
                }
            }
            _ => (la & lb) | (la & !lb) | (lb & !lb), // maj3(la, lb, !lb) = la
        };
        pool.push(r);
    }
    *pool.last().unwrap()
}

/// A canonically numbered AIG (inputs first, then the ANDs) as plain
/// literals, so a test can edit one and read the result back through the
/// ASCII reader, which keeps structure exactly (no strashing, no folding).
#[derive(Clone)]
struct Netlist {
    num_inputs: usize,
    outputs: Vec<u32>,
    ands: Vec<[u32; 2]>,
}

impl Netlist {
    fn of(aig: &Aig) -> Netlist {
        Netlist {
            num_inputs: aig.num_inputs(),
            outputs: aig.outputs().iter().map(|o| o.raw()).collect(),
            ands: aig
                .and_ids()
                .map(|n| {
                    let (f0, f1) = aig.fanins(n);
                    [f0.raw(), f1.raw()]
                })
                .collect(),
        }
    }

    fn var_of_and(&self, k: usize) -> u32 {
        (1 + self.num_inputs + k) as u32
    }

    fn to_aig(&self) -> Aig {
        let mut text = format!(
            "aag {} {} 0 {} {}\n",
            self.num_inputs + self.ands.len(),
            self.num_inputs,
            self.outputs.len(),
            self.ands.len()
        );
        for i in 0..self.num_inputs {
            text += &format!("{}\n", 2 * (i + 1));
        }
        for o in &self.outputs {
            text += &format!("{o}\n");
        }
        for (k, [f0, f1]) in self.ands.iter().enumerate() {
            text += &format!("{} {f0} {f1}\n", 2 * self.var_of_and(k));
        }
        aiger::read(text.as_bytes()).expect("edited netlist is well-formed")
    }

    /// Exchanges AND nodes `k` and `k + 1` in the numbering (definitions
    /// swap places, every reference follows); `None` when `k + 1` reads
    /// `k`, where the exchange would not be topological.
    fn exchange(&self, k: usize) -> Option<Netlist> {
        let (a, b) = (self.var_of_and(k), self.var_of_and(k + 1));
        if self.ands[k + 1].iter().any(|&l| l >> 1 == a) {
            return None;
        }
        let rename = |l: u32| match l >> 1 {
            v if v == a => b << 1 | (l & 1),
            v if v == b => a << 1 | (l & 1),
            _ => l,
        };
        let mut swapped = self.clone();
        swapped.ands.swap(k, k + 1);
        for lit in swapped.ands.iter_mut().flatten() {
            *lit = rename(*lit);
        }
        for lit in &mut swapped.outputs {
            *lit = rename(*lit);
        }
        Some(swapped)
    }
}

/// Both 64-bit halves of the identity digest must tell the two apart.
fn assert_digests_differ(a: u128, b: u128, what: &str) {
    assert_ne!((a >> 64) as u64, (b >> 64) as u64, "high half: {what}");
    assert_ne!(a as u64, b as u64, "low half: {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The identity digest is a function of the exact numbering: equal for
    /// a clone and an ASCII round trip, different — in both halves — after
    /// any single edit that a verbatim cache answer must not survive.
    #[test]
    fn identity_digest_tracks_exact_structure(r in recipe(), pick in any::<u16>()) {
        let mut aig = build(&r);
        // A second, distinct output, so output order is observable.
        let root = aig.outputs()[0];
        aig.add_output(!root);
        let base = identity_fingerprint(&aig);

        prop_assert_eq!(identity_fingerprint(&aig.clone()), base);
        let mut ascii = Vec::new();
        aiger::write_ascii(&aig, &mut ascii).unwrap();
        prop_assert_eq!(identity_fingerprint(&aiger::read(&ascii[..]).unwrap()), base);
        let netlist = Netlist::of(&aig);
        prop_assert_eq!(identity_fingerprint(&netlist.to_aig()), base);

        // One more input.
        let mut wider = aig.clone();
        wider.add_input();
        assert_digests_differ(base, identity_fingerprint(&wider), "one more input");

        // A flipped complement bit on each output, and swapped outputs.
        for i in 0..aig.num_outputs() {
            let mut flipped = aig.clone();
            flipped.set_output(i, !aig.outputs()[i]);
            assert_digests_differ(base, identity_fingerprint(&flipped), "output complement");
        }
        let mut swapped = aig.clone();
        swapped.set_output(0, aig.outputs()[1]);
        swapped.set_output(1, aig.outputs()[0]);
        assert_digests_differ(base, identity_fingerprint(&swapped), "swapped outputs");

        if !netlist.ands.is_empty() {
            // A flipped complement bit on one fanin of one AND.
            let k = pick as usize % netlist.ands.len();
            for side in 0..2 {
                let mut flipped = netlist.clone();
                flipped.ands[k][side] ^= 1;
                assert_digests_differ(
                    base,
                    identity_fingerprint(&flipped.to_aig()),
                    "fanin complement",
                );
            }
            // Two exchanged AND nodes: the same circuit, another numbering.
            if let Some(exchanged) = (0..netlist.ands.len() - 1)
                .map(|i| (k + i) % (netlist.ands.len() - 1))
                .find_map(|k| netlist.exchange(k))
            {
                let exchanged = exchanged.to_aig();
                prop_assert_eq!(structural_fingerprint(&exchanged), structural_fingerprint(&aig));
                assert_digests_differ(base, identity_fingerprint(&exchanged), "exchanged ANDs");
            }
            // A binary-AIGER round trip of a graph whose last input comes
            // after its ANDs renumbers it (inputs move to the lowest
            // indices).
            let mut late = aig.clone();
            let carry_in = late.add_input().lit();
            late.add_output(carry_in);
            let mut binary = Vec::new();
            aiger::write_binary(&late, &mut binary).unwrap();
            let renumbered = aiger::read(&binary[..]).unwrap();
            prop_assert_eq!(structural_fingerprint(&renumbered), structural_fingerprint(&late));
            assert_digests_differ(
                identity_fingerprint(&late),
                identity_fingerprint(&renumbered),
                "binary renumbering",
            );
        }
    }

    /// The strashed builder computes the same function as direct boolean
    /// evaluation of the construction recipe.
    #[test]
    fn builders_match_boolean_semantics(r in recipe(), pattern in any::<u64>()) {
        let aig = build(&r);
        let inputs: Vec<bool> = (0..r.num_inputs).map(|i| pattern >> i & 1 != 0).collect();
        let expected = eval_recipe(&r, &inputs);
        let got = sim::eval(&aig, &inputs)[0];
        prop_assert_eq!(got, expected);
    }

    /// ASCII and binary AIGER round-trips preserve the function.
    #[test]
    fn aiger_roundtrip_equivalence(r in recipe()) {
        let aig = build(&r);
        for binary in [false, true] {
            let mut buf = Vec::new();
            if binary {
                aiger::write_binary(&aig, &mut buf).unwrap();
            } else {
                aiger::write_ascii(&aig, &mut buf).unwrap();
            }
            let back = aiger::read(&buf[..]).unwrap();
            prop_assert_eq!(back.num_inputs(), aig.num_inputs());
            prop_assert!(sim::random_equivalence_check(&aig, &back, 2, 99).is_ok());
        }
    }

    /// Every enumerated cut's truth table agrees with independent cone
    /// evaluation over the same leaves.
    #[test]
    fn cut_truth_tables_are_correct(r in recipe()) {
        let aig = build(&r);
        let cuts = cut::enumerate_cuts(&aig, &cut::CutParams::default());
        for n in aig.and_ids() {
            for c in cuts.of(n) {
                if c.is_empty() { continue; }
                let leaves: Vec<_> = c.leaves().iter()
                    .map(|&l| gamora_aig::NodeId::new(l)).collect();
                let f = cut::cone_function(&aig, n.lit(), &leaves)
                    .expect("enumerated cut must be a cut");
                prop_assert_eq!(f, c.tt, "node {} cut {:?}", n, c.leaves());
            }
        }
    }

    /// NPN canonicalisation is invariant under random NPN transforms.
    #[test]
    fn npn_canon_invariant(raw in any::<u16>(), neg in 0u32..16, out in any::<bool>(), p in 0usize..24) {
        let k = 4;
        let f = raw as u64;
        let perms = tt::permutations(k);
        let g = tt::transform(f, k, &perms[p % perms.len()], neg, out);
        prop_assert_eq!(tt::npn_canon(f, k), tt::npn_canon(g, k));
    }

    /// Cleanup preserves the function while never increasing node count.
    #[test]
    fn cleanup_preserves_function(r in recipe()) {
        let aig = build(&r);
        let (clean, _) = aig.cleanup();
        prop_assert!(clean.num_ands() <= aig.num_ands());
        prop_assert!(sim::random_equivalence_check(&aig, &clean, 2, 5).is_ok());
    }
}
