//! Output identity of the flat cut / detection / pairing kernels.
//!
//! Three independent checks over one subject matrix (CSA/Booth/Dadda at
//! 4–24 bit, the tech-mapped 8/12-bit cores, unstrashed half-adder copies
//! and 300 seeded raw AIGs read through the AIGER parser, so constant
//! fanins, duplicate fanins, duplicate gates and dangling gates all occur):
//!
//! * every stored cut table equals [`cut::cone_function`], the independent
//!   definition;
//! * FxHashes of the cut sets, the candidate list and `analyze`'s adders
//!   and labels equal the values recorded from commit 62caf1d, before the
//!   kernels were rewritten;
//! * the pairing kernel equals the hash-set formulation it replaced (kept
//!   below as the reference), with and without a node filter, and the fused
//!   post-process equals `extract_from_predictions` + `lsb_correction`.

use gamora::{GamoraReasoner, ModelDepth, PostProcess, Predictions, ReasonerConfig, TrainConfig};
use gamora_aig::cut::{self, CutParams};
use gamora_aig::hasher::{mix64, FxHasher};
use gamora_aig::{aiger, Aig, NodeId};
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_exact::{analyze, detect, Labels, Pairing, Role};
use gamora_techmap::{Library, MapParams};
use std::hash::Hasher;

const KINDS: [MultiplierKind; 3] = [
    MultiplierKind::Csa,
    MultiplierKind::Booth,
    MultiplierKind::Dadda,
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Parses ASCII AIGER gate pairs into an unstrashed AIG; every gate whose
/// index is a multiple of `output_every` drives an output, the rest dangle
/// unless something later reads them.
fn read_raw(num_inputs: usize, gates: &[(u32, u32)], output_every: usize) -> Aig {
    let outputs: Vec<u32> = (0..gates.len())
        .filter(|g| g % output_every == 0)
        .map(|g| 2 * (1 + num_inputs + g) as u32)
        .collect();
    let mut text = format!(
        "aag {} {} 0 {} {}\n",
        num_inputs + gates.len(),
        num_inputs,
        outputs.len(),
        gates.len()
    );
    for i in 0..num_inputs {
        text += &format!("{}\n", 2 * (i + 1));
    }
    for o in outputs {
        text += &format!("{o}\n");
    }
    for (g, (a, b)) in gates.iter().enumerate() {
        text += &format!("{} {a} {b}\n", 2 * (1 + num_inputs + g));
    }
    aiger::read(text.as_bytes()).expect("generated AIGER parses")
}

/// `copies` unstrashed half adders over the same two inputs: the subject
/// whose pairing was cubic at 62caf1d.
fn half_adder_copies(copies: usize) -> Aig {
    let (a, b) = (2u32, 4u32);
    let mut gates = Vec::with_capacity(4 * copies);
    for _ in 0..copies {
        let g = 2 * (3 + gates.len()) as u32;
        gates.extend([(a, b ^ 1), (a ^ 1, b), (g ^ 1, (g + 2) ^ 1), (a, b)]);
    }
    // Every gate drives an output: the XNOR root and the carry of each copy
    // are both consumed.
    read_raw(2, &gates, 1)
}

/// A seeded unstrashed netlist: plain gates over random earlier literals
/// (constants and duplicate fanins included) mixed with half- and
/// full-adder gadgets, so leaf sets are shared by many candidates.
fn raw_aig(seed: u64) -> Aig {
    let mut rng = Rng(seed);
    let num_inputs = 2 + rng.below(4);
    let target = 12 + rng.below(70);
    let mut gates: Vec<(u32, u32)> = Vec::new();
    let pick = |rng: &mut Rng, gates: &Vec<(u32, u32)>| -> u32 {
        let lits = 2 * (1 + num_inputs + gates.len());
        match rng.below(16) {
            0 => rng.below(2) as u32,
            // Stay near the inputs half the time so operands repeat.
            1..=8 => (2 + rng.below(2 * num_inputs)) as u32,
            _ => (2 + rng.below(lits - 2)) as u32,
        }
    };
    let lit_of = |gates: &Vec<(u32, u32)>| 2 * (1 + num_inputs + gates.len()) as u32;
    // XOR of two literals as three gates; returns the XOR literal.
    let xor = |gates: &mut Vec<(u32, u32)>, a: u32, b: u32| -> u32 {
        let g = lit_of(gates);
        gates.extend([(a, b ^ 1), (a ^ 1, b), (g ^ 1, (g + 2) ^ 1)]);
        (g + 4) ^ 1
    };
    while gates.len() < target {
        let (a, b, c) = (
            pick(&mut rng, &gates),
            pick(&mut rng, &gates),
            pick(&mut rng, &gates),
        );
        match rng.below(8) {
            0 | 1 => {
                xor(&mut gates, a, b);
                gates.push((a, b));
                if rng.below(3) == 0 {
                    // The same half adder again, gate for gate.
                    xor(&mut gates, a, b);
                    gates.push((a, b));
                }
            }
            2 => {
                let x = xor(&mut gates, a, b);
                xor(&mut gates, x, c);
                let t0 = lit_of(&gates);
                gates.extend([(a, b), (x, c), (t0 ^ 1, (t0 + 2) ^ 1)]);
            }
            3 => gates.push((a, a ^ (rng.below(2) as u32))),
            _ => gates.push((a, b)),
        }
    }
    read_raw(num_inputs, &gates, 3)
}

/// The subject matrix, grouped: every group gets one golden line.
fn matrix() -> Vec<(String, Vec<Aig>)> {
    let mut groups = Vec::new();
    for kind in KINDS {
        for bits in [4usize, 8, 16, 24] {
            groups.push((
                format!("{kind}-{bits}"),
                vec![generate_multiplier(kind, bits).aig],
            ));
        }
    }
    // The three tech-mapped cores `mixed_extract` serves per multiplier
    // kind: 8- and 12-bit through the simple library, 8-bit through the
    // complex one.
    for kind in KINDS {
        let mapped = [
            (Library::simple(), 8usize),
            (Library::simple(), 12),
            (Library::complex7nm(), 8),
        ]
        .map(|(library, bits)| {
            let plain = generate_multiplier(kind, bits).aig;
            gamora_techmap::map(&plain, &library, &MapParams::default()).to_aig()
        });
        groups.push((format!("{kind}-mapped"), mapped.to_vec()));
    }
    for copies in [25usize, 100, 400] {
        groups.push((
            format!("ha-copies-{copies}"),
            vec![half_adder_copies(copies)],
        ));
    }
    groups.push(("raw-300".to_string(), (0..300).map(raw_aig).collect()));
    groups
}

fn hash_cuts(h: &mut FxHasher, aig: &Aig, params: &CutParams) {
    let cuts = cut::enumerate_cuts(aig, params);
    for n in aig.node_ids() {
        let of = cuts.of(n);
        h.write_usize(of.len());
        for c in of {
            h.write_usize(c.len());
            for &l in c.leaves() {
                h.write_u32(l);
            }
            h.write_u64(c.tt);
        }
    }
}

fn hash_candidates(h: &mut FxHasher, aig: &Aig) {
    let cands = detect(aig);
    h.write_usize(cands.all.len());
    for c in &cands.all {
        h.write_u32(c.node.as_u32());
        h.write_usize(c.leaf_slice().len());
        for &l in c.leaf_slice() {
            h.write_u32(l);
        }
        h.write_u32(c.class as u32);
        h.write_u64(c.tt);
    }
}

fn hash_analysis(h: &mut FxHasher, aig: &Aig) {
    let analysis = analyze(aig);
    h.write_usize(analysis.adders.len());
    for a in &analysis.adders {
        h.write_u32(a.kind as u32);
        h.write_u32(a.sum.as_u32());
        h.write_u32(a.carry.as_u32());
        for &l in &a.leaves {
            h.write_u32(l);
        }
    }
    for i in 0..aig.num_nodes() {
        h.write_u32(
            analysis.labels.root_leaf[i].as_index() as u32
                | (analysis.labels.is_xor[i] as u32) << 2
                | (analysis.labels.is_maj[i] as u32) << 3,
        );
    }
}

/// `[cuts K=3, cuts K=4, candidates, analysis]` of one group.
fn group_hashes(aigs: &[Aig]) -> [u64; 4] {
    let mut h: [FxHasher; 4] = Default::default();
    for aig in aigs {
        hash_cuts(&mut h[0], aig, &CutParams::for_adder_extraction());
        hash_cuts(&mut h[1], aig, &CutParams::default());
        hash_candidates(&mut h[2], aig);
        hash_analysis(&mut h[3], aig);
    }
    h.map(|h| h.finish())
}

/// Recorded by running this file's `group_hashes` at commit 62caf1d.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("CSA-4", [0x52f36a890f457004, 0x00cf5a6740c128c5, 0x84921229cc162eda, 0x614e0f295b180972]),
    ("CSA-8", [0x53eb3edb90ff6fcd, 0xd304b25671bf3df0, 0xa6cab94db2e53920, 0xd07c4549d49b69d2]),
    ("CSA-16", [0xb0982d5a241bd00e, 0x451301bd28d55ee8, 0xc369179c79174bbb, 0xf476acb34f2c339d]),
    ("CSA-24", [0x069d09ab660d7dcd, 0x13047905638916b1, 0x231ab256a244e95f, 0x4d21ab9b92f75acb]),
    ("Booth-4", [0x5f206bb929591c2d, 0x1283b322370b0ff0, 0x0cf311c222d2efd0, 0x33fa1dbfdcde0320]),
    ("Booth-8", [0x9a2c8894fdefc4b1, 0x0587a60fd3945019, 0xbd57bc04f57e8fd9, 0xcc01c205f43e3651]),
    ("Booth-16", [0x4fd626b5fb845e36, 0xdb3468cf2b16e019, 0x199416b7ec932585, 0x7eb1cf05f2720855]),
    ("Booth-24", [0x6e4d32fab4001830, 0x0f6d3ecb7bbf851e, 0x63169b627bb62970, 0x8f2b2cce5e63a2e7]),
    ("Dadda-4", [0x5edbbf7eafd6be72, 0xca1069efdb171c88, 0x601b18123e7b5b59, 0x9c1a33f309f86468]),
    ("Dadda-8", [0x2dfe5c2b17cc6668, 0xaa2b00ff3272ff7d, 0xc5140028ed4970f8, 0xb782d44077b43ae9]),
    ("Dadda-16", [0x241050cb3a632401, 0xa9cbd46b2a205e7f, 0x06777104153e38f3, 0xb072fe08024d26d0]),
    ("Dadda-24", [0xd03ce887de141106, 0x87d770c8fa8f3366, 0x4e7790e0aa681e8b, 0xefb539e906af269f]),
    ("CSA-mapped", [0x06eebb971ad52e7d, 0xbc3e9c00862418d1, 0x71d6d63e3f012f0b, 0x3b356d3239a1f720]),
    ("Booth-mapped", [0xa2fcd4a5571532b0, 0xf496ef725836f376, 0x962f347ba334cd58, 0x71507320178a7f31]),
    ("Dadda-mapped", [0x82dd78b484c1735b, 0x92489546aa5f8ade, 0x263abe7f52309976, 0x07e4e553757be78e]),
    ("ha-copies-25", [0xdc84ac6dbef494fb, 0xdc84ac6dbef494fb, 0x184cf9cd1a8002a8, 0xe27e7a25afbfd5a4]),
    ("ha-copies-100", [0x35554f257b3216c0, 0x35554f257b3216c0, 0x39e526ba440b7806, 0x4050efb28d46081c]),
    ("ha-copies-400", [0x9bce668493d825b9, 0x9bce668493d825b9, 0x6e0532cbf7da9c22, 0x8ccc118825b92086]),
    ("raw-300", [0xdc84fe86f14894aa, 0x2a3d722401b05cd8, 0xc0185055693cc3a3, 0x271c746ef645f976]),
];

#[test]
fn golden_hashes_match_the_pre_rewrite_commit() {
    let actual: Vec<(String, [u64; 4])> = matrix()
        .into_iter()
        .map(|(name, aigs)| (name, group_hashes(&aigs)))
        .collect();
    let expected: Vec<(String, [u64; 4])> = GOLDEN
        .iter()
        .map(|(name, hashes)| (name.to_string(), *hashes))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, h)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2], h[3]
            )
        })
        .collect();
    assert!(actual == expected, "hashes at this commit:\n{listing}");
}

/// Every stored cut's table is the function `cone_function` computes for
/// the same root and leaves.
#[test]
fn cut_tables_match_cone_function() {
    for (name, aigs) in matrix() {
        for aig in &aigs {
            for params in [CutParams::for_adder_extraction(), CutParams::default()] {
                let cuts = cut::enumerate_cuts(aig, &params);
                for n in aig.and_ids() {
                    for c in cuts.of(n) {
                        let leaves: Vec<NodeId> =
                            c.leaves().iter().map(|&l| NodeId::new(l)).collect();
                        let f = cut::cone_function(aig, n.lit(), &leaves);
                        assert_eq!(f, Some(c.tt), "{name}: node {n} cut {:?}", c.leaves());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The pairing pass as it was written before the flat kernels: hash-set
// cones rebuilt for every partner choice. Kept as the reference the
// incremental ranking is compared with.

mod reference {
    use gamora_aig::tt::AdderFunc;
    use gamora_aig::{Aig, NodeId};
    use gamora_exact::{Candidates, ExtractedAdder, ExtractedKind, Role};
    use std::collections::{BTreeMap, HashSet};

    fn interior_of(aig: &Aig, root: u32, leaves: &[u32]) -> HashSet<u32> {
        let mut interior = HashSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if n != root && !leaves.contains(&n) {
                interior.insert(n);
            }
            if leaves.contains(&n) || !aig.is_and(NodeId::new(n)) {
                continue;
            }
            let (f0, f1) = aig.fanins(NodeId::new(n));
            stack.push(f0.var().as_u32());
            stack.push(f1.var().as_u32());
        }
        interior
    }

    fn partner(
        aig: &Aig,
        sum: u32,
        leaves: &[u32],
        eligible: &[u32],
        fanouts: &(Vec<u32>, Vec<NodeId>),
        drives_output: &[bool],
    ) -> Option<u32> {
        if eligible.len() < 2 {
            return eligible.first().copied();
        }
        let cones: Vec<HashSet<u32>> = eligible
            .iter()
            .map(|&c| interior_of(aig, c, leaves))
            .collect();
        let mut inside_pair = interior_of(aig, sum, leaves);
        inside_pair.insert(sum);
        inside_pair.extend(eligible);
        for cone in &cones {
            inside_pair.extend(cone);
        }
        let (offsets, targets) = fanouts;
        eligible
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let maximal = !cones
                    .iter()
                    .enumerate()
                    .any(|(j, cone)| j != i && cone.contains(&c));
                let outs = &targets[offsets[c as usize] as usize..offsets[c as usize + 1] as usize];
                let escapes = drives_output[c as usize]
                    || outs.iter().any(|t| !inside_pair.contains(&t.as_u32()));
                (2 * !maximal as u32 + !escapes as u32, c)
            })
            .min()
            .map(|(_, c)| c)
    }

    pub fn pair(
        aig: &Aig,
        cands: &Candidates,
        keep: impl Fn(NodeId, Role) -> bool,
    ) -> Vec<ExtractedAdder> {
        // leaf set -> (sums, carries); full-adder keys order before
        // half-adder keys.
        let mut runs: BTreeMap<(bool, [u32; 3]), [Vec<u32>; 2]> = BTreeMap::new();
        for c in &cands.all {
            let role = match c.class {
                AdderFunc::Xor2 | AdderFunc::Xor3 => Role::Sum,
                AdderFunc::Maj3 | AdderFunc::And2 => Role::Carry,
            };
            if keep(c.node, role) {
                runs.entry((c.len == 2, c.leaves)).or_default()[role as usize]
                    .push(c.node.as_u32());
            }
        }
        let n = aig.num_nodes();
        let (mut used, mut covered) = (vec![false; n], vec![false; n]);
        let fanouts = aig.fanouts();
        let mut drives_output = vec![false; n];
        for o in aig.outputs() {
            drives_output[o.var().index()] = true;
        }
        let mut adders = Vec::new();
        for ((half, key), [mut sums, mut carries]) in runs {
            let leaves = &key[..if half { 2 } else { 3 }];
            sums.sort_unstable();
            carries.sort_unstable();
            for &x in &sums {
                if used[x as usize] || (half && covered[x as usize]) {
                    continue;
                }
                let eligible: Vec<u32> = carries
                    .iter()
                    .copied()
                    .filter(|&c| c != x && !used[c as usize] && !(half && covered[c as usize]))
                    .collect();
                let Some(m) = partner(aig, x, leaves, &eligible, &fanouts, &drives_output) else {
                    continue;
                };
                used[x as usize] = true;
                used[m as usize] = true;
                adders.push(ExtractedAdder {
                    kind: if half {
                        ExtractedKind::Half
                    } else {
                        ExtractedKind::Full
                    },
                    sum: NodeId::new(x),
                    carry: NodeId::new(m),
                    leaves: [key[0], key[1], if half { u32::MAX } else { key[2] }],
                });
                if !half {
                    for root in [x, m] {
                        for v in interior_of(aig, root, leaves) {
                            covered[v as usize] = true;
                        }
                    }
                }
            }
        }
        adders.sort_by_key(|a| (a.sum, a.carry));
        adders
    }
}

/// A seeded admission test keeping about `percent` of (node, role) pairs.
fn keep_some(seed: u64, percent: u64) -> impl Fn(NodeId, Role) -> bool {
    move |node, role| mix64(seed ^ (node.as_u32() as u64) << 1 ^ role as u64) % 100 < percent
}

#[test]
fn pairing_matches_the_hash_set_reference() {
    let mut pairing = Pairing::default();
    let mut adders = Vec::new();
    let mut choices = 0;
    for (name, aigs) in matrix() {
        for (i, aig) in aigs.iter().enumerate() {
            let cands = detect(aig);
            pairing.pair(aig, &cands, |_, _| true, &mut adders);
            assert_eq!(
                adders,
                reference::pair(aig, &cands, |_, _| true),
                "{name} #{i}"
            );
            for (seed, percent) in [(1, 85), (2, 60), (3, 30)] {
                let keep = keep_some(seed + i as u64, percent);
                pairing.pair(aig, &cands, &keep, &mut adders);
                let expected = reference::pair(aig, &cands, &keep);
                assert_eq!(adders, expected, "{name} #{i} keeping {percent}%");
                choices += adders.len();
            }
        }
    }
    assert!(choices > 10_000, "the filtered runs pair adders: {choices}");
}

fn predictions_from(labels: &Labels) -> Predictions {
    Predictions {
        root_leaf: labels
            .root_leaf
            .iter()
            .map(|c| c.as_index() as u32)
            .collect(),
        is_xor: labels.is_xor.clone(),
        is_maj: labels.is_maj.clone(),
    }
}

/// Re-draws about one entry in twenty of every task.
fn flip_some(preds: &mut Predictions, seed: u64) {
    let mut rng = Rng(seed);
    for i in 0..preds.root_leaf.len() {
        if rng.below(20) == 0 {
            preds.root_leaf[i] = rng.below(4) as u32;
        }
        if rng.below(20) == 0 {
            preds.is_xor[i] ^= true;
        }
        if rng.below(20) == 0 {
            preds.is_maj[i] ^= true;
        }
    }
}

/// The fused post-process is `extract_from_predictions` followed by
/// `lsb_correction`, whatever the predictions: the truth, a trained model's
/// answer, and either with a twentieth of the entries re-drawn.
#[test]
fn fused_postprocess_matches_the_two_steps() {
    let train = generate_multiplier(MultiplierKind::Csa, 4).aig;
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&train],
        &TrainConfig {
            epochs: 60,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    // One warm post-processor across subjects of every size, as a serve
    // worker holds it.
    let mut post = PostProcess::default();
    let mut repaired = 0;
    for (name, aigs) in matrix() {
        for (i, aig) in aigs.iter().enumerate() {
            let truth = predictions_from(&analyze(aig).labels);
            let model = reasoner.predict(aig);
            for (source, base) in [("labels", truth), ("model", model)] {
                for flip in [None, Some(7 + i as u64)] {
                    let mut preds = base.clone();
                    if let Some(seed) = flip {
                        flip_some(&mut preds, seed);
                    }
                    let mut expected = gamora::extract_from_predictions(aig, &preds);
                    repaired += gamora::lsb_correction(aig, &mut expected);
                    assert_eq!(
                        post.run(aig, &preds),
                        expected,
                        "{name} #{i}: {source}, flipped {flip:?}"
                    );
                }
            }
        }
    }
    assert!(repaired > 100, "the LSB repair had work to do: {repaired}");
}

/// `copies` half adders over one pair of inputs pair up one to one, in time
/// that does not depend on how many candidates share the leaf set: at
/// 62caf1d every partner choice rebuilt every eligible cone, 17.7 s at 1,600
/// copies and no answer in five minutes at 4,000.
#[test]
fn candidates_sharing_one_leaf_set_pair_in_linear_time() {
    // Unoptimised builds get the budget the parent fails by a wide margin.
    let scale = if cfg!(debug_assertions) { 5.0 } else { 1.0 };
    for (copies, seconds) in [(1_600usize, 0.2), (4_000, 1.0)] {
        let aig = half_adder_copies(copies);
        let started = std::time::Instant::now();
        let analysis = analyze(&aig);
        let took = started.elapsed().as_secs_f64();
        assert_eq!(analysis.adders.len(), copies);
        assert!(
            took < seconds * scale,
            "{copies} copies took {took:.3} s, budget {} s",
            seconds * scale
        );
    }
}
