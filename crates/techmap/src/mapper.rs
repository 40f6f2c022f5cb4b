//! Cut-based standard-cell technology mapping.
//!
//! Classic area-oriented mapping: enumerate K-feasible cuts, Boolean-match
//! each cut function against the library by NPN canonicalisation (input
//! negations are realised with inverters, whose cost the dynamic program
//! accounts for), and extract a minimum-area cover with two phases
//! (positive/negated) per node. Multi-output full/half-adder cells are
//! matched through exact adder extraction, which is how a real mapper's
//! multi-output matching collapses whole bitslices — the effect that makes
//! post-mapping reasoning hard in the paper's Figure 5.

use crate::library::Library;
use gamora_aig::cut::{cone_function, enumerate_cuts, CutParams};
use gamora_aig::hasher::FxHashMap;
use gamora_aig::tt;
use gamora_aig::{Aig, NodeId, NodeKind};
use gamora_exact::{analyze, ExtractedKind};

/// Net id of constant false in a [`MappedNetlist`].
pub const NET_CONST0: u32 = u32::MAX - 1;
/// Net id of constant true in a [`MappedNetlist`].
pub const NET_CONST1: u32 = u32::MAX;

/// Mapping parameters.
#[derive(Copy, Clone, Debug)]
pub struct MapParams {
    /// Cut size for matching (at most 4; NPN canonicalisation bound).
    pub max_cut: usize,
    /// Cuts kept per node.
    pub cuts_per_node: usize,
    /// Match multi-output adder cells when the library has them.
    pub use_adder_cells: bool,
}

impl Default for MapParams {
    fn default() -> Self {
        MapParams {
            max_cut: 4,
            cuts_per_node: 8,
            use_adder_cells: true,
        }
    }
}

/// One placed cell instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Index into the library's cell list.
    pub cell: usize,
    /// Input nets, one per cell pin.
    pub inputs: Vec<u32>,
    /// Output nets, one per cell output.
    pub outputs: Vec<u32>,
}

/// The result of mapping: a cell-level netlist.
#[derive(Clone, Debug)]
pub struct MappedNetlist {
    /// The library the instances index into.
    pub library: Library,
    /// Instances in topological order.
    pub instances: Vec<Instance>,
    /// Net carrying each primary input (in AIG input order).
    pub input_nets: Vec<u32>,
    /// Net carrying each primary output (in AIG output order).
    pub output_nets: Vec<u32>,
    /// Total number of ordinary nets.
    pub num_nets: u32,
}

impl MappedNetlist {
    /// Total cell area.
    pub fn area(&self) -> f64 {
        self.instances
            .iter()
            .map(|i| self.library.cells[i.cell].area)
            .sum()
    }

    /// Cell-name histogram, sorted by descending count.
    pub fn cell_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for i in &self.instances {
            *counts.entry(&self.library.cells[i.cell].name).or_default() += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Re-encodes the mapped netlist as an AIG (each cell's function is
    /// rebuilt gate by gate) — the subject graph for post-mapping
    /// reasoning, mirroring `strash` after `map` in ABC.
    pub fn to_aig(&self) -> Aig {
        use crate::expr::Expr;
        let mut aig = Aig::with_capacity(self.instances.len() * 4 + self.input_nets.len());
        let mut nets: FxHashMap<u32, gamora_aig::Lit> = FxHashMap::default();
        nets.insert(NET_CONST0, gamora_aig::Lit::FALSE);
        nets.insert(NET_CONST1, gamora_aig::Lit::TRUE);
        for &net in &self.input_nets {
            let lit = aig.add_input().lit();
            nets.insert(net, lit);
        }
        fn build(aig: &mut Aig, e: &Expr, pins: &[gamora_aig::Lit]) -> gamora_aig::Lit {
            match e {
                Expr::Const(false) => gamora_aig::Lit::FALSE,
                Expr::Const(true) => gamora_aig::Lit::TRUE,
                Expr::Pin(i) => pins[*i],
                Expr::Not(x) => !build(aig, x, pins),
                Expr::And(a, b) => {
                    let (la, lb) = (build(aig, a, pins), build(aig, b, pins));
                    aig.and(la, lb)
                }
                Expr::Or(a, b) => {
                    let (la, lb) = (build(aig, a, pins), build(aig, b, pins));
                    aig.or(la, lb)
                }
                Expr::Xor(a, b) => {
                    let (la, lb) = (build(aig, a, pins), build(aig, b, pins));
                    aig.xor(la, lb)
                }
            }
        }
        for inst in &self.instances {
            let pins: Vec<gamora_aig::Lit> = inst
                .inputs
                .iter()
                .map(|n| *nets.get(n).expect("topological instance order"))
                .collect();
            let cell = &self.library.cells[inst.cell];
            for (o, out) in cell.outputs.iter().enumerate() {
                let lit = build(&mut aig, &out.expr, &pins);
                nets.insert(inst.outputs[o], lit);
            }
        }
        for &net in &self.output_nets {
            let lit = *nets.get(&net).expect("output net driven");
            aig.add_output(lit);
        }
        aig
    }
}

#[derive(Clone, Debug, Default)]
enum Choice {
    #[default]
    None,
    /// Primary input (positive phase).
    Input,
    /// Constant value.
    Const(bool),
    /// Inverter from the opposite phase.
    Inv,
    /// Alias of a leaf (vacuous cut): node phase = leaf phase ^ neg.
    Wire { leaf: u32, neg: bool },
    /// A matched single-output cell.
    Cell {
        cell: u32,
        /// Leaf node feeding each cell pin.
        pin_leaves: Vec<u32>,
        /// Phase required of each pin's leaf (true = negated).
        pin_neg: Vec<bool>,
    },
    /// One output of a matched multi-output adder cell.
    AdderCell { adder: u32 },
}

const INF: f64 = f64::INFINITY;

struct AdderMatch {
    cell: usize,
    leaves: Vec<u32>,
    /// Phase required of each leaf.
    neg: Vec<bool>,
    sum: NodeId,
    carry: NodeId,
    /// Phase the cell's S / CO nets provide for sum / carry nodes.
    sum_neg: bool,
    carry_neg: bool,
}

/// Maps an AIG onto a library, minimising area.
///
/// # Panics
///
/// Panics if `params.max_cut > 4` or the library lacks an inverter.
pub fn map(aig: &Aig, library: &Library, params: &MapParams) -> MappedNetlist {
    assert!(
        params.max_cut >= 2 && params.max_cut <= 4,
        "NPN matching supports cuts of 2..=4"
    );
    let inv_cell = library.inverter();
    let inv_area = library.cells[inv_cell].area;

    // NPN index over single-output cells.
    let mut index: FxHashMap<(u64, usize), Vec<usize>> = FxHashMap::default();
    for (ci, cell) in library.cells.iter().enumerate() {
        if cell.is_multi_output() || cell.num_pins() < 2 || cell.num_pins() > params.max_cut {
            continue;
        }
        let k = cell.num_pins();
        let canon = tt::npn_canon(cell.truth_table(0), k);
        index.entry((canon, k)).or_default().push(ci);
    }

    // Multi-output adder matching via exact extraction.
    let mut adder_matches: Vec<AdderMatch> = Vec::new();
    let mut adder_at: FxHashMap<(u32, bool), u32> = FxHashMap::default(); // (node, phase) -> adder idx
    if params.use_adder_cells {
        let (fa_cell, ha_cell) = library.adder_cells();
        if fa_cell.is_some() || ha_cell.is_some() {
            let analysis = analyze(aig);
            for a in &analysis.adders {
                let (cell, base_sum, base_carry) = match a.kind {
                    ExtractedKind::Full => match fa_cell {
                        Some(c) => (c, tt::XOR3, tt::MAJ3),
                        None => continue,
                    },
                    ExtractedKind::Half => match ha_cell {
                        Some(c) => (c, tt::XOR2, tt::AND2),
                        None => continue,
                    },
                };
                let leaves: Vec<NodeId> = a.leaf_slice().iter().map(|&l| NodeId::new(l)).collect();
                let k = leaves.len();
                let Some(sum_tt) = cone_function(aig, a.sum.lit(), &leaves) else {
                    continue;
                };
                let Some(carry_tt) = cone_function(aig, a.carry.lit(), &leaves) else {
                    continue;
                };
                let id: Vec<usize> = (0..k).collect();
                let mut found = None;
                'mask: for m in 0..(1u32 << k) {
                    for o in [false, true] {
                        if tt::transform(base_carry, k, &id, m, o) == carry_tt {
                            found = Some((m, o));
                            break 'mask;
                        }
                    }
                }
                let Some((mask, carry_neg)) = found else {
                    continue;
                };
                let sum_neg = tt::transform(base_sum, k, &id, mask, false) != sum_tt;
                // Confirm the sum is consistent under the same mask.
                if tt::transform(base_sum, k, &id, mask, sum_neg) != sum_tt {
                    continue;
                }
                let idx = adder_matches.len() as u32;
                adder_matches.push(AdderMatch {
                    cell,
                    leaves: a.leaf_slice().to_vec(),
                    neg: (0..k).map(|i| mask >> i & 1 == 1).collect(),
                    sum: a.sum,
                    carry: a.carry,
                    sum_neg,
                    carry_neg,
                });
                adder_at.insert((a.sum.as_u32(), sum_neg), idx);
                adder_at.insert((a.carry.as_u32(), carry_neg), idx);
            }
        }
    }

    // Phase-aware minimum-area DP.
    let cuts = enumerate_cuts(
        aig,
        &CutParams {
            max_leaves: params.max_cut,
            max_cuts: params.cuts_per_node,
        },
    );
    let n = aig.num_nodes();
    let mut cost = vec![[INF, INF]; n];
    let mut choice: Vec<[Choice; 2]> = (0..n).map(|_| [Choice::None, Choice::None]).collect();
    for node in aig.node_ids() {
        let v = node.index();
        match aig.kind(node) {
            NodeKind::Const0 => {
                cost[v] = [0.0, 0.0];
                choice[v] = [Choice::Const(false), Choice::Const(true)];
            }
            NodeKind::Input => {
                cost[v] = [0.0, inv_area];
                choice[v] = [Choice::Input, Choice::Inv];
            }
            NodeKind::And => {
                for cut in cuts.of(node) {
                    if cut.is_trivial_of(node) {
                        continue;
                    }
                    let (stt, k, kept) = tt::shrink(cut.tt, cut.len());
                    let leaves: Vec<u32> = kept[..k].iter().map(|&i| cut.leaves()[i]).collect();
                    match k {
                        0 => {
                            let val = stt & 1 == 1;
                            relax(&mut cost[v], &mut choice[v], 0, 0.0, Choice::Const(val));
                            relax(&mut cost[v], &mut choice[v], 1, 0.0, Choice::Const(!val));
                        }
                        1 => {
                            let neg = stt == 0x1;
                            let leaf = leaves[0];
                            for ph in 0..2 {
                                let lp = (ph == 1) ^ neg; // leaf phase needed
                                let c = cost[leaf as usize][lp as usize];
                                relax(
                                    &mut cost[v],
                                    &mut choice[v],
                                    ph,
                                    c,
                                    Choice::Wire { leaf, neg },
                                );
                            }
                        }
                        _ => {
                            let canon = tt::npn_canon(stt, k);
                            let Some(cands) = index.get(&(canon, k)) else {
                                continue;
                            };
                            for &ci in cands {
                                let cell_tt = library.cells[ci].truth_table(0);
                                let Some(t) = tt::npn_match(stt, cell_tt, k) else {
                                    continue;
                                };
                                // Cell pin i connects leaf perm[i] in phase neg_i;
                                // out_neg selects which node phase it provides.
                                let mut pin_leaves = Vec::with_capacity(k);
                                let mut pin_neg = Vec::with_capacity(k);
                                let mut total = library.cells[ci].area;
                                for i in 0..k {
                                    let leaf = leaves[t.perm[i]];
                                    let np = t.neg >> i & 1 == 1;
                                    pin_leaves.push(leaf);
                                    pin_neg.push(np);
                                    total += cost[leaf as usize][np as usize];
                                }
                                let ph = t.out_neg as usize;
                                relax(
                                    &mut cost[v],
                                    &mut choice[v],
                                    ph,
                                    total,
                                    Choice::Cell {
                                        cell: ci as u32,
                                        pin_leaves,
                                        pin_neg,
                                    },
                                );
                            }
                        }
                    }
                }
                // Multi-output adder candidates.
                for ph in 0..2 {
                    if let Some(&ai) = adder_at.get(&(node.as_u32(), ph == 1)) {
                        let am = &adder_matches[ai as usize];
                        let mut total = library.cells[am.cell].area * 0.5;
                        for (i, &leaf) in am.leaves.iter().enumerate() {
                            total += cost[leaf as usize][am.neg[i] as usize];
                        }
                        relax(
                            &mut cost[v],
                            &mut choice[v],
                            ph,
                            total,
                            Choice::AdderCell { adder: ai },
                        );
                    }
                }
                // Phase closure through an inverter.
                if cost[v][0] + inv_area < cost[v][1] {
                    cost[v][1] = cost[v][0] + inv_area;
                    choice[v][1] = Choice::Inv;
                }
                if cost[v][1] + inv_area < cost[v][0] {
                    cost[v][0] = cost[v][1] + inv_area;
                    choice[v][0] = Choice::Inv;
                }
            }
        }
    }

    // Cover extraction, demand-driven from the outputs.
    let mut builder = CoverBuilder {
        inv_cell,
        choice: &choice,
        adder_matches: &adder_matches,
        instances: Vec::new(),
        nets: FxHashMap::default(),
        adder_nets: FxHashMap::default(),
        input_nets: vec![0; aig.num_inputs()],
        next_net: 0,
    };
    for (i, _) in aig.inputs().iter().enumerate() {
        let net = builder.fresh_net();
        builder.input_nets[i] = net;
        let node = aig.inputs()[i].as_u32();
        builder.nets.insert((node, false), net);
    }
    let output_nets: Vec<u32> = aig
        .outputs()
        .iter()
        .map(|o| builder.resolve(o.var(), o.is_complement()))
        .collect();
    MappedNetlist {
        library: library.clone(),
        instances: builder.instances,
        input_nets: builder.input_nets,
        output_nets,
        num_nets: builder.next_net,
    }
}

fn relax(cost: &mut [f64; 2], choice: &mut [Choice; 2], ph: usize, c: f64, ch: Choice) {
    if c < cost[ph] {
        cost[ph] = c;
        choice[ph] = ch;
    }
}

struct CoverBuilder<'a> {
    inv_cell: usize,
    choice: &'a [[Choice; 2]],
    adder_matches: &'a [AdderMatch],
    instances: Vec<Instance>,
    nets: FxHashMap<(u32, bool), u32>,
    adder_nets: FxHashMap<u32, (u32, u32)>,
    input_nets: Vec<u32>,
    next_net: u32,
}

impl CoverBuilder<'_> {
    fn fresh_net(&mut self) -> u32 {
        let n = self.next_net;
        self.next_net += 1;
        n
    }

    /// Returns the net carrying `node`'s value in the given phase
    /// (`neg = true` means the net carries the complement).
    fn resolve(&mut self, node: NodeId, neg: bool) -> u32 {
        let key = (node.as_u32(), neg);
        if let Some(&net) = self.nets.get(&key) {
            return net;
        }
        let net = match &self.choice[node.index()][neg as usize] {
            Choice::None => panic!("unmappable node {node} phase {neg} (incomplete library?)"),
            Choice::Input => {
                unreachable!("input positive nets are pre-seeded")
            }
            Choice::Const(v) => {
                if *v {
                    NET_CONST1
                } else {
                    NET_CONST0
                }
            }
            Choice::Inv => {
                let src = self.resolve(node, !neg);
                let out = self.fresh_net();
                self.instances.push(Instance {
                    cell: self.inv_cell,
                    inputs: vec![src],
                    outputs: vec![out],
                });
                out
            }
            Choice::Wire { leaf, neg: wneg } => {
                let (leaf, wneg) = (*leaf, *wneg);
                self.resolve(NodeId::new(leaf), neg ^ wneg)
            }
            Choice::Cell {
                cell,
                pin_leaves,
                pin_neg,
            } => {
                let (cell, pin_leaves, pin_neg) =
                    (*cell as usize, pin_leaves.clone(), pin_neg.clone());
                let inputs: Vec<u32> = pin_leaves
                    .iter()
                    .zip(&pin_neg)
                    .map(|(&l, &p)| self.resolve(NodeId::new(l), p))
                    .collect();
                let out = self.fresh_net();
                self.instances.push(Instance {
                    cell,
                    inputs,
                    outputs: vec![out],
                });
                out
            }
            Choice::AdderCell { adder } => {
                let adder = *adder;
                let (s_net, c_net) = self.instantiate_adder(adder);
                let am = &self.adder_matches[adder as usize];
                if node == am.sum {
                    s_net
                } else {
                    c_net
                }
            }
        };
        self.nets.insert(key, net);
        net
    }

    fn instantiate_adder(&mut self, adder: u32) -> (u32, u32) {
        if let Some(&nets) = self.adder_nets.get(&adder) {
            return nets;
        }
        let am = &self.adder_matches[adder as usize];
        let (cell, leaves, negs) = (am.cell, am.leaves.clone(), am.neg.clone());
        let (sum, carry, sum_neg, carry_neg) = (am.sum, am.carry, am.sum_neg, am.carry_neg);
        let inputs: Vec<u32> = leaves
            .iter()
            .zip(&negs)
            .map(|(&l, &p)| self.resolve(NodeId::new(l), p))
            .collect();
        let s_net = self.fresh_net();
        let c_net = self.fresh_net();
        self.instances.push(Instance {
            cell,
            inputs,
            outputs: vec![s_net, c_net],
        });
        self.adder_nets.insert(adder, (s_net, c_net));
        // The cell outputs provide specific phases of the root nodes.
        self.nets.insert((sum.as_u32(), sum_neg), s_net);
        self.nets.insert((carry.as_u32(), carry_neg), c_net);
        (s_net, c_net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_aig::sim::random_equivalence_check;
    use gamora_circuits::{booth_multiplier, csa_multiplier, kogge_stone_adder};

    fn roundtrip_equivalent(aig: &Aig, lib: &Library, params: &MapParams) -> MappedNetlist {
        let mapped = map(aig, lib, params);
        let back = mapped.to_aig();
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        assert!(
            random_equivalence_check(aig, &back, 8, 0xFEED).is_ok(),
            "mapping changed the function"
        );
        mapped
    }

    #[test]
    fn simple_library_preserves_function() {
        for bits in [3usize, 4, 6] {
            let m = csa_multiplier(bits);
            roundtrip_equivalent(&m.aig, &Library::simple(), &MapParams::default());
        }
    }

    #[test]
    fn complex_library_preserves_function() {
        for bits in [3usize, 4, 6] {
            let m = csa_multiplier(bits);
            roundtrip_equivalent(&m.aig, &Library::complex7nm(), &MapParams::default());
        }
    }

    #[test]
    fn booth_maps_equivalently() {
        let m = booth_multiplier(4);
        roundtrip_equivalent(&m.aig, &Library::simple(), &MapParams::default());
        roundtrip_equivalent(&m.aig, &Library::complex7nm(), &MapParams::default());
    }

    #[test]
    fn adder_cells_are_used_on_multipliers() {
        let m = csa_multiplier(6);
        let mapped = roundtrip_equivalent(&m.aig, &Library::complex7nm(), &MapParams::default());
        let hist = mapped.cell_histogram();
        let fadds = hist
            .iter()
            .find(|(n, _)| n == "FADDx1")
            .map(|&(_, c)| c)
            .unwrap_or(0);
        assert!(fadds > 0, "expected FADD cells, got {hist:?}");
    }

    #[test]
    fn disabling_adder_cells_increases_area() {
        let m = csa_multiplier(6);
        let lib = Library::complex7nm();
        let with = map(&m.aig, &lib, &MapParams::default());
        let without = map(
            &m.aig,
            &lib,
            &MapParams {
                use_adder_cells: false,
                ..MapParams::default()
            },
        );
        assert!(
            with.area() < without.area(),
            "FADD absorption should save area: {} vs {}",
            with.area(),
            without.area()
        );
        assert!(random_equivalence_check(&m.aig, &without.to_aig(), 8, 3).is_ok());
    }

    #[test]
    fn mapping_restructures_the_netlist() {
        // The post-mapping AIG must differ structurally from the original —
        // that is the phenomenon Figure 5 studies.
        let m = csa_multiplier(5);
        let mapped = map(&m.aig, &Library::complex7nm(), &MapParams::default());
        let back = mapped.to_aig();
        assert_ne!(back.num_ands(), m.aig.num_ands());
    }

    #[test]
    fn prefix_adder_maps() {
        let ks = kogge_stone_adder(12);
        roundtrip_equivalent(&ks.aig, &Library::simple(), &MapParams::default());
    }

    #[test]
    fn area_accounting() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let g = aig.and(a, b);
        aig.add_output(g);
        let lib = Library::simple();
        let mapped = map(&aig, &lib, &MapParams::default());
        // One and2 (area 3) or nand2+inv (2+1); either way area == 3.
        assert!((mapped.area() - 3.0).abs() < 1e-9, "area {}", mapped.area());
        assert_eq!(mapped.output_nets.len(), 1);
    }
}
