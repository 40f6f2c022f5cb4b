//! The five workloads: what each one sends, to which server configuration,
//! and why it exists. Everything random is drawn from the run's seed; the
//! server only ever sees the generated AIGs.

use crate::sut::{self, Aig, AnalysisKind, Library, Lit, ModelDepth, MultiplierKind, NodeId};
use std::collections::BTreeSet;

/// Which answers the job list must get from the prediction cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Hits {
    /// `cache_capacity 0`: every job runs the model.
    Never,
    /// The working set fits the cache: every timed job is a hit.
    Always,
    /// The list says per job: fresh variants miss, re-sends hit.
    Listed,
}

/// One workload: its traffic shape and the server it is sent to.
#[derive(Copy, Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub deep: bool,
    pub kind: AnalysisKind,
    pub max_batch: usize,
    pub cache_capacity: usize,
    pub linger_micros: u64,
    pub intra_threads: usize,
    /// Closed-loop window: jobs the single generator thread keeps in flight.
    pub clients: usize,
    /// Percentile `latency_tail_ms` is read at (given enough samples).
    pub tail: f64,
    /// Jobs that make one unit of identical work: a full batch, or for
    /// `mixed_extract` two rounds of its job mix ([`MIX_ROUND`] jobs each,
    /// 7 batches together). Throughput segments are multiples of it.
    pub align: usize,
    /// Length of the timed job list per second of `--seconds`, about twice
    /// what the server completes today; a run that outpaces it ends early.
    pub list_jobs_per_s: usize,
    /// Jobs of the list the single-threaded replay pushes through the layers.
    pub replay_jobs: usize,
    pub hits: Hits,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "cold_stream",
        why: "one 16-bit CSA at a time, no batching, no cache: plain per-job service time, ~93% forward pass; the no-change control for batching and cache work (tail p90)",
        deep: false,
        kind: AnalysisKind::Classify,
        max_batch: 1,
        cache_capacity: 0,
        linger_micros: 0,
        intra_threads: 1,
        clients: 1,
        tail: 0.90,
        align: 1,
        list_jobs_per_s: 800,
        replay_jobs: 512,
        hits: Hits::Never,
    },
    Spec {
        name: "cold_batch64",
        why: "same subject and model through assemble, a 166k-row merged forward and split: the workload a section-major forward must move while cold_stream stays put (tail p90)",
        deep: false,
        kind: AnalysisKind::Classify,
        max_batch: 64,
        cache_capacity: 0,
        linger_micros: 200,
        intra_threads: 1,
        clients: 128,
        tail: 0.90,
        align: 64,
        list_jobs_per_s: 800,
        replay_jobs: 512,
        hits: Hits::Never,
    },
    Spec {
        name: "cold_giant",
        why: "one 256-bit CSA (717k nodes) per job on two kernel threads: the row-block-parallel gnn path on activations (3 x 92 MB) far beyond L2; scheduler, hashing, cache idle (tail p75, or p50 below 40 jobs)",
        deep: false,
        kind: AnalysisKind::Classify,
        max_batch: 1,
        cache_capacity: 0,
        linger_micros: 0,
        intra_threads: 2,
        clients: 1,
        tail: 0.75,
        align: 1,
        list_jobs_per_s: 5,
        replay_jobs: 6,
        hits: Hits::Never,
    },
    Spec {
        name: "hot_repeat",
        why: "Zipf over 48 cached subjects incl. renumbered twins: all verbatim or transfer hits, so hashing, cache, queue and the per-submit clone do the work and gnn none (tail p90)",
        deep: false,
        kind: AnalysisKind::Classify,
        max_batch: 8,
        cache_capacity: 256,
        linger_micros: 200,
        intra_threads: 1,
        clients: 16,
        tail: 0.90,
        align: 8,
        list_jobs_per_s: 70_000,
        replay_jobs: 2048,
        hits: Hits::Always,
    },
    Spec {
        name: "mixed_extract",
        why: "deep model, AIGER in, adders out; 75% fresh gadget-tagged variants of 21 plain and tech-mapped cores, 25% recent re-sends: GEMM-heavy, uneven batches, LRU eviction, extraction (tail p90)",
        deep: true,
        kind: AnalysisKind::ExtractAdders,
        max_batch: 8,
        cache_capacity: 256,
        linger_micros: 200,
        intra_threads: 1,
        clients: 16,
        tail: 0.90,
        align: 56,
        list_jobs_per_s: 120,
        replay_jobs: 256,
        hits: Hits::Listed,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How a workload's model is trained. The recipes are `gamora train`'s,
/// cut down in epochs (and, for the deep model, in training widths) so that
/// three set-ups plus the timed window fit the benchmark's time cap.
pub struct Recipe {
    pub depth: ModelDepth,
    pub train: Vec<(MultiplierKind, usize)>,
    pub epochs: usize,
}

pub fn recipe(spec: &Spec, smoke: bool) -> Recipe {
    use MultiplierKind::{Booth, Csa};
    if smoke {
        return Recipe {
            depth: ModelDepth::Custom {
                layers: 2,
                hidden: 8,
            },
            train: vec![(Csa, 3), (Csa, 4)],
            epochs: 5,
        };
    }
    if spec.deep {
        Recipe {
            depth: ModelDepth::Deep,
            train: vec![(Csa, 4), (Booth, 4), (Csa, 6), (Booth, 6)],
            epochs: 30,
        }
    } else {
        Recipe {
            depth: ModelDepth::Shallow,
            train: (3..=8).map(|bits| (Csa, bits)).collect(),
            epochs: 80,
        }
    }
}

/// SplitMix64 over the workspace's own `mix64`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(sut::mix64(seed ^ 0x6A09_E667_F3BC_C908))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        sut::mix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the generator holds per distinct input and turns into a fresh `Aig`
/// for every submission: a graph to clone, or AIGER bytes to parse.
pub enum Payload {
    Graph(Aig),
    Aiger(Vec<u8>),
}

impl Payload {
    pub fn materialize(&self) -> Aig {
        match self {
            Payload::Graph(aig) => aig.clone(),
            Payload::Aiger(bytes) => sut::aiger_read(bytes),
        }
    }
}

/// A renumbered copy of payload `of`: `node_of[i]` is the twin's node for
/// the original's node `i`.
pub struct Twin {
    pub of: u32,
    pub node_of: Vec<u32>,
}

/// A workload's generated inputs.
#[derive(Default)]
pub struct Corpus {
    pub payloads: Vec<Payload>,
    /// AIG nodes per payload.
    pub nodes: Vec<u64>,
    /// Per payload: set for a renumbered twin.
    pub twins: Vec<Option<Twin>>,
    /// The warm-up pass (part of set-up, every answer checked): each distinct
    /// subject once, then the head of the list up to `timed_from`.
    pub warm: Vec<u32>,
    /// The generator lets the first `warm_barrier` warm-up jobs finish before
    /// it sends the rest, so a twin never shares a batch with its not yet
    /// cached original and every cache entry is an original's.
    pub warm_barrier: usize,
    /// Positions in `warm` of the distinct subjects whose served answers give
    /// `accuracy_min` and `adders_recovered_share`: the same circuits
    /// whatever the seed (the seed only renumbers the twins among them).
    pub distinct: Vec<usize>,
    /// The job list as payload indices; the timed window starts at
    /// `timed_from`.
    pub jobs: Vec<u32>,
    pub timed_from: usize,
    /// `Hits::Listed` only: per job, whether it re-sends an earlier variant.
    pub resend: Vec<bool>,
}

impl Corpus {
    /// Order- and content-sensitive digest of everything the server will be
    /// sent: same seed, same digest.
    pub fn digest(&self) -> u64 {
        let mut acc = 0x0123_4567_89AB_CDEFu64;
        let mut fold = |x: u64| acc = sut::mix64(acc ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for p in &self.payloads {
            match p {
                // Inputs, outputs and every gate in creation order (binary
                // AIGER would renumber, and the numbering is the point).
                Payload::Graph(aig) => {
                    fold(aig.num_inputs() as u64);
                    for n in aig.and_ids() {
                        let (f0, f1) = aig.fanins(n);
                        fold((f0.raw() as u64) << 32 | f1.raw() as u64);
                    }
                    aig.outputs().iter().for_each(|o| fold(o.raw() as u64));
                }
                Payload::Aiger(bytes) => {
                    fold(bytes.len() as u64);
                    for word in bytes.chunks(8) {
                        fold(word.iter().fold(0, |w, &b| w << 8 | b as u64));
                    }
                }
            }
        }
        self.warm
            .iter()
            .chain(&self.jobs)
            .for_each(|&j| fold(j as u64));
        acc
    }
}

/// Builds a workload's inputs from the seed. `seconds` sizes the job list.
pub fn build(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Corpus {
    let mut rng = Rng::new(seed);
    let list_len = ((spec.list_jobs_per_s as f64 * seconds.max(1.0)).ceil() as usize)
        .max(spec.replay_jobs + 2 * spec.clients.max(spec.align));
    let mut c = match spec.name {
        "cold_stream" | "cold_batch64" => single_subject(if smoke { 6 } else { 16 }, list_len),
        "cold_giant" => single_subject(if smoke { 24 } else { 256 }, list_len),
        "hot_repeat" => hot_repeat(&mut rng, list_len, smoke),
        "mixed_extract" => mixed_extract(&mut rng, list_len, smoke),
        other => unreachable!("no corpus for workload {other}"),
    };
    c.nodes = c
        .payloads
        .iter()
        .map(|p| match p {
            Payload::Graph(aig) => aig.num_nodes() as u64,
            Payload::Aiger(bytes) => sut::aiger_read(bytes).num_nodes() as u64,
        })
        .collect();
    c.warm_barrier = c.warm.len();
    // The head of the list warms the server up: a window's worth of jobs, or
    // the first whole round of the mix, so that the timed window starts on a
    // round boundary.
    c.timed_from = c.timed_from.max(spec.clients);
    c.warm.extend_from_slice(&c.jobs[..c.timed_from]);
    c
}

fn single_subject(bits: usize, list_len: usize) -> Corpus {
    Corpus {
        payloads: vec![Payload::Graph(sut::multiplier(MultiplierKind::Csa, bits))],
        twins: vec![None],
        warm: vec![0],
        distinct: vec![0],
        jobs: vec![0; list_len],
        ..Corpus::default()
    }
}

const KINDS: [MultiplierKind; 3] = [
    MultiplierKind::Csa,
    MultiplierKind::Booth,
    MultiplierKind::Dadda,
];

/// Twins per original in `hot_repeat`.
const TWINS: usize = 3;

fn hot_repeat(rng: &mut Rng, list_len: usize, smoke: bool) -> Corpus {
    let widths: &[usize] = if smoke { &[4, 6] } else { &[8, 12, 16, 20] };
    let mut c = Corpus::default();
    for kind in KINDS {
        for &bits in widths {
            c.payloads.push(Payload::Graph(sut::multiplier(kind, bits)));
            c.twins.push(None);
        }
    }
    // Originals first, so that the warm-up pass caches them and every twin
    // is answered by transfer from its original.
    let originals = c.payloads.len();
    for of in 0..originals {
        for _ in 0..TWINS {
            let (twin, node_of) = match &c.payloads[of] {
                Payload::Graph(original) => renumbered_twin(original, rng),
                Payload::Aiger(_) => unreachable!("hot_repeat holds graphs"),
            };
            c.payloads.push(Payload::Graph(twin));
            c.twins.push(Some(Twin {
                of: of as u32,
                node_of,
            }));
        }
    }
    let subjects = c.payloads.len();
    c.warm = (0..subjects as u32).collect();
    c.distinct = (0..subjects).collect();
    // Zipf(1.0) over fixed popularity ranks: the originals in generation
    // order, then everybody's first twin, second, third. The seed draws the
    // job sequence (and the renumberings above); it does not decide which
    // sizes are popular, or runs with different seeds would not be the same
    // workload.
    let by_rank: Vec<u32> = (0..=TWINS)
        .flat_map(|t| {
            (0..originals).map(move |o| match t {
                0 => o as u32,
                t => (originals + o * TWINS + (t - 1)) as u32,
            })
        })
        .collect();
    let mut cumulative = Vec::with_capacity(subjects);
    let mut total = 0.0f64;
    for rank in 0..subjects {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    c.jobs = (0..list_len)
        .map(|_| {
            let u = rng.unit() * total;
            by_rank[cumulative.partition_point(|&w| w <= u).min(subjects - 1)]
        })
        .collect();
    c
}

/// Re-creates `aig`'s AND gates in a random topological order: same inputs,
/// outputs and structure (equal structural fingerprint), different node
/// numbering (different identity hash).
pub fn renumbered_twin(aig: &Aig, rng: &mut Rng) -> (Aig, Vec<u32>) {
    let n = aig.num_nodes();
    let mut twin = Aig::with_capacity(n);
    let mut lit_of: Vec<Lit> = vec![Lit::FALSE; n];
    for &input in aig.inputs() {
        lit_of[input.index()] = twin.add_input().lit();
    }
    let (offsets, fanouts) = aig.fanouts();
    let mut waiting = vec![0u8; n];
    let mut ready: Vec<NodeId> = Vec::new();
    for gate in aig.and_ids() {
        let (f0, f1) = aig.fanins(gate);
        waiting[gate.index()] = aig.is_and(f0.var()) as u8 + aig.is_and(f1.var()) as u8;
        if waiting[gate.index()] == 0 {
            ready.push(gate);
        }
    }
    while !ready.is_empty() {
        let gate = ready.swap_remove(rng.below(ready.len()));
        let (f0, f1) = aig.fanins(gate);
        let mapped = |l: Lit| lit_of[l.var().index()].complement_if(l.is_complement());
        lit_of[gate.index()] = twin.and(mapped(f0), mapped(f1));
        let g = gate.index();
        for &out in &fanouts[offsets[g] as usize..offsets[g + 1] as usize] {
            waiting[out.index()] -= 1;
            if waiting[out.index()] == 0 {
                ready.push(out);
            }
        }
    }
    for &o in aig.outputs() {
        twin.add_output(lit_of[o.var().index()].complement_if(o.is_complement()));
    }
    assert_eq!(
        twin.num_nodes(),
        n,
        "renumbering must not fold or merge gates"
    );
    let node_of = lit_of.iter().map(|l| l.var().as_u32()).collect();
    (twin, node_of)
}

/// Gates in the gadget welded onto every `mixed_extract` variant.
const GADGET_GATES: usize = 12;
/// Every fourth job re-sends the variant that was fresh this many fresh
/// variants ago (well inside the cache's 256 entries).
const RESEND_LAG: usize = 32;
const RESEND_EVERY: usize = 4;
/// Jobs in one round of the full-size mix: each of the 21 cores fresh once,
/// plus the 7 re-sends in between.
pub const MIX_ROUND: usize = 28;

fn mixed_extract(rng: &mut Rng, list_len: usize, smoke: bool) -> Corpus {
    let widths: &[usize] = if smoke { &[4, 6] } else { &[8, 12, 16, 24] };
    // Mapping costs ~100 us per node and runs three times per run (set-up is
    // repeated), so only the narrow cores are mapped: the narrowest with both
    // libraries, the next with the simple one.
    let libraries = [
        (Library::simple(), widths[1]),
        (Library::complex7nm(), widths[0]),
    ];
    let mut cores: Vec<Aig> = Vec::new();
    for kind in KINDS {
        for &bits in widths {
            let plain = sut::multiplier(kind, bits);
            for (library, up_to) in &libraries {
                if bits <= *up_to {
                    cores.push(sut::techmap(&plain, library));
                }
            }
            cores.push(plain);
        }
    }
    assert!(
        smoke || cores.len() * RESEND_EVERY == MIX_ROUND * (RESEND_EVERY - 1),
        "MIX_ROUND must be one fresh variant per core plus the re-sends in between"
    );
    let mut c = Corpus::default();
    // The plain cores are the seed-independent subjects that accuracy and
    // adder recovery are read from; they are served once in the warm-up.
    for core in &cores {
        c.payloads.push(Payload::Aiger(sut::aiger_write(core)));
    }
    c.warm = (0..cores.len() as u32).collect();
    c.distinct = (0..cores.len()).collect();
    // Fresh variants walk the cores in seed-shuffled rounds and re-sends
    // follow at a fixed lag, so any stretch of the list is the same mix of
    // sizes whatever the seed; the seed picks the order and the gadgets.
    let mut seen: BTreeSet<(usize, Vec<u32>)> = BTreeSet::new();
    let mut fresh: Vec<u32> = Vec::new();
    let mut round: Vec<usize> = Vec::new();
    for i in 0..list_len {
        if i % RESEND_EVERY == RESEND_EVERY - 1 {
            c.jobs.push(fresh[fresh.len().saturating_sub(RESEND_LAG)]);
            c.resend.push(true);
            continue;
        }
        if round.is_empty() {
            round = (0..cores.len()).collect();
            for k in (1..round.len()).rev() {
                round.swap(k, rng.below(k + 1));
            }
        }
        let core = round.pop().expect("refilled above");
        let variant = loop {
            if let Some(variant) = weld_gadget(&cores[core], core, rng, &mut seen) {
                break variant;
            }
        };
        fresh.push(c.payloads.len() as u32);
        c.jobs.push(c.payloads.len() as u32);
        c.resend.push(false);
        c.payloads.push(Payload::Aiger(sut::aiger_write(&variant)));
    }
    c.twins = c.payloads.iter().map(|_| None).collect();
    c.timed_from = MIX_ROUND;
    c
}

/// Welds a chain of [`GADGET_GATES`] AND gates over tag-chosen input
/// literals onto a copy of `core` and exposes its end as a new output, so
/// the variant shares no whole-graph fingerprint with anything sent before.
/// `None` when the draw folded, hit an existing gate or repeats an earlier
/// gadget on this core; the caller draws again.
fn weld_gadget(
    core: &Aig,
    core_id: usize,
    rng: &mut Rng,
    seen: &mut BTreeSet<(usize, Vec<u32>)>,
) -> Option<Aig> {
    let mut picks: Vec<u32> = (0..=GADGET_GATES)
        .map(|_| {
            let input = core.inputs()[rng.below(core.num_inputs())];
            Lit::new(input, rng.below(2) == 1).raw()
        })
        .collect();
    // AND commutes: the first gate is the same either way round.
    if picks[0] > picks[1] {
        picks.swap(0, 1);
    }
    let mut variant = core.clone();
    let mut t = variant.and(Lit::from_raw(picks[0]), Lit::from_raw(picks[1]));
    for &p in &picks[2..] {
        t = variant.and(t, Lit::from_raw(p));
    }
    if variant.num_ands() != core.num_ands() + GADGET_GATES || !seen.insert((core_id, picks)) {
        return None;
    }
    variant.add_output(t);
    Some(variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in ["hot_repeat", "mixed_extract"] {
            let spec = spec(name).expect("known workload");
            let a = build(spec, 7, 1.0, true).digest();
            let b = build(spec, 7, 1.0, true).digest();
            let c = build(spec, 8, 1.0, true).digest();
            assert_eq!(a, b, "{name}: same seed must give the same job list");
            assert_ne!(a, c, "{name}: another seed must give another job list");
        }
    }

    #[test]
    fn twin_keeps_structure_and_changes_numbering() {
        let original = sut::multiplier(MultiplierKind::Dadda, 6);
        let (twin, node_of) = renumbered_twin(&original, &mut Rng::new(3));
        let (a, b) = (sut::signature(&original), sut::signature(&twin));
        assert_eq!(a.key, b.key);
        assert_ne!(a.identity, b.identity);
        // The node map carries canonical hashes across.
        for (i, &t) in node_of.iter().enumerate() {
            assert_eq!(a.node_hashes[i], b.node_hashes[t as usize]);
        }
    }

    #[test]
    fn mixed_variants_are_pairwise_distinct_and_resends_point_back() {
        let spec = spec("mixed_extract").expect("known workload");
        let c = build(spec, 1, 1.0, true);
        let mut fingerprints = BTreeSet::new();
        for p in &c.payloads {
            let sig = sut::signature(&p.materialize());
            assert!(
                fingerprints.insert(sig.key.fingerprint),
                "duplicate variant"
            );
        }
        assert_eq!(c.jobs.len(), c.resend.len());
        for (i, (&job, &resend)) in c.jobs.iter().zip(&c.resend).enumerate() {
            assert_eq!(resend, c.jobs[..i].contains(&job), "job {i}");
        }
        let resends = c.resend.iter().filter(|&&r| r).count();
        assert_eq!(resends, c.resend.len() / RESEND_EVERY);
    }

    #[test]
    fn zipf_prefers_low_ranks_whatever_the_seed() {
        let spec = spec("hot_repeat").expect("known workload");
        for seed in [5, 6] {
            let c = build(spec, seed, 1.0, true);
            let mut counts = vec![0usize; c.payloads.len()];
            c.jobs.iter().for_each(|&j| counts[j as usize] += 1);
            // Rank 1 is the first original, the last rank the last twin.
            let (first, last) = (counts[0], counts[counts.len() - 1]);
            assert!(first > 10 * last && last > 0, "first {first} last {last}");
            assert_eq!(counts.iter().max(), Some(&first));
        }
    }
}
