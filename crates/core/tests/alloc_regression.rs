//! Steady-state allocation regression guard for the inference hot path.
//!
//! A lone netlist is a batch of one, so there is one inference path: from
//! raw `&Aig`s — graph construction, feature encoding, batch assembly and
//! the forward pass (`predict_batch_into_timed`) — a warmed-up call
//! performs **zero** heap allocations, every buffer (CSR arrays, merged
//! features, per-layer activations, logits, the output `Predictions`)
//! reused at its high-water capacity. These tests install the shared
//! counting global allocator and fail if that steady state ever touches
//! the heap again.
//!
//! The allocator also keeps the *bytes* the process holds, for the
//! footprint guards: what a worker's scratch retains — including what the
//! kernel threads it forks to allocate for it — is sized by the largest
//! batch it saw, by one group of netlists and by the classes of its
//! colour refinement — not by how it got there, and not by the batch
//! times the hidden width.
//!
//! The allocator is process-wide, so the tests in this binary serialise
//! on a mutex, and it counts only the measuring thread inside its
//! measured window.

use gamora::{
    BatchScratch, GamoraReasoner, InferenceScratch, ModelDepth, Predictions, ReasonerConfig,
    TrainConfig,
};
use gamora_aig::Aig;
use gamora_circuits::csa_multiplier;
use request_counting::{counting, held_by};
use std::sync::Mutex;

#[path = "../../../tests/support/request_counting.rs"]
mod request_counting;

/// Serialises the measuring tests (one process-wide allocator).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// The *entire* batch pipeline from raw `&Aig`s — streaming graph
/// construction, feature encoding, disjoint-union batch assembly, the
/// forward pass, and the per-netlist split — is allocation-free once the
/// worker-owned scratch (`BatchScratch` + `InferenceScratch` + recycled
/// outputs) has warmed up. This is exactly the serve worker's miss path.
#[test]
fn predict_batch_into_full_path_is_allocation_free_after_warmup() {
    let _guard = TEST_LOCK.lock().unwrap();
    let m3 = csa_multiplier(3);
    let m4 = csa_multiplier(4);
    let m5 = csa_multiplier(5);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m3.aig],
        &TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        },
    );
    let reasoner = reasoner;

    // Mixed sizes in one batch, largest not first, so the split offsets
    // and capacity-reuse paths all get exercised.
    let aigs: Vec<&Aig> = vec![&m4.aig, &m3.aig, &m5.aig];
    let mut batch = BatchScratch::default();
    let mut scratch = InferenceScratch::default();
    let mut outs: Vec<Predictions> = Vec::new();

    // Warmup: every buffer — CSR arrays, merged features, forward
    // scratch, merged and per-netlist predictions — grows to its
    // high-water mark.
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
    let expected = outs.clone();

    let ((), counts) = counting(|| {
        for _ in 0..32 {
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
        }
    });
    assert_eq!(
        counts.calls, 0,
        "steady-state predict_batch_into_timed (graph build + features + batch \
         assembly + forward) must not allocate"
    );
    assert_eq!(outs, expected);

    // Fluctuating batch sizes (the serve steady state: queue drains vary
    // batch to batch) must also stay allocation-free — entries trimmed by
    // a shrink park in the scratch's spare pool and return on regrowth.
    let small: Vec<&Aig> = vec![&m3.aig];
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &small, &mut outs, None);
    let expected_small = outs.clone();
    let ((), counts) = counting(|| {
        for _ in 0..8 {
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &small, &mut outs, None);
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
        }
    });
    assert_eq!(
        counts.calls, 0,
        "alternating batch sizes must recycle warmed buffers, not reallocate"
    );
    assert_eq!(outs, expected);
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &small, &mut outs, None);
    assert_eq!(outs, expected_small);
}

/// The instrumented batch path — `predict_batch_into_timed` with a live
/// [`ForwardObserver`] recording every stage into lock-free obs
/// histograms — must be exactly as allocation-free as the bare path.
/// Observability that allocates on the hot path is a perf regression in
/// disguise; this pins the "recording is allocation-free" contract from
/// the serve worker's point of view.
#[test]
fn instrumented_batch_path_is_allocation_free_after_warmup() {
    use gamora::{ForwardObserver, ForwardStage};
    use gamora_obs::Histogram;

    /// Test observer mirroring the serve crate's per-layer hook: one
    /// preallocated histogram per stage, plain `record` calls.
    struct HistObserver {
        layers: Vec<Histogram>,
        shared: Histogram,
        heads: Histogram,
    }

    impl ForwardObserver for HistObserver {
        fn record_stage(&self, stage: ForwardStage, micros: u64) {
            match stage {
                ForwardStage::Sage(l) => {
                    if let Some(h) = self.layers.get(l) {
                        h.record(micros);
                    }
                }
                ForwardStage::Shared => self.shared.record(micros),
                ForwardStage::Heads => self.heads.record(micros),
            }
        }
    }

    let _guard = TEST_LOCK.lock().unwrap();
    let m3 = csa_multiplier(3);
    let m4 = csa_multiplier(4);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m3.aig],
        &TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        },
    );
    let reasoner = reasoner;

    let observer = HistObserver {
        layers: (0..reasoner.num_layers())
            .map(|_| Histogram::new())
            .collect(),
        shared: Histogram::new(),
        heads: Histogram::new(),
    };

    let aigs: Vec<&Aig> = vec![&m4.aig, &m3.aig];
    let mut batch = BatchScratch::default();
    let mut scratch = InferenceScratch::default();
    let mut outs: Vec<Predictions> = Vec::new();

    // Warmup (already instrumented: the observer must never allocate,
    // warm or cold — histograms preallocate all buckets up front).
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, Some(&observer));
    let expected = outs.clone();

    let ((), counts) = counting(|| {
        for _ in 0..32 {
            reasoner.predict_batch_into_timed(
                &mut batch,
                &mut scratch,
                &aigs,
                &mut outs,
                Some(&observer),
            );
        }
    });
    assert_eq!(
        counts.calls, 0,
        "steady-state instrumented predict_batch_into_timed (stage timing \
         + per-layer histogram recording) must not allocate"
    );
    assert_eq!(outs, expected);

    // The observer really saw every stage of every pass: 33 batches x
    // (3 trunk layers + shared + heads).
    for (l, h) in observer.layers.iter().enumerate() {
        assert_eq!(h.snapshot().count(), 33, "layer {l} recorded per pass");
    }
    assert_eq!(observer.shared.snapshot().count(), 33);
    assert_eq!(observer.heads.snapshot().count(), 33);
}

/// A batch large enough to cross the kernels' per-thread row cutoff goes
/// through the *sectioned* assembly entry point (`Graph::from_sections_into`)
/// and the whole batch path under the zero-alloc contract, at the 1-thread
/// cap multi-section unions are served at.
#[test]
fn sectioned_assembly_serial_dispatch_is_allocation_free_after_warmup() {
    let _guard = TEST_LOCK.lock().unwrap();
    let prev_cap = gamora_gnn::parallel::intra_threads();
    gamora_gnn::parallel::set_intra_threads(1);

    // 4 x 16-bit CSA = 10376 merged nodes: above the per-thread row
    // cutoff, so without the cap the kernels would fan out.
    let m16 = csa_multiplier(16);
    let m3 = csa_multiplier(3);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m3.aig],
        &TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        },
    );
    let reasoner = reasoner;

    let aigs: Vec<&Aig> = vec![&m16.aig, &m16.aig, &m16.aig, &m16.aig];
    let mut batch = BatchScratch::default();
    let mut scratch = InferenceScratch::default();
    let mut outs: Vec<Predictions> = Vec::new();

    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
    let expected = outs.clone();

    let ((), counts) = counting(|| {
        for _ in 0..4 {
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
        }
    });
    gamora_gnn::parallel::set_intra_threads(prev_cap);
    assert_eq!(
        counts.calls, 0,
        "serial-dispatch sectioned batch assembly must not allocate after warmup"
    );
    assert_eq!(outs, expected);
}

/// The sectioned CSR build is one pass on the calling thread at any
/// thread cap: rebuilding a warm graph from an 8 x CSA-16 union (20,752
/// rows, five times the kernels' per-thread cutoff) at a two-thread cap
/// touches the heap no more than at one thread, which is not at all.
#[test]
fn sectioned_build_at_a_two_thread_cap_is_allocation_free_after_warmup() {
    use gamora::Direction;
    use gamora_gnn::Graph;

    let _guard = TEST_LOCK.lock().unwrap();
    let m16 = csa_multiplier(16).aig;
    let n = m16.num_nodes();
    let sections = 8;
    assert!(sections * n >= 2 * 4096, "above the per-thread row cutoff");
    let build = |out: &mut Graph| {
        Graph::from_sections_into(
            sections * n,
            Direction::Bidirectional,
            sections,
            |i| (i * n, n),
            |i, sink| {
                let off = (i * n) as u32;
                m16.for_each_edge(|s, d| sink(s.as_u32() + off, d.as_u32() + off));
            },
            out,
        );
    };
    let prev_cap = gamora_gnn::parallel::intra_threads();
    gamora_gnn::parallel::set_intra_threads(2);
    let mut graph = Graph::default();
    build(&mut graph);
    let edges = graph.num_edges();

    let ((), counts) = counting(|| {
        for _ in 0..4 {
            build(&mut graph);
        }
    });
    gamora_gnn::parallel::set_intra_threads(prev_cap);
    assert_eq!(
        counts.calls, 0,
        "a warm sectioned build must not allocate at a two-thread cap"
    );
    assert_eq!(graph.num_edges(), edges);
}

/// The classical half of an `ExtractAdders` job: once a [`PostProcess`] has
/// seen a subject of this shape, running it again — cuts, candidate index,
/// the predicted and the exact pairing, the LSB repair — requests exactly
/// the adder list it returns, and re-enumerating cuts into the warm arena
/// requests nothing. Oracle predictions with one root knocked out make
/// both pairings and the repair do real work.
#[test]
fn postprocess_allocates_only_its_result_after_warmup() {
    use gamora::PostProcess;
    use gamora_aig::cut::{CutParams, CutSets};

    let _guard = TEST_LOCK.lock().unwrap();
    let subject = gamora_circuits::booth_multiplier(6);
    let analysis = gamora_exact::analyze(&subject.aig);
    let mut preds = Predictions {
        root_leaf: analysis
            .labels
            .root_leaf
            .iter()
            .map(|c| c.as_index() as u32)
            .collect(),
        is_xor: analysis.labels.is_xor,
        is_maj: analysis.labels.is_maj,
    };
    preds.is_xor[analysis.adders[0].sum.index()] = false;

    let mut post = PostProcess::default();
    let expected = post.run(&subject.aig, &preds);
    assert!(!expected.is_empty());

    let (adders, counts) = counting(|| post.run(&subject.aig, &preds));
    assert_eq!(
        counts.calls, 1,
        "a warm post-process allocates the returned list and nothing else"
    );
    assert_eq!(adders, expected);

    for params in [CutParams::for_adder_extraction(), CutParams::default()] {
        let mut cuts = CutSets::default();
        cuts.fill(&subject.aig, &params);
        let ((), counts) = counting(|| cuts.fill(&subject.aig, &params));
        assert_eq!(
            counts.calls, 0,
            "enumerating into a warm arena must not allocate"
        );
    }
}

/// An untrained shallow reasoner (4 layers, 32 hidden: a group is 2048
/// rows) and the 16-bit CSA every footprint case batches — 2594 nodes, so
/// each netlist of a batch is a group of its own.
fn footprint_subject() -> (GamoraReasoner, gamora_circuits::ArithCircuit) {
    let reasoner = GamoraReasoner::new(ReasonerConfig::default());
    let subject = csa_multiplier(16);
    assert!(subject.aig.num_nodes() > 2048, "one netlist, one group");
    (reasoner, subject)
}

/// Bytes a fresh worker scratch (`BatchScratch` + `InferenceScratch` +
/// outputs) holds after serving batches of the given sizes in turn, at
/// `threads` kernel threads, and the class counts of the last pass's
/// refinement rounds. Must run under [`TEST_LOCK`].
fn live_bytes_after(
    reasoner: &GamoraReasoner,
    aig: &Aig,
    batches: &[usize],
    threads: usize,
) -> (usize, Vec<usize>) {
    let largest: Vec<&Aig> = vec![aig; *batches.iter().max().expect("one batch")];
    let prev_cap = gamora_gnn::parallel::intra_threads();
    gamora_gnn::parallel::set_intra_threads(threads);
    // The scratch is returned, so it is released outside the window.
    let ((_, scratch, outs), held) = held_by(|| {
        let mut batch = BatchScratch::default();
        let mut scratch = InferenceScratch::default();
        let mut outs: Vec<Predictions> = Vec::new();
        for &jobs in batches {
            reasoner.predict_batch_into_timed(
                &mut batch,
                &mut scratch,
                &largest[..jobs],
                &mut outs,
                None,
            );
        }
        (batch, scratch, outs)
    });
    gamora_gnn::parallel::set_intra_threads(prev_cap);
    assert_eq!(outs.len(), *batches.last().expect("one batch"));
    (held, scratch.classes().to_vec())
}

/// A worker's scratch does not remember how it grew: a batch one netlist
/// larger than the largest so far regrows every batch-sized buffer to
/// exactly the new size, where amortised doubling used to leave a worker
/// that saw 63 netlists and then 64 holding nearly twice what a fresh
/// 64-netlist batch needs (191.0 against 97.5 MiB before this guard).
#[test]
fn a_one_job_step_up_leaves_what_a_fresh_batch_would() {
    let _guard = TEST_LOCK.lock().unwrap();
    let (reasoner, subject) = footprint_subject();
    let (fresh, _) = live_bytes_after(&reasoner, &subject.aig, &[64], 1);
    for history in [
        &[63, 64][..],
        &[33, 64],
        &[1, 2, 3, 5, 8, 13, 21, 34, 55, 64],
    ] {
        let (stepped, _) = live_bytes_after(&reasoner, &subject.aig, history, 1);
        let drift = stepped.abs_diff(fresh) as f64 / fresh as f64;
        assert!(
            drift <= 0.02,
            "batches of {history:?} leave {stepped} bytes live, a fresh 64-job batch {fresh}"
        );
    }
}

/// Going from 8 to 64 netlists a batch, a warm worker grows by what is
/// per node — graph, features, class rows, outputs — and per class row of
/// a netlist's last refinement round — logits and their decode — and by
/// nothing else: the activations are those of one group either way. (A
/// single hidden-wide matrix over the batch would be 128 more bytes a
/// node, twice this growth's tolerance band and more.)
#[test]
fn a_larger_batch_grows_the_scratch_by_per_node_buffers_only() {
    let _guard = TEST_LOCK.lock().unwrap();
    let (reasoner, subject) = footprint_subject();
    let (small, _) = live_bytes_after(&reasoner, &subject.aig, &[8], 1);
    let (grown, classes) = live_bytes_after(&reasoner, &subject.aig, &[8, 64], 1);
    let graph = gamora::dataset::build_graph(&subject.aig, reasoner.config().direction);
    let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
    // Features 3 x f32; an offset; one neighbour per edge; the class row;
    // class + two flags; 4 + 2 + 2 logits and a decoded byte per class row
    // of the last round — plus a `Predictions` and an offset per netlist.
    let class_rows = classes.last().expect("a round");
    let per_job = nodes * (12 + 4 + 4 + 6) + edges * 4 + class_rows * (32 + 1) + 72 + 8;
    let growth = grown - small;
    assert!(
        growth.abs_diff(56 * per_job) * 20 <= 56 * per_job,
        "8 -> 64 netlists grew the scratch by {growth} bytes, the per-node buffers by {}",
        56 * per_job
    );
}

/// `inference_memory_estimate` — the memory column of the fig. 8 bench —
/// stays within 5% of what a fresh batched prediction really holds, at
/// 1, 8 and 64 netlists on one kernel thread, and for a lone CSA-32 —
/// above the kernels' fork cutoff — at two, where the colour refinement
/// runs on both threads and each keeps its own class arrays.
#[test]
fn memory_estimate_tracks_the_allocator() {
    let _guard = TEST_LOCK.lock().unwrap();
    let (reasoner, subject) = footprint_subject();
    let csa32 = csa_multiplier(32).aig;
    let cases = [
        (&subject.aig, 1usize, 1usize),
        (&subject.aig, 8, 1),
        (&subject.aig, 64, 1),
        (&csa32, 1, 2),
    ];
    for (aig, jobs, threads) in cases {
        let graph = gamora::dataset::build_graph(aig, reasoner.config().direction);
        assert!(threads == 1 || graph.num_nodes() >= 2 * 4096, "forks");
        let (held, classes) = live_bytes_after(&reasoner, aig, &[jobs], threads);
        let estimate = gamora::inference_memory_estimate(
            reasoner.config(),
            &vec![graph.num_nodes(); jobs],
            jobs * graph.num_edges(),
            &classes,
            threads,
        );
        assert!(
            estimate.abs_diff(held) as f64 <= 0.05 * held as f64,
            "{jobs} netlists of {} nodes hold {held} bytes at {threads} kernel threads, \
             estimated {estimate}",
            graph.num_nodes()
        );
    }
}

/// A lone subject above the group budget is one group of its own size, and
/// what the scratch holds for it is, beside the per-node inputs and
/// outputs: the class rows of every refinement round but the last, round
/// 0's feature rows and the even rounds' hidden rows in one matrix and the
/// odd rounds' in the other; one logit row per class of the last round
/// and its decode, with a 4-byte class row per node; the refinement's two
/// per-node class arrays; and its other arrays, sized by the classes. No
/// matrix of the last round's rows (128 bytes a class row here), no
/// shared-layer output (128 a class row), no logit row per node (32 a
/// node), no refinement key and representative slots per node (34 a node)
/// and no reverse adjacency (over 12 a node) — each of which would take
/// the count past the slack of 16 bytes a node.
#[test]
fn a_lone_group_holds_class_rows_short_of_the_last_round_and_class_logits() {
    let _guard = TEST_LOCK.lock().unwrap();
    let reasoner = GamoraReasoner::new(ReasonerConfig::default());
    let subject = csa_multiplier(32);
    let graph = gamora::dataset::build_graph(&subject.aig, reasoner.config().direction);
    let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
    let (hidden, classes) = (32, 4 + 2 + 2);
    assert!(
        nodes > 4 * 2048,
        "one group, and above the kernels' fork cutoff"
    );
    let (held, rounds) = live_bytes_after(&reasoner, &subject.aig, &[1], 1);
    assert_eq!(rounds.len(), 5, "round 0 and one per layer");
    assert!(
        rounds[4] < nodes / 2,
        "classes {rounds:?} of {nodes} rows: the quotient is smaller"
    );
    // Features; offsets; neighbours; the class row, the decoded class and
    // two flags.
    let inputs_and_outputs = nodes * (12 + 4 + 4 + 6) + edges * 4;
    let logits = rounds[4] * (classes * 4 + 1);
    // Two class arrays a node. For the largest round: the one run's
    // 16-byte keys and representatives, grown by doubling (the run's
    // representatives are the group's); a 4-byte table slot per class at
    // most half full; and the quotient's offset, 1/degree, self row and
    // neighbours.
    let most = rounds.iter().copied().max().expect("a round");
    let refinement = nodes * (4 + 4)
        + (16 + 4) * most.next_power_of_two()
        + 4 * (2 * most).next_power_of_two()
        + 4 * (3 * most + most * edges / nodes);
    let even = (rounds[0] * 3).max(rounds[2] * hidden);
    let odd = rounds[1].max(rounds[3]) * hidden;
    let activations = 4 * (even + odd);
    let expected = inputs_and_outputs + logits + refinement + activations;
    assert!(
        held.abs_diff(expected) <= 16 * nodes,
        "a {nodes}-node subject holds {held} bytes, where two {hidden}-wide \
         matrices of {rounds:?} class rows short of the last round, the \
         refinement, {} {classes}-wide logit rows and the per-node buffers \
         are {expected}",
        rounds[4]
    );
}

/// The reverse adjacency is derived by the first backward pass over a
/// graph and by nothing else: a graph from `build_graph`, from the
/// sectioned builder, and the one a warm `BatchScratch` rebuilt after a
/// backward all hold none, nor inverse degrees (their first backward
/// allocates exactly the reverse graph's bytes and the inverse degrees'),
/// the second backward allocates nothing, and a
/// graph rebuilt in place as a different graph after a backward gives the
/// freshly built graph's backward, bit for bit.
#[test]
fn the_reverse_adjacency_is_derived_by_the_first_backward_only() {
    use gamora::dataset::{assemble_batch_into, build_graph, build_graph_into};
    use gamora::{Direction, FeatureMode};
    use gamora_gnn::{Graph, Matrix};

    /// Bytes and calls the backward of `graph` allocates, and its output.
    fn backward(graph: &Graph) -> (usize, usize, Matrix) {
        let n = graph.num_nodes();
        let grad = Matrix::from_vec(n, 3, (0..3 * n).map(|i| (i % 17) as f32 - 8.0).collect());
        let mut out = Matrix::zeros(n, 3);
        let ((), counts) = counting(|| graph.mean_aggregate_backward_add(&grad, &mut out));
        (counts.live, counts.calls, out)
    }
    /// The reverse adjacency is a boxed `Graph` of its own: offsets and a
    /// neighbour per edge. The first backward over a graph no aggregation
    /// has run over derives its inverse degrees too, one per node.
    fn reverse_bytes(graph: &Graph) -> usize {
        let n = graph.num_nodes();
        std::mem::size_of::<Graph>() + 4 * (n + 1) + 4 * graph.num_edges() + 4 * n
    }

    let _guard = TEST_LOCK.lock().unwrap();
    let prev_cap = gamora_gnn::parallel::intra_threads();
    gamora_gnn::parallel::set_intra_threads(1);
    let (m4, m6) = (csa_multiplier(4).aig, csa_multiplier(6).aig);
    let dir = Direction::Bidirectional;

    let mut batch = gamora::dataset::BatchScratch::default();
    assemble_batch_into(
        &[&m4, &m6],
        FeatureMode::StructuralFunctional,
        dir,
        &mut batch,
    );
    // Warm: the batch's arrays are at capacity, and a backward has run.
    backward(batch.graph());
    assemble_batch_into(
        &[&m4, &m6],
        FeatureMode::StructuralFunctional,
        dir,
        &mut batch,
    );
    for graph in [&build_graph(&m6, dir), batch.graph()] {
        let (bytes, _, first) = backward(graph);
        assert_eq!(bytes, reverse_bytes(graph), "the first backward derives it");
        let (bytes, calls, second) = backward(graph);
        assert_eq!((bytes, calls), (0, 0), "the second reads it");
        assert_eq!(first, second);
    }

    let mut reused = build_graph(&m6, dir);
    backward(&reused);
    build_graph_into(&m4, dir, &mut reused);
    let fresh = build_graph(&m4, dir);
    let (bytes, _, got) = backward(&reused);
    assert_eq!(
        bytes,
        reverse_bytes(&fresh),
        "the rebuild dropped the old one"
    );
    assert_eq!(
        got,
        backward(&fresh).2,
        "and the new one is the fresh graph's"
    );
    gamora_gnn::parallel::set_intra_threads(prev_cap);
}

/// The group-major batch path is as allocation-free as the single-group
/// one: three netlists, three groups, stage times summed over them — with
/// and without an observer, on the serial kernel path.
#[test]
fn several_groups_are_allocation_free_after_warmup_observed_or_not() {
    use gamora::{ForwardObserver, ForwardStage};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Calls(AtomicU64);
    impl ForwardObserver for Calls {
        fn record_stage(&self, _: ForwardStage, _: u64) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let _guard = TEST_LOCK.lock().unwrap();
    let (reasoner, subject) = footprint_subject();
    let small = csa_multiplier(3);
    let aigs: Vec<&Aig> = vec![&subject.aig, &small.aig, &subject.aig, &subject.aig];
    let prev_cap = gamora_gnn::parallel::intra_threads();
    gamora_gnn::parallel::set_intra_threads(1);
    let mut batch = BatchScratch::default();
    let mut scratch = InferenceScratch::default();
    let mut outs: Vec<Predictions> = Vec::new();
    let calls = Calls::default();
    reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, Some(&calls));
    let expected = outs.clone();

    let ((), counts) = counting(|| {
        for _ in 0..4 {
            reasoner.predict_batch_into_timed(&mut batch, &mut scratch, &aigs, &mut outs, None);
            reasoner.predict_batch_into_timed(
                &mut batch,
                &mut scratch,
                &aigs,
                &mut outs,
                Some(&calls),
            );
        }
    });
    gamora_gnn::parallel::set_intra_threads(prev_cap);
    assert_eq!(
        counts.calls, 0,
        "warm group-major batches must not allocate"
    );
    assert_eq!(outs, expected);
    for (out, aig) in outs.iter().zip(&aigs) {
        assert_eq!(
            *out,
            reasoner.predict(aig),
            "decoded at the netlist's own rows"
        );
    }
    // One sample per stage per batch, however many groups it had: 5
    // observed batches x (4 trunk layers + shared + heads).
    assert_eq!(calls.0.load(Ordering::Relaxed), 5 * 6);
}

/// Training touches the heap only while its buffers grow: after one step
/// per graph size (the first epoch), a further epoch over the shallow
/// recipe's six graphs — forward into the tape, loss, backward through
/// the kernel's sequential sweep, Adam — allocates nothing, although every
/// buffer is reshaped from graph to graph.
#[test]
fn a_training_epoch_is_allocation_free_after_one_step_per_graph_size() {
    use gamora::dataset::labelled_graph;
    use gamora::{Direction, FeatureMode};
    use gamora_gnn::{GraphData, ModelConfig, MultiTaskSage, Trainer};

    let _guard = TEST_LOCK.lock().unwrap();
    let data: Vec<GraphData> = (3..=8)
        .map(|bits| {
            let aig = csa_multiplier(bits).aig;
            let mode = FeatureMode::StructuralFunctional;
            labelled_graph(&aig, mode, Direction::Bidirectional).0
        })
        .collect();
    let mut model = MultiTaskSage::new(ModelConfig {
        in_dim: 3,
        hidden: 32,
        layers: 4,
        shared_dim: 32,
        task_classes: vec![4, 2, 2],
        seed: 0x6A3017A,
    });
    let mut trainer = Trainer::new(&TrainConfig::default());
    let warm_up = trainer.epoch(&mut model, &data);

    let (loss, counts) = counting(|| trainer.epoch(&mut model, &data));
    assert_eq!(
        counts.calls, 0,
        "a steady-state training epoch must not allocate"
    );
    assert!(loss.is_finite() && loss < warm_up, "{warm_up} -> {loss}");
}
