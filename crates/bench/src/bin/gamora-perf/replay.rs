//! The replay half of a traced run: one thread, no server.
//!
//! The head of the workload's job list goes through the layers' public
//! functions in the order the serve worker calls them (signature, cache
//! probe/resolve, the batched predict, cache insert, extraction), in groups of the workload's `max_batch`, with a span around
//! every call. Then the two `gnn` kernels run alone on the workload's own
//! graph and hidden width, the exact comparator runs on each distinct
//! subject, and the model goes through a snapshot file.

use crate::loadgen::Prepared;
use crate::sut::{
    self, Aig, BatchScratch, ForwardObserver, ForwardStage, Graph, InferenceScratch, Matrix,
    Predictions, SageScratch,
};
use crate::trace::{Tracer, Work, NO_PARENT};
use crate::workloads::{self, Payload, Spec};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What the replay measured beyond its spans.
pub struct Replay {
    /// Jobs of the list that went through the layers.
    pub jobs: usize,
    /// Spans up to here belong to the serve-path replay; the kernel,
    /// comparator and snapshot spans follow.
    pub serve_path_spans: usize,
    /// Jobs answered by probe + resolve or coalesced within their group.
    pub hit_share: f64,
    /// Median microseconds of snapshot save, owned load and mmap load.
    pub snapshot_us: [f64; 3],
    /// Hidden width the kernel calls ran at.
    pub hidden: usize,
}

/// Collects the forward pass's stage reports with the time they arrived.
struct StageLog(RefCell<Vec<(ForwardStage, u64, Instant)>>);

impl ForwardObserver for StageLog {
    fn record_stage(&self, stage: ForwardStage, micros: u64) {
        self.0.borrow_mut().push((stage, micros, Instant::now()));
    }
}

fn stage_name(stage: ForwardStage) -> &'static str {
    match stage {
        ForwardStage::Sage(0) => "gnn.sage0",
        ForwardStage::Sage(_) => "gnn.sage_rest",
        ForwardStage::Shared => "gnn.shared",
        ForwardStage::Heads => "gnn.heads",
    }
}

/// Reusable buffers of the miss path, as a serve worker holds them.
#[derive(Default)]
struct Worker {
    batch: BatchScratch,
    scratch: InferenceScratch,
    outs: Vec<Predictions>,
    features: Matrix,
    graph: Graph,
}

impl Worker {
    /// The worker's one model call over `aigs`, as a span under `parent`.
    /// Assembly and the forward pass become child spans as long as the
    /// reasoner itself measured them, so the call's self time is decode +
    /// split; the forward stages are stamped as the observer hears of them.
    fn run_model(
        &mut self,
        prepared: &Prepared,
        tracer: &mut Tracer,
        parent: u32,
        job: u32,
        aigs: &[&Aig],
    ) {
        let log = StageLog(RefCell::new(Vec::new()));
        let call = tracer.open("core.predict_batch", parent, job);
        let started = tracer.now();
        let (assemble_us, forward_us) = sut::predict_batch(
            &prepared.model,
            &mut self.batch,
            &mut self.scratch,
            aigs,
            &mut self.outs,
            Some(&log),
        );
        let nodes = self.batch.graph().num_nodes() as u64;
        let work = Work {
            nodes,
            edges: self.batch.graph().num_edges() as u64,
            rows: nodes,
            bytes: 0,
        };
        tracer.close(call, work);
        let assembled = started + assemble_us * 1000;
        tracer.record("core.assemble", call, job, started, assembled, work);
        let forward = tracer.record(
            "gnn.forward",
            call,
            job,
            assembled,
            assembled + forward_us * 1000,
            work,
        );
        for (stage, micros, at) in log.0.into_inner() {
            let end = tracer.at(at);
            let start = end.saturating_sub(micros * 1000);
            tracer.record(stage_name(stage), forward, job, start, end, work);
        }
    }
}

pub fn run(
    spec: &Spec,
    prepared: &Prepared,
    tracer: &mut Tracer,
    out_dir: &Path,
    smoke: bool,
) -> Replay {
    sut::set_intra_threads(1);
    let corpus = &prepared.corpus;
    let model = &*prepared.model;
    let jobs = if smoke {
        (spec.replay_jobs / 50).max(2 * spec.max_batch)
    } else {
        spec.replay_jobs
    };
    let mut cache = (spec.cache_capacity > 0).then(|| sut::cache_new(spec.cache_capacity));
    let mut worker = Worker::default();
    let mut hits = 0usize;
    let positions: Vec<usize> = (0..jobs).collect();
    for group in positions.chunks(spec.max_batch) {
        let job = group[0] as u32;
        let root = tracer.open("replay.group", NO_PARENT, job);
        let aigs: Vec<Aig> = group
            .iter()
            .map(|&pos| match &corpus.payloads[corpus.jobs[pos] as usize] {
                Payload::Graph(aig) => aig.clone(),
                Payload::Aiger(bytes) => {
                    let work = Work {
                        bytes: bytes.len() as u64,
                        nodes: corpus.nodes[corpus.jobs[pos] as usize],
                        ..Work::default()
                    };
                    tracer.span("aig.aiger_read", root, pos as u32, work, || {
                        sut::aiger_read(bytes)
                    })
                }
            })
            .collect();
        let mut answers: Vec<Option<Predictions>> = vec![None; aigs.len()];
        let mut signatures = Vec::new();
        if let Some(cache) = cache.as_mut() {
            for (k, aig) in aigs.iter().enumerate() {
                let (pos, work) = (group[k] as u32, Work::nodes(aig.num_nodes()));
                let sig = tracer.span("serve.signature", root, pos, work, || sut::signature(aig));
                // The hash pass inside the signature, timed on its own.
                tracer.span("aig.node_hashes", root, pos, work, || sut::node_hashes(aig));
                let entry = tracer.span("serve.cache_probe", root, pos, work, || {
                    sut::cache_probe(cache, &sig)
                });
                if let Some(entry) = entry {
                    answers[k] = tracer.span("serve.cache_resolve", root, pos, work, || {
                        sut::cache_resolve(&entry, &sig)
                    });
                }
                signatures.push(sig);
            }
        }
        hits += answers.iter().filter(|a| a.is_some()).count();
        // Misses with equal fingerprint and numbering share one forward slot.
        let mut slots: Vec<usize> = Vec::new();
        let mut slot_of: BTreeMap<usize, usize> = BTreeMap::new();
        for k in (0..aigs.len()).filter(|&k| answers[k].is_none()) {
            let same = |&s: &usize| {
                signatures.get(s).is_some_and(|a| {
                    let b = &signatures[k];
                    a.key == b.key && a.identity == b.identity
                })
            };
            match slots.iter().position(same) {
                Some(slot) => {
                    hits += 1;
                    slot_of.insert(k, slot);
                }
                None => {
                    slot_of.insert(k, slots.len());
                    slots.push(k);
                }
            }
        }
        if !slots.is_empty() {
            let refs: Vec<&Aig> = slots.iter().map(|&k| &aigs[k]).collect();
            worker.run_model(prepared, tracer, root, job, &refs);
            for aig in &refs {
                // The two halves of assembly, timed on their own.
                let work = Work::nodes(aig.num_nodes());
                tracer.span("core.features", root, job, work, || {
                    sut::build_features(model, aig, &mut worker.features)
                });
                tracer.span("core.graph_build", root, job, work, || {
                    sut::build_graph(model, aig, &mut worker.graph)
                });
            }
            if let Some(cache) = cache.as_mut() {
                for (slot, &k) in slots.iter().enumerate() {
                    let work = Work::nodes(aigs[k].num_nodes());
                    tracer.span("serve.cache_insert", root, group[k] as u32, work, || {
                        sut::cache_insert(cache, &signatures[k], worker.outs[slot].clone())
                    });
                }
            }
            for (&k, &slot) in &slot_of {
                answers[k] = Some(worker.outs[slot].clone());
            }
        }
        if spec.kind == sut::AnalysisKind::ExtractAdders {
            for (k, aig) in aigs.iter().enumerate() {
                let (pos, work) = (group[k] as u32, Work::nodes(aig.num_nodes()));
                let preds = answers[k].as_ref().expect("every job resolved");
                let mut adders =
                    tracer.span("core.extract", root, pos, work, || sut::extract(aig, preds));
                tracer.span("core.lsb_correction", root, pos, work, || {
                    sut::lsb_correction(aig, &mut adders)
                });
            }
        }
        tracer.close(root, Work::default());
    }

    let serve_path_spans = tracer.spans().len();
    let hidden = sut::hidden_width(workloads::recipe(spec, smoke).depth);
    kernels(spec, prepared, tracer, &mut worker, hidden);
    comparator(prepared, tracer, &mut worker);
    Replay {
        jobs,
        serve_path_spans,
        hit_share: hits as f64 / jobs as f64,
        snapshot_us: snapshot(
            prepared,
            tracer,
            &out_dir.join(format!("{}.gsnap", spec.name)),
        ),
        hidden,
    }
}

/// The two `gnn` kernels alone, on the first group's merged graph.
fn kernels(
    spec: &Spec,
    prepared: &Prepared,
    tracer: &mut Tracer,
    worker: &mut Worker,
    hidden: usize,
) {
    let corpus = &prepared.corpus;
    let aigs: Vec<Aig> = (0..spec.max_batch)
        .map(|pos| corpus.payloads[corpus.jobs[pos] as usize].materialize())
        .collect();
    let refs: Vec<&Aig> = aigs.iter().collect();
    sut::predict_batch(
        &prepared.model,
        &mut worker.batch,
        &mut worker.scratch,
        &refs,
        &mut worker.outs,
        None,
    );
    let graph = worker.batch.graph();
    let (rows, edges) = (graph.num_nodes(), graph.num_edges());
    let h = Matrix::from_vec(
        rows,
        hidden,
        (0..rows * hidden)
            .map(|i| (i % 17) as f32 * 0.125 - 1.0)
            .collect(),
    );
    let layer = sut::sage_layer(hidden);
    let (mut out, mut ws) = (Matrix::default(), SageScratch::default());
    // Computed, not measured: feature rows read per edge, rows written, and
    // the CSR arrays (u32 neighbour per edge, u32 offset + f32 1/deg per row).
    let bytes = (edges * hidden * 4 + rows * hidden * 4 + edges * 4 + rows * 8) as u64;
    let work = Work {
        nodes: rows as u64,
        edges: edges as u64,
        rows: rows as u64,
        bytes,
    };
    sut::mean_aggregate(graph, &h, &mut out);
    let once = Instant::now();
    sut::sage_forward(&layer, graph, &h, &mut ws, &mut out);
    let reps = (0.15 / once.elapsed().as_secs_f64().max(1e-6)).clamp(1.0, 200.0) as usize;
    for rep in 0..reps as u32 {
        tracer.span("gnn.mean_aggregate", NO_PARENT, rep, work, || {
            sut::mean_aggregate(graph, &h, &mut out)
        });
        tracer.span("gnn.sage_layer", NO_PARENT, rep, work, || {
            sut::sage_forward(&layer, graph, &h, &mut ws, &mut out)
        });
    }
    // The whole model call on the same group, serial against two kernel
    // threads, four times each (the fastest of each counts): no served
    // workload depends on both cores being free at once (see README, host
    // noise), so the row-block-parallel path is timed here.
    for (name, threads) in [("replay.model_1_thread", 1), ("replay.model_2_threads", 2)] {
        sut::set_intra_threads(threads);
        for rep in 0..4 {
            tracer.span(name, NO_PARENT, rep, work, || {
                sut::predict_batch(
                    &prepared.model,
                    &mut worker.batch,
                    &mut worker.scratch,
                    &refs,
                    &mut worker.outs,
                    None,
                )
            });
        }
    }
    sut::set_intra_threads(1);
}

/// The exact comparator against assemble + predict on each distinct subject.
fn comparator(prepared: &Prepared, tracer: &mut Tracer, worker: &mut Worker) {
    let corpus = &prepared.corpus;
    for (k, &position) in corpus.distinct.iter().enumerate() {
        let aig = corpus.payloads[corpus.warm[position] as usize].materialize();
        let work = Work::nodes(aig.num_nodes());
        tracer.span("exact.analyze", NO_PARENT, k as u32, work, || {
            sut::exact_analyze(&aig)
        });
        let id = tracer.open("replay.reasoner_alone", NO_PARENT, k as u32);
        worker.run_model(prepared, tracer, id, k as u32, &[&aig]);
        tracer.close(id, work);
    }
}

/// Save, owned load and mmap load through a temporary file, three times each.
fn snapshot(prepared: &Prepared, tracer: &mut Tracer, path: &Path) -> [f64; 3] {
    let mut us = [Vec::new(), Vec::new(), Vec::new()];
    for rep in 0..3u32 {
        let calls: [(&'static str, &dyn Fn()); 3] = [
            ("core.snapshot_save", &|| sut::save(&prepared.model, path)),
            ("core.snapshot_load", &|| drop(sut::load(path))),
            ("core.snapshot_load_mmap", &|| drop(sut::load_mmap(path))),
        ];
        for (k, (name, call)) in calls.into_iter().enumerate() {
            let start = tracer.now();
            call();
            let end = tracer.now();
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let work = Work {
                bytes,
                ..Work::default()
            };
            tracer.record(name, NO_PARENT, rep, start, end, work);
            us[k].push((end - start) as f64 / 1e3);
        }
    }
    let _ = std::fs::remove_file(path);
    us.map(|v| crate::stats::median(&v))
}
