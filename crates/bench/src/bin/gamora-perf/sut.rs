//! The one door between the benchmark and the system under test.
//!
//! Every call into a workspace crate goes through a function (or a type
//! re-export) in this file, grouped by layer. An API-collapsing PR can read
//! here exactly which public items the benchmark pins; a later benchmark PR
//! re-points them in one place.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

pub use gamora::{
    BatchScratch, ForwardObserver, ForwardStage, GamoraReasoner, InferenceScratch, ModelDepth,
    Predictions,
};
pub use gamora_aig::{Aig, Lit, NodeId};
pub use gamora_bench::PeakAlloc;
pub use gamora_circuits::MultiplierKind;
pub use gamora_exact::{Analysis, ExtractedAdder};
pub use gamora_gnn::{Graph, Matrix, SageLayer, SageScratch};
pub use gamora_serve::{
    AnalysisKind, CacheEntry, GraphSignature, JobOutput, JobTicket, Json, PredictionCache,
    ServeConfig, ServeStats, Server,
};
pub use gamora_techmap::Library;

// ---------------------------------------------------------------- aig

/// SplitMix64 finaliser (the benchmark's PRNG is built on it).
pub fn mix64(z: u64) -> u64 {
    gamora_aig::hasher::mix64(z)
}

/// Parses binary or ASCII AIGER bytes.
pub fn aiger_read(bytes: &[u8]) -> Aig {
    gamora_aig::aiger::read(Cursor::new(bytes)).expect("benchmark-generated AIGER parses")
}

/// Encodes an AIG as binary AIGER.
pub fn aiger_write(aig: &Aig) -> Vec<u8> {
    let mut bytes = Vec::new();
    gamora_aig::aiger::write_binary(aig, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// Canonical per-node structural hashes (serial pass).
pub fn node_hashes(aig: &Aig) -> Vec<u64> {
    gamora_aig::hasher::structural_node_hashes(aig)
}

// ----------------------------------------------------- circuits, techmap

/// Generates a multiplier netlist.
pub fn multiplier(kind: MultiplierKind, bits: usize) -> Aig {
    gamora_circuits::generate_multiplier(kind, bits).aig
}

/// Technology-maps an AIG and flattens the mapped netlist back to an AIG.
pub fn techmap(aig: &Aig, library: &Library) -> Aig {
    gamora_techmap::map(aig, library, &gamora_techmap::MapParams::default()).to_aig()
}

// ---------------------------------------------------------------- gnn

/// Caps kernel parallelism of the calling thread.
pub fn set_intra_threads(limit: usize) {
    gamora_gnn::parallel::set_intra_threads(limit);
}

/// The mean-aggregation kernel.
pub fn mean_aggregate(graph: &Graph, h: &Matrix, out: &mut Matrix) {
    graph.mean_aggregate_into(h, out);
}

/// A zero-weight `hidden -> hidden` SAGE layer (kernel time does not depend
/// on weight values).
pub fn sage_layer(hidden: usize) -> SageLayer {
    SageLayer::new_zeroed(hidden, hidden)
}

/// One SAGE convolution: aggregation plus the fused GEMM.
pub fn sage_forward(
    layer: &SageLayer,
    graph: &Graph,
    h: &Matrix,
    ws: &mut SageScratch,
    out: &mut Matrix,
) {
    layer.forward_into(graph, h, ws, out);
}

// --------------------------------------------------------------- core

/// Trains a fresh reasoner of the given depth on `train`.
pub fn fit(depth: ModelDepth, train: &[&Aig], epochs: usize) -> GamoraReasoner {
    let mut reasoner = GamoraReasoner::new(gamora::ReasonerConfig {
        depth,
        ..gamora::ReasonerConfig::default()
    });
    reasoner.fit(
        train,
        &gamora::TrainConfig {
            epochs,
            ..gamora::TrainConfig::default()
        },
    );
    reasoner
}

/// Hidden width of a depth preset.
pub fn hidden_width(depth: ModelDepth) -> usize {
    match depth {
        ModelDepth::Shallow => 32,
        ModelDepth::Deep => 80,
        ModelDepth::Custom { hidden, .. } => hidden,
    }
}

/// The plain, unbatched, uncached prediction every served answer is
/// compared with.
pub fn predict(model: &GamoraReasoner, aig: &Aig) -> Predictions {
    model.predict(aig)
}

/// Feature encoding of one AIG.
pub fn build_features(model: &GamoraReasoner, aig: &Aig, x: &mut Matrix) {
    gamora::features::build_features_into(aig, model.config().feature_mode, x);
}

/// CSR graph of one AIG.
pub fn build_graph(model: &GamoraReasoner, aig: &Aig, graph: &mut Graph) {
    gamora::dataset::build_graph_into(aig, model.config().direction, graph);
}

/// The miss path as a serve worker runs it at `cone_capacity 0`: batch
/// assembly, forward pass, decode + split in one call. Returns the
/// reasoner's own `(assemble, forward)` microseconds.
pub fn predict_batch(
    model: &GamoraReasoner,
    batch: &mut BatchScratch,
    scratch: &mut InferenceScratch,
    aigs: &[&Aig],
    outs: &mut Vec<Predictions>,
    observer: Option<&dyn ForwardObserver>,
) -> (u64, u64) {
    let t = model.predict_batch_into_timed(batch, scratch, aigs, outs, observer);
    (t.assemble_micros, t.forward_micros)
}

/// Adder extraction from predictions.
pub fn extract(aig: &Aig, preds: &Predictions) -> Vec<ExtractedAdder> {
    gamora::extract_from_predictions(aig, preds)
}

/// The LSB half-adder post-processing fix.
pub fn lsb_correction(aig: &Aig, adders: &mut Vec<ExtractedAdder>) {
    gamora::lsb_correction(aig, adders);
}

/// Correct predictions per task (root/leaf, XOR, MAJ) and the node count.
pub fn score(preds: &Predictions, truth: &Analysis) -> ([f64; 3], usize) {
    let report = gamora::score_predictions(preds, &truth.labels);
    (report.task_accuracy, report.num_nodes)
}

/// Snapshot write.
pub fn save(model: &GamoraReasoner, path: &Path) {
    model.save(path).expect("snapshot save");
}

/// Snapshot read into owned weights.
pub fn load(path: &Path) -> GamoraReasoner {
    GamoraReasoner::load(path).expect("snapshot load")
}

/// Snapshot read borrowing weights from a mapping.
pub fn load_mmap(path: &Path) -> GamoraReasoner {
    GamoraReasoner::load_mmap(path)
        .expect("snapshot mmap load")
        .0
}

// -------------------------------------------------------------- exact

/// The exact-reasoning comparator (and ground truth).
pub fn exact_analyze(aig: &Aig) -> Analysis {
    gamora_exact::analyze(aig)
}

/// `(recovered, total)` exact adders present in `adders`.
pub fn adders_recovered(adders: &[ExtractedAdder], truth: &Analysis) -> (usize, usize) {
    let cmp =
        gamora_exact::compare_with_reference(adders, truth.adders.iter().map(|a| (a.sum, a.carry)));
    (cmp.matched, cmp.matched + cmp.missing)
}

// -------------------------------------------------------------- serve

/// Structural signature of a submission.
pub fn signature(aig: &Aig) -> GraphSignature {
    GraphSignature::of(aig)
}

/// An empty prediction cache.
pub fn cache_new(capacity: usize) -> PredictionCache {
    PredictionCache::new(capacity)
}

/// O(1) LRU probe.
pub fn cache_probe(cache: &mut PredictionCache, sig: &GraphSignature) -> Option<Arc<CacheEntry>> {
    cache.probe(&sig.key)
}

/// Verbatim or isomorph-transfer resolution of a probed entry.
pub fn cache_resolve(entry: &CacheEntry, sig: &GraphSignature) -> Option<Predictions> {
    entry.resolve(sig).map(|(preds, _)| preds)
}

/// Entry construction plus LRU insertion (evicts when full).
pub fn cache_insert(cache: &mut PredictionCache, sig: &GraphSignature, preds: Predictions) {
    cache.insert_entry(sig.key, Arc::new(CacheEntry::new(sig, preds)));
}

/// Starts a server over a shared model.
pub fn server_start(model: &Arc<GamoraReasoner>, config: ServeConfig) -> Server {
    Server::start_shared(Arc::clone(model), config)
}

/// Blocking submit; `None` when the server refuses the job.
pub fn submit(server: &Server, aig: Aig, kind: AnalysisKind) -> Option<JobTicket> {
    server.submit(aig, kind).ok()
}

/// Waits for a job; `None` on any `ServeError`.
pub fn wait(ticket: JobTicket) -> Option<JobOutput> {
    ticket.wait().ok()
}

/// Drains and stops a server.
pub fn shutdown(server: Server) -> ServeStats {
    server.shutdown()
}

/// The serve counters as the `gamora` binary reports them.
pub fn stats_json(stats: &ServeStats) -> Json {
    gamora_serve::report::serve_stats_json(stats)
}

/// One histogram of a metrics snapshot, reduced to what the benchmark uses.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
}

/// A point-in-time reader over `Server::metrics()`: a histogram by name
/// (`None` once the name no longer exists) and a counter by name (0 then).
pub fn metrics_reader(server: &Server) -> impl Fn(&str) -> (Option<Hist>, u64) {
    let snapshot = server.metrics();
    move |name| {
        let hist = snapshot.histogram(name).map(|h| Hist {
            count: h.count(),
            sum: h.sum,
        });
        (hist, snapshot.counter(name))
    }
}
