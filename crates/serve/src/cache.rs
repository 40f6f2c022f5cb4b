//! Structural-hash prediction cache: an LRU map from canonical AIG
//! fingerprints to served predictions.
//!
//! The key is the whole-graph canonical hash of
//! [`gamora_aig::hasher::structural_fingerprint`] plus the node/input/AND
//! counts, so repeated — and isomorphic, renumbered — submissions of a
//! netlist skip the GNN forward pass entirely.
//!
//! Serving is two-tier:
//!
//! 1. **verbatim** — if the submission's order-sensitive
//!    [`identity_fingerprint`](gamora_aig::hasher::identity_fingerprint)
//!    matches the cached entry, the stored per-node prediction vectors are
//!    returned unchanged: bit-exact reproduction of the original forward
//!    pass (the common repeated-netlist case);
//! 2. **transfer** — otherwise the entry's predictions are re-indexed
//!    through canonical per-node hashes onto the submission's numbering.
//!    Transfer is refused (an honest miss) if the cached graph contains
//!    duplicate canonical node hashes — with fanout-sensitive message
//!    passing, structurally identical cones can still predict differently
//!    — or if any submission hash cannot be resolved (a genuine
//!    fingerprint collision).
//!
//! Eviction is true LRU in O(1) via an index-linked list over a slab.
//!
//! **Lock discipline.** The scheduler keeps the cache behind a mutex, so
//! everything O(nodes) is kept *out* of the cache's own methods'
//! contended section: [`PredictionCache::probe`] is an O(1) map probe +
//! LRU touch that hands back an [`Arc<CacheEntry>`]; the O(nodes)
//! verbatim clone or transfer re-indexing then runs through
//! [`CacheEntry::resolve`] on the caller's thread with no lock held.
//! Symmetrically, [`CacheEntry::new`] builds the O(nodes) hash index
//! outside the lock and [`PredictionCache::insert_entry`] links it in
//! O(1).

use gamora::Predictions;
use gamora_aig::hasher::{
    fingerprint_from_node_hashes, identity_fingerprint, structural_node_hashes_parallel, FxHashMap,
};
use gamora_aig::Aig;
use gamora_obs::{Counter, Histogram, Registry, StageTimer};
use std::sync::Arc;

/// Per-tier cache observability: probe/resolve latency histograms plus
/// verbatim/transfer hit and miss counters. The handles are `Arc`s into a
/// [`Registry`]; recording is wait-free and allocation-free, so the timed
/// helpers ([`PredictionCache::probe_timed`],
/// [`CacheEntry::resolve_timed`]) are safe both under the scheduler's
/// cache mutex (probe) and on the lock-free resolve path.
pub struct CacheMetrics {
    /// O(1) LRU probe latency (under the cache lock).
    pub probe_micros: Arc<Histogram>,
    /// O(nodes) verbatim-clone / transfer-reindex latency (no lock held).
    pub resolve_micros: Arc<Histogram>,
    /// Resolutions served bit-exactly from the stored vectors.
    pub hits_verbatim: Arc<Counter>,
    /// Resolutions transferred onto a renumbered isomorph.
    pub hits_transferred: Arc<Counter>,
    /// Probes that found no entry for the key.
    pub probe_misses: Arc<Counter>,
    /// Probed entries that refused to resolve (duplicate cones or a
    /// genuine fingerprint collision) — honest misses.
    pub resolve_misses: Arc<Counter>,
}

impl CacheMetrics {
    /// Registers the cache metrics in `reg` under `cache_*` names.
    pub fn register(reg: &mut Registry) -> CacheMetrics {
        CacheMetrics {
            probe_micros: reg.histogram("cache_probe_micros"),
            resolve_micros: reg.histogram("cache_resolve_micros"),
            hits_verbatim: reg.counter("cache_hits_verbatim_total"),
            hits_transferred: reg.counter("cache_hits_transferred_total"),
            probe_misses: reg.counter("cache_probe_misses_total"),
            resolve_misses: reg.counter("cache_resolve_misses_total"),
        }
    }
}

/// Cache key: canonical fingerprint qualified by coarse shape counts.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Whole-graph canonical structural hash.
    pub fingerprint: u64,
    /// Total node count (collision guard and prediction-length check).
    pub num_nodes: usize,
    /// Primary-input count.
    pub num_inputs: usize,
    /// AND-gate count.
    pub num_ands: usize,
}

/// Everything the cache needs to know about one submission, computed in a
/// single O(nodes) pass.
#[derive(Clone, Debug)]
pub struct GraphSignature {
    /// The LRU key.
    pub key: CacheKey,
    /// Order-sensitive exact hash (verbatim-serve test).
    pub identity: u64,
    /// Canonical per-node hashes (transfer-serve index).
    pub node_hashes: Vec<u64>,
}

impl GraphSignature {
    /// Computes the signature of an AIG.
    ///
    /// The per-node hash pass runs as a levelized wavefront over scoped
    /// threads for large subjects, under the caller's `intra_threads`
    /// budget (`gamora_gnn::parallel::num_threads()` reads the worker's
    /// thread-local allowance) — bit-identical to the serial pass, so
    /// fingerprints computed on admission threads, worker threads and in
    /// tests always agree.
    pub fn of(aig: &Aig) -> GraphSignature {
        let node_hashes = structural_node_hashes_parallel(aig, gamora_gnn::parallel::num_threads());
        GraphSignature {
            key: CacheKey {
                fingerprint: fingerprint_from_node_hashes(aig, &node_hashes),
                num_nodes: aig.num_nodes(),
                num_inputs: aig.num_inputs(),
                num_ands: aig.num_ands(),
            },
            identity: identity_fingerprint(aig),
            node_hashes,
        }
    }
}

/// How a cache hit was produced.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HitKind {
    /// Identical numbering: stored vectors served unchanged.
    Verbatim,
    /// Isomorphic renumbering: predictions transferred through canonical
    /// node hashes.
    Transferred,
}

/// One cached graph's immutable serving payload. Shared out of the cache
/// by `Arc` so the expensive resolution work ([`CacheEntry::resolve`])
/// runs with no cache lock held.
pub struct CacheEntry {
    identity: u64,
    predictions: Predictions,
    /// Canonical node hash -> (root_leaf, is_xor, is_maj), valid only when
    /// `hashes_unique`: with duplicate intra-graph hashes (unstrashed
    /// duplicate cones) a node's prediction is *not* determined by its
    /// fanin cone — the bidirectional GNN also sees fanout context — so
    /// transfer-serving would guess. We refuse instead (transfer miss).
    by_hash: FxHashMap<u64, (u32, bool, bool)>,
    /// Whether every node of the cached graph has a distinct canonical
    /// hash (precondition for sound transfer serving).
    hashes_unique: bool,
}

impl CacheEntry {
    /// Builds the serving payload — including the O(nodes) canonical-hash
    /// index — for one signature/prediction pair. Call *outside* any
    /// cache lock.
    ///
    /// # Panics
    ///
    /// Panics if the prediction length disagrees with the signature's node
    /// count.
    pub fn new(sig: &GraphSignature, predictions: Predictions) -> CacheEntry {
        assert_eq!(
            predictions.num_nodes(),
            sig.key.num_nodes,
            "predictions must cover every node"
        );
        let mut by_hash = FxHashMap::default();
        let mut hashes_unique = true;
        for (i, &h) in sig.node_hashes.iter().enumerate() {
            if by_hash
                .insert(
                    h,
                    (
                        predictions.root_leaf[i],
                        predictions.is_xor[i],
                        predictions.is_maj[i],
                    ),
                )
                .is_some()
            {
                hashes_unique = false;
            }
        }
        CacheEntry {
            identity: sig.identity,
            predictions,
            by_hash,
            hashes_unique,
        }
    }

    /// Serves a submission from this entry: verbatim when the identity
    /// hash matches, otherwise transferred through canonical node hashes.
    /// `None` is an honest miss (duplicate cones, or a genuine
    /// fingerprint collision). O(nodes) — run it with no lock held.
    pub fn resolve(&self, sig: &GraphSignature) -> Option<(Predictions, HitKind)> {
        if self.identity == sig.identity {
            return Some((self.predictions.clone(), HitKind::Verbatim));
        }
        self.transfer(sig).map(|p| (p, HitKind::Transferred))
    }

    /// [`CacheEntry::resolve`] with tier accounting: records the resolve
    /// latency and bumps the verbatim/transferred hit counter (or the
    /// resolve-miss counter on an honest refusal).
    pub fn resolve_timed(
        &self,
        sig: &GraphSignature,
        metrics: &CacheMetrics,
    ) -> Option<(Predictions, HitKind)> {
        let timer = StageTimer::start();
        let resolved = self.resolve(sig);
        timer.observe(&metrics.resolve_micros);
        match &resolved {
            Some((_, HitKind::Verbatim)) => metrics.hits_verbatim.inc(),
            Some((_, HitKind::Transferred)) => metrics.hits_transferred.inc(),
            None => metrics.resolve_misses.inc(),
        }
        resolved
    }

    fn transfer(&self, sig: &GraphSignature) -> Option<Predictions> {
        // Duplicate canonical hashes in the cached graph mean per-node
        // predictions are not a function of the canonical hash (fanout
        // context differs); refuse to guess.
        if !self.hashes_unique {
            return None;
        }
        let n = sig.node_hashes.len();
        let mut preds = Predictions {
            root_leaf: Vec::with_capacity(n),
            is_xor: Vec::with_capacity(n),
            is_maj: Vec::with_capacity(n),
        };
        for h in &sig.node_hashes {
            let &(rl, xor, maj) = self.by_hash.get(h)?;
            preds.root_leaf.push(rl);
            preds.is_xor.push(xor);
            preds.is_maj.push(maj);
        }
        Some(preds)
    }
}

struct Slot {
    key: CacheKey,
    entry: Arc<CacheEntry>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// An LRU-bounded map from structural fingerprints to predictions.
pub struct PredictionCache {
    capacity: usize,
    map: FxHashMap<CacheKey, usize>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` graphs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PredictionCache {
        assert!(capacity > 0, "cache capacity must be positive");
        PredictionCache {
            capacity,
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached graphs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// O(1) probe: finds the entry for a key and marks it most recently
    /// used. The returned `Arc` lets the caller run the O(nodes)
    /// [`CacheEntry::resolve`] *after* releasing whatever lock guards the
    /// cache. A probe that later fails to resolve (honest transfer miss)
    /// has still touched the LRU — harmless, the entry was the best
    /// candidate we had.
    pub fn probe(&mut self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let &idx = self.map.get(key)?;
        self.detach(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.slab[idx].entry))
    }

    /// [`PredictionCache::probe`] with probe-latency and probe-miss
    /// accounting. Recording is a few relaxed atomics, so calling this
    /// under the scheduler's cache mutex does not widen the critical
    /// section meaningfully.
    pub fn probe_timed(
        &mut self,
        key: &CacheKey,
        metrics: &CacheMetrics,
    ) -> Option<Arc<CacheEntry>> {
        let timer = StageTimer::start();
        let entry = self.probe(key);
        timer.observe(&metrics.probe_micros);
        if entry.is_none() {
            metrics.probe_misses.inc();
        }
        entry
    }

    /// O(1) insert (or refresh) of a pre-built entry. Build the entry
    /// with [`CacheEntry::new`] *outside* the cache lock.
    pub fn insert_entry(&mut self, key: CacheKey, entry: Arc<CacheEntry>) {
        if let Some(&idx) = self.map.get(&key) {
            // Refresh in place (e.g. re-inserted after a transfer miss).
            self.detach(idx);
            self.slab[idx].entry = entry;
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.detach(lru);
            self.map.remove(&self.slab[lru].key);
            self.free.push(lru);
        }
        let slot = Slot {
            key,
            entry,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(free) => {
                self.slab[free] = slot;
                free
            }
            None => {
                self.slab.push(slot);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_aig::aiger;

    fn toy_aig(outputs_complemented: bool) -> Aig {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s.complement_if(outputs_complemented));
        aig.add_output(c);
        aig
    }

    /// Probe + resolve in one call, as a single-owner caller would.
    fn lookup(cache: &mut PredictionCache, sig: &GraphSignature) -> Option<(Predictions, HitKind)> {
        cache.probe(&sig.key).and_then(|e| e.resolve(sig))
    }

    fn insert(cache: &mut PredictionCache, sig: &GraphSignature, predictions: Predictions) {
        cache.insert_entry(sig.key, Arc::new(CacheEntry::new(sig, predictions)));
    }

    fn toy_predictions(aig: &Aig) -> Predictions {
        let n = aig.num_nodes();
        Predictions {
            root_leaf: (0..n as u32).map(|i| i % 4).collect(),
            is_xor: (0..n).map(|i| i % 2 == 0).collect(),
            is_maj: (0..n).map(|i| i % 3 == 0).collect(),
        }
    }

    #[test]
    fn repeated_submission_hits_verbatim() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(4);
        assert!(lookup(&mut cache, &sig).is_none());
        let preds = toy_predictions(&aig);
        insert(&mut cache, &sig, preds.clone());

        let resub = GraphSignature::of(&toy_aig(false));
        let (served, kind) = lookup(&mut cache, &resub).expect("hit");
        assert_eq!(kind, HitKind::Verbatim);
        assert_eq!(served.root_leaf, preds.root_leaf);
        assert_eq!(served.is_xor, preds.is_xor);
    }

    /// Resolving on a detached `Arc` (no cache access needed — the
    /// pattern the locked scheduler uses) serves what the inline `lookup`
    /// helper serves.
    #[test]
    fn probe_then_resolve_matches_lookup() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(4);
        assert!(cache.probe(&sig.key).is_none(), "empty cache: no entry");
        insert(&mut cache, &sig, toy_predictions(&aig));

        let inline = lookup(&mut cache, &sig).expect("inline hit");
        let entry = cache.probe(&sig.key).expect("probe finds the entry");
        // Resolution happens entirely on the Arc — drop the cache first to
        // prove no further cache access is involved.
        drop(cache);
        let detached = entry.resolve(&sig).expect("verbatim resolve");
        assert_eq!(detached, inline);
        assert_eq!(detached.1, HitKind::Verbatim);
        assert_eq!(detached.0, toy_predictions(&aig));
    }

    #[test]
    fn renumbered_isomorph_hits_by_transfer() {
        // Interleave inputs and ANDs so the graph is *not* in canonical
        // AIGER order; write_binary then genuinely renumbers it.
        let mut aig = Aig::new();
        let ins = aig.add_inputs(2);
        let x = aig.xor(ins[0], ins[1]);
        let carry_in = aig.add_input().lit();
        let s = aig.xor(x, carry_in);
        aig.add_output(s);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(4);
        insert(&mut cache, &sig, toy_predictions(&aig));

        // A binary AIGER round trip renumbers the graph.
        let mut buf = Vec::new();
        aiger::write_binary(&aig, &mut buf).unwrap();
        let back = aiger::read(&buf[..]).unwrap();
        assert_ne!(
            gamora_aig::hasher::identity_fingerprint(&aig),
            gamora_aig::hasher::identity_fingerprint(&back),
            "round trip must renumber this graph for the test to bite"
        );
        let back_sig = GraphSignature::of(&back);
        assert_eq!(
            back_sig.key, sig.key,
            "canonical key must survive renumbering"
        );

        let (served, kind) = lookup(&mut cache, &back_sig).expect("transfer hit");
        // Transferred predictions follow the canonical node identity: node
        // i of `back` gets the prediction of the original node with the
        // same canonical hash.
        assert_eq!(kind, HitKind::Transferred);
        let orig = toy_predictions(&aig);
        let orig_hashes = sig.node_hashes.clone();
        for (i, h) in back_sig.node_hashes.iter().enumerate() {
            let j = orig_hashes.iter().position(|x| x == h).unwrap();
            assert_eq!(served.root_leaf[i], orig.root_leaf[j]);
        }
    }

    #[test]
    fn transfer_refused_for_duplicate_cone_graphs() {
        // Two identical AND gates (possible only in unstrashed graphs, e.g.
        // read from AIGER): their canonical node hashes collide, but their
        // predictions may differ (fanout context), so transfer must refuse.
        let text = "aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 2 4\n";
        let aig = aiger::read(text.as_bytes()).unwrap();
        let sig = GraphSignature::of(&aig);
        assert_eq!(
            sig.node_hashes[3], sig.node_hashes[4],
            "duplicate cones share a canonical hash"
        );
        let mut cache = PredictionCache::new(2);
        insert(&mut cache, &sig, toy_predictions(&aig));

        // Identical resubmission still serves verbatim, bit-exactly.
        let (_, kind) = lookup(&mut cache, &sig).expect("verbatim hit");
        assert_eq!(kind, HitKind::Verbatim);

        // A renumbered isomorph (different identity hash) must miss rather
        // than guess which duplicate's prediction to serve.
        let mut renumbered = sig.clone();
        renumbered.identity ^= 1;
        assert!(lookup(&mut cache, &renumbered).is_none());
    }

    /// The timed probe/resolve wrappers serve identical answers to the
    /// plain API and account each tier exactly once.
    #[test]
    fn timed_probe_resolve_accounts_tiers() {
        let mut reg = Registry::new();
        let metrics = CacheMetrics::register(&mut reg);
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(4);

        assert!(cache.probe_timed(&sig.key, &metrics).is_none());
        insert(&mut cache, &sig, toy_predictions(&aig));
        let entry = cache.probe_timed(&sig.key, &metrics).expect("hit");
        let (served, kind) = entry.resolve_timed(&sig, &metrics).expect("verbatim");
        assert_eq!(kind, HitKind::Verbatim);
        assert_eq!(served.root_leaf, toy_predictions(&aig).root_leaf);

        // A renumbered identity forces the transfer tier.
        let mut renumbered = sig.clone();
        renumbered.identity ^= 1;
        let (_, kind) = entry
            .resolve_timed(&renumbered, &metrics)
            .expect("transfer");
        assert_eq!(kind, HitKind::Transferred);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache_probe_misses_total"), 1);
        assert_eq!(snap.counter("cache_hits_verbatim_total"), 1);
        assert_eq!(snap.counter("cache_hits_transferred_total"), 1);
        assert_eq!(snap.counter("cache_resolve_misses_total"), 0);
        assert_eq!(snap.histogram("cache_probe_micros").unwrap().count(), 2);
        assert_eq!(snap.histogram("cache_resolve_micros").unwrap().count(), 2);
    }

    #[test]
    fn different_functions_do_not_collide() {
        let a = toy_aig(false);
        let b = toy_aig(true);
        let mut cache = PredictionCache::new(4);
        insert(&mut cache, &GraphSignature::of(&a), toy_predictions(&a));
        assert!(lookup(&mut cache, &GraphSignature::of(&b)).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut graphs = Vec::new();
        for i in 0..4usize {
            let mut aig = Aig::new();
            let ins = aig.add_inputs(i + 2);
            let x = aig.xor(ins[0], ins[1]);
            aig.add_output(x);
            graphs.push(aig);
        }
        let sigs: Vec<_> = graphs.iter().map(GraphSignature::of).collect();
        let mut cache = PredictionCache::new(2);
        insert(&mut cache, &sigs[0], toy_predictions(&graphs[0]));
        insert(&mut cache, &sigs[1], toy_predictions(&graphs[1]));
        // Touch 0 so 1 becomes LRU, then insert 2 -> evicts 1.
        assert!(lookup(&mut cache, &sigs[0]).is_some());
        insert(&mut cache, &sigs[2], toy_predictions(&graphs[2]));
        assert_eq!(cache.len(), 2);
        assert!(lookup(&mut cache, &sigs[1]).is_none(), "1 was evicted");
        assert!(lookup(&mut cache, &sigs[0]).is_some(), "0 survived");
        assert!(lookup(&mut cache, &sigs[2]).is_some());
        // Insert two more: everything older rolls out.
        insert(&mut cache, &sigs[3], toy_predictions(&graphs[3]));
        insert(&mut cache, &sigs[1], toy_predictions(&graphs[1]));
        assert_eq!(cache.len(), 2);
        assert!(lookup(&mut cache, &sigs[0]).is_none());
    }
}
