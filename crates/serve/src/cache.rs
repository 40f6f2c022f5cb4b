//! Structural-hash prediction cache: an LRU of served predictions,
//! addressable two ways.
//!
//! Every cached graph sits in one slot, reachable through two indexes that
//! are kept in step on insert, in-place refresh and eviction:
//!
//! * the **identity index**, `(identity digest, node count) → slot`: the
//!   128-bit order-sensitive [`identity_fingerprint`] of the exact
//!   numbering that was cached, and of each numbering the transfer tier
//!   has served from the slot since (see *Remembered numberings* below);
//! * the **structural key map**, [`CacheKey`] `→ slot`: the canonical
//!   whole-graph hash of
//!   [`gamora_aig::hasher::structural_fingerprint`] plus the
//!   node/input/AND counts, which a renumbered isomorph shares.
//!
//! A submission is looked up in that order, and each step is only paid for
//! by the jobs the previous one did not answer:
//!
//! 1. **verbatim**, by identity ([`PredictionCache::probe_identity`]) — the
//!    digest is taken once, on the submitting thread, and a hit returns the
//!    stored per-node prediction vectors unchanged: bit-exact reproduction
//!    of the original forward pass (the common repeated-netlist case). No
//!    structural hash is computed for such a job; the slot's own
//!    [`CacheKey`] supplies the structural fingerprint the scheduler's
//!    quarantine gate needs.
//! 2. **structural key** ([`PredictionCache::probe`]) — only a job that
//!    missed the identity index pays the canonical per-node hash pass
//!    ([`GraphSignature::with_identity`]); a key hit on an entry with
//!    another numbering goes to
//! 3. **transfer** — the entry's predictions are re-indexed through
//!    canonical per-node hashes onto the submission's numbering. Transfer
//!    is refused (an honest miss) if the cached graph contains duplicate
//!    canonical node hashes — with fanout-sensitive message passing,
//!    structurally identical cones can still predict differently — or if
//!    any submission hash cannot be resolved (a genuine fingerprint
//!    collision).
//!
//! **Remembered numberings.** A transfer's answer depends only on the entry
//! it was transferred from and on the submission's numbering, so the
//! caller may hand it back through [`PredictionCache::remember_transfer`]
//! as a verbatim-only [`CacheEntry::verbatim_only`] (the twin's identity
//! and the predictions it was served; no hash index). The slot then keeps
//! it beside its inserted entry, at most [`MAX_TRANSFERRED`] of them,
//! dropping the oldest at the cap, and the identity index maps that
//! numbering to the slot: the next submission of the same twin is a
//! verbatim hit that skips the structural hash and the re-indexing. A
//! numbering is only attached while the slot still holds the entry it was
//! transferred from, and an in-place refresh or an eviction unlinks every
//! numbering of the slot, so a remembered answer is always the one a
//! fresh transfer would give. Memory: at most `capacity × (1 +
//! MAX_TRANSFERRED)` prediction vectors; the hash indexes are never
//! duplicated.
//!
//! [`GraphSignature::of`] + [`PredictionCache::probe`] +
//! [`CacheEntry::resolve`] is the same lookup done eagerly (everything
//! hashed up front, verbatim decided inside `resolve`); it serves the same
//! answers and is what the benchmark's replay uses.
//!
//! Eviction is true LRU in O(1) via an index-linked list over a slab.
//!
//! **Lock discipline.** The scheduler keeps the cache behind a mutex, so
//! everything O(nodes) is kept *out* of the cache's own methods'
//! contended section: both probes are an O(1) map lookup + LRU touch that
//! hand back an [`Arc<CacheEntry>`]; the O(nodes) verbatim clone
//! ([`CacheEntry::verbatim`]) or transfer re-indexing
//! ([`CacheEntry::resolve`]) then runs on the caller's thread with no lock
//! held. Symmetrically, [`CacheEntry::new`] builds the O(nodes) hash index
//! outside the lock and [`PredictionCache::insert_entry`] links it in
//! O(1).
//!
//! The cache is a plain data structure and records no metrics. The
//! scheduler, its one metered caller, reads the clock around each probe
//! (under its lock) and each resolve (outside it), and counts the tier
//! every answer came from (README "Observability").

use gamora::Predictions;
use gamora_aig::hasher::{
    fingerprint_from_node_hashes, identity_fingerprint, structural_node_hashes, FxHashMap,
};
use gamora_aig::Aig;
use std::sync::Arc;

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
    /// Order-sensitive exact 128-bit digest (the verbatim tier's key).
    pub identity: u128,
    /// Canonical per-node hashes (transfer-serve index).
    pub node_hashes: Vec<u64>,
}

impl GraphSignature {
    /// Computes the signature of an AIG: the identity digest, then one
    /// serial pass of canonical per-node hashes on the calling thread.
    pub fn of(aig: &Aig) -> GraphSignature {
        GraphSignature::with_identity(aig, identity_fingerprint(aig))
    }

    /// The structural half of [`GraphSignature::of`] around an identity
    /// digest the caller already holds (the scheduler takes it at submit
    /// and comes here only for jobs the identity index did not answer, so
    /// no AIG is digested twice). `identity` must be
    /// `identity_fingerprint(aig)`.
    pub fn with_identity(aig: &Aig, identity: u128) -> GraphSignature {
        let node_hashes = structural_node_hashes(aig);
        GraphSignature {
            key: CacheKey {
                fingerprint: fingerprint_from_node_hashes(aig, &node_hashes),
                num_nodes: aig.num_nodes(),
                num_inputs: aig.num_inputs(),
                num_ands: aig.num_ands(),
            },
            identity,
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
    identity: u128,
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
            return Some((self.verbatim(), HitKind::Verbatim));
        }
        self.transfer(sig).map(|p| (p, HitKind::Transferred))
    }

    /// A verbatim-only entry: one numbering's identity digest and the
    /// predictions it was served, with no canonical-hash index — it never
    /// transfers. What [`PredictionCache::remember_transfer`] attaches to a
    /// slot. Call *outside* any cache lock.
    pub fn verbatim_only(identity: u128, predictions: Predictions) -> CacheEntry {
        CacheEntry {
            identity,
            predictions,
            by_hash: FxHashMap::default(),
            hashes_unique: false,
        }
    }

    /// The stored predictions, cloned: what a
    /// [`PredictionCache::probe_identity`] hit serves. O(nodes) — run it
    /// with no lock held.
    pub fn verbatim(&self) -> Predictions {
        self.predictions.clone()
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

/// Transferred numberings one slot remembers beyond its inserted one; at
/// the cap the oldest is dropped.
pub const MAX_TRANSFERRED: usize = 4;

struct Slot {
    key: CacheKey,
    entry: Arc<CacheEntry>,
    /// Verbatim-only entries of the numberings the transfer tier served
    /// from `entry`, oldest first.
    transferred: Vec<Arc<CacheEntry>>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// Drops `id_key`'s identity mapping if slot `idx` owns it — a digest
/// collision may have handed it to another slot since, which keeps it.
fn unlink(by_identity: &mut FxHashMap<(u128, usize), usize>, id_key: (u128, usize), idx: usize) {
    if by_identity.get(&id_key) == Some(&idx) {
        by_identity.remove(&id_key);
    }
}

/// An LRU-bounded store of predictions, indexed by structural key and by
/// identity digest (see the module doc).
pub struct PredictionCache {
    capacity: usize,
    map: FxHashMap<CacheKey, usize>,
    /// `(identity digest, node count) → slot` of every numbering each slot
    /// holds: the inserted one and the remembered transfers. Two slots can
    /// claim one identity only through a digest collision; the later insert
    /// owns the mapping then, and the other slot stays reachable through
    /// `map` alone.
    by_identity: FxHashMap<(u128, usize), usize>,
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
            by_identity: FxHashMap::default(),
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

    /// The identity-index key of the numbering slot `idx` holds.
    fn identity_key(&self, idx: usize) -> (u128, usize) {
        let slot = &self.slab[idx];
        (slot.entry.identity, slot.key.num_nodes)
    }

    /// Drops the identity mappings of every numbering slot `idx` holds
    /// (those a digest collision has handed to another slot stay) and
    /// forgets its remembered transfers.
    fn unlink_identities(&mut self, idx: usize) {
        let slot = &mut self.slab[idx];
        let num_nodes = slot.key.num_nodes;
        for entry in std::iter::once(&slot.entry).chain(&slot.transferred) {
            unlink(&mut self.by_identity, (entry.identity, num_nodes), idx);
        }
        slot.transferred.clear();
    }

    /// O(1) probe of the identity index: finds the slot caching exactly
    /// this numbering (128-bit digest and node count, the latter checked
    /// against the stored prediction length as well) — inserted, or
    /// remembered from a transfer — and marks it most recently used,
    /// exactly like [`PredictionCache::probe`]. A hit hands back the
    /// slot's structural [`CacheKey`] — the caller never hashed the graph
    /// structurally, and the scheduler's quarantine gate wants the
    /// fingerprint — with the entry whose identity matched, whose
    /// [`CacheEntry::verbatim`] the caller runs after releasing the lock.
    pub fn probe_identity(
        &mut self,
        identity: u128,
        num_nodes: usize,
    ) -> Option<(CacheKey, Arc<CacheEntry>)> {
        let &idx = self.by_identity.get(&(identity, num_nodes))?;
        let slot = &self.slab[idx];
        let entry = std::iter::once(&slot.entry)
            .chain(&slot.transferred)
            .find(|e| e.identity == identity && e.predictions.num_nodes() == num_nodes)
            .map(Arc::clone)?;
        let key = slot.key;
        self.detach(idx);
        self.push_front(idx);
        Some((key, entry))
    }

    /// O(1) attach of a numbering the transfer tier served: `entry` (built
    /// with [`CacheEntry::verbatim_only`] outside the lock) joins the slot
    /// under `key`, and the identity index maps its numbering there, so
    /// that numbering's next probe is a verbatim hit. Does nothing unless
    /// the slot still holds `from`, the entry the transfer resolved
    /// against (a refresh or eviction since would make the answer stale),
    /// or if the numbering is already indexed. At [`MAX_TRANSFERRED`] the
    /// slot's oldest remembered numbering is dropped. The LRU order is left
    /// alone: the probe that found `from` has touched it already.
    pub fn remember_transfer(
        &mut self,
        key: CacheKey,
        from: &Arc<CacheEntry>,
        entry: Arc<CacheEntry>,
    ) {
        let Some(&idx) = self.map.get(&key) else {
            return;
        };
        let id_key = (entry.identity, key.num_nodes);
        let slot = &mut self.slab[idx];
        if !Arc::ptr_eq(&slot.entry, from) || self.by_identity.contains_key(&id_key) {
            return;
        }
        if slot.transferred.len() == MAX_TRANSFERRED {
            let oldest = slot.transferred.remove(0);
            unlink(&mut self.by_identity, (oldest.identity, key.num_nodes), idx);
        }
        slot.transferred.push(entry);
        self.by_identity.insert(id_key, idx);
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

    /// O(1) insert (or refresh) of a pre-built entry. Build the entry
    /// with [`CacheEntry::new`] *outside* the cache lock.
    pub fn insert_entry(&mut self, key: CacheKey, entry: Arc<CacheEntry>) {
        if let Some(&idx) = self.map.get(&key) {
            // Refresh in place (e.g. re-inserted after a transfer miss):
            // the slot now holds another numbering of the same structure.
            self.detach(idx);
            self.unlink_identities(idx);
            self.slab[idx].entry = entry;
            self.by_identity.insert(self.identity_key(idx), idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.detach(lru);
            self.map.remove(&self.slab[lru].key);
            self.unlink_identities(lru);
            self.free.push(lru);
        }
        let slot = Slot {
            key,
            entry,
            transferred: Vec::new(),
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
        self.by_identity.insert(self.identity_key(idx), idx);
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
    /// helper serves, on every hit path: verbatim and transfer through the
    /// structural key, and an identity-index hit through `verbatim()`. This
    /// pins the lock-scope claim: each O(nodes) resolution runs after the
    /// cache itself is gone.
    #[test]
    fn probe_then_resolve_matches_lookup() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let twin = &renumberings(&sig, 1)[0];
        let mut cache = PredictionCache::new(4);
        assert!(cache.probe(&sig.key).is_none(), "empty cache: no entry");
        insert(&mut cache, &sig, toy_predictions(&aig));

        let inline = lookup(&mut cache, &sig).expect("inline hit");
        let inline_twin = lookup(&mut cache, twin).expect("inline transfer hit");
        let entry = cache.probe(&sig.key).expect("probe finds the entry");
        let (key, identity_entry) = cache
            .probe_identity(sig.identity, sig.key.num_nodes)
            .expect("identity probe finds the entry");
        assert_eq!(key, sig.key);
        // Resolution happens entirely on the Arcs — drop the cache first to
        // prove no further cache access is involved.
        drop(cache);
        let detached = entry.resolve(&sig).expect("verbatim resolve");
        assert_eq!(detached, inline);
        assert_eq!(detached.1, HitKind::Verbatim);
        assert_eq!(detached.0, toy_predictions(&aig));
        // The twin shares `sig`'s structural key, so the same probe serves it.
        let transferred = entry.resolve(twin).expect("transfer resolve");
        assert_eq!(transferred, inline_twin);
        assert_eq!(transferred.1, HitKind::Transferred);
        assert_eq!(identity_entry.verbatim(), inline.0);
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

    /// The identity index stays in step with the key map: a fresh insert
    /// links the numbering, an in-place refresh (same structure, other
    /// numbering) moves the link, eviction drops it — and a probe through
    /// it touches the LRU exactly like a key probe.
    #[test]
    fn identity_index_follows_insert_refresh_and_eviction() {
        let graphs: Vec<Aig> = (0..3usize)
            .map(|i| {
                let mut aig = Aig::new();
                let ins = aig.add_inputs(i + 2);
                let x = aig.xor(ins[0], ins[1]);
                aig.add_output(x);
                aig
            })
            .collect();
        let sigs: Vec<_> = graphs.iter().map(GraphSignature::of).collect();
        let hit = |cache: &mut PredictionCache, sig: &GraphSignature| {
            cache
                .probe_identity(sig.identity, sig.key.num_nodes)
                .is_some()
        };
        let mut cache = PredictionCache::new(2);
        assert!(!hit(&mut cache, &sigs[0]));
        insert(&mut cache, &sigs[0], toy_predictions(&graphs[0]));
        insert(&mut cache, &sigs[1], toy_predictions(&graphs[1]));
        assert!(hit(&mut cache, &sigs[0]) && hit(&mut cache, &sigs[1]));

        // Refresh slot 0 under another numbering of the same structure.
        let mut twin = sigs[0].clone();
        twin.identity ^= 1;
        insert(&mut cache, &twin, toy_predictions(&graphs[0]));
        assert!(!hit(&mut cache, &sigs[0]), "the old numbering is gone");
        assert!(hit(&mut cache, &twin));
        assert_eq!(cache.len(), 2);

        // Touch 1 through the identity index, so the twin is LRU; the
        // next insert evicts it from both indexes.
        assert!(hit(&mut cache, &sigs[1]));
        insert(&mut cache, &sigs[2], toy_predictions(&graphs[2]));
        assert!(!hit(&mut cache, &twin), "evicted: no identity mapping left");
        assert!(cache.probe(&twin.key).is_none());
        assert!(hit(&mut cache, &sigs[1]) && hit(&mut cache, &sigs[2]));
        assert_eq!(cache.by_identity.len(), cache.map.len());
    }

    /// Two structural keys under one identity — a digest collision — must
    /// not unlink each other: the later insert owns the mapping, and
    /// refreshing or evicting the earlier slot leaves it alone.
    #[test]
    fn colliding_identities_do_not_unlink_each_other() {
        let (a, b) = (toy_aig(false), toy_aig(true));
        let sig_a = GraphSignature::of(&a);
        let mut sig_b = GraphSignature::of(&b);
        assert_ne!(sig_a.key, sig_b.key);
        assert_eq!(sig_a.key.num_nodes, sig_b.key.num_nodes);
        sig_b.identity = sig_a.identity;
        let owner = |cache: &mut PredictionCache| {
            cache
                .probe_identity(sig_a.identity, sig_a.key.num_nodes)
                .map(|(key, _)| key)
        };
        let collided = || {
            let mut cache = PredictionCache::new(2);
            insert(&mut cache, &sig_a, toy_predictions(&a));
            insert(&mut cache, &sig_b, toy_predictions(&b));
            cache
        };

        // Refresh a's slot under another numbering.
        let mut cache = collided();
        assert_eq!(
            owner(&mut cache),
            Some(sig_b.key),
            "the later insert owns it"
        );
        let mut a_twin = sig_a.clone();
        a_twin.identity ^= 1;
        insert(&mut cache, &a_twin, toy_predictions(&a));
        assert_eq!(owner(&mut cache), Some(sig_b.key));

        // Evict a's slot (the probe touched b, so a is LRU).
        let mut cache = collided();
        assert_eq!(owner(&mut cache), Some(sig_b.key));
        let mut sig_c = sig_a.clone();
        sig_c.key.fingerprint ^= 1;
        sig_c.identity ^= 2;
        insert(&mut cache, &sig_c, toy_predictions(&a));
        assert!(cache.probe(&sig_a.key).is_none(), "a was evicted");
        assert_eq!(owner(&mut cache), Some(sig_b.key));
    }

    /// An identity hit needs the node count to agree with the stored
    /// prediction length, not only with the key it was filed under.
    #[test]
    fn identity_hit_checks_the_stored_prediction_length() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let entry = Arc::new(CacheEntry::new(&sig, toy_predictions(&aig)));
        let mut misfiled = sig.key;
        misfiled.num_nodes += 1;
        let mut cache = PredictionCache::new(2);
        cache.insert_entry(misfiled, entry);
        assert!(cache
            .probe_identity(sig.identity, misfiled.num_nodes)
            .is_none());
        assert!(cache
            .probe_identity(sig.identity, sig.key.num_nodes)
            .is_none());
    }

    /// `n` renumberings of `sig`: same structural key, other identities.
    fn renumberings(sig: &GraphSignature, n: usize) -> Vec<GraphSignature> {
        (1..=n as u128)
            .map(|k| GraphSignature {
                identity: sig.identity ^ k,
                ..sig.clone()
            })
            .collect()
    }

    /// Transfers `twin` from the entry under its key and remembers it, as
    /// the scheduler does; `false` if the transfer tier refused.
    fn transfer_and_remember(cache: &mut PredictionCache, twin: &GraphSignature) -> bool {
        let Some(from) = cache.probe(&twin.key) else {
            return false;
        };
        let Some((preds, HitKind::Transferred)) = from.resolve(twin) else {
            return false;
        };
        let entry = Arc::new(CacheEntry::verbatim_only(twin.identity, preds));
        cache.remember_transfer(twin.key, &from, entry);
        true
    }

    fn identity_hit(cache: &mut PredictionCache, sig: &GraphSignature) -> Option<Predictions> {
        let (key, entry) = cache.probe_identity(sig.identity, sig.key.num_nodes)?;
        assert_eq!(key, sig.key, "a hit hands back the slot's key");
        Some(entry.verbatim())
    }

    /// A remembered numbering serves, verbatim, what its transfer served;
    /// past [`MAX_TRANSFERRED`] the oldest goes first.
    #[test]
    fn remembered_numberings_serve_the_transfer_and_the_cap_drops_the_oldest() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(2);
        insert(&mut cache, &sig, toy_predictions(&aig));
        let twins = renumberings(&sig, MAX_TRANSFERRED + 1);
        for twin in &twins[..MAX_TRANSFERRED] {
            assert!(identity_hit(&mut cache, twin).is_none());
            assert!(transfer_and_remember(&mut cache, twin));
            let (transferred, _) = lookup(&mut cache, twin).expect("transfer hit");
            assert_eq!(identity_hit(&mut cache, twin), Some(transferred));
        }
        assert!(transfer_and_remember(&mut cache, &twins[MAX_TRANSFERRED]));
        assert!(
            identity_hit(&mut cache, &twins[0]).is_none(),
            "oldest dropped"
        );
        for twin in &twins[1..] {
            assert!(identity_hit(&mut cache, twin).is_some());
        }
        assert!(identity_hit(&mut cache, &sig).is_some(), "inserted stays");
        assert_eq!(cache.by_identity.len(), 1 + MAX_TRANSFERRED);
    }

    /// Evicting a slot unlinks every numbering it held.
    #[test]
    fn eviction_unlinks_every_remembered_numbering() {
        let (a, b) = (toy_aig(false), toy_aig(true));
        let (sig_a, sig_b) = (GraphSignature::of(&a), GraphSignature::of(&b));
        let mut cache = PredictionCache::new(1);
        insert(&mut cache, &sig_a, toy_predictions(&a));
        let twins = renumberings(&sig_a, 3);
        for twin in &twins {
            assert!(transfer_and_remember(&mut cache, twin));
        }
        insert(&mut cache, &sig_b, toy_predictions(&b));
        for sig in std::iter::once(&sig_a).chain(&twins) {
            assert!(identity_hit(&mut cache, sig).is_none());
        }
        assert_eq!(cache.by_identity.len(), 1, "only b's numbering is left");
    }

    /// An in-place refresh replaces the entry every remembered numbering
    /// was transferred from, so it unlinks them all.
    #[test]
    fn refresh_unlinks_every_remembered_numbering() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(2);
        insert(&mut cache, &sig, toy_predictions(&aig));
        let twins = renumberings(&sig, 3);
        for twin in &twins[..2] {
            assert!(transfer_and_remember(&mut cache, twin));
        }
        insert(&mut cache, &twins[2], toy_predictions(&aig));
        assert!(identity_hit(&mut cache, &sig).is_none());
        assert!(identity_hit(&mut cache, &twins[0]).is_none());
        assert!(identity_hit(&mut cache, &twins[1]).is_none());
        assert!(identity_hit(&mut cache, &twins[2]).is_some());
        assert_eq!(cache.by_identity.len(), 1);
    }

    /// A transfer resolved against an entry the slot no longer holds is not
    /// remembered, and neither is a numbering the index already knows.
    #[test]
    fn stale_sources_and_known_identities_are_refused() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let mut cache = PredictionCache::new(2);
        insert(&mut cache, &sig, toy_predictions(&aig));
        let twins = renumberings(&sig, 2);
        let stale = cache.probe(&sig.key).expect("cached");
        let (preds, _) = stale.resolve(&twins[0]).expect("transfer");
        // Refresh the slot with an equal entry: another `Arc`, so stale.
        insert(&mut cache, &sig, toy_predictions(&aig));
        let remembered = Arc::new(CacheEntry::verbatim_only(twins[0].identity, preds));
        cache.remember_transfer(sig.key, &stale, Arc::clone(&remembered));
        assert!(
            identity_hit(&mut cache, &twins[0]).is_none(),
            "stale source"
        );
        // Under a key with no slot at all, nothing happens either.
        let mut elsewhere = sig.key;
        elsewhere.fingerprint ^= 1;
        let current = cache.probe(&sig.key).expect("cached");
        cache.remember_transfer(elsewhere, &current, remembered);
        assert!(identity_hit(&mut cache, &twins[0]).is_none(), "no slot");

        // The inserted numbering, and a remembered one, are indexed already.
        let own = Arc::new(CacheEntry::verbatim_only(
            sig.identity,
            toy_predictions(&aig),
        ));
        cache.remember_transfer(sig.key, &current, own);
        assert!(transfer_and_remember(&mut cache, &twins[1]));
        assert!(transfer_and_remember(&mut cache, &twins[1]));
        let slot = cache.map[&sig.key];
        assert_eq!(cache.slab[slot].transferred.len(), 1, "attached once");
        assert_eq!(cache.by_identity.len(), 2);
    }

    /// A verbatim-only entry serves its own numbering and never transfers.
    #[test]
    fn verbatim_only_entries_never_transfer() {
        let aig = toy_aig(false);
        let sig = GraphSignature::of(&aig);
        let entry = CacheEntry::verbatim_only(sig.identity, toy_predictions(&aig));
        assert_eq!(
            entry.resolve(&sig),
            Some((toy_predictions(&aig), HitKind::Verbatim))
        );
        assert!(entry.resolve(&renumberings(&sig, 1)[0]).is_none());
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
