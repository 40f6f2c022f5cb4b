//! Prediction-cache lock-scope micro-bench: how much wall time T threads
//! lose when the O(nodes) hit resolution (verbatim clone or transfer
//! re-indexing) runs **inside** the cache mutex versus the fixed design —
//! an O(1) `probe` under the lock and `CacheEntry::resolve` on the
//! caller's thread outside it.
//!
//! "locked" holds the mutex across probe *and* resolve (the pre-fix
//! scheduler); "split" is what `gamora-serve` does. The gap is the serialised
//! per-hit O(nodes) work.
//!
//! Three hit paths: "verbatim" and "transfer" go in through the structural
//! key (`probe` + `resolve`, as the eager callers do); "identity" is the
//! scheduler's first probe — `probe_identity` under the lock, the stored
//! vectors cloned outside it — so its rows next to "verbatim" show what
//! the second index costs in lock hold time.
//!
//! Regenerate: `cargo bench -p gamora-bench --bench cache_contention`

use gamora::Predictions;
use gamora_bench::{time, workload, Table};
use gamora_circuits::MultiplierKind;
use gamora_serve::cache::{CacheEntry, GraphSignature, PredictionCache};
use std::sync::{Arc, Mutex};

fn dummy_predictions(num_nodes: usize) -> Predictions {
    Predictions {
        root_leaf: (0..num_nodes as u32).map(|i| i % 4).collect(),
        is_xor: (0..num_nodes).map(|i| i % 2 == 0).collect(),
        is_maj: (0..num_nodes).map(|i| i % 3 == 0).collect(),
    }
}

/// Runs `iters` hit-resolutions per thread against one shared cache,
/// through the structural key or (`by_identity`) the identity index.
/// `split` = probe under the lock, resolve outside (the fixed scheduler);
/// otherwise the guard lives across the resolve too (the old behaviour).
fn hammer(
    cache: &Mutex<PredictionCache>,
    sig: &GraphSignature,
    by_identity: bool,
    threads: usize,
    iters: usize,
    split: bool,
) -> f64 {
    let probe = |cache: &mut PredictionCache| {
        if by_identity {
            cache
                .probe_identity(sig.identity, sig.key.num_nodes)
                .map(|(_, entry)| entry)
        } else {
            cache.probe(&sig.key)
        }
        .expect("entry cached")
    };
    let resolve = |entry: &CacheEntry| {
        if by_identity {
            Some(entry.verbatim())
        } else {
            entry.resolve(sig).map(|(preds, _)| preds)
        }
    };
    let (probe, resolve) = (&probe, &resolve);
    let (_, secs) = time(|| {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    for _ in 0..iters {
                        let served = if split {
                            let entry = probe(&mut cache.lock().expect("cache poisoned"));
                            // O(nodes), no lock held.
                            resolve(&entry)
                        } else {
                            // O(nodes) under the mutex: every other
                            // thread's probe waits for it.
                            let mut guard = cache.lock().expect("cache poisoned");
                            let entry = probe(&mut guard);
                            resolve(&entry)
                        };
                        assert!(served.is_some(), "resolution must hit");
                        std::hint::black_box(&served);
                    }
                });
            }
        });
    });
    (threads * iters) as f64 / secs
}

/// Width of the CSA subject.
const BITS: usize = 12;
/// Hit resolutions per thread.
const ITERS: usize = 1500;

fn main() {
    let subject = workload(MultiplierKind::Csa, BITS);
    let sig = GraphSignature::of(&subject.aig);
    let preds = dummy_predictions(subject.aig.num_nodes());
    println!(
        "\n=== Cache lock-scope contention: {BITS}-bit CSA ({} nodes), {ITERS} hits/thread ===",
        subject.aig.num_nodes()
    );

    // Verbatim path: identity matches, resolution clones the stored
    // vectors. Transfer path: identity differs, resolution re-indexes
    // every node through the canonical-hash map (the heaviest hit).
    // Identity path: the verbatim clone, found through the identity index.
    let mut transfer_sig = sig.clone();
    transfer_sig.identity ^= 1;

    let mut table = Table::new(&[
        "path",
        "threads",
        "locked (hits/s)",
        "split (hits/s)",
        "split/locked",
    ]);
    let mut measured: Vec<(&str, f64, f64)> = Vec::new();
    for (label, lookup_sig, by_identity) in [
        ("verbatim", &sig, false),
        ("transfer", &transfer_sig, false),
        ("identity", &sig, true),
    ] {
        for threads in [1usize, 2, 4] {
            let cache = Mutex::new(PredictionCache::new(8));
            // Seed the cache the way the shipped scheduler inserts: the
            // O(nodes) index build runs in `CacheEntry::new` *outside*
            // the mutex, and only the O(1) `insert_entry` holds it.
            let entry = Arc::new(CacheEntry::new(&sig, preds.clone()));
            cache.lock().unwrap().insert_entry(sig.key, entry);
            let locked = hammer(&cache, lookup_sig, by_identity, threads, ITERS, false);
            let split = hammer(&cache, lookup_sig, by_identity, threads, ITERS, true);
            measured.push((label, locked, split));
            table.row(vec![
                label.to_string(),
                threads.to_string(),
                format!("{locked:.0}"),
                format!("{split:.0}"),
                format!("{:.2}x", split / locked),
            ]);
        }
    }
    // The report must cover every hit-resolution path, each measured
    // under both lock disciplines — a refactor that silently drops one
    // (or makes a path unhittable) fails here instead of shipping a
    // bench that no longer exercises the shipped code.
    for path in ["verbatim", "transfer", "identity"] {
        let rows = measured.iter().filter(|(l, ..)| *l == path).count();
        assert_eq!(rows, 3, "{path} path missing from the report");
        assert!(
            measured
                .iter()
                .filter(|(l, ..)| *l == path)
                .all(|&(_, locked, split)| locked > 0.0 && split > 0.0),
            "{path} path produced empty locked/split measurements"
        );
    }
    table.print();
}
