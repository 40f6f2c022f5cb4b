//! Identity-first lookup serves what the eager lookup serves.
//!
//! A `Server` worker probes the cache's identity index with the digest the
//! submitter took, and hashes structurally only the jobs that miss it. The
//! eager order — `GraphSignature::of` on every job, `probe` by structural
//! key, verbatim decided inside `resolve` — is still there as public API
//! (the benchmark's replay uses it). A twin the transfer tier served is
//! remembered by the cache (`remember_transfer`), so its next submission is
//! an identity hit; the reference learns that through the same public call
//! and counts a numbering the identity index knew at the start of a batch
//! as verbatim, while still transferring it to check the answer. These
//! tests drive
//! seeded traffic of originals, renumbered twins, once-only graphs,
//! duplicate-cone graphs and intra-batch duplicates through a real server,
//! and through an [`Eager`] reference built from those public calls, and
//! compare job by job: identical `Predictions`, identical `cache_hit`
//! flags, identical verbatim / transferred / miss counters. One more test
//! sends every tier once and pins the exact probe and resolve samples.
//!
//! Eviction order is compared at a capacity well below the working set,
//! with one job per batch: a victim chosen differently would show up as a
//! flipped `cache_hit` the next time that victim is sent. Inside one batch
//! the worker touches the LRU in two sweeps (identity hits, then
//! structural-key probes) where the eager order is one sweep in job order,
//! so recency *within* a batch is the one thing the multi-job test, which
//! never evicts, does not compare.

use gamora::{GamoraReasoner, ModelDepth, Predictions, ReasonerConfig, TrainConfig};
use gamora_aig::hasher::mix64;
use gamora_aig::{aiger, Aig};
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_serve::cache::{CacheEntry, GraphSignature, HitKind, PredictionCache};
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use std::sync::Arc;

fn tiny_trained() -> GamoraReasoner {
    let m = generate_multiplier(MultiplierKind::Csa, 3);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 2,
            hidden: 8,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m.aig],
        &TrainConfig {
            epochs: 15,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    reasoner
}

/// The eager worker: everything hashed up front, one structural-key probe
/// per job, verbatim or transfer decided by `resolve`, transfers
/// remembered, misses coalesced into one pass and inserted — phases 1 and
/// 2 of `run_batch` as they were before the identity index, from public
/// calls only. The identity index is read for one thing: whether a job's
/// numbering was known when its batch began, which makes it a verbatim
/// hit.
struct Eager {
    cache: PredictionCache,
    model: Arc<GamoraReasoner>,
    verbatim: u64,
    /// The verbatim hits that were numberings remembered from a transfer.
    remembered: u64,
    transferred: u64,
    probe_misses: u64,
    resolve_misses: u64,
    forward_passes: u64,
}

impl Eager {
    fn new(model: Arc<GamoraReasoner>, capacity: usize) -> Eager {
        Eager {
            cache: PredictionCache::new(capacity),
            model,
            verbatim: 0,
            remembered: 0,
            transferred: 0,
            probe_misses: 0,
            resolve_misses: 0,
            forward_passes: 0,
        }
    }

    /// Serves one batch; `(predictions, cache_hit)` per job, in order.
    fn serve(&mut self, batch: &[&Aig]) -> Vec<(Predictions, bool)> {
        let sigs: Vec<GraphSignature> = batch.iter().map(|aig| GraphSignature::of(aig)).collect();
        let known: Vec<bool> = sigs
            .iter()
            .map(|sig| {
                self.cache
                    .probe_identity(sig.identity, sig.key.num_nodes)
                    .is_some()
            })
            .collect();
        let probes: Vec<Option<Arc<CacheEntry>>> =
            sigs.iter().map(|sig| self.cache.probe(&sig.key)).collect();
        let mut served: Vec<Option<(Predictions, bool)>> = Vec::new();
        let mut transfers: Vec<(usize, Arc<CacheEntry>, Predictions)> = Vec::new();
        for (i, (probe, sig)) in probes.iter().zip(&sigs).enumerate() {
            let Some(entry) = probe else {
                self.probe_misses += 1;
                served.push(None);
                continue;
            };
            served.push(match entry.resolve(sig) {
                Some((preds, HitKind::Verbatim)) => {
                    self.verbatim += 1;
                    Some((preds, true))
                }
                Some((preds, HitKind::Transferred)) if known[i] => {
                    self.verbatim += 1;
                    self.remembered += 1;
                    Some((preds, true))
                }
                Some((preds, HitKind::Transferred)) => {
                    self.transferred += 1;
                    transfers.push((i, Arc::clone(entry), preds.clone()));
                    Some((preds, true))
                }
                None => {
                    self.resolve_misses += 1;
                    None
                }
            });
        }
        for (i, from, preds) in transfers {
            let twin = CacheEntry::verbatim_only(sigs[i].identity, preds);
            self.cache
                .remember_transfer(sigs[i].key, &from, Arc::new(twin));
        }
        // Misses: duplicates inside the batch share one model slot and
        // report as hits; every distinct miss is inserted, in job order.
        let mut fresh: Vec<(usize, Predictions)> = Vec::new();
        for i in 0..batch.len() {
            if served[i].is_some() {
                continue;
            }
            let same = |j: usize| {
                sigs[j].key.fingerprint == sigs[i].key.fingerprint
                    && sigs[j].identity == sigs[i].identity
            };
            served[i] = Some(match fresh.iter().find(|(j, _)| same(*j)) {
                Some((_, preds)) => (preds.clone(), true),
                None => {
                    let preds = self.model.predict(batch[i]);
                    fresh.push((i, preds.clone()));
                    (preds, false)
                }
            });
        }
        if !fresh.is_empty() {
            self.forward_passes += 1;
        }
        for (i, preds) in fresh {
            self.cache
                .insert_entry(sigs[i].key, Arc::new(CacheEntry::new(&sigs[i], preds)));
        }
        served
            .into_iter()
            .map(|s| s.expect("every job resolved"))
            .collect()
    }
}

/// A multiplier with one input created *after* its gates, so that a binary
/// AIGER round trip (inputs move to the lowest indices) really renumbers
/// it. Returns `(original, renumbered twin)`.
fn original_and_twin(kind: MultiplierKind, bits: usize) -> (Aig, Aig) {
    let mut aig = generate_multiplier(kind, bits).aig;
    let enable = aig.add_input().lit();
    let gated = aig.and(aig.outputs()[0], enable);
    aig.add_output(gated);
    let mut bytes = Vec::new();
    aiger::write_binary(&aig, &mut bytes).expect("writing to a Vec cannot fail");
    let twin = aiger::read(&bytes[..]).expect("round trip parses");
    let (a, b) = (GraphSignature::of(&aig), GraphSignature::of(&twin));
    assert_eq!(a.key, b.key, "a twin shares the structural key");
    assert_ne!(a.identity, b.identity, "a twin is numbered differently");
    (aig, twin)
}

/// Two unstrashed copies of one gate (only a reader produces these): the
/// copies share a canonical node hash, so the transfer tier refuses the
/// graph. The "twin" lists the same two outputs in the other order — same
/// node array, same structural key, another identity.
fn duplicate_cone_pair(extra_inputs: usize) -> (Aig, Aig) {
    let inputs = 2 + extra_inputs;
    let (g0, g1) = (2 * (inputs + 1), 2 * (inputs + 2));
    let text = |first: usize, second: usize| {
        let mut t = format!("aag {} {inputs} 0 2 2\n", inputs + 2);
        for i in 0..inputs {
            t += &format!("{}\n", 2 * (i + 1));
        }
        t + &format!("{first}\n{second}\n{g0} 2 4\n{g1} 2 4\n")
    };
    let read = |t: String| aiger::read(t.as_bytes()).expect("well-formed AIGER");
    let (aig, twin) = (read(text(g0, g1)), read(text(g1, g0)));
    let (a, b) = (GraphSignature::of(&aig), GraphSignature::of(&twin));
    assert_eq!(a.key, b.key);
    assert_ne!(a.identity, b.identity);
    (aig, twin)
}

/// The traffic's building blocks.
struct Corpus {
    originals: Vec<Aig>,
    twins: Vec<Aig>,
    /// Sent once each, to churn the LRU.
    once: Vec<Aig>,
    /// Duplicate-cone graphs and their twins, interleaved.
    duplicate_cones: Vec<Aig>,
}

fn corpus() -> Corpus {
    let (originals, twins) = (3..=8)
        .map(|bits| original_and_twin(MultiplierKind::Csa, bits))
        .unzip();
    let once = [MultiplierKind::Booth, MultiplierKind::Dadda]
        .into_iter()
        .flat_map(|kind| (3..=10).map(move |bits| generate_multiplier(kind, bits).aig))
        .collect();
    let duplicate_cones = (0..2)
        .flat_map(|extra| {
            let (aig, twin) = duplicate_cone_pair(extra);
            [aig, twin]
        })
        .collect();
    Corpus {
        originals,
        twins,
        once,
        duplicate_cones,
    }
}

/// Seeded draws (SplitMix64 over a counter).
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 += 1;
        (mix64(self.0) % n as u64) as usize
    }
}

impl Corpus {
    /// One seeded job: half originals, a quarter twins, the rest split
    /// between duplicate-cone graphs and (while they last) once-only ones.
    fn draw(&self, draws: &mut Draws, next_once: &mut usize) -> &Aig {
        match draws.below(20) {
            0..=9 => &self.originals[draws.below(self.originals.len())],
            10..=14 => &self.twins[draws.below(self.twins.len())],
            15..=17 => &self.duplicate_cones[draws.below(self.duplicate_cones.len())],
            _ if *next_once < self.once.len() => {
                *next_once += 1;
                &self.once[*next_once - 1]
            }
            _ => &self.originals[draws.below(self.originals.len())],
        }
    }
}

/// The tier counters of a server, in the reference's terms.
fn assert_counters_match(server: &Server, eager: &Eager) {
    let snap = server.metrics();
    let stats = server.stats();
    assert_eq!(snap.counter("cache_hits_verbatim_total"), eager.verbatim);
    assert_eq!(
        snap.counter("cache_hits_transferred_total"),
        eager.transferred
    );
    assert_eq!(
        snap.counter("cache_probe_misses_total"),
        eager.probe_misses,
        "a probe miss is a job that missed both indexes"
    );
    assert_eq!(
        snap.counter("cache_resolve_misses_total"),
        eager.resolve_misses
    );
    assert_eq!(stats.forward_passes, eager.forward_passes);
}

#[test]
fn one_job_at_a_time_matches_the_eager_path_through_lru_churn() {
    const CAPACITY: usize = 5;
    let model = Arc::new(tiny_trained());
    let corpus = corpus();
    assert!(
        corpus.originals.len() + corpus.duplicate_cones.len() / 2 > CAPACITY,
        "the recurring working set alone must overflow the cache"
    );
    let server = Server::start_shared(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            cache_capacity: CAPACITY,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let mut eager = Eager::new(model, CAPACITY);
    let mut draws = Draws(0x1DE7);
    let mut next_once = 0;
    let (mut hits, mut misses) = (0u64, 0u64);
    for job in 0..400 {
        let aig = corpus.draw(&mut draws, &mut next_once);
        let out = server
            .submit(aig.clone(), AnalysisKind::Classify)
            .expect("admitted")
            .wait()
            .expect("served");
        let (expected, expected_hit) = eager.serve(&[aig]).remove(0);
        assert_eq!(out.cache_hit, expected_hit, "job {job}: hit flag");
        assert_eq!(out.predictions, expected, "job {job}: predictions");
        if out.cache_hit {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    assert_counters_match(&server, &eager);
    // The trace must have exercised every tier and the eviction path.
    assert!(eager.verbatim > 50 && eager.transferred > 20, "tiers idle");
    assert!(eager.remembered > 20, "no twin was answered from memory");
    assert!(eager.resolve_misses > 5, "duplicate cones never refused");
    assert!(
        misses > (corpus.once.len() + corpus.originals.len()) as u64,
        "recurring graphs were never evicted and re-run"
    );
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses), (hits, misses));
}

#[test]
fn whole_batches_with_duplicates_and_mixed_tiers_match_the_eager_path() {
    const CAPACITY: usize = 64; // nothing is evicted: see the module doc
    let model = Arc::new(tiny_trained());
    let corpus = corpus();
    let server = Server::start_shared(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 8,
            workers: 1,
            cache_capacity: CAPACITY,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let mut eager = Eager::new(model, CAPACITY);
    let mut draws = Draws(0xBA7C);
    let mut next_once = 0;
    let mut coalesced = 0;
    for round in 0..60 {
        // One burst of at most `max_batch` (5 + 1 + 2) jobs under one queue
        // lock is one batch for the idle worker.
        let mut batch: Vec<&Aig> = (0..1 + draws.below(5))
            .map(|_| corpus.draw(&mut draws, &mut next_once))
            .collect();
        // Intra-batch duplicates: repeat one of the batch's own jobs, and
        // every other round send a graph next to its own twin.
        batch.push(batch[draws.below(batch.len())]);
        if round % 2 == 0 {
            let pair = draws.below(corpus.originals.len());
            batch.push(&corpus.twins[pair]);
            batch.push(&corpus.originals[pair]);
        }
        let outs = server
            .submit_all(
                batch
                    .iter()
                    .map(|&aig| (aig.clone(), AnalysisKind::Classify))
                    .collect(),
            )
            .expect("served");
        let expected = eager.serve(&batch);
        assert_eq!(outs.len(), expected.len());
        for (job, (out, (preds, hit))) in outs.iter().zip(&expected).enumerate() {
            assert_eq!(out.cache_hit, *hit, "round {round} job {job}: hit flag");
            assert_eq!(
                &out.predictions, preds,
                "round {round} job {job}: predictions"
            );
        }
        let misses = expected.iter().filter(|(_, hit)| !hit).count();
        coalesced += (misses > 1) as u32;
    }
    assert_counters_match(&server, &eager);
    assert!(coalesced > 0, "no batch ever coalesced several misses");
    assert!(eager.remembered > 0, "no twin was answered from memory");
    let stats = server.shutdown();
    assert_eq!(stats.batches, 60, "every burst ran as one batch");
}

/// Every cache tier once, one job per batch, with the exact samples and
/// counters the worker books around the plain cache calls: a cold miss, a
/// repeat (identity hit), a renumbered twin (transfer), a renumbered
/// duplicate-cone graph after its original (resolve refused), and the twin
/// again (an identity hit on the numbering its transfer left behind: no
/// structural hash, counted verbatim).
#[test]
fn every_tier_once_books_exact_samples_and_counters() {
    let (original, twin) = original_and_twin(MultiplierKind::Csa, 3);
    let (cones, cones_twin) = duplicate_cone_pair(0);
    let server = Server::start(
        tiny_trained(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    let send = |aig: &Aig| {
        let ticket = server.submit(aig.clone(), AnalysisKind::Classify);
        ticket.expect("admitted").wait().expect("served")
    };
    let outs: Vec<_> = [&original, &original, &twin, &cones, &cones_twin]
        .into_iter()
        .map(send)
        .collect();
    let hits: Vec<bool> = outs.iter().map(|out| out.cache_hit).collect();
    assert_eq!(hits, [false, true, true, false, false]);
    // Every structural pass so far: the four identity misses, one batch
    // each, plus one digest per submission.
    let hash_samples = server
        .metrics()
        .histogram("stage_signature_hash_micros")
        .unwrap()
        .count();
    let again = send(&twin);
    assert!(again.cache_hit);
    assert_eq!(
        again.predictions, outs[2].predictions,
        "what the transfer served"
    );

    let snap = server.metrics();
    assert_eq!(
        snap.histogram("stage_signature_hash_micros")
            .unwrap()
            .count(),
        hash_samples + 1,
        "the twin's digest at submit, and no structural pass"
    );
    // Two probes (identity, then structural key) for each of the four jobs
    // the identity index missed, one for each of the two identity hits.
    assert_eq!(snap.histogram("cache_probe_micros").unwrap().count(), 10);
    // Two clones, the transfer and the refusal.
    assert_eq!(snap.histogram("cache_resolve_micros").unwrap().count(), 4);
    assert_eq!(snap.counter("cache_hits_verbatim_total"), 2);
    assert_eq!(snap.counter("cache_hits_transferred_total"), 1);
    assert_eq!(snap.counter("cache_probe_misses_total"), 2);
    assert_eq!(snap.counter("cache_resolve_misses_total"), 1);
    assert_eq!(server.shutdown().forward_passes, 3);
}
