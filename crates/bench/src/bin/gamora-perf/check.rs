//! Output checking: every run verifies what the server answered.
//!
//! * Workloads over a fixed subject set compare every answer, warm-up and
//!   timed, with `GamoraReasoner::predict` on the same AIG. A renumbered twin
//!   is compared with its original's prediction carried through the
//!   benchmark's own node map, which is what the isomorph-transfer tier
//!   promises. A direct prediction on the twin differs on 1-3% of nodes
//!   (two of the three node features follow fanin order, see README); that
//!   share is measured here and reported as `serve.transfer_mismatch_share`,
//!   and the twins' served answers count towards `accuracy_min`.
//! * `mixed_extract` sends mostly never-seen variants, so it keeps a sample
//!   of the warm-up answers and every [`SAMPLE_EVERY`]-th timed one and
//!   re-derives them (predict, extract, LSB correction) after the window.
//! * Cache behaviour is part of the workload's definition: a run whose hits
//!   are not what the workload's name says is invalid.

use crate::sut::{self, GamoraReasoner, JobOutput, Predictions};
use crate::workloads::{Corpus, Hits, Spec};

/// `mixed_extract` keeps one timed answer in this many for re-derivation.
pub const SAMPLE_EVERY: usize = 32;

pub struct Checker<'a> {
    spec: &'a Spec,
    model: &'a GamoraReasoner,
    corpus: &'a Corpus,
    /// Expected predictions per payload (fixed-subject workloads).
    reference: Vec<Option<Predictions>>,
    /// Answers kept for re-derivation (`mixed_extract`).
    kept: Vec<(u32, JobOutput)>,
    pub answered: u64,
    pub hits: u64,
    /// Answers that are not what a direct prediction gives.
    pub wrong: u64,
    /// Jobs whose hit/miss is not what the job list says.
    pub hit_mismatches: u64,
    /// Share of the twins' nodes on which the answer the transfer tier
    /// serves differs from a direct prediction on the twin (0 without twins).
    pub transfer_mismatch_share: f64,
}

impl<'a> Checker<'a> {
    pub fn new(spec: &'a Spec, model: &'a GamoraReasoner, corpus: &'a Corpus) -> Checker<'a> {
        let mut reference: Vec<Option<Predictions>> = Vec::new();
        let (mut twin_nodes, mut twin_mismatches) = (0usize, 0usize);
        if spec.hits != Hits::Listed {
            for (payload, twin) in corpus.payloads.iter().zip(&corpus.twins) {
                let direct = sut::predict(model, &payload.materialize());
                let expected = match twin {
                    None => direct,
                    Some(twin) => {
                        let original = reference[twin.of as usize]
                            .as_ref()
                            .expect("originals precede their twins");
                        let carried = carry_over(original, &twin.node_of);
                        twin_nodes += twin.node_of.len();
                        twin_mismatches += (0..twin.node_of.len())
                            .filter(|&n| {
                                carried.root_leaf[n] != direct.root_leaf[n]
                                    || carried.is_xor[n] != direct.is_xor[n]
                                    || carried.is_maj[n] != direct.is_maj[n]
                            })
                            .count();
                        carried
                    }
                };
                reference.push(Some(expected));
            }
        }
        Checker {
            spec,
            model,
            corpus,
            reference,
            kept: Vec::new(),
            answered: 0,
            hits: 0,
            wrong: 0,
            hit_mismatches: 0,
            transfer_mismatch_share: twin_mismatches as f64 / twin_nodes.max(1) as f64,
        }
    }

    /// Checks the warm-up pass's answers, in list order (cache behaviour is
    /// not asserted there). Without a reference, the distinct subjects and
    /// every fourth job of the list's head are kept for re-derivation.
    pub fn warm_answers(&mut self, answers: &[Option<JobOutput>]) {
        for (position, answer) in answers.iter().enumerate() {
            let Some(answer) = answer else { continue };
            let payload = self.corpus.warm[position];
            match &self.reference.get(payload as usize) {
                Some(Some(expected)) => self.wrong += (answer.predictions != *expected) as u64,
                _ if position < self.corpus.warm_barrier || position.is_multiple_of(4) => {
                    self.kept.push((payload, answer.clone()))
                }
                _ => {}
            }
        }
    }

    /// Checks one timed answer; `position` counts from the window's start.
    pub fn timed_answer(&mut self, position: usize, payload: u32, answer: JobOutput) {
        self.answered += 1;
        self.hits += answer.cache_hit as u64;
        let expect_hit = match self.spec.hits {
            Hits::Never => false,
            Hits::Always => true,
            Hits::Listed => self.corpus.resend[self.corpus.timed_from + position],
        };
        self.hit_mismatches += (answer.cache_hit != expect_hit) as u64;
        match &self.reference.get(payload as usize) {
            Some(Some(expected)) => self.wrong += (answer.predictions != *expected) as u64,
            _ if position.is_multiple_of(SAMPLE_EVERY) => self.kept.push((payload, answer)),
            _ => {}
        }
    }

    /// Re-derives the kept answers; call after the timed window.
    pub fn rederive_kept(&mut self) {
        for (payload, answer) in std::mem::take(&mut self.kept) {
            let aig = self.corpus.payloads[payload as usize].materialize();
            let expected = sut::predict(self.model, &aig);
            let mut adders = sut::extract(&aig, &expected);
            sut::lsb_correction(&aig, &mut adders);
            let same = answer.predictions == expected && answer.adders.as_ref() == Some(&adders);
            self.wrong += !same as u64;
        }
    }

    /// Whether the cache answered what the workload is defined to get:
    /// exactly the listed jobs, or, for the all-hit workload, at least 99.9%
    /// (a linger-window race may coalesce differently once in a while).
    pub fn hits_as_defined(&self) -> bool {
        match self.spec.hits {
            Hits::Always => self.hits as f64 >= 0.999 * self.answered as f64,
            Hits::Never | Hits::Listed => self.hit_mismatches == 0,
        }
    }
}

/// An original's predictions renumbered onto its twin.
fn carry_over(original: &Predictions, node_of: &[u32]) -> Predictions {
    let n = node_of.len();
    let mut twin = Predictions {
        root_leaf: vec![0; n],
        is_xor: vec![false; n],
        is_maj: vec![false; n],
    };
    for (i, &t) in node_of.iter().enumerate() {
        twin.root_leaf[t as usize] = original.root_leaf[i];
        twin.is_xor[t as usize] = original.is_xor[i];
        twin.is_maj[t as usize] = original.is_maj[i];
    }
    twin
}

/// Truth-based quality of the served answers for the workload's distinct
/// subjects (renumbered twins included), pooled over their nodes and adders.
pub struct Quality {
    /// Minimum over the three tasks of pooled node accuracy.
    pub accuracy_min: f64,
    /// Exact adders found in the served output / exact adders.
    pub adders_recovered_share: f64,
}

pub fn quality(corpus: &Corpus, warm_answers: &[Option<JobOutput>]) -> Option<Quality> {
    let mut correct = [0.0f64; 3];
    let (mut nodes, mut recovered, mut adders_total) = (0usize, 0usize, 0usize);
    for &position in &corpus.distinct {
        let answer = warm_answers[position].as_ref()?;
        let aig = corpus.payloads[corpus.warm[position] as usize].materialize();
        let truth = sut::exact_analyze(&aig);
        let (accuracy, n) = sut::score(&answer.predictions, &truth);
        for (c, a) in correct.iter_mut().zip(accuracy) {
            *c += a * n as f64;
        }
        nodes += n;
        let served = match &answer.adders {
            Some(adders) => adders.clone(),
            None => {
                let mut adders = sut::extract(&aig, &answer.predictions);
                sut::lsb_correction(&aig, &mut adders);
                adders
            }
        };
        let (found, total) = sut::adders_recovered(&served, &truth);
        recovered += found;
        adders_total += total;
    }
    Some(Quality {
        accuracy_min: correct.iter().fold(f64::INFINITY, |m, &c| m.min(c)) / nodes.max(1) as f64,
        adders_recovered_share: recovered as f64 / adders_total.max(1) as f64,
    })
}
