//! Set-up and the closed-loop load generator.
//!
//! One generator thread keeps `clients` jobs in flight: it submits until the
//! window is full, then waits for the oldest ticket. With one server worker
//! answers come back in submission order, so waiting for the oldest never
//! holds a finished job back for long.

use crate::sut::{self, GamoraReasoner, JobOutput, ServeConfig, Server};
use crate::trace::{Tracer, Work, NO_PARENT};
use crate::workloads::{self, Corpus, Spec};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A trained model and the generated inputs of one workload.
pub struct Prepared {
    pub model: Arc<GamoraReasoner>,
    pub corpus: Corpus,
    pub fit_s: f64,
}

/// Trains the workload's model and generates its inputs.
pub fn prepare(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Prepared {
    let recipe = workloads::recipe(spec, smoke);
    let started = Instant::now();
    let train: Vec<_> = recipe
        .train
        .iter()
        .map(|&(kind, bits)| sut::multiplier(kind, bits))
        .collect();
    let refs: Vec<_> = train.iter().collect();
    let model = Arc::new(sut::fit(recipe.depth, &refs, recipe.epochs));
    let fit_s = started.elapsed().as_secs_f64();
    Prepared {
        model,
        corpus: workloads::build(spec, seed, seconds, smoke),
        fit_s,
    }
}

pub fn serve_config(spec: &Spec, layer_timing: bool) -> ServeConfig {
    ServeConfig {
        max_batch: spec.max_batch,
        workers: 1,
        cache_capacity: spec.cache_capacity,
        linger_micros: spec.linger_micros,
        intra_threads: spec.intra_threads,
        layer_timing,
        ..ServeConfig::default()
    }
}

/// Starts a server and sends it the warm-up pass; returns the server and
/// the warm-up's answers in list order.
pub fn start_and_warm(
    prepared: &Prepared,
    spec: &Spec,
    layer_timing: bool,
) -> (Server, Vec<Option<JobOutput>>, Outcome) {
    let server = sut::server_start(&prepared.model, serve_config(spec, layer_timing));
    let mut answers: Vec<Option<JobOutput>> = Vec::new();
    answers.resize_with(prepared.corpus.warm.len(), || None);
    let outcome = drive(
        &server,
        spec,
        &prepared.corpus,
        Source::Warm,
        None,
        |pos, _, out| answers[pos] = Some(out),
    );
    (server, answers, outcome)
}

/// Which jobs a [`drive`] call sends.
#[derive(Copy, Clone)]
pub enum Source {
    /// The whole warm-up list, once.
    Warm,
    /// The timed list from `timed_from` on, submitting until the time is up
    /// (or the list runs out).
    Timed(Duration),
}

/// Nanoseconds the generator spent per activity (traced runs only).
#[derive(Copy, Clone, Debug, Default)]
pub struct GeneratorTimes {
    pub materialize_ns: u64,
    pub materialize_nodes: u64,
    pub submit_ns: u64,
    pub wait_ns: u64,
}

/// What one pass of the generator saw. Per-job vectors are in completion
/// order.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub refused: u64,
    pub unanswered: u64,
    pub latency_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub nodes: Vec<u64>,
    pub elapsed_ns: u64,
    /// Heap bytes of the three per-job vectors above, reserved up front for
    /// the whole list so that the loop never reallocates.
    pub buffer_bytes: usize,
    pub generator: GeneratorTimes,
}

/// Runs the closed loop. `on_answer(position, payload, output)` gets every
/// answered job, `position` counting from the start of the source.
pub fn drive(
    server: &Server,
    spec: &Spec,
    corpus: &Corpus,
    source: Source,
    mut tracer: Option<&mut Tracer>,
    mut on_answer: impl FnMut(usize, u32, JobOutput),
) -> Outcome {
    let (count, time_up) = match source {
        Source::Warm => (corpus.warm.len(), None),
        Source::Timed(d) => (corpus.jobs.len() - corpus.timed_from, Some(d)),
    };
    let payload_at = |pos: usize| match source {
        Source::Warm => corpus.warm[pos],
        Source::Timed(_) => corpus.jobs[corpus.timed_from + pos],
    };
    let mut out = Outcome {
        latency_ns: Vec::with_capacity(count),
        done_ns: Vec::with_capacity(count),
        nodes: Vec::with_capacity(count),
        buffer_bytes: 3 * count * std::mem::size_of::<u64>(),
        ..Outcome::default()
    };
    let mut in_flight = VecDeque::with_capacity(spec.clients);
    let mut next = 0usize;
    let mut submitting = true;
    let opened = Instant::now();
    let since = |t: Instant| t.duration_since(opened).as_nanos() as u64;
    loop {
        while submitting && in_flight.len() < spec.clients {
            if next == count || time_up.is_some_and(|d| opened.elapsed() >= d) {
                submitting = false;
                break;
            }
            if matches!(source, Source::Warm)
                && next == corpus.warm_barrier
                && !in_flight.is_empty()
            {
                break;
            }
            let payload = payload_at(next);
            let span_from = tracer.as_ref().map(|t| t.now());
            let aig = corpus.payloads[payload as usize].materialize();
            let span_mid = tracer.as_ref().map(|t| t.now());
            let submitted = Instant::now();
            let ticket = sut::submit(server, aig, spec.kind);
            if let (Some(t), Some(from), Some(mid)) = (tracer.as_deref_mut(), span_from, span_mid) {
                let end = t.now();
                let work = Work::nodes(corpus.nodes[payload as usize] as usize);
                t.record(
                    "loadgen.materialize",
                    NO_PARENT,
                    next as u32,
                    from,
                    mid,
                    work,
                );
                t.record("serve.submit", NO_PARENT, next as u32, mid, end, work);
                out.generator.materialize_ns += mid - from;
                out.generator.materialize_nodes += work.nodes;
                out.generator.submit_ns += end - mid;
            }
            out.attempted += 1;
            match ticket {
                Some(ticket) => in_flight.push_back((next, payload, submitted, ticket)),
                None => out.refused += 1,
            }
            next += 1;
        }
        let Some((pos, payload, submitted, ticket)) = in_flight.pop_front() else {
            break;
        };
        let span_from = tracer.as_ref().map(|t| t.now());
        let answer = sut::wait(ticket);
        let done = Instant::now();
        if let (Some(t), Some(from)) = (tracer.as_deref_mut(), span_from) {
            let end = t.now();
            t.record(
                "loadgen.wait",
                NO_PARENT,
                pos as u32,
                from,
                end,
                Work::default(),
            );
            out.generator.wait_ns += end - from;
        }
        match answer {
            Some(answer) => {
                out.latency_ns
                    .push(done.duration_since(submitted).as_nanos() as u64);
                out.done_ns.push(since(done));
                out.nodes.push(corpus.nodes[payload as usize]);
                on_answer(pos, payload, answer);
            }
            None => out.unanswered += 1,
        }
    }
    out.elapsed_ns = since(Instant::now());
    out
}
