//! The two kinds of run: end-to-end with tracing off, and the traced run
//! (replay + traced serve) that gives the per-layer numbers.

use crate::check::{self, Checker};
use crate::loadgen::{self, Outcome, Source};
use crate::sut::{self, Json, PeakAlloc, ServeStats};
use crate::trace::{self, Total, Tracer};
use crate::workloads::Spec;
use crate::{host, replay, stats};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `jobs_per_s` is the median rate of this many equal-work segments of the
/// window.
const SEGMENTS: usize = 5;
/// Diagnostics only: a finer cut, and the share of its fastest segments that
/// make the "quiet part" (what the window read while nothing disturbed it).
const FINE_SEGMENTS: usize = 20;
const QUIET_SHARE: f64 = 0.25;
/// `latency_tail_ms` is the [`TAIL_ACROSS_SEGMENTS`] quantile (the lower
/// quartile) of the tails of about this many equal-work segments, half a
/// second each; of fewer, longer ones where a segment would be too short for
/// its percentile; and the whole window's percentile below
/// [`MIN_TAIL_SEGMENTS`] of them.
const TAIL_SEGMENTS: usize = 30;
const TAIL_ACROSS_SEGMENTS: f64 = 0.25;
const MIN_TAIL_SEGMENTS: usize = 4;
/// `failed_share` reads this much above failed / attempted: the driver
/// compares metrics as shares of a median, and the share of failures on a
/// healthy run is exactly 0.
const FAILED_SHARE_FLOOR: f64 = 1e-6;
/// Spans a traced run can hold (about 70 MB of address space, touched only
/// as far as it fills).
const SPAN_CAPACITY: usize = 1 << 20;
/// Share of `--seconds` each of the two serve windows of a traced run gets.
const TRACED_WINDOW_SHARE: f64 = 0.3;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What a run reports: the contract's four fields plus details for people.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub details: Json,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The timing metrics of one window: throughput is the median of
/// [`SEGMENTS`] equal-work segments and the median latency is over every
/// answered job, so a stall, whoever causes it, is in those numbers. The tail
/// is the one metric that looks past the host: a neighbour that takes a vCPU
/// for more than a tenth of a window moves a whole-window p90 out of the
/// program's tail into its own (15-29% between the quartiles of identical
/// runs), so the metric is the lower quartile of the per-segment tails, what
/// the tail reads in the stretches nothing outside disturbed. A slow share
/// of jobs that is the program's own (every n-th job, every miss) is in
/// every segment and so in this number; one long stall is not, and shows in
/// `whole_tail_ms` and the throughput instead (README, "Why the tail is read
/// per segment").
struct Timing {
    jobs_per_s: f64,
    knodes_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    p99_ms: f64,
    tail_percentile: f64,
    samples: usize,
    /// Segments `tail_ms` is the lower quartile of; 0 when it is the whole
    /// window's percentile.
    tail_segments: usize,
    /// `tail_percentile` over every answered job (diagnostic).
    whole_tail_ms: f64,
    /// Jobs per second of every segment, in window order (diagnostic).
    segment_rates: Vec<f64>,
    /// Jobs per second over the fastest quarter of [`FINE_SEGMENTS`]
    /// segments (diagnostic: far above `jobs_per_s` means a disturbed run).
    quiet_jobs_per_s: f64,
}

fn timing(window: &Outcome, spec: &Spec) -> Timing {
    let cut = stats::segments(&window.done_ns, SEGMENTS, spec.align);
    let segment_rates: Vec<f64> = cut.iter().map(|s| s.rate()).collect();
    let (jobs_per_s, knodes_per_s) = stats::median_segment(&cut).map_or((0.0, 0.0), |s| {
        let nodes: u64 = window.nodes[s.jobs.clone()].iter().sum();
        (s.rate(), nodes as f64 / s.seconds() / 1e3)
    });
    let quiet = stats::quiet(
        stats::segments(&window.done_ns, FINE_SEGMENTS, spec.align),
        QUIET_SHARE,
    );
    let quiet_seconds: f64 = quiet.iter().map(|s| s.seconds()).sum();
    let quiet_jobs: usize = quiet.iter().map(|s| s.jobs.len()).sum();

    let mut latency = window.latency_ns.clone();
    latency.sort_unstable();
    let samples = latency.len();
    let at = |q: f64| {
        if samples == 0 {
            0.0
        } else {
            ms(stats::quantile(&latency, q))
        }
    };
    // Segments long enough for the workload's percentile, whole batches each.
    let shortest = stats::min_samples(spec.tail).div_ceil(spec.align) * spec.align;
    let tail_segments = (samples / shortest).min(TAIL_SEGMENTS);
    let (tail_percentile, tail_ms, tail_segments) = if tail_segments >= MIN_TAIL_SEGMENTS {
        let cut = stats::segments(&window.done_ns, tail_segments, spec.align);
        let tails = stats::segment_quantiles(&window.latency_ns, &cut, spec.tail);
        let tail = stats::quantile(&tails, TAIL_ACROSS_SEGMENTS);
        (spec.tail, ms(tail), tails.len())
    } else {
        let q = stats::tail_quantile(samples, spec.tail).unwrap_or(0.5);
        (q, at(q), 0)
    };
    Timing {
        jobs_per_s,
        knodes_per_s,
        p50_ms: at(0.50),
        tail_ms,
        p99_ms: at(0.99),
        tail_percentile,
        samples,
        tail_segments,
        whole_tail_ms: at(tail_percentile),
        segment_rates,
        quiet_jobs_per_s: quiet_jobs as f64 / quiet_seconds.max(1e-9),
    }
}

fn failures(window: &Outcome) -> u64 {
    window.refused + window.unanswered
}

/// `jobs_submitted == jobs + expired + dropped + failed`, and the server
/// admitted exactly what the generator got tickets for.
fn accounts_close(stats: &ServeStats, passes: &[&Outcome]) -> bool {
    let tickets: u64 = passes.iter().map(|p| p.attempted - p.refused).sum();
    stats.jobs_submitted == stats.jobs + stats.jobs_expired + stats.jobs_dropped + stats.jobs_failed
        && stats.jobs_submitted == tickets
}

fn run_header(spec: &Spec, opts: &Options, digest: u64) -> Vec<(String, Json)> {
    vec![
        ("host".into(), host::fingerprint()),
        ("workload".into(), Json::str(spec.name)),
        ("seed".into(), Json::u64(opts.seed)),
        ("seconds".into(), Json::Num(opts.seconds)),
        (
            "job_list_digest".into(),
            Json::str(format!("{digest:016x}")),
        ),
    ]
}

/// The end-to-end run: tracing off.
pub fn untraced(spec: &Spec, opts: &Options) -> Report {
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..if opts.smoke { 1 } else { SETUP_REPS } {
        // Tearing the previous set-up down is not part of the next one.
        if let Some((prepared, server, _, _)) = live.take() {
            sut::shutdown(server);
            drop(prepared);
        }
        let started = Instant::now();
        let prepared = loadgen::prepare(spec, opts.seed, opts.seconds, opts.smoke);
        let (server, warm_answers, warm) = loadgen::start_and_warm(&prepared, spec, false);
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((prepared, server, warm_answers, warm));
    }
    let (prepared, server, warm_answers, warm) = live.expect("at least one set-up");
    let corpus = &prepared.corpus;
    let mut checker = Checker::new(spec, &prepared.model, corpus);
    checker.warm_answers(&warm_answers);

    PeakAlloc::reset_peak();
    let timed = loadgen::drive(
        &server,
        spec,
        corpus,
        Source::Timed(Duration::from_secs_f64(opts.seconds)),
        None,
        |position, payload, answer| checker.timed_answer(position, payload, answer),
    );
    // The program's and its inputs' high-water mark, without the
    // generator's own per-job records (which grow with `--seconds`).
    let peak_heap = PeakAlloc::peak().saturating_sub(timed.buffer_bytes);
    let stats = sut::shutdown(server);

    checker.rederive_kept();
    let quality = check::quality(corpus, &warm_answers);
    let failed = failures(&warm) + failures(&timed) + checker.wrong;
    let correct = failed == 0
        && !timed.latency_ns.is_empty()
        && quality.is_some()
        && checker.hits_as_defined()
        && accounts_close(&stats, &[&warm, &timed]);

    let t = timing(&timed, spec);
    let quality = quality.unwrap_or(check::Quality {
        accuracy_min: 0.0,
        adders_recovered_share: 0.0,
    });
    let attempted = warm.attempted + timed.attempted;
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("jobs_per_s", t.jobs_per_s),
        ("knodes_per_s", t.knodes_per_s),
        ("latency_p50_ms", t.p50_ms),
        ("latency_tail_ms", t.tail_ms),
        (
            "failed_share",
            failed as f64 / attempted.max(1) as f64 + FAILED_SHARE_FLOOR,
        ),
        ("accuracy_min", quality.accuracy_min),
        ("adders_recovered_share", quality.adders_recovered_share),
        ("peak_heap_mib", peak_heap as f64 / (1u64 << 20) as f64),
    ];
    let mut details = run_header(spec, opts, corpus.digest());
    details.extend([
        (
            "setup_s_each".into(),
            Json::arr(setup_s.iter().map(|&s| Json::Num(s))),
        ),
        ("fit_s".into(), Json::Num(prepared.fit_s)),
        ("warm_jobs".into(), Json::u64(warm.attempted)),
        ("timed_jobs".into(), Json::u64(timed.attempted)),
        (
            "timed_window_s".into(),
            Json::Num(timed.elapsed_ns as f64 / 1e9),
        ),
        (
            "jobs_per_s_segments".into(),
            Json::arr(t.segment_rates.iter().map(|&r| Json::Num(r))),
        ),
        (
            "jobs_per_s_quiet_quarter".into(),
            Json::Num(t.quiet_jobs_per_s),
        ),
        ("latency_samples".into(), Json::uint(t.samples)),
        (
            "latency_tail_percentile".into(),
            Json::Num(t.tail_percentile * 100.0),
        ),
        ("latency_tail_segments".into(), Json::uint(t.tail_segments)),
        (
            "latency_tail_whole_window_ms".into(),
            Json::Num(t.whole_tail_ms),
        ),
        ("loadgen.latency_p99_ms".into(), Json::Num(t.p99_ms)),
        (
            "transfer_mismatch_share".into(),
            Json::Num(checker.transfer_mismatch_share),
        ),
        ("cache_hits_seen".into(), Json::u64(checker.hits)),
        ("hit_mismatches".into(), Json::u64(checker.hit_mismatches)),
        ("wrong_answers".into(), Json::u64(checker.wrong)),
        ("serve_stats".into(), sut::stats_json(&stats)),
    ]);
    Report {
        correct,
        attempted,
        failed,
        metrics,
        details: Json::Obj(details),
    }
}

fn per(total: u64, work: u64) -> f64 {
    if work == 0 {
        0.0
    } else {
        total as f64 / work as f64
    }
}

/// The traced run. Its numbers never feed an end-to-end metric.
pub fn traced(spec: &Spec, opts: &Options, out_dir: &Path) -> Report {
    let calibrate = if opts.smoke { 0.02 } else { 0.4 };
    let fma = host::fma_gflop_per_s(calibrate);
    let triad = host::triad_gb_per_s(calibrate);

    let prepared = loadgen::prepare(spec, opts.seed, opts.seconds, opts.smoke);
    let corpus = &prepared.corpus;
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let replayed = replay::run(spec, &prepared, &mut tracer, out_dir, opts.smoke);

    let window = Duration::from_secs_f64(opts.seconds * TRACED_WINDOW_SHARE);
    let mut checker = Checker::new(spec, &prepared.model, corpus);

    // Tracing off, for the overhead comparison and the serve-layer overhead.
    let (server, warm_answers, warm_plain) = loadgen::start_and_warm(&prepared, spec, false);
    checker.warm_answers(&warm_answers);
    let plain = loadgen::drive(
        &server,
        spec,
        corpus,
        Source::Timed(window),
        None,
        |position, payload, answer| checker.timed_answer(position, payload, answer),
    );
    let plain_stats = sut::shutdown(server);

    // Tracing on: generator spans, per-layer forward timing in the server.
    let (server, warm_answers, warm_traced) = loadgen::start_and_warm(&prepared, spec, true);
    checker.warm_answers(&warm_answers);
    let before = sut::metrics_reader(&server);
    let serve_spans_from = tracer.spans().len();
    let with_spans = loadgen::drive(
        &server,
        spec,
        corpus,
        Source::Timed(window),
        Some(&mut tracer),
        |position, payload, answer| checker.timed_answer(position, payload, answer),
    );
    let after = sut::metrics_reader(&server);
    let traced_stats = sut::shutdown(server);
    checker.rederive_kept();

    let mut missing: Vec<&str> = Vec::new();
    // `(sum, count)` a server histogram grew by over the traced window. One
    // this server no longer has reads as 0 and is listed in the trace file's
    // header; it must not take the run down.
    let mut grown = |name: &'static str| match (before(name).0, after(name).0) {
        (Some(b), Some(a)) => (a.sum - b.sum, a.count - b.count),
        _ => {
            missing.push(name);
            (0, 0)
        }
    };
    let mean = |(sum, count): (u64, u64)| per(sum, count);
    let counted = |name: &str| after(name).1 - before(name).1;

    let serve_path = trace::totals(&tracer.spans()[..replayed.serve_path_spans]);
    let alone = trace::totals(&tracer.spans()[replayed.serve_path_spans..serve_spans_from]);
    let of = |totals: &std::collections::BTreeMap<&'static str, Total>, name: &str| {
        totals.get(name).copied().unwrap_or_default()
    };
    let ns_per_node = |t: Total| per(t.total_ns, t.work.nodes);
    let forward = of(&serve_path, "gnn.forward");
    let stage = |name: &str| per(of(&serve_path, name).total_ns, forward.work.nodes);
    let predict = of(&serve_path, "core.predict_batch");
    let aggregate = of(&alone, "gnn.mean_aggregate");
    let layer = of(&alone, "gnn.sage_layer");
    let gemm_flops =
        2.0 * layer.work.rows as f64 * 2.0 * replayed.hidden as f64 * replayed.hidden as f64;
    let exact = of(&alone, "exact.analyze");
    let fastest = |name: &str| {
        let calls = tracer.spans().iter().filter(|s| s.name == name);
        calls.map(|s| s.end_ns - s.start_ns).min().unwrap_or(0)
    };
    let plain_timing = timing(&plain, spec);
    // Tracing overhead is the program's; the quiet parts of the two short
    // windows show it without the host (whole-window rates of identical
    // 4.5 s windows differ by up to 13% on their own).
    let plain_rate = plain_timing.quiet_jobs_per_s;
    let traced_rate = timing(&with_spans, spec).quiet_jobs_per_s;
    let wall_us = with_spans.elapsed_ns as f64 / 1e3;
    let stage_us = [
        "stage_signature_hash_micros",
        "stage_batch_assemble_micros",
        "stage_gnn_forward_micros",
        "stage_prediction_split_micros",
    ]
    .map(|name| grown(name).0 as f64);
    let stages = stage_us.map(|us| us / wall_us.max(1.0));
    let jobs_done = counted("serve_jobs_completed_total").max(1) as f64;
    let g = with_spans.generator;
    let busy_share = 1.0 - per(g.wait_ns, with_spans.elapsed_ns);

    let metrics = vec![
        ("gnn.forward.ns_per_node", ns_per_node(forward)),
        ("gnn.sage0.ns_per_node", stage("gnn.sage0")),
        ("gnn.sage_rest.ns_per_node", stage("gnn.sage_rest")),
        ("gnn.shared.ns_per_node", stage("gnn.shared")),
        ("gnn.heads.ns_per_node", stage("gnn.heads")),
        (
            "gnn.mean_aggregate.ns_per_edge",
            per(aggregate.total_ns, aggregate.work.edges),
        ),
        (
            "gnn.mean_aggregate.gb_per_s",
            per(aggregate.work.bytes, aggregate.total_ns),
        ),
        ("gnn.sage_layer.ns_per_node", ns_per_node(layer)),
        (
            "gnn.fused_gemm.gflop_per_s",
            gemm_flops / layer.total_ns.saturating_sub(aggregate.total_ns).max(1) as f64,
        ),
        (
            "core.assemble.ns_per_node",
            ns_per_node(of(&serve_path, "core.assemble")),
        ),
        (
            "core.features.ns_per_node",
            ns_per_node(of(&serve_path, "core.features")),
        ),
        (
            "core.graph_build.ns_per_node",
            ns_per_node(of(&serve_path, "core.graph_build")),
        ),
        (
            "core.decode_split.ns_per_node",
            per(predict.self_ns, predict.work.nodes),
        ),
        (
            "core.extract.ns_per_node",
            ns_per_node(of(&serve_path, "core.extract")),
        ),
        (
            "core.lsb_correction.ns_per_node",
            ns_per_node(of(&serve_path, "core.lsb_correction")),
        ),
        ("core.fit.s", prepared.fit_s),
        ("core.snapshot_save.us", replayed.snapshot_us[0]),
        ("core.snapshot_load.us", replayed.snapshot_us[1]),
        ("core.snapshot_load_mmap.us", replayed.snapshot_us[2]),
        (
            "aig.aiger_read.ns_per_node",
            ns_per_node(of(&serve_path, "aig.aiger_read")),
        ),
        (
            "aig.node_hashes.ns_per_node",
            ns_per_node(of(&serve_path, "aig.node_hashes")),
        ),
        (
            "serve.signature.ns_per_node",
            ns_per_node(of(&serve_path, "serve.signature")),
        ),
        ("serve.cache_probe.ns", {
            let probe = of(&serve_path, "serve.cache_probe");
            per(probe.total_ns, probe.calls)
        }),
        (
            "serve.cache_resolve.ns_per_node",
            ns_per_node(of(&serve_path, "serve.cache_resolve")),
        ),
        (
            "serve.cache_insert.ns_per_node",
            ns_per_node(of(&serve_path, "serve.cache_insert")),
        ),
        ("serve.submit.ns", per(g.submit_ns, with_spans.attempted)),
        (
            "loadgen.clone.ns_per_node",
            per(g.materialize_ns, g.materialize_nodes),
        ),
        ("loadgen.busy_share", busy_share),
        (
            "serve.queue_wait.us_mean",
            mean(grown("stage_queue_wait_micros")),
        ),
        ("serve.linger.us_mean", mean(grown("stage_linger_micros"))),
        (
            "serve.admission.us_mean",
            mean(grown("stage_admission_micros")),
        ),
        ("serve.batch_size.mean", mean(grown("batch_size"))),
        ("serve.queue_depth.mean", mean(grown("queue_depth"))),
        ("serve.stage_hash.share", stages[0]),
        ("serve.stage_assemble.share", stages[1]),
        ("serve.stage_forward.share", stages[2]),
        ("serve.stage_split.share", stages[3]),
        ("serve.stage_rest.share", 1.0 - stages.iter().sum::<f64>()),
        (
            "serve.forward_passes_per_job",
            counted("serve_forward_passes_total") as f64 / jobs_done,
        ),
        (
            "serve.cache_hit_share",
            counted("serve_cache_hits_total") as f64 / jobs_done,
        ),
        (
            "serve.cache_transfer_share",
            counted("cache_hits_transferred_total") as f64 / jobs_done,
        ),
        (
            "serve.transfer_mismatch_share",
            checker.transfer_mismatch_share,
        ),
        (
            "serve.unanswered",
            (traced_stats.jobs_submitted - traced_stats.jobs) as f64,
        ),
        ("replay.cache_hit_share", replayed.hit_share),
        (
            "serve.overhead.us_per_job",
            (wall_us - stage_us[1..].iter().sum::<f64>()) / jobs_done,
        ),
        (
            "gnn.parallel_speedup",
            per(
                fastest("replay.model_1_thread"),
                fastest("replay.model_2_threads"),
            ),
        ),
        ("exact.analyze.ns_per_node", ns_per_node(exact)),
        (
            "exact.speedup",
            per(exact.total_ns, of(&alone, "replay.reasoner_alone").total_ns),
        ),
        ("host.fma_gflop_per_s", fma),
        ("host.triad_gb_per_s", triad),
        (
            "trace.overhead_share",
            1.0 - traced_rate / plain_rate.max(1e-9),
        ),
        ("loadgen.latency_p99_ms", plain_timing.p99_ms),
    ];

    let passes = [&warm_plain, &plain, &warm_traced, &with_spans];
    let failed = passes.iter().map(|p| failures(p)).sum::<u64>() + checker.wrong;
    // A generator that is busy most of the time measures itself, not the
    // server; only the all-hit workload is allowed to be generator-bound.
    let generator_idle_enough =
        opts.smoke || spec.hits == crate::workloads::Hits::Always || busy_share < 0.5;
    let correct = failed == 0
        && checker.hits_as_defined()
        && accounts_close(&plain_stats, &[&warm_plain, &plain])
        && accounts_close(&traced_stats, &[&warm_traced, &with_spans])
        && generator_idle_enough;

    let mut header = run_header(spec, opts, corpus.digest());
    header.extend([
        (
            "note".into(),
            Json::str(
                "FLOPs and bytes are computed from shapes (2*rows*2h*h per SAGE layer; \
                 edges*h*4 read + rows*h*4 written + CSR index bytes per aggregation), not measured",
            ),
        ),
        (
            "metrics_missing_in_server".into(),
            Json::arr(missing.iter().map(|&m| Json::str(m))),
        ),
        ("replay_jobs".into(), Json::uint(replayed.jobs)),
        ("plain_window_jobs".into(), Json::u64(plain.attempted)),
        ("traced_window_jobs".into(), Json::u64(with_spans.attempted)),
        ("generator_idle_enough".into(), Json::Bool(generator_idle_enough)),
        ("wrong_answers".into(), Json::u64(checker.wrong)),
        ("hit_mismatches".into(), Json::u64(checker.hit_mismatches)),
        ("plain_serve_stats".into(), sut::stats_json(&plain_stats)),
        ("traced_serve_stats".into(), sut::stats_json(&traced_stats)),
        (
            "span_totals".into(),
            Json::Obj(
                trace::totals(tracer.spans())
                    .into_iter()
                    .map(|(name, t)| {
                        let fields = [
                            ("calls", Json::u64(t.calls)),
                            ("total_ns", Json::u64(t.total_ns)),
                            ("self_ns", Json::u64(t.self_ns)),
                            ("nodes", Json::u64(t.work.nodes)),
                        ];
                        (name.to_string(), Json::obj(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    let header = Json::Obj(header);
    let trace_path = out_dir.join(format!("{}.trace.json", spec.name));
    if let Err(e) = trace::write_file(&trace_path, &header, tracer.spans(), tracer.dropped) {
        eprintln!("gamora-perf: could not write {}: {e}", trace_path.display());
    }
    Report {
        correct,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        metrics,
        details: header,
    }
}
