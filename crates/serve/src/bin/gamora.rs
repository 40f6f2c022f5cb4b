//! The `gamora` command-line front end: train once, serve many.
//!
//! * `gamora train`       — fit a reasoner on generated multipliers and
//!   snapshot it to disk (`.gsnap`).
//! * `gamora infer`       — load a snapshot and serve AIGER netlists
//!   through the micro-batching scheduler, emitting a JSON report.
//! * `gamora bench-serve` — measure serving throughput (AIGs/sec) across
//!   batch sizes, cold (cache off) and hot (cache on).
//! * `gamora mmap-demo`   — N concurrent `infer --mmap` processes over one
//!   snapshot: /proc/self/smaps shows a single physical weight copy.
//!
//! Argument parsing is hand-rolled (no external dependencies).

use gamora::{
    score_predictions, GamoraReasoner, ModelDepth, Predictions, ReasonerConfig, TrainConfig,
};
use gamora_aig::{aiger, Aig};
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_obs::Snapshot;
use gamora_serve::report::{histogram_json, serve_stats_json, stages_json, Json};
use gamora_serve::router::{RetryPolicy, ShardRouter};
use gamora_serve::scheduler::{
    AnalysisKind, JobOutput, JobTicket, ServeConfig, ServeError, ServeStats, Server, SubmitError,
};
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
gamora — persistent-model inference service for AIG symbolic reasoning

USAGE:
    gamora train --out MODEL.gsnap [--bits 3,4,5,6,7,8] [--epochs 300]
                 [--kind csa|booth|dadda] [--depth shallow|deep|LxH]
                 [--seed N]
    gamora infer --model MODEL.gsnap [--mmap] [--extract] [--score] [--batch N]
                 [--workers N] [--cache N] [--queue-cap N] [--linger MICROS]
                 [--compact] [--layer-times] [--metrics-out PATH]
                 [--intra-threads N] FILE.aag [FILE.aig ...]
                 (--cache 0 disables the structural-hash cache)
    gamora bench-serve --model MODEL.gsnap [--bits 16 | --bits N1,N2,...]
                       [--kind csa|booth|dadda] [--count 64] [--mmap]
                       [--batches 1,8,64] [--workers N] [--shards N]
                       [--linger MICROS] [--queue-cap N] [--deadline MICROS]
                       [--layer-times] [--metrics-out PATH]
                       [--intra-threads N] [--chaos SPEC] [--faults SPEC]
    gamora mmap-demo --model MODEL.gsnap [--procs 4] [--bits 8]
                     [--kind csa|booth|dadda]

--mmap memory-maps the snapshot instead of reading it: the reader
validates the header in O(header) and borrows every weight tensor
straight out of the mapping (zero copies, biases excepted), so cold
start is decoupled from model size and concurrent processes share one
physical weight copy through the page cache. Where mapping is not
possible the owned reader runs instead (`cold_start.mapped` reports
which path served the load). Reports gain a `cold_start` block: load
microseconds, resident (owned) weight bytes, first-inference latency —
and, when mapped, a `weight_mapping` block with the /proc/self/smaps
shared/private page split of the snapshot mapping. Replace a snapshot
that may be mapped by renaming a new file over it (`gamora train --out`
does), never by rewriting it in place.

mmap-demo spawns N concurrent `gamora infer --mmap` children over the
same snapshot and aggregates their `weight_mapping` blocks: the shared
page counts show the weight payload resident once, not N times.

bench-serve extras:
    --bits N1,N2,...  several widths run a scaling sweep: every width gets
                      a cold nodes/sec measurement with the thread pool and
                      with kernels forced single-threaded, reported in the
                      JSON `scaling` block (the first width still drives
                      the classic cold/hot batch-size rows)
    --kind K          subject multiplier architecture: csa (default),
                      booth, or dadda
    --intra-threads N per-worker kernel/assembly thread budget (0 = auto:
                      the machine budget divided by --workers; also the
                      GAMORA_THREADS-aware knob behind `ServeConfig`)
    --shards N        route through a structural-hash ShardRouter over N
                      per-cache server shards (default 1 = single server);
                      adds a shard-affinity repeat run to the report
    --queue-cap N     bound every queue to N jobs and add a saturation run
                      (4x oversubmission via try_submit; reports Overloaded
                      rejections and the queue high-water mark)
    --deadline MICROS give saturation jobs a time-to-live; expired jobs are
                      rejected without a forward pass
    --linger MICROS   short-batch linger window for batch formation
    --chaos SPEC      run the routed workload twice through the retrying
                      ingress — clean, then with the fault spec armed —
                      and report a `chaos` JSON block (throughput and p99
                      vs the clean twin, worker respawns, quarantines,
                      retries, failed/dropped jobs, fault fires)

fault injection (infer and bench-serve):
    --faults SPEC     arm deterministic fail points for the whole run
                      (overrides the GAMORA_FAULTS environment variable).
                      SPEC is `point:action[:trigger]` clauses joined by
                      ';' — points admission|hash|cache|assemble|forward|
                      split|snapshot|all, actions panic|err|delay(MICROS),
                      triggers every=N|after=N|prob=P[,seed=S].
                      Example: `all:panic:prob=0.05,seed=7`

observability (infer and bench-serve):
    --metrics-out PATH  write the full metric registry (stage latency
                        histograms, cache tiers, counters) as
                        Prometheus-style text to PATH on exit
    --layer-times       also record per-layer GNN forward timings
                        (forward_layer_*_micros histograms)

Reports are JSON on stdout; diagnostics go to stderr. Serve reports
carry a per-stage latency block (p50/p90/p99/p99.9 in microseconds);
bench-serve reports cold and hot stage latencies plus queue-depth and
batch-size distributions, and per-shard stats when --shards > 1.";

fn main() -> ExitCode {
    // Arm fail points from GAMORA_FAULTS before any serving starts;
    // `--faults SPEC` (below) overrides the environment.
    gamora_fault::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        Some("mmap-demo") => cmd_mmap_demo(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Tiny flag parser: `--key value` pairs plus positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--bits",
    "--epochs",
    "--kind",
    "--depth",
    "--seed",
    "--model",
    "--batch",
    "--workers",
    "--count",
    "--batches",
    "--cache",
    "--shards",
    "--linger",
    "--queue-cap",
    "--deadline",
    "--metrics-out",
    "--intra-threads",
    "--faults",
    "--chaos",
    "--procs",
];
const SWITCH_FLAGS: &[&str] = &[
    "--extract",
    "--score",
    "--compact",
    "--quiet",
    "--layer-times",
    "--mmap",
];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if VALUE_FLAGS.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((a.clone(), v.clone()));
            } else if SWITCH_FLAGS.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else if a.starts_with("--") {
                return Err(format!("unknown flag '{a}'"));
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects a number, got '{v}'")),
        }
    }

    fn usize_list_or(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("{key}: bad number '{s}'"))
                })
                .collect(),
        }
    }
}

fn parse_kind(s: &str) -> Result<MultiplierKind, String> {
    match s {
        "csa" => Ok(MultiplierKind::Csa),
        "booth" => Ok(MultiplierKind::Booth),
        "dadda" => Ok(MultiplierKind::Dadda),
        other => Err(format!(
            "--kind expects csa, booth, or dadda; got '{other}'"
        )),
    }
}

fn parse_depth(s: &str) -> Result<ModelDepth, String> {
    match s {
        "shallow" => Ok(ModelDepth::Shallow),
        "deep" => Ok(ModelDepth::Deep),
        custom => {
            let (l, h) = custom
                .split_once(['x', 'X'])
                .ok_or_else(|| format!("--depth expects shallow, deep, or LxH; got '{custom}'"))?;
            let layers = l.parse().map_err(|_| format!("bad layer count '{l}'"))?;
            let hidden = h.parse().map_err(|_| format!("bad hidden width '{h}'"))?;
            Ok(ModelDepth::Custom { layers, hidden })
        }
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let out = flags
        .get("--out")
        .ok_or("train requires --out MODEL.gsnap")?
        .to_string();
    let bits = flags.usize_list_or("--bits", &[3, 4, 5, 6, 7, 8])?;
    let epochs = flags.usize_or("--epochs", 300)?;
    let kind = parse_kind(flags.get("--kind").unwrap_or("csa"))?;
    let depth = parse_depth(flags.get("--depth").unwrap_or("shallow"))?;
    let seed: u64 = match flags.get("--seed") {
        None => ReasonerConfig::default().seed,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed expects a number, got '{v}'"))?,
    };

    let t0 = Instant::now();
    let train_set: Vec<_> = bits.iter().map(|&b| generate_multiplier(kind, b)).collect();
    let refs: Vec<&Aig> = train_set.iter().map(|m| &m.aig).collect();
    let total_nodes: usize = refs.iter().map(|a| a.num_nodes()).sum();
    eprintln!(
        "training on {} {kind:?} multipliers ({total_nodes} total nodes), {epochs} epochs ...",
        refs.len(),
    );
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth,
        seed,
        ..ReasonerConfig::default()
    });
    let fit_started = Instant::now();
    let report = reasoner.fit(
        &refs,
        &TrainConfig {
            epochs,
            log_every: if flags.has("--quiet") { 0 } else { 50 },
            ..TrainConfig::default()
        },
    );
    let fit_seconds = fit_started.elapsed().as_secs_f64();
    reasoner
        .save(&out)
        .map_err(|e| format!("saving '{out}': {e}"))?;

    let json = Json::obj([
        ("command", Json::str("train")),
        ("model", Json::str(&out)),
        ("kind", Json::str(format!("{kind:?}").to_lowercase())),
        ("train_bits", Json::arr(bits.iter().map(|&b| Json::uint(b)))),
        ("epochs", Json::uint(epochs)),
        ("num_params", Json::uint(reasoner.num_params())),
        (
            "final_train_accuracy",
            Json::arr(report.train_accuracy.iter().map(|&a| Json::Num(a))),
        ),
        (
            "final_loss",
            Json::Num(report.epoch_losses.last().copied().unwrap_or(f32::NAN) as f64),
        ),
        // `fit` alone (labelling, every epoch, the closing evaluation),
        // and the same per node of the training set and epoch.
        ("fit_seconds", Json::Num(fit_seconds)),
        (
            "us_per_node_step",
            Json::Num(fit_seconds * 1e6 / (total_nodes * epochs).max(1) as f64),
        ),
        ("wall_seconds", Json::Num(t0.elapsed().as_secs_f64())),
    ]);
    println!("{json}");
    Ok(())
}

fn read_aiger_file(path: &str) -> Result<Aig, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening '{path}': {e}"))?;
    let mut aig =
        aiger::read(BufReader::new(file)).map_err(|e| format!("parsing '{path}': {e}"))?;
    if aig.name().is_empty() {
        aig.set_name(path);
    }
    Ok(aig)
}

/// Honours `--faults SPEC`: arms the fail-point subsystem, overriding
/// any `GAMORA_FAULTS` environment configuration. A no-op when the flag
/// is absent.
fn arm_faults(flags: &Flags) -> Result<(), String> {
    if let Some(spec) = flags.get("--faults") {
        let n = gamora_fault::configure(spec).map_err(|e| format!("--faults: {e}"))?;
        eprintln!("fail points armed: {n} clause(s)");
    }
    Ok(())
}

/// Honours `--metrics-out PATH`: writes the snapshot as Prometheus-style
/// text. A no-op when the flag is absent.
fn write_metrics_out(flags: &Flags, snapshot: &Snapshot) -> Result<(), String> {
    if let Some(path) = flags.get("--metrics-out") {
        std::fs::write(path, snapshot.prometheus())
            .map_err(|e| format!("writing metrics to '{path}': {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// The cold-start observations of one model load (everything except the
/// first-inference latency, which the caller fills in once it has served
/// something).
struct ColdStart {
    mmap: bool,
    mapped: bool,
    file_bytes: u64,
    load_micros: u64,
}

/// Loads the model, honouring `--mmap`: the zero-copy mapped path or the
/// owned reader, both timed the same way.
fn load_model(path: &str, use_mmap: bool) -> Result<(GamoraReasoner, ColdStart), String> {
    if use_mmap {
        let (reasoner, stats) =
            GamoraReasoner::load_mmap(path).map_err(|e| format!("loading '{path}': {e}"))?;
        Ok((
            reasoner,
            ColdStart {
                mmap: true,
                mapped: stats.mapped,
                file_bytes: stats.file_bytes,
                load_micros: stats.load_micros,
            },
        ))
    } else {
        let t0 = Instant::now();
        let reasoner = GamoraReasoner::load(path).map_err(|e| format!("loading '{path}': {e}"))?;
        Ok((
            reasoner,
            ColdStart {
                mmap: false,
                mapped: false,
                file_bytes: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
                load_micros: t0.elapsed().as_micros() as u64,
            },
        ))
    }
}

/// The `cold_start` report block: how the model came up, what it cost,
/// and what the first real forward pass paid (under `--mmap` that first
/// pass absorbs the page faults the O(header) load deferred).
fn cold_start_json(
    cs: &ColdStart,
    resident_weight_bytes: usize,
    first_micros: Option<u64>,
) -> Json {
    Json::obj([
        ("mmap", Json::Bool(cs.mmap)),
        ("mapped", Json::Bool(cs.mapped)),
        ("file_bytes", Json::u64(cs.file_bytes)),
        ("load_micros", Json::u64(cs.load_micros)),
        ("resident_weight_bytes", Json::uint(resident_weight_bytes)),
        (
            "first_inference_micros",
            first_micros.map_or(Json::Null, Json::u64),
        ),
    ])
}

/// Sums the /proc/self/smaps fields of every current-process mapping
/// backed by `path` — the snapshot mapping, under `--mmap`. The
/// shared/private split is the demo's evidence: weight pages touched by
/// several concurrent processes count as `Shared_Clean`, so N servers
/// keep one physical copy. `Json::Null` off Linux or when unmapped.
fn weight_mapping_json(path: &str) -> Json {
    let Ok(full) = std::fs::canonicalize(path) else {
        return Json::Null;
    };
    let needle = full.to_string_lossy().into_owned();
    let Ok(text) = std::fs::read_to_string("/proc/self/smaps") else {
        return Json::Null;
    };
    let mut fields = [
        ("size_kb", "Size:", 0u64),
        ("rss_kb", "Rss:", 0),
        ("shared_clean_kb", "Shared_Clean:", 0),
        ("shared_dirty_kb", "Shared_Dirty:", 0),
        ("private_clean_kb", "Private_Clean:", 0),
        ("private_dirty_kb", "Private_Dirty:", 0),
    ];
    let (mut in_target, mut found) = (false, false);
    for line in text.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        // Mapping headers start with the hex address range; everything
        // else is a `Field:  N kB` attribute of the current mapping.
        if first.contains('-') && first.chars().all(|c| c.is_ascii_hexdigit() || c == '-') {
            in_target = line.ends_with(needle.as_str());
            found |= in_target;
        } else if in_target {
            for (_, prefix, acc) in fields.iter_mut() {
                if let Some(rest) = line.strip_prefix(*prefix) {
                    if let Some(v) = rest.trim().strip_suffix("kB") {
                        *acc += v.trim().parse::<u64>().unwrap_or(0);
                    }
                }
            }
        }
    }
    if !found {
        return Json::Null;
    }
    Json::Obj(
        fields
            .iter()
            .map(|&(key, _, v)| (key.to_string(), Json::u64(v)))
            .collect(),
    )
}

fn class_histogram(preds: &Predictions) -> Json {
    let mut counts = [0usize; 4];
    for &c in &preds.root_leaf {
        counts[(c as usize).min(3)] += 1;
    }
    Json::obj([
        // Class 0 is gamora_exact::RootLeafClass::Other — ordinary logic
        // outside any extracted adder boundary.
        ("other", Json::uint(counts[0])),
        ("root", Json::uint(counts[1])),
        ("leaf", Json::uint(counts[2])),
        ("root_and_leaf", Json::uint(counts[3])),
        (
            "xor",
            Json::uint(preds.is_xor.iter().filter(|&&b| b).count()),
        ),
        (
            "maj",
            Json::uint(preds.is_maj.iter().filter(|&&b| b).count()),
        ),
    ])
}

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let model_path = flags
        .get("--model")
        .ok_or("infer requires --model MODEL.gsnap")?;
    if flags.positional.is_empty() {
        return Err("infer requires at least one AIGER file".into());
    }
    let defaults = ServeConfig::default();
    let max_batch = flags.usize_or("--batch", 8)?;
    let workers = flags.usize_or("--workers", 1)?;
    let cache_capacity = flags.usize_or("--cache", defaults.cache_capacity)?;
    let queue_capacity = flags.usize_or("--queue-cap", defaults.queue_capacity)?;
    let linger_micros = flags.usize_or("--linger", defaults.linger_micros as usize)? as u64;
    let intra_threads = flags.usize_or("--intra-threads", 0)?;
    let kind = if flags.has("--extract") {
        AnalysisKind::ExtractAdders
    } else {
        AnalysisKind::Classify
    };

    arm_faults(&flags)?;
    let (reasoner, cold_start) = load_model(model_path, flags.has("--mmap"))?;
    let resident_weight_bytes = reasoner.resident_weight_bytes();
    let server = Server::start(
        reasoner,
        ServeConfig {
            max_batch,
            workers,
            cache_capacity,
            queue_capacity,
            linger_micros,
            layer_timing: flags.has("--layer-times"),
            intra_threads,
            quarantine_ttl_micros: defaults.quarantine_ttl_micros,
        },
    );
    server.record_snapshot_load(cold_start.load_micros);

    let aigs: Vec<Aig> = flags
        .positional
        .iter()
        .map(|p| read_aiger_file(p))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let outputs = server
        .submit_all(aigs.iter().map(|a| (a.clone(), kind)).collect())
        .map_err(|e| format!("serving failed: {e}"))?;
    let wall = t0.elapsed();

    let mut files = Vec::new();
    for ((path, aig), out) in flags.positional.iter().zip(&aigs).zip(&outputs) {
        let mut fields = vec![
            ("file", Json::str(path)),
            ("nodes", Json::uint(aig.num_nodes())),
            ("inputs", Json::uint(aig.num_inputs())),
            ("ands", Json::uint(aig.num_ands())),
            ("outputs", Json::uint(aig.num_outputs())),
            ("cache_hit", Json::Bool(out.cache_hit)),
            ("latency_micros", Json::uint(out.latency_micros as usize)),
            ("classes", class_histogram(&out.predictions)),
        ];
        if let Some(adders) = &out.adders {
            fields.push(("adders", Json::uint(adders.len())));
        }
        if flags.has("--score") {
            let analysis = gamora_exact::analyze(aig);
            let eval = score_predictions(&out.predictions, &analysis.labels);
            fields.push((
                "accuracy",
                Json::obj([
                    ("root_leaf", Json::Num(eval.task_accuracy[0])),
                    ("xor", Json::Num(eval.task_accuracy[1])),
                    ("maj", Json::Num(eval.task_accuracy[2])),
                    ("mean", Json::Num(eval.mean())),
                ]),
            ));
        }
        files.push(Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }
    let snapshot = server.metrics();
    // Sample smaps while the server (and with it the snapshot mapping)
    // is still alive — shutdown drops the model and unmaps the file.
    let weight_mapping = cold_start.mapped.then(|| weight_mapping_json(model_path));
    let stats = server.shutdown();
    let Json::Obj(mut serving) = serve_stats_json(&stats) else {
        unreachable!("serve_stats_json returns an object")
    };
    serving.push(("wall_seconds".to_string(), Json::Num(wall.as_secs_f64())));
    serving.push(("stages".to_string(), stages_json(&snapshot)));
    write_metrics_out(&flags, &snapshot)?;
    let first_micros = outputs.first().map(|o| o.latency_micros);
    let mut fields = vec![
        ("command", Json::str("infer")),
        ("model", Json::str(model_path)),
        (
            "cold_start",
            cold_start_json(&cold_start, resident_weight_bytes, first_micros),
        ),
    ];
    if let Some(mapping) = weight_mapping {
        fields.push(("weight_mapping", mapping));
    }
    fields.push(("files", Json::Arr(files)));
    fields.push(("serving", Json::Obj(serving)));
    let json = Json::obj(fields);
    if flags.has("--compact") {
        println!("{}", json.compact());
    } else {
        println!("{json}");
    }
    Ok(())
}

/// One serving ingress for the bench: a single server, or a
/// structural-hash shard router — both expose the same submission surface.
enum Ingress {
    Single(Server),
    Sharded(ShardRouter),
}

impl Ingress {
    fn start(reasoner: &Arc<GamoraReasoner>, shards: usize, config: ServeConfig) -> Ingress {
        if shards > 1 {
            Ingress::Sharded(ShardRouter::start(Arc::clone(reasoner), shards, config))
        } else {
            Ingress::Single(Server::start_shared(Arc::clone(reasoner), config))
        }
    }

    fn submit(&self, aig: Aig, kind: AnalysisKind) -> Result<JobTicket, SubmitError> {
        match self {
            Ingress::Single(s) => s.submit(aig, kind),
            Ingress::Sharded(r) => r.submit(aig, kind),
        }
    }

    fn try_submit(&self, aig: Aig, kind: AnalysisKind) -> Result<JobTicket, SubmitError> {
        match self {
            Ingress::Single(s) => s.try_submit(aig, kind),
            Ingress::Sharded(r) => r.try_submit(aig, kind),
        }
    }

    fn try_submit_within(
        &self,
        aig: Aig,
        kind: AnalysisKind,
        ttl: Duration,
    ) -> Result<JobTicket, SubmitError> {
        match self {
            Ingress::Single(s) => s.try_submit_within(aig, kind, ttl),
            Ingress::Sharded(r) => r.try_submit_within(aig, kind, ttl),
        }
    }

    fn submit_all(&self, jobs: Vec<(Aig, AnalysisKind)>) -> Result<Vec<JobOutput>, ServeError> {
        match self {
            Ingress::Single(s) => s.submit_all(jobs),
            Ingress::Sharded(r) => r.submit_all(jobs),
        }
    }

    /// Reports the snapshot load time into the ingress's metrics (once,
    /// whichever ingress observed the load first — see
    /// `Server::record_snapshot_load`).
    fn record_snapshot_load(&self, micros: u64) {
        match self {
            Ingress::Single(s) => s.record_snapshot_load(micros),
            Ingress::Sharded(r) => r.record_snapshot_load(micros),
        }
    }

    /// The merged metric snapshot (all shards, for a sharded ingress).
    fn metrics(&self) -> Snapshot {
        match self {
            Ingress::Single(s) => s.metrics(),
            Ingress::Sharded(r) => r.metrics(),
        }
    }

    fn shutdown(self) -> ServeStats {
        match self {
            Ingress::Single(s) => s.shutdown(),
            Ingress::Sharded(r) => r.shutdown(),
        }
    }
}

fn cmd_bench_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let model_path = flags
        .get("--model")
        .ok_or("bench-serve requires --model MODEL.gsnap")?;
    // Several widths turn the run into a scaling sweep: the first width
    // drives the classic cold/hot batch-size rows (comparable with earlier
    // baselines), every width gets a cold nodes/sec measurement with the
    // thread pool and with kernels forced single-threaded.
    let bits_list = flags.usize_list_or("--bits", &[16])?;
    let &bits = bits_list.first().ok_or("--bits needs at least one width")?;
    let kind = parse_kind(flags.get("--kind").unwrap_or("csa"))?;
    let count = flags.usize_or("--count", 64)?;
    let batch_sizes = flags.usize_list_or("--batches", &[1, 8, 64])?;
    let workers = flags.usize_or("--workers", 1)?;
    let shards = flags.usize_or("--shards", 1)?;
    let linger_micros =
        flags.usize_or("--linger", ServeConfig::default().linger_micros as usize)? as u64;
    // 0 keeps the throughput rows unbounded (comparable with earlier
    // baselines); any positive value also triggers the saturation run.
    let queue_cap = flags.usize_or("--queue-cap", 0)?;
    let deadline_micros = flags.usize_or("--deadline", 0)? as u64;
    let intra_threads = flags.usize_or("--intra-threads", 0)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    arm_faults(&flags)?;

    // One model instance serves every configuration: workers share it
    // through the `Arc`, no per-worker (or per-configuration) clones.
    let (loaded, cold_start) = load_model(model_path, flags.has("--mmap"))?;
    let reasoner = Arc::new(loaded);
    let resident_weight_bytes = reasoner.resident_weight_bytes();
    let subject = generate_multiplier(kind, bits);
    // The first forward pass after a cold start: under --mmap this is
    // where the deferred page faults land, so it belongs in the report
    // (and it equalises page-cache state with the owned-load runs before
    // any throughput row is timed).
    let t_first = Instant::now();
    reasoner.predict(&subject.aig);
    let first_micros = t_first.elapsed().as_micros() as u64;
    eprintln!(
        "bench-serve: {count} submissions of a {bits}-bit {kind} multiplier ({} nodes), \
         {shards} shard(s) ...",
        subject.aig.num_nodes()
    );
    let base = ServeConfig {
        workers,
        queue_capacity: queue_cap,
        linger_micros,
        layer_timing: flags.has("--layer-times"),
        intra_threads,
        ..ServeConfig::default()
    };

    let mut rows = Vec::new();
    // Stage-latency accumulators over every batch-size run: cold and hot
    // runs merge separately (their distributions answer different
    // questions — model cost vs cache cost).
    let mut cold_metrics = Snapshot::default();
    let mut hot_metrics = Snapshot::default();
    let mut load_recorded = false;
    for &batch in &batch_sizes {
        // Cold: cache disabled, every submission runs the model.
        let ingress = Ingress::start(
            &reasoner,
            shards,
            ServeConfig {
                max_batch: batch,
                cache_capacity: 0,
                ..base
            },
        );
        if !load_recorded {
            // One load happened for the whole bench: the stage histogram
            // gets exactly one observation, in the first cold snapshot.
            ingress.record_snapshot_load(cold_start.load_micros);
            load_recorded = true;
        }
        let t0 = Instant::now();
        for chunk_start in (0..count).step_by(batch) {
            let n = batch.min(count - chunk_start);
            let jobs = (0..n)
                .map(|_| (subject.aig.clone(), AnalysisKind::Classify))
                .collect();
            ingress
                .submit_all(jobs)
                .map_err(|e| format!("serving failed: {e}"))?;
        }
        let cold = count as f64 / t0.elapsed().as_secs_f64();
        cold_metrics.merge(&ingress.metrics());
        ingress.shutdown();

        // Hot: cache enabled and pre-warmed — the repeated-netlist path.
        let ingress = Ingress::start(
            &reasoner,
            shards,
            ServeConfig {
                max_batch: batch,
                cache_capacity: 16,
                ..base
            },
        );
        ingress
            .submit(subject.aig.clone(), AnalysisKind::Classify)
            .map_err(|e| format!("serving failed: {e}"))?
            .wait()
            .map_err(|e| format!("serving failed: {e}"))?;
        let t0 = Instant::now();
        for chunk_start in (0..count).step_by(batch) {
            let n = batch.min(count - chunk_start);
            let jobs = (0..n)
                .map(|_| (subject.aig.clone(), AnalysisKind::Classify))
                .collect();
            ingress
                .submit_all(jobs)
                .map_err(|e| format!("serving failed: {e}"))?;
        }
        let hot = count as f64 / t0.elapsed().as_secs_f64();
        hot_metrics.merge(&ingress.metrics());
        let stats = ingress.shutdown();
        assert_eq!(
            stats.forward_passes, 1,
            "hot runs must be answered from the cache"
        );

        eprintln!("  batch {batch:>3}: cold {cold:>10.1} AIGs/sec   hot {hot:>12.1} AIGs/sec");
        rows.push(Json::obj([
            ("batch", Json::uint(batch)),
            ("cold_aigs_per_sec", Json::Num(cold)),
            ("hot_aigs_per_sec", Json::Num(hot)),
        ]));
    }

    let mut fields = vec![
        ("command", Json::str("bench-serve")),
        ("model", Json::str(model_path)),
        ("subject_bits", Json::uint(bits)),
        ("subject_kind", Json::str(kind.to_string())),
        ("subject_nodes", Json::uint(subject.aig.num_nodes())),
        ("submissions", Json::uint(count)),
        ("workers", Json::uint(workers)),
        ("shards", Json::uint(shards)),
        (
            "cold_start",
            cold_start_json(&cold_start, resident_weight_bytes, Some(first_micros)),
        ),
        ("rows", Json::Arr(rows)),
        (
            "latency",
            Json::obj([
                ("cold", latency_block(&cold_metrics)),
                ("hot", latency_block(&hot_metrics)),
            ]),
        ),
    ];
    if bits_list.len() > 1 {
        fields.push((
            "scaling",
            bench_scaling_sweep(&reasoner, kind, &bits_list, count, base)?,
        ));
    }
    if shards > 1 {
        fields.push(("sharding", bench_shard_affinity(&reasoner, shards, base)?));
    }
    if queue_cap > 0 {
        fields.push((
            "saturation",
            bench_saturation(
                &reasoner,
                shards,
                base,
                queue_cap,
                deadline_micros,
                &subject.aig,
            )?,
        ));
    }
    if let Some(spec) = flags.get("--chaos") {
        fields.push(("chaos", bench_chaos(&reasoner, shards, base, spec, count)?));
    }
    let mut all_metrics = cold_metrics;
    all_metrics.merge(&hot_metrics);
    write_metrics_out(&flags, &all_metrics)?;
    let json = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    println!("{json}");
    Ok(())
}

/// One cold/hot latency block: the per-stage percentile summaries plus
/// the queue-depth and batch-size distributions of the merged runs.
fn latency_block(metrics: &Snapshot) -> Json {
    let mut fields = vec![("stages".to_string(), stages_json(metrics))];
    for name in ["queue_depth", "batch_size"] {
        if let Some(h) = metrics.histogram(name) {
            fields.push((name.to_string(), histogram_json(h)));
        }
    }
    Json::Obj(fields)
}

/// Scaling sweep over subject widths: for every `--bits` entry, measure
/// the cold serve path (cache off, batch 1) with the thread pool and with
/// kernels forced single-threaded, reporting nodes/sec plus the
/// assembly/forward stage split from the per-stage histograms. This is the
/// "fast at the paper's scale" trajectory: 2.6k-node toys up to
/// million-node multipliers through the same serve path.
fn bench_scaling_sweep(
    reasoner: &Arc<GamoraReasoner>,
    kind: MultiplierKind,
    bits_list: &[usize],
    count: usize,
    base: ServeConfig,
) -> Result<Json, String> {
    let base_nodes = generate_multiplier(kind, bits_list[0]).aig.num_nodes();
    let mut widths = Vec::new();
    for &w in bits_list {
        let subject = generate_multiplier(kind, w);
        let nodes = subject.aig.num_nodes();
        // Keep the total node budget roughly constant across widths so a
        // 256-bit entry submits a few million-node subjects instead of
        // `count` of them.
        let subs = ((count * base_nodes) / nodes.max(1)).clamp(2, count.max(2));
        eprintln!("  scaling {w:>4}-bit {kind}: {nodes} nodes x {subs} cold submissions ...");
        let (pool_nps, pool) = scaling_run(reasoner, base, base.intra_threads, &subject.aig, subs)?;
        let (single_nps, single) = scaling_run(reasoner, base, 1, &subject.aig, subs)?;
        let speedup = pool_nps / single_nps;
        eprintln!(
            "  scaling {w:>4}-bit {kind}: pool {pool_nps:>12.0} nodes/sec   \
             1-thread {single_nps:>12.0} nodes/sec   speedup {speedup:.2}x"
        );
        widths.push(Json::obj([
            ("bits", Json::uint(w)),
            ("nodes", Json::uint(nodes)),
            ("aig_edges", Json::uint(2 * subject.aig.num_ands())),
            ("submissions", Json::uint(subs)),
            ("pool", pool),
            ("single_thread", single),
            ("parallel_speedup", Json::Num(speedup)),
        ]));
    }
    Ok(Json::obj([
        ("kind", Json::str(kind.to_string())),
        (
            "host_threads",
            Json::uint(gamora_gnn::parallel::num_threads()),
        ),
        ("widths", Json::Arr(widths)),
    ]))
}

/// One cold scaling measurement: batch 1, cache off, the given intra-op
/// thread budget. The first submission warms the worker scratch to the
/// subject's high-water mark; the timed submissions then measure the
/// steady state. Returns (nodes/sec, report row).
fn scaling_run(
    reasoner: &Arc<GamoraReasoner>,
    base: ServeConfig,
    intra_threads: usize,
    aig: &Aig,
    subs: usize,
) -> Result<(f64, Json), String> {
    let server = Server::start_shared(
        Arc::clone(reasoner),
        ServeConfig {
            max_batch: 1,
            cache_capacity: 0,
            intra_threads,
            ..base
        },
    );
    server
        .submit(aig.clone(), AnalysisKind::Classify)
        .map_err(|e| format!("serving failed: {e}"))?
        .wait()
        .map_err(|e| format!("serving failed: {e}"))?;
    let t0 = Instant::now();
    server
        .submit_all(
            (0..subs)
                .map(|_| (aig.clone(), AnalysisKind::Classify))
                .collect(),
        )
        .map_err(|e| format!("serving failed: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let metrics = server.metrics();
    server.shutdown();
    let aigs_per_sec = subs as f64 / wall;
    let nodes_per_sec = aigs_per_sec * aig.num_nodes() as f64;
    // p50 rather than mean: the warmup submission is in the histograms
    // and its first-touch growth would skew a mean at small sub counts.
    let stage_p50 = |name: &str| {
        metrics
            .histogram(name)
            .map_or(Json::Null, |h| Json::u64(h.percentile(0.50)))
    };
    let resolved = if intra_threads > 0 {
        intra_threads
    } else {
        (gamora_gnn::parallel::num_threads() / base.workers.max(1)).max(1)
    };
    Ok((
        nodes_per_sec,
        Json::obj([
            ("intra_threads", Json::uint(resolved)),
            ("cold_aigs_per_sec", Json::Num(aigs_per_sec)),
            ("nodes_per_sec", Json::Num(nodes_per_sec)),
            (
                "assemble_micros_p50",
                stage_p50("stage_batch_assemble_micros"),
            ),
            ("forward_micros_p50", stage_p50("stage_gnn_forward_micros")),
            (
                "split_micros_p50",
                stage_p50("stage_prediction_split_micros"),
            ),
        ]),
    ))
}

/// Shard-affinity run: distinct netlists spread over the shards, then
/// every netlist is resubmitted — shard routing must serve **all**
/// repeats from the warm per-shard caches with zero extra forward passes.
fn bench_shard_affinity(
    reasoner: &Arc<GamoraReasoner>,
    shards: usize,
    base: ServeConfig,
) -> Result<Json, String> {
    let router = ShardRouter::start(
        Arc::clone(reasoner),
        shards,
        ServeConfig {
            max_batch: 8,
            cache_capacity: 64,
            ..base
        },
    );
    let subjects: Vec<Aig> = (3..11usize)
        .map(|b| generate_multiplier(MultiplierKind::Csa, b).aig)
        .collect();
    for aig in &subjects {
        router
            .submit(aig.clone(), AnalysisKind::Classify)
            .map_err(|e| format!("warm submission failed: {e}"))?
            .wait()
            .map_err(|e| format!("warm submission failed: {e}"))?;
    }
    let warm_forwards = router.stats().forward_passes;
    let mut repeat_hits = 0usize;
    for aig in &subjects {
        let out = router
            .submit(aig.clone(), AnalysisKind::Classify)
            .map_err(|e| format!("repeat submission failed: {e}"))?
            .wait()
            .map_err(|e| format!("repeat submission failed: {e}"))?;
        if out.cache_hit {
            repeat_hits += 1;
        }
    }
    let per_shard = router.shard_stats();
    let shards_used = per_shard.iter().filter(|s| s.jobs > 0).count();
    // Per-shard stage latencies: each shard keeps a private registry, so
    // this shows whether one shard's cache or queue is running hot.
    let per_shard_stages: Vec<Json> = router.shard_metrics().iter().map(stages_json).collect();
    let stats = router.shutdown();
    let affinity_ok = repeat_hits == subjects.len() && stats.forward_passes == warm_forwards;
    eprintln!(
        "  sharding: {}/{} repeats cache-hit across {shards_used}/{shards} shards used",
        repeat_hits,
        subjects.len()
    );
    if !affinity_ok {
        return Err(format!(
            "shard affinity broken: {repeat_hits}/{} repeats hit, forwards {} -> {}",
            subjects.len(),
            warm_forwards,
            stats.forward_passes
        ));
    }
    Ok(Json::obj([
        ("distinct_graphs", Json::uint(subjects.len())),
        ("repeat_cache_hits", Json::uint(repeat_hits)),
        ("shards_used", Json::uint(shards_used)),
        ("affinity_ok", Json::Bool(affinity_ok)),
        (
            "per_shard_jobs",
            Json::arr(per_shard.iter().map(|s| Json::u64(s.jobs))),
        ),
        (
            "per_shard",
            Json::arr(per_shard.iter().map(serve_stats_json)),
        ),
        ("per_shard_stages", Json::Arr(per_shard_stages)),
    ]))
}

/// Chaos run for `--chaos SPEC`: the same routed workload twice through
/// the retrying ingress — once clean, once with the fault spec armed —
/// so the report shows what self-healing costs (throughput, p99 versus
/// the clean twin) and what it absorbed (respawns, quarantines, retries,
/// failed jobs, fault fires). Distinct multiplier widths cycle through
/// the submissions so a quarantined fingerprint never starves the whole
/// run.
fn bench_chaos(
    reasoner: &Arc<GamoraReasoner>,
    shards: usize,
    base: ServeConfig,
    spec: &str,
    count: usize,
) -> Result<Json, String> {
    let subjects: Vec<Aig> = (3..11usize)
        .map(|b| generate_multiplier(MultiplierKind::Csa, b).aig)
        .collect();
    let policy = RetryPolicy::default();
    let run = |label: &str, armed_spec: Option<&str>| -> Result<Json, String> {
        let router = ShardRouter::start(
            Arc::clone(reasoner),
            shards,
            ServeConfig {
                max_batch: 8,
                cache_capacity: 64,
                ..base
            },
        );
        if let Some(s) = armed_spec {
            gamora_fault::configure(s).map_err(|e| format!("--chaos: {e}"))?;
        }
        let jobs: Vec<(Aig, AnalysisKind)> = (0..count)
            .map(|i| (subjects[i % subjects.len()].clone(), AnalysisKind::Classify))
            .collect();
        let t0 = Instant::now();
        let outcomes = router.submit_all_retrying(jobs, &policy);
        let wall = t0.elapsed().as_secs_f64();
        let fires = if armed_spec.is_some() {
            gamora_fault::disarm();
            gamora_fault::fired_total()
        } else {
            0
        };
        let completed = outcomes.iter().filter(|o| o.is_ok()).count();
        let failed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::AnalysisFailed)))
            .count();
        let dropped = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::JobDropped)))
            .count();
        let metrics = router.metrics();
        let stats = router.shutdown();
        let p99 = metrics
            .histogram("latency_e2e_micros")
            .map_or(Json::Null, |h| {
                if h.is_empty() {
                    Json::Null
                } else {
                    Json::u64(h.percentile(0.99))
                }
            });
        eprintln!(
            "  chaos[{label}]: {completed}/{count} completed in {wall:.2}s \
             (respawns {}, quarantines {}, retries {}, failed {failed}, dropped {dropped})",
            stats.workers_respawned, stats.quarantines, stats.retries
        );
        Ok(Json::obj([
            ("aigs_per_sec", Json::Num(count as f64 / wall)),
            ("completed", Json::uint(completed)),
            ("failed", Json::uint(failed)),
            ("dropped", Json::uint(dropped)),
            ("p99_e2e_micros", p99),
            ("workers_respawned", Json::u64(stats.workers_respawned)),
            ("quarantines", Json::u64(stats.quarantines)),
            ("retries", Json::u64(stats.retries)),
            ("jobs_failed", Json::u64(stats.jobs_failed)),
            ("jobs_dropped", Json::u64(stats.jobs_dropped)),
            ("fault_fires", Json::u64(fires)),
        ]))
    };
    let clean = run("clean", None)?;
    let faulted = run("faulted", Some(spec))?;
    Ok(Json::obj([
        ("spec", Json::str(spec)),
        ("submissions", Json::uint(count)),
        ("clean", clean),
        ("faulted", faulted),
    ]))
}

/// Saturation run: hammer a cold, bounded ingress with 4x its queue
/// capacity via `try_submit`. The bounded queue must shed load
/// (`Overloaded`) instead of growing, the high-water mark must respect
/// the bound, and every admitted job must complete — no hung clients.
fn bench_saturation(
    reasoner: &Arc<GamoraReasoner>,
    shards: usize,
    base: ServeConfig,
    queue_cap: usize,
    deadline_micros: u64,
    subject: &Aig,
) -> Result<Json, String> {
    let ingress = Ingress::start(
        reasoner,
        shards,
        ServeConfig {
            max_batch: 8,
            cache_capacity: 0, // forward pass per job: the queue really backs up
            ..base
        },
    );
    // A single repeated subject always routes to one shard, so this run
    // saturates exactly one bounded queue — the bound under test. Scale
    // attempts by that queue's capacity only, not the shard count.
    let attempts = 4 * queue_cap;
    let ttl = Duration::from_micros(deadline_micros);
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    let t0 = Instant::now();
    for _ in 0..attempts {
        let result = if deadline_micros > 0 {
            ingress.try_submit_within(subject.clone(), AnalysisKind::Classify, ttl)
        } else {
            ingress.try_submit(subject.clone(), AnalysisKind::Classify)
        };
        match result {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded) => rejected += 1,
            Err(e) => return Err(format!("saturation submit failed: {e}")),
        }
    }
    let admitted = tickets.len();
    let (mut completed, mut expired, mut hung) = (0usize, 0usize, 0usize);
    for ticket in &tickets {
        match ticket.wait_timeout(Duration::from_secs(120)) {
            Ok(_) => completed += 1,
            Err(ServeError::DeadlineExpired) => expired += 1,
            Err(ServeError::WaitTimeout) => hung += 1,
            Err(e) => return Err(format!("admitted job lost: {e}")),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = ingress.shutdown();
    eprintln!(
        "  saturation: {attempts} attempts -> {admitted} admitted, {rejected} rejected, \
         {completed} completed, {expired} expired, peak queue {} (cap {queue_cap})",
        stats.peak_queued
    );
    if stats.peak_queued > queue_cap as u64 {
        return Err(format!(
            "queue bound violated: peak {} > capacity {queue_cap}",
            stats.peak_queued
        ));
    }
    if hung > 0 {
        return Err(format!(
            "{hung} admitted jobs never completed (hung clients)"
        ));
    }
    let Json::Obj(mut obj) = Json::obj([
        ("attempts", Json::uint(attempts)),
        ("queue_capacity", Json::uint(queue_cap)),
        ("admitted", Json::uint(admitted)),
        ("rejected_overload", Json::uint(rejected)),
        ("completed", Json::uint(completed)),
        ("expired", Json::uint(expired)),
        ("wall_seconds", Json::Num(wall)),
    ]) else {
        unreachable!()
    };
    obj.push(("stats".to_string(), serve_stats_json(&stats)));
    Ok(Json::Obj(obj))
}

/// Scans a compact JSON text for `"key": <integer>` — enough to lift the
/// smaps numbers out of a child's report without a JSON parser.
fn json_u64_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Multi-process zero-copy demo: N concurrent `gamora infer --mmap`
/// children serve the same snapshot; each reports the /proc/self/smaps
/// shared/private split of its weight mapping. Weight pages touched by
/// several processes at once count as shared — the evidence that the
/// payload is resident once, not once per process. Children disable the
/// prediction cache and submit the subject several times so their
/// mappings stay alive long enough to overlap.
fn cmd_mmap_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let model_path = flags
        .get("--model")
        .ok_or("mmap-demo requires --model MODEL.gsnap")?;
    let procs = flags.usize_or("--procs", 4)?;
    let bits = flags.usize_or("--bits", 8)?;
    let kind = parse_kind(flags.get("--kind").unwrap_or("csa"))?;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }

    // One subject file for every child.
    let subject = generate_multiplier(kind, bits);
    let aag = std::env::temp_dir().join(format!("gamora-mmap-demo-{}.aag", std::process::id()));
    let file = std::fs::File::create(&aag).map_err(|e| format!("writing subject: {e}"))?;
    aiger::write_ascii(&subject.aig, std::io::BufWriter::new(file))
        .map_err(|e| format!("writing subject: {e}"))?;
    let cleanup = || {
        std::fs::remove_file(&aag).ok();
    };

    let exe = std::env::current_exe().map_err(|e| format!("locating gamora binary: {e}"))?;
    eprintln!(
        "mmap-demo: {procs} concurrent `gamora infer --mmap` processes over '{model_path}' \
         ({}-bit {kind} subject, {} nodes) ...",
        bits,
        subject.aig.num_nodes()
    );
    let mut children = Vec::new();
    for _ in 0..procs {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "infer",
            "--model",
            model_path,
            "--mmap",
            "--compact",
            "--cache",
            "0",
        ]);
        for _ in 0..8 {
            cmd.arg(&aag);
        }
        let child = cmd
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning child: {e}"))?;
        children.push(child);
    }

    let mut rows = Vec::new();
    let (mut shared_sum, mut private_sum, mut rss_sum) = (0u64, 0u64, 0u64);
    let mut all_mapped = true;
    for (i, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .map_err(|e| format!("waiting for child {i}: {e}"))?;
        if !out.status.success() {
            cleanup();
            return Err(format!("child {i} failed with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mapped = text.contains("\"mapped\":true");
        all_mapped &= mapped;
        let field = |key| json_u64_field(&text, key).unwrap_or(0);
        let shared = field("shared_clean_kb") + field("shared_dirty_kb");
        let private = field("private_clean_kb") + field("private_dirty_kb");
        let rss = field("rss_kb");
        let load_micros = json_u64_field(&text, "load_micros");
        eprintln!(
            "  process {i}: mapped {mapped}, mapping rss {rss} kB \
             (shared {shared} kB, private {private} kB)"
        );
        shared_sum += shared;
        private_sum += private;
        rss_sum += rss;
        rows.push(Json::obj([
            ("process", Json::uint(i)),
            ("mapped", Json::Bool(mapped)),
            ("rss_kb", Json::u64(rss)),
            ("shared_kb", Json::u64(shared)),
            ("private_kb", Json::u64(private)),
            ("load_micros", load_micros.map_or(Json::Null, Json::u64)),
        ]));
    }
    cleanup();

    let file_kb = std::fs::metadata(model_path).map(|m| m.len()).unwrap_or(0) / 1024;
    // One physical copy means each process's mapping is (almost) all
    // shared pages: total resident ≈ file size, not procs * file size.
    let shared_fraction = if rss_sum > 0 {
        shared_sum as f64 / rss_sum as f64
    } else {
        0.0
    };
    eprintln!(
        "mmap-demo: {procs} processes, snapshot {file_kb} kB; summed mapping rss {rss_sum} kB, \
         {:.1}% shared — one physical weight copy",
        100.0 * shared_fraction
    );
    let json = Json::obj([
        ("command", Json::str("mmap-demo")),
        ("model", Json::str(model_path)),
        ("processes", Json::uint(procs)),
        ("subject_bits", Json::uint(bits)),
        ("subject_nodes", Json::uint(subject.aig.num_nodes())),
        ("snapshot_kb", Json::u64(file_kb)),
        ("all_mapped", Json::Bool(all_mapped)),
        ("per_process", Json::Arr(rows)),
        ("shared_kb_total", Json::u64(shared_sum)),
        ("private_kb_total", Json::u64(private_sum)),
        ("rss_kb_total", Json::u64(rss_sum)),
        ("shared_fraction", Json::Num(shared_fraction)),
    ]);
    println!("{json}");
    Ok(())
}
