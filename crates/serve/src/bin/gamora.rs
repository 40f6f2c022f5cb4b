//! The `gamora` command-line front end: train once, serve many.
//!
//! * `gamora train`       — fit a reasoner on generated multipliers and
//!   snapshot it to disk (`.gsnap`).
//! * `gamora infer`       — load a snapshot and serve AIGER netlists
//!   through the micro-batching scheduler, emitting a JSON report.
//!
//! Serving throughput is measured by `gamora-perf` (crate `gamora-bench`).
//! Argument parsing is hand-rolled (no external dependencies); each
//! subcommand accepts exactly the flags it reads.

use gamora::snapshot::check_depth;
use gamora::{
    score_predictions, GamoraReasoner, ModelDepth, Predictions, ReasonerConfig, TrainConfig,
};
use gamora_aig::{aiger, Aig};
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_obs::Snapshot;
use gamora_serve::report::{serve_stats_json, stages_json, Json};
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
gamora — persistent-model inference service for AIG symbolic reasoning

USAGE:
    gamora train --out MODEL.gsnap [--bits 3,4,5,6,7,8] [--epochs 300]
                 [--kind csa|booth|dadda] [--depth shallow|deep|LxH]
                 [--seed N]
                 (LxH: 1-1024 SAGE layers of 1-65536 hidden channels,
                 the depths a snapshot holds; --bits widths are 1-256,
                 2-256 for booth)
    gamora infer --model MODEL.gsnap [--extract] [--score] [--batch N]
                 [--workers N] [--cache N]
                 [--compact] [--layer-times] [--metrics-out PATH]
                 [--intra-threads N] [--faults SPEC] FILE.aag [FILE.aig ...]
                 (--batch and --workers are at least 1;
                 --cache 0 disables the structural-hash cache;
                 --intra-threads 0 = auto: the machine's detected cores
                 divided by --workers)

infer submits its whole file list as one burst and serves with no
linger window: a short batch has no later companion to wait for.

infer reads the whole snapshot, requires its header to be the one its
model config fixes and verifies its payload checksum before serving; a
damaged file is refused, never served.
Reports carry a `cold_start` block: snapshot bytes, load microseconds
and first-inference latency. `gamora train --out` replaces a snapshot
by renaming a new file over it, so a concurrent load never sees half
of one.

fault injection (infer):
    --faults SPEC     arm deterministic fail points for the whole run
                      (overrides the GAMORA_FAULTS environment variable).
                      SPEC is `point:action[:trigger]` clauses joined by
                      ';' — points admission|hash|cache|forward|all
                      (forward is the model call), actions
                      panic|err|delay(MICROS), triggers
                      every=N|after=N|prob=P[,seed=S].
                      Example: `all:panic:prob=0.05,seed=7`

observability (infer):
    --metrics-out PATH  write the full metric registry (stage latency
                        histograms, cache tiers, counters) as
                        Prometheus-style text to PATH on exit
    --layer-times       also record per-layer GNN forward timings
                        (forward_layer_*_micros histograms)

Reports are JSON on stdout; diagnostics go to stderr. Serve reports
carry a per-stage latency block (p50/p90/p99/p99.9 in microseconds).
Serving throughput is measured by the benchmark, not this binary:
    cargo run --release -p gamora-bench --bin gamora-perf -- --smoke";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
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

impl Flags {
    /// Parses `args` against one subcommand's flags: `values` take an
    /// argument, `switches` do not, and any other `--flag` is refused, so
    /// a typo or a flag of another subcommand never passes silently.
    fn parse(args: &[String], values: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if values.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
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
            let depth = ModelDepth::Custom { layers, hidden };
            check_depth(depth).map_err(|e| format!("--depth {custom}: {e}"))?;
            Ok(depth)
        }
    }
}

/// Widest multiplier `train --bits` builds: the 256-bit CSA is the largest
/// subject anywhere in the workspace (the benchmark's `cold_giant`).
const MAX_TRAIN_BITS: usize = 256;

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["--out", "--bits", "--epochs", "--kind", "--depth", "--seed"],
        &["--quiet"],
    )?;
    let out = flags
        .get("--out")
        .ok_or("train requires --out MODEL.gsnap")?
        .to_string();
    let bits = flags.usize_list_or("--bits", &[3, 4, 5, 6, 7, 8])?;
    let epochs = flags.usize_or("--epochs", 300)?;
    let kind = parse_kind(flags.get("--kind").unwrap_or("csa"))?;
    let widths = kind.min_bits()..=MAX_TRAIN_BITS;
    if let Some(b) = bits.iter().find(|b| !widths.contains(b)) {
        return Err(format!(
            "--bits {b}: a {kind} multiplier is {}-{MAX_TRAIN_BITS} bits wide",
            kind.min_bits()
        ));
    }
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

/// Arms the fail-point subsystem for `infer`, the one subcommand with
/// fail points to arm: from `--faults SPEC` when given, else from the
/// `GAMORA_FAULTS` environment variable. A no-op when neither is set.
fn arm_faults(flags: &Flags) -> Result<(), String> {
    let n = match flags.get("--faults") {
        Some(spec) => gamora_fault::configure(spec).map_err(|e| format!("--faults: {e}"))?,
        None => gamora_fault::init_from_env()?,
    };
    if n > 0 {
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
    file_bytes: u64,
    load_micros: u64,
}

/// Loads and verifies the model, timed.
fn load_model(path: &str) -> Result<(GamoraReasoner, ColdStart), String> {
    let t0 = Instant::now();
    let reasoner = GamoraReasoner::load(path).map_err(|e| format!("loading '{path}': {e}"))?;
    let cold_start = ColdStart {
        file_bytes: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
        load_micros: t0.elapsed().as_micros() as u64,
    };
    Ok((reasoner, cold_start))
}

/// The `cold_start` report block: what the model load cost and what the
/// first real forward pass paid.
fn cold_start_json(cs: &ColdStart, first_micros: Option<u64>) -> Json {
    Json::obj([
        ("file_bytes", Json::u64(cs.file_bytes)),
        ("load_micros", Json::u64(cs.load_micros)),
        (
            "first_inference_micros",
            first_micros.map_or(Json::Null, Json::u64),
        ),
    ])
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
    let flags = Flags::parse(
        args,
        &[
            "--model",
            "--batch",
            "--workers",
            "--cache",
            "--metrics-out",
            "--intra-threads",
            "--faults",
        ],
        &["--extract", "--score", "--compact", "--layer-times"],
    )?;
    let model_path = flags
        .get("--model")
        .ok_or("infer requires --model MODEL.gsnap")?;
    if flags.positional.is_empty() {
        return Err("infer requires at least one AIGER file".into());
    }
    let defaults = ServeConfig::default();
    let max_batch = flags.usize_or("--batch", 8)?;
    let workers = flags.usize_or("--workers", 1)?;
    for (flag, value) in [("--batch", max_batch), ("--workers", workers)] {
        if value == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    let cache_capacity = flags.usize_or("--cache", defaults.cache_capacity)?;
    let intra_threads = flags.usize_or("--intra-threads", 0)?;
    let kind = if flags.has("--extract") {
        AnalysisKind::ExtractAdders
    } else {
        AnalysisKind::Classify
    };

    arm_faults(&flags)?;
    let (reasoner, cold_start) = load_model(model_path)?;
    let server = Server::start(
        reasoner,
        ServeConfig {
            max_batch,
            workers,
            cache_capacity,
            queue_capacity: defaults.queue_capacity,
            linger_micros: 0,
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
    let stats = server.shutdown();
    let Json::Obj(mut serving) = serve_stats_json(&stats) else {
        unreachable!("serve_stats_json returns an object")
    };
    serving.push(("wall_seconds".to_string(), Json::Num(wall.as_secs_f64())));
    serving.push(("stages".to_string(), stages_json(&snapshot)));
    write_metrics_out(&flags, &snapshot)?;
    let first_micros = outputs.first().map(|o| o.latency_micros);
    let json = Json::obj([
        ("command", Json::str("infer")),
        ("model", Json::str(model_path)),
        ("cold_start", cold_start_json(&cold_start, first_micros)),
        ("files", Json::Arr(files)),
        ("serving", Json::Obj(serving)),
    ]);
    if flags.has("--compact") {
        println!("{}", json.compact());
    } else {
        println!("{json}");
    }
    Ok(())
}
