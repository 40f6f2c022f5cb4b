//! The `gamora` command-line front end: train once, serve many.
//!
//! * `gamora train`       — fit a reasoner on generated multipliers and
//!   snapshot it to disk (`.gsnap`).
//! * `gamora infer`       — load a snapshot and serve AIGER netlists
//!   through the micro-batching scheduler, emitting a JSON report.
//! * `gamora mmap-demo`   — N concurrent `infer --mmap` processes over one
//!   snapshot: /proc/self/smaps shows a single physical weight copy.
//!
//! Serving throughput is measured by `gamora-perf` (crate `gamora-bench`).
//! Argument parsing is hand-rolled (no external dependencies); each
//! subcommand accepts exactly the flags it reads.

use gamora::{
    score_predictions, GamoraReasoner, ModelDepth, Predictions, ReasonerConfig, TrainConfig,
};
use gamora_aig::{aiger, Aig};
use gamora_circuits::{generate_multiplier, MultiplierKind};
use gamora_obs::Snapshot;
use gamora_serve::report::{serve_stats_json, stages_json, Json};
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ExitCode};
use std::time::Instant;

const USAGE: &str = "\
gamora — persistent-model inference service for AIG symbolic reasoning

USAGE:
    gamora train --out MODEL.gsnap [--bits 3,4,5,6,7,8] [--epochs 300]
                 [--kind csa|booth|dadda] [--depth shallow|deep|LxH]
                 [--seed N]
    gamora infer --model MODEL.gsnap [--mmap] [--extract] [--score] [--batch N]
                 [--workers N] [--cache N] [--queue-cap N] [--linger MICROS]
                 [--compact] [--layer-times] [--metrics-out PATH]
                 [--intra-threads N] [--faults SPEC] FILE.aag [FILE.aig ...]
                 (--cache 0 disables the structural-hash cache;
                 --intra-threads 0 = auto: the machine's thread budget,
                 GAMORA_THREADS if set, divided by --workers)
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

fault injection (infer):
    --faults SPEC     arm deterministic fail points for the whole run
                      (overrides the GAMORA_FAULTS environment variable).
                      SPEC is `point:action[:trigger]` clauses joined by
                      ';' — points admission|hash|cache|assemble|forward|
                      split|snapshot|all, actions panic|err|delay(MICROS),
                      triggers every=N|after=N|prob=P[,seed=S].
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
    // Arm fail points from GAMORA_FAULTS before any serving starts;
    // `--faults SPEC` (below) overrides the environment.
    gamora_fault::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
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
            Ok(ModelDepth::Custom { layers, hidden })
        }
    }
}

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
    let flags = Flags::parse(
        args,
        &[
            "--model",
            "--batch",
            "--workers",
            "--cache",
            "--queue-cap",
            "--linger",
            "--metrics-out",
            "--intra-threads",
            "--faults",
        ],
        &[
            "--mmap",
            "--extract",
            "--score",
            "--compact",
            "--layer-times",
        ],
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

/// A file removed when the guard drops, whichever way the function exits.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Child processes killed and reaped when the guard drops, so an early
/// error return orphans none of them. Children already waited on are left
/// alone: `Child::kill` is a no-op once the child has been reaped.
struct Reaped(Vec<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        for child in &mut self.0 {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Multi-process zero-copy demo: N concurrent `gamora infer --mmap`
/// children serve the same snapshot; each reports the /proc/self/smaps
/// shared/private split of its weight mapping. Weight pages touched by
/// several processes at once count as shared — the evidence that the
/// payload is resident once, not once per process. Children disable the
/// prediction cache and submit the subject several times so their
/// mappings stay alive long enough to overlap.
fn cmd_mmap_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["--model", "--procs", "--bits", "--kind"], &[])?;
    let model_path = flags
        .get("--model")
        .ok_or("mmap-demo requires --model MODEL.gsnap")?;
    let procs = flags.usize_or("--procs", 4)?;
    let bits = flags.usize_or("--bits", 8)?;
    let kind = parse_kind(flags.get("--kind").unwrap_or("csa"))?;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }

    // One subject file for every child, removed on every exit path.
    let subject = generate_multiplier(kind, bits);
    let aag =
        TempFile(std::env::temp_dir().join(format!("gamora-mmap-demo-{}.aag", std::process::id())));
    let file = std::fs::File::create(&aag.0).map_err(|e| format!("writing subject: {e}"))?;
    aiger::write_ascii(&subject.aig, std::io::BufWriter::new(file))
        .map_err(|e| format!("writing subject: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| format!("locating gamora binary: {e}"))?;
    eprintln!(
        "mmap-demo: {procs} concurrent `gamora infer --mmap` processes over '{model_path}' \
         ({}-bit {kind} subject, {} nodes) ...",
        bits,
        subject.aig.num_nodes()
    );
    let mut children = Reaped(Vec::with_capacity(procs));
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
            cmd.arg(&aag.0);
        }
        let child = cmd
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning child: {e}"))?;
        children.0.push(child);
    }

    let mut rows = Vec::new();
    let (mut shared_sum, mut private_sum, mut rss_sum) = (0u64, 0u64, 0u64);
    let mut all_mapped = true;
    for (i, child) in children.0.iter_mut().enumerate() {
        // Read and reap in place: the child stays in the guard until it
        // has been waited on, so an error here still kills and reaps it.
        let mut stdout = Vec::new();
        child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_end(&mut stdout)
            .map_err(|e| format!("reading child {i}: {e}"))?;
        let status = child
            .wait()
            .map_err(|e| format!("waiting for child {i}: {e}"))?;
        if !status.success() {
            return Err(format!("child {i} failed with {status}"));
        }
        let text = String::from_utf8_lossy(&stdout);
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
