//! End-to-end test of the `gamora` binary: a model trained and saved by
//! one process is reloaded by a fresh process (the binary), serves AIGER
//! submissions with *exactly* the in-process evaluation scores, and
//! answers repeated submissions from the structural-hash cache without
//! additional forward passes.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_aig::aiger;
use gamora_circuits::csa_multiplier;
use std::path::PathBuf;
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gamora-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn train_small() -> GamoraReasoner {
    let train: Vec<_> = [3usize, 4].iter().map(|&b| csa_multiplier(b)).collect();
    let refs: Vec<&gamora_aig::Aig> = train.iter().map(|m| &m.aig).collect();
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 16,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &refs,
        &TrainConfig {
            epochs: 120,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    reasoner
}

#[test]
fn saved_model_served_by_binary_reproduces_in_process_scores() {
    let dir = tmpdir("infer");
    let reasoner = train_small();

    // In-process reference score on a held-out workload.
    let subject = csa_multiplier(6);
    let expected = reasoner.clone().evaluate(&subject.aig);

    // Persist the model and the workload.
    let model_path = dir.join("model.gsnap");
    reasoner.save(&model_path).unwrap();
    let aag_path = dir.join("subject.aag");
    let mut buf = Vec::new();
    aiger::write_ascii(&subject.aig, &mut buf).unwrap();
    std::fs::write(&aag_path, &buf).unwrap();

    // Fresh process: serve the same file twice through the binary.
    let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
        .args(["infer", "--score", "--compact", "--batch", "4", "--model"])
        .arg(&model_path)
        .arg("--metrics-out")
        .arg(dir.join("metrics.prom"))
        .arg(&aag_path)
        .arg(&aag_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "infer failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // Exact score reproduction: the binary's mean accuracy string is the
    // shortest-roundtrip rendering of the identical f64.
    let mean_field = format!("\"mean\":{}", render_f64(expected.mean()));
    assert_eq!(
        stdout.matches(&mean_field).count(),
        2,
        "both submissions must report exactly the in-process mean accuracy \
         ({mean_field}); got: {stdout}"
    );

    // Cache behaviour: first submission misses, the repeat hits, and the
    // whole run needs exactly one forward pass.
    assert!(stdout.contains("\"cache_hit\":false"), "{stdout}");
    assert!(stdout.contains("\"cache_hit\":true"), "{stdout}");
    assert!(stdout.contains("\"forward_passes\":1"), "{stdout}");
    assert!(stdout.contains("\"cache_hits\":1"), "{stdout}");
    // A clean run's final report is healthy, not "shutting_down".
    assert!(stdout.contains("\"health\":\"healthy\""), "{stdout}");

    // The report and the metric registry both name the kernel variant the
    // numbers came from.
    let isa = gamora_gnn::kernel_isa();
    assert!(
        stdout.contains(&format!("\"kernel_isa\":\"{isa}\"")),
        "{stdout}"
    );
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(
        prom.contains(&format!("gamora_kernel_isa{{isa=\"{isa}\"}} 1\n")),
        "{prom}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Mirrors the binary's JSON number rendering (integers without a point).
fn render_f64(n: f64) -> String {
    if n == n.trunc() && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[test]
fn corrupt_snapshot_is_rejected_by_the_binary() {
    let dir = tmpdir("corrupt");
    let model_path = dir.join("model.gsnap");
    train_small().save(&model_path).unwrap();

    let mut bytes = std::fs::read(&model_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&model_path, &bytes).unwrap();

    let aag_path = dir.join("x.aag");
    let mut buf = Vec::new();
    aiger::write_ascii(&csa_multiplier(3).aig, &mut buf).unwrap();
    std::fs::write(&aag_path, &buf).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
        .args(["infer", "--model"])
        .arg(&model_path)
        .arg(&aag_path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corrupt snapshot must not serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt") || stderr.contains("checksum"),
        "diagnostic should name the corruption: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the binary on `args`, expects it to fail, and returns stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "{args:?} must be refused");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The retired throughput subcommand is gone (`gamora-perf` measures
/// serving), and refused like any other unknown subcommand.
#[test]
fn bench_serve_is_an_unknown_subcommand() {
    let stderr = refused(&["bench-serve", "--model", "m.gsnap"]);
    assert!(
        stderr.contains("unknown subcommand 'bench-serve'"),
        "{stderr}"
    );
}

/// Runs the binary on `args` and expects the usage-error exit (1, not a
/// panic's 101); returns stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    stderr
}

/// A server needs a batch of at least one job and at least one worker:
/// zero is a usage error naming the flag, not a panic in `Server::start`.
#[test]
fn zero_batch_or_workers_is_a_usage_error() {
    let dir = tmpdir("zero");
    let model_path = dir.join("model.gsnap");
    GamoraReasoner::new(ReasonerConfig::default())
        .save(&model_path)
        .unwrap();
    let aag_path = dir.join("x.aag");
    let mut buf = Vec::new();
    aiger::write_ascii(&csa_multiplier(3).aig, &mut buf).unwrap();
    std::fs::write(&aag_path, &buf).unwrap();
    let (model, aag) = (model_path.to_str().unwrap(), aag_path.to_str().unwrap());
    for flag in ["--batch", "--workers"] {
        let stderr = usage_error(&["infer", "--model", model, flag, "0", aag]);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{flag}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `train --depth` refuses, before any training, a shape the snapshot
/// reader would refuse: no layers, or a hidden width past its bound.
#[test]
fn train_refuses_depths_a_snapshot_cannot_hold() {
    let dir = tmpdir("depth");
    let model_path = dir.join("model.gsnap");
    let out = model_path.to_str().unwrap();
    for depth in ["0x16", "1x70000"] {
        let stderr = usage_error(&[
            "train", "--bits", "3", "--epochs", "1", "--quiet", "--depth", depth, "--out", out,
        ]);
        assert!(
            stderr.contains(&format!("--depth {depth}")) && stderr.contains("65536"),
            "{depth}: {stderr}"
        );
        assert!(!model_path.exists(), "{depth}: nothing may be written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `train --bits` refuses, before any training, a width its generator
/// would panic on (0 bits; 1 bit for Booth) or one past the widest
/// subject the workspace builds (256 bits), which once aborted on an
/// allocation of almost a terabyte.
#[test]
fn train_refuses_widths_the_generators_cannot_build() {
    let dir = tmpdir("bits");
    let model_path = dir.join("model.gsnap");
    let out = model_path.to_str().unwrap();
    for (kind, bits) in [
        ("csa", "0"),
        ("booth", "1"),
        ("csa", "100000"),
        ("dadda", "3,257"),
    ] {
        let stderr = usage_error(&[
            "train", "--kind", kind, "--bits", bits, "--epochs", "1", "--quiet", "--out", out,
        ]);
        let width = bits.rsplit(',').next().unwrap();
        assert!(
            stderr.contains(&format!("--bits {width}")),
            "{kind} {bits}: {stderr}"
        );
        assert!(
            !model_path.exists(),
            "{kind} {bits}: nothing may be written"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_subcommand_writes_a_loadable_snapshot() {
    let dir = tmpdir("train");
    let model_path = dir.join("model.gsnap");
    let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
        .args([
            "train", "--bits", "3", "--epochs", "10", "--depth", "2x8", "--quiet", "--out",
        ])
        .arg(&model_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reasoner = GamoraReasoner::load(&model_path).expect("snapshot loads");
    assert_eq!(
        reasoner.config().depth,
        ModelDepth::Custom {
            layers: 2,
            hidden: 8
        }
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Removed flags, and flags of another subcommand, take the ordinary
/// unknown-flag exit: each subcommand parses against its own flag list
/// and refuses the rest before any model or netlist is opened.
#[test]
fn removed_cone_tier_flags_are_unknown() {
    for args in [
        ["infer", "--model", "m.gsnap", "--cone-capacity", "8"],
        // `--batches` was a typo of `--batch` that used to pass silently.
        ["infer", "--model", "m.gsnap", "--batches", "4"],
        ["infer", "--model", "m.gsnap", "--kind", "booth"],
        // `infer` queues its whole file list at once: a linger window
        // could only add dead time.
        ["infer", "--model", "m.gsnap", "--linger", "3000000"],
        // The mapped loader went with its storage class.
        ["infer", "--model", "m.gsnap", "--mmap", "x.aag"],
        ["train", "--out", "m.gsnap", "--faults", "x"],
    ] {
        let stderr = refused(&args);
        assert!(
            stderr.contains(&format!("unknown flag '{}'", args[3])),
            "{args:?}: {stderr}"
        );
    }
}

/// Training checks no fail point: an armed `GAMORA_FAULTS` cannot fail
/// (or panic) `train`, whose model calls never pass through a server.
#[test]
fn train_runs_with_fail_points_armed() {
    let dir = tmpdir("train-faults");
    let model_path = dir.join("model.gsnap");
    for spec in ["forward:err", "all:err"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
            .env("GAMORA_FAULTS", spec)
            .args([
                "train", "--bits", "3", "--epochs", "2", "--depth", "2x8", "--quiet", "--out",
            ])
            .arg(&model_path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{spec}: train failed ({:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        GamoraReasoner::load(&model_path).expect("snapshot loads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Assembly, split and snapshot load have no fail point of their own:
/// `infer` refuses those names, from `--faults` or `GAMORA_FAULTS`, as a
/// usage error before any model is opened.
#[test]
fn removed_fail_points_are_unknown() {
    for spec in ["assemble:err", "split:err", "snapshot:err"] {
        let point = spec.split(':').next().unwrap();
        let stderr = usage_error(&["infer", "--model", "m.gsnap", "--faults", spec, "x.aag"]);
        assert!(
            stderr.contains(&format!("unknown point '{point}'")),
            "{spec}: {stderr}"
        );
        let out = Command::new(env!("CARGO_BIN_EXE_gamora"))
            .env("GAMORA_FAULTS", spec)
            .args(["infer", "--model", "m.gsnap", "x.aag"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "GAMORA_FAULTS={spec}: {stderr}");
        assert!(
            stderr.contains(&format!("GAMORA_FAULTS: clause '{spec}': unknown point")),
            "GAMORA_FAULTS={spec}: {stderr}"
        );
    }
}
