//! Where the numbers were taken: a host fingerprint for every output, and
//! two short single-thread calibration loops that give the `gnn` kernel
//! rates something to be a fraction of.

use crate::sut::Json;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, compiler and commit. Job counts and the seed are
/// added per run.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::uint(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// Single-thread multiply-add rate of this build, GFLOP/s: 64 independent
/// `f32` accumulators, so the loop is bound by arithmetic issue, not latency.
/// Same compiler flags as the kernels it is a ceiling for.
pub fn fma_gflop_per_s(seconds: f64) -> f64 {
    const LANES: usize = 64;
    const CHUNK: u64 = 1 << 20;
    let mut acc = [0.5f32; LANES];
    let (m, c) = (black_box(0.999_9f32), black_box(1e-4f32));
    let started = Instant::now();
    let mut iterations = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        for _ in 0..CHUNK {
            for a in acc.iter_mut() {
                *a = *a * m + c;
            }
        }
        acc = black_box(acc);
        iterations += CHUNK;
    }
    (2 * LANES as u64 * iterations) as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// Single-thread STREAM-triad bandwidth, GB/s, over three 32 MiB arrays
/// (two read, one written; write-allocate traffic is not counted).
pub fn triad_gb_per_s(seconds: f64) -> f64 {
    const N: usize = 8 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(0.5f32);
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        passes += 1;
    }
    (passes * 3 * 4 * N as u64) as f64 / started.elapsed().as_secs_f64() / 1e9
}
