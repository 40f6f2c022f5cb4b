//! Deterministic fail-point injection for the gamora serving stack.
//!
//! Production recovery paths — worker restart, poison quarantine,
//! retry/backoff — are only trustworthy if a test can *provoke* the
//! failures they recover from, on demand and reproducibly. This crate
//! provides named injection points ([`FaultPoint`], one per serve stage)
//! that library code checks with [`hit`] / [`hit_or_panic`]. When no
//! fault is armed, a check is **one relaxed atomic load** — the hot path
//! pays nothing measurable (guarded by the serve crate's
//! `fault_overhead` test). When armed from a spec string
//! ([`configure`], the `GAMORA_FAULTS` env var via [`init_from_env`],
//! or the RAII test helper [`arm`]), each matching check evaluates a
//! seeded-deterministic trigger and, when it fires, executes an action.
//!
//! ## Spec grammar
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := point ':' action [':' trigger]
//! point   := 'admission' | 'hash' | 'cache' | 'assemble'
//!          | 'forward' | 'split' | 'snapshot' | 'all'
//! action  := 'panic' | 'err' | 'delay(' MICROS ')'
//! trigger := 'every=' N | 'after=' N | 'prob=' P [',seed=' S]
//! ```
//!
//! The default trigger is `every=1` (fire on every check). `all` expands
//! the clause to every point. Examples:
//!
//! ```text
//! forward:panic:prob=0.05,seed=7     5% of forward passes panic
//! assemble:delay(500):every=3       every 3rd batch assembly +500us
//! snapshot:err:after=2              snapshot loads fail from the 3rd on
//! all:panic:prob=0.02               2% of every stage panics
//! ```
//!
//! ## Determinism
//!
//! `every` / `after` derive from a per-point call counter; `prob` hashes
//! `seed ^ call_index` through SplitMix64 and compares the resulting
//! uniform fraction against `P`. Counters reset on every [`configure`],
//! so the same spec over the same call sequence always fires at the same
//! checks — chaos tests are replayable.
//!
//! ## Actions
//!
//! * `panic` — panics at the check site with a descriptive message. In
//!   the serve stack the worker catches it, drops the batch's unanswered
//!   jobs and restarts in place with fresh scratch.
//! * `delay(us)` — sleeps the given number of microseconds, then lets
//!   the check pass. Widens race windows deterministically.
//! * `err` — the check returns `Err(`[`Injected`]`)`; the caller turns
//!   it into its stage's graceful failure path (shed, degraded cache
//!   miss, `AnalysisFailed`, `SnapshotError`). Sites with no error
//!   channel use [`hit_or_panic`], which throws the typed [`Injected`]
//!   payload so an upstream `catch_unwind` can tell an injected error
//!   from a genuine panic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// A named injection point: one per serve stage.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Job admission (`submit*` entry, before the queue lock).
    Admission = 0,
    /// Structural signature hashing inside a worker batch.
    SignatureHash = 1,
    /// Prediction-cache probe/resolve.
    CacheResolve = 2,
    /// Merged batch graph/feature assembly.
    BatchAssemble = 3,
    /// The coalesced GNN forward pass.
    GnnForward = 4,
    /// Per-netlist prediction split/scatter.
    PredictionSplit = 5,
    /// Model snapshot deserialisation.
    SnapshotLoad = 6,
}

/// Every fault point, in index order.
pub const ALL_POINTS: [FaultPoint; NUM_POINTS] = [
    FaultPoint::Admission,
    FaultPoint::SignatureHash,
    FaultPoint::CacheResolve,
    FaultPoint::BatchAssemble,
    FaultPoint::GnnForward,
    FaultPoint::PredictionSplit,
    FaultPoint::SnapshotLoad,
];

const NUM_POINTS: usize = 7;

impl FaultPoint {
    /// The spec-grammar name of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::Admission => "admission",
            FaultPoint::SignatureHash => "hash",
            FaultPoint::CacheResolve => "cache",
            FaultPoint::BatchAssemble => "assemble",
            FaultPoint::GnnForward => "forward",
            FaultPoint::PredictionSplit => "split",
            FaultPoint::SnapshotLoad => "snapshot",
        }
    }

    /// Parses a spec-grammar point name (`"all"` is handled by the spec
    /// parser, not here).
    pub fn parse(s: &str) -> Option<FaultPoint> {
        ALL_POINTS.iter().copied().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed payload of an injected `err` action. Doubles as the panic
/// payload thrown by [`hit_or_panic`], so a `catch_unwind` upstream can
/// `downcast_ref::<Injected>()` to distinguish an injected error from a
/// genuine panic.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Injected {
    /// The point that fired.
    pub point: FaultPoint,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at point '{}'", self.point)
    }
}

impl std::error::Error for Injected {}

/// What a firing clause does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Action {
    Panic,
    Err,
    Delay(u64),
}

/// When a clause fires, evaluated against the point's call counter `n`
/// (0-based: the first check of a point sees `n == 0`).
#[derive(Copy, Clone, Debug, PartialEq)]
enum Trigger {
    /// Fires on calls `k-1, 2k-1, 3k-1, ...` (`every=1` fires always).
    Every(u64),
    /// Fires on every call from the `k`-th onwards (0-based: `n >= k`).
    After(u64),
    /// Fires when `splitmix64(seed ^ n)` as a uniform fraction is `< p`.
    Prob { p: f64, seed: u64 },
}

impl Trigger {
    fn fires(&self, n: u64) -> bool {
        match *self {
            Trigger::Every(k) => k > 0 && (n + 1).is_multiple_of(k),
            Trigger::After(k) => n >= k,
            Trigger::Prob { p, seed } => {
                let h = splitmix64(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (h as f64 / u64::MAX as f64) < p
            }
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct Clause {
    point: FaultPoint,
    action: Action,
    trigger: Trigger,
}

/// Fast-path gate: a disabled subsystem costs exactly this one relaxed
/// load per check.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Armed clauses (read-locked on the slow path only).
static CONFIG: RwLock<Vec<Clause>> = RwLock::new(Vec::new());

/// Per-point check counters (drive `every`/`after`/`prob` triggers).
static CALLS: [AtomicU64; NUM_POINTS] = [const { AtomicU64::new(0) }; NUM_POINTS];

/// Per-point fired-action counters (reported by benches and tests).
static FIRED: [AtomicU64; NUM_POINTS] = [const { AtomicU64::new(0) }; NUM_POINTS];

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether any fault clause is currently armed. Callers that need extra
/// setup around a check (e.g. a `catch_unwind` to contain a `panic`
/// action) can gate that setup on this to keep the disarmed path free.
#[inline]
pub fn armed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Checks a fail point. Disarmed: one relaxed atomic load, always
/// `Ok(())`. Armed: evaluates this point's clauses in configuration
/// order; the first firing clause acts — `panic` panics here, `delay`
/// sleeps then passes, `err` returns `Err(Injected)` for the caller's
/// graceful failure path.
#[inline]
pub fn hit(point: FaultPoint) -> Result<(), Injected> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    hit_slow(point)
}

/// [`hit`] for sites with no error channel: an injected `err` is thrown
/// as a typed [`Injected`] panic payload (via `panic_any`) so an
/// upstream `catch_unwind` can recognise and absorb it.
#[inline]
pub fn hit_or_panic(point: FaultPoint) {
    if let Err(e) = hit(point) {
        std::panic::panic_any(e);
    }
}

#[cold]
fn hit_slow(point: FaultPoint) -> Result<(), Injected> {
    let n = CALLS[point as usize].fetch_add(1, Ordering::Relaxed);
    // Copy the firing action out before acting: a panic while holding
    // the read guard would poison the config for every later check.
    let action = {
        let config = CONFIG.read().expect("fault config poisoned");
        config
            .iter()
            .find(|c| c.point == point && c.trigger.fires(n))
            .map(|c| c.action)
    };
    match action {
        None => Ok(()),
        Some(Action::Delay(us)) => {
            FIRED[point as usize].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(us));
            Ok(())
        }
        Some(Action::Err) => {
            FIRED[point as usize].fetch_add(1, Ordering::Relaxed);
            Err(Injected { point })
        }
        Some(Action::Panic) => {
            FIRED[point as usize].fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: panic at point '{point}' (call {n})");
        }
    }
}

/// How many times a point's action has fired since the last
/// [`configure`].
pub fn fired(point: FaultPoint) -> u64 {
    FIRED[point as usize].load(Ordering::Relaxed)
}

/// Parses `spec` and arms the subsystem with its clauses, resetting the
/// per-point call and fired counters (so the same spec over the same
/// call sequence replays identically). Returns the number of armed
/// clauses; an empty spec disarms. Errors describe the first bad clause
/// without changing the current configuration.
pub fn configure(spec: &str) -> Result<usize, String> {
    let mut clauses = Vec::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        parse_clause(raw, &mut clauses)?;
    }
    let n = clauses.len();
    let mut config = CONFIG.write().expect("fault config poisoned");
    for c in &CALLS {
        c.store(0, Ordering::Relaxed);
    }
    for f in &FIRED {
        f.store(0, Ordering::Relaxed);
    }
    *config = clauses;
    ENABLED.store(n > 0, Ordering::Relaxed);
    Ok(n)
}

/// Disarms every fault clause; checks return to the single-load fast
/// path. Fired counters are kept for post-run reporting (the next
/// [`configure`] resets them).
pub fn disarm() {
    ENABLED.store(false, Ordering::Relaxed);
    CONFIG.write().expect("fault config poisoned").clear();
}

/// Arms from the `GAMORA_FAULTS` environment variable when it is set and
/// non-empty. Returns the number of armed clauses.
///
/// # Panics
///
/// Panics with the parse error when the variable holds a bad spec —
/// silently ignoring a typo'd fault spec would fake chaos coverage.
pub fn init_from_env() -> usize {
    match std::env::var("GAMORA_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(&spec).expect("GAMORA_FAULTS holds an invalid fault spec")
        }
        _ => 0,
    }
}

fn parse_clause(raw: &str, out: &mut Vec<Clause>) -> Result<(), String> {
    let mut parts = raw.splitn(3, ':');
    let point_s = parts.next().unwrap_or_default().trim();
    let action_s = parts
        .next()
        .ok_or_else(|| format!("clause '{raw}': missing action (want point:action[:trigger])"))?
        .trim();
    let trigger_s = parts.next().map(str::trim);

    let action = parse_action(action_s).map_err(|e| format!("clause '{raw}': {e}"))?;
    let trigger = match trigger_s {
        None | Some("") => Trigger::Every(1),
        Some(t) => parse_trigger(t).map_err(|e| format!("clause '{raw}': {e}"))?,
    };
    if point_s == "all" {
        for point in ALL_POINTS {
            out.push(Clause {
                point,
                action,
                trigger,
            });
        }
        return Ok(());
    }
    let point = FaultPoint::parse(point_s).ok_or_else(|| {
        format!(
            "clause '{raw}': unknown point '{point_s}' (want one of \
             admission|hash|cache|assemble|forward|split|snapshot|all)"
        )
    })?;
    out.push(Clause {
        point,
        action,
        trigger,
    });
    Ok(())
}

fn parse_action(s: &str) -> Result<Action, String> {
    match s {
        "panic" => Ok(Action::Panic),
        "err" => Ok(Action::Err),
        _ => {
            if let Some(inner) = s.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
                let us: u64 = inner
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad delay micros '{inner}'"))?;
                Ok(Action::Delay(us))
            } else {
                Err(format!(
                    "unknown action '{s}' (want panic|err|delay(MICROS))"
                ))
            }
        }
    }
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    if let Some(v) = s.strip_prefix("every=") {
        let k: u64 = v.parse().map_err(|_| format!("bad every count '{v}'"))?;
        if k == 0 {
            return Err("every=0 never fires; use a positive count".into());
        }
        return Ok(Trigger::Every(k));
    }
    if let Some(v) = s.strip_prefix("after=") {
        let k: u64 = v.parse().map_err(|_| format!("bad after count '{v}'"))?;
        return Ok(Trigger::After(k));
    }
    if let Some(v) = s.strip_prefix("prob=") {
        let mut p_s = v;
        let mut seed = 0u64;
        if let Some((p_part, seed_part)) = v.split_once(',') {
            p_s = p_part.trim();
            let sv = seed_part
                .trim()
                .strip_prefix("seed=")
                .ok_or_else(|| format!("bad prob suffix '{seed_part}' (want seed=S)"))?;
            seed = sv.parse().map_err(|_| format!("bad seed '{sv}'"))?;
        }
        let p: f64 = p_s
            .parse()
            .map_err(|_| format!("bad probability '{p_s}'"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        return Ok(Trigger::Prob { p, seed });
    }
    Err(format!(
        "unknown trigger '{s}' (want every=N|after=N|prob=P[,seed=S])"
    ))
}

/// Serialises tests that arm faults: the subsystem is process-global, so
/// two concurrently-armed tests would see each other's clauses.
static TEST_GATE: Mutex<()> = Mutex::new(());

/// RAII arming for tests: takes a process-wide gate (so concurrently
/// running tests cannot interleave their fault configs), arms `spec`,
/// and disarms on drop.
///
/// # Panics
///
/// Panics on an invalid spec.
pub struct ArmedGuard {
    _gate: MutexGuard<'static, ()>,
}

/// Arms `spec` for the lifetime of the returned guard. See
/// [`ArmedGuard`].
pub fn arm(spec: &str) -> ArmedGuard {
    let gate = TEST_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    configure(spec).expect("invalid fault spec");
    ArmedGuard { _gate: gate }
}

impl ArmedGuard {
    /// Replaces the armed spec (`""` disarms) without releasing the gate,
    /// so a test's fault-free phases cannot overlap another test's
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec.
    pub fn rearm(&self, spec: &str) {
        configure(spec).expect("invalid fault spec");
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_pass() {
        let _g = arm("");
        assert!(!armed());
        for p in ALL_POINTS {
            assert_eq!(hit(p), Ok(()));
        }
    }

    #[test]
    fn every_trigger_is_periodic() {
        let _g = arm("forward:err:every=3");
        let mut fails = 0;
        for _ in 0..9 {
            if hit(FaultPoint::GnnForward).is_err() {
                fails += 1;
            }
        }
        assert_eq!(fails, 3, "every=3 fires on exactly every 3rd check");
        assert_eq!(fired(FaultPoint::GnnForward), 3);
        // Other points are untouched.
        assert_eq!(hit(FaultPoint::Admission), Ok(()));
    }

    #[test]
    fn after_trigger_fires_from_the_kth_call() {
        let _g = arm("snapshot:err:after=2");
        assert!(hit(FaultPoint::SnapshotLoad).is_ok());
        assert!(hit(FaultPoint::SnapshotLoad).is_ok());
        assert!(hit(FaultPoint::SnapshotLoad).is_err());
        assert!(hit(FaultPoint::SnapshotLoad).is_err());
    }

    #[test]
    fn prob_trigger_is_deterministic_and_calibrated() {
        let _g = arm("hash:err:prob=0.25,seed=42");
        let run1: Vec<bool> = (0..400)
            .map(|_| hit(FaultPoint::SignatureHash).is_err())
            .collect();
        let fired1 = fired(FaultPoint::SignatureHash);
        // Re-arming the same spec resets the counters: the sequence replays.
        configure("hash:err:prob=0.25,seed=42").unwrap();
        let run2: Vec<bool> = (0..400)
            .map(|_| hit(FaultPoint::SignatureHash).is_err())
            .collect();
        assert_eq!(run1, run2, "same spec + same calls = same firings");
        let hits = run1.iter().filter(|&&b| b).count();
        assert!(
            (40..=160).contains(&hits),
            "prob=0.25 over 400 checks fired {hits} times (expected ~100)"
        );
        assert_eq!(fired1 as usize, hits);
    }

    #[test]
    fn delay_action_sleeps_then_passes() {
        let _g = arm("assemble:delay(20000)");
        let t = std::time::Instant::now();
        assert_eq!(hit(FaultPoint::BatchAssemble), Ok(()));
        assert!(
            t.elapsed() >= Duration::from_millis(15),
            "delay(20000) must sleep ~20ms"
        );
    }

    #[test]
    fn panic_action_panics_with_a_catchable_message() {
        let _g = arm("split:panic");
        let caught = std::panic::catch_unwind(|| hit(FaultPoint::PredictionSplit));
        let payload = caught.expect_err("panic action must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! message payload");
        assert!(msg.contains("split"), "message names the point: {msg}");
    }

    #[test]
    fn hit_or_panic_throws_a_typed_injected_payload() {
        let _g = arm("forward:err");
        let caught = std::panic::catch_unwind(|| hit_or_panic(FaultPoint::GnnForward));
        let payload = caught.expect_err("err action must throw through hit_or_panic");
        let injected = payload
            .downcast_ref::<Injected>()
            .expect("typed Injected payload");
        assert_eq!(injected.point, FaultPoint::GnnForward);
    }

    #[test]
    fn all_expands_to_every_point() {
        let _g = arm("all:err");
        for p in ALL_POINTS {
            assert_eq!(hit(p), Err(Injected { point: p }));
        }
    }

    #[test]
    fn first_matching_clause_wins() {
        let _g = arm("forward:delay(1):every=2;forward:err");
        // Call 0: every=2 does not fire, err (every=1) does.
        assert!(hit(FaultPoint::GnnForward).is_err());
        // Call 1: delay clause fires first and shadows the err clause.
        assert!(hit(FaultPoint::GnnForward).is_ok());
    }

    #[test]
    fn bad_specs_are_rejected_without_arming() {
        let _g = arm("");
        for bad in [
            "forward",
            "forward:explode",
            "nowhere:panic",
            "forward:panic:sometimes",
            "forward:delay(x)",
            "forward:err:prob=1.5",
            "forward:err:every=0",
            "forward:err:prob=0.1,sd=3",
        ] {
            assert!(configure(bad).is_err(), "spec '{bad}' must be rejected");
            assert!(!armed(), "a rejected spec must not arm anything");
        }
        assert_eq!(configure("  ;; ").unwrap(), 0);
        assert!(!armed());
        assert_eq!(configure("all:panic:prob=0.05,seed=9").unwrap(), 7);
        assert!(armed());
        disarm();
        assert!(!armed());
    }
}
