//! Hand-rolled JSON serialisation for the `gamora` binary's reports.
//!
//! No external dependencies: a small value tree with RFC 8259-compliant
//! string escaping and deterministic field order (fields appear in
//! insertion order, so reports diff cleanly across runs).

use crate::scheduler::ServeStats;
use gamora_obs::{HistogramSnapshot, Snapshot};
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (serialised via Rust's shortest-roundtrip float
    /// formatting; integers print without a decimal point). Use
    /// [`Json::Int`]/[`Json::UInt`] for integers that may exceed 2^53 —
    /// an `f64` cannot hold those exactly.
    Num(f64),
    /// A signed integer, serialised digit-exactly at any magnitude.
    Int(i64),
    /// An unsigned integer, serialised digit-exactly at any magnitude
    /// (counters and histogram sums are `u64` and can exceed both 2^53
    /// and `i64::MAX`).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A signed integer value, exact at any magnitude.
    pub fn int(n: impl Into<i64>) -> Json {
        Json::Int(n.into())
    }

    /// A `usize` value, exact at any magnitude.
    pub fn uint(n: usize) -> Json {
        Json::UInt(n as u64)
    }

    /// A `u64` value, exact at any magnitude (no detour through `f64`,
    /// which silently rounds above 2^53).
    pub fn u64(n: u64) -> Json {
        Json::UInt(n)
    }

    /// Serialises with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Serialises without whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::UInt(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, depth, pretty, '[', ']', items.len(), |out, i| {
                items[i].write(out, depth + 1, pretty);
            }),
            Json::Obj(fields) => write_seq(out, depth, pretty, '{', '}', fields.len(), |out, i| {
                write_string(out, &fields[i].0);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                fields[i].1.write(out, depth + 1, pretty);
            }),
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; serialise as null like most encoders.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    depth: usize,
    pretty: bool,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            for _ in 0..(depth + 1) * 2 {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if pretty {
        out.push('\n');
        for _ in 0..depth * 2 {
            out.push(' ');
        }
    }
    out.push(close);
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

/// The canonical JSON rendering of a server's counters, shared by every
/// `gamora` subcommand so reports stay field-compatible. Includes the
/// overload-hardening counters (`jobs_dropped`, `jobs_expired`,
/// `rejected_overload`, `peak_queued`) and the self-healing counters
/// (`jobs_failed`, `workers_respawned`, `quarantines`, `health`) alongside the serving totals, and `kernel_isa` — the GEMM /
/// aggregation kernel variant this process runs — so the timings printed
/// next to these counters name the code path that produced them.
pub fn serve_stats_json(stats: &ServeStats) -> Json {
    Json::obj([
        ("jobs_submitted", Json::u64(stats.jobs_submitted)),
        ("jobs", Json::u64(stats.jobs)),
        ("batches", Json::u64(stats.batches)),
        ("forward_passes", Json::u64(stats.forward_passes)),
        ("cache_hits", Json::u64(stats.cache_hits)),
        ("cache_misses", Json::u64(stats.cache_misses)),
        ("jobs_dropped", Json::u64(stats.jobs_dropped)),
        ("jobs_expired", Json::u64(stats.jobs_expired)),
        ("jobs_failed", Json::u64(stats.jobs_failed)),
        ("rejected_overload", Json::u64(stats.rejected_overload)),
        ("workers_respawned", Json::u64(stats.workers_respawned)),
        ("quarantines", Json::u64(stats.quarantines)),
        ("peak_queued", Json::u64(stats.peak_queued)),
        ("health", Json::str(stats.health.name())),
        ("kernel_isa", Json::str(gamora_gnn::kernel_isa())),
    ])
}

/// The JSON summary of one latency histogram: observation count, mean,
/// the p50/p90/p99/p99.9 percentiles, and the exact min/max. Percentile
/// fields are `null` for an empty histogram (no observation to rank).
pub fn histogram_json(h: &HistogramSnapshot) -> Json {
    let pct = |q: f64| {
        if h.is_empty() {
            Json::Null
        } else {
            Json::u64(h.percentile(q))
        }
    };
    Json::obj([
        ("count", Json::u64(h.count())),
        (
            "mean",
            if h.is_empty() {
                Json::Null
            } else {
                Json::Num(h.mean())
            },
        ),
        ("p50", pct(0.50)),
        ("p90", pct(0.90)),
        ("p99", pct(0.99)),
        ("p999", pct(0.999)),
        (
            "min",
            if h.is_empty() {
                Json::Null
            } else {
                Json::u64(h.min)
            },
        ),
        (
            "max",
            if h.is_empty() {
                Json::Null
            } else {
                Json::u64(h.max)
            },
        ),
    ])
}

/// Short report key → registered metric name for every per-job serve
/// stage (all in microseconds), in pipeline order, as the JSON reports
/// name them.
pub const STAGE_METRICS: &[(&str, &str)] = &[
    ("snapshot_load", "stage_snapshot_load_micros"),
    ("admission", "stage_admission_micros"),
    ("queue_wait", "stage_queue_wait_micros"),
    ("linger", "stage_linger_micros"),
    ("signature_hash", "stage_signature_hash_micros"),
    ("batch_assemble", "stage_batch_assemble_micros"),
    ("gnn_forward", "stage_gnn_forward_micros"),
    ("prediction_split", "stage_prediction_split_micros"),
    ("postprocess", "stage_postprocess_micros"),
    ("time_to_rejection", "stage_time_to_rejection_micros"),
    ("e2e", "latency_e2e_micros"),
];

/// The per-stage latency block of a metric snapshot: one
/// [`histogram_json`] summary per [`STAGE_METRICS`] entry present in the
/// snapshot, keyed by the short stage name.
pub fn stages_json(snapshot: &Snapshot) -> Json {
    Json::Obj(
        STAGE_METRICS
            .iter()
            .filter_map(|(key, metric)| {
                snapshot
                    .histogram(metric)
                    .map(|h| (key.to_string(), histogram_json(h)))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_in_insertion_order() {
        let j = Json::obj([
            ("b", Json::uint(2)),
            ("a", Json::arr([Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(j.compact(), r#"{"b":2,"a":[true,null]}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(j.compact(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn numbers_print_integers_exactly() {
        assert_eq!(Json::uint(123456789).compact(), "123456789");
        assert_eq!(Json::Num(0.25).compact(), "0.25");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::int(-7i32).compact(), "-7");
    }

    /// Regression: integer constructors must be digit-exact beyond the
    /// 2^53 `f64` mantissa limit and beyond `i64::MAX` — a `u64` counter
    /// routed through `f64` silently rounds ((1<<53)+1 prints as
    /// 9007199254740992) and a cast through `i64` wraps negative.
    #[test]
    fn large_integers_serialise_without_truncation_or_rounding() {
        let above_f64_mantissa = (1u64 << 53) + 1; // rounds under f64
        assert_eq!(
            Json::u64(above_f64_mantissa).compact(),
            "9007199254740993",
            "must not round to the nearest representable f64"
        );
        let above_i64 = i64::MAX as u64 + 1; // wraps under an i64 cast
        assert_eq!(Json::u64(above_i64).compact(), "9223372036854775808");
        assert_eq!(Json::u64(u64::MAX).compact(), "18446744073709551615");
        assert_eq!(Json::int(i64::MIN).compact(), "-9223372036854775808");
        assert_eq!(Json::int(i64::MAX).compact(), "9223372036854775807");
        assert_eq!(
            Json::uint(above_f64_mantissa as usize).compact(),
            "9007199254740993",
            "uint must not detour through f64 either"
        );
        // And through a full serve-stats rendering, not just in isolation.
        let stats = ServeStats {
            jobs_submitted: u64::MAX,
            ..ServeStats::default()
        };
        assert!(serve_stats_json(&stats)
            .compact()
            .contains("\"jobs_submitted\":18446744073709551615"));
    }

    #[test]
    fn histogram_json_reports_percentiles_and_handles_empty() {
        use gamora_obs::Histogram;
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let rendered = histogram_json(&h.snapshot()).compact();
        // Values < 64 are exact (linear region); p99's rank value 99 sits
        // in the width-2 bucket [98, 99], reported by its lower bound.
        for field in [
            "\"count\":100",
            "\"p50\":50",
            "\"p90\":90",
            "\"p99\":98",
            "\"p999\":100",
            "\"min\":1",
            "\"max\":100",
        ] {
            assert!(rendered.contains(field), "{field} missing from {rendered}");
        }

        let empty = histogram_json(&HistogramSnapshot::empty()).compact();
        assert!(empty.contains("\"count\":0"));
        assert!(empty.contains("\"p50\":null"));
        assert!(empty.contains("\"mean\":null"));
    }

    #[test]
    fn stages_json_keys_present_stage_histograms() {
        use gamora_obs::Registry;
        let mut reg = Registry::new();
        reg.histogram("stage_gnn_forward_micros").record(1000);
        reg.histogram("latency_e2e_micros").record(2000);
        reg.histogram("unrelated_micros").record(1);
        let Json::Obj(fields) = stages_json(&reg.snapshot()) else {
            panic!("stages_json returns an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["gnn_forward", "e2e"], "pipeline order, present only");
    }

    #[test]
    fn pretty_is_indented_and_stable() {
        let j = Json::obj([("xs", Json::arr([Json::uint(1), Json::uint(2)]))]);
        assert_eq!(j.pretty(), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_are_tight() {
        assert_eq!(Json::arr([]).pretty(), "[]");
        assert_eq!(Json::obj([]).pretty(), "{}");
    }

    #[test]
    fn serve_stats_render_every_overload_counter() {
        let stats = ServeStats {
            jobs_submitted: 12,
            jobs: 9,
            batches: 3,
            forward_passes: 2,
            cache_hits: 5,
            cache_misses: 4,
            jobs_dropped: 1,
            jobs_expired: 2,
            jobs_failed: 3,
            rejected_overload: 7,
            workers_respawned: 4,
            quarantines: 1,
            peak_queued: 6,
            health: crate::scheduler::Health::Degraded,
        };
        let rendered = serve_stats_json(&stats).compact();
        for field in [
            "\"jobs_submitted\":12",
            "\"jobs\":9",
            "\"jobs_dropped\":1",
            "\"jobs_expired\":2",
            "\"jobs_failed\":3",
            "\"rejected_overload\":7",
            "\"workers_respawned\":4",
            "\"quarantines\":1",
            "\"peak_queued\":6",
            "\"health\":\"degraded\"",
            &format!("\"kernel_isa\":\"{}\"", gamora_gnn::kernel_isa()),
        ] {
            assert!(rendered.contains(field), "{field} missing from {rendered}");
        }
    }
}
