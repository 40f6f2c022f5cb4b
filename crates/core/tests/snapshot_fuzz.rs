//! Fuzz hardening for the `.gsnap` snapshot reader (vendored proptest
//! shim): a corrupted or truncated snapshot must come back as a typed
//! [`SnapshotError`] — never a panic, and never an attempted allocation
//! sized by attacker-controlled header fields.
//!
//! Why every single-byte corruption must fail: the reader decodes only the
//! config and requires every other header byte, padding included, to be
//! the one the writer emits for that config and the file's payload hash;
//! the payload hash covers the payload. Beyond blind flips, files are
//! also fuzzed *re-signed* (mutate, recompute both FxHashes, load: valid
//! checksums, lying geometry, a resized payload, a different model config
//! or bytes in the payload's alignment gaps). The config fixes the one
//! canonical section plan, and the reader requires the file to be exactly
//! as long as that plan and its header to be exactly the canonical one
//! *before* it builds a model, so a signature alone never buys a deviant
//! layout — nor a model larger than the file. The last is measured: a
//! counting allocator bounds the bytes requested while a re-signed config
//! is rejected by a small multiple of the input length. And since the gaps
//! between sections must be zero, a re-signed payload either is `Corrupt`
//! or loads as a model that saves back to the very same bytes. Run under
//! `--release` in CI alongside the format-stability guard.

use gamora::snapshot::{read_snapshot, write_snapshot};
use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, SnapshotError, TrainConfig};
use gamora_aig::hasher::FxHasher;
use proptest::prelude::*;
use request_counting::counting;
use std::hash::Hasher;
use std::sync::OnceLock;

#[path = "../../../tests/support/request_counting.rs"]
mod request_counting;

fn trained_reasoner() -> GamoraReasoner {
    let m = gamora_circuits::csa_multiplier(3);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 2,
            hidden: 8,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m.aig],
        &TrainConfig {
            epochs: 10,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    reasoner
}

/// A valid snapshot byte stream, built once.
fn v3_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut buf = Vec::new();
        write_snapshot(&trained_reasoner(), &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 3);
        buf
    })
}

/// Flips one byte of `base` and asserts the reader returns a typed error
/// (a no-op write — same byte value — keeps the stream valid and is
/// skipped).
fn assert_mutation_rejected(base: &[u8], pos: usize, value: u8, what: &str) {
    if base[pos] == value {
        return;
    }
    let mut bytes = base.to_vec();
    bytes[pos] = value;
    let result = read_snapshot(&bytes[..]);
    assert!(
        result.is_err(),
        "{what}: byte {pos} set to {value:#04x} must be rejected, got a loaded model"
    );
}

/// Byte size of one v3 section-table entry.
const ENTRY: usize = 1 + 4 + 4 + 8 + 8;

/// Offset of the v3 header tail (`payload_base`, `payload_len`,
/// `payload_hash`, `header_hash`: four u64s) behind the section table.
fn v3_tail(buf: &[u8]) -> usize {
    let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
    32 + ENTRY * count
}

/// Recomputes and installs **both** v3 FxHashes (no secret is involved):
/// the payload hash over everything behind the original payload base,
/// then the header hash over the header including it. Tampered geometry
/// and resized payloads then carry valid signatures — the canonical-layout
/// checks, not the checksums, must be what rejects the stream.
fn resign_v3(buf: &mut [u8], payload_base: usize) {
    let tail = v3_tail(buf);
    let mut h = FxHasher::default();
    h.write(&buf[payload_base.min(buf.len())..]);
    let sig = h.finish();
    buf[tail + 16..tail + 24].copy_from_slice(&sig.to_le_bytes());
    let mut h = FxHasher::default();
    h.write(&buf[..tail + 24]);
    let sig = h.finish();
    buf[tail + 24..tail + 32].copy_from_slice(&sig.to_le_bytes());
}

/// Overwrites the depth fields of the config block (tag at 8, layers at
/// 9, hidden at 13) and re-signs: a correctly signed file for a different
/// model around the same payload.
fn with_resigned_depth(base: &[u8], tag: u8, layers: u32, hidden: u32) -> Vec<u8> {
    let mut bytes = base.to_vec();
    bytes[8] = tag;
    bytes[9..13].copy_from_slice(&layers.to_le_bytes());
    bytes[13..17].copy_from_slice(&hidden.to_le_bytes());
    resign_v3(&mut bytes, v3_payload_base(base));
    bytes
}

/// Rejecting `bytes` may request at most this many bytes: the stream is
/// read into a doubling `Vec`, the section plan and the canonical header
/// are each at most the file's size again, and an error message is a few
/// hundred bytes.
fn rejection_allocation_bound(bytes: &[u8]) -> usize {
    8 * bytes.len() + 4096
}

/// `Err(what happened instead)` unless the reader rejects `bytes` with a
/// typed error.
fn typed_error(bytes: &[u8]) -> Result<(), &'static str> {
    match std::panic::catch_unwind(|| read_snapshot(bytes).is_err()) {
        Ok(true) => Ok(()),
        Ok(false) => Err("loaded cleanly"),
        Err(_) => Err("reader panicked"),
    }
}

fn v3_payload_base(buf: &[u8]) -> usize {
    let tail = v3_tail(buf);
    u64::from_le_bytes(buf[tail..tail + 8].try_into().unwrap()) as usize
}

/// Whether payload-relative byte `at` lies in an alignment gap: in no
/// section of the file's table.
fn v3_in_gap(buf: &[u8], at: usize) -> bool {
    let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
    let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap()) as usize;
    !(0..count).any(|i| {
        let (offset, len) = (u64_at(32 + ENTRY * i + 9), u64_at(32 + ENTRY * i + 17));
        (offset..offset + len).contains(&at)
    })
}

/// `f32` bit patterns a payload run is filled with, besides arbitrary
/// ones: quiet and signalling NaNs with payloads, −0.0, the smallest and
/// largest denormals, and infinity.
const PAYLOAD_PATTERNS: [u32; 6] = [
    0x7FC0_0000,
    0xFF80_0001,
    0x8000_0000,
    0x0000_0001,
    0x807F_FFFF,
    0x7F80_0000,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any single corrupted byte yields `Err`, not a
    /// panic — header bytes trip the header hash, padding bytes trip the
    /// zero check, payload bytes trip the payload hash.
    #[test]
    fn v3_single_byte_corruption_is_rejected(pos in any::<u64>(), value in any::<u8>()) {
        let base = v3_bytes();
        assert_mutation_rejected(base, pos as usize % base.len(), value, "v3");
    }

    /// Corrupted-then-RE-SIGNED v3 geometry (the section table, the
    /// payload base and the payload length) is still rejected: both
    /// checksums verify, but the reader compares every such byte with the
    /// header the writer emits for the config (tag/rows/cols/offset/len,
    /// base and length all fixed by the plan) and accepts no deviation, so
    /// a lying header can never size an allocation, a borrow or a slice.
    #[test]
    fn v3_resigned_geometry_corruption_is_rejected(pos in any::<u64>(), value in any::<u8>()) {
        let base = v3_bytes();
        // Mutate inside the table and the two geometry words behind it
        // (the count stays intact so the re-sign helper and the reader
        // agree on the header extent).
        let pos = 32 + pos as usize % (v3_tail(base) + 16 - 32);
        if base[pos] == value {
            return;
        }
        let mut bytes = base.to_vec();
        bytes[pos] = value;
        resign_v3(&mut bytes, v3_payload_base(base));
        let outcome = typed_error(&bytes);
        prop_assert!(
            outcome.is_ok(),
            "re-signed header byte {pos} set to {value:#04x} must be a typed error: {outcome:?}"
        );
    }

    /// A RE-SIGNED config — any depth tag, any layer count and hidden
    /// width, half of the cases inside the range the header admits — is a
    /// typed `Corrupt` unless it names the very model the file holds, and
    /// the reader gets there without building the model the config
    /// describes: what it requests from the allocator is bounded by the
    /// input length, whatever the config claims.
    #[test]
    fn v3_resigned_config_is_rejected_within_an_allocation_bound(
        tag in 0u8..4,
        layers in any::<u32>(),
        hidden in any::<u32>(),
        plausible in any::<bool>(),
    ) {
        let base = v3_bytes();
        let (layers, hidden) = if plausible {
            (layers % 1025, hidden % 65537)
        } else {
            (layers, hidden)
        };
        if (tag, layers, hidden) == (2, 2, 8) {
            return; // the file's own config
        }
        let bytes = with_resigned_depth(base, tag, layers, hidden);
        let (result, counts) = counting(|| read_snapshot(&bytes[..]));
        let requested = counts.requested;
        prop_assert!(
            matches!(result, Err(SnapshotError::Corrupt(_))),
            "depth ({tag}, {layers}, {hidden}) must be Corrupt, got {:?}",
            result.map(|_| "a loaded model")
        );
        prop_assert!(
            requested <= rejection_allocation_bound(&bytes),
            "rejecting depth ({tag}, {layers}, {hidden}) requested {requested} bytes \
             for a {}-byte input",
            bytes.len()
        );
    }

    /// Every file that loads is canonical. Overwrite a run of payload bytes
    /// with an `f32` pattern (NaN, −0.0, denormals, or arbitrary bits; a
    /// byte's place in the pattern is its place in its `f32`) and re-sign
    /// both hashes: if the run puts a nonzero byte into an alignment gap
    /// between sections, the file is `Corrupt`; otherwise it loads, and
    /// saving the loaded model gives back the file byte for byte.
    #[test]
    fn v3_resigned_payload_loads_only_as_the_file_it_is(
        start in any::<u64>(),
        len in 1usize..40,
        gap_start in any::<bool>(),
        pattern in 0..PAYLOAD_PATTERNS.len() + 1,
        arbitrary in any::<u32>(),
    ) {
        let base = v3_bytes();
        let payload_base = v3_payload_base(base);
        let payload_len = base.len() - payload_base;
        // Half of the runs start inside a gap, so both outcomes are drawn.
        let gaps: Vec<usize> = (0..payload_len).filter(|&at| v3_in_gap(base, at)).collect();
        let start = if gap_start {
            gaps[start as usize % gaps.len()]
        } else {
            start as usize % payload_len
        };
        let bits = PAYLOAD_PATTERNS.get(pattern).copied().unwrap_or(arbitrary);
        let mut bytes = base.to_vec();
        let mut dirty_gap = false;
        for at in start..(start + len).min(payload_len) {
            let value = bits.to_le_bytes()[at % 4];
            bytes[payload_base + at] = value;
            dirty_gap |= value != 0 && v3_in_gap(base, at);
        }
        resign_v3(&mut bytes, payload_base);

        let result = read_snapshot(&bytes[..]);
        if dirty_gap {
            prop_assert!(
                matches!(result, Err(SnapshotError::Corrupt(_))),
                "{len} bytes of {bits:#010x} at payload byte {start} fill a gap: {:?}",
                result.map(|_| "a loaded model")
            );
        } else {
            let loaded = result.unwrap_or_else(|e| {
                panic!("{len} bytes of {bits:#010x} at payload byte {start}: {e}")
            });
            let mut saved = Vec::new();
            write_snapshot(&loaded, &mut saved).unwrap();
            prop_assert!(
                saved == bytes,
                "{len} bytes of {bits:#010x} at payload byte {start} re-save differently"
            );
        }
    }

    /// Any strict prefix of a valid stream is rejected as truncated.
    #[test]
    fn truncated_snapshots_are_rejected(cut in any::<u64>()) {
        let base = v3_bytes();
        let cut = cut as usize % base.len(); // strictly shorter than the full stream
        let result = read_snapshot(&base[..cut]);
        prop_assert!(result.is_err(), "truncation at {cut}/{} must be rejected", base.len());
    }
}

/// A payload resized by any amount — file cut or zero-extended to match,
/// `payload_len` rewritten, both hashes re-signed — is a typed error: the
/// reader compares the file's length with the one the canonical plan
/// gives before it slices a single section. (The shrunk case indexed out of bounds
/// before that order was fixed.)
#[test]
fn v3_resigned_resized_payload_is_rejected() {
    let base = v3_bytes();
    let (tail, payload_base) = (v3_tail(base), v3_payload_base(base));
    let payload_len = base.len() - payload_base;
    for new_len in (0..payload_len + 130).filter(|&l| l != payload_len) {
        let mut bytes = base.to_vec();
        bytes.resize(payload_base + new_len, 0);
        bytes[tail + 8..tail + 16].copy_from_slice(&(new_len as u64).to_le_bytes());
        resign_v3(&mut bytes, payload_base);
        let outcome = typed_error(&bytes);
        assert!(
            outcome.is_ok(),
            "payload resized {payload_len} -> {new_len} must be a typed error: {outcome:?}"
        );
    }
}

/// Header fields that size reads are validated before any allocation
/// they could size. A 4-billion section count sizes nothing: the config
/// fixes the count, and the stored one is just a deviating header byte.
/// The largest model the header admits — 1024 layers of 65536 hidden
/// channels, 32 GiB of weights, correctly signed onto a kilobyte file —
/// is `Corrupt` from its header length alone. (Until the plan was checked first, the reader
/// built that model's skeleton and the process died in `rust_oom`.)
#[test]
fn huge_header_lengths_fail_before_allocating() {
    let base = v3_bytes();
    let mut bytes = base.to_vec();
    bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = read_snapshot(&bytes[..]).expect_err("section count");
    assert!(err.to_string().contains("corrupt"), "{err}");

    let bytes = with_resigned_depth(base, 2, 1024, 65536);
    let (result, counts) = counting(|| read_snapshot(&bytes[..]));
    let requested = counts.requested;
    let err = result.expect_err("1024 x 65536 config");
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    assert!(
        requested <= rejection_allocation_bound(&bytes),
        "rejecting a {}-byte input requested {requested} bytes",
        bytes.len()
    );
}

/// Relabelling a stream as another version is `UnsupportedVersion`,
/// whatever follows the version field.
#[test]
fn version_relabel_is_rejected() {
    for version in [0u32, 1, 2, 4, u32::MAX] {
        let mut bytes = v3_bytes().to_vec();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let err = read_snapshot(&bytes[..]).expect_err("relabelled stream");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
            "a stream relabelled to v{version}: {err}"
        );
    }
}
