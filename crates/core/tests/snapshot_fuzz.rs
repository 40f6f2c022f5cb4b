//! Fuzz hardening for the `.gsnap` snapshot reader (vendored proptest
//! shim): a corrupted or truncated snapshot must come back as a typed
//! [`SnapshotError`] — never a panic, and never an attempted allocation
//! sized by attacker-controlled header fields (length fields are
//! validated against the model skeleton *before* any buffer is sized).
//!
//! Why every single-byte corruption must fail: in v1/v2 every field is
//! covered by the trailing Fx checksum, whose per-field fold is
//! bijective in each 8-byte chunk — equal-shaped streams that differ
//! anywhere hash differently. In v3 the header hash covers the header,
//! the payload hash covers the payload, and the inter-region padding is
//! required to be zero, so the three cases tile the whole file. Beyond
//! blind flips, v3 files are also fuzzed *re-signed* (mutate, recompute
//! both FxHashes, load: valid checksums, lying geometry or a resized
//! payload): the reader recomputes every section's canonical
//! tag/shape/offset/length and the payload total from the model skeleton
//! before it touches the payload, so a signature alone never buys a
//! deviant layout. Run under `--release` in CI
//! alongside the snapshot back-compat guard.

use gamora::snapshot::{read_snapshot, write_snapshot, write_snapshot_legacy};
use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_aig::hasher::FxHasher;
use proptest::prelude::*;
use std::hash::Hasher;
use std::sync::OnceLock;

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

/// A valid v1 (f32, legacy writer) snapshot byte stream, built once.
fn v1_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut buf = Vec::new();
        write_snapshot_legacy(&trained_reasoner(), &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 1);
        buf
    })
}

/// A valid v2 (section-tagged, quantised, legacy writer) byte stream.
fn v2_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut reasoner = trained_reasoner();
        reasoner.quantise();
        let mut buf = Vec::new();
        write_snapshot_legacy(&reasoner, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 2);
        buf
    })
}

/// A valid v3 (mmap-ready, current writer) byte stream.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any single corrupted byte in a v1 stream yields `Err`, not a panic.
    #[test]
    fn v1_single_byte_corruption_is_rejected(pos in any::<u64>(), value in any::<u8>()) {
        let base = v1_bytes();
        assert_mutation_rejected(base, pos as usize % base.len(), value, "v1");
    }

    /// Any single corrupted byte in a v2 stream yields `Err`, not a panic.
    #[test]
    fn v2_single_byte_corruption_is_rejected(pos in any::<u64>(), value in any::<u8>()) {
        let base = v2_bytes();
        assert_mutation_rejected(base, pos as usize % base.len(), value, "v2");
    }

    /// Any single corrupted byte in a v3 stream yields `Err`, not a
    /// panic — header bytes trip the header hash, padding bytes trip the
    /// zero check, payload bytes trip the payload hash.
    #[test]
    fn v3_single_byte_corruption_is_rejected(pos in any::<u64>(), value in any::<u8>()) {
        let base = v3_bytes();
        assert_mutation_rejected(base, pos as usize % base.len(), value, "v3");
    }

    /// Corrupted-then-RE-SIGNED v3 geometry (the section table, the
    /// payload base and the payload length) is still rejected: both
    /// checksums verify, but the canonical section walk
    /// (tag/rows/cols/offset/len and the total recomputed from the
    /// skeleton) accepts no deviation, so a lying header can never size
    /// an allocation, a borrow or a slice.
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

    /// Any strict prefix of a valid stream is rejected as truncated.
    #[test]
    fn truncated_snapshots_are_rejected(cut in any::<u64>(), version in 0u8..3) {
        let base = match version {
            0 => v1_bytes(),
            1 => v2_bytes(),
            _ => v3_bytes(),
        };
        let cut = cut as usize % base.len(); // strictly shorter than the full stream
        let result = read_snapshot(&base[..cut]);
        prop_assert!(result.is_err(), "truncation at {cut}/{} must be rejected", base.len());
    }
}

/// A payload resized by any amount — file cut or zero-extended to match,
/// `payload_len` rewritten, both hashes re-signed — is a typed error: the
/// reader compares the canonical plan length with the declared one before
/// it slices a single section. (The shrunk case indexed out of bounds
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

/// Header fields that size reads are validated against the model
/// skeleton before any allocation: a 4-billion entry tensor count or
/// scalar length comes back `Corrupt` immediately instead of attempting
/// a multi-gigabyte `Vec`. The v3 section count gets the same cap.
#[test]
fn huge_header_lengths_fail_before_allocating() {
    let base = v1_bytes();
    // Offsets in the v1 layout: magic(4) + version(4) + config(20), then
    // the tensor count u32 at 28, then tensor 0's scalar-count u32 at 32.
    for (offset, what) in [(28usize, "tensor count"), (32usize, "tensor 0 length")] {
        let mut bytes = base.to_vec();
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_snapshot(&bytes[..]).expect_err(what);
        let msg = err.to_string();
        assert!(
            msg.contains("corrupt"),
            "{what}: expected a Corrupt error, got: {msg}"
        );
    }
    // v3: the section count at 28 is capped by the file size before the
    // table is allocated or walked.
    let mut bytes = v3_bytes().to_vec();
    bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = read_snapshot(&bytes[..]).expect_err("v3 section count");
    assert!(err.to_string().contains("corrupt"), "{err}");
}

/// Cross-version confusion: relabelling a stream as a different version
/// must fail the section parse, the shape checks, or a checksum — never
/// panic, never load.
#[test]
fn version_relabel_is_rejected() {
    for (base, version) in [
        (v1_bytes(), 2u32),
        (v2_bytes(), 1u32),
        (v1_bytes(), 3u32),
        (v3_bytes(), 1u32),
        (v3_bytes(), 2u32),
    ] {
        let mut bytes = base.to_vec();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        assert!(
            read_snapshot(&bytes[..]).is_err(),
            "a stream relabelled to v{version} must be rejected"
        );
    }
}
