//! Format-stability guard for `.gsnap` snapshots.
//!
//! There is one format (version 3). Three things pin it: a walk of the
//! documented byte layout from first principles; the Fx hash of the image
//! of fixed seeded reasoners, recorded from the writer at commit bfcfe20
//! (the last one that also carried v1/v2 streams and i8 sections) and at
//! 885be8c (the last one with a single-task option); and a
//! file bfcfe20 wrote, `tests/fixtures/parent_v3.gsnap`, which must
//! load, serve the predictions its source model served, and re-serialise
//! to the same bytes. Files written before the
//! legacy paths were retired keep working, and files written after are
//! readable by builds from before. What those builds could also read is
//! now a typed error: version 1 and 2 headers, i8 (tag 1) sections and
//! single-task files (tasks flag 0).
//! Run under `--release` in CI.

use gamora::snapshot::{read_snapshot, write_snapshot, SNAPSHOT_ALIGN, SNAPSHOT_MAGIC};
use gamora::{
    Direction, FeatureMode, GamoraReasoner, ModelDepth, Predictions, ReasonerConfig, SnapshotError,
    TrainConfig,
};
use gamora_aig::hasher::FxHasher;
use gamora_circuits::csa_multiplier;
use std::hash::Hasher;

fn trained_reasoner() -> GamoraReasoner {
    let m = csa_multiplier(3);
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
            epochs: 20,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    reasoner
}

fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn image_of(reasoner: &GamoraReasoner) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(reasoner, &mut buf).unwrap();
    buf
}

/// Untrained reasoners are a pure function of their config (seeded
/// Glorot weights, zero biases), so their images are too. The `shallow`
/// hash was printed by `write_snapshot` at commit bfcfe20, the `custom`
/// one by `write_snapshot` at commit 885be8c, the last writer with a
/// single-task option, for the same config with one head per task.
#[test]
fn v3_image_hash_is_pinned_to_the_parent_commit() {
    let shallow = GamoraReasoner::new(ReasonerConfig::default());
    let custom = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 3,
            hidden: 37,
        },
        feature_mode: FeatureMode::Structural,
        direction: Direction::Fanin,
        seed: 0x5EED,
    });
    for (reasoner, len, want) in [
        (shallow, 31752, 0x5fb3e4fa562f8faf_u64),
        (custom, 29960, 0xa76ff000c67bfc85),
    ] {
        let image = image_of(&reasoner);
        let got = fx(&image);
        assert_eq!(
            (image.len(), got),
            (len, want),
            "{:?}: {got:#018x}",
            reasoner.config()
        );
    }
}

const FIXTURE: &[u8] = include_bytes!("fixtures/parent_v3.gsnap");

/// One byte per task and node, behind a nonzero lead byte (Fx maps an
/// all-zero stream to zero).
fn prediction_hash(p: &Predictions) -> u64 {
    let mut bytes = vec![0xA5u8];
    for ((&c, &x), &m) in p.root_leaf.iter().zip(&p.is_xor).zip(&p.is_maj) {
        bytes.extend_from_slice(&[c as u8, x as u8, m as u8]);
    }
    fx(&bytes)
}

/// The fixture is a 2-layer, 8-hidden reasoner trained for 300 epochs on
/// 3- and 4-bit CSA multipliers and saved at commit bfcfe20; that process
/// also printed the hash of its predictions on a 5-bit CSA multiplier
/// (69 of 207 nodes in a non-default root/leaf class, 35 XOR, 18 MAJ).
#[test]
fn parent_written_fixture_loads_and_serves_its_source_predictions() {
    const SOURCE_PREDICTIONS: u64 = 0xc257a4e369c5bf53;
    assert_eq!(fx(FIXTURE), 0xdab8adc61f9c2ba1, "the fixture file itself");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/parent_v3.gsnap"
    );
    let subject = csa_multiplier(5);

    let loaded = GamoraReasoner::load(path).unwrap();
    assert_eq!(
        prediction_hash(&loaded.predict(&subject.aig)),
        SOURCE_PREDICTIONS
    );
    assert_eq!(
        image_of(&loaded),
        FIXTURE,
        "today's writer must emit the bytes the parent's writer did"
    );
}

/// Recomputes and installs the header hash, so that a tampered header
/// field — not its stale signature — is what the reader has to reject.
fn resign_header(buf: &mut [u8]) {
    let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
    let hash_pos = 32 + (1 + 4 + 4 + 8 + 8) * count + 24;
    let sig = fx(&buf[..hash_pos]);
    buf[hash_pos..hash_pos + 8].copy_from_slice(&sig.to_le_bytes());
}

/// What the retired readers accepted is rejected by type, not by panic
/// or by luck: a version 1 or 2 header is `UnsupportedVersion` (and says
/// which version is read), and a correctly signed version 3 header whose
/// first section claims the i8 tag is `Corrupt`.
#[test]
fn legacy_versions_and_i8_sections_are_typed_errors() {
    let pristine = image_of(&trained_reasoner());
    for version in [1u32, 2] {
        let mut bytes = pristine.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
            "{err}"
        );
        assert!(err.to_string().contains("reads v3"), "{err}");
        // A bare legacy header (all a v1/v2 file shares with today's
        // layout) gets the same answer.
        let err = read_snapshot(&bytes[..28]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
            "{err}"
        );
    }

    let mut bytes = pristine.clone();
    assert_eq!(bytes[32], 0, "first section tag");
    bytes[32] = 1;
    resign_header(&mut bytes);
    let err = read_snapshot(&bytes[..]).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("section 0"), "{err}");
}

/// Walks the documented layout from first principles: fixed header,
/// section table, 64-byte-aligned payload, and the two split checksums —
/// each defined as ONE `FxHasher::write` over a contiguous range. Pins
/// the alignment the format promises: every section offset is aligned
/// and in-bounds.
#[test]
fn v3_snapshot_uses_the_exact_documented_layout() {
    let reasoner = trained_reasoner();
    let mut buf = Vec::new();
    write_snapshot(&reasoner, &mut buf).unwrap();

    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());

    assert_eq!(&buf[0..4], SNAPSHOT_MAGIC, "magic");
    assert_eq!(u32_at(4), 3, "format version");
    // [8..28] is the 20-byte config block.
    assert_eq!(buf[8], 2, "custom depth tag");
    assert_eq!(u32_at(9), 2, "layers");
    assert_eq!(u32_at(13), 8, "hidden");
    assert_eq!(buf[19], 1, "tasks flag");

    const ENTRY: usize = 1 + 4 + 4 + 8 + 8; // tag, rows, cols, offset, len
    let count = u32_at(28) as usize;
    let table = 32;
    let tail = table + ENTRY * count;
    let payload_base = u64_at(tail) as usize;
    let payload_len = u64_at(tail + 8) as usize;
    let payload_hash = u64_at(tail + 16);
    let header_hash = u64_at(tail + 24);
    let header_len = tail + 32;

    assert_eq!(
        payload_base,
        header_len.div_ceil(SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN,
        "payload starts at the first aligned offset past the header"
    );
    assert_eq!(payload_base + payload_len, buf.len(), "payload ends at EOF");
    assert!(
        buf[header_len..payload_base].iter().all(|&b| b == 0),
        "header/payload padding is zeroed"
    );

    // Section table: {weights, bias} per linear, all tag 0 (f32), at
    // ascending 64-aligned offsets.
    assert_eq!(count % 2, 0, "two sections per linear");
    let mut scalars = 0usize;
    let mut cursor = 0usize;
    for i in 0..count {
        let at = table + ENTRY * i;
        let (tag, rows, cols) = (buf[at], u32_at(at + 1) as usize, u32_at(at + 5) as usize);
        let (offset, len) = (u64_at(at + 9) as usize, u64_at(at + 17) as usize);
        assert_eq!(tag, 0, "f32 is the only section type");
        assert_eq!(len, rows * cols * 4, "section length matches its shape");
        assert_eq!(offset % SNAPSHOT_ALIGN, 0, "section offset is aligned");
        assert_eq!(
            offset,
            cursor.div_ceil(SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN,
            "sections are densely packed at canonical offsets"
        );
        assert!(offset + len <= payload_len, "section stays in the payload");
        cursor = offset + len;
        scalars += rows * cols;
    }
    assert_eq!(cursor, payload_len, "no trailing payload bytes");
    assert_eq!(
        scalars,
        reasoner.num_params(),
        "v3 stores every parameter scalar exactly once"
    );

    // Both checksums are a SINGLE hasher write over a contiguous range.
    let mut h = FxHasher::default();
    h.write(&buf[payload_base..]);
    assert_eq!(h.finish(), payload_hash, "payload checksum definition");
    let mut h = FxHasher::default();
    h.write(&buf[..header_len - 8]);
    assert_eq!(h.finish(), header_hash, "header checksum definition");
}
