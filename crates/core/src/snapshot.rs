//! Binary snapshots of trained reasoners (`.gsnap`).
//!
//! The format is hand-rolled little-endian with no external dependencies —
//! the one durable on-disk artifact of the workspace, written once by
//! `gamora train` and served many times by `gamora infer` / `gamora-serve`.
//!
//! The header carries an explicit section table (tag, rows, cols, byte
//! offset, byte length per tensor) and the weight payloads live in a
//! trailing 64-byte-aligned payload region; the alignment is a property
//! of the format, every section starting on a cache line. All integers
//! are little-endian:
//!
//! ```text
//! magic         : 4 bytes  b"GMRS"
//! version       : u32     (3)
//! config        : depth tag u8, layers u32, hidden u32,
//!                 feature_mode u8, direction u8, multi_task u8, seed u64
//! section_count : u32
//! sections      : per section { tag u8 (0 = f32), rows u32, cols u32,
//!                               offset u64 (payload-relative, 64-aligned),
//!                               len u64 (bytes) }
//! payload_base  : u64     (absolute file offset, 64-aligned)
//! payload_len   : u64
//! payload_hash  : u64     Fx hash of the whole payload region
//! header_hash   : u64     Fx hash of every preceding header byte
//! padding       : zeros to payload_base
//! payload       : the sections' bytes, each 64-aligned, in model order
//!                 (per linear: f32 weights, then f32 bias)
//! ```
//!
//! Both hashes are computed as a single `FxHasher::write` over the
//! covered byte range. All of the header but the config and the payload
//! hash is redundant on purpose: the config fixes every layer shape, the
//! shapes fix the one canonical section plan (`section_plan`), and the
//! plan fixes every other field. One encoder (`canonical_header`) writes
//! the header, and the reader decodes only the config, then requires the
//! file to begin with exactly the header that encoder emits for it and
//! to be exactly as long as the plan — *before* it builds the model, so a
//! re-signed lying header never sizes an allocation and the model built
//! for a file is never larger than the file. With the gaps between
//! sections required to be zero, every file that loads re-saves to itself.
//!
//! Floats are serialised via `f32::to_le_bytes`, so a save/load round trip
//! is bit-exact and a reloaded reasoner reproduces in-process predictions
//! and `evaluate` scores exactly. The checksums turn truncation and bit
//! corruption into [`SnapshotError::Corrupt`] instead of a silently wrong
//! model. The writer refuses a depth the reader would refuse
//! ([`check_depth`]), so it never emits a file that cannot be loaded.
//!
//! [`GamoraReasoner::save`] writes a sibling temporary file and renames it
//! over the target, so a concurrent reader sees the old file or the new
//! one, never half of either.

use crate::features::FeatureMode;
use crate::reasoner::{GamoraReasoner, ModelDepth, ReasonerConfig};
use gamora_aig::hasher::FxHasher;
use gamora_gnn::Direction;
use std::fmt;
use std::fs::File;
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic: "GaMoRa Snapshot".
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GMRS";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Alignment of the payload region and of every section inside it: each
/// tensor's bytes start on a 64-byte boundary, both file-relative and
/// payload-relative, so every section is aligned for its element type
/// and for cache lines.
pub const SNAPSHOT_ALIGN: usize = 64;

/// Section tag of an `f32` tensor — the only element type.
const SECTION_F32: u8 = 0;

/// End of the config block, the last header byte the reader decodes.
const CONFIG_END: usize = 28;

/// Errors produced by snapshot I/O.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file is a snapshot, but of a format version this build does
    /// not read.
    UnsupportedVersion(u32),
    /// Structurally invalid or checksum-mismatched content.
    Corrupt(String),
    /// The writer was handed a model whose depth a snapshot cannot hold
    /// (see [`check_depth`]).
    DepthOutOfBounds {
        /// SAGE layer count of the refused model.
        layers: usize,
        /// Hidden width of the refused model.
        hidden: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a gamora snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads v{SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::DepthOutOfBounds { layers, hidden } => write!(
                f,
                "a snapshot holds 1-{MAX_LAYERS} layers of 1-{MAX_HIDDEN} hidden channels, \
                 not {layers}x{hidden}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

fn fx_hash(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

fn depth_tag(depth: ModelDepth) -> (u8, u32, u32) {
    match depth {
        ModelDepth::Shallow => (0, 0, 0),
        ModelDepth::Deep => (1, 0, 0),
        ModelDepth::Custom { layers, hidden } => (2, layers as u32, hidden as u32),
    }
}

/// Most SAGE layers a snapshot holds.
pub const MAX_LAYERS: usize = 1024;

/// Widest hidden layer a snapshot holds.
pub const MAX_HIDDEN: usize = 65_536;

/// Whether a snapshot can hold a model of this depth: 1 to
/// [`MAX_LAYERS`] layers of 1 to [`MAX_HIDDEN`] hidden channels. The
/// reader refuses any other depth as corrupt, the writer refuses to emit
/// one, and `gamora train --depth` refuses to train one.
///
/// # Errors
///
/// [`SnapshotError::DepthOutOfBounds`] outside those bounds.
pub fn check_depth(depth: ModelDepth) -> Result<(), SnapshotError> {
    let (layers, hidden) = depth.dims();
    if (1..=MAX_LAYERS).contains(&layers) && (1..=MAX_HIDDEN).contains(&hidden) {
        Ok(())
    } else {
        Err(SnapshotError::DepthOutOfBounds { layers, hidden })
    }
}

fn depth_from_tag(tag: u8, layers: u32, hidden: u32) -> Result<ModelDepth, SnapshotError> {
    let depth = match tag {
        0 => ModelDepth::Shallow,
        1 => ModelDepth::Deep,
        2 => ModelDepth::Custom {
            layers: layers as usize,
            hidden: hidden as usize,
        },
        t => return Err(corrupt(format!("unknown depth tag {t}"))),
    };
    check_depth(depth).map_err(|e| corrupt(format!("implausible custom depth: {e}")))?;
    Ok(depth)
}

fn feature_mode_tag(mode: FeatureMode) -> u8 {
    match mode {
        FeatureMode::Structural => 0,
        FeatureMode::StructuralFunctional => 1,
    }
}

fn feature_mode_from_tag(tag: u8) -> Result<FeatureMode, SnapshotError> {
    match tag {
        0 => Ok(FeatureMode::Structural),
        1 => Ok(FeatureMode::StructuralFunctional),
        t => Err(corrupt(format!("unknown feature-mode tag {t}"))),
    }
}

fn direction_tag(dir: Direction) -> u8 {
    match dir {
        Direction::Fanin => 0,
        Direction::Fanout => 1,
        Direction::Bidirectional => 2,
    }
}

fn direction_from_tag(tag: u8) -> Result<Direction, SnapshotError> {
    match tag {
        0 => Ok(Direction::Fanin),
        1 => Ok(Direction::Fanout),
        2 => Ok(Direction::Bidirectional),
        t => Err(corrupt(format!("unknown direction tag {t}"))),
    }
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// One entry of the header section table; every section is `f32`.
struct SectionEntry {
    rows: u32,
    cols: u32,
    /// Payload-relative byte offset (64-aligned).
    offset: u64,
    /// Byte length of the section's data.
    len: u64,
}

impl SectionEntry {
    /// First payload-relative byte past the section.
    fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// The section's payload-relative byte range, in a payload in memory.
    fn range(&self) -> Range<usize> {
        self.offset as usize..self.end() as usize
    }
}

/// Byte size of one serialised [`SectionEntry`].
const SECTION_ENTRY_BYTES: usize = 1 + 4 + 4 + 8 + 8;

/// Byte length of a header holding `count` sections, padding excluded: 32
/// bytes before the table (magic to count) and 32 after (payload_base on).
fn header_len(count: usize) -> usize {
    32 + SECTION_ENTRY_BYTES * count + 32
}

/// The canonical section plan for linear layers of the given `(rows,
/// cols)` weight shapes: per layer an `f32` weight section and an `f32`
/// bias section, each packed at the next 64-aligned payload offset; the
/// payload ends where the last section does. Nothing is allocated here
/// and every product and sum is checked, so the shapes of a hostile
/// config yield an error, not a wrap.
fn section_plan(
    shapes: impl Iterator<Item = (usize, usize)>,
) -> impl Iterator<Item = Result<SectionEntry, SnapshotError>> {
    let mut cursor = 0u64;
    let tensors = shapes.flat_map(|(rows, cols)| [(rows, cols), (1, cols)]);
    tensors.map(move |(rows, cols)| {
        let overflow = || corrupt(format!("a {rows}x{cols} section overflows the layout"));
        let len = (rows as u64)
            .checked_mul(cols as u64)
            .and_then(|scalars| scalars.checked_mul(4))
            .ok_or_else(overflow)?;
        let offset = cursor
            .checked_next_multiple_of(SNAPSHOT_ALIGN as u64)
            .ok_or_else(overflow)?;
        cursor = offset.checked_add(len).ok_or_else(overflow)?;
        Ok(SectionEntry {
            rows: u32::try_from(rows).map_err(|_| overflow())?,
            cols: u32::try_from(cols).map_err(|_| overflow())?,
            offset,
            len,
        })
    })
}

/// The header, zero-padded to the payload base, for `config` over these
/// sections and a payload hashing to `payload_hash` — every byte a function
/// of the arguments. The writer emits it, and the reader requires a file
/// to begin with exactly it.
fn canonical_header(
    config: &ReasonerConfig,
    sections: &[SectionEntry],
    payload_hash: u64,
) -> Vec<u8> {
    let payload_base = align_up(header_len(sections.len()), SNAPSHOT_ALIGN);
    let (tag, layers, hidden) = depth_tag(config.depth);
    let mut header = Vec::with_capacity(payload_base);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.push(tag);
    header.extend_from_slice(&layers.to_le_bytes());
    header.extend_from_slice(&hidden.to_le_bytes());
    header.push(feature_mode_tag(config.feature_mode));
    header.push(direction_tag(config.direction));
    header.push(config.multi_task as u8);
    header.extend_from_slice(&config.seed.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in sections {
        header.push(SECTION_F32);
        header.extend_from_slice(&s.rows.to_le_bytes());
        header.extend_from_slice(&s.cols.to_le_bytes());
        header.extend_from_slice(&s.offset.to_le_bytes());
        header.extend_from_slice(&s.len.to_le_bytes());
    }
    header.extend_from_slice(&(payload_base as u64).to_le_bytes());
    header.extend_from_slice(&sections.last().map_or(0, SectionEntry::end).to_le_bytes());
    header.extend_from_slice(&payload_hash.to_le_bytes());
    header.extend_from_slice(&fx_hash(&header).to_le_bytes());
    header.resize(payload_base, 0);
    header
}

/// Names the header field holding byte `at` of a header with `count`
/// sections.
fn header_field(at: usize, count: usize) -> String {
    let tail = 32 + SECTION_ENTRY_BYTES * count;
    match at {
        ..CONFIG_END => "config".into(),
        CONFIG_END..32 => "section count".into(),
        _ if at < tail => format!("section {}'s table entry", (at - 32) / SECTION_ENTRY_BYTES),
        _ if at < tail + 8 => "payload base".into(),
        _ if at < tail + 16 => "payload length".into(),
        // The payload hash at `tail + 16` is taken from the file.
        _ if at < tail + 32 => "header hash".into(),
        _ => "header padding".into(),
    }
}

/// Encodes `src` as little-endian `f32`s. This and [`decode_f32s`] are
/// functions of their own so that their two slices are known not to alias
/// and the loop vectorises.
fn encode_f32s(src: &[f32], out: &mut [u8]) {
    for (chunk, v) in out.as_chunks_mut().0.iter_mut().zip(src) {
        *chunk = v.to_le_bytes();
    }
}

/// Decodes little-endian `f32`s into `out`.
fn decode_f32s(bytes: &[u8], out: &mut [f32]) {
    for (chunk, v) in bytes.as_chunks().0.iter().zip(out) {
        *v = f32::from_le_bytes(*chunk);
    }
}

/// Builds the complete file image in memory: the payload, then the
/// header over its hash.
fn build_image(reasoner: &GamoraReasoner) -> Result<Vec<u8>, SnapshotError> {
    check_depth(reasoner.config().depth)?;
    let linears = reasoner.model().linears();
    let shapes = linears.iter().map(|lin| (lin.w.rows(), lin.w.cols()));
    let sections = section_plan(shapes).collect::<Result<Vec<_>, _>>()?;
    let payload_len = usize::try_from(sections.last().map_or(0, SectionEntry::end))
        .map_err(|_| corrupt("payload overflows the address space"))?;
    let payload_base = align_up(header_len(sections.len()), SNAPSHOT_ALIGN);
    let mut image = vec![0u8; payload_base + payload_len];

    // Each section at its offset; the zero-init is the padding between.
    let payload = &mut image[payload_base..];
    for (lin, pair) in linears.iter().zip(sections.chunks_exact(2)) {
        encode_f32s(lin.w.as_slice(), &mut payload[pair[0].range()]);
        encode_f32s(&lin.b, &mut payload[pair[1].range()]);
    }
    let header = canonical_header(reasoner.config(), &sections, fx_hash(payload));
    image[..payload_base].copy_from_slice(&header);
    Ok(image)
}

/// Serialises a reasoner (config + every parameter tensor) to `w` in the
/// layout of the module docs: section table in the header, 64-byte-aligned
/// weight payloads, independent header and payload checksums.
///
/// # Errors
///
/// [`SnapshotError::DepthOutOfBounds`] for a depth the reader would
/// refuse, before anything is written; otherwise propagates writer
/// failures.
pub fn write_snapshot<W: Write>(reasoner: &GamoraReasoner, mut w: W) -> Result<(), SnapshotError> {
    w.write_all(&build_image(reasoner)?)?;
    w.flush()?;
    Ok(())
}

/// The `N` bytes at `at`, or a truncation error.
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SnapshotError> {
    let span = bytes.get(at..at + N).and_then(|span| span.try_into().ok());
    span.ok_or_else(|| corrupt("truncated snapshot"))
}

/// Parses a complete snapshot image: decodes the config, requires the rest
/// of the header to be canonical for it, verifies the payload hash and
/// padding, and copies every section into a freshly built model.
fn parse_snapshot(bytes: &[u8]) -> Result<GamoraReasoner, SnapshotError> {
    if field(bytes, 0)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(field(bytes, 4)?);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let head: [u8; CONFIG_END] = field(bytes, 0)?;
    let u32_at = |at| field(&head, at).map(u32::from_le_bytes);
    let config = ReasonerConfig {
        depth: depth_from_tag(head[8], u32_at(9)?, u32_at(13)?)?,
        feature_mode: feature_mode_from_tag(head[17])?,
        direction: direction_from_tag(head[18])?,
        // A flag other than 0 or 1 fails the header comparison below.
        multi_task: head[19] != 0,
        seed: u64::from_le_bytes(field(&head, 20)?),
    };

    // The header must fit the file before the plan is collected, and the
    // payload must end at EOF before a model is built, so neither the plan
    // nor the model outgrows the input.
    let model = config.model_config();
    let count = 2 * model.linear_shapes().count();
    let payload_base = align_up(header_len(count), SNAPSHOT_ALIGN);
    if payload_base > bytes.len() {
        return Err(corrupt("truncated snapshot (header escapes file)"));
    }
    let sections = section_plan(model.linear_shapes()).collect::<Result<Vec<_>, _>>()?;
    let payload_len = sections.last().map_or(0, SectionEntry::end);
    if (payload_base as u64).checked_add(payload_len) != Some(bytes.len() as u64) {
        return Err(corrupt("payload length deviates from the section plan"));
    }

    // Past the config, only the payload hash is taken from the file.
    let payload_hash = u64::from_le_bytes(field(bytes, header_len(count) - 16)?);
    let header = canonical_header(&config, &sections, payload_hash);
    if let Some(at) = bytes.iter().zip(&header).position(|(a, b)| a != b) {
        return Err(corrupt(format!(
            "{} (byte {at}) deviates from the canonical header",
            header_field(at, count)
        )));
    }
    let payload = &bytes[payload_base..];
    if fx_hash(payload) != payload_hash {
        return Err(corrupt("payload checksum mismatch"));
    }
    let mut gap = 0;
    for (i, section) in sections.iter().enumerate() {
        if payload[gap..section.range().start].iter().any(|&b| b != 0) {
            return Err(corrupt(format!("nonzero padding before section {i}")));
        }
        gap = section.range().end;
    }

    let mut reasoner = GamoraReasoner::new_zeroed(config);
    let linears = reasoner.model_mut().linears_mut();
    for (lin, pair) in linears.into_iter().zip(sections.chunks_exact(2)) {
        decode_f32s(&payload[pair[0].range()], lin.w.as_mut_slice());
        decode_f32s(&payload[pair[1].range()], &mut lin.b);
    }
    Ok(reasoner)
}

/// Deserialises a reasoner previously written by [`write_snapshot`].
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure, wrong magic, a version other
/// than [`SNAPSHOT_VERSION`], shape mismatch, or checksum mismatch.
pub fn read_snapshot<R: Read>(mut r: R) -> Result<GamoraReasoner, SnapshotError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse_snapshot(&bytes)
}

impl GamoraReasoner {
    /// Saves the trained reasoner to `path` in the `.gsnap` binary format
    /// (see the [`crate::snapshot`] module docs), atomically: the image is
    /// written to a temporary file next to `path`, synced, and renamed
    /// over it. A reader never sees a half-written file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation, write, sync and rename failures; the
    /// temporary file is removed and `path` is left as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let replaced = (|| -> Result<(), SnapshotError> {
            let mut file = File::create(&tmp)?;
            write_snapshot(self, &mut file)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable.
            #[cfg(unix)]
            File::open(match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            })?
            .sync_all()?;
            Ok(())
        })();
        if replaced.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        replaced
    }

    /// Loads a reasoner saved by [`GamoraReasoner::save`]. The result is
    /// bit-exact: predictions and `evaluate` scores match the saved
    /// instance's.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for missing files, foreign formats,
    /// version skew, or corruption (checksum mismatch).
    pub fn load(path: impl AsRef<Path>) -> Result<GamoraReasoner, SnapshotError> {
        read_snapshot(File::open(path)?)
    }

    /// [`GamoraReasoner::load`] under the name of a retired loader, kept
    /// for callers that still spell it so; the `()` stands where load
    /// statistics used to be.
    ///
    /// # Errors
    ///
    /// As [`GamoraReasoner::load`].
    #[doc(hidden)]
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<(GamoraReasoner, ()), SnapshotError> {
        Ok((GamoraReasoner::load(path)?, ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reasoner::{ModelDepth, ReasonerConfig};
    use gamora_circuits::csa_multiplier;
    use gamora_gnn::TrainConfig;

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

    fn image_of(reasoner: &GamoraReasoner) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(reasoner, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let reasoner = trained_reasoner();
        let buf = image_of(&reasoner);
        let back = read_snapshot(&buf[..]).unwrap();

        assert_eq!(back.config(), reasoner.config());
        let weights = |r: &GamoraReasoner| -> Vec<Vec<f32>> {
            r.model()
                .linears()
                .iter()
                .flat_map(|l| [l.w.as_slice().to_vec(), l.b.clone()])
                .collect()
        };
        assert_eq!(
            weights(&reasoner),
            weights(&back),
            "weights must survive bit-exactly"
        );

        // And behaviour matches exactly on a fresh workload.
        let subject = csa_multiplier(4);
        let original = reasoner;
        let a = original.predict(&subject.aig);
        let b = back.predict(&subject.aig);
        assert_eq!(a.root_leaf, b.root_leaf);
        assert_eq!(a.is_xor, b.is_xor);
        assert_eq!(a.is_maj, b.is_maj);

        // Save -> load -> save is a fixed point.
        assert_eq!(image_of(&back), buf);
    }

    #[test]
    fn file_roundtrip_via_save_load() {
        let reasoner = trained_reasoner();
        let path =
            std::env::temp_dir().join(format!("gamora-snap-test-{}.gsnap", std::process::id()));
        reasoner.save(&path).unwrap();
        let back = GamoraReasoner::load(&path).unwrap();
        assert_eq!(back.config(), reasoner.config());
        assert_eq!(back.num_params(), reasoner.num_params());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_snapshot(&b"NOPE....."[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "{err}");
    }

    #[test]
    fn unknown_version_is_rejected_with_readable_range() {
        let mut buf = image_of(&trained_reasoner());
        for version in [99u8, 0] {
            buf[4] = version;
            let err = read_snapshot(&buf[..]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion(v) if v == u32::from(version)),
                "{err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {version} ")) && msg.contains("reads v3"),
                "the error must name the rejected and the accepted version: {msg}"
            );
        }
    }

    /// The writer emits the sectioned layout: section table in the
    /// header, payload region 64-aligned, every section on a 64-byte
    /// boundary.
    #[test]
    fn v3_writer_emits_aligned_sectioned_layout() {
        let reasoner = trained_reasoner();
        let buf = image_of(&reasoner);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 3);
        let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
        // Two f32 sections (weights + bias) per linear.
        assert_eq!(count, reasoner.model().linears().len() * 2);
        let tail = 32 + SECTION_ENTRY_BYTES * count;
        let payload_base = u64::from_le_bytes(buf[tail..tail + 8].try_into().unwrap()) as usize;
        let payload_len = u64::from_le_bytes(buf[tail + 8..tail + 16].try_into().unwrap()) as usize;
        assert_eq!(payload_base % SNAPSHOT_ALIGN, 0);
        assert_eq!(payload_base + payload_len, buf.len());
        for i in 0..count {
            let at = 32 + SECTION_ENTRY_BYTES * i;
            let offset = u64::from_le_bytes(buf[at + 9..at + 17].try_into().unwrap()) as usize;
            assert_eq!(offset % SNAPSHOT_ALIGN, 0, "section {i} offset {offset}");
        }
    }

    /// The plan is checked arithmetic over shapes alone: the largest
    /// config the header admits is planned without allocating, and shapes
    /// beyond `u32` or `u64` are an error, not a wrap.
    #[test]
    fn section_plan_is_checked_arithmetic() {
        let config = ReasonerConfig {
            depth: ModelDepth::Custom {
                layers: 1024,
                hidden: 65536,
            },
            ..ReasonerConfig::default()
        };
        let model = config.model_config();
        let end = section_plan(model.linear_shapes())
            .map(|entry| entry.unwrap().end())
            .last()
            .unwrap();
        assert!(end > 32 << 30, "a 1024 x 65536 model is over 32 GiB: {end}");
        for shape in [(usize::MAX, 2), (1 << 33, 1), (1, 1 << 33)] {
            let err = section_plan([shape].into_iter()).next().unwrap();
            assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{shape:?}");
        }
    }

    #[test]
    fn corruption_anywhere_fails_checksum() {
        let pristine = image_of(&trained_reasoner());
        // Flip one bit in several places across header and payload
        // (skipping the magic/version, which produce their own error
        // kinds).
        for pos in [16usize, 40, pristine.len() / 2, pristine.len() - 9] {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x10;
            assert!(
                read_snapshot(&buf[..]).is_err(),
                "bit flip at {pos} must not load cleanly"
            );
        }
    }

    #[test]
    fn truncation_is_corruption() {
        let mut buf = image_of(&trained_reasoner());
        buf.truncate(buf.len() - 13);
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut buf = image_of(&trained_reasoner());
        buf.extend_from_slice(b"junk");
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    /// Recomputes and installs the header hash — for tests that tamper
    /// with header fields and need the tampering itself (not the stale
    /// signature) to be what the reader rejects.
    fn resign_v3(buf: &mut [u8]) {
        let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
        let hash_pos = 32 + SECTION_ENTRY_BYTES * count + 24;
        let sig = fx_hash(&buf[..hash_pos]);
        buf[hash_pos..hash_pos + 8].copy_from_slice(&sig.to_le_bytes());
    }

    /// Truncating or bit-flipping a file anywhere — header, section
    /// table, padding, payload — is a typed error, never a panic.
    #[test]
    fn v3_truncation_and_corruption_are_typed_errors() {
        let pristine = image_of(&trained_reasoner());
        for keep in [7usize, 20, 33, 60, pristine.len() / 2, pristine.len() - 1] {
            let err = read_snapshot(&pristine[..keep]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "truncation at {keep}: {err}"
            );
        }
        for pos in [9usize, 30, 40, 64, pristine.len() / 2, pristine.len() - 1] {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x10;
            assert!(
                read_snapshot(&buf[..]).is_err(),
                "bit flip at {pos} must not load cleanly"
            );
        }
    }

    /// A *re-signed* lying header (valid checksum, fields that deviate
    /// from the canonical layout) is still rejected: offsets, shapes,
    /// payload base and section count all have exactly one legal value.
    #[test]
    fn v3_resigned_lying_headers_are_rejected() {
        let pristine = image_of(&trained_reasoner());
        let count = u32::from_le_bytes(pristine[28..32].try_into().unwrap()) as usize;
        let tail = 32 + SECTION_ENTRY_BYTES * count;

        // Shift the second section's offset by one alignment unit.
        let mut buf = pristine.clone();
        let at = 32 + SECTION_ENTRY_BYTES + 9;
        let off = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) + 64;
        buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
        resign_v3(&mut buf);
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");

        // Inflate a section's row count (a would-be huge allocation).
        let mut buf = pristine.clone();
        buf[32 + 1..32 + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        resign_v3(&mut buf);
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");

        // Move the payload base.
        let mut buf = pristine.clone();
        let base = u64::from_le_bytes(buf[tail..tail + 8].try_into().unwrap()) + 64;
        buf[tail..tail + 8].copy_from_slice(&base.to_le_bytes());
        resign_v3(&mut buf);
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");

        // Claim a giant section table (the count the config fixes rejects
        // this before any signature check, so no re-sign is needed).
        let mut buf = pristine.clone();
        buf[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    /// The writer refuses, before writing a byte, any depth the reader
    /// would refuse as "implausible", so it never emits an unloadable file.
    #[test]
    fn writer_refuses_depths_the_reader_refuses() {
        for (layers, hidden) in [(MAX_LAYERS + 1, 1), (1, MAX_HIDDEN + 1)] {
            let reasoner = GamoraReasoner::new(ReasonerConfig {
                depth: ModelDepth::Custom { layers, hidden },
                ..ReasonerConfig::default()
            });
            let mut buf = Vec::new();
            let err = write_snapshot(&reasoner, &mut buf).unwrap_err();
            assert!(
                matches!(err, SnapshotError::DepthOutOfBounds { layers: l, hidden: h }
                    if (l, h) == (layers, hidden)),
                "{err}"
            );
            assert!(buf.is_empty(), "{layers}x{hidden}: nothing may be written");
        }
        assert!(check_depth(ModelDepth::Custom {
            layers: 0,
            hidden: 16
        })
        .is_err());
        assert!(check_depth(ModelDepth::Custom {
            layers: MAX_LAYERS,
            hidden: MAX_HIDDEN
        })
        .is_ok());
    }
}
