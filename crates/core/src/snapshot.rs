//! Versioned binary snapshots of trained reasoners (`.gsnap`).
//!
//! The format is hand-rolled little-endian with no external dependencies —
//! the first durable on-disk artifact of the workspace, written once by
//! `gamora train` and served many times by `gamora infer` / `gamora-serve`.
//!
//! Layout of the legacy v1/v2 stream formats (all integers
//! little-endian):
//!
//! ```text
//! magic    : 4 bytes  b"GMRS"
//! version  : u32      (1 = f32, 2 = section-tagged)
//! config   : depth tag u8, layers u32, hidden u32,
//!            feature_mode u8, direction u8, multi_task u8, seed u64
//! tensors  : count u32, then per tensor
//!            v1: { len u32, f32 data (LE bits) }
//!            v2: { section tag u8,
//!                  tag 0 (f32): len u32, f32 data (LE bits)
//!                  tag 1 (i8):  rows u32, cols u32, i8 data,
//!                               f32 scales (cols) }
//! checksum : u64      Fx hash of every byte from magic through the last
//!                     tensor, in file order
//! ```
//!
//! **v3** is the mmap-ready layout [`write_snapshot`] emits today: the
//! header carries an explicit section table (tag, rows, cols, byte
//! offset, byte length per tensor) and the weight payloads live in a
//! trailing 64-byte-aligned payload region, so a loader can validate the
//! header in O(header) and borrow every weight slice straight out of a
//! memory-mapped file ([`GamoraReasoner::load_mmap`]) — zero copies, one
//! physical page-cache copy shared across processes:
//!
//! ```text
//! magic         : 4 bytes  b"GMRS"
//! version       : u32     (3)
//! config        : 20 bytes (identical to v1/v2)
//! section_count : u32
//! sections      : per section { tag u8, rows u32, cols u32,
//!                               offset u64 (payload-relative, 64-aligned),
//!                               len u64 (bytes) }
//! payload_base  : u64     (absolute file offset, 64-aligned)
//! payload_len   : u64
//! payload_hash  : u64     Fx hash of the whole payload region
//! header_hash   : u64     Fx hash of every preceding header byte
//! padding       : zeros to payload_base
//! payload       : the sections' bytes, each 64-aligned, in model order
//!                 (per linear: f32 weights + f32 bias, or i8 values +
//!                 f32 scales + f32 bias when quantised)
//! ```
//!
//! Both hashes are computed as a single `FxHasher::write` over the
//! covered byte range. The reader recomputes the *canonical* section
//! offsets from the model shapes and rejects any deviation, so even a
//! re-signed lying header can never size an allocation or a borrow from
//! attacker-chosen fields. Owned loads verify both hashes; mmap loads
//! verify the header hash only (payload pages are faulted in lazily).
//!
//! An unquantised reasoner used to be written in the **v1** layout and a
//! quantised one (see [`GamoraReasoner::quantise`]) as **v2** (i8 weight
//! sections, ~4x smaller); [`write_snapshot_legacy`] still emits those
//! byte-exact layouts and the reader accepts the full `v1..=v3` range
//! (guarded by the `snapshot_compat` test).
//!
//! Floats are serialised via `f32::to_le_bytes`, so a save/load round trip
//! is bit-exact (for quantised stores: the i8 payload and scales
//! round-trip exactly, and served predictions are bit-identical) and a
//! reloaded reasoner reproduces in-process predictions and `evaluate`
//! scores exactly. The checksums turn truncation and bit corruption into
//! [`SnapshotError::Corrupt`] instead of a silently wrong model.

use crate::features::FeatureMode;
use crate::reasoner::{GamoraReasoner, ModelDepth, ReasonerConfig};
use gamora_aig::hasher::FxHasher;
use gamora_gnn::{Direction, Matrix, MultiTaskSage, QuantisedMatrix, WeightRegion};
use std::fmt;
use std::fs::File;
use std::hash::Hasher;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// File magic: "GaMoRa Snapshot".
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GMRS";

/// Oldest snapshot format version this build reads.
pub const SNAPSHOT_VERSION_MIN: u32 = 1;

/// Newest snapshot format version this build reads and writes. v3 is the
/// mmap-ready layout — a header-resident section table with explicit
/// offsets/lengths and 64-byte-aligned weight payloads — and is what
/// [`write_snapshot`] always emits; v1 (plain f32) and v2 (i8 sections)
/// files remain fully readable, and [`write_snapshot_legacy`] still
/// emits them byte-exactly for compatibility tooling.
pub const SNAPSHOT_VERSION_MAX: u32 = 3;

/// Alignment of the v3 payload region and of every section inside it:
/// each tensor's bytes start on a 64-byte boundary, both file-relative
/// and payload-relative, so mapped weight slices are always aligned for
/// their element type (and for cache lines).
pub const SNAPSHOT_ALIGN: usize = 64;

/// Section tag of a plain `f32` tensor in a v2/v3 snapshot.
const SECTION_F32: u8 = 0;

/// Section tag of an i8-quantised weight block in a v2/v3 snapshot.
const SECTION_I8: u8 = 1;

/// Errors produced by snapshot I/O.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file is a snapshot, but of an unknown format version.
    UnsupportedVersion(u32),
    /// Structurally invalid or checksum-mismatched content.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a gamora snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads \
                     v{SNAPSHOT_VERSION_MIN}-v{SNAPSHOT_VERSION_MAX})"
                )
            }
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
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

/// Writer adapter that Fx-hashes every byte it forwards.
struct HashingWriter<W> {
    inner: W,
    hasher: FxHasher,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hasher: FxHasher::default(),
        }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.write(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that Fx-hashes every byte it yields.
struct HashingReader<R> {
    inner: R,
    hasher: FxHasher,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hasher: FxHasher::default(),
        }
    }

    fn read_exact_hashed(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("truncated snapshot"),
            _ => SnapshotError::Io(e),
        })?;
        self.hasher.write(buf);
        Ok(())
    }

    fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        let mut b = [0u8; 1];
        self.read_exact_hashed(&mut b)?;
        Ok(b[0])
    }

    fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let mut b = [0u8; 4];
        self.read_exact_hashed(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let mut b = [0u8; 8];
        self.read_exact_hashed(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_f32s(&mut self, out: &mut [f32]) -> Result<(), SnapshotError> {
        let mut buf = [0u8; 4];
        for v in out.iter_mut() {
            self.read_exact_hashed(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        Ok(())
    }
}

fn depth_tag(depth: ModelDepth) -> (u8, u32, u32) {
    match depth {
        ModelDepth::Shallow => (0, 0, 0),
        ModelDepth::Deep => (1, 0, 0),
        ModelDepth::Custom { layers, hidden } => (2, layers as u32, hidden as u32),
    }
}

fn depth_from_tag(tag: u8, layers: u32, hidden: u32) -> Result<ModelDepth, SnapshotError> {
    match tag {
        0 => Ok(ModelDepth::Shallow),
        1 => Ok(ModelDepth::Deep),
        2 => {
            // Sanity caps: a corrupt header must not trigger a huge model
            // allocation before the checksum gets a chance to reject it.
            if layers == 0 || hidden == 0 || layers > 1024 || hidden > 65536 {
                return Err(corrupt(format!(
                    "implausible custom depth ({layers} layers, {hidden} hidden)"
                )));
            }
            Ok(ModelDepth::Custom {
                layers: layers as usize,
                hidden: hidden as usize,
            })
        }
        t => Err(corrupt(format!("unknown depth tag {t}"))),
    }
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

fn write_f32s<W: Write>(w: &mut W, values: &[f32]) -> Result<(), SnapshotError> {
    for &v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// One entry of the v3 header section table.
struct SectionEntry {
    tag: u8,
    rows: u32,
    cols: u32,
    /// Payload-relative byte offset (64-aligned).
    offset: u64,
    /// Byte length of the section's data.
    len: u64,
}

/// Byte size of one serialised [`SectionEntry`].
const SECTION_ENTRY_BYTES: usize = 1 + 4 + 4 + 8 + 8;

/// Byte size of the v3 header around the section table: magic + version
/// + config + count before it, payload_base/len/hash + header hash after.
const V3_FIXED_HEADER_BYTES: usize = 32 + 32;

/// The canonical v3 section plan for a model: per linear, `f32` weights
/// and bias, or (quantised) i8 values, scales and bias, each section
/// packed at the next 64-aligned payload offset. Returns the entries and
/// the total payload length. Writer and reader both derive offsets from
/// this one function, which is what lets the reader reject lying headers.
fn v3_section_plan(model: &MultiTaskSage) -> (Vec<SectionEntry>, usize) {
    let mut sections = Vec::new();
    let mut cursor = 0usize;
    let mut push =
        |sections: &mut Vec<SectionEntry>, tag: u8, rows: usize, cols: usize, byte_len: usize| {
            cursor = align_up(cursor, SNAPSHOT_ALIGN);
            sections.push(SectionEntry {
                tag,
                rows: rows as u32,
                cols: cols as u32,
                offset: cursor as u64,
                len: byte_len as u64,
            });
            cursor += byte_len;
            cursor
        };
    let mut total = 0;
    for lin in model.linears() {
        match lin.quantised() {
            Some(q) => {
                push(
                    &mut sections,
                    SECTION_I8,
                    q.rows(),
                    q.cols(),
                    q.rows() * q.cols(),
                );
                push(&mut sections, SECTION_F32, 1, q.cols(), q.cols() * 4);
                total = push(&mut sections, SECTION_F32, 1, lin.b.len(), lin.b.len() * 4);
            }
            None => {
                let (r, c) = (lin.w.rows(), lin.w.cols());
                push(&mut sections, SECTION_F32, r, c, r * c * 4);
                total = push(&mut sections, SECTION_F32, 1, lin.b.len(), lin.b.len() * 4);
            }
        }
    }
    (sections, total)
}

/// Bump-pointer writer into a preallocated image buffer.
struct ImageWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl ImageWriter<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }
}

fn copy_f32s(dst: &mut [u8], src: &[f32]) {
    for (chunk, &v) in dst.chunks_exact_mut(4).zip(src) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Builds the complete v3 file image in memory (payload first, then the
/// hashes, then the header around them).
fn build_v3_image(reasoner: &GamoraReasoner) -> Vec<u8> {
    let model = reasoner.model();
    let (sections, payload_len) = v3_section_plan(model);
    let header_len = V3_FIXED_HEADER_BYTES + SECTION_ENTRY_BYTES * sections.len();
    let payload_base = align_up(header_len, SNAPSHOT_ALIGN);
    let mut image = vec![0u8; payload_base + payload_len];

    // Payload region: every section at its canonical 64-aligned offset
    // (the zero-init of the image is the inter-section padding).
    let span = |entry: &SectionEntry| {
        let at = payload_base + entry.offset as usize;
        at..at + entry.len as usize
    };
    let mut si = 0;
    for lin in model.linears() {
        match lin.quantised() {
            Some(q) => {
                for (d, &v) in image[span(&sections[si])].iter_mut().zip(q.values()) {
                    // i8 -> u8 is a bit-preserving cast.
                    *d = v as u8;
                }
                copy_f32s(&mut image[span(&sections[si + 1])], q.scales());
                copy_f32s(&mut image[span(&sections[si + 2])], &lin.b);
                si += 3;
            }
            None => {
                copy_f32s(&mut image[span(&sections[si])], lin.w.as_slice());
                copy_f32s(&mut image[span(&sections[si + 1])], &lin.b);
                si += 2;
            }
        }
    }
    debug_assert_eq!(si, sections.len());
    let mut payload_hasher = FxHasher::default();
    payload_hasher.write(&image[payload_base..]);
    let payload_hash = payload_hasher.finish();

    // Header.
    let mut w = ImageWriter {
        buf: &mut image,
        pos: 0,
    };
    w.put(&SNAPSHOT_MAGIC);
    w.put(&3u32.to_le_bytes());
    let cfg = reasoner.config();
    let (tag, layers, hidden) = depth_tag(cfg.depth);
    w.put(&[tag]);
    w.put(&layers.to_le_bytes());
    w.put(&hidden.to_le_bytes());
    w.put(&[feature_mode_tag(cfg.feature_mode)]);
    w.put(&[direction_tag(cfg.direction)]);
    w.put(&[cfg.multi_task as u8]);
    w.put(&cfg.seed.to_le_bytes());
    w.put(&(sections.len() as u32).to_le_bytes());
    for s in &sections {
        w.put(&[s.tag]);
        w.put(&s.rows.to_le_bytes());
        w.put(&s.cols.to_le_bytes());
        w.put(&s.offset.to_le_bytes());
        w.put(&s.len.to_le_bytes());
    }
    w.put(&(payload_base as u64).to_le_bytes());
    w.put(&(payload_len as u64).to_le_bytes());
    w.put(&payload_hash.to_le_bytes());
    let hash_pos = w.pos;
    debug_assert_eq!(hash_pos + 8, header_len);
    let mut header_hasher = FxHasher::default();
    header_hasher.write(&image[..hash_pos]);
    let header_hash = header_hasher.finish();
    image[hash_pos..hash_pos + 8].copy_from_slice(&header_hash.to_le_bytes());
    image
}

/// Serialises a reasoner (config + every parameter tensor) to `w` in the
/// mmap-ready **v3** layout (see the module docs): section table in the
/// header, 64-byte-aligned weight payloads, independent header and
/// payload checksums. Quantised reasoners write their i8 stores; the
/// served bits round-trip exactly either way.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_snapshot<W: Write>(reasoner: &GamoraReasoner, w: W) -> Result<(), SnapshotError> {
    let image = build_v3_image(reasoner);
    let mut w = BufWriter::new(w);
    w.write_all(&image)?;
    w.flush()?;
    Ok(())
}

/// Serialises a reasoner in the **legacy** stream layouts: v1 for an
/// unquantised reasoner (byte-exact with pre-v2 files), section-tagged
/// v2 with i8 weight blocks for a quantised one (see
/// [`GamoraReasoner::quantise`]). [`write_snapshot`] emits v3 today;
/// this writer exists for compatibility tooling and the pinned-layout
/// tests, and its outputs stay loadable forever.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_snapshot_legacy<W: Write>(
    reasoner: &GamoraReasoner,
    w: W,
) -> Result<(), SnapshotError> {
    let quantised = reasoner.is_quantised();
    let version = if quantised { 2 } else { SNAPSHOT_VERSION_MIN };
    let mut w = HashingWriter::new(BufWriter::new(w));
    w.write_all(&SNAPSHOT_MAGIC)?;
    w.write_all(&version.to_le_bytes())?;

    let cfg = reasoner.config();
    let (tag, layers, hidden) = depth_tag(cfg.depth);
    w.write_all(&[tag])?;
    w.write_all(&layers.to_le_bytes())?;
    w.write_all(&hidden.to_le_bytes())?;
    w.write_all(&[feature_mode_tag(cfg.feature_mode)])?;
    w.write_all(&[direction_tag(cfg.direction)])?;
    w.write_all(&[cfg.multi_task as u8])?;
    w.write_all(&cfg.seed.to_le_bytes())?;

    if quantised {
        // v2: one weight + one bias section per linear, section-tagged.
        let linears = reasoner.model().linears();
        w.write_all(&((linears.len() * 2) as u32).to_le_bytes())?;
        for lin in linears {
            let q = lin
                .quantised()
                .expect("is_quantised() implies a store on every layer");
            w.write_all(&[SECTION_I8])?;
            w.write_all(&(q.rows() as u32).to_le_bytes())?;
            w.write_all(&(q.cols() as u32).to_le_bytes())?;
            // i8 -> u8 is a bit-preserving cast.
            let bytes: Vec<u8> = q.values().iter().map(|&v| v as u8).collect();
            w.write_all(&bytes)?;
            write_f32s(&mut w, q.scales())?;
            w.write_all(&[SECTION_F32])?;
            w.write_all(&(lin.b.len() as u32).to_le_bytes())?;
            write_f32s(&mut w, &lin.b)?;
        }
    } else {
        let tensors = reasoner.model().param_slices();
        w.write_all(&(tensors.len() as u32).to_le_bytes())?;
        for t in tensors {
            w.write_all(&(t.len() as u32).to_le_bytes())?;
            write_f32s(&mut w, t)?;
        }
    }

    let checksum = w.hasher.finish();
    w.inner.write_all(&checksum.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

/// Reads the section-tagged v2 tensor stream into a freshly built model:
/// per linear layer, one weight section (f32 or an i8-quantised block,
/// whose shape must match the skeleton) followed by one f32 bias
/// section. Every length is validated against the skeleton before any
/// payload-sized buffer is allocated, so a lying header cannot trigger a
/// huge allocation, and a truncated stream surfaces as
/// [`SnapshotError::Corrupt`] from the hashed reads — never a panic.
fn read_v2_sections<R: Read>(
    r: &mut HashingReader<R>,
    model: &mut MultiTaskSage,
) -> Result<(), SnapshotError> {
    for (i, lin) in model.linears_mut().into_iter().enumerate() {
        match r.read_u8()? {
            SECTION_F32 => {
                let len = r.read_u32()? as usize;
                let want = lin.w.rows() * lin.w.cols();
                if len != want {
                    return Err(corrupt(format!(
                        "weight tensor {i} has {len} scalars, model expects {want}"
                    )));
                }
                r.read_f32s(lin.w.as_mut_slice())?;
            }
            SECTION_I8 => {
                let rows = r.read_u32()? as usize;
                let cols = r.read_u32()? as usize;
                if (rows, cols) != (lin.w.rows(), lin.w.cols()) {
                    return Err(corrupt(format!(
                        "quantised block {i} is {rows}x{cols}, model expects {}x{}",
                        lin.w.rows(),
                        lin.w.cols()
                    )));
                }
                let mut bytes = vec![0u8; rows * cols];
                r.read_exact_hashed(&mut bytes)?;
                let data: Vec<i8> = bytes.into_iter().map(|b| b as i8).collect();
                let mut scales = vec![0.0f32; cols];
                r.read_f32s(&mut scales)?;
                lin.install_quantised(QuantisedMatrix::from_parts(rows, cols, data, scales));
            }
            t => return Err(corrupt(format!("unknown section tag {t} (tensor {i})"))),
        }
        match r.read_u8()? {
            SECTION_F32 => {
                let len = r.read_u32()? as usize;
                if len != lin.b.len() {
                    return Err(corrupt(format!(
                        "bias tensor {i} has {len} scalars, model expects {}",
                        lin.b.len()
                    )));
                }
                r.read_f32s(&mut lin.b)?;
            }
            SECTION_I8 => {
                return Err(corrupt(format!("bias tensor {i} cannot be an i8 section")));
            }
            t => return Err(corrupt(format!("unknown section tag {t} (bias {i})"))),
        }
    }
    Ok(())
}

/// Zero-allocation cursor over an in-memory snapshot image; every read
/// is bounds-checked into a typed error, never a panic.
struct ByteParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteParser<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("header offset overflow"))?;
        if end > self.bytes.len() {
            return Err(corrupt("truncated snapshot"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn parse_f32s(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), out.len() * 4);
    for (chunk, v) in bytes.chunks_exact(4).zip(out.iter_mut()) {
        *v = f32::from_le_bytes(chunk.try_into().unwrap());
    }
}

/// Advances the canonical section walk by one expected section and
/// validates the declared table entry against it — tag, shape, offset
/// and length all have exactly one legal value, so a header that lies
/// about any of them (even a re-signed one) is rejected before its
/// fields can size an allocation or a borrow.
fn expect_v3_section<'t>(
    table: &'t [SectionEntry],
    idx: &mut usize,
    cursor: &mut u64,
    tag: u8,
    rows: usize,
    cols: usize,
    byte_len: usize,
) -> Result<&'t SectionEntry, SnapshotError> {
    let i = *idx;
    let entry = table
        .get(i)
        .ok_or_else(|| corrupt(format!("missing section {i} (table too short for model)")))?;
    let offset = align_up(*cursor as usize, SNAPSHOT_ALIGN) as u64;
    if entry.tag != tag
        || (entry.rows as usize, entry.cols as usize) != (rows, cols)
        || entry.offset != offset
        || entry.len != byte_len as u64
    {
        return Err(corrupt(format!(
            "section {i} deviates from the canonical layout \
             (declared tag {} {}x{} at {}+{}, expected tag {tag} {rows}x{cols} at {offset}+{byte_len})",
            entry.tag, entry.rows, entry.cols, entry.offset, entry.len
        )));
    }
    *cursor = offset + byte_len as u64;
    *idx = i + 1;
    Ok(entry)
}

/// The payload bytes of one validated section — a checked sub-slice, so
/// even a table that slipped past the canonical walk could only produce a
/// typed error here, never an out-of-bounds index.
fn v3_section_bytes<'a>(
    payload: &'a [u8],
    entry: &SectionEntry,
) -> Result<&'a [u8], SnapshotError> {
    usize::try_from(entry.offset)
        .ok()
        .zip(usize::try_from(entry.len).ok())
        .and_then(|(offset, len)| payload.get(offset..offset.checked_add(len)?))
        .ok_or_else(|| {
            corrupt(format!(
                "section at {}+{} escapes the {}-byte payload",
                entry.offset,
                entry.len,
                payload.len()
            ))
        })
}

/// Parses a complete v3 image. With `region` set (the mmap path), weight
/// matrices borrow their spans from it in O(header) — only biases are
/// copied — and the payload hash is *not* recomputed; otherwise all
/// payloads are copied into owned storage and both hashes are verified.
///
/// `region`, when present, must be backed by exactly the bytes passed as
/// `bytes`.
fn read_v3_from_bytes(
    bytes: &[u8],
    verify_payload: bool,
    region: Option<&Arc<dyn WeightRegion>>,
) -> Result<GamoraReasoner, SnapshotError> {
    if let Some(r) = region {
        debug_assert!(std::ptr::eq(r.bytes().as_ptr(), bytes.as_ptr()));
    }
    let mut p = ByteParser { bytes, pos: 0 };
    if p.take(4)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = p.u32()?;
    if version != 3 {
        return Err(SnapshotError::UnsupportedVersion(version));
    }

    let depth_tag = p.u8()?;
    let layers = p.u32()?;
    let hidden = p.u32()?;
    let config = ReasonerConfig {
        depth: depth_from_tag(depth_tag, layers, hidden)?,
        feature_mode: feature_mode_from_tag(p.u8()?)?,
        direction: direction_from_tag(p.u8()?)?,
        multi_task: match p.u8()? {
            0 => false,
            1 => true,
            t => return Err(corrupt(format!("bad multi_task flag {t}"))),
        },
        seed: p.u64()?,
    };

    let count = p.u32()? as usize;
    // The table must fit in the file: a lying count cannot drive a large
    // allocation.
    if count > (bytes.len() - p.pos) / SECTION_ENTRY_BYTES {
        return Err(corrupt(format!(
            "section table ({count} entries) larger than file"
        )));
    }
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push(SectionEntry {
            tag: p.u8()?,
            rows: p.u32()?,
            cols: p.u32()?,
            offset: p.u64()?,
            len: p.u64()?,
        });
    }
    let payload_base = p.u64()?;
    let payload_len = p.u64()?;
    let payload_hash = p.u64()?;
    let hash_pos = p.pos;
    let header_hash = p.u64()?;
    let header_len = p.pos;

    let mut hasher = FxHasher::default();
    hasher.write(&bytes[..hash_pos]);
    if hasher.finish() != header_hash {
        return Err(corrupt("header checksum mismatch"));
    }

    // Geometry: the payload region starts at the first 64-aligned offset
    // after the header and runs exactly to EOF.
    let base = usize::try_from(payload_base).map_err(|_| corrupt("payload base overflow"))?;
    if base != align_up(header_len, SNAPSHOT_ALIGN) {
        return Err(corrupt(format!(
            "payload base {base} is not the canonical {} for this header",
            align_up(header_len, SNAPSHOT_ALIGN)
        )));
    }
    let plen = usize::try_from(payload_len).map_err(|_| corrupt("payload length overflow"))?;
    match base.checked_add(plen) {
        Some(end) if end == bytes.len() => {}
        Some(end) if end < bytes.len() => return Err(corrupt("trailing bytes after payload")),
        _ => return Err(corrupt("truncated snapshot (payload escapes file)")),
    }
    if bytes[header_len..base].iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero header padding"));
    }
    if verify_payload {
        let mut hasher = FxHasher::default();
        hasher.write(&bytes[base..]);
        if hasher.finish() != payload_hash {
            return Err(corrupt("payload checksum mismatch"));
        }
    }

    // Pass 1 — the table against the skeleton, without touching the
    // payload: every declared entry must match the canonical walk exactly,
    // and the walk must end exactly at `payload_len`. Only then does any
    // offset below index into the file.
    let mut reasoner = GamoraReasoner::new_zeroed(config);
    let mut idx = 0usize;
    let mut cursor = 0u64;
    for lin in reasoner.model().linears() {
        let (rows, cols, bias) = (lin.w.rows(), lin.w.cols(), lin.b.len());
        let quantised = table.get(idx).map(|e| e.tag) == Some(SECTION_I8);
        let mut expect = |tag, rows, cols, byte_len| {
            expect_v3_section(&table, &mut idx, &mut cursor, tag, rows, cols, byte_len)
        };
        if quantised {
            expect(SECTION_I8, rows, cols, rows * cols)?;
            expect(SECTION_F32, 1, cols, cols * 4)?;
        } else {
            expect(SECTION_F32, rows, cols, rows * cols * 4)?;
        }
        expect(SECTION_F32, 1, bias, bias * 4)?;
    }
    if idx != table.len() {
        return Err(corrupt(format!(
            "section table has {} entries, model consumes {idx}",
            table.len()
        )));
    }
    if cursor != payload_len {
        return Err(corrupt(format!(
            "payload length {payload_len} does not match the canonical {cursor}"
        )));
    }

    // Pass 2 — fill (or borrow) every tensor from its validated section.
    let payload = &bytes[base..];
    let mut sections = table.iter();
    let mut next = || {
        sections
            .next()
            .expect("pass 1 matched the table to the model")
    };
    for lin in reasoner.model_mut().linears_mut() {
        let (rows, cols) = (lin.w.rows(), lin.w.cols());
        let first = next();
        if first.tag == SECTION_I8 {
            let (values, scales) = (first, next());
            match region {
                Some(region) => {
                    let (voff, soff) =
                        (base + values.offset as usize, base + scales.offset as usize);
                    let q = QuantisedMatrix::from_region(rows, cols, region, voff, soff)
                        .map_err(|e| corrupt(e.to_string()))?;
                    lin.install_quantised_serving(q);
                }
                None => {
                    let data: Vec<i8> = v3_section_bytes(payload, values)?
                        .iter()
                        .map(|&b| b as i8)
                        .collect();
                    let mut sc = vec![0.0f32; cols];
                    parse_f32s(v3_section_bytes(payload, scales)?, &mut sc);
                    lin.install_quantised(QuantisedMatrix::from_parts(rows, cols, data, sc));
                }
            }
        } else {
            match region {
                Some(region) => {
                    lin.w = Matrix::from_region(rows, cols, region, base + first.offset as usize)
                        .map_err(|e| corrupt(e.to_string()))?;
                }
                None => parse_f32s(v3_section_bytes(payload, first)?, lin.w.as_mut_slice()),
            }
        }
        parse_f32s(v3_section_bytes(payload, next())?, &mut lin.b);
    }
    Ok(reasoner)
}

/// Deserialises a reasoner previously written by [`write_snapshot`] (v3)
/// or [`write_snapshot_legacy`] (v1/v2) — the full `v1..=v3` range.
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure, wrong magic, unknown version,
/// shape mismatch, or checksum mismatch.
pub fn read_snapshot<R: Read>(r: R) -> Result<GamoraReasoner, SnapshotError> {
    // Chaos seam: an injected `err` surfaces as a typed corruption error
    // through the same path real corruption takes.
    gamora_fault::hit(gamora_fault::FaultPoint::SnapshotLoad)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    let mut r = HashingReader::new(BufReader::new(r));

    let mut magic = [0u8; 4];
    r.read_exact_hashed(&mut magic)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.read_u32()?;
    if !(SNAPSHOT_VERSION_MIN..=SNAPSHOT_VERSION_MAX).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if version == 3 {
        // v3 is parsed from a contiguous image (the same code path the
        // mmap loader uses); reconstitute the full bytes from the stream.
        let mut full = Vec::new();
        full.extend_from_slice(&SNAPSHOT_MAGIC);
        full.extend_from_slice(&3u32.to_le_bytes());
        r.inner.read_to_end(&mut full)?;
        return read_v3_from_bytes(&full, true, None);
    }

    let depth_tag = r.read_u8()?;
    let layers = r.read_u32()?;
    let hidden = r.read_u32()?;
    let config = ReasonerConfig {
        depth: depth_from_tag(depth_tag, layers, hidden)?,
        feature_mode: feature_mode_from_tag(r.read_u8()?)?,
        direction: direction_from_tag(r.read_u8()?)?,
        multi_task: match r.read_u8()? {
            0 => false,
            1 => true,
            t => return Err(corrupt(format!("bad multi_task flag {t}"))),
        },
        seed: r.read_u64()?,
    };

    // Build the skeleton from the config, then inject the stored weights
    // (zeroed: every parameter is overwritten below, so the Glorot pass
    // of `GamoraReasoner::new` would be wasted cold-start work).
    let mut reasoner = GamoraReasoner::new_zeroed(config);
    let num_tensors = r.read_u32()? as usize;
    let expected = reasoner.model().param_slices().len();
    if num_tensors != expected {
        return Err(corrupt(format!(
            "tensor count {num_tensors} does not match model shape ({expected} expected)"
        )));
    }
    if version == 1 {
        let mut slots = reasoner.model_mut().param_slices_mut();
        for (i, slot) in slots.iter_mut().enumerate() {
            let len = r.read_u32()? as usize;
            if len != slot.len() {
                return Err(corrupt(format!(
                    "tensor {i} has {len} scalars, model expects {}",
                    slot.len()
                )));
            }
            r.read_f32s(slot)?;
        }
    } else {
        read_v2_sections(&mut r, reasoner.model_mut())?;
    }

    let expected = r.hasher.finish();
    // The checksum itself is not part of the hashed payload.
    let mut tail = [0u8; 8];
    r.inner.read_exact(&mut tail).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => corrupt("truncated snapshot (missing checksum)"),
        _ => SnapshotError::Io(e),
    })?;
    let stored = u64::from_le_bytes(tail);
    if stored != expected {
        return Err(corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {expected:#018x})"
        )));
    }
    // Trailing garbage after the checksum is also corruption.
    let mut probe = [0u8; 1];
    match r.inner.read(&mut probe)? {
        0 => Ok(reasoner),
        _ => Err(corrupt("trailing bytes after checksum")),
    }
}

/// A whole snapshot file held as one shared read-only region. The weight
/// matrices of an mmap-loaded reasoner borrow their spans from this
/// region through an `Arc`, so the `Arc` (not the reasoner) owns the
/// mapping and N reasoners — or N processes mapping the same file —
/// share one physical page-cache copy of the weights.
pub struct MappedSnapshot {
    map: mmap::Mmap,
}

impl WeightRegion for MappedSnapshot {
    fn bytes(&self) -> &[u8] {
        &self.map
    }
}

/// How [`GamoraReasoner::load_mmap`] actually loaded a snapshot.
#[derive(Clone, Copy, Debug)]
pub struct MmapLoadStats {
    /// Whether the weights are borrowed zero-copy from a shared mapping
    /// (`false` = the read-to-owned fallback ran: non-v3 file, non-Unix
    /// target, big-endian host, or a failed `mmap(2)`).
    pub mapped: bool,
    /// Snapshot file size in bytes.
    pub file_bytes: u64,
    /// Wall-clock microseconds from `open(2)` to a serving-ready
    /// reasoner.
    pub load_micros: u64,
}

impl GamoraReasoner {
    /// Saves the trained reasoner to `path` in the versioned `.gsnap`
    /// binary format (see the [`crate::snapshot`] module docs).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_snapshot(self, File::create(path)?)
    }

    /// Loads a snapshot by memory-mapping it and borrowing every weight
    /// slice out of the mapping — O(header) work and near-zero resident
    /// weight bytes, instead of reading and copying the whole payload.
    /// Header validation (checksum, canonical section layout) still runs
    /// in full; the payload hash is skipped so pages fault in lazily on
    /// first use.
    ///
    /// Falls back to the plain owned [`read_snapshot`] path — same
    /// result, just copied — for v1/v2 files, on targets without `mmap`,
    /// on big-endian hosts (the payload is little-endian), or when the
    /// mapping itself fails; `stats.mapped` reports which path ran.
    ///
    /// A quantised reasoner loaded this way is **serving-only**: the
    /// training-path `f32` weights keep their skeleton zeros (see
    /// [`gamora_gnn::Linear::install_quantised_serving`]). Inference,
    /// which is all the serve path does, is bit-identical to an
    /// owned load.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] for missing files, foreign formats,
    /// version skew, or corruption — the same errors as
    /// [`GamoraReasoner::load`].
    pub fn load_mmap(
        path: impl AsRef<Path>,
    ) -> Result<(GamoraReasoner, MmapLoadStats), SnapshotError> {
        let start = Instant::now();
        let file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let stats = |mapped: bool| MmapLoadStats {
            mapped,
            file_bytes,
            load_micros: start.elapsed().as_micros() as u64,
        };
        if cfg!(target_endian = "little") {
            if let Ok(map) = mmap::Mmap::map(&file) {
                let bytes: &[u8] = &map;
                let is_v3 = bytes.len() >= 8
                    && bytes[0..4] == SNAPSHOT_MAGIC
                    && u32::from_le_bytes(bytes[4..8].try_into().unwrap()) == 3;
                if is_v3 {
                    // Same chaos seam as `read_snapshot` (the fallback
                    // paths below reach it through `read_snapshot`).
                    gamora_fault::hit(gamora_fault::FaultPoint::SnapshotLoad)
                        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
                    let snap = Arc::new(MappedSnapshot { map });
                    let region: Arc<dyn WeightRegion> = snap;
                    let reasoner = read_v3_from_bytes(region.bytes(), false, Some(&region))?;
                    return Ok((reasoner, stats(true)));
                }
                // Mapped fine but not zero-copy-loadable: parse the mapped
                // bytes through the owned reader (v1/v2, or its errors).
                let reasoner = read_snapshot(bytes)?;
                return Ok((reasoner, stats(false)));
            }
        }
        let reasoner = read_snapshot(file)?;
        Ok((reasoner, stats(false)))
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

    #[test]
    fn roundtrip_is_bit_exact() {
        let reasoner = trained_reasoner();
        let mut buf = Vec::new();
        write_snapshot(&reasoner, &mut buf).unwrap();
        let back = read_snapshot(&buf[..]).unwrap();

        assert_eq!(back.config(), reasoner.config());
        let src: Vec<Vec<f32>> = reasoner
            .model()
            .param_slices()
            .iter()
            .map(|s| s.to_vec())
            .collect();
        let dst: Vec<Vec<f32>> = back
            .model()
            .param_slices()
            .iter()
            .map(|s| s.to_vec())
            .collect();
        assert_eq!(src, dst, "weights must survive bit-exactly");

        // And behaviour matches exactly on a fresh workload.
        let subject = csa_multiplier(4);
        let original = reasoner;
        let a = original.predict(&subject.aig);
        let b = back.predict(&subject.aig);
        assert_eq!(a.root_leaf, b.root_leaf);
        assert_eq!(a.is_xor, b.is_xor);
        assert_eq!(a.is_maj, b.is_maj);
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
        let mut buf = Vec::new();
        write_snapshot(&trained_reasoner(), &mut buf).unwrap();
        buf[4] = 99; // bump the version field
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion(99)),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("v1") && msg.contains("v3"),
            "the error must report the full readable range: {msg}"
        );
        // Version 0 is below the readable range, not corrupt.
        buf[4] = 0;
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(0)), "{err}");
    }

    /// The legacy writer still picks v1 for unquantised and v2 (with i8
    /// sections roughly a quarter of the v1 size) for quantised
    /// reasoners, and both load under today's reader.
    #[test]
    fn legacy_writer_picks_version_by_weight_store() {
        let mut reasoner = trained_reasoner();
        let mut v1 = Vec::new();
        write_snapshot_legacy(&reasoner, &mut v1).unwrap();
        assert_eq!(u32::from_le_bytes(v1[4..8].try_into().unwrap()), 1);
        assert!(read_snapshot(&v1[..]).is_ok());

        reasoner.quantise();
        let mut v2 = Vec::new();
        write_snapshot_legacy(&reasoner, &mut v2).unwrap();
        assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
        assert!(
            v2.len() < v1.len() / 2,
            "v2 with i8 weight blocks must be much smaller ({} vs {} bytes)",
            v2.len(),
            v1.len()
        );
        assert!(read_snapshot(&v2[..]).is_ok());
    }

    /// The default writer emits v3: section table in the header, payload
    /// region 64-aligned, every section on a 64-byte boundary.
    #[test]
    fn v3_writer_emits_aligned_sectioned_layout() {
        let reasoner = trained_reasoner();
        let mut buf = Vec::new();
        write_snapshot(&reasoner, &mut buf).unwrap();
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

    /// Quantise -> save -> load round-trips the i8 payload and scales
    /// exactly; the reloaded reasoner serves bit-identical predictions
    /// and re-saving produces identical bytes.
    #[test]
    fn quantised_roundtrip_is_exact() {
        let mut reasoner = trained_reasoner();
        reasoner.quantise();
        let mut buf = Vec::new();
        write_snapshot(&reasoner, &mut buf).unwrap();
        let back = read_snapshot(&buf[..]).unwrap();
        assert!(back.is_quantised());
        assert_eq!(back.config(), reasoner.config());

        for (a, b) in reasoner
            .model()
            .linears()
            .iter()
            .zip(back.model().linears())
        {
            let (qa, qb) = (a.quantised().unwrap(), b.quantised().unwrap());
            assert_eq!(qa.values(), qb.values(), "i8 payload must round-trip");
            let sa: Vec<u32> = qa.scales().iter().map(|s| s.to_bits()).collect();
            let sb: Vec<u32> = qb.scales().iter().map(|s| s.to_bits()).collect();
            assert_eq!(sa, sb, "scales must round-trip bit-exactly");
            assert_eq!(a.b, b.b, "biases must round-trip");
        }

        let subject = csa_multiplier(4);
        assert_eq!(
            reasoner.predict(&subject.aig),
            back.predict(&subject.aig),
            "served predictions must be bit-identical"
        );

        let mut again = Vec::new();
        write_snapshot(&back, &mut again).unwrap();
        assert_eq!(buf, again, "save -> load -> save must be a fixed point");
    }

    /// Truncating a v2 file anywhere — inside a section header, the i8
    /// payload, the scales, or the checksum — fails with a structured
    /// error, never a panic.
    #[test]
    fn truncated_v2_is_corruption_not_panic() {
        let mut reasoner = trained_reasoner();
        reasoner.quantise();
        let mut buf = Vec::new();
        write_snapshot_legacy(&reasoner, &mut buf).unwrap();
        for keep in [30usize, 40, 60, buf.len() / 2, buf.len() - 9, buf.len() - 1] {
            let err = read_snapshot(&buf[..keep]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "truncation at {keep}: {err}"
            );
        }
    }

    /// Bit corruption in a v2 body (section tags included) is caught by
    /// structure checks or the trailing checksum.
    #[test]
    fn v2_corruption_anywhere_fails() {
        let mut reasoner = trained_reasoner();
        reasoner.quantise();
        let mut pristine = Vec::new();
        write_snapshot_legacy(&reasoner, &mut pristine).unwrap();
        for pos in [28usize, 33, 40, pristine.len() / 2, pristine.len() - 9] {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x10;
            assert!(
                read_snapshot(&buf[..]).is_err(),
                "bit flip at {pos} must not load cleanly"
            );
        }
    }

    #[test]
    fn corruption_anywhere_fails_checksum() {
        let mut pristine = Vec::new();
        write_snapshot_legacy(&trained_reasoner(), &mut pristine).unwrap();
        // Flip one bit in several places across the payload (skipping the
        // magic/version, which produce their own error kinds).
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
        let mut buf = Vec::new();
        write_snapshot(&trained_reasoner(), &mut buf).unwrap();
        buf.truncate(buf.len() - 13);
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut buf = Vec::new();
        write_snapshot(&trained_reasoner(), &mut buf).unwrap();
        buf.extend_from_slice(b"junk");
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    /// Recomputes and installs a v3 header hash — for tests that tamper
    /// with header fields and need the tampering itself (not the stale
    /// signature) to be what the reader rejects.
    fn resign_v3(buf: &mut [u8]) {
        let count = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
        let hash_pos = 32 + SECTION_ENTRY_BYTES * count + 24;
        let mut h = FxHasher::default();
        h.write(&buf[..hash_pos]);
        let sig = h.finish();
        buf[hash_pos..hash_pos + 8].copy_from_slice(&sig.to_le_bytes());
    }

    /// Truncating or bit-flipping a v3 file anywhere — header, section
    /// table, padding, payload — is a typed error, never a panic.
    #[test]
    fn v3_truncation_and_corruption_are_typed_errors() {
        let mut reasoner = trained_reasoner();
        for quantised in [false, true] {
            if quantised {
                reasoner.quantise();
            }
            let mut pristine = Vec::new();
            write_snapshot(&reasoner, &mut pristine).unwrap();
            for keep in [7usize, 20, 33, 60, pristine.len() / 2, pristine.len() - 1] {
                let err = read_snapshot(&pristine[..keep]).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Corrupt(_)),
                    "truncation at {keep} (quantised {quantised}): {err}"
                );
            }
            for pos in [9usize, 30, 40, 64, pristine.len() / 2, pristine.len() - 1] {
                let mut buf = pristine.clone();
                buf[pos] ^= 0x10;
                assert!(
                    read_snapshot(&buf[..]).is_err(),
                    "bit flip at {pos} (quantised {quantised}) must not load cleanly"
                );
            }
        }
    }

    /// A *re-signed* lying v3 header (valid checksum, fields that deviate
    /// from the canonical layout) is still rejected: offsets, shapes,
    /// payload base and section count all have exactly one legal value.
    #[test]
    fn v3_resigned_lying_headers_are_rejected() {
        let reasoner = trained_reasoner();
        let mut pristine = Vec::new();
        write_snapshot(&reasoner, &mut pristine).unwrap();
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

        // Claim a giant section table (the count cap rejects this before
        // any signature check, so no re-sign is possible or needed).
        let mut buf = pristine.clone();
        buf[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    /// `load_mmap` on a v3 file borrows the weights (near-zero resident
    /// bytes) and serves predictions bit-identical to the owned load —
    /// for both f32 and quantised snapshots.
    #[test]
    fn load_mmap_serves_bit_identically() {
        let mut reasoner = trained_reasoner();
        let subject = csa_multiplier(4);
        for quantised in [false, true] {
            if quantised {
                reasoner.quantise();
            }
            let path = std::env::temp_dir().join(format!(
                "gamora-snap-mmap-{}-{quantised}.gsnap",
                std::process::id()
            ));
            reasoner.save(&path).unwrap();
            let owned = GamoraReasoner::load(&path).unwrap();
            let (mapped, stats) = GamoraReasoner::load_mmap(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(mapped.config(), reasoner.config());
            assert_eq!(
                mapped.predict(&subject.aig),
                owned.predict(&subject.aig),
                "mmap-loaded predictions must be bit-identical (quantised {quantised})"
            );
            if cfg!(all(unix, target_pointer_width = "64")) {
                assert!(stats.mapped, "expected the zero-copy path on this target");
                // Only biases stay owned; the weight payloads live in the
                // mapping (biases dominate on this tiny test model, so the
                // bound is deliberately loose).
                assert!(
                    mapped.resident_weight_bytes() * 2 < owned.resident_weight_bytes(),
                    "borrowed weights should be ~non-resident: {} vs {} bytes",
                    mapped.resident_weight_bytes(),
                    owned.resident_weight_bytes()
                );
            }
            assert!(stats.file_bytes > 0 && stats.load_micros > 0);
        }
    }

    /// `load_mmap` on a legacy (v1/v2) file transparently falls back to
    /// the owned reader and reports `mapped: false`.
    #[test]
    fn load_mmap_falls_back_for_legacy_files() {
        let reasoner = trained_reasoner();
        let path = std::env::temp_dir().join(format!(
            "gamora-snap-mmap-legacy-{}.gsnap",
            std::process::id()
        ));
        write_snapshot_legacy(&reasoner, File::create(&path).unwrap()).unwrap();
        let (back, stats) = GamoraReasoner::load_mmap(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!stats.mapped);
        let subject = csa_multiplier(4);
        assert_eq!(back.predict(&subject.aig), reasoner.predict(&subject.aig));
    }
}
