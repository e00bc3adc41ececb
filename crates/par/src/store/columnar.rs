//! The columnar binary artifact format (`.acs` — *aegis column store*).
//!
//! JSON artifacts pay a per-element parse on every warm load: a cached
//! dataset of a few million `f64`s is tokenized, validated, and rebuilt
//! one number at a time. The columnar format instead mirrors the flat
//! in-memory layouts the rest of the workspace already uses (`Mat`,
//! flattened `RecordedTrace`s, contiguous label vectors): the file is a
//! small fixed header plus contiguous little-endian `f64`/`u64` *column
//! pages*, so a warm load is one `read` into a pre-sized buffer followed
//! by a bulk byte copy per column — no tokenizer, no per-element
//! branching, and the decoded `Vec`s move straight into the value.
//!
//! ## On-disk layout (pinned by `tests/store_format.rs`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"AEGCOL01"
//! 8       4     schema id      (FNV-1a-32 of the schema name), LE
//! 12      4     schema version, LE
//! 16      4     column count,   LE
//! 20      4     header checksum (FNV-1a-32 of bytes 0..20 and the
//!               descriptor table), LE
//! 24      24*n  column descriptors:
//!                 u32 dtype (1 = f64, 2 = u64)
//!                 u32 element count   (columns are capped at u32::MAX
//!                                      elements; 32 GiB per column)
//!                 u64 absolute byte offset of the page
//!                 u64 page checksum (FNV-1a-64 of the page bytes)
//! ...           column pages, in descriptor order, 8-byte aligned
//! ```
//!
//! Every page carries its own checksum, so a torn write — truncation
//! *or* a partial page landing mid-column — is detected on read and
//! surfaces as a cache miss that the recompute path heals. The header
//! checksum pins the descriptor table itself.

use std::fmt;

/// File magic: format name plus a one-byte format generation. Bumping
/// the generation (`02`) invalidates every existing artifact at once.
pub const COLUMNAR_MAGIC: [u8; 8] = *b"AEGCOL01";

/// Size of the fixed header before the descriptor table.
pub const COLUMNAR_HEADER_LEN: usize = 24;

/// Size of one column descriptor.
pub const COLUMNAR_DESC_LEN: usize = 24;

/// dtype tag of an `f64` column page.
pub const DTYPE_F64: u32 = 1;

/// dtype tag of a `u64` column page.
pub const DTYPE_U64: u32 = 2;

/// A decoding failure: the artifact bytes do not describe a valid frame
/// of the expected schema. Readers treat this as a cache miss (the
/// recompute path heals), never as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl FrameError {
    /// A decode error with the given message (for downstream [`Columnar`]
    /// implementations validating their own invariants).
    pub fn new(msg: impl Into<String>) -> Self {
        FrameError(msg.into())
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "columnar frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// Identity of a columnar encoding: the producing type's stable name and
/// its layout version. Both are pinned into the header; a reader with a
/// different schema treats the artifact as a miss instead of misreading
/// reinterpreted pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSchema {
    /// Stable schema name (conventionally the type path).
    pub name: String,
    /// Layout version; bump when the column sequence changes.
    pub version: u32,
}

impl ColumnSchema {
    /// A schema with the given name and version.
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        ColumnSchema {
            name: name.into(),
            version,
        }
    }

    /// The 32-bit id written into the header: FNV-1a over the name.
    pub fn id(&self) -> u32 {
        let mut hash: u32 = 0x811c_9dc5;
        for byte in self.name.bytes() {
            hash ^= u32::from(byte);
            hash = hash.wrapping_mul(0x0100_0193);
        }
        hash
    }
}

/// One contiguous column page.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// A page of little-endian `f64`s.
    F64(Vec<f64>),
    /// A page of little-endian `u64`s.
    U64(Vec<u64>),
}

impl Column {
    fn dtype(&self) -> u32 {
        match self {
            Column::F64(_) => DTYPE_F64,
            Column::U64(_) => DTYPE_U64,
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::U64(v) => v.len(),
        }
    }
}

/// An ordered set of column pages — the unit a [`Columnar`] type encodes
/// to and decodes from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnFrame {
    cols: Vec<Column>,
}

impl ColumnFrame {
    /// An empty frame.
    pub fn new() -> Self {
        ColumnFrame::default()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the frame has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Appends an `f64` column.
    pub fn push_f64(&mut self, data: Vec<f64>) {
        self.cols.push(Column::F64(data));
    }

    /// Appends a `u64` column.
    pub fn push_u64(&mut self, data: Vec<u64>) {
        self.cols.push(Column::U64(data));
    }

    /// Removes and returns the last column, if any (used by wrappers —
    /// e.g. [`super::Checkpoint`] — that append bookkeeping columns
    /// after a payload frame).
    pub fn pop(&mut self) -> Option<Column> {
        self.cols.pop()
    }

    /// Consumes the frame into a sequential column reader.
    pub fn into_reader(self) -> FrameReader {
        FrameReader {
            cols: self.cols.into_iter(),
        }
    }
}

/// Sequential, ownership-taking reader over a frame's columns. Decoded
/// `Vec`s move out of the frame — the bytes copied out of the file are
/// the ones that end up inside the value.
#[derive(Debug)]
pub struct FrameReader {
    cols: std::vec::IntoIter<Column>,
}

impl FrameReader {
    /// Takes the next column, which must be `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the frame is exhausted or the next
    /// column has a different dtype.
    pub fn f64s(&mut self) -> Result<Vec<f64>, FrameError> {
        match self.cols.next() {
            Some(Column::F64(v)) => Ok(v),
            Some(Column::U64(_)) => Err(FrameError::new("expected f64 column, found u64")),
            None => Err(FrameError::new("expected f64 column, frame exhausted")),
        }
    }

    /// Takes the next column, which must be `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the frame is exhausted or the next
    /// column has a different dtype.
    pub fn u64s(&mut self) -> Result<Vec<u64>, FrameError> {
        match self.cols.next() {
            Some(Column::U64(v)) => Ok(v),
            Some(Column::F64(_)) => Err(FrameError::new("expected u64 column, found f64")),
            None => Err(FrameError::new("expected u64 column, frame exhausted")),
        }
    }

    /// Asserts every column was consumed — a decoder that leaves columns
    /// behind is reading a different schema than the writer produced.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when columns remain.
    pub fn finish(mut self) -> Result<(), FrameError> {
        if self.cols.next().is_some() {
            return Err(FrameError::new("trailing columns after decode"));
        }
        Ok(())
    }
}

/// A type with a columnar binary encoding whose on-disk pages mirror its
/// flat in-memory buffers.
///
/// Implementations must round-trip bit-exactly: `decode(encode(x)) ==
/// x`, including every `f64` bit pattern — the store's warm-vs-cold
/// equality contract depends on it.
pub trait Columnar: Sized {
    /// The schema pinned into encoded headers.
    fn schema() -> ColumnSchema;

    /// Appends this value's columns to `frame`, in schema order.
    /// Composite types append their members' columns in field order.
    fn encode_columns(&self, frame: &mut ColumnFrame);

    /// Decodes the value by consuming columns from `reader` in the same
    /// order `encode_columns` appended them.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the columns do not describe a valid
    /// value.
    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError>;

    /// Encodes into a standalone frame.
    fn to_frame(&self) -> ColumnFrame {
        let mut frame = ColumnFrame::new();
        self.encode_columns(&mut frame);
        frame
    }

    /// Decodes from a standalone frame, requiring every column to be
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when decoding fails or columns remain.
    fn from_frame(frame: ColumnFrame) -> Result<Self, FrameError> {
        let mut reader = frame.into_reader();
        let value = Self::decode_columns(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }
}

/// FNV-1a-64 over raw bytes — the page checksum. Stable across
/// processes and platforms, like [`crate::fingerprint`].
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a frame under `schema` into the pinned binary layout.
pub fn encode_frame(schema: &ColumnSchema, frame: &ColumnFrame) -> Vec<u8> {
    let n = frame.cols.len();
    let desc_end = COLUMNAR_HEADER_LEN + n * COLUMNAR_DESC_LEN;
    // Pages start 8-byte aligned after the descriptor table.
    let mut offset = desc_end.next_multiple_of(8);
    let payload: usize = frame.cols.iter().map(|c| c.len() * 8).sum();
    let mut out = Vec::with_capacity(offset + payload);

    out.extend_from_slice(&COLUMNAR_MAGIC);
    put_u32(&mut out, schema.id());
    put_u32(&mut out, schema.version);
    put_u32(&mut out, u32::try_from(n).expect("column count fits u32"));
    // Header checksum patched below, once the descriptors exist.
    put_u32(&mut out, 0);

    // Descriptor table (checksums of pages computed as we serialize the
    // page bytes into scratch, so each page is walked exactly once).
    let mut pages: Vec<Vec<u8>> = Vec::with_capacity(n);
    for col in &frame.cols {
        let mut page: Vec<u8> = Vec::with_capacity(col.len() * 8);
        match col {
            Column::F64(v) => {
                for x in v {
                    page.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Column::U64(v) => {
                for x in v {
                    page.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        put_u32(&mut out, col.dtype());
        put_u32(
            &mut out,
            u32::try_from(col.len()).expect("column length fits u32"),
        );
        put_u64(&mut out, offset as u64);
        put_u64(&mut out, fnv64(&page));
        offset += page.len();
        pages.push(page);
    }
    let crc = fnv32_header(&out);
    out[20..24].copy_from_slice(&crc.to_le_bytes());

    // Alignment padding, then the pages.
    out.resize(desc_end.next_multiple_of(8), 0);
    for page in pages {
        out.extend_from_slice(&page);
    }
    out
}

/// The header checksum: FNV-1a-32 over the fixed header (with the
/// checksum field itself zeroed) and the descriptor table.
fn fnv32_header(prefix: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for (i, &byte) in prefix.iter().enumerate() {
        let b = if (20..24).contains(&i) { 0 } else { byte };
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, FrameError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| FrameError::new("truncated header"))?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..end]);
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, FrameError> {
    let end = at
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| FrameError::new("truncated header"))?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..end]);
    Ok(u64::from_le_bytes(buf))
}

/// Deserializes artifact bytes into a frame, validating magic, schema,
/// header checksum, page bounds, and every page checksum. Any mismatch
/// — including a torn page inside a column — is a [`FrameError`].
///
/// # Errors
///
/// Returns [`FrameError`] when the bytes are not a valid frame of
/// `schema`.
pub fn decode_frame(schema: &ColumnSchema, bytes: &[u8]) -> Result<ColumnFrame, FrameError> {
    if bytes.len() < COLUMNAR_HEADER_LEN {
        return Err(FrameError::new("file shorter than header"));
    }
    if bytes[..8] != COLUMNAR_MAGIC {
        return Err(FrameError::new("bad magic"));
    }
    if read_u32(bytes, 8)? != schema.id() {
        return Err(FrameError::new(format!(
            "schema id mismatch (want {:#010x} `{}`)",
            schema.id(),
            schema.name
        )));
    }
    if read_u32(bytes, 12)? != schema.version {
        return Err(FrameError::new(format!(
            "schema version mismatch (want {})",
            schema.version
        )));
    }
    let n = read_u32(bytes, 16)? as usize;
    let desc_end = COLUMNAR_HEADER_LEN
        .checked_add(n.checked_mul(COLUMNAR_DESC_LEN).ok_or_else(overflow)?)
        .ok_or_else(overflow)?;
    if bytes.len() < desc_end {
        return Err(FrameError::new("truncated descriptor table"));
    }
    if read_u32(bytes, 20)? != fnv32_header(&bytes[..desc_end]) {
        return Err(FrameError::new("header checksum mismatch"));
    }

    let mut cols = Vec::with_capacity(n);
    for i in 0..n {
        let at = COLUMNAR_HEADER_LEN + i * COLUMNAR_DESC_LEN;
        let dtype = read_u32(bytes, at)?;
        let len = read_u32(bytes, at + 4)? as usize;
        let offset = read_u64(bytes, at + 8)? as usize;
        let crc = read_u64(bytes, at + 16)?;
        let end = offset
            .checked_add(len.checked_mul(8).ok_or_else(overflow)?)
            .ok_or_else(overflow)?;
        if end > bytes.len() {
            return Err(FrameError::new(format!("column {i} page out of bounds")));
        }
        let page = &bytes[offset..end];
        if fnv64(page) != crc {
            return Err(FrameError::new(format!("column {i} checksum mismatch")));
        }
        cols.push(match dtype {
            // The page is contiguous little-endian words; the chunked
            // from_le_bytes loop compiles to a bulk copy on LE targets.
            DTYPE_F64 => Column::F64(
                page.chunks_exact(8)
                    .map(|c| {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(c);
                        f64::from_bits(u64::from_le_bytes(b))
                    })
                    .collect(),
            ),
            DTYPE_U64 => Column::U64(
                page.chunks_exact(8)
                    .map(|c| {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(c);
                        u64::from_le_bytes(b)
                    })
                    .collect(),
            ),
            other => {
                return Err(FrameError::new(format!(
                    "column {i}: unknown dtype {other}"
                )))
            }
        });
    }
    Ok(ColumnFrame { cols })
}

fn overflow() -> FrameError {
    FrameError::new("descriptor arithmetic overflow")
}

/// `usize` stored as a `u64` column element, checked on decode.
///
/// # Errors
///
/// Returns [`FrameError`] when the value exceeds the platform `usize`.
pub fn usize_from_u64(v: u64, what: &str) -> Result<usize, FrameError> {
    usize::try_from(v).map_err(|_| FrameError::new(format!("{what} {v} exceeds usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> ColumnFrame {
        let mut f = ColumnFrame::new();
        f.push_f64(vec![1.5, -2.25, f64::NAN, 0.0, -0.0]);
        f.push_u64(vec![7, u64::MAX, 0]);
        f.push_f64(vec![]);
        f
    }

    fn schema() -> ColumnSchema {
        ColumnSchema::new("test/frame", 3)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let frame = sample_frame();
        let bytes = encode_frame(&schema(), &frame);
        let back = decode_frame(&schema(), &bytes).unwrap();
        let mut r = back.into_reader();
        let f = r.f64s().unwrap();
        // NaN payload preserved bit-for-bit.
        assert_eq!(
            f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [1.5, -2.25, f64::NAN, 0.0, -0.0]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(r.u64s().unwrap(), vec![7, u64::MAX, 0]);
        assert_eq!(r.f64s().unwrap(), Vec::<f64>::new());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode_frame(&schema(), &sample_frame());
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&schema(), &bytes[..cut]).is_err(),
                "truncation at {cut}/{} must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn flipped_byte_inside_a_column_is_detected() {
        let bytes = encode_frame(&schema(), &sample_frame());
        for at in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[at] ^= 0x40;
            assert!(
                decode_frame(&schema(), &torn).is_err(),
                "corruption at byte {at} must not decode"
            );
        }
    }

    #[test]
    fn schema_mismatch_is_a_miss() {
        let bytes = encode_frame(&schema(), &sample_frame());
        let other = ColumnSchema::new("test/other", 3);
        assert!(decode_frame(&other, &bytes).is_err());
        let newer = ColumnSchema::new("test/frame", 4);
        assert!(decode_frame(&newer, &bytes).is_err());
    }

    #[test]
    fn reader_enforces_dtype_and_exhaustion() {
        let frame = sample_frame();
        let mut r = frame.clone().into_reader();
        assert!(r.u64s().is_err(), "first column is f64");

        let mut r = frame.clone().into_reader();
        r.f64s().unwrap();
        r.u64s().unwrap();
        assert!(r.finish().is_err(), "one column left");

        let mut r = frame.into_reader();
        r.f64s().unwrap();
        r.u64s().unwrap();
        r.f64s().unwrap();
        assert!(r.f64s().is_err(), "frame exhausted");
    }

    #[test]
    fn pages_are_eight_byte_aligned() {
        let frame = sample_frame();
        let bytes = encode_frame(&schema(), &frame);
        for i in 0..frame.len() {
            let at = COLUMNAR_HEADER_LEN + i * COLUMNAR_DESC_LEN + 8;
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            assert_eq!(u64::from_le_bytes(b) % 8, 0, "column {i} misaligned");
        }
    }
}
