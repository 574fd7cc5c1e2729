//! The volcast wire format: a streamable container for encoded octree
//! frames (DESIGN.md §5, "Wire format").
//!
//! A serving story needs more than in-memory `EncodedCloud`s: clients join
//! mid-stream, links truncate transfers, and a hostile peer can hand the
//! parser anything. This module defines a **versioned, length-prefixed
//! container** in the spirit of Universal Volumetric's `.uvol`/manifest
//! split and DASH segmentation:
//!
//! ```text
//! stream   := "VWSM" version:u16 flags:u16 manifest_len:u32 manifest chunks
//! manifest := depth:u8 color_bits:u8 gop_size:u32 frame_count:u32
//!             [layers_per_frame:u8 if flags & LAYERED]
//!             frame_count * entry
//! entry    := offset:u64 len:u32 checksum:u64     # offset into chunk area
//! chunk    := "VCHK" frame_idx:u32 payload_len:u32 checksum:u64 payload
//! ```
//!
//! All integers are little-endian. The manifest is self-contained (chunk
//! offsets are relative to the end of the manifest), so a client that has
//! only the stream head can plan fetches; each chunk repeats its frame
//! index, length, and FNV-1a checksum, so a client that has only a chunk
//! can validate it. The only defined `flags` bit is
//! [`STREAM_FLAG_LAYERED`] (progressive layered frames: each video frame
//! is `layers_per_frame` consecutive chunks, base layer first); all other
//! bits must be zero, so pre-layering readers reject layered streams
//! cleanly instead of misreading them.
//!
//! **Every read path is bounds-checked and returns
//! `Result<_, WireError>`.** Truncated, oversized, version-mismatched, or
//! bit-flipped input must never panic — the `wire_fuzz` smoke test in
//! `tests/wire.rs` feeds thousands of mutated streams through
//! [`StreamReader::parse`] to hold that line.
//!
//! Three access styles:
//!
//! - [`StreamWriter`]: builds a stream from per-frame payloads,
//! - [`StreamReader`]: zero-copy random access over a complete byte slice
//!   (the server's in-memory source),
//! - [`WireCursor`]: incremental parsing of a byte stream that arrives in
//!   arbitrary slices (the client side of a connection) — feed bytes, poll
//!   events.
//!
//! ```
//! use volcast_net::wire::{StreamWriter, StreamReader};
//!
//! let mut w = StreamWriter::new(8, 6, 30);
//! w.push_frame(b"frame-0");
//! w.push_frame(b"frame-1");
//! let bytes = w.finish();
//! let r = StreamReader::parse(&bytes).unwrap();
//! assert_eq!(r.manifest().frame_count, 2);
//! assert_eq!(r.chunk_payload(1).unwrap(), b"frame-1");
//! // Truncation is an error, not a panic.
//! assert!(StreamReader::parse(&bytes[..bytes.len() - 1]).is_err());
//! ```

use std::fmt;

use volcast_util::hash::{fnv1a, fnv1a_each};

/// Stream magic: the first four bytes of every volcast wire stream.
pub const STREAM_MAGIC: [u8; 4] = *b"VWSM";
/// Chunk magic: the first four bytes of every payload chunk.
pub const CHUNK_MAGIC: [u8; 4] = *b"VCHK";
/// The wire format version this build writes and accepts.
pub const WIRE_VERSION: u16 = 1;
/// Stream flag: the payload chunks are **layered** — each video frame is
/// `layers_per_frame` consecutive chunks (base layer first, then
/// enhancements), and the manifest carries the extra `layers_per_frame`
/// byte. Readers that predate this flag reject such streams at the flags
/// check rather than misreading chunk indices as frame numbers.
pub const STREAM_FLAG_LAYERED: u16 = 0x1;

/// Fixed stream header size: magic + version + flags + manifest_len.
pub const STREAM_HEADER_LEN: usize = 4 + 2 + 2 + 4;
/// Fixed per-chunk header size: magic + frame_idx + payload_len + checksum.
pub const CHUNK_HEADER_LEN: usize = 4 + 4 + 4 + 8;
/// Fixed manifest prefix: depth + color_bits + gop_size + frame_count.
const MANIFEST_FIXED_LEN: usize = 1 + 1 + 4 + 4;
/// Serialized size of one manifest chunk entry.
const ENTRY_LEN: usize = 8 + 4 + 8;

/// Upper bound on `frame_count` a parser will accept. Hostile manifests
/// must not be able to drive a multi-gigabyte allocation from a 14-byte
/// header; at 30 FPS this cap is still over nine hours of video.
pub const MAX_FRAMES: u32 = 1 << 20;
/// Upper bound on `manifest_len`: the manifest of a layered stream of
/// [`MAX_FRAMES`] chunks.
const MAX_MANIFEST_LEN: usize = MANIFEST_FIXED_LEN + 1 + MAX_FRAMES as usize * ENTRY_LEN;
/// Upper bound on a single chunk payload (64 MiB). Real encoded frames at
/// paper scale are ~100 KiB; anything near this cap is corrupt or hostile.
pub const MAX_CHUNK_LEN: u32 = 1 << 26;

/// Why a wire stream failed to parse or validate.
///
/// Every variant is a *graceful* outcome: parsers return these instead of
/// panicking, so a server can drop one bad connection (or one bad file)
/// and keep serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before a required field or payload.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required to finish the read.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The stream or a chunk does not start with its magic bytes.
    BadMagic {
        /// Which magic was expected ("stream" or "chunk").
        what: &'static str,
    },
    /// The stream's version is not one this build understands.
    VersionMismatch {
        /// Version found in the header.
        got: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// A declared size exceeds the format's hard caps.
    Oversized {
        /// Which field was oversized.
        what: &'static str,
        /// The declared value.
        got: u64,
        /// The cap it violates.
        max: u64,
    },
    /// Fields are internally inconsistent (offsets out of order, entry
    /// table not matching `manifest_len`, nonzero reserved flags, ...).
    Inconsistent(&'static str),
    /// A chunk's payload bytes do not hash to the declared checksum.
    ChecksumMismatch {
        /// The frame whose chunk failed validation.
        frame: u32,
    },
    /// A chunk header's frame index, length, or checksum disagrees with
    /// the manifest entry for that slot.
    ManifestMismatch {
        /// The frame slot that disagreed.
        frame: u32,
    },
    /// A frame index beyond the manifest's `frame_count` was requested.
    NoSuchFrame {
        /// The requested frame.
        frame: u32,
        /// Frames in the stream.
        frame_count: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            WireError::BadMagic { what } => write!(f, "bad {what} magic"),
            WireError::VersionMismatch { got, expected } => {
                write!(
                    f,
                    "wire version {got} not supported (this build speaks {expected})"
                )
            }
            WireError::Oversized { what, got, max } => {
                write!(f, "{what} {got} exceeds wire cap {max}")
            }
            WireError::Inconsistent(why) => write!(f, "inconsistent stream: {why}"),
            WireError::ChecksumMismatch { frame } => {
                write!(f, "chunk checksum mismatch at frame {frame}")
            }
            WireError::ManifestMismatch { frame } => {
                write!(f, "chunk header disagrees with manifest at frame {frame}")
            }
            WireError::NoSuchFrame { frame, frame_count } => {
                write!(f, "frame {frame} out of range (stream has {frame_count})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One frame's location in the chunk area, as recorded by the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk (including its header) from the start of
    /// the chunk area (= end of the manifest).
    pub offset: u64,
    /// Payload length in bytes (the chunk on the wire additionally carries
    /// [`CHUNK_HEADER_LEN`] bytes of header).
    pub len: u32,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
}

/// The stream manifest: codec parameters plus the per-frame chunk table.
///
/// Everything a client needs to plan playback before any payload arrives:
/// how deep the octrees are, how frames group into GOPs, how many frames
/// exist, and where each frame's chunk lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamManifest {
    /// Octree codec depth (bits per axis) of the payload bitstreams.
    pub depth: u8,
    /// Color quantization (bits per channel) of the payload bitstreams.
    pub color_bits: u8,
    /// Frames per group-of-pictures (scheduling granularity).
    pub gop_size: u32,
    /// Number of chunks in the stream. For a legacy stream this is the
    /// frame count; for a layered stream each video frame occupies
    /// `layers_per_frame` consecutive chunks.
    pub frame_count: u32,
    /// Layer bitstreams per video frame: 1 for a legacy single-stream
    /// container, 2+ when [`STREAM_FLAG_LAYERED`] is set (base layer, then
    /// enhancements, stored as consecutive chunks).
    pub layers_per_frame: u8,
    /// Per-frame chunk locations, `frame_count` entries in frame order.
    pub entries: Vec<ChunkEntry>,
}

impl StreamManifest {
    /// `true` when the stream carries layered frames (and its header has
    /// [`STREAM_FLAG_LAYERED`] set).
    pub fn is_layered(&self) -> bool {
        self.layers_per_frame > 1
    }

    /// Number of *video* frames: chunk slots divided by layers per frame.
    pub fn video_frame_count(&self) -> u32 {
        self.frame_count / self.layers_per_frame.max(1) as u32
    }

    /// Serialized size of this manifest in bytes.
    pub fn encoded_len(&self) -> usize {
        MANIFEST_FIXED_LEN + if self.is_layered() { 1 } else { 0 } + self.entries.len() * ENTRY_LEN
    }

    /// Serializes the manifest body (the bytes `manifest_len` brackets).
    /// The `layers_per_frame` byte is present exactly when the stream
    /// header carries [`STREAM_FLAG_LAYERED`] (i.e. [`Self::is_layered`]);
    /// legacy manifests are byte-identical to before the flag existed.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.depth);
        out.push(self.color_bits);
        out.extend_from_slice(&self.gop_size.to_le_bytes());
        out.extend_from_slice(&self.frame_count.to_le_bytes());
        if self.is_layered() {
            out.push(self.layers_per_frame);
        }
        for e in &self.entries {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.checksum.to_le_bytes());
        }
    }

    /// Parses a manifest body under the stream header's `flags`. `bytes`
    /// must be exactly the manifest slice (as delimited by the stream
    /// header's `manifest_len`).
    pub fn decode_with_flags(bytes: &[u8], flags: u16) -> Result<StreamManifest, WireError> {
        let mut r = Reader::new(bytes);
        let depth = r.u8("manifest depth")?;
        let color_bits = r.u8("manifest color_bits")?;
        let gop_size = r.u32("manifest gop_size")?;
        let frame_count = r.u32("manifest frame_count")?;
        if frame_count > MAX_FRAMES {
            return Err(WireError::Oversized {
                what: "frame_count",
                got: frame_count as u64,
                max: MAX_FRAMES as u64,
            });
        }
        let layers_per_frame = if flags & STREAM_FLAG_LAYERED != 0 {
            let l = r.u8("manifest layers_per_frame")?;
            if l < 2 {
                return Err(WireError::Inconsistent(
                    "layered stream must carry at least 2 layers per frame",
                ));
            }
            if frame_count % l as u32 != 0 {
                return Err(WireError::Inconsistent(
                    "chunk count not a multiple of layers_per_frame",
                ));
            }
            l
        } else {
            1
        };
        let table = frame_count as usize * ENTRY_LEN;
        if r.remaining() != table {
            // The entry table must account for every remaining byte: a
            // manifest_len that disagrees with frame_count is corrupt.
            return Err(WireError::Inconsistent(
                "manifest length does not match frame_count",
            ));
        }
        let mut entries = Vec::with_capacity(frame_count as usize);
        let mut expected_offset = 0u64;
        for _ in 0..frame_count {
            let offset = r.u64("manifest entry offset")?;
            let len = r.u32("manifest entry len")?;
            let checksum = r.u64("manifest entry checksum")?;
            if len > MAX_CHUNK_LEN {
                return Err(WireError::Oversized {
                    what: "chunk len",
                    got: len as u64,
                    max: MAX_CHUNK_LEN as u64,
                });
            }
            if offset != expected_offset {
                // Chunks are written back to back in frame order; any gap
                // or overlap means the table and the chunk area disagree.
                return Err(WireError::Inconsistent("chunk offsets not contiguous"));
            }
            expected_offset = expected_offset
                .checked_add(CHUNK_HEADER_LEN as u64 + len as u64)
                .ok_or(WireError::Inconsistent("chunk offsets overflow"))?;
            entries.push(ChunkEntry {
                offset,
                len,
                checksum,
            });
        }
        Ok(StreamManifest {
            depth,
            color_bits,
            gop_size,
            frame_count,
            layers_per_frame,
            entries,
        })
    }

    /// Total size of the chunk area the manifest describes.
    pub fn chunk_area_len(&self) -> u64 {
        self.entries
            .last()
            .map(|e| e.offset + CHUNK_HEADER_LEN as u64 + e.len as u64)
            .unwrap_or(0)
    }
}

/// Bounds-checked little-endian reads over a byte slice. Every accessor
/// returns [`WireError::Truncated`] instead of slicing out of range — this
/// is the only way wire parsing touches raw bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

/// Builds a wire stream from per-frame payloads.
///
/// Payload bytes are owned until [`StreamWriter::finish`] assembles the
/// final stream (header, manifest with offsets/checksums, then chunks back
/// to back).
#[derive(Debug, Clone)]
pub struct StreamWriter {
    depth: u8,
    color_bits: u8,
    gop_size: u32,
    layers_per_frame: u8,
    frames: Vec<Vec<u8>>,
}

impl StreamWriter {
    /// Starts a stream with the given codec parameters.
    pub fn new(depth: u8, color_bits: u8, gop_size: u32) -> StreamWriter {
        StreamWriter {
            depth,
            color_bits,
            gop_size,
            layers_per_frame: 1,
            frames: Vec::new(),
        }
    }

    /// Starts a **layered** stream: every video frame is
    /// `layers_per_frame` consecutive chunks (base first). The finished
    /// stream carries [`STREAM_FLAG_LAYERED`].
    ///
    /// # Panics
    /// If `layers_per_frame < 2` (a 1-layer stream is just a legacy
    /// stream — use [`StreamWriter::new`]).
    pub fn new_layered(
        depth: u8,
        color_bits: u8,
        gop_size: u32,
        layers_per_frame: u8,
    ) -> StreamWriter {
        assert!(
            layers_per_frame >= 2,
            "a layered stream needs at least 2 layers per frame"
        );
        StreamWriter {
            depth,
            color_bits,
            gop_size,
            layers_per_frame,
            frames: Vec::new(),
        }
    }

    /// Appends one video frame's layer payloads (base first). The chunk
    /// count must match the writer's `layers_per_frame`.
    ///
    /// # Panics
    /// If `layers.len() != layers_per_frame` (writer-side misuse).
    pub fn push_layered_frame(&mut self, layers: &[impl AsRef<[u8]>]) {
        assert_eq!(
            layers.len(),
            self.layers_per_frame as usize,
            "layer count must match layers_per_frame"
        );
        for l in layers {
            self.push_frame(l.as_ref());
        }
    }

    /// Appends one frame's payload (an encoded octree bitstream).
    ///
    /// # Panics
    /// If the stream already holds [`MAX_FRAMES`] frames or the payload
    /// exceeds [`MAX_CHUNK_LEN`] — writer-side misuse, not wire input.
    pub fn push_frame(&mut self, payload: &[u8]) {
        assert!(
            (self.frames.len() as u32) < MAX_FRAMES,
            "stream frame cap exceeded"
        );
        assert!(
            payload.len() as u64 <= MAX_CHUNK_LEN as u64,
            "chunk payload exceeds MAX_CHUNK_LEN"
        );
        self.frames.push(payload.to_vec());
    }

    /// The manifest the finished stream will carry.
    pub fn manifest(&self) -> StreamManifest {
        let mut entries = Vec::with_capacity(self.frames.len());
        let mut offset = 0u64;
        for payload in &self.frames {
            entries.push(ChunkEntry {
                offset,
                len: payload.len() as u32,
                checksum: 0,
            });
            offset += (CHUNK_HEADER_LEN + payload.len()) as u64;
        }
        fnv1a_each(self.frames.iter().map(Vec::as_slice), |i, checksum| {
            entries[i].checksum = checksum;
        });
        StreamManifest {
            depth: self.depth,
            color_bits: self.color_bits,
            gop_size: self.gop_size,
            frame_count: self.frames.len() as u32,
            layers_per_frame: self.layers_per_frame,
            entries,
        }
    }

    /// Assembles the complete stream bytes.
    ///
    /// # Panics
    /// For a layered writer, if the pushed chunk count is not a whole
    /// number of video frames.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(
            self.frames.len() % self.layers_per_frame as usize,
            0,
            "layered stream ended mid-frame"
        );
        let manifest = self.manifest();
        let flags = if manifest.is_layered() {
            STREAM_FLAG_LAYERED
        } else {
            0
        };
        let manifest_len = manifest.encoded_len();
        let total = STREAM_HEADER_LEN as u64 + manifest_len as u64 + manifest.chunk_area_len();
        let mut out = Vec::with_capacity(total as usize);
        out.extend_from_slice(&STREAM_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(manifest_len as u32).to_le_bytes());
        manifest.encode_into(&mut out);
        for (i, (payload, entry)) in self.frames.iter().zip(&manifest.entries).enumerate() {
            out.extend_from_slice(&CHUNK_MAGIC);
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&entry.len.to_le_bytes());
            out.extend_from_slice(&entry.checksum.to_le_bytes());
            out.extend_from_slice(payload);
        }
        debug_assert_eq!(out.len() as u64, total);
        out
    }
}

/// Zero-copy random access over a complete in-memory wire stream.
///
/// [`StreamReader::parse`] validates the header and manifest up front;
/// chunk payloads are validated (header cross-check + checksum) on access,
/// so a reader over a stream with one corrupt chunk still serves the rest.
#[derive(Debug)]
pub struct StreamReader<'a> {
    manifest: StreamManifest,
    /// The chunk area (everything after the manifest).
    chunks: &'a [u8],
}

impl<'a> StreamReader<'a> {
    /// Parses the stream head (header + manifest) and brackets the chunk
    /// area. Fails on truncated, oversized, or version-mismatched input —
    /// never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<StreamReader<'a>, WireError> {
        let (manifest, head_len) = parse_head(bytes)?;
        let chunks = &bytes[head_len..];
        if (chunks.len() as u64) < manifest.chunk_area_len() {
            return Err(WireError::Truncated {
                what: "chunk area",
                need: manifest.chunk_area_len() as usize,
                have: chunks.len(),
            });
        }
        if chunks.len() as u64 > manifest.chunk_area_len() {
            return Err(WireError::Inconsistent("trailing bytes after chunk area"));
        }
        Ok(StreamReader { manifest, chunks })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &StreamManifest {
        &self.manifest
    }

    /// The raw bytes of frame `i`'s chunk (header + payload) — what a
    /// server enqueues on a client's connection.
    pub fn chunk_bytes(&self, frame: u32) -> Result<&'a [u8], WireError> {
        let e = self.entry(frame)?;
        // Entry table offsets were validated contiguous and in range at
        // parse time, so this slice cannot overrun; recheck anyway to keep
        // the no-panic contract independent of parse-time invariants.
        let start = e.offset as usize;
        let len = CHUNK_HEADER_LEN + e.len as usize;
        if start + len > self.chunks.len() {
            return Err(WireError::Truncated {
                what: "chunk",
                need: start + len,
                have: self.chunks.len(),
            });
        }
        Ok(&self.chunks[start..start + len])
    }

    /// The validated payload of frame `i`: checks the chunk header against
    /// the manifest entry and the payload bytes against the checksum.
    pub fn chunk_payload(&self, frame: u32) -> Result<&'a [u8], WireError> {
        let payload = self.unhashed_payload(frame)?;
        if fnv1a(payload) != self.entry(frame)?.checksum {
            return Err(WireError::ChecksumMismatch { frame });
        }
        Ok(payload)
    }

    /// The header half of [`Self::chunk_payload`]: frame `i`'s payload
    /// bytes, once the chunk header agrees with the manifest entry (whose
    /// checksum they have yet to be hashed against).
    fn unhashed_payload(&self, frame: u32) -> Result<&'a [u8], WireError> {
        checked_chunk(self.chunk_bytes(frame)?, frame, self.entry(frame)?)
    }

    /// Validates every chunk in the stream (a server does this once at
    /// load time so per-connection sends can skip re-hashing) and returns
    /// what calling [`Self::chunk_payload`] on each frame in order would:
    /// the error of the first frame that fails, its header's before its
    /// checksum's. Headers are read in frame order up to the first bad
    /// one; the payloads before it are hashed four at a time
    /// ([`fnv1a_each`]).
    pub fn validate_all(&self) -> Result<(), WireError> {
        let mut header = Ok(());
        let mut first_bad: Option<usize> = None;
        let entries = &self.manifest.entries;
        let payloads = (0..self.manifest.frame_count).map_while(|frame| {
            self.unhashed_payload(frame)
                .map_err(|e| header = Err(e))
                .ok()
        });
        fnv1a_each(payloads, |i, h| {
            if h != entries[i].checksum && first_bad.is_none_or(|bad| i < bad) {
                first_bad = Some(i);
            }
        });
        match first_bad {
            Some(frame) => Err(WireError::ChecksumMismatch {
                frame: frame as u32,
            }),
            None => header,
        }
    }

    fn entry(&self, frame: u32) -> Result<&ChunkEntry, WireError> {
        self.manifest
            .entries
            .get(frame as usize)
            .ok_or(WireError::NoSuchFrame {
                frame,
                frame_count: self.manifest.frame_count,
            })
    }
}

/// An event produced by the incremental [`WireCursor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// The stream head parsed: codec parameters and chunk table are known.
    Manifest(StreamManifest),
    /// One complete, checksum-validated chunk arrived.
    Chunk {
        /// The frame index the chunk carries.
        frame: u32,
        /// The validated payload bytes.
        payload: Vec<u8>,
    },
}

/// Incremental wire parser for bytes that arrive in arbitrary slices —
/// the receive side of a connection.
///
/// Feed bytes with [`WireCursor::feed`], then drain events with
/// [`WireCursor::poll`]. The cursor buffers only the unparsed tail, so a
/// client streaming a multi-gigabyte stream holds one chunk at a time. A
/// malformed prefix puts the cursor into a terminal error state: all
/// further polls return the same error (a transport should drop the
/// connection).
#[derive(Debug)]
pub struct WireCursor {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed events.
    consumed: usize,
    manifest: Option<StreamManifest>,
    next_frame: u32,
    failed: Option<WireError>,
}

impl Default for WireCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCursor {
    /// A cursor expecting the start of a stream.
    pub fn new() -> WireCursor {
        WireCursor {
            buf: Vec::new(),
            consumed: 0,
            manifest: None,
            next_frame: 0,
            failed: None,
        }
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: drop the consumed prefix so the buffer
        // tracks the unparsed tail, not the whole stream.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The manifest, once the stream head has parsed.
    pub fn manifest(&self) -> Option<&StreamManifest> {
        self.manifest.as_ref()
    }

    /// `true` once every chunk the manifest promised has been produced.
    pub fn is_complete(&self) -> bool {
        self.manifest
            .as_ref()
            .is_some_and(|m| self.next_frame >= m.frame_count)
    }

    /// Parses the next event out of the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed (or the stream is
    /// complete); `Err` is terminal for this cursor.
    pub fn poll(&mut self) -> Result<Option<WireEvent>, WireError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.try_poll() {
            Ok(ev) => Ok(ev),
            Err(e) => {
                // Incomplete input is not failure — wait for more bytes.
                if let WireError::Truncated { .. } = e {
                    return Ok(None);
                }
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    fn try_poll(&mut self) -> Result<Option<WireEvent>, WireError> {
        let tail = &self.buf[self.consumed..];
        if self.manifest.is_none() {
            let (manifest, head_len) = parse_head(tail)?;
            self.consumed += head_len;
            self.manifest = Some(manifest.clone());
            return Ok(Some(WireEvent::Manifest(manifest)));
        }
        let manifest = self.manifest.as_ref().unwrap();
        if self.next_frame >= manifest.frame_count {
            if !tail.is_empty() {
                return Err(WireError::Inconsistent("trailing bytes after chunk area"));
            }
            return Ok(None);
        }
        let frame = self.next_frame;
        let expect = &manifest.entries[frame as usize];
        let payload = checked_chunk(tail, frame, expect)?;
        if fnv1a(payload) != expect.checksum {
            return Err(WireError::ChecksumMismatch { frame });
        }
        self.consumed += CHUNK_HEADER_LEN + payload.len();
        self.next_frame += 1;
        Ok(Some(WireEvent::Chunk {
            frame,
            payload: payload.to_vec(),
        }))
    }
}

/// Parses a stream head — header, then the manifest its `manifest_len`
/// brackets — from the front of `bytes`. Returns the manifest and the
/// head's length in bytes, where the chunk area begins.
fn parse_head(bytes: &[u8]) -> Result<(StreamManifest, usize), WireError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "stream magic")? != STREAM_MAGIC {
        return Err(WireError::BadMagic { what: "stream" });
    }
    let version = r.u16("stream version")?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            expected: WIRE_VERSION,
        });
    }
    let flags = r.u16("stream flags")?;
    if flags & !STREAM_FLAG_LAYERED != 0 {
        return Err(WireError::Inconsistent("unknown stream flags"));
    }
    let manifest_len = r.u32("manifest_len")? as usize;
    if manifest_len > MAX_MANIFEST_LEN {
        return Err(WireError::Oversized {
            what: "manifest_len",
            got: manifest_len as u64,
            max: MAX_MANIFEST_LEN as u64,
        });
    }
    let manifest = StreamManifest::decode_with_flags(r.take(manifest_len, "manifest")?, flags)?;
    Ok((manifest, STREAM_HEADER_LEN + manifest_len))
}

/// Reads the chunk at the front of `bytes` as frame `frame`'s: its header
/// must agree with the manifest `entry`. Returns the payload, not yet
/// hashed against the entry's checksum.
fn checked_chunk<'a>(
    bytes: &'a [u8],
    frame: u32,
    entry: &ChunkEntry,
) -> Result<&'a [u8], WireError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "chunk magic")? != CHUNK_MAGIC {
        return Err(WireError::BadMagic { what: "chunk" });
    }
    let idx = r.u32("chunk frame_idx")?;
    let len = r.u32("chunk payload_len")?;
    let checksum = r.u64("chunk checksum")?;
    if idx != frame || len != entry.len || checksum != entry.checksum {
        return Err(WireError::ManifestMismatch { frame });
    }
    r.take(len as usize, "chunk payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream(frames: usize) -> Vec<u8> {
        let mut w = StreamWriter::new(8, 6, 30);
        for i in 0..frames {
            let payload: Vec<u8> = (0..(40 + 13 * i)).map(|b| (b * 7 + i) as u8).collect();
            w.push_frame(&payload);
        }
        w.finish()
    }

    #[test]
    fn round_trip_reader() {
        let bytes = sample_stream(5);
        let r = StreamReader::parse(&bytes).unwrap();
        assert_eq!(r.manifest().frame_count, 5);
        assert_eq!(r.manifest().depth, 8);
        assert_eq!(r.manifest().gop_size, 30);
        r.validate_all().unwrap();
        for i in 0..5u32 {
            let p = r.chunk_payload(i).unwrap();
            assert_eq!(p.len(), 40 + 13 * i as usize);
        }
        assert!(matches!(
            r.chunk_payload(5),
            Err(WireError::NoSuchFrame { frame: 5, .. })
        ));
    }

    #[test]
    fn empty_stream_round_trips() {
        let bytes = StreamWriter::new(10, 6, 30).finish();
        let r = StreamReader::parse(&bytes).unwrap();
        assert_eq!(r.manifest().frame_count, 0);
        r.validate_all().unwrap();
    }

    #[test]
    fn cursor_handles_byte_at_a_time_delivery() {
        let bytes = sample_stream(3);
        let mut c = WireCursor::new();
        let mut events = Vec::new();
        for b in &bytes {
            c.feed(std::slice::from_ref(b));
            while let Some(ev) = c.poll().unwrap() {
                events.push(ev);
            }
        }
        assert_eq!(events.len(), 4); // manifest + 3 chunks
        assert!(matches!(&events[0], WireEvent::Manifest(m) if m.frame_count == 3));
        assert!(c.is_complete());
        assert_eq!(c.poll().unwrap(), None);
    }

    #[test]
    fn cursor_rejects_tampered_chunk() {
        let mut bytes = sample_stream(2);
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // flip a payload bit in the last chunk
        let mut c = WireCursor::new();
        c.feed(&bytes);
        assert!(matches!(c.poll(), Ok(Some(WireEvent::Manifest(_)))));
        assert!(matches!(
            c.poll(),
            Ok(Some(WireEvent::Chunk { frame: 0, .. }))
        ));
        assert_eq!(c.poll(), Err(WireError::ChecksumMismatch { frame: 1 }));
        // The error is terminal.
        assert_eq!(c.poll(), Err(WireError::ChecksumMismatch { frame: 1 }));
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let bytes = sample_stream(1);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            StreamReader::parse(&bad).unwrap_err(),
            WireError::BadMagic { what: "stream" }
        );
        let mut bad = bytes.clone();
        bad[4] = 99; // version
        assert!(matches!(
            StreamReader::parse(&bad).unwrap_err(),
            WireError::VersionMismatch { got: 99, .. }
        ));
        let mut bad = bytes;
        bad[6] = 1; // reserved flags
        assert!(matches!(
            StreamReader::parse(&bad).unwrap_err(),
            WireError::Inconsistent(_)
        ));
    }

    #[test]
    fn layered_stream_round_trips_with_flagged_manifest() {
        let mut w = StreamWriter::new_layered(10, 6, 30, 3);
        for f in 0..4usize {
            let layers: Vec<Vec<u8>> = (0..3)
                .map(|l| (0..(20 + 5 * l + f)).map(|b| (b * 3 + l) as u8).collect())
                .collect();
            w.push_layered_frame(&layers);
        }
        let bytes = w.finish();
        // The header carries the layered flag.
        assert_eq!(
            u16::from_le_bytes(bytes[6..8].try_into().unwrap()),
            STREAM_FLAG_LAYERED
        );
        let r = StreamReader::parse(&bytes).unwrap();
        let m = r.manifest();
        assert!(m.is_layered());
        assert_eq!(m.layers_per_frame, 3);
        assert_eq!(m.frame_count, 12);
        assert_eq!(m.video_frame_count(), 4);
        r.validate_all().unwrap();
        // Chunk addressing: frame 2, layer 1 lives at slot 7.
        assert_eq!(r.chunk_payload(2 * 3 + 1).unwrap().len(), 27);
        // The incremental cursor accepts it too.
        let mut c = WireCursor::new();
        c.feed(&bytes);
        let mut chunks = 0;
        while let Some(ev) = c.poll().unwrap() {
            if matches!(ev, WireEvent::Chunk { .. }) {
                chunks += 1;
            }
        }
        assert_eq!(chunks, 12);
        assert!(c.is_complete());
    }

    #[test]
    fn legacy_streams_are_byte_identical_and_flagless() {
        let bytes = sample_stream(3);
        assert_eq!(u16::from_le_bytes(bytes[6..8].try_into().unwrap()), 0);
        let r = StreamReader::parse(&bytes).unwrap();
        assert!(!r.manifest().is_layered());
        assert_eq!(r.manifest().layers_per_frame, 1);
        assert_eq!(r.manifest().video_frame_count(), 3);
        // Unknown flag bits (beyond LAYERED) still rejected.
        let mut bad = bytes.clone();
        bad[6] = 0x2;
        assert!(matches!(
            StreamReader::parse(&bad).unwrap_err(),
            WireError::Inconsistent(_)
        ));
    }

    #[test]
    fn layered_manifest_inconsistencies_are_rejected() {
        let mut w = StreamWriter::new_layered(10, 6, 30, 2);
        w.push_layered_frame(&[b"base".as_slice(), b"enh".as_slice()]);
        let good = w.finish();
        // Flip the layered flag off: the reader now sees a manifest one
        // byte too long for its frame_count — inconsistent, not a panic.
        let mut bad = good.clone();
        bad[6] = 0;
        assert!(StreamReader::parse(&bad).is_err());
        // Corrupt layers_per_frame to 0/1: rejected outright.
        for l in [0u8, 1] {
            let mut bad = good.clone();
            // layers byte sits right after the fixed manifest prefix.
            bad[STREAM_HEADER_LEN + MANIFEST_FIXED_LEN] = l;
            assert!(matches!(
                StreamReader::parse(&bad).unwrap_err(),
                WireError::Inconsistent(_)
            ));
        }
    }

    #[test]
    fn hostile_frame_count_cannot_drive_allocation() {
        // A 14-byte head claiming 2^32-1 frames must fail fast on the
        // frame cap, not attempt a gigabyte entry-table allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        let manifest_len = (MANIFEST_FIXED_LEN) as u32;
        bytes.extend_from_slice(&manifest_len.to_le_bytes());
        bytes.push(8); // depth
        bytes.push(6); // color_bits
        bytes.extend_from_slice(&30u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // frame_count
        assert!(matches!(
            StreamReader::parse(&bytes).unwrap_err(),
            WireError::Oversized {
                what: "frame_count",
                ..
            }
        ));
    }

    #[test]
    fn both_readers_refuse_an_oversized_manifest_len() {
        // No stream of at most MAX_FRAMES chunks has a longer manifest, so
        // the head is hostile, not short: neither reader waits for it.
        let mut bytes = sample_stream(1);
        let too_long = MAX_MANIFEST_LEN as u32 + 1;
        bytes[8..STREAM_HEADER_LEN].copy_from_slice(&too_long.to_le_bytes());
        let oversized = WireError::Oversized {
            what: "manifest_len",
            got: too_long as u64,
            max: MAX_MANIFEST_LEN as u64,
        };
        assert_eq!(StreamReader::parse(&bytes).unwrap_err(), oversized);
        let mut c = WireCursor::new();
        c.feed(&bytes);
        assert_eq!(c.poll(), Err(oversized));
    }

    #[test]
    fn every_truncation_of_the_head_is_graceful() {
        let bytes = sample_stream(2);
        for cut in 0..bytes.len() {
            let r = StreamReader::parse(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} parsed");
        }
    }
}
