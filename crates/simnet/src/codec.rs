//! Compact binary wire format and length-delimited framing.
//!
//! The codec implements the workspace serde data model
//! ([`serde::Serializer`] / [`serde::Deserializer`]) over a flat byte
//! buffer:
//!
//! * integers are fixed-width little-endian (`u8` as one byte, every
//!   other width as 8, floats as their IEEE-754 bit patterns);
//! * strings and sequences carry a `u32` length prefix;
//! * struct and field names are *not* encoded — both ends agree on the
//!   schema, which is exactly the property the derived `Deserialize`
//!   impls guarantee;
//! * enum variants are a `u32` index, validated against the expected
//!   variant table on decode;
//! * options are a one-byte presence flag.
//!
//! On the wire each message is one *frame*: a `u32` little-endian payload
//! length followed by the payload, capped at [`MAX_FRAME`] so a corrupt or
//! hostile length prefix cannot trigger an unbounded allocation.
//!
//! A frame that carries model vectors is mostly `f64` sequences. For such
//! frames the codec tells a sequence of at least a size the caller names —
//! a *run* — from the rest of the frame, its *meta* bytes, so that the
//! wire copy of a run can be its only copy:
//!
//! * on send, [`frame_pieces`] appends a frame from any byte offset on to
//!   the pieces of a vectored write: meta bytes staged into a buffer
//!   that the frames of one write share, runs borrowed from the value;
//! * on receive, a [`BulkFrame`] locates each run from the meta bytes in
//!   so far, lands the run's bytes in a vector drawn from a [`Pool`], and
//!   decodes the frame once, at its end, from its meta bytes plus its
//!   filled runs.
//!
//! Both carry exactly the bytes [`to_frame_bytes`] writes.

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io::{self, Read, Write};
use std::ops::Range;

/// Hard upper bound on a frame payload (64 MiB). The largest legitimate
/// message in this workspace is a `ShareBlock` of CNN-sized weight
/// partitions, well under this.
pub const MAX_FRAME: usize = 64 << 20;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Eof,
    /// The value decoded, but bytes were left over.
    TrailingBytes,
    /// An enum variant index outside the expected table.
    InvalidVariant,
    /// Data parsed but is semantically invalid (bad bool byte, non-UTF-8
    /// string, out-of-range integer, ...).
    Invalid(&'static str),
    /// A length prefix claims more bytes than the input still holds — a
    /// truncated or hostile frame, rejected before any allocation or
    /// element loop is sized from it.
    LengthOverrun {
        /// The declared string/sequence length.
        declared: usize,
        /// The bytes actually remaining in the input.
        available: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
            CodecError::InvalidVariant => write!(f, "invalid enum variant index"),
            CodecError::Invalid(msg) => write!(f, "invalid data: {msg}"),
            CodecError::LengthOverrun {
                declared,
                available,
            } => write!(
                f,
                "length prefix declares {declared} bytes but only {available} remain"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes `value` into a fresh byte buffer.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    encode_with_prefix(value, 0).unwrap_or_default()
}

/// Deserializes one `T` from `bytes`, requiring the value to consume the
/// whole buffer.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    from_bytes_into(bytes, &mut Vec::with_capacity)
}

/// [`from_bytes`], decoding each `f64` sequence into the storage
/// `storage` gives for its length. Whatever that storage held is
/// overwritten; storage is asked for only once the sequence's bytes are
/// known to be there.
pub fn from_bytes_into<T: Deserialize>(
    bytes: &[u8],
    storage: &mut dyn FnMut(usize) -> Vec<f64>,
) -> Result<T, CodecError> {
    let mut de = BinDeserializer::new(bytes, &mut [], bytes.len(), storage, None);
    let value = T::deserialize(&mut de)?;
    if de.pos != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
}

/// Encodes `value` behind `prefix` zero bytes (room for a frame header)
/// into a buffer allocated once at its exact final size: a counting pass
/// over the same serializer sizes it, so a 20 MB share block costs one
/// allocation and one copy, like a 20-byte control message.
///
/// Encoding fails only for a sequence longer than `u32::MAX` elements,
/// which could never fit inside a MAX_FRAME-capped frame anyway; `None`
/// lets the failure surface as a framing / decode error instead of a
/// crash in the send path.
fn encode_with_prefix<T: Serialize + ?Sized>(value: &T, prefix: usize) -> Option<Vec<u8>> {
    let mut count = BinSerializer { out: ByteCount(0) };
    if value.serialize(&mut count).is_err() {
        debug_assert!(false, "unencodable value: sequence longer than u32::MAX");
        return None;
    }
    let mut out = Vec::with_capacity(prefix.checked_add(count.out.0)?);
    out.resize(prefix, 0);
    let mut ser = BinSerializer { out };
    value.serialize(&mut ser).ok()?;
    Some(ser.out)
}

/// Why serialization into a [`Sink`] ended before the value did.
#[derive(Debug)]
enum Halt {
    /// A sequence longer than `u32::MAX` elements: the value has no frame.
    Unencodable,
    /// The sink holds all it can for now (a write batch's pieces): an
    /// end, not a failure.
    Full,
}

/// Where [`BinSerializer`] puts its bytes: a growing buffer, a counter
/// that only sizes one, or the pieces of a vectored write. `'v` is the
/// lifetime of the value serialized.
trait Sink<'v> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt>;
    /// A run of `f64`s as consecutive little-endian bit patterns.
    fn put_f64s(&mut self, v: &'v [f64]) -> Result<(), Halt>;
}

impl Sink<'_> for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn put_f64s(&mut self, v: &[f64]) -> Result<(), Halt> {
        // Staged through a stack block so the buffer is written once, by
        // `extend_from_slice`, with no zero-fill pass before it.
        let mut block = [[0u8; 8]; 512];
        self.reserve(v.len().saturating_mul(8));
        for chunk in v.chunks(block.len()) {
            let staged = block.get_mut(..chunk.len()).unwrap_or_default();
            for (dst, x) in staged.iter_mut().zip(chunk) {
                *dst = x.to_le_bytes();
            }
            self.extend_from_slice(staged.as_flattened());
        }
        Ok(())
    }
}

struct ByteCount(usize);

impl Sink<'_> for ByteCount {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt> {
        self.0 = self.0.saturating_add(bytes.len());
        Ok(())
    }

    fn put_f64s(&mut self, v: &[f64]) -> Result<(), Halt> {
        self.0 = self.0.saturating_add(v.len().saturating_mul(8));
        Ok(())
    }
}

/// One piece of a frame as [`frame_pieces`] gives it.
#[derive(Debug, Clone, PartialEq)]
pub enum Piece<'v> {
    /// Bytes staged into the caller's buffer, at this range of it.
    Staged(Range<usize>),
    /// A run of the value, from its byte at this offset on. On a
    /// little-endian host a run's memory is its wire bytes.
    Run(&'v [f64], usize),
}

/// Most pieces a [`PieceList`] holds: the slices of one vectored write.
pub const MAX_PIECES: usize = 16;

/// The pieces of one vectored write, at most the `max` it was made with,
/// in a list of fixed size that [`frame_pieces`] appends to: offering
/// frames allocates nothing.
#[derive(Debug)]
pub struct PieceList<'v> {
    list: [Piece<'v>; MAX_PIECES],
    len: usize,
    max: usize,
}

impl<'v> PieceList<'v> {
    /// An empty list of at most `max` pieces (at most [`MAX_PIECES`]).
    pub fn new(max: usize) -> Self {
        PieceList {
            list: std::array::from_fn(|_| Piece::Staged(0..0)),
            len: 0,
            max: max.min(MAX_PIECES),
        }
    }

    /// The pieces appended so far.
    pub fn as_slice(&self) -> &[Piece<'v>] {
        self.list.get(..self.len).unwrap_or_default()
    }

    fn last_mut(&mut self) -> Option<&mut Piece<'v>> {
        self.list.get_mut(self.len.checked_sub(1)?)
    }

    /// Appends `piece`, unless the list is full.
    fn push(&mut self, piece: Piece<'v>) -> bool {
        if self.len >= self.max {
            return false;
        }
        let Some(slot) = self.list.get_mut(self.len) else {
            return false;
        };
        *slot = piece;
        self.len += 1;
        true
    }
}

impl<'v> IntoIterator for PieceList<'v> {
    type Item = Piece<'v>;
    type IntoIter = std::iter::Take<std::array::IntoIter<Piece<'v>, MAX_PIECES>>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.into_iter().take(self.len)
    }
}

/// The sink behind [`frame_pieces`]: appends what is put at stream offset
/// `from` and after to `pieces`, runs of at least `run_min` bytes as
/// borrowed pieces and everything else staged, extending a staged piece
/// that ends the list, until the list is full or `cap` bytes are staged.
/// Then it halts serialization.
struct PieceSink<'v, 'b> {
    /// Stream offset of the next byte put.
    pos: usize,
    from: usize,
    /// Stream offset just past the last byte kept.
    end: usize,
    run_min: usize,
    staged: &'b mut Vec<u8>,
    cap: usize,
    pieces: &'b mut PieceList<'v>,
    /// Set once a byte had to be left out: nothing after it is kept.
    full: bool,
}

impl<'v> PieceSink<'v, '_> {
    /// Halts serialization once the sink is full.
    fn go_on(&self) -> Result<(), Halt> {
        if self.full {
            return Err(Halt::Full);
        }
        Ok(())
    }

    /// Appends `piece`, unless the list is full.
    fn open(&mut self, piece: Piece<'v>) -> Result<(), Halt> {
        self.full |= !self.pieces.push(piece);
        self.go_on()
    }
}

impl<'v> Sink<'v> for PieceSink<'v, '_> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt> {
        self.go_on()?;
        let at = self.pos;
        self.pos = at.saturating_add(bytes.len());
        if self.pos <= self.from {
            return Ok(());
        }
        let bytes = bytes
            .get(self.from.saturating_sub(at)..)
            .unwrap_or_default();
        let room = self.cap.saturating_sub(self.staged.len());
        self.full = room == 0;
        self.go_on()?;
        if !matches!(self.pieces.last_mut(), Some(Piece::Staged(_))) {
            let at = self.staged.len();
            self.open(Piece::Staged(at..at))?;
        }
        let keep = bytes.get(..room).unwrap_or(bytes);
        self.staged.extend_from_slice(keep);
        if let Some(Piece::Staged(range)) = self.pieces.last_mut() {
            range.end = self.staged.len();
        }
        self.end = self.pos.saturating_sub(bytes.len()) + keep.len();
        self.full = keep.len() < bytes.len();
        self.go_on()
    }

    fn put_f64s(&mut self, v: &'v [f64]) -> Result<(), Halt> {
        let len = v.len().saturating_mul(8);
        let skip = self.from.saturating_sub(self.pos);
        if len == 0 || len < self.run_min {
            // Staged from the first element `from` reaches, a block of
            // elements at a time.
            let first = (skip / 8).min(v.len());
            self.pos = self.pos.saturating_add(first * 8);
            let mut block = [[0u8; 8]; 512];
            for chunk in v.get(first..).unwrap_or_default().chunks(block.len()) {
                let staged = block.get_mut(..chunk.len()).unwrap_or_default();
                for (dst, x) in staged.iter_mut().zip(chunk) {
                    *dst = x.to_le_bytes();
                }
                self.put(staged.as_flattened())?;
            }
            return Ok(());
        }
        self.go_on()?;
        self.pos = self.pos.saturating_add(len);
        if skip < len {
            self.open(Piece::Run(v, skip))?;
            self.end = self.pos;
        }
        Ok(())
    }
}

/// Event-stream serializer writing the compact binary format.
struct BinSerializer<S> {
    out: S,
}

impl<'v, S: Sink<'v>> Serializer<'v> for BinSerializer<S> {
    type Error = Halt;

    fn ser_bool(&mut self, v: bool) -> Result<(), Halt> {
        self.out.put(&[v as u8])
    }
    fn ser_u8(&mut self, v: u8) -> Result<(), Halt> {
        self.out.put(&[v])
    }
    fn ser_u64(&mut self, v: u64) -> Result<(), Halt> {
        self.out.put(&v.to_le_bytes())
    }
    fn ser_i64(&mut self, v: i64) -> Result<(), Halt> {
        self.out.put(&v.to_le_bytes())
    }
    fn ser_f32(&mut self, v: f32) -> Result<(), Halt> {
        self.out.put(&v.to_le_bytes())
    }
    fn ser_f64(&mut self, v: f64) -> Result<(), Halt> {
        self.out.put(&v.to_le_bytes())
    }
    fn ser_str(&mut self, v: &str) -> Result<(), Halt> {
        self.write_len(v.len())?;
        self.out.put(v.as_bytes())
    }

    fn begin_seq(&mut self, len: usize) -> Result<(), Halt> {
        self.write_len(len)
    }
    fn seq_element(&mut self) -> Result<(), Halt> {
        Ok(())
    }
    fn end_seq(&mut self) -> Result<(), Halt> {
        Ok(())
    }
    /// The bulk path of a model vector: prefix, then every element's bit
    /// pattern in one copy — byte for byte what the element-wise events
    /// produce.
    fn ser_f64_seq(&mut self, v: &'v [f64]) -> Result<(), Halt> {
        self.write_len(v.len())?;
        self.out.put_f64s(v)
    }
    fn ser_u8_seq(&mut self, v: &'v [u8]) -> Result<(), Halt> {
        self.write_len(v.len())?;
        self.out.put(v)
    }

    fn begin_struct(&mut self, _name: &'static str, _len: usize) -> Result<(), Halt> {
        Ok(())
    }
    fn field(&mut self, _name: &'static str) -> Result<(), Halt> {
        Ok(())
    }
    fn end_struct(&mut self) -> Result<(), Halt> {
        Ok(())
    }

    fn begin_variant(
        &mut self,
        _name: &'static str,
        index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<(), Halt> {
        self.out.put(&index.to_le_bytes())
    }
    fn end_variant(&mut self) -> Result<(), Halt> {
        Ok(())
    }

    fn ser_none(&mut self) -> Result<(), Halt> {
        self.out.put(&[0])
    }
    fn begin_some(&mut self) -> Result<(), Halt> {
        self.out.put(&[1])
    }
}

impl<'v, S: Sink<'v>> BinSerializer<S> {
    fn write_len(&mut self, len: usize) -> Result<(), Halt> {
        let len = u32::try_from(len).map_err(|_| Halt::Unencodable)?;
        self.out.put(&len.to_le_bytes())
    }
}

/// A run cut out of a [`BulkFrame`]'s meta bytes.
#[derive(Debug)]
struct Run {
    /// Offset of the meta bytes at which the run's elements sit on the
    /// wire: just behind its length prefix.
    at: usize,
    values: Vec<f64>,
    /// Bytes of `values` received.
    filled: usize,
}

/// Where a probe over a frame still being received stopped.
enum Stop {
    /// At the end of the bytes in so far, in the middle of the frame.
    Short,
    /// At a run of `n` elements whose bytes start at meta offset `at` and
    /// are not all in.
    Run { at: usize, n: usize },
}

/// A walk over what is in of a frame that locates its next run.
struct Probe {
    run_min: usize,
    /// Meta bytes walked, plus those of a byte sequence not all in.
    walked: usize,
    stop: Option<Stop>,
}

/// Event-stream deserializer reading the compact binary format: from one
/// buffer, or from a frame's meta bytes with its runs cut out of them.
struct BinDeserializer<'a> {
    /// The bytes read, less the runs cut out of them.
    bytes: &'a [u8],
    pos: usize,
    /// The runs cut out, in wire order: each is the `f64` sequence whose
    /// elements sit at its offset of `bytes`.
    runs: &'a mut [Run],
    /// Runs already read, and their bytes.
    next_run: usize,
    run_bytes: usize,
    /// Bytes of the whole input, runs included: no length may claim more
    /// than what is left of it.
    total: usize,
    /// Where `f64` sequences in `bytes` are decoded into (see
    /// [`from_bytes_into`]).
    storage: &'a mut dyn FnMut(usize) -> Vec<f64>,
    /// Set while locating the runs of a frame still being received: the
    /// walk then builds no `f64` sequence and stops at the first run that
    /// is not all in, or at the end of the bytes in so far.
    probe: Option<&'a mut Probe>,
}

impl<'a> BinDeserializer<'a> {
    fn new(
        bytes: &'a [u8],
        runs: &'a mut [Run],
        total: usize,
        storage: &'a mut dyn FnMut(usize) -> Vec<f64>,
        probe: Option<&'a mut Probe>,
    ) -> Self {
        BinDeserializer {
            bytes,
            pos: 0,
            runs,
            next_run: 0,
            run_bytes: 0,
            total,
            storage,
            probe,
        }
    }

    /// Input bytes after the read position, runs included.
    fn left(&self) -> usize {
        self.total
            .saturating_sub(self.pos.saturating_add(self.run_bytes))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Eof)?;
        if self.runs.get(self.next_run).is_some_and(|run| run.at < end) {
            return Err(CodecError::Invalid("bytes read across an f64 run"));
        }
        let Some(slice) = self.bytes.get(self.pos..end) else {
            // Past the bytes in so far but inside the frame: a probe waits
            // for more.
            let within = n <= self.left();
            if let Some(probe) = self.probe.as_deref_mut().filter(|_| within) {
                probe.stop = Some(Stop::Short);
            }
            return Err(CodecError::Eof);
        };
        self.pos = end;
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.walked = probe.walked.saturating_add(n);
        }
        Ok(slice)
    }

    /// Takes exactly `N` bytes as an array; the fixed-width integer and
    /// float decoders build on this so no `try_into().unwrap()` sits in
    /// the hostile-byte path.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let slice = self.take(N)?;
        <[u8; N]>::try_from(slice).map_err(|_| CodecError::Eof)
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let raw = u32::from_le_bytes(self.take_arr()?) as usize;
        // Every string byte and sequence element costs at least one input
        // byte, so a declared length beyond the remaining input can never
        // complete. Rejecting it here keeps hostile prefixes from sizing
        // allocations or element loops.
        let available = self.left();
        if raw > available {
            return Err(CodecError::LengthOverrun {
                declared: raw,
                available,
            });
        }
        Ok(raw)
    }
}

impl Deserializer for BinDeserializer<'_> {
    type Error = CodecError;

    fn de_bool(&mut self) -> Result<bool, CodecError> {
        let [byte] = self.take_arr()?;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte")),
        }
    }
    fn de_u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.take_arr()?))
    }
    fn de_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }
    fn de_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_arr()?))
    }
    fn de_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.take_arr()?))
    }
    fn de_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take_arr()?))
    }
    fn de_string(&mut self) -> Result<String, CodecError> {
        let len = self.read_len()?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Invalid("utf-8"))
    }

    fn begin_seq(&mut self) -> Result<usize, CodecError> {
        self.read_len()
    }
    fn seq_element(&mut self) -> Result<(), CodecError> {
        Ok(())
    }
    fn end_seq(&mut self) -> Result<(), CodecError> {
        Ok(())
    }
    fn de_u8_seq(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.read_len()?;
        let in_bytes = self.pos.saturating_add(n) <= self.bytes.len();
        let Some(probe) = self.probe.as_deref_mut() else {
            return Ok(self.take(n)?.to_vec());
        };
        // A probe only locates runs, and a byte sequence holds none: its
        // bytes not in yet are meta bytes to come, counted as walked so
        // that they spend the probe budget and the reads that bring them
        // in step a whole read chunk, with no probe after each.
        if !in_bytes {
            probe.walked = probe.walked.saturating_add(n);
        }
        self.take(n)?;
        Ok(Vec::new())
    }
    /// The bulk path of a model vector. The declared count is checked
    /// against the remaining input twice before anything is allocated —
    /// `read_len` (one byte per element at least) and then the full
    /// `8 * n` bytes — so a hostile prefix sizes nothing and draws no
    /// storage. A run cut out of the bytes is handed over as it is.
    fn de_f64_seq(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.read_len()?;
        let nbytes = n.checked_mul(8).ok_or(CodecError::Eof)?;
        let (pos, probing) = (self.pos, self.probe.is_some());
        if let Some(run) = self.runs.get_mut(self.next_run).filter(|run| run.at == pos) {
            if run.values.len() != n || run.filled != nbytes {
                return Err(CodecError::Invalid("f64 run out of place"));
            }
            let values = if probing {
                Vec::new()
            } else {
                std::mem::take(&mut run.values)
            };
            self.next_run += 1;
            self.run_bytes = self.run_bytes.saturating_add(nbytes);
            return Ok(values);
        }
        if nbytes > self.left() {
            return Err(CodecError::Eof);
        }
        let in_bytes = pos.saturating_add(nbytes) <= self.bytes.len();
        if let Some(probe) = self.probe.as_deref_mut() {
            if nbytes >= probe.run_min && !in_bytes {
                probe.stop = Some(Stop::Run { at: pos, n });
                return Err(CodecError::Eof);
            }
            self.take(nbytes)?;
            return Ok(Vec::new());
        }
        let (elems, _) = self.take(nbytes)?.as_chunks::<8>();
        let values = elems.iter().map(|b| f64::from_le_bytes(*b));
        let mut v = (self.storage)(n);
        v.clear();
        v.extend(values);
        Ok(v)
    }

    fn begin_struct(&mut self, _name: &'static str, _len: usize) -> Result<(), CodecError> {
        Ok(())
    }
    fn field(&mut self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn end_struct(&mut self) -> Result<(), CodecError> {
        Ok(())
    }

    fn begin_variant(
        &mut self,
        _name: &'static str,
        variants: &'static [&'static str],
    ) -> Result<u32, CodecError> {
        let index = u32::from_le_bytes(self.take_arr()?);
        if (index as usize) < variants.len() {
            Ok(index)
        } else {
            Err(CodecError::InvalidVariant)
        }
    }
    fn end_variant(&mut self) -> Result<(), CodecError> {
        Ok(())
    }

    fn de_option(&mut self) -> Result<bool, CodecError> {
        let [byte] = self.take_arr()?;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("option byte")),
        }
    }

    fn invalid(&mut self, msg: &'static str) -> CodecError {
        CodecError::Invalid(msg)
    }
}

/// Wraps an already-encoded payload into wire-frame form: the 4-byte
/// little-endian length prefix followed by the payload, in one buffer.
/// Returns `None` for payloads over [`MAX_FRAME`].
pub fn frame_bytes(payload: &[u8]) -> Option<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return None;
    }
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    Some(framed)
}

/// Serializes `value` directly into wire-frame form (length prefix +
/// payload) in a single exact-size allocation. The reactor does not: it
/// writes every frame from its value, piece by piece with
/// [`frame_pieces`], which yields the same bytes. Returns `None` when the
/// value cannot be encoded or exceeds [`MAX_FRAME`].
pub fn to_frame_bytes<T: Serialize + ?Sized>(value: &T) -> Option<Vec<u8>> {
    let mut framed = encode_with_prefix(value, 4)?;
    let len = framed.len().checked_sub(4)?;
    if len > MAX_FRAME {
        return None;
    }
    let prefix = (len as u32).to_le_bytes();
    framed.get_mut(..4)?.copy_from_slice(&prefix);
    Some(framed)
}

/// Length of `value`'s wire frame, its 4-byte prefix included, counted
/// without encoding it. `None` exactly when [`to_frame_bytes`] would
/// return `None`.
pub fn frame_len<T: Serialize + ?Sized>(value: &T) -> Option<usize> {
    let mut count = BinSerializer { out: ByteCount(0) };
    value.serialize(&mut count).ok()?;
    let len = count.out.0;
    (len <= MAX_FRAME).then_some(len + 4)
}

/// Appends bytes `from..` of `value`'s wire frame, `frame_len` long as
/// [`frame_len`] counted it, to `pieces`, for one vectored write: each run
/// of at least `run_min` bytes borrowed from `value`, every other byte
/// appended to `staged`, into the staged piece that ends the list if
/// there is one. It stops once the list is full or `staged` holds
/// `stage_cap` bytes, wherever that falls, inside an integer or an `f64`
/// too, and serialization ends there. Returns the frame offset the
/// appended pieces reach: `frame_len` if they hold the frame to its end,
/// `from` if nothing could be appended. Concatenated, the appended pieces
/// are the bytes `to_frame_bytes(value)` holds from `from` on, as far as
/// they go.
pub fn frame_pieces<'v, T: Serialize + ?Sized>(
    value: &'v T,
    frame_len: usize,
    from: usize,
    run_min: usize,
    staged: &mut Vec<u8>,
    stage_cap: usize,
    pieces: &mut PieceList<'v>,
) -> usize {
    let mut ser = BinSerializer {
        out: PieceSink {
            pos: 0,
            from,
            end: from,
            run_min,
            staged,
            cap: stage_cap,
            pieces,
            full: false,
        },
    };
    let prefix = u32::try_from(frame_len.saturating_sub(4)).unwrap_or(u32::MAX);
    let halt = match ser.out.put(&prefix.to_le_bytes()) {
        Ok(()) => value.serialize(&mut ser).err(),
        Err(halt) => Some(halt),
    };
    if let Some(Halt::Unencodable) = halt {
        debug_assert!(false, "unencodable value: sequence longer than u32::MAX");
    }
    ser.out.end
}

/// Writes `payload` as one length-delimited frame. Prefix and payload go
/// out in a single `write_all`, so a `TCP_NODELAY` socket emits one
/// segment per frame instead of two.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let Some(framed) = frame_bytes(payload) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    };
    w.write_all(&framed)?;
    w.flush()
}

/// Incremental frame parser for non-blocking / timeout-driven readers.
///
/// [`FrameBuffer::extend`] appends raw received bytes;
/// [`FrameBuffer::next_frame`] yields complete frames as they become
/// available, preserving partial frames across reads so a read timeout in
/// the middle of a frame never desynchronizes the stream.
///
/// Frames are handed out in place, behind a read cursor, so popping the
/// `k` frames of one read costs `O(1)` each and moves no bytes; consumed
/// space is reclaimed by the next `extend`, which moves at most as many
/// bytes as were consumed since the last reclaim.
///
/// A reader that receives large frames elsewhere, as [`BulkFrame`]s, takes
/// such a frame's header and first bytes out with
/// [`FrameBuffer::next_bulk`], and sizes the buffer with
/// [`FrameBuffer::extend_sized`] so it never makes room for one.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor: everything before it was already handed out.
    head: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.extend_sized(bytes, MAX_FRAME);
    }

    /// Appends freshly received bytes. Once the next frame's header is in,
    /// room for that whole frame is made in one step if it is at most
    /// `whole` bytes long, instead of doubling up to it read by read.
    pub fn extend_sized(&mut self, bytes: &[u8], whole: usize) {
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let held = self.buf.len() - self.head;
        // The MAX_FRAME cap bounds what a hostile header can reserve.
        let frame = (self.pending_len_with(bytes)).filter(|&len| len <= whole.min(MAX_FRAME));
        let room = frame.map_or(0, |len| 4 + len).max(held + bytes.len());
        self.buf.reserve(room - held);
        self.buf.extend_from_slice(bytes);
    }

    /// Whether every byte received has been handed out: no partial frame
    /// is pending.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Payload length declared by the next frame's header, reading past
    /// what is buffered into `bytes` when the header is split.
    fn pending_len_with(&self, bytes: &[u8]) -> Option<usize> {
        let held = self.buf.get(self.head..).unwrap_or_default();
        let mut header = held.iter().chain(bytes).copied();
        let header = [
            header.next()?,
            header.next()?,
            header.next()?,
            header.next()?,
        ];
        Some(u32::from_le_bytes(header) as usize)
    }

    /// Pops the next complete frame, if one is buffered. The payload is
    /// borrowed from the buffer and stays valid until the next `extend`.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let Some(len) = self.pending_len_with(&[]) else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(CodecError::Invalid("frame exceeds MAX_FRAME"));
        }
        let start = self.head + 4;
        let Some(payload) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        self.head = start + len;
        Ok(Some(payload))
    }

    /// Pops the header of the next frame if it declares more than `bulk`
    /// payload bytes (and no more than [`MAX_FRAME`]), returning that
    /// length and the frame's bytes the buffer holds, for the caller to
    /// receive the rest elsewhere. Meant for when
    /// [`FrameBuffer::next_frame`] has nothing more.
    pub fn next_bulk(&mut self, bulk: usize) -> Option<(usize, &[u8])> {
        let len = self
            .pending_len_with(&[])
            .filter(|&len| len > bulk && len <= MAX_FRAME)?;
        let start = self.head + 4;
        let end = self.buf.len().min(start + len);
        let held = self.buf.get(start..end)?;
        self.head = end;
        Some((len, held))
    }
}

/// Bytes read into the meta buffer at a time while a run may start in
/// them: the run's first bytes that come along are copied into its vector,
/// so this bounds that copy.
const PROBE_STEP: usize = 4 << 10;

/// Where [`BulkFrame::receive`] lands the next bytes of its frame.
#[derive(Debug)]
pub enum Landing<'a> {
    /// Meta bytes, into this buffer, as many as come.
    Meta(&'a mut [u8]),
    /// Bytes of a run, into the memory of its elements from this byte on,
    /// as many as come: on a little-endian host that memory is the run's
    /// wire bytes.
    Run(&'a mut [f64], usize),
}

/// One frame received as its meta bytes plus its runs: `f64` sequences of
/// at least a size the receiver names, each received into a vector drawn
/// from a [`Pool<f64>`] for it, so that a run's wire copy is the decoded
/// vector.
///
/// Runs are located from the meta bytes in so far: after each read of
/// meta bytes a probe walks the frame from its start, skipping the runs
/// already filled, until it reaches the end of the bytes in or a run whose
/// bytes are not all in. That run's vector is drawn there, and the run's
/// bytes read in that came with the meta ones move into it. Decoding
/// happens once, when the last byte is in ([`BulkFrame::finish`]): runs
/// go into the value as they are, and a sequence under the size, or one
/// whose bytes all came in as meta, is decoded from the meta bytes like
/// any field.
#[derive(Debug)]
pub struct BulkFrame {
    /// Payload length.
    len: usize,
    /// Payload bytes received.
    got: usize,
    /// The meta bytes received are `meta[..meta_len]`; the buffer only
    /// grows, into zeroed storage, so no pass writes a byte a read is
    /// about to write.
    meta: Vec<u8>,
    meta_len: usize,
    runs: Vec<Run>,
    run_min: usize,
    /// Whether a run may still be located: cleared once a probe parsed
    /// the whole frame or found it malformed.
    locating: bool,
    /// Meta bytes the probes walked.
    parsed: usize,
    /// Bytes received into runs.
    in_runs: usize,
}

impl BulkFrame {
    /// A frame of `len` payload bytes, none received yet, whose `f64`
    /// sequences of at least `run_min` bytes are runs.
    pub fn new(len: usize, run_min: usize) -> BulkFrame {
        BulkFrame {
            len,
            got: 0,
            meta: Vec::new(),
            meta_len: 0,
            runs: Vec::new(),
            run_min,
            locating: true,
            parsed: 0,
            in_runs: 0,
        }
    }

    /// The frame's payload length.
    pub fn payload_len(&self) -> usize {
        self.len
    }

    /// Whether every byte of the frame is in.
    pub fn is_whole(&self) -> bool {
        self.got == self.len
    }

    /// Meta bytes walked so far to locate runs, a byte sequence not all
    /// in counted whole: less than the frame's length plus 4 KiB, however
    /// its bytes arrive.
    pub fn parsed(&self) -> usize {
        self.parsed
    }

    /// Receives the frame's next bytes: `read` is given where they land
    /// and returns how many it put there, which locates the next run once
    /// the run being filled is full. Decoding as `T` locates the runs.
    /// Returns what `read` returned; `Ok(0)` without calling it once the
    /// frame is whole.
    pub fn receive<T: Deserialize>(
        &mut self,
        vectors: &mut Pool<f64>,
        read: impl FnOnce(Landing<'_>) -> io::Result<usize>,
    ) -> io::Result<usize> {
        if self.is_whole() {
            return Ok(0);
        }
        let room = self.meta_room();
        let n = match self
            .runs
            .last_mut()
            .filter(|run| run.filled < 8 * run.values.len())
        {
            Some(run) => {
                let want = 8 * run.values.len() - run.filled;
                let n = read(Landing::Run(&mut run.values, run.filled))?.min(want);
                run.filled += n;
                self.in_runs += n;
                n
            }
            None => {
                let (at, end) = (self.meta_len, self.meta_len + room);
                if self.meta.len() < end {
                    // Zeroed storage, doubling: no pass writes the bytes
                    // the reads are about to write.
                    let mut grown = vec![0; end.max(2 * self.meta.len())];
                    if let (Some(dst), Some(src)) = (grown.get_mut(..at), self.meta.get(..at)) {
                        dst.copy_from_slice(src);
                    }
                    self.meta = grown;
                }
                let n = read(Landing::Meta(
                    self.meta.get_mut(at..end).unwrap_or_default(),
                ))?;
                self.meta_len += n.min(room);
                n.min(room)
            }
        };
        self.got += n;
        if n > 0 {
            self.locate::<T>(vectors);
        }
        Ok(n)
    }

    /// Receives bytes already read elsewhere, as far as the frame goes;
    /// returns how many it took.
    pub fn feed<T: Deserialize>(&mut self, mut bytes: &[u8], vectors: &mut Pool<f64>) -> usize {
        let given = bytes.len();
        while !bytes.is_empty() && !self.is_whole() {
            let src = bytes;
            let copied = self.receive::<T>(vectors, |landing| {
                Ok(match landing {
                    Landing::Meta(buf) => {
                        let n = buf.len().min(src.len());
                        if let (Some(dst), Some(src)) = (buf.get_mut(..n), src.get(..n)) {
                            dst.copy_from_slice(src);
                        }
                        n
                    }
                    Landing::Run(run, filled) => copy_into_run(run, filled, src),
                })
            });
            let n = copied.unwrap_or(0);
            if n == 0 {
                break;
            }
            bytes = bytes.get(n..).unwrap_or_default();
        }
        given - bytes.len()
    }

    /// Decodes the whole frame as one `T`, taking its runs as they are and
    /// drawing storage for its other `f64` sequences from `vectors`; a run
    /// the value did not take goes back to `vectors`. `Err(Eof)` while the
    /// frame is not whole.
    pub fn finish<T: Deserialize>(mut self, vectors: &mut Pool<f64>) -> Result<T, CodecError> {
        let decoded = if self.is_whole() {
            let mut storage = |len| vectors.take(len);
            let meta = self.meta.get(..self.meta_len).unwrap_or_default();
            let mut de = BinDeserializer::new(meta, &mut self.runs, self.len, &mut storage, None);
            match T::deserialize(&mut de) {
                Ok(value) if de.pos == de.bytes.len() && de.next_run == de.runs.len() => Ok(value),
                Ok(_) => Err(CodecError::TrailingBytes),
                Err(e) => Err(e),
            }
        } else {
            Err(CodecError::Eof)
        };
        self.discard(vectors);
        decoded
    }

    /// Gives the vectors of the frame's runs back to `vectors`: the frame
    /// will not be decoded.
    pub fn discard(self, vectors: &mut Pool<f64>) {
        for run in self.runs {
            if run.values.capacity() > 0 {
                vectors.give(run.values);
            }
        }
    }

    /// Meta bytes to read next: a short step while a run may start in
    /// them, a read chunk (`run_min`) otherwise.
    fn meta_room(&self) -> usize {
        let step = if self.locating && self.may_probe() {
            PROBE_STEP.min(self.run_min)
        } else {
            self.run_min
        };
        step.clamp(1, (self.len - self.got).max(1))
    }

    /// Whether a probe may run. A probe walks the frame from its start,
    /// so one per run or per read would cost a walk of the prefix each,
    /// quadratic in a frame of many runs or of many meta bytes, and the
    /// walks only pay off in runs received in place. So a probe runs only
    /// while the probes so far walked less than one probe step plus the
    /// bytes received into runs: past that, bytes go to the meta buffer,
    /// where the decode at the frame's end reads them.
    fn may_probe(&self) -> bool {
        self.parsed < PROBE_STEP.saturating_add(self.in_runs)
    }

    /// Locates runs while the frame goes on, no run is being filled and
    /// the probes are within their budget.
    fn locate<T: Deserialize>(&mut self, vectors: &mut Pool<f64>) {
        while self.locating && !self.is_whole() && self.may_probe() {
            if self
                .runs
                .last()
                .is_some_and(|run| run.filled < 8 * run.values.len())
            {
                return;
            }
            let mut probe = Probe {
                run_min: self.run_min,
                walked: 0,
                stop: None,
            };
            {
                let mut no_storage = |_| Vec::new();
                let meta = self.meta.get(..self.meta_len).unwrap_or_default();
                let mut de = BinDeserializer::new(
                    meta,
                    &mut self.runs,
                    self.len,
                    &mut no_storage,
                    Some(&mut probe),
                );
                // The value built is a husk: its sequences are empty.
                let _ = T::deserialize(&mut de);
            }
            self.parsed = self.parsed.saturating_add(probe.walked);
            match probe.stop {
                Some(Stop::Short) => return,
                Some(Stop::Run { at, n }) => self.cut_run(at, n, vectors),
                // Parsed to the end, or malformed: the decode at the end
                // reads the rest, or reports the error.
                None => self.locating = false,
            }
        }
    }

    /// Starts the run of `n` elements at meta offset `at`: draws its
    /// vector and moves into it the bytes of it that came in as meta.
    fn cut_run(&mut self, at: usize, n: usize, vectors: &mut Pool<f64>) {
        let mut values = vectors.take(n);
        if values.is_empty() && values.capacity() == n {
            // Fresh storage: zeroed pages cost no pass over memory that
            // the reads are about to write.
            values = vec![0.0; n];
        }
        // Storage of this length or longer keeps what it holds, unwritten:
        // every element is received before the frame is decoded.
        values.truncate(n);
        values.resize(n, 0.0);
        let over = self.meta.get(at..self.meta_len).unwrap_or_default();
        let filled = copy_into_run(&mut values, 0, over);
        self.meta_len = at;
        self.in_runs += filled;
        self.runs.push(Run { at, values, filled });
    }
}

/// Writes `bytes` into `run` as the little-endian bytes of its elements,
/// from byte `filled` of it on, as many as fit; returns how many did.
fn copy_into_run(run: &mut [f64], filled: usize, bytes: &[u8]) -> usize {
    let n = bytes.len().min((8 * run.len()).saturating_sub(filled));
    let mut src = bytes.get(..n).unwrap_or_default();
    let mut at = filled;
    while !src.is_empty() {
        let (i, off) = (at / 8, at % 8);
        let whole = if off == 0 { src.len() / 8 } else { 0 };
        let took = if whole > 0 {
            let (elems, _) = src.as_chunks::<8>();
            for (x, b) in run.iter_mut().skip(i).zip(elems) {
                *x = f64::from_le_bytes(*b);
            }
            8 * whole
        } else {
            let Some(x) = run.get_mut(i) else {
                break;
            };
            let mut b = x.to_le_bytes();
            let k = (8 - off).min(src.len());
            for (dst, s) in b.iter_mut().skip(off).zip(src) {
                *dst = *s;
            }
            *x = f64::from_le_bytes(b);
            k
        };
        at += took;
        src = src.get(took..).unwrap_or_default();
    }
    n
}

/// Storage a host lends and takes back: each host's model vectors, which
/// the reactor also receives runs into.
///
/// What the pool keeps plus what it has lent, counted by capacity, never
/// exceeds its high-water mark, the most it has had lent at one time:
/// it holds nothing that its borrowers did not already hold at once.
/// A request takes the smallest kept storage that fits it (best fit),
/// with whatever that last held. One that nothing fits allocates, and
/// kept storage is dropped, smallest first, while the total would pass
/// the mark. Kept storage is ordered by capacity, so a request or a
/// return of the smallest size kept costs `O(1)`.
#[derive(Debug, Default)]
pub struct Pool<T> {
    /// Kept storage, largest capacity first.
    kept: Vec<Vec<T>>,
    /// Capacity kept.
    kept_cap: usize,
    /// Capacity lent out and not yet given back.
    lent: usize,
    /// The most capacity lent out at one time.
    high_water: usize,
}

impl<T: Default> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the storage kept for reuse.
    pub fn kept(&self) -> usize {
        self.kept_cap
    }

    /// Capacity lent out and not yet given back.
    pub fn lent(&self) -> usize {
        self.lent
    }

    /// Lends storage that holds `room` elements; what it holds is
    /// unspecified.
    pub fn take(&mut self, room: usize) -> Vec<T> {
        // The smallest that fits is the last of those that fit: most
        // often the last of all, found without a search.
        let fits = if self.kept.last().is_some_and(|s| s.capacity() >= room) {
            self.kept.len()
        } else {
            self.kept.partition_point(|s| s.capacity() >= room)
        };
        let storage = match fits.checked_sub(1) {
            Some(i) => {
                let storage = self.kept.remove(i);
                self.kept_cap -= storage.capacity();
                storage
            }
            None => {
                let storage = Vec::with_capacity(room);
                let lent = self.lent + storage.capacity();
                self.high_water = self.high_water.max(lent);
                while self.kept_cap + lent > self.high_water {
                    let Some(dropped) = self.kept.pop() else {
                        break;
                    };
                    self.kept_cap -= dropped.capacity();
                }
                storage
            }
        };
        self.lent += storage.capacity();
        storage
    }

    /// Takes storage back, keeping it while what the pool keeps and has
    /// lent stays within the mark: storage the pool did not lend cannot
    /// make it keep more.
    pub fn give(&mut self, storage: Vec<T>) {
        let cap = storage.capacity();
        self.lent = self.lent.saturating_sub(cap);
        if self.kept_cap + self.lent + cap <= self.high_water {
            let at = if self.kept.last().is_none_or(|s| s.capacity() >= cap) {
                self.kept.len()
            } else {
                self.kept.partition_point(|s| s.capacity() >= cap)
            };
            self.kept_cap += cap;
            self.kept.insert(at, storage);
        }
    }
}

/// Reads one frame from a blocking reader (test helper; the reactor
/// uses [`FrameBuffer`], which never blocks).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    enum Probe {
        Unit,
        Named { a: u64, b: Option<String> },
        Tuple(Vec<f64>, bool),
    }

    #[test]
    fn round_trips_enum_shapes() {
        for v in [
            Probe::Unit,
            Probe::Named {
                a: 7,
                b: Some("x".into()),
            },
            Probe::Named { a: 0, b: None },
            Probe::Tuple(vec![1.5, -2.25], true),
        ] {
            let bytes = to_bytes(&v);
            assert_eq!(from_bytes::<Probe>(&bytes), Ok(v));
        }
    }

    /// A model vector as the engines put it on the wire.
    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    struct Weights(Vec<f64>);

    /// The same vector routed around the `f64` slice hooks: its elements
    /// are not `f64` to serde, so `Vec<Elem>` takes the provided element-
    /// wise loops — the encoding and decoding the bulk path replaced,
    /// kept as its oracle.
    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    struct ElementWise(Vec<Elem>);
    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
    struct Elem(f64);

    const ORACLE_DIMS: [usize; 9] = [0, 1, 3, 4, 5, 4095, 4096, 4097, 100_003];

    /// Deterministic bit patterns covering signs, exponents and NaNs.
    fn patterned(dim: usize) -> Vec<f64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..dim)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect()
    }

    fn same_bits(a: &[f64], b: impl Iterator<Item = f64>) -> bool {
        a.len() == b.size_hint().0 && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn bulk_f64_path_matches_the_element_wise_oracle() {
        for dim in ORACLE_DIMS {
            let values = patterned(dim);
            let bulk = Weights(values.clone());
            let oracle = ElementWise(values.iter().map(|&x| Elem(x)).collect());

            let bytes = to_bytes(&bulk);
            assert_eq!(bytes, to_bytes(&oracle), "encode differs at dim {dim}");
            assert_eq!(bytes.len(), 4 + 8 * dim);

            let Weights(via_bulk) = from_bytes(&bytes).unwrap();
            let ElementWise(via_oracle) = from_bytes(&bytes).unwrap();
            assert!(same_bits(&values, via_bulk.into_iter()), "dim {dim}");
            assert!(
                same_bits(&values, via_oracle.into_iter().map(|e| e.0)),
                "dim {dim}"
            );

            // The frame form is the same payload behind its length.
            let framed = to_frame_bytes(&bulk).unwrap();
            assert_eq!(framed.len(), framed.capacity(), "frame not exact-size");
            assert_eq!(framed[..4], (bytes.len() as u32).to_le_bytes());
            assert_eq!(framed[4..], bytes[..]);
        }
    }

    #[test]
    fn bulk_f64_path_matches_the_oracle_inside_a_message() {
        // The shape of a share block: vectors nested in tuples in a
        // sequence in an enum variant, between other fields.
        #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Clone)]
        enum Block<V> {
            Share {
                round: u64,
                parts: Vec<(usize, V)>,
                note: Option<String>,
            },
        }
        let values = [patterned(4097), patterned(0), patterned(5)];
        let bulk = Block::Share {
            round: 9,
            parts: values.iter().cloned().map(Weights).enumerate().collect(),
            note: Some("x".into()),
        };
        let oracle = Block::Share {
            round: 9,
            parts: values
                .iter()
                .map(|v| ElementWise(v.iter().map(|&x| Elem(x)).collect()))
                .enumerate()
                .collect(),
            note: Some("x".into()),
        };
        let bytes = to_bytes(&bulk);
        assert_eq!(bytes, to_bytes(&oracle));
        let Block::Share { parts, .. } = from_bytes::<Block<Weights>>(&bytes).unwrap();
        for ((_, Weights(got)), want) in parts.into_iter().zip(&values) {
            assert!(same_bits(want, got.into_iter()));
        }
    }

    #[test]
    fn encoded_size_is_counted_exactly() {
        for v in [
            Probe::Unit,
            Probe::Named {
                a: 7,
                b: Some("héllo".into()),
            },
            Probe::Named { a: 0, b: None },
            Probe::Tuple(patterned(1000), false),
        ] {
            let bytes = to_bytes(&v);
            assert_eq!(bytes.len(), bytes.capacity(), "{v:?}");
            let framed = to_frame_bytes(&v).unwrap();
            assert_eq!(framed.len(), framed.capacity(), "{v:?}");
            assert_eq!(framed.len(), bytes.len() + 4);
        }
    }

    #[test]
    fn hostile_f64_sequence_prefixes_allocate_nothing() {
        // n elements declared, fewer than 8n bytes behind the prefix.
        let mut bytes = 1000u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 1000]); // passes n <= remaining
        assert_eq!(from_bytes::<Weights>(&bytes), Err(CodecError::Eof));
        assert_eq!(from_bytes::<ElementWise>(&bytes), Err(CodecError::Eof));

        // The largest declarable count, with nothing behind it.
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(
            from_bytes::<Weights>(&bytes),
            Err(CodecError::LengthOverrun {
                declared: u32::MAX as usize,
                available: 0
            })
        );

        // Cut mid-element, at every byte of the last element.
        let whole = to_bytes(&Weights(patterned(3)));
        for cut in 1..=8 {
            assert_eq!(
                from_bytes::<Weights>(&whole[..whole.len() - cut]),
                Err(CodecError::Eof),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn f64_runs_decode_into_offered_storage() {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let sent = Weights(patterned(4097));
        let bytes = to_bytes(&sent);
        // Dirty storage of the run's length, and its address.
        let mut spare = vec![f64::NAN; 4097];
        let at = spare.as_ptr();
        let mut asked = Vec::new();
        let got: Weights = from_bytes_into(&bytes, &mut |len| {
            asked.push(len);
            std::mem::take(&mut spare)
        })
        .unwrap();
        assert_eq!(asked, [4097]);
        assert_eq!(got.0.as_ptr(), at, "decoded in place");
        assert!(bits(&got.0) == bits(&sent.0), "bit for bit");
        // Fresh storage: the same bits.
        let fresh: Weights = from_bytes(&bytes).unwrap();
        assert!(bits(&fresh.0) == bits(&sent.0));
        // A prefix the input cannot back asks for no storage.
        let mut asked = 0;
        let cut = from_bytes_into::<Weights>(&bytes[..bytes.len() - 1], &mut |_| {
            asked += 1;
            Vec::new()
        });
        assert_eq!((cut, asked), (Err(CodecError::Eof), 0));
    }

    #[test]
    fn rejects_trailing_and_truncated() {
        let mut bytes = to_bytes(&Probe::Unit);
        bytes.push(0);
        assert_eq!(from_bytes::<Probe>(&bytes), Err(CodecError::TrailingBytes));

        let bytes = to_bytes(&Probe::Named { a: 1, b: None });
        assert_eq!(
            from_bytes::<Probe>(&bytes[..bytes.len() - 1]),
            Err(CodecError::Eof)
        );
    }

    #[test]
    fn rejects_unknown_variant() {
        let mut bytes = to_bytes(&Probe::Unit);
        bytes[..4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(from_bytes::<Probe>(&bytes), Err(CodecError::InvalidVariant));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();

        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        // Feed one byte at a time: every split point must be survivable.
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f.to_vec());
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), vec![], b"world!".to_vec()]);
    }

    #[test]
    fn popping_buffered_frames_moves_no_bytes() {
        // k small frames arriving in one read is the common case on a
        // busy link. Each pop must be O(1): frames come out in place, at
        // the offsets they were received at, so no pop can have shifted
        // the bytes behind it (a shift per pop is O(k^2) over the read).
        let k = 10_000usize;
        let mut wire = Vec::new();
        for i in 0..k {
            write_frame(&mut wire, &vec![i as u8; i % 7]).unwrap();
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let base = fb.buf.as_ptr() as usize;
        let mut offset = 0usize;
        for i in 0..k {
            let frame = fb.next_frame().unwrap().unwrap();
            assert_eq!(frame, &vec![i as u8; i % 7][..]);
            assert_eq!(
                frame.as_ptr() as usize,
                base + offset + 4,
                "frame {i} moved"
            );
            offset += 4 + frame.len();
        }
        assert!(matches!(fb.next_frame(), Ok(None)));
        assert_eq!(offset, wire.len());
    }

    #[test]
    fn frame_buffer_reclaims_consumed_space() {
        // A long stream through small reads must not grow the buffer:
        // consumed bytes are reclaimed on `extend`, and each reclaim
        // moves less than what was consumed since the previous one.
        let payload = vec![0xabu8; 1000];
        let mut wire = Vec::new();
        for _ in 0..5_000 {
            write_frame(&mut wire, &payload).unwrap();
        }
        let mut fb = FrameBuffer::new();
        let mut frames = 0usize;
        for piece in wire.chunks(700) {
            fb.extend(piece);
            while let Some(f) = fb.next_frame().unwrap() {
                assert_eq!(f, &payload[..]);
                frames += 1;
            }
            assert!(fb.head <= fb.buf.len());
        }
        assert_eq!(frames, 5_000);
        assert!(
            fb.buf.capacity() < 16 * 1024,
            "5 MB streamed through 700-byte reads left {} bytes of buffer",
            fb.buf.capacity()
        );
    }

    #[test]
    fn frame_buffer_sizes_itself_from_the_header() {
        // The first read of a bulk frame carries its header; the buffer
        // must take its final size then, not by doubling read after read.
        let payload = vec![7u8; 3 << 20];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut fb = FrameBuffer::new();
        let mut pieces = wire.chunks(64 << 10);
        fb.extend(pieces.next().unwrap());
        let (ptr, cap) = (fb.buf.as_ptr(), fb.buf.capacity());
        assert!(cap >= wire.len());
        for piece in pieces {
            assert!(matches!(fb.next_frame(), Ok(None)));
            fb.extend(piece);
        }
        assert_eq!(
            (fb.buf.as_ptr(), fb.buf.capacity()),
            (ptr, cap),
            "buffer regrew"
        );
        assert_eq!(fb.next_frame().unwrap().unwrap(), &payload[..]);
    }

    #[test]
    fn frame_buffer_rejects_oversize_header() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    /// The bulk threshold the reactor uses: its read chunk.
    const BULK: usize = 64 << 10;

    /// A non-blocking source: hands `wire` out a piece at a time, the
    /// pieces cut to `sizes` in turn, and fails with `WouldBlock` between
    /// pieces; `Ok(0)` once `wire` is used up.
    struct Trickle<'a> {
        wire: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
        left: usize,
    }

    impl<'a> Trickle<'a> {
        fn new(wire: &'a [u8], sizes: &'a [usize]) -> Self {
            let mut sizes = sizes.iter().cycle();
            let left = *sizes.next().unwrap();
            Trickle { wire, sizes, left }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.left == 0 && !self.wire.is_empty() {
                self.left = *self.sizes.next().unwrap();
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.left).min(self.wire.len());
            out[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            self.left -= n;
            Ok(n)
        }
    }

    /// A link's receive side as the reactor drives it: frames up to
    /// `BULK` through a scratch chunk and the frame buffer, a larger one
    /// as a [`BulkFrame`] once its header is in.
    struct Link {
        fb: FrameBuffer,
        bulk: Option<BulkFrame>,
        pool: Pool<f64>,
    }

    impl Link {
        fn new() -> Link {
            Link {
                fb: FrameBuffer::new(),
                bulk: None,
                pool: Pool::new(),
            }
        }

        /// One read: into the frame in flight, or through a scratch chunk.
        fn read<T: Deserialize>(&mut self, src: &mut impl Read) -> io::Result<usize> {
            match self.bulk.as_mut() {
                Some(bulk) => bulk.receive::<T>(&mut self.pool, |landing| match landing {
                    Landing::Meta(buf) => src.read(buf),
                    Landing::Run(run, filled) => {
                        let mut bytes = vec![0u8; (8 * run.len() - filled).min(BULK)];
                        let n = src.read(&mut bytes)?;
                        Ok(copy_into_run(run, filled, &bytes[..n]))
                    }
                }),
                None => {
                    let mut scratch = vec![0u8; BULK];
                    let n = src.read(&mut scratch)?;
                    self.fb.extend_sized(&scratch[..n], BULK);
                    Ok(n)
                }
            }
        }

        /// Every frame whole so far, decoded.
        fn deliver<T: Deserialize>(&mut self, out: &mut Vec<T>) {
            loop {
                match self.bulk.take() {
                    Some(bulk) if bulk.is_whole() => {
                        out.push(bulk.finish(&mut self.pool).unwrap());
                        continue;
                    }
                    Some(bulk) => {
                        self.bulk = Some(bulk);
                        return;
                    }
                    None => {}
                }
                while let Some(frame) = self.fb.next_frame().unwrap() {
                    out.push(from_bytes(frame).unwrap());
                }
                let Some((len, held)) = self.fb.next_bulk(BULK) else {
                    return;
                };
                let mut bulk = BulkFrame::new(len, BULK);
                assert_eq!(bulk.feed::<T>(held, &mut self.pool), held.len());
                self.bulk = Some(bulk);
            }
        }

        /// Reads and delivers until `src` ends.
        fn pump<T: Deserialize>(&mut self, src: &mut impl Read) -> Vec<T> {
            let mut out = Vec::new();
            loop {
                match self.read::<T>(src) {
                    Ok(0) => return out,
                    Ok(_) => self.deliver(&mut out),
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                }
            }
        }
    }

    fn wire_of<T: Serialize>(msgs: &[T]) -> Vec<u8> {
        msgs.iter()
            .flat_map(|m| to_frame_bytes(m).unwrap())
            .collect()
    }

    fn bits_of<T: Serialize>(msgs: &[T]) -> Vec<Vec<u8>> {
        msgs.iter().map(to_bytes).collect()
    }

    /// A share block's shape, with a note: runs between meta fields.
    #[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
    enum Msg {
        Parts {
            round: u64,
            parts: Vec<(u64, Weights)>,
        },
        Note(String),
    }

    fn parts(dims: &[usize]) -> Msg {
        Msg::Parts {
            round: 3,
            parts: (dims.iter().enumerate())
                .map(|(i, &d)| (i as u64, Weights(patterned(d))))
                .collect(),
        }
    }

    #[test]
    fn bulk_frames_arrive_whole_through_any_reads() {
        // Bulk frames around small ones, through odd pieces that split
        // every header somewhere, the first one byte at a time.
        let msgs = [
            parts(&[3 * BULK / 8 + 5, 2, BULK / 8]),
            Msg::Note("small".into()),
            parts(&[BULK / 8 + 1]),
            parts(&[10, 20_000, 7, 9_000]),
            Msg::Note("x".repeat(BULK + 9)),
            parts(&[0, BULK / 4]),
        ];
        let wire = wire_of(&msgs);
        for sizes in [
            &[1, 1, 1, 1, 70_001][..],
            &[3, 7, 65_537, 13],
            &[2, 999],
            &[usize::MAX],
        ] {
            let mut link = Link::new();
            let got: Vec<Msg> = link.pump(&mut Trickle::new(&wire, sizes));
            assert!(bits_of(&got) == bits_of(&msgs), "{sizes:?}: frames differ");
            assert!(link.bulk.is_none() && link.fb.is_empty(), "{sizes:?}");
        }
    }

    #[test]
    fn runs_land_in_pooled_vectors_and_leave_the_meta_bytes() {
        let msg = parts(&[BULK, 3, 2 * BULK]);
        let wire = to_frame_bytes(&msg).unwrap();
        let mut link = Link::new();
        // Dirty storage of the runs' lengths, as a steady round leaves it.
        let spare = [link.pool.take(BULK), link.pool.take(2 * BULK)];
        let at: Vec<*const f64> = spare.iter().map(|s| s.as_ptr()).collect();
        for mut s in spare {
            s.resize(s.capacity(), f64::NAN);
            link.pool.give(s);
        }
        let mut src = Trickle::new(&wire, &[BULK, 5000, 1]);
        let mut out: Vec<Msg> = Vec::new();
        while out.is_empty() {
            if link.read::<Msg>(&mut src).is_ok() {
                link.deliver(&mut out);
            }
            if let Some(bulk) = &link.bulk {
                // Only the meta bytes, plus the piece of a run read in
                // with them until the run is located, stay in the buffer.
                assert!(bulk.meta_len < PROBE_STEP + 64, "{}", bulk.meta_len);
            }
        }
        let Msg::Parts { parts, .. } = &out[0] else {
            panic!("wrong variant");
        };
        assert_eq!(to_bytes(&out[0]), to_bytes(&msg));
        assert_eq!(parts[0].1 .0.as_ptr(), at[0], "received in place");
        assert_eq!(parts[2].1 .0.as_ptr(), at[1], "received in place");
        assert_eq!(link.pool.kept(), 0);
    }

    #[test]
    fn would_block_mid_run_keeps_what_came() {
        let msg = parts(&[2 * BULK]);
        let wire = to_frame_bytes(&msg).unwrap();
        let half = wire.len() / 2;
        let sizes = [half, usize::MAX];
        let mut src = Trickle::new(&wire, &sizes);
        let mut link = Link::new();
        let mut out: Vec<Msg> = Vec::new();
        while link.read::<Msg>(&mut src).is_ok() {
            link.deliver(&mut out);
        }
        let bulk = link.bulk.as_ref().expect("a frame in flight");
        assert_eq!(bulk.got + 4, half, "bytes read before the block were kept");
        assert_eq!(link.pool.lent(), 2 * BULK, "its run's vector is drawn");
        assert_eq!(link.pump::<Msg>(&mut src).len() + out.len(), 1);
    }

    #[test]
    fn a_small_frame_behind_a_bulk_one_goes_to_the_frame_buffer() {
        // Reads into a frame in flight stop at its end, so the next frame
        // starts in the frame buffer.
        let msgs = [parts(&[BULK]), Msg::Note("next".into())];
        let wire = wire_of(&msgs);
        let (head, tail) = wire.split_at(wire.len() - 1);
        let mut link = Link::new();
        let got: Vec<Msg> = link.pump(&mut Trickle::new(head, &[1000]));
        assert_eq!(got.len(), 1);
        assert!(link.bulk.is_none() && !link.fb.is_empty());
        let last: Vec<Msg> = link.pump(&mut Trickle::new(tail, &[1000]));
        assert!(bits_of(&last) == bits_of(&msgs[1..]));
    }

    #[test]
    fn a_discarded_frame_gives_its_vectors_back() {
        let msg = parts(&[BULK, BULK]);
        let wire = to_frame_bytes(&msg).unwrap();
        let mut link = Link::new();
        let mut out: Vec<Msg> = Vec::new();
        let mut src = Trickle::new(&wire[..wire.len() - 100], &[usize::MAX]);
        while link.read::<Msg>(&mut src).is_ok_and(|n| n > 0) {
            link.deliver(&mut out);
        }
        assert_eq!(link.pool.lent(), 2 * BULK, "both runs drawn");
        link.bulk.take().unwrap().discard(&mut link.pool);
        assert_eq!((link.pool.lent(), link.pool.kept()), (0, 2 * BULK));
    }

    #[test]
    fn frame_buffer_hands_over_a_bulk_frame_and_refuses_an_oversize_one() {
        let wire = to_frame_bytes(&parts(&[BULK])).unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend_sized(&wire[..BULK], BULK);
        assert!(fb.buf.capacity() < 2 * BULK, "made room for a bulk frame");
        assert_eq!(fb.next_frame(), Ok(None));
        let (len, held) = fb.next_bulk(BULK).unwrap();
        assert_eq!((len, held), (wire.len() - 4, &wire[4..BULK]));
        assert!(fb.is_empty());
        // A frame up to the threshold is not handed over.
        let small = to_frame_bytes(&Msg::Note("s".into())).unwrap();
        fb.extend_sized(&small[..6], BULK);
        assert_eq!(fb.next_bulk(BULK), None);

        let mut fb = FrameBuffer::new();
        let mut header = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        header.extend([0u8; 64]);
        fb.extend_sized(&header, BULK);
        assert_eq!(fb.next_bulk(BULK), None);
        assert!(fb.next_frame().is_err());
        assert!(
            fb.buf.capacity() < 1 << 10,
            "reserved from a refused header"
        );
    }

    #[test]
    fn frame_pieces_borrow_runs_and_stage_the_rest() {
        let msg = parts(&[BULK / 8, 3, BULK / 4]);
        let wire = to_frame_bytes(&msg).unwrap();
        let Msg::Parts { parts, .. } = &msg else {
            unreachable!()
        };
        let mut staged = Vec::new();
        let mut pieces = PieceList::new(16);
        let end = frame_pieces(
            &msg,
            wire.len(),
            0,
            BULK / 8,
            &mut staged,
            1 << 10,
            &mut pieces,
        );
        assert_eq!(end, wire.len());
        let runs: Vec<*const f64> = (pieces.as_slice().iter())
            .filter_map(|p| match p {
                Piece::Run(v, 0) => Some(v.as_ptr()),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [parts[0].1 .0.as_ptr(), parts[2].1 .0.as_ptr()]);
        assert_eq!(
            pieces.as_slice().len(),
            4,
            "meta, run, meta with the small run, run"
        );
        assert!(staged.len() < 100, "staged {} bytes", staged.len());
        assert!(joined(&pieces, &staged) == wire);
    }

    /// The bytes `pieces` stand for.
    fn joined(pieces: &PieceList<'_>, staged: &[u8]) -> Vec<u8> {
        (pieces.as_slice().iter())
            .flat_map(|p| match p {
                Piece::Staged(r) => staged[r.clone()].to_vec(),
                Piece::Run(v, skip) => to_bytes(v)[4 + skip..].to_vec(),
            })
            .collect()
    }

    #[test]
    fn frame_pieces_append_frames_into_one_staged_piece_until_full() {
        let (a, b) = (Msg::Note("first".into()), Msg::Note("second".into()));
        let (wa, wb) = (to_frame_bytes(&a).unwrap(), to_frame_bytes(&b).unwrap());
        let cap = wa.len() + 5;
        let mut staged = Vec::new();
        let mut pieces = PieceList::new(4);
        assert_eq!(
            frame_pieces(&a, wa.len(), 2, 8, &mut staged, cap, &mut pieces),
            wa.len()
        );
        assert_eq!(
            frame_pieces(&b, wb.len(), 0, 8, &mut staged, cap, &mut pieces),
            7
        );
        assert_eq!(pieces.as_slice(), [Piece::Staged(0..cap)]);
        assert_eq!(staged, [&wa[2..], &wb[..7]].concat());
        // Full: nothing more is appended, and the offset stays put.
        assert_eq!(
            frame_pieces(&b, wb.len(), 7, 8, &mut staged, cap, &mut pieces),
            7
        );
        assert_eq!(staged.len(), cap);
        // A full list takes no new piece either.
        let msg = parts(&[BULK / 8]);
        let len = frame_len(&msg).unwrap();
        let (mut staged, mut pieces) = (Vec::new(), PieceList::new(1));
        let end = frame_pieces(&msg, len, 0, BULK / 8, &mut staged, 1 << 10, &mut pieces);
        assert_eq!(end, staged.len(), "the header, not the run");
        assert_eq!(pieces.into_iter().count(), 1);
    }

    /// A sequence whose every element counts its visits.
    struct Counted<'a>(Vec<u64>, &'a std::cell::Cell<usize>);

    impl serde::Serialize for Counted<'_> {
        fn serialize<'v, S: serde::Serializer<'v> + ?Sized>(
            &'v self,
            s: &mut S,
        ) -> Result<(), S::Error> {
            s.begin_seq(self.0.len())?;
            for x in &self.0 {
                self.1.set(self.1.get() + 1);
                s.seq_element()?;
                s.ser_u64(*x)?;
            }
            s.end_seq()
        }
    }

    #[test]
    fn frame_pieces_stop_walking_the_value_at_the_batch_end() {
        let visits = std::cell::Cell::new(0);
        let value = Counted(vec![7; 10_000], &visits);
        let len = frame_len(&value).unwrap();
        visits.set(0);
        let (mut staged, mut pieces) = (Vec::new(), PieceList::new(4));
        let end = frame_pieces(&value, len, 0, BULK, &mut staged, 64, &mut pieces);
        assert_eq!(end, 64);
        assert!(
            visits.get() <= 64 / 8 + 1,
            "walked {} elements",
            visits.get()
        );
    }

    #[test]
    fn a_u8_is_one_byte_on_the_wire() {
        let data: Vec<u8> = (0..32 << 10).map(|i| i as u8).collect();
        let wire = to_frame_bytes(&data).unwrap();
        assert_eq!(wire.len(), (32 << 10) + 4 + 4);
        assert_eq!(frame_len(&data), Some(wire.len()));
        assert_eq!(&wire[8..], &data[..]);
        assert_eq!(from_bytes::<Vec<u8>>(&wire[4..]), Ok(data));
    }

    #[test]
    fn a_long_byte_sequence_is_received_a_read_chunk_at_a_time() {
        // A Raft snapshot's shape: meta bytes only, one long `Vec<u8>`.
        let data: Vec<u8> = (0..256 << 10).map(|i| i as u8).collect();
        let payload = to_bytes(&data);
        let (mut pool, mut rx) = (Pool::new(), BulkFrame::new(payload.len(), BULK));
        let (mut at, mut reads) = (0, 0);
        while !rx.is_whole() {
            reads += 1;
            at += rx
                .receive::<Vec<u8>>(&mut pool, |landing| match landing {
                    Landing::Meta(buf) => {
                        let n = buf.len().min(payload.len() - at);
                        buf[..n].copy_from_slice(&payload[at..at + n]);
                        Ok(n)
                    }
                    Landing::Run(..) => unreachable!("a byte sequence holds no run"),
                })
                .unwrap();
        }
        // One probe step, then read chunks: 4 KiB + 4 x 64 KiB.
        assert!(reads <= 6, "{reads} reads, {} bytes parsed", rx.parsed());
        assert!(rx.parsed() <= payload.len() + PROBE_STEP);
        assert_eq!(rx.finish::<Vec<u8>>(&mut pool), Ok(data));
    }

    #[test]
    fn pool_lends_the_best_fit_and_keeps_no_more_than_its_high_water_mark() {
        let mut pool: Pool<f64> = Pool::new();
        // Three vectors out at once, then back: all kept.
        let sizes = [1001, 3000, 2000];
        let lent: Vec<Vec<f64>> = sizes.iter().map(|&n| pool.take(n)).collect();
        assert_eq!(pool.lent(), 6001);
        for v in lent {
            pool.give(v);
        }
        assert_eq!((pool.kept(), pool.lent()), (6001, 0));
        // Fits the two larger; the smaller of those is lent.
        assert_eq!(pool.take(1500).capacity(), 2000);
        // Requests that nothing fits drop kept storage, smallest first,
        // while the total would pass the mark.
        let mut pool: Pool<f64> = Pool::new();
        for round in 1..=6 {
            let lent: Vec<Vec<f64>> = (0..4).map(|i| pool.take(round * 100 + i)).collect();
            assert!(
                pool.kept() + pool.lent() <= pool.high_water,
                "round {round}"
            );
            for v in lent {
                pool.give(v);
                assert!(
                    pool.kept() + pool.lent() <= pool.high_water,
                    "round {round}"
                );
            }
        }
        assert_eq!(pool.kept(), pool.high_water, "the last round's storage");
        // Storage the pool did not lend cannot make it keep more.
        pool.give(Vec::with_capacity(10_000));
        assert_eq!(pool.kept(), pool.high_water);
    }

    #[test]
    fn blocking_read_frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"abc");
    }
}
