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
//! On the wire each message is one *frame*: a `u32` little-endian length
//! of the bytes that follow it, capped at [`MAX_FRAME`] so a corrupt or
//! hostile length prefix cannot trigger an unbounded allocation, then the
//! payload [`to_bytes`] writes.
//!
//! A frame that carries model vectors is mostly `f64` sequences. The
//! sender lists each sequence of at least a size it names — a *run* — in
//! a *run table* between the prefix and the payload, so that the wire
//! copy of a run can be its only copy. Such a frame sets [`RUNS_FLAG`] in
//! its prefix, and the table is a `u32` run count, then per run the `u32`
//! payload offset of its first element and its `u32` byte length. The
//! payload bytes outside the runs are the frame's *meta* bytes. A frame
//! without runs is its prefix and its payload.
//!
//! * on send, [`frame_pieces`] appends a frame from any byte offset on to
//!   the pieces of a vectored write: its header and meta bytes staged
//!   into a buffer that the frames of one write share, runs borrowed from
//!   the value;
//! * on receive, a [`FrameReceiver`] takes a link's frames: headers and
//!   meta bytes through a read chunk into its buffer, never past a frame's
//!   next run, and each run straight into a vector drawn from a [`Pool`];
//!   it decodes a frame once, when it is whole.
//!
//! Both carry exactly the bytes [`to_frame_bytes`] writes at [`RUN_MIN`].

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io;
use std::ops::Range;

/// Hard upper bound on the bytes after a frame's length prefix (64 MiB).
/// The largest legitimate message in this workspace is a `ShareBlock` of
/// CNN-sized weight partitions, well under this.
pub const MAX_FRAME: usize = 64 << 20;

/// The bit of a frame's length prefix that says a run table follows it.
pub const RUNS_FLAG: u32 = 1 << 31;

/// The smallest `f64` sequence, in bytes, that [`to_frame_bytes`] lists as
/// a run: the reactor's 64 KiB read chunk.
pub const RUN_MIN: usize = 64 << 10;

/// Most runs one frame lists: as many as [`MAX_FRAME`] holds at
/// [`RUN_MIN`]. A sender sends any `f64` sequence past them as meta bytes.
pub const MAX_RUNS: usize = MAX_FRAME / RUN_MIN;

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

/// Serializes `value` into a buffer allocated once at its exact final
/// size: a counting pass over the same serializer sizes it, so a 20 MB
/// share block costs one allocation and one copy, like a 20-byte control
/// message.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let Ok((len, _)) = tally(value, usize::MAX, |_| Ok(())) else {
        debug_assert!(false, "unencodable value: sequence longer than u32::MAX");
        return Vec::new();
    };
    let mut out = Vec::with_capacity(len);
    if value
        .serialize(&mut BinSerializer { out: &mut out })
        .is_err()
    {
        return Vec::new();
    }
    out
}

/// Deserializes one `T` from `bytes`, requiring the value to consume the
/// whole buffer.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut storage = Vec::<f64>::with_capacity;
    let mut de = BinDeserializer::new(bytes, &mut [], bytes.len(), &mut storage);
    let value = T::deserialize(&mut de)?;
    if de.pos != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
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

impl<'v, S: Sink<'v> + ?Sized> Sink<'v> for &mut S {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt> {
        (**self).put(bytes)
    }

    fn put_f64s(&mut self, v: &'v [f64]) -> Result<(), Halt> {
        (**self).put_f64s(v)
    }
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

/// Whether an `f64` sequence of `len` bytes is a run, behind `runs` runs,
/// at threshold `run_min`.
fn is_run(len: usize, run_min: usize, runs: usize) -> bool {
    len > 0 && len >= run_min && runs < MAX_RUNS
}

/// A counting pass: sizes a payload and counts its runs, handing each
/// run's table entry to `entry`.
struct Tally<F> {
    bytes: usize,
    run_min: usize,
    runs: usize,
    entry: F,
}

impl<F: FnMut(&[u8]) -> Result<(), Halt>> Sink<'_> for Tally<F> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), Halt> {
        self.bytes = self.bytes.saturating_add(bytes.len());
        Ok(())
    }

    fn put_f64s(&mut self, v: &[f64]) -> Result<(), Halt> {
        let len = v.len().saturating_mul(8);
        if is_run(len, self.run_min, self.runs) {
            let wide = |n: usize| u32::try_from(n).map_err(|_| Halt::Unencodable);
            let (at, len) = (wide(self.bytes)?, wide(len)?);
            (self.entry)(&(u64::from(at) | u64::from(len) << 32).to_le_bytes())?;
            self.runs += 1;
        }
        self.bytes = self.bytes.saturating_add(len);
        Ok(())
    }
}

/// `value`'s payload length and run count at threshold `run_min`; each
/// run's table entry goes to `entry`.
fn tally<T: Serialize + ?Sized>(
    value: &T,
    run_min: usize,
    entry: impl FnMut(&[u8]) -> Result<(), Halt>,
) -> Result<(usize, usize), Halt> {
    let mut ser = BinSerializer {
        out: Tally {
            bytes: 0,
            run_min,
            runs: 0,
            entry,
        },
    };
    value.serialize(&mut ser)?;
    Ok((ser.out.bytes, ser.out.runs))
}

/// Bytes of a run table listing `runs` runs: none for a frame without.
fn table_len(runs: usize) -> usize {
    4 * usize::from(runs > 0) + 8 * runs
}

/// A value's frame as [`frame_len`] counts it: what [`frame_pieces`]
/// needs to write it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLen {
    len: usize,
    /// Runs its table lists.
    runs: usize,
    /// The smallest `f64` sequence, in bytes, it lists as a run.
    run_min: usize,
}

impl FrameLen {
    /// Bytes of the frame on the wire, prefix and run table included.
    pub fn wire_len(&self) -> usize {
        self.len
    }
}

/// Puts `value`'s frame, as `size` counts it, into `out`: prefix, run
/// table, payload. The table's entries take a counting pass over the
/// value, left out when `out` keeps nothing before `from` anyway.
fn put_frame<'v, T: Serialize + ?Sized>(
    value: &'v T,
    size: FrameLen,
    from: usize,
    out: &mut impl Sink<'v>,
) -> Result<(), Halt> {
    let flag = if size.runs > 0 { RUNS_FLAG } else { 0 };
    let prefix = u32::try_from(size.len.saturating_sub(4)).map_err(|_| Halt::Unencodable)?;
    out.put(&(prefix | flag).to_le_bytes())?;
    if size.runs > 0 {
        out.put(&(size.runs as u32).to_le_bytes())?;
        if from < 4 + table_len(size.runs) {
            tally(value, size.run_min, |entry| out.put(entry))?;
        } else {
            for _ in 0..size.runs {
                out.put(&[0; 8])?;
            }
        }
    }
    value.serialize(&mut BinSerializer { out })
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
/// `from` and after to `pieces`, runs as borrowed pieces and everything
/// else staged, extending a staged piece that ends the list, until the
/// list is full or `cap` bytes are staged. Then it halts serialization.
struct PieceSink<'v, 'b> {
    /// Stream offset of the next byte put.
    pos: usize,
    from: usize,
    /// Stream offset just past the last byte kept.
    end: usize,
    run_min: usize,
    /// Runs put so far.
    runs: usize,
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
        if !is_run(len, self.run_min, self.runs) {
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
        self.runs += 1;
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

/// A run of the frame a [`FrameReceiver`] is receiving.
#[derive(Debug)]
struct Run {
    /// Offset of the frame's meta bytes at which the run's elements sit
    /// on the wire: just behind its length prefix.
    at: usize,
    /// Its bytes.
    len: usize,
    /// Drawn once the meta bytes before the run are in.
    values: Vec<f64>,
    /// Bytes of `values` received.
    filled: usize,
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
    /// Where `f64` sequences in `bytes` are decoded into: storage for a
    /// length, whatever it held overwritten.
    storage: &'a mut dyn FnMut(usize) -> Vec<f64>,
}

impl<'a> BinDeserializer<'a> {
    fn new(
        bytes: &'a [u8],
        runs: &'a mut [Run],
        total: usize,
        storage: &'a mut dyn FnMut(usize) -> Vec<f64>,
    ) -> Self {
        BinDeserializer {
            bytes,
            pos: 0,
            runs,
            next_run: 0,
            run_bytes: 0,
            total,
            storage,
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
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Eof)?;
        self.pos = end;
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
        Ok(self.take(n)?.to_vec())
    }
    /// The bulk path of a model vector. The declared count is checked
    /// against the remaining input twice before anything is allocated —
    /// `read_len` (one byte per element at least) and then the full
    /// `8 * n` bytes — so a hostile prefix sizes nothing and draws no
    /// storage. A run cut out of the bytes is handed over as it is.
    fn de_f64_seq(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.read_len()?;
        let nbytes = n.checked_mul(8).ok_or(CodecError::Eof)?;
        let pos = self.pos;
        if let Some(run) = self.runs.get_mut(self.next_run).filter(|run| run.at == pos) {
            if run.len != nbytes {
                return Err(CodecError::Invalid("f64 run out of place"));
            }
            self.next_run += 1;
            self.run_bytes = self.run_bytes.saturating_add(nbytes);
            return Ok(std::mem::take(&mut run.values));
        }
        if nbytes > self.left() {
            return Err(CodecError::Eof);
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

/// Serializes `value` directly into wire-frame form, its `f64` sequences
/// of at least [`RUN_MIN`] bytes listed as runs, in a single exact-size
/// allocation. The reactor does not: it writes every frame from its
/// value, piece by piece with [`frame_pieces`], which yields the same
/// bytes. Returns `None` when the value cannot be encoded or exceeds
/// [`MAX_FRAME`].
pub fn to_frame_bytes<T: Serialize + ?Sized>(value: &T) -> Option<Vec<u8>> {
    let size = frame_len(value, RUN_MIN)?;
    let mut out = Vec::with_capacity(size.len);
    put_frame(value, size, 0, &mut out).ok()?;
    Some(out)
}

/// `value`'s wire frame with its `f64` sequences of at least `run_min`
/// bytes listed as runs (its first [`MAX_RUNS`]), counted without
/// encoding it. `None` exactly when the value cannot be encoded or its
/// frame exceeds [`MAX_FRAME`].
pub fn frame_len<T: Serialize + ?Sized>(value: &T, run_min: usize) -> Option<FrameLen> {
    let (payload, runs) = tally(value, run_min, |_| Ok(())).ok()?;
    let len = payload.checked_add(table_len(runs))?;
    (len <= MAX_FRAME).then_some(FrameLen {
        len: len + 4,
        runs,
        run_min,
    })
}

/// Appends bytes `from..` of `value`'s wire frame, as [`frame_len`]
/// counted it into `size`, to `pieces`, for one vectored write: each run
/// borrowed from `value`, every other byte appended to `staged`, into the
/// staged piece that ends the list if there is one. It stops once the
/// list is full or `staged` holds `stage_cap` bytes, wherever that falls,
/// inside an integer or an `f64` too, and serialization ends there.
/// Returns the frame offset the appended pieces reach: `size.wire_len()` if they
/// hold the frame to its end, `from` if nothing could be appended.
/// Concatenated, the appended pieces are the frame's bytes from `from`
/// on, as far as they go: at [`RUN_MIN`], the bytes `to_frame_bytes`
/// writes.
pub fn frame_pieces<'v, T: Serialize + ?Sized>(
    value: &'v T,
    size: FrameLen,
    from: usize,
    staged: &mut Vec<u8>,
    stage_cap: usize,
    pieces: &mut PieceList<'v>,
) -> usize {
    let mut sink = PieceSink {
        pos: 0,
        from,
        end: from,
        run_min: size.run_min,
        runs: 0,
        staged,
        cap: stage_cap,
        pieces,
        full: false,
    };
    if let Err(Halt::Unencodable) = put_frame(value, size, from, &mut sink) {
        debug_assert!(false, "unencodable value: sequence longer than u32::MAX");
    }
    sink.end
}

/// Incremental frame parser over bytes read elsewhere, for replaying
/// frames in tests and benchmarks (the reactor receives with a
/// [`FrameReceiver`]).
///
/// [`FrameBuffer::extend`] appends raw received bytes;
/// [`FrameBuffer::next_frame`] yields each whole frame's payload, its run
/// table skipped, preserving partial frames across reads so a read in the
/// middle of a frame never desynchronizes the stream.
///
/// Frames are handed out in place, behind a read cursor, so popping the
/// `k` frames of one read costs `O(1)` each and moves no bytes; consumed
/// space is reclaimed by the next `extend`, which moves at most as many
/// bytes as were consumed since the last reclaim.
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

    /// Appends freshly received bytes. Once the next frame's header is
    /// in, room for that whole frame is made in one step instead of
    /// doubling up to it read by read.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let held = self.buf.len() - self.head;
        // The MAX_FRAME cap bounds what a hostile header can reserve.
        let frame = (self.prefix_with(bytes))
            .map(|prefix| (prefix & !RUNS_FLAG) as usize)
            .filter(|&len| len <= MAX_FRAME);
        let room = frame.map_or(0, |len| 4 + len).max(held + bytes.len());
        self.buf.reserve(room - held);
        self.buf.extend_from_slice(bytes);
    }

    /// Whether every byte received has been handed out: no partial frame
    /// is pending.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The next frame's length prefix, reading past what is buffered into
    /// `bytes` when the prefix is split.
    fn prefix_with(&self, bytes: &[u8]) -> Option<u32> {
        let held = self.buf.get(self.head..).unwrap_or_default();
        let mut header = held.iter().chain(bytes).copied();
        let header = [
            header.next()?,
            header.next()?,
            header.next()?,
            header.next()?,
        ];
        Some(u32::from_le_bytes(header))
    }

    /// Pops the next complete frame, if one is buffered: its payload,
    /// behind its run table if it has one, borrowed from the buffer and
    /// valid until the next `extend`.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let Some(prefix) = self.prefix_with(&[]) else {
            return Ok(None);
        };
        let len = (prefix & !RUNS_FLAG) as usize;
        if len > MAX_FRAME {
            return Err(CodecError::Invalid("frame exceeds MAX_FRAME"));
        }
        let start = self.head + 4;
        let Some(frame) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        let table = match frame.first_chunk::<4>() {
            Some(count) if prefix & RUNS_FLAG != 0 => {
                table_len(u32::from_le_bytes(*count) as usize)
            }
            _ => 0,
        };
        if table > len || (prefix & RUNS_FLAG != 0 && table == 0) {
            return Err(CodecError::Invalid("run table past its frame"));
        }
        self.head = start + len;
        Ok(self.buf.get(start + table..start + len))
    }
}

/// Where [`FrameReceiver::receive`] lands a link's next bytes.
#[derive(Debug)]
pub enum Landing<'a> {
    /// Prefixes, run tables and meta bytes, into this part of the read
    /// chunk, as many as come.
    Meta(&'a mut [u8]),
    /// Bytes of a run, into the memory of its elements from this byte on,
    /// as many as come: on a little-endian host that memory is the run's
    /// wire bytes.
    Run(&'a mut [f64], usize),
}

/// One link's receive side, which every frame takes. A frame's prefix,
/// run table and meta bytes come in through the caller's read chunk into
/// a buffer, never past the frame's next run; past its last run a read
/// may take the frames behind it too, so many small frames arrive in one
/// read. Each run is read straight into a vector drawn for it from a
/// [`Pool`] once the meta bytes before it are in: the vector the decoded
/// value carries. A frame is decoded once, when it is whole. A run table
/// is checked before any vector is drawn; a frame whose table is refused
/// is received as meta bytes and decodes to the refusal.
#[derive(Debug, Default)]
pub struct FrameReceiver {
    /// Bytes received and not handed out, from `head` on: the frame being
    /// received, its runs cut out, then whatever followed it.
    buf: Vec<u8>,
    head: usize,
    /// Of the frame being received, once its prefix and run table are in:
    /// their bytes (0 before), its meta bytes, and why its table was
    /// refused.
    body: usize,
    meta: usize,
    refused: Option<CodecError>,
    /// Its runs, in wire order, and how many of them are all in.
    runs: Vec<Run>,
    full: usize,
}

impl FrameReceiver {
    /// A receiver with nothing in.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no frame is partly in.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The length prefix of the next frame, once its four bytes are in.
    pub fn next_prefix(&self) -> Option<u32> {
        let bytes = self.buf.get(self.head..)?.first_chunk::<4>()?;
        Some(u32::from_le_bytes(*bytes))
    }

    /// Receives the link's next bytes: `read` is given where they land —
    /// `chunk`, as much of it as reaches the next run, or that run's
    /// vector — and returns how many it put there. Returns what `read`
    /// did, or `InvalidData` for a prefix over [`MAX_FRAME`].
    pub fn receive(
        &mut self,
        vectors: &mut Pool,
        chunk: &mut [u8],
        read: impl FnOnce(Landing<'_>) -> io::Result<usize>,
    ) -> io::Result<usize> {
        self.settle(vectors)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut room = chunk.len();
        if let Some(run) = self.runs.get_mut(self.full) {
            let meta_in = self.buf.len() - self.head - self.body;
            if meta_in == run.at {
                let n = read(Landing::Run(&mut run.values, run.filled))?;
                run.filled = (run.filled + n).min(run.len);
                return Ok(n);
            }
            room = room.min(run.at - meta_in);
        }
        let n = read(Landing::Meta(chunk.get_mut(..room).unwrap_or_default()))?;
        if self.is_empty() {
            // A frame's storage goes with it, past a read chunk's room.
            self.buf.clear();
            self.buf.shrink_to(chunk.len());
            self.head = 0;
        } else if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let bytes = chunk.get(..n.min(room)).unwrap_or_default();
        self.buf.extend_from_slice(bytes);
        Ok(n)
    }

    /// The next frame, once it is whole. The vectors of runs a frame
    /// handed out earlier did not take go back to `vectors` first. `Err`
    /// only for a prefix over [`MAX_FRAME`].
    pub fn next_frame(&mut self, vectors: &mut Pool) -> Result<Option<Whole<'_>>, CodecError> {
        self.settle(vectors)?;
        let (start, end) = (self.head + self.body, self.head + self.body + self.meta);
        if self.body == 0 || self.full < self.runs.len() || self.buf.len() < end {
            return Ok(None);
        }
        let runs: usize = self.runs.iter().map(|run| run.len).sum();
        let wire_len = self.body + self.meta + runs;
        (self.head, self.body) = (end, 0);
        Ok(Some(Whole {
            meta: self.buf.get(start..end).unwrap_or_default(),
            runs: &mut self.runs,
            wire_len,
            refused: self.refused.take(),
        }))
    }

    /// Gives the vectors drawn for the frame being received back to
    /// `vectors`: the link is closed.
    pub fn discard(mut self, vectors: &mut Pool) {
        self.recycle(vectors);
    }

    /// Gives back the vectors of runs no value took, and forgets the runs.
    fn recycle(&mut self, vectors: &mut Pool) {
        for run in self.runs.drain(..) {
            if run.values.capacity() > 0 {
                vectors.give(run.values);
            }
        }
        self.full = 0;
    }

    /// Takes the frame being received as far as the bytes in allow: reads
    /// its prefix and run table once they are in, and moves into each run
    /// it reaches the bytes of it that came in as meta, drawing the run's
    /// vector.
    fn settle(&mut self, vectors: &mut Pool) -> Result<(), CodecError> {
        if self.body == 0 {
            self.recycle(vectors);
            self.read_header()?;
        }
        let start = self.head + self.body;
        while let Some(run) = self.runs.get_mut(self.full).filter(|_| self.body > 0) {
            let at = start + run.at;
            let Some(over) = self.buf.get(at..) else {
                return Ok(());
            };
            if run.values.is_empty() {
                run.values = draw(vectors, run.len / 8);
                run.filled = copy_into_run(&mut run.values, over);
                self.buf.drain(at..at + run.filled);
            }
            if run.filled < run.len {
                return Ok(());
            }
            self.full += 1;
        }
        Ok(())
    }

    /// Reads the prefix and run table of the frame at `head` once they are
    /// in, its runs into `runs` with no vector drawn.
    fn read_header(&mut self) -> Result<(), CodecError> {
        let bytes = self.buf.get(self.head..).unwrap_or_default();
        let Some((prefix, body)) = bytes.split_first_chunk::<4>() else {
            return Ok(());
        };
        let prefix = u32::from_le_bytes(*prefix);
        let len = (prefix & !RUNS_FLAG) as usize;
        if len > MAX_FRAME {
            return Err(CodecError::Invalid("frame exceeds MAX_FRAME"));
        }
        let table = match prefix & RUNS_FLAG {
            0 => Ok(0),
            _ => match read_table(len, body.get(..len).unwrap_or(body), &mut self.runs) {
                Some(table) => table,
                None => return Ok(()),
            },
        };
        let runs: usize = self.runs.iter().map(|run| run.len).sum();
        (self.body, self.meta, self.refused) = match table {
            Ok(table) => (4 + table, len - table - runs, None),
            // Received as meta bytes, table and all.
            Err(refused) => {
                self.runs.clear();
                (4, len, Some(refused))
            }
        };
        Ok(())
    }
}

/// The length of the run table of a flagged frame of `len` bytes, read
/// from `body`, its bytes in after its prefix, with its runs put in
/// `runs`; or why it is refused; `None` while it is not all in. Its runs
/// must be of whole `f64`s, in order, inside the frame.
fn read_table(len: usize, body: &[u8], runs: &mut Vec<Run>) -> Option<Result<usize, CodecError>> {
    let refuse = |why| Some(Err(CodecError::Invalid(why)));
    if len < 4 {
        return refuse("run table past its frame");
    }
    let table = match u32::from_le_bytes(*body.first_chunk::<4>()?) as usize {
        0 => return refuse("a run table without runs"),
        n if n > MAX_RUNS => return refuse("more runs than a frame holds"),
        n if table_len(n) > len => return refuse("run table past its frame"),
        n => table_len(n),
    };
    // Payload offset past the last run, and the bytes of the runs so far.
    let (mut end, mut cut) = (0, 0);
    for entry in body.get(4..table)?.as_chunks::<8>().0 {
        let entry = u64::from_le_bytes(*entry);
        let (at, n) = (entry as u32 as usize, (entry >> 32) as usize);
        if n == 0 || !n.is_multiple_of(8) || at < end || at + n > len - table {
            return refuse("runs not of whole f64s, in order, inside the frame");
        }
        runs.push(Run {
            at: at - cut,
            len: n,
            values: Vec::new(),
            filled: 0,
        });
        (end, cut) = (at + n, cut + n);
    }
    Some(Ok(table))
}

/// A run's vector of `n` elements, drawn from `vectors`. Storage of this
/// length or longer keeps what it holds, unwritten: every element is
/// received before the frame is decoded.
fn draw(vectors: &mut Pool, n: usize) -> Vec<f64> {
    let mut values = vectors.take(n);
    if values.is_empty() && values.capacity() == n {
        // Fresh storage: zeroed pages cost no pass over memory that the
        // reads are about to write.
        return vec![0.0; n];
    }
    values.truncate(n);
    values.resize(n, 0.0);
    values
}

/// Writes `bytes` into `run`'s elements as their little-endian bytes,
/// from its first on, as many as fit; returns how many did.
fn copy_into_run(run: &mut [f64], bytes: &[u8]) -> usize {
    let bytes = bytes.get(..8 * run.len()).unwrap_or(bytes);
    let (elems, tail) = bytes.as_chunks::<8>();
    for (x, b) in run.iter_mut().zip(elems) {
        *x = f64::from_le_bytes(*b);
    }
    if let Some(x) = run.get_mut(elems.len()).filter(|_| !tail.is_empty()) {
        let mut b = x.to_le_bytes();
        b.iter_mut().zip(tail).for_each(|(dst, src)| *dst = *src);
        *x = f64::from_le_bytes(b);
    }
    bytes.len()
}

/// A whole frame, as [`FrameReceiver::next_frame`] hands it out.
#[derive(Debug)]
pub struct Whole<'a> {
    meta: &'a [u8],
    runs: &'a mut [Run],
    wire_len: usize,
    refused: Option<CodecError>,
}

impl Whole<'_> {
    /// The frame's bytes on the wire, its prefix and run table included.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// The payload, for a frame without runs.
    pub fn payload(&self) -> Option<&[u8]> {
        (self.runs.is_empty() && self.refused.is_none()).then_some(self.meta)
    }

    /// Decodes the frame as one `T`, taking its runs as they are and
    /// drawing storage for its other `f64` sequences from `vectors`; a run
    /// the value did not take goes back to `vectors`.
    pub fn decode<T: Deserialize>(self, vectors: &mut Pool) -> Result<T, CodecError> {
        if let Some(refused) = self.refused {
            return Err(refused);
        }
        let total = self.meta.len() + self.runs.iter().map(|run| run.len).sum::<usize>();
        let decoded = {
            let mut storage = |len| vectors.take(len);
            let runs = &mut *self.runs;
            let mut de = BinDeserializer::new(self.meta, runs, total, &mut storage);
            match T::deserialize(&mut de) {
                Ok(value) if de.pos == de.bytes.len() && de.next_run == de.runs.len() => Ok(value),
                Ok(_) => Err(CodecError::TrailingBytes),
                Err(e) => Err(e),
            }
        };
        for run in self.runs.iter_mut().filter(|run| run.values.capacity() > 0) {
            vectors.give(std::mem::take(&mut run.values));
        }
        decoded
    }
}

/// The `f64` storage a host lends and takes back: each host's model
/// vectors, which the reactor also receives runs into.
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
pub struct Pool {
    /// Kept storage, largest capacity first.
    kept: Vec<Vec<f64>>,
    /// Capacity kept.
    kept_cap: usize,
    /// Capacity lent out and not yet given back.
    lent: usize,
    /// The most capacity lent out at one time.
    high_water: usize,
}

impl Pool {
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
    pub fn take(&mut self, room: usize) -> Vec<f64> {
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
    pub fn give(&mut self, storage: Vec<f64>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

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

            // The frame form is the same payload behind its header.
            let framed = to_frame_bytes(&bulk).unwrap();
            assert_eq!(framed.len(), framed.capacity(), "frame not exact-size");
            assert_eq!(payload_of(&framed), bytes);
            if 8 * dim < RUN_MIN {
                assert_eq!(framed[..4], (bytes.len() as u32).to_le_bytes());
            }
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

    /// `payload` as a frame without runs.
    fn framed(payload: &[u8]) -> Vec<u8> {
        [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
    }

    /// The payload of the one frame `wire` holds, behind its run table.
    fn payload_of(wire: &[u8]) -> Vec<u8> {
        let mut fb = FrameBuffer::new();
        fb.extend(wire);
        let payload = fb.next_frame().unwrap().expect("a whole frame").to_vec();
        assert!(fb.is_empty());
        payload
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let wire = [framed(b"hello"), framed(b""), framed(b"world!")].concat();
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
        let wire: Vec<u8> = (0..k).flat_map(|i| framed(&vec![i as u8; i % 7])).collect();
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
        let wire = framed(&payload).repeat(5_000);
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
        let wire = framed(&payload);
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

    /// The reactor's read chunk, and the run threshold it sends at.
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

    /// A link's receive side as the reactor drives it: a read through a
    /// chunk of `BULK` bytes or into a run, then every whole frame
    /// decoded.
    struct Link {
        rx: FrameReceiver,
        pool: Pool,
        chunk: Vec<u8>,
        /// Calls to `receive`.
        reads: usize,
    }

    impl Link {
        fn new() -> Link {
            Link {
                rx: FrameReceiver::new(),
                pool: Pool::new(),
                chunk: vec![0; BULK],
                reads: 0,
            }
        }

        /// One read.
        fn read(&mut self, src: &mut impl Read) -> io::Result<usize> {
            self.reads += 1;
            let chunk = &mut self.chunk;
            self.rx
                .receive(&mut self.pool, chunk, |landing| match landing {
                    Landing::Meta(buf) => src.read(buf),
                    Landing::Run(run, filled) => {
                        let mut bytes = vec![0u8; (8 * run.len() - filled).min(BULK)];
                        let n = src.read(&mut bytes)?;
                        for (k, &b) in bytes[..n].iter().enumerate() {
                            let (i, off) = ((filled + k) / 8, (filled + k) % 8);
                            let mut x = run[i].to_le_bytes();
                            x[off] = b;
                            run[i] = f64::from_le_bytes(x);
                        }
                        Ok(n)
                    }
                })
        }

        /// Every frame whole so far, decoded.
        fn deliver<T: Deserialize>(&mut self, out: &mut Vec<T>) {
            while let Some(frame) = self.rx.next_frame(&mut self.pool).unwrap() {
                out.push(frame.decode(&mut self.pool).unwrap());
            }
        }

        /// Reads and delivers until `src` ends.
        fn pump<T: Deserialize>(&mut self, src: &mut impl Read) -> Vec<T> {
            let mut out = Vec::new();
            loop {
                match self.read(src) {
                    Ok(0) => return out,
                    Ok(_) => self.deliver(&mut out),
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                }
            }
        }

        /// Bytes the receiver holds past the frames it handed out.
        fn held(&self) -> usize {
            self.rx.buf.len() - self.rx.head
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
    fn a_frame_lists_its_runs_and_one_without_runs_keeps_its_bytes() {
        // Runs of BULK / 8 and BULK / 4 elements around a short vector.
        let msg = parts(&[BULK / 8, 3, BULK / 4]);
        let payload = to_bytes(&msg);
        let wire = to_frame_bytes(&msg).unwrap();
        let word = |at: usize| u32::from_le_bytes(wire[at..at + 4].try_into().unwrap());
        let table = 4 + 2 * 8;
        assert_eq!(wire.len(), 4 + table + payload.len());
        assert_eq!(word(0), RUNS_FLAG | (table + payload.len()) as u32);
        assert_eq!(word(4), 2, "run count");
        // Variant, round, parts length, then per part its tuple length,
        // index and vector length.
        let first = 4 + 8 + 4 + (4 + 8 + 4);
        let second = first + BULK + (4 + 8 + 4 + 24) + (4 + 8 + 4);
        assert_eq!([word(8), word(12)], [first as u32, BULK as u32]);
        assert_eq!([word(16), word(20)], [second as u32, 2 * BULK as u32]);
        assert_eq!(wire[4 + table..], payload[..]);
        assert_eq!(frame_len(&msg, RUN_MIN).unwrap().wire_len(), wire.len());
        // Under the threshold: prefix and payload.
        let small = parts(&[BULK / 8 - 1]);
        assert_eq!(to_frame_bytes(&small).unwrap(), framed(&to_bytes(&small)));
    }

    #[test]
    fn frames_arrive_whole_through_any_reads() {
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
            assert!(link.rx.is_empty(), "{sizes:?}");
        }
    }

    #[test]
    fn many_small_frames_arrive_in_one_read() {
        let msgs: Vec<Msg> = (0..1000).map(|i| Msg::Note(format!("{i}"))).collect();
        let wire = wire_of(&msgs);
        assert!(wire.len() < BULK);
        let mut link = Link::new();
        let mut got: Vec<Msg> = Vec::new();
        assert_eq!(link.read(&mut &wire[..]).unwrap(), wire.len());
        link.deliver(&mut got);
        assert!(bits_of(&got) == bits_of(&msgs));
        assert!(link.rx.is_empty());
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
            if link.read(&mut src).is_ok() {
                link.deliver(&mut out);
            }
            // Only the header and meta bytes stay in the buffer.
            assert!(link.held() < 128, "{}", link.held());
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
    fn meta_bytes_are_read_up_to_the_next_run_and_no_further() {
        let msg = parts(&[7, BULK, 5, BULK / 2]);
        let wire = to_frame_bytes(&msg).unwrap();
        let mut link = Link::new();
        let mut src = Trickle::new(&wire, &[usize::MAX]);
        let mut out: Vec<Msg> = Vec::new();
        // The first read takes the header and as much as the chunk holds.
        link.read(&mut src).unwrap();
        link.deliver(&mut out);
        while out.is_empty() {
            let before = link.rx.runs.iter().map(|r| r.filled).sum::<usize>();
            let meta = link.held();
            let n = link.read(&mut src).unwrap();
            let into_runs = link.rx.runs.iter().map(|r| r.filled).sum::<usize>() - before;
            // A read goes to a run or to meta bytes, and meta reads stop
            // at the next run.
            assert!(into_runs == n || link.held() == meta + n, "read {n}");
            if let Some(run) = (link.rx.runs.get(link.rx.full)).filter(|r| r.filled < r.len) {
                assert!(link.held() - link.rx.body <= run.at, "read past a run");
            }
            link.deliver(&mut out);
        }
        assert_eq!(to_bytes(&out[0]), to_bytes(&msg));
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
        while link.read(&mut src).is_ok() {
            link.deliver(&mut out);
        }
        let run = &link.rx.runs[0];
        assert_eq!(
            link.held() + run.filled,
            half,
            "bytes read before the block were kept"
        );
        assert_eq!(link.pool.lent(), 2 * BULK, "its run's vector is drawn");
        assert_eq!(link.pump::<Msg>(&mut src).len() + out.len(), 1);
    }

    #[test]
    fn a_small_frame_behind_a_bulk_one_waits_in_the_buffer() {
        let msgs = [parts(&[BULK]), Msg::Note("next".into())];
        let wire = wire_of(&msgs);
        let (head, tail) = wire.split_at(wire.len() - 1);
        let mut link = Link::new();
        let got: Vec<Msg> = link.pump(&mut Trickle::new(head, &[1000]));
        assert_eq!(got.len(), 1);
        assert!(!link.rx.is_empty() && link.rx.runs.is_empty());
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
        while link.read(&mut src).is_ok_and(|n| n > 0) {
            link.deliver(&mut out);
        }
        assert_eq!(link.pool.lent(), 2 * BULK, "both runs drawn");
        link.rx.discard(&mut link.pool);
        assert_eq!((link.pool.lent(), link.pool.kept()), (0, 2 * BULK));
    }

    #[test]
    fn sequences_under_the_threshold_decode_into_pooled_storage() {
        let sent = Weights(patterned(4097));
        let wire = to_frame_bytes(&sent).unwrap();
        let mut link = Link::new();
        // Dirty storage of the sequence's length, and its address.
        let mut spare = link.pool.take(4097);
        spare.resize(4097, f64::NAN);
        let at = spare.as_ptr();
        link.pool.give(spare);
        let got: Vec<Weights> = link.pump(&mut &wire[..]);
        assert_eq!(got[0].0.as_ptr(), at, "decoded in place");
        assert_eq!(to_bytes(&got[0]), to_bytes(&sent), "bit for bit");
    }

    #[test]
    fn frame_buffer_skips_the_run_table_and_refuses_an_oversize_frame() {
        let msg = parts(&[BULK]);
        assert_eq!(payload_of(&to_frame_bytes(&msg).unwrap()), to_bytes(&msg));
        let mut fb = FrameBuffer::new();
        let mut header = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        header.extend([0u8; 64]);
        fb.extend(&header);
        assert!(fb.next_frame().is_err());
        assert!(
            fb.buf.capacity() < 1 << 10,
            "reserved from a refused header"
        );
    }

    #[test]
    fn frame_pieces_borrow_runs_and_stage_the_rest() {
        let msg = parts(&[BULK / 8, 3, BULK / 4]);
        let size = frame_len(&msg, BULK / 8).unwrap();
        let Msg::Parts { parts, .. } = &msg else {
            unreachable!()
        };
        let mut staged = Vec::new();
        let mut pieces = PieceList::new(16);
        let end = frame_pieces(&msg, size, 0, &mut staged, 1 << 10, &mut pieces);
        assert_eq!(end, size.wire_len());
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
            "header and meta, run, meta with the small run, run"
        );
        assert!(staged.len() < 128, "staged {} bytes", staged.len());
        // At the reactor's threshold these are `to_frame_bytes`' bytes.
        let size = frame_len(&msg, RUN_MIN).unwrap();
        let (mut staged, mut pieces) = (Vec::new(), PieceList::new(16));
        frame_pieces(&msg, size, 0, &mut staged, 1 << 10, &mut pieces);
        assert!(joined(&pieces, &staged) == to_frame_bytes(&msg).unwrap());
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
        let (sa, sb) = (frame_len(&a, 8).unwrap(), frame_len(&b, 8).unwrap());
        let cap = wa.len() + 5;
        let mut staged = Vec::new();
        let mut pieces = PieceList::new(4);
        assert_eq!(
            frame_pieces(&a, sa, 2, &mut staged, cap, &mut pieces),
            wa.len()
        );
        assert_eq!(frame_pieces(&b, sb, 0, &mut staged, cap, &mut pieces), 7);
        assert_eq!(pieces.as_slice(), [Piece::Staged(0..cap)]);
        assert_eq!(staged, [&wa[2..], &wb[..7]].concat());
        // Full: nothing more is appended, and the offset stays put.
        assert_eq!(frame_pieces(&b, sb, 7, &mut staged, cap, &mut pieces), 7);
        assert_eq!(staged.len(), cap);
        // A full list takes no new piece either.
        let msg = parts(&[BULK / 8]);
        let size = frame_len(&msg, BULK / 8).unwrap();
        let (mut staged, mut pieces) = (Vec::new(), PieceList::new(1));
        let end = frame_pieces(&msg, size, 0, &mut staged, 1 << 10, &mut pieces);
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
        let size = frame_len(&value, BULK).unwrap();
        visits.set(0);
        let (mut staged, mut pieces) = (Vec::new(), PieceList::new(4));
        let end = frame_pieces(&value, size, 0, &mut staged, 64, &mut pieces);
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
        assert_eq!(
            frame_len(&data, RUN_MIN).map(|f| f.wire_len()),
            Some(wire.len())
        );
        assert_eq!(&wire[8..], &data[..]);
        assert_eq!(from_bytes::<Vec<u8>>(&wire[4..]), Ok(data));
    }

    #[test]
    fn a_long_byte_sequence_is_received_a_read_chunk_at_a_time() {
        // A Raft snapshot's shape: meta bytes only, one long `Vec<u8>`.
        let data: Vec<u8> = (0..256 << 10).map(|i| i as u8).collect();
        let wire = to_frame_bytes(&data).unwrap();
        let mut link = Link::new();
        let got: Vec<Vec<u8>> = link.pump(&mut &wire[..]);
        // Four read chunks and the last 8 bytes, then the end of input.
        assert_eq!(link.reads - 1, 5);
        assert_eq!(got, [data]);
    }

    #[test]
    fn pool_lends_the_best_fit_and_keeps_no_more_than_its_high_water_mark() {
        let mut pool = Pool::new();
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
        let mut pool = Pool::new();
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
}
