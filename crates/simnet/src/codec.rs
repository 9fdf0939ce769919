//! Compact binary wire format and length-delimited framing.
//!
//! The codec implements the workspace serde data model
//! ([`serde::Serializer`] / [`serde::Deserializer`]) over a flat byte
//! buffer:
//!
//! * integers are fixed-width little-endian (`u64`/`i64` as 8 bytes,
//!   floats as their IEEE-754 bit patterns);
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

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::io::{self, Read, Write};

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
    let mut de = BinDeserializer { bytes, pos: 0 };
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

/// Where [`BinSerializer`] puts its bytes: a growing buffer, or a counter
/// that only sizes one.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    /// A run of `f64`s as consecutive little-endian bit patterns.
    fn put_f64s(&mut self, v: &[f64]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_f64s(&mut self, v: &[f64]) {
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
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 = self.0.saturating_add(bytes.len());
    }

    fn put_f64s(&mut self, v: &[f64]) {
        self.0 = self.0.saturating_add(v.len().saturating_mul(8));
    }
}

/// Event-stream serializer writing the compact binary format.
struct BinSerializer<S> {
    out: S,
}

impl<S: Sink> Serializer for BinSerializer<S> {
    type Error = CodecError;

    fn ser_bool(&mut self, v: bool) -> Result<(), CodecError> {
        self.out.put(&[v as u8]);
        Ok(())
    }
    fn ser_u64(&mut self, v: u64) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn ser_i64(&mut self, v: i64) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn ser_f32(&mut self, v: f32) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn ser_f64(&mut self, v: f64) -> Result<(), CodecError> {
        self.out.put(&v.to_le_bytes());
        Ok(())
    }
    fn ser_str(&mut self, v: &str) -> Result<(), CodecError> {
        self.write_len(v.len())?;
        self.out.put(v.as_bytes());
        Ok(())
    }

    fn begin_seq(&mut self, len: usize) -> Result<(), CodecError> {
        self.write_len(len)
    }
    fn seq_element(&mut self) -> Result<(), CodecError> {
        Ok(())
    }
    fn end_seq(&mut self) -> Result<(), CodecError> {
        Ok(())
    }
    /// The bulk path of a model vector: prefix, then every element's bit
    /// pattern in one copy — byte for byte what the element-wise events
    /// produce.
    fn ser_f64_seq(&mut self, v: &[f64]) -> Result<(), CodecError> {
        self.write_len(v.len())?;
        self.out.put_f64s(v);
        Ok(())
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
        index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<(), CodecError> {
        self.out.put(&index.to_le_bytes());
        Ok(())
    }
    fn end_variant(&mut self) -> Result<(), CodecError> {
        Ok(())
    }

    fn ser_none(&mut self) -> Result<(), CodecError> {
        self.out.put(&[0]);
        Ok(())
    }
    fn begin_some(&mut self) -> Result<(), CodecError> {
        self.out.put(&[1]);
        Ok(())
    }
}

impl<S: Sink> BinSerializer<S> {
    fn write_len(&mut self, len: usize) -> Result<(), CodecError> {
        let len =
            u32::try_from(len).map_err(|_| CodecError::Invalid("sequence longer than u32::MAX"))?;
        self.out.put(&len.to_le_bytes());
        Ok(())
    }
}

/// Event-stream deserializer reading the compact binary format.
pub struct BinDeserializer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinDeserializer<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Eof)?;
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
        let available = self.bytes.len() - self.pos;
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
    /// The bulk path of a model vector. The declared count is checked
    /// against the remaining input twice before anything is allocated —
    /// `read_len` (one byte per element at least) and then `take` of the
    /// full `8 * n` bytes — so a hostile prefix sizes nothing.
    fn de_f64_seq(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.read_len()?;
        let nbytes = n.checked_mul(8).ok_or(CodecError::Eof)?;
        let (elems, _) = self.take(nbytes)?.as_chunks::<8>();
        Ok(elems.iter().map(|b| f64::from_le_bytes(*b)).collect())
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
/// payload) in a single exact-size allocation — the batched write path of
/// the async reactor queues these verbatim and hands them to vectored
/// writes, so no per-frame copy or extra syscall happens later. Returns
/// `None` when the value cannot be encoded or exceeds [`MAX_FRAME`].
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
/// A *bulk* frame — one over a threshold the caller names, the reactor's
/// read chunk — lives in storage lent by a [`BulkPool`], and only while
/// it is in flight. Once its header is in, [`FrameBuffer::read_bulk`]
/// reads the rest of it from the source straight into that storage; once
/// the buffer has handed it out and holds nothing else,
/// [`FrameBuffer::release`] gives the storage back to the pool. Smaller
/// frames keep the buffer's own storage.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor: everything before it was already handed out.
    head: usize,
    /// Whether `buf` was lent by a [`BulkPool`] and goes back to it.
    lent: bool,
    /// Whether a bulk frame has passed through before the one in `buf`.
    carried_bulk: bool,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.extend_with_pool(bytes, MAX_FRAME, &mut BulkPool::new());
    }

    /// Appends freshly received bytes. A frame of more than `bulk` bytes
    /// that the buffer has no room for takes its storage from `pool`.
    pub fn extend_with_pool(&mut self, bytes: &[u8], bulk: usize, pool: &mut BulkPool) {
        self.make_room(bytes, bulk, pool);
        self.buf.extend_from_slice(bytes);
    }

    /// Makes room for `bytes` and, once the next frame's header is in,
    /// for that whole frame.
    fn make_room(&mut self, bytes: &[u8], bulk: usize, pool: &mut BulkPool) {
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let held = self.buf.len() - self.head;
        // With the header in, make room for the whole frame in one step
        // instead of doubling up to it 64 KiB read by 64 KiB read. The
        // MAX_FRAME cap bounds what a hostile header can reserve.
        let frame = self.pending_len_with(bytes).filter(|&len| len <= MAX_FRAME);
        let room = frame.map_or(0, |len| 4 + len).max(held + bytes.len());
        if self.buf.capacity() < self.head + room {
            let is_bulk = frame.is_some_and(|len| len > bulk);
            if is_bulk || self.lent {
                // Lent storage is swapped, never regrown: the pool counts
                // it by the capacity it lent.
                let mut storage = if is_bulk {
                    pool.take(room)
                } else {
                    Vec::with_capacity(room)
                };
                storage.extend_from_slice(self.buf.get(self.head..).unwrap_or_default());
                let old = std::mem::replace(&mut self.buf, storage);
                if std::mem::replace(&mut self.lent, is_bulk) {
                    pool.give(old, self.carried_bulk);
                }
                self.head = 0;
            } else {
                self.buf.reserve(room - held);
            }
        }
    }

    /// Reads the rest of a pending bulk frame — one of more than `bulk`
    /// bytes whose header is in — from `src` straight into storage that
    /// holds the whole frame, taken from `pool` if the buffer has no room
    /// for it, and not a byte past the frame's end. Reads until the frame
    /// is whole or `src` fails, keeping every byte that arrived either
    /// way; a non-blocking `src` fails with `WouldBlock` once it has
    /// nothing more for now. `None` when no bulk frame is pending;
    /// otherwise whether the frame is now whole (`Ok(false)`: `src` ended
    /// first).
    pub fn read_bulk(
        &mut self,
        src: &mut impl Read,
        bulk: usize,
        pool: &mut BulkPool,
    ) -> Option<io::Result<bool>> {
        let len = self
            .pending_len_with(&[])
            .filter(|&len| len > bulk && len <= MAX_FRAME)?;
        let rest = (self.head + 4 + len)
            .checked_sub(self.buf.len())
            .filter(|&rest| rest > 0)?;
        // The header may have come in behind a smaller frame, sized for
        // that one; making room moves the frame, not where it ends.
        self.make_room(&[], bulk, pool);
        let read = src.take(rest as u64).read_to_end(&mut self.buf);
        Some(read.map(|n| n == rest))
    }

    /// Gives lent storage back to `pool` once the buffer holds nothing
    /// else: every bulk frame it carried was handed out. The buffer goes
    /// on empty. Does nothing while a frame is still in flight, or when
    /// only smaller frames passed through.
    pub fn release(&mut self, pool: &mut BulkPool) {
        if self.lent && self.is_empty() {
            pool.give(std::mem::take(&mut self.buf), self.carried_bulk);
            self.head = 0;
            self.lent = false;
            self.carried_bulk = true;
        }
    }

    /// Drops whatever the buffer holds, giving lent storage back to
    /// `pool`: the stream it read is gone. The buffer goes on empty.
    pub fn discard(&mut self, pool: &mut BulkPool) {
        let gone = std::mem::take(self);
        if gone.lent {
            pool.give(gone.buf, gone.carried_bulk);
        }
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
}

/// Released bulk receive storage, kept for the next bulk frames that fit.
///
/// Every bulk frame's storage is lent by the pool and comes back through
/// [`FrameBuffer::release`] or [`FrameBuffer::discard`], so the pool
/// knows how much bulk storage its buffers hold at once. What it keeps
/// plus what it has lent never exceeds its high-water mark, the most it
/// has had lent at one time: the pool holds nothing that its buffers did
/// not already hold at once. It keeps storage for the buffers that come
/// back for more: what a buffer gives back after its first bulk frame is
/// kept only while the pool holds nothing else, as the one spare a
/// one-off burst leaves behind. A frame takes the smallest kept storage
/// that fits it (best fit). One that nothing fits allocates, and kept
/// storage is dropped, smallest first, while the total would pass the
/// mark.
#[derive(Debug, Default)]
pub struct BulkPool {
    kept: Vec<Vec<u8>>,
    /// Capacity lent out and not yet given back.
    lent: usize,
    /// The most capacity lent out at one time.
    high_water: usize,
}

impl BulkPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the storage kept for reuse.
    fn kept(&self) -> usize {
        self.kept.iter().map(Vec::capacity).sum()
    }

    /// Lends storage that holds `room` bytes.
    fn take(&mut self, room: usize) -> Vec<u8> {
        let fit = (self.kept.iter().enumerate())
            .filter(|(_, s)| s.capacity() >= room)
            .min_by_key(|(_, s)| s.capacity())
            .map(|(i, _)| i);
        let storage = match fit {
            Some(i) => self.kept.swap_remove(i),
            None => {
                let storage = Vec::with_capacity(room);
                let lent = self.lent + storage.capacity();
                self.high_water = self.high_water.max(lent);
                let mut kept = self.kept();
                self.kept
                    .sort_unstable_by_key(|s| std::cmp::Reverse(s.capacity()));
                while kept + lent > self.high_water {
                    let Some(dropped) = self.kept.pop() else {
                        break;
                    };
                    kept -= dropped.capacity();
                }
                storage
            }
        };
        self.lent += storage.capacity();
        storage
    }

    /// Takes lent storage back; `repeat` says whether it carried its
    /// buffer's second or later bulk frame.
    fn give(&mut self, mut storage: Vec<u8>, repeat: bool) {
        self.lent = self.lent.saturating_sub(storage.capacity());
        if repeat || self.kept.is_empty() {
            storage.clear();
            self.kept.push(storage);
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

    fn framed(len: usize, fill: u8) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![fill; len]).unwrap();
        wire
    }

    /// Feeds `wire` in `chunk`-byte reads through `pool`, collecting
    /// every frame as it completes and releasing lent storage after.
    fn feed(fb: &mut FrameBuffer, wire: &[u8], chunk: usize, pool: &mut BulkPool) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            fb.extend_with_pool(piece, BULK, pool);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f.to_vec());
            }
            fb.release(pool);
        }
        frames
    }

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

    /// One readiness event as the reactor serves it: the rest of a bulk
    /// frame in place, anything else through a scratch chunk, every
    /// frame handed out as it completes and lent storage given back once
    /// the buffer is empty. `Ok` once `src` has ended; `WouldBlock` when
    /// it has nothing more for now.
    fn pump(
        fb: &mut FrameBuffer,
        src: &mut impl Read,
        pool: &mut BulkPool,
        frames: &mut Vec<Vec<u8>>,
    ) -> io::Result<()> {
        let mut scratch = [0u8; 1000];
        loop {
            let more = match fb.read_bulk(src, BULK, pool) {
                Some(read) => read?,
                None => {
                    let n = src.read(&mut scratch)?;
                    fb.extend_with_pool(&scratch[..n], BULK, pool);
                    n > 0
                }
            };
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f.to_vec());
            }
            fb.release(pool);
            if !more {
                return Ok(());
            }
        }
    }

    /// Serves readiness events until `src` ends.
    fn pump_to_end(
        fb: &mut FrameBuffer,
        src: &mut impl Read,
        pool: &mut BulkPool,
        frames: &mut Vec<Vec<u8>>,
    ) {
        while let Err(e) = pump(fb, src, pool, frames) {
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        }
    }

    /// Bytes that differ from their neighbours, so a misplaced or
    /// repeated piece shows.
    fn numbered(len: usize, salt: u8) -> Vec<u8> {
        let mut wire = Vec::new();
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 ^ salt).collect();
        write_frame(&mut wire, &payload).unwrap();
        wire
    }

    #[test]
    fn bulk_frames_read_in_place_arrive_whole() {
        // Bulk frames around small ones, through odd pieces that split
        // every header somewhere, the first one byte at a time.
        let mut wire = numbered(3 * BULK + 5, 1);
        wire.extend(numbered(9, 2));
        wire.extend(numbered(BULK + 1, 3));
        wire.extend(numbered(BULK, 4));
        wire.extend(numbered(2 * BULK, 5));
        for sizes in [&[1, 1, 1, 1, 70_001][..], &[3, 7, 65_537, 13], &[2, 999]] {
            let mut src = Trickle::new(&wire, sizes);
            let (mut fb, mut pool, mut frames) = (FrameBuffer::new(), BulkPool::new(), Vec::new());
            pump_to_end(&mut fb, &mut src, &mut pool, &mut frames);
            let want: Vec<Vec<u8>> = [(3 * BULK + 5, 1), (9, 2), (BULK + 1, 3), (BULK, 4)]
                .into_iter()
                .chain([(2 * BULK, 5)])
                .map(|(len, salt)| numbered(len, salt)[4..].to_vec())
                .collect();
            assert!(frames == want, "{sizes:?}: frames differ");
            assert!(fb.is_empty() && !fb.lent, "{sizes:?}");
        }
    }

    #[test]
    fn bulk_frame_read_in_place_keeps_its_storage() {
        // From the read that brings the header in to the frame's end, the
        // bytes land in the storage taken then: nothing regrows it.
        let wire = numbered(5 * BULK, 6);
        let mut src = Trickle::new(&wire, &[10, 4 * BULK, BULK, 100]);
        let (mut fb, mut pool, mut frames) = (FrameBuffer::new(), BulkPool::new(), Vec::new());
        assert!(pump(&mut fb, &mut src, &mut pool, &mut frames).is_err());
        let (at, cap) = (fb.buf.as_ptr(), fb.buf.capacity());
        assert_eq!(cap, wire.len(), "sized from the header");
        let mut reads = 0;
        while fb.read_bulk(&mut src, BULK, &mut pool).is_some() {
            assert_eq!((fb.buf.as_ptr(), fb.buf.capacity()), (at, cap), "regrew");
            reads += 1;
        }
        assert_eq!(reads, 2, "one call per readiness event");
        assert_eq!(fb.next_frame().unwrap().unwrap(), &wire[4..]);
    }

    #[test]
    fn would_block_mid_frame_keeps_the_partial_frame() {
        let wire = numbered(2 * BULK, 7);
        let half = wire.len() / 2;
        let sizes = [half, usize::MAX];
        let mut src = Trickle::new(&wire, &sizes);
        let (mut fb, mut pool, mut frames) = (FrameBuffer::new(), BulkPool::new(), Vec::new());
        let blocked = pump(&mut fb, &mut src, &mut pool, &mut frames).unwrap_err();
        assert_eq!(blocked.kind(), io::ErrorKind::WouldBlock);
        assert!(frames.is_empty() && !fb.is_empty());
        assert_eq!(fb.buf.len(), half, "bytes read before the block were kept");
        fb.release(&mut pool);
        assert_eq!(pool.kept(), 0, "released a frame in flight");
        pump(&mut fb, &mut src, &mut pool, &mut frames).unwrap();
        assert!(frames == [wire[4..].to_vec()]);
        assert_eq!(pool.kept(), wire.len(), "given back once delivered");
    }

    #[test]
    fn bulk_header_behind_a_small_frame_takes_storage_from_the_pool() {
        // One read ends with a small frame and the next frame's header:
        // the buffer was sized for the small frame, and the in-place read
        // must not grow that to the bulk frame's size on the link.
        let mut wire = numbered(100, 8);
        let small = wire.len();
        wire.extend(numbered(3 * BULK, 9));
        let sizes = [small + 4, usize::MAX];
        let mut src = Trickle::new(&wire, &sizes);
        let (mut fb, mut pool, mut frames) = (FrameBuffer::new(), BulkPool::new(), Vec::new());
        pump(&mut fb, &mut src, &mut pool, &mut frames).unwrap_err();
        pump(&mut fb, &mut src, &mut pool, &mut frames).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(frames[1] == wire[small + 4..]);
        assert_eq!(pool.kept(), 4 + 3 * BULK, "the frame's storage was lent");
        assert!(fb.buf.capacity() < BULK, "the link kept bulk storage");
    }

    #[test]
    fn bulk_frame_storage_is_given_back_once_delivered() {
        let wire = framed(3 << 20, 1);
        let (mut fb, mut pool) = (FrameBuffer::new(), BulkPool::new());
        let frames = feed(&mut fb, &wire, BULK, &mut pool);
        assert_eq!(frames, vec![vec![1u8; 3 << 20]]);
        assert_eq!(pool.kept(), wire.len());
        assert_eq!(fb.buf.capacity(), 0, "the buffer goes on empty");
        fb.release(&mut pool);
        assert_eq!(pool.kept(), wire.len(), "released twice");

        // The next frames flow as on a fresh buffer.
        let frames = feed(&mut fb, &framed(5, 2), BULK, &mut pool);
        assert_eq!(frames, vec![vec![2u8; 5]]);
    }

    #[test]
    fn small_frame_storage_stays_on_the_link() {
        // Frames up to the threshold never release, however many pass,
        // and never take from the pool.
        let mut wire = Vec::new();
        for len in [10_000, BULK, 1, BULK - 4] {
            wire.extend(framed(len, 3));
        }
        let mut pool = BulkPool::new();
        let lent = pool.take(1 << 20);
        pool.give(lent, true);
        let mut fb = FrameBuffer::new();
        assert_eq!(feed(&mut fb, &wire, 700, &mut pool).len(), 4);
        assert_eq!(fb.next_frame(), Ok(None));
        assert!(fb.buf.capacity() > 0 && !fb.lent);
        assert_eq!(pool.kept(), 1 << 20, "pool storage taken");
    }

    #[test]
    fn later_bulk_frames_take_released_storage_by_best_fit() {
        // Three links each carry a bulk frame at once, then another: the
        // pool keeps what came back and lends each later frame the
        // smallest storage that holds it.
        let sizes = [BULK + 1, 3 * BULK, 2 * BULK];
        let mut pool = BulkPool::new();
        let mut links: Vec<FrameBuffer> = sizes.iter().map(|_| FrameBuffer::new()).collect();
        for round in 0..2 {
            for (fb, &len) in links.iter_mut().zip(&sizes) {
                fb.extend_with_pool(&framed(len, 1)[..BULK], BULK, &mut pool);
            }
            assert_eq!(pool.high_water, sizes.iter().map(|l| 4 + l).sum::<usize>());
            for (fb, &len) in links.iter_mut().zip(&sizes) {
                assert_eq!(feed(fb, &framed(len, 1)[BULK..], BULK, &mut pool).len(), 1);
            }
            // A link's first bulk frame leaves one spare; later ones all
            // come back.
            let kept = if round == 0 {
                4 + BULK + 1
            } else {
                pool.high_water
            };
            assert_eq!(pool.kept(), kept, "round {round}");
        }
        let mid = (pool.kept.iter())
            .find(|s| s.capacity() == 4 + 2 * BULK)
            .map(|s| s.as_ptr());
        let (mut fb, kept) = (FrameBuffer::new(), pool.kept());
        // Fits the two larger; the smaller of those is lent.
        fb.extend_with_pool(&framed(BULK + 2, 2)[..10], BULK, &mut pool);
        assert_eq!(Some(fb.buf.as_ptr()), mid);
        assert_eq!(pool.kept(), kept - (4 + 2 * BULK));
    }

    #[test]
    fn pool_never_keeps_more_than_its_high_water_mark() {
        // Links whose frames grow round by round: nothing kept fits, so
        // every frame allocates, and the kept storage that would pass the
        // mark goes, smallest first.
        let mut pool = BulkPool::new();
        let mut links: Vec<FrameBuffer> = (0..4).map(|_| FrameBuffer::new()).collect();
        for round in 1..=6 {
            for (i, fb) in links.iter_mut().enumerate() {
                let len = round * BULK + i * 1000 + 1;
                fb.extend_with_pool(&framed(len, 0)[..100], BULK, &mut pool);
                assert!(pool.kept() + pool.lent <= pool.high_water, "round {round}");
            }
            for (i, fb) in links.iter_mut().enumerate() {
                let len = round * BULK + i * 1000 + 1;
                feed(fb, &framed(len, 0)[100..], BULK, &mut pool);
                assert!(pool.kept() + pool.lent <= pool.high_water, "round {round}");
            }
        }
        assert_eq!(pool.lent, 0);
        assert_eq!(pool.kept(), pool.high_water, "the last round's storage");
        // A link gone mid-frame gives its storage back too.
        let mut fb = FrameBuffer::new();
        fb.extend_with_pool(&framed(2 * BULK, 0)[..100], BULK, &mut pool);
        assert!(pool.lent > 0);
        fb.discard(&mut pool);
        assert_eq!(pool.lent, 0);
    }

    #[test]
    fn oversize_header_takes_nothing_from_the_pool() {
        let mut pool = BulkPool::new();
        let lent = pool.take(1 << 10);
        pool.give(lent, true);
        let mut header = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
        header.extend([0u8; 64]);
        let mut fb = FrameBuffer::new();
        fb.extend_with_pool(&header, BULK, &mut pool);
        assert!(fb.read_bulk(&mut &[0u8; 64][..], BULK, &mut pool).is_none());
        assert!(fb.next_frame().is_err());
        assert_eq!(pool.kept(), 1 << 10, "an unframeable header took storage");
        assert_eq!(pool.high_water, 1 << 10);
        assert!(
            fb.buf.capacity() < 1 << 10,
            "reserved from a refused header"
        );
    }

    #[test]
    fn small_frame_queued_behind_a_bulk_one() {
        // The in-place read stops at the bulk frame's end, so its storage
        // goes back before the next frame is read, and that one lands in
        // the buffer's own storage.
        let mut wire = numbered(2 * BULK, 5);
        wire.extend(numbered(9, 6));
        let (mut fb, mut pool, mut frames) = (FrameBuffer::new(), BulkPool::new(), Vec::new());
        let (head, tail) = wire.split_at(wire.len() - 1);
        pump_to_end(
            &mut fb,
            &mut Trickle::new(head, &[1000]),
            &mut pool,
            &mut frames,
        );
        assert_eq!(frames.len(), 1);
        assert_eq!(pool.kept(), 4 + 2 * BULK, "kept once the bulk frame left");
        assert!(!fb.is_empty() && !fb.lent);
        pump_to_end(
            &mut fb,
            &mut Trickle::new(tail, &[1000]),
            &mut pool,
            &mut frames,
        );
        assert!(frames[1] == wire[wire.len() - 9..]);
    }

    #[test]
    fn blocking_read_frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"abc");
    }
}
