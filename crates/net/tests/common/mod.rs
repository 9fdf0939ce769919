//! What the net crate's integration tests share: blocking frame IO on a
//! test socket, and a [`FrameReceiver`] driven from bytes in memory.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

use p2pfl_net::codec::{FrameReceiver, Landing, Pool, MAX_FRAME};
use serde::Deserialize;
use std::io::{self, Read, Write};

/// `payload` as a frame without runs: its length, then its bytes.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
}

/// Writes `payload` as one frame without runs, refusing one over
/// [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// Reads one frame without runs from a blocking reader.
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

/// The reactor's read chunk.
pub const READ_CHUNK: usize = 64 << 10;

/// Receives `bytes` into `rx` as a socket with all of them waiting
/// would: each call takes what its landing asks for, meta bytes through a
/// chunk of `chunk` bytes. Returns the calls to `receive`.
pub fn feed(rx: &mut FrameReceiver, pool: &mut Pool, mut bytes: &[u8], chunk: usize) -> usize {
    let (mut scratch, mut calls) = (vec![0u8; chunk], 0);
    while !bytes.is_empty() {
        calls += 1;
        let n = rx
            .receive(pool, &mut scratch, |landing| {
                Ok(match landing {
                    Landing::Meta(buf) => bytes.read(buf).unwrap(),
                    Landing::Run(run, filled) => {
                        let n = (8 * run.len() - filled).min(bytes.len());
                        write_run(run, filled, &bytes[..n]);
                        bytes = &bytes[n..];
                        n
                    }
                })
            })
            .expect("a frame the receiver can follow");
        assert!(n > 0, "no progress");
    }
    calls
}

/// Writes `src` into `run`'s elements as their little-endian bytes, from
/// byte `filled` of them on.
pub fn write_run(run: &mut [f64], filled: usize, src: &[u8]) {
    if filled.is_multiple_of(8) && src.len().is_multiple_of(8) {
        for (x, b) in run[filled / 8..].iter_mut().zip(src.chunks_exact(8)) {
            *x = f64::from_le_bytes(b.try_into().unwrap());
        }
        return;
    }
    for (k, &b) in src.iter().enumerate() {
        let (i, at) = ((filled + k) / 8, (filled + k) % 8);
        let mut x = run[i].to_le_bytes();
        x[at] = b;
        run[i] = f64::from_le_bytes(x);
    }
}

/// Every frame `rx` has whole, decoded as `T`.
pub fn decode_all<T: Deserialize>(
    rx: &mut FrameReceiver,
    pool: &mut Pool,
) -> Vec<Result<T, p2pfl_net::CodecError>> {
    let mut out = Vec::new();
    while let Some(frame) = rx.next_frame(pool).expect("framed") {
        out.push(frame.decode(pool));
    }
    out
}
