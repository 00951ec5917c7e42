//! Checksummed, length-prefixed message frames over byte streams.
//!
//! The network front door of `mbqc-net` speaks a framed request/response
//! protocol over TCP. This module owns the *transport* layer of that
//! protocol: how one logical message is delimited on a byte stream and
//! how corruption is detected. The *meaning* of a frame (verbs, status
//! codes, payload encodings) lives with the protocol crate; here a frame
//! is just `(kind, payload)`.
//!
//! # Wire layout
//!
//! Every frame is a fixed 17-byte header followed by the payload:
//!
//! ```text
//! offset  size  field     encoding
//! ------  ----  --------  ------------------------------------------
//!      0     4  magic     0x4D 0x42 0x51 0x31  (b"MBQ1")
//!      4     1  kind      opaque message tag (protocol-defined)
//!      5     4  len       payload length, little-endian u32
//!      9     8  checksum  frame_checksum(payload), little-endian u64
//!     17   len  payload   opaque bytes
//! ```
//!
//! The magic makes a desynchronized or non-protocol peer fail fast with
//! [`FrameError::BadMagic`] instead of misreading garbage as a length.
//! The length is bounded by a caller-supplied ceiling *before* any
//! allocation, so a corrupt or hostile prefix cannot trigger a huge
//! allocation ([`FrameError::Oversized`]). The checksum is verified on
//! every read ([`FrameError::BadChecksum`]). Unlike the store's
//! [`Fingerprint`](crate::fingerprint::Fingerprint) — computed once per
//! artifact — the frame checksum sits on the latency path of every
//! round trip (twice per direction: once to write, once to verify), so
//! [`frame_checksum`] is a wider four-lane multiply–rotate hash that
//! absorbs 32 bytes per step and shares only the SplitMix64 finalizer
//! with the fingerprint.
//!
//! Truncation — the stream ending mid-header or mid-payload — is
//! reported as [`FrameError::Truncated`], distinct from transport-level
//! I/O failures ([`FrameError::Io`]). None of the error paths panic and
//! none block past the underlying stream's own timeout configuration.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::frame::{read_frame, write_frame, Frame, MAX_FRAME_PAYLOAD};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, 0x42, b"hello").unwrap();
//! let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD).unwrap();
//! assert_eq!(frame.kind, 0x42);
//! assert_eq!(frame.payload, b"hello");
//! ```

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use crate::fingerprint::mix;

/// Frame magic: the first four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MBQ1";

/// Fixed header size: magic (4) + kind (1) + len (4) + checksum (8).
pub const FRAME_HEADER_LEN: usize = 17;

/// Default payload ceiling (64 MiB) — far above any real compilation
/// request, far below anything that could pressure the heap.
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// One decoded frame: an opaque message tag plus its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-defined message tag (verb or response kind).
    pub kind: u8,
    /// Opaque payload bytes; interpretation belongs to the protocol.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level failure from the underlying stream.
    Io(io::Error),
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The first four bytes were not [`FRAME_MAGIC`]: the peer is not
    /// speaking this protocol or the stream lost sync.
    BadMagic([u8; 4]),
    /// The length prefix exceeds the caller's ceiling; rejected before
    /// any allocation.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// Ceiling the reader imposed.
        max: u32,
    },
    /// The payload bytes do not match the header checksum.
    BadChecksum {
        /// Checksum carried by the header.
        expected: u64,
        /// Checksum of the bytes actually received.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload length {len} exceeds ceiling {max}")
            }
            FrameError::BadChecksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Checksum of a payload as carried in the frame header.
///
/// Four independent lanes each absorb one 8-byte word per 32-byte step
/// (`xor` → odd-multiplier `wrapping_mul` → rotate, a bijection of the
/// lane state, so any single corrupted word is guaranteed to change
/// the result); the payload length is folded in at the end so a frame
/// cannot collide with its zero-padded extension. Error detection
/// only — collision resistance is the store fingerprint's job — but it
/// runs several times faster than the fingerprint, which matters
/// because every frame is hashed twice per hop.
#[must_use]
pub fn frame_checksum(payload: &[u8]) -> u64 {
    frame_checksum_parts(&[payload])
}

/// [`frame_checksum`] of the concatenation of `parts`, computed
/// without concatenating them: the checksum of a payload that is
/// written as several slices (see [`write_frame_parts`]).
#[must_use]
pub fn frame_checksum_parts(parts: &[&[u8]]) -> u64 {
    let mut lanes = Lanes::new();
    // Bytes of a 32-byte step that straddles two parts.
    let mut carry = [0u8; 32];
    let mut carried = 0usize;
    let mut len = 0usize;
    for &part in parts {
        len += part.len();
        let mut part = part;
        if carried > 0 {
            let take = part.len().min(32 - carried);
            carry[carried..carried + take].copy_from_slice(&part[..take]);
            carried += take;
            part = &part[take..];
            if carried < 32 {
                continue;
            }
            lanes.step(&carry);
        }
        let mut chunks = part.chunks_exact(32);
        for ch in &mut chunks {
            lanes.step(ch);
        }
        let rest = chunks.remainder();
        carry[..rest.len()].copy_from_slice(rest);
        carried = rest.len();
    }
    lanes.finish(&carry[..carried], len)
}

/// The four lanes of [`frame_checksum`].
struct Lanes([u64; 4]);

impl Lanes {
    const M: [u64; 4] = [
        0xA076_1D64_78BD_642F,
        0xE703_7ED1_A0B4_28DB,
        0x8EBC_6AF0_9C88_C6E3,
        0x2545_F491_4F6C_DD1D,
    ];
    const ROT: [u32; 4] = [29, 31, 33, 37];

    fn new() -> Self {
        Self([
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0x94D0_49BB_1331_11EB,
        ])
    }

    fn absorb(&mut self, lane: usize, word: u64) {
        self.0[lane] = (self.0[lane] ^ word)
            .wrapping_mul(Self::M[lane])
            .rotate_left(Self::ROT[lane]);
    }

    /// One 32-byte step: one word into each lane.
    #[inline]
    fn step(&mut self, ch: &[u8]) {
        for lane in 0..4 {
            let at = 8 * lane;
            self.absorb(lane, word(&ch[at..at + 8]));
        }
    }

    /// Absorbs the final `rest` (under 32 bytes): whole words into the
    /// first lane, a zero-padded tail into the second; then folds the
    /// lanes and the payload length.
    fn finish(mut self, mut rest: &[u8], len: usize) -> u64 {
        while rest.len() >= 8 {
            self.absorb(0, word(&rest[..8]));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.absorb(1, u64::from_le_bytes(tail));
        }
        let [a, b, c, d] = self.0;
        mix(mix(a ^ c.rotate_left(17)) ^ mix(b ^ d.rotate_left(13)) ^ len as u64)
    }
}

fn word(s: &[u8]) -> u64 {
    u64::from_le_bytes(s.try_into().expect("8-byte word"))
}

/// Encodes a frame into a standalone byte vector (header + payload).
#[must_use]
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Writes one frame to `w` as one gather write (see
/// [`write_frame_parts`]).
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure, [`FrameError::Oversized`]
/// when the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_parts(w, kind, &[payload], frame_checksum(payload))
}

/// Writes one frame whose payload is the concatenation of `parts`, with
/// a `checksum` the caller already holds (it must equal
/// [`frame_checksum_parts`] of `parts`). Header and parts go out in
/// `write_vectored` calls, so no part is copied into a staging buffer
/// and a frame is never interleaved by a same-thread writer: request
/// and reply payloads run to hundreds of kilobytes, and a stored reply
/// can be written straight from the buffer that holds it. A short
/// write resumes where it stopped.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure, [`FrameError::Oversized`]
/// when the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn write_frame_parts<W: Write>(
    w: &mut W,
    kind: u8,
    parts: &[&[u8]],
    checksum: u64,
) -> Result<(), FrameError> {
    debug_assert_eq!(checksum, frame_checksum_parts(parts), "caller's checksum");
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = kind;
    header[5..9].copy_from_slice(&(len as u32).to_le_bytes());
    header[9..17].copy_from_slice(&checksum.to_le_bytes());
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(&header[..])
        .chain(parts.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut unwritten = &mut slices[..];
    while !unwritten.is_empty() {
        match w.write_vectored(unwritten) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, enforcing `max_payload` before allocating
/// and verifying the checksum after the payload arrives.
///
/// # Errors
///
/// Every corruption mode maps to a distinct [`FrameError`] variant —
/// truncation, bad magic, oversized length, checksum mismatch — and
/// transport failures surface as [`FrameError::Io`]. No error path
/// panics.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Frame, FrameError> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, max_payload, &mut payload)?;
    Ok(Frame { kind, payload })
}

/// [`read_frame`] into a buffer the caller keeps across frames: the
/// payload replaces `payload`'s contents, and the frame's kind is
/// returned. A reader of many frames (a server connection) reuses one
/// allocation whose pages are already mapped, instead of a fresh
/// zero-filled buffer per frame. The ceiling is checked before the
/// buffer grows; the errors are [`read_frame`]'s, and after one the
/// contents of `payload` are unspecified.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_payload: u32,
    payload: &mut Vec<u8>,
) -> Result<u8, FrameError> {
    payload.clear();
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4-byte slice"));
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let expected = u64::from_le_bytes(header[9..17].try_into().expect("8-byte slice"));
    payload.reserve_exact(len as usize);
    // `take` + `read_to_end` fills the spare capacity without zeroing
    // it first; a stream that ends early leaves the payload short.
    let got = Read::take(&mut *r, u64::from(len)).read_to_end(payload)?;
    if got < len as usize {
        return Err(FrameError::Truncated);
    }
    let actual = frame_checksum(payload);
    if actual != expected {
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"").unwrap();
        write_frame(&mut wire, 0xFF, b"payload bytes").unwrap();
        let mut r = wire.as_slice();
        let a = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap();
        let b = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!((a.kind, a.payload.as_slice()), (1, &b""[..]));
        assert_eq!(
            (b.kind, b.payload.as_slice()),
            (0xFF, &b"payload bytes"[..])
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_typed_at_every_prefix() {
        let wire = encode_frame(7, b"abcdef");
        for cut in 0..wire.len() {
            let err = read_frame(&mut &wire[..cut], MAX_FRAME_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = encode_frame(7, b"abc");
        wire[0] ^= 0x01;
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = encode_frame(7, b"abc");
        wire[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // A small reader-side ceiling rejects honest-but-large frames too.
        let wire = encode_frame(7, &[0u8; 64]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 16),
            Err(FrameError::Oversized { len: 64, max: 16 })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut wire = encode_frame(7, b"abcdef");
        let last = wire.len() - 1;
        wire[last] ^= 0x80;
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
            Err(FrameError::BadChecksum { .. })
        ));
        // Corrupting the stored checksum itself is equally typed.
        let mut wire = encode_frame(7, b"abcdef");
        wire[9] ^= 0x01;
        assert!(matches!(
            read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
            Err(FrameError::BadChecksum { .. })
        ));
    }
    /// The single-slice checksum as it was written before it could take
    /// parts: the oracle for [`frame_checksum_parts`].
    fn checksum_oracle(payload: &[u8]) -> u64 {
        const M0: u64 = 0xA076_1D64_78BD_642F;
        const M1: u64 = 0xE703_7ED1_A0B4_28DB;
        const M2: u64 = 0x8EBC_6AF0_9C88_C6E3;
        const M3: u64 = 0x2545_F491_4F6C_DD1D;
        let mut a = 0x9E37_79B9_7F4A_7C15u64;
        let mut b = 0xC2B2_AE3D_27D4_EB4Fu64;
        let mut c = 0x1656_67B1_9E37_79F9u64;
        let mut d = 0x94D0_49BB_1331_11EBu64;
        let mut chunks = payload.chunks_exact(32);
        for ch in &mut chunks {
            a = (a ^ word(&ch[0..8])).wrapping_mul(M0).rotate_left(29);
            b = (b ^ word(&ch[8..16])).wrapping_mul(M1).rotate_left(31);
            c = (c ^ word(&ch[16..24])).wrapping_mul(M2).rotate_left(33);
            d = (d ^ word(&ch[24..32])).wrapping_mul(M3).rotate_left(37);
        }
        let mut rest = chunks.remainder();
        while rest.len() >= 8 {
            a = (a ^ word(&rest[..8])).wrapping_mul(M0).rotate_left(29);
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            b = (b ^ u64::from_le_bytes(tail))
                .wrapping_mul(M1)
                .rotate_left(31);
        }
        mix(mix(a ^ c.rotate_left(17)) ^ mix(b ^ d.rotate_left(13)) ^ payload.len() as u64)
    }

    #[test]
    fn checksum_of_parts_equals_checksum_of_their_concatenation() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 37 + i / 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 100, 300] {
            let whole = &payload[..len];
            assert_eq!(frame_checksum(whole), checksum_oracle(whole), "len {len}");
            for cut in 0..=len {
                let (x, y) = whole.split_at(cut);
                assert_eq!(frame_checksum_parts(&[x, y]), checksum_oracle(whole));
                for cut2 in (cut..=len).step_by(5) {
                    let (y, z) = whole[cut..].split_at(cut2 - cut);
                    assert_eq!(
                        frame_checksum_parts(&[x, &[], y, z]),
                        checksum_oracle(whole),
                        "len {len} cuts {cut} {cut2}"
                    );
                }
            }
        }
    }

    /// A writer that accepts at most `step` bytes per call and only
    /// from the first non-empty slice, like a congested socket.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parts_write_the_frame_of_their_concatenation() {
        let whole: Vec<u8> = (0..200u8).collect();
        let parts: [&[u8]; 4] = [&whole[..10], &[], &whole[10..150], &whole[150..]];
        let want = encode_frame(5, &whole);
        for step in [1, 3, 17, 64, 1000] {
            let mut w = Trickle {
                out: Vec::new(),
                step,
            };
            write_frame_parts(&mut w, 5, &parts, frame_checksum_parts(&parts)).unwrap();
            assert_eq!(w.out, want, "step {step}");
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, 4, &[]).unwrap();
        assert_eq!(wire, encode_frame(4, &[]));
    }

    #[test]
    fn a_reused_buffer_reads_every_frame_exactly() {
        let mut wire = encode_frame(1, &[7u8; 5000]);
        wire.extend(encode_frame(2, b"short"));
        wire.extend(encode_frame(3, b""));
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        assert_eq!(
            read_frame_into(&mut r, MAX_FRAME_PAYLOAD, &mut buf).unwrap(),
            1
        );
        assert_eq!(buf, [7u8; 5000]);
        assert_eq!(
            read_frame_into(&mut r, MAX_FRAME_PAYLOAD, &mut buf).unwrap(),
            2
        );
        assert_eq!(buf, b"short");
        assert!(buf.capacity() >= 5000, "the allocation is kept");
        assert_eq!(
            read_frame_into(&mut r, MAX_FRAME_PAYLOAD, &mut buf).unwrap(),
            3
        );
        assert!(buf.is_empty() && r.is_empty());
        // The typed errors are read_frame's, and an oversized length
        // does not grow the buffer.
        let mut small = Vec::new();
        let big = encode_frame(7, &[0u8; 64]);
        assert!(matches!(
            read_frame_into(&mut big.as_slice(), 16, &mut small),
            Err(FrameError::Oversized { len: 64, max: 16 })
        ));
        assert_eq!(small.capacity(), 0);
        let wire = encode_frame(7, b"abcdef");
        for cut in 0..wire.len() {
            let err = read_frame_into(&mut &wire[..cut], MAX_FRAME_PAYLOAD, &mut buf).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut {cut}: {err:?}");
        }
        let mut bad = wire.clone();
        bad[20] ^= 1;
        assert!(matches!(
            read_frame_into(&mut bad.as_slice(), MAX_FRAME_PAYLOAD, &mut buf),
            Err(FrameError::BadChecksum { .. })
        ));
    }
}
