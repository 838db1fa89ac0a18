//! Record framing: `[u32 LE payload_len][u64 LE fnv64(payload)][payload]`.
//!
//! The frame is the unit of both data records and commit records. A frame is
//! valid iff its length prefix fits inside the remaining bytes and the FNV-64
//! checksum matches; scanning stops at the first invalid frame, which is how
//! a torn tail (partial write at crash) is detected and measured.

/// Frame header size: 4-byte length + 8-byte checksum.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a single payload; anything larger is treated as corruption
/// (a torn length prefix can otherwise claim gigabytes).
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// FNV-1a over a byte slice — the same hash family the snapshot store and
/// RNG tree use, chosen for stability, not cryptography.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Append one frame to `out`.
pub fn encode_into(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Total on-disk size of a frame for a payload of `len` bytes.
pub fn frame_len(len: usize) -> u64 {
    (HEADER_LEN + len) as u64
}

/// One valid frame found by [`scan`].
pub struct Frame {
    /// Byte offset just past this frame (where the next frame starts).
    pub end: u64,
    pub payload: Vec<u8>,
}

/// Result of scanning a byte buffer for consecutive valid frames.
pub struct Scan {
    /// Every valid frame, in order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix (end offset of the last valid frame).
    pub valid_len: u64,
    /// Bytes past the valid prefix — a torn or corrupt tail if nonzero.
    pub torn_bytes: u64,
}

impl Scan {
    /// The payloads alone, consuming the scan.
    pub fn into_payloads(self) -> Vec<Vec<u8>> {
        self.frames.into_iter().map(|f| f.payload).collect()
    }
}

/// Iterator over the valid-prefix payloads of a frame buffer, borrowing
/// from it — the zero-copy counterpart of [`scan`] for readers that only
/// need each payload once (e.g. replay decoding straight out of the segment
/// bytes). Stops at the first invalid frame, exactly like [`scan`].
pub struct PayloadIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadIter<'a> {
    /// Byte offset of the next unread frame — after exhaustion, the valid
    /// prefix length ([`Scan::valid_len`] of the same buffer).
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }
}

impl<'a> Iterator for PayloadIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let header = self.bytes.get(self.pos..self.pos + HEADER_LEN)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return None;
        }
        let sum = u64::from_le_bytes(header[4..].try_into().unwrap());
        let body_start = self.pos + HEADER_LEN;
        let payload = self.bytes.get(body_start..body_start + len as usize)?;
        if fnv64(payload) != sum {
            return None;
        }
        self.pos = body_start + len as usize;
        Some(payload)
    }
}

/// Borrowing frame walk over `bytes` starting at `start`.
pub fn payloads(bytes: &[u8], start: u64) -> PayloadIter<'_> {
    PayloadIter {
        bytes,
        pos: start as usize,
    }
}

/// Length of the checksum-valid frame prefix of `bytes` starting at
/// `start`, without materializing any payload: `(valid_len, torn_bytes)`.
/// Recovery analysis only needs these two numbers per segment, and the
/// allocation-free walk keeps the open-time scan bounded by I/O even on
/// million-record segments.
pub fn valid_len(bytes: &[u8], start: u64) -> (u64, u64) {
    let mut it = payloads(bytes, start);
    for _ in it.by_ref() {}
    let valid = it.offset();
    (valid, bytes.len() as u64 - valid)
}

/// Scan `bytes` (starting at `start`) for consecutive valid frames.
///
/// `start` lets callers skip a file header. Scanning is strict-prefix: the
/// first length overrun or checksum mismatch ends the valid region, even if
/// later bytes happen to look like frames again — after a torn write nothing
/// beyond the tear is trustworthy.
pub fn scan(bytes: &[u8], start: u64) -> Scan {
    let mut pos = start as usize;
    let mut frames = Vec::new();
    while let Some(header) = bytes.get(pos..pos + HEADER_LEN) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        if len > MAX_PAYLOAD {
            break;
        }
        let sum = u64::from_le_bytes(header[4..].try_into().unwrap());
        let body_start = pos + HEADER_LEN;
        let Some(payload) = bytes.get(body_start..body_start + len as usize) else {
            break;
        };
        if fnv64(payload) != sum {
            break;
        }
        pos = body_start + len as usize;
        frames.push(Frame {
            end: pos as u64,
            payload: payload.to_vec(),
        });
    }
    Scan {
        frames,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            encode_into(p, &mut out);
        }
        out
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let buf = buf_with(&[b"alpha", b"", b"gamma ray"]);
        let s = scan(&buf, 0);
        assert_eq!(s.valid_len, buf.len() as u64);
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(
            s.into_payloads(),
            vec![b"alpha".to_vec(), vec![], b"gamma ray".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut buf = buf_with(&[b"first", b"second"]);
        let full = buf.len();
        // A torn third frame: header promises more bytes than exist.
        encode_into(b"third-record-payload", &mut buf);
        buf.truncate(full + HEADER_LEN + 4);
        let s = scan(&buf, 0);
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[0].end, frame_len(5));
        assert_eq!(s.valid_len, full as u64);
        assert_eq!(s.torn_bytes, (HEADER_LEN + 4) as u64);
    }

    #[test]
    fn checksum_flip_ends_the_valid_prefix() {
        let mut buf = buf_with(&[b"aaaa", b"bbbb", b"cccc"]);
        // Flip one payload byte of the middle frame.
        let mid = frame_len(4) as usize + HEADER_LEN;
        buf[mid] ^= 0x40;
        let s = scan(&buf, 0);
        // Strict prefix: the third frame is unreachable even though intact.
        assert_eq!(s.valid_len, frame_len(4));
        assert_eq!(s.into_payloads(), vec![b"aaaa".to_vec()]);
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        let s = scan(&buf, 0);
        assert!(s.frames.is_empty());
        assert_eq!(s.valid_len, 0);
    }

    #[test]
    fn scan_respects_start_offset() {
        let mut buf = b"HEADER--".to_vec();
        encode_into(b"x", &mut buf);
        let s = scan(&buf, 8);
        assert_eq!(s.into_payloads(), vec![b"x".to_vec()]);
    }

    #[test]
    fn valid_len_agrees_with_scan() {
        let mut buf = buf_with(&[b"first", b"second", b"third"]);
        buf.extend_from_slice(b"torn tail bytes");
        let s = scan(&buf, 0);
        assert_eq!(valid_len(&buf, 0), (s.valid_len, s.torn_bytes));
        assert_eq!(valid_len(b"", 0), (0, 0));
    }

    #[test]
    fn fnv_is_frozen() {
        // The workspace FNV variant (same offset basis and multiplier as
        // `simcore::fnv1a`, the body hash). Pin one value: these checksums are
        // on disk, so the function must never change.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ b'a' as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
            h
        });
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
