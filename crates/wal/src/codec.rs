//! Hand-rolled little-endian binary codec for WAL payloads and snapshots.
//!
//! No format crate: records are short-lived internal artifacts whose layout
//! is pinned by DESIGN.md §10, and a ~100-line encoder keeps the durability
//! layer dependency-free (and auditable byte by byte).

use std::fmt;

/// Decoding failure: the buffer did not match the expected layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed record: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(x) => self.bool(true).u64(x),
            None => self.bool(false),
        }
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Append an optional length-prefixed string.
    pub fn opt_str(&mut self, v: Option<&str>) -> &mut Self {
        match v {
            Some(s) => self.bool(true).str(s),
            None => self.bool(false),
        }
    }
}

/// Cursor-based decoder over an encoded buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool byte (anything non-zero is true).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError("invalid utf-8"))
    }

    /// Read an optional length-prefixed string.
    pub fn opt_str(&mut self) -> Result<Option<String>, CodecError> {
        if self.bool()? {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }
}

/// FNV-1a 64-bit checksum over `parts`, concatenated in order.
pub(crate) fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        let mut e = Enc::new();
        e.u8(7)
            .bool(true)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .opt_u64(Some(42))
            .opt_u64(None)
            .bytes(b"raw")
            .str("héllo")
            .opt_str(Some("x"))
            .opt_str(None);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.opt_u64().unwrap(), Some(42));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.bytes().unwrap(), b"raw");
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.opt_str().unwrap().as_deref(), Some("x"));
        assert_eq!(d.opt_str().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.u64(), Err(CodecError("truncated")));
    }

    #[test]
    fn trailing_bytes_detected() {
        let d = Dec::new(b"x");
        assert!(d.finish().is_err());
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        // Split points don't matter.
        assert_eq!(fnv1a64(&[b"foo", b"bar"]), fnv1a64(&[b"foobar"]));
    }
}
