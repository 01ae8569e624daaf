//! The versioned binary checkpoint envelope.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//! 0       4     magic "QTCK"
//! 4       2     format version (LE)
//! 6       4     section count (LE)
//!               ── per section ─────────────────────────────────
//!         2     name length (LE)
//!         n     name (UTF-8)
//!         8     payload length (LE)
//!         p     payload
//!         4     CRC32 of payload (LE)
//!               ────────────────────────────────────────────────
//! end-4   4     CRC32 of every preceding byte (LE)
//! ```
//!
//! All integers are little-endian. Every payload byte is covered by its
//! section CRC; every header/length/name byte is covered by the trailing
//! whole-file CRC — so **any** single flipped bit or truncation is
//! detected before a single field is interpreted.

use crate::crc::crc32;
use crate::error::CkptError;

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"QTCK";

/// Current format version written by [`Envelope::finish`].
pub const VERSION: u16 = 1;

/// Growable little-endian byte sink for payload encoding.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its exact bit pattern (NaN payloads survive).
    pub fn put_f32_bits(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked little-endian byte cursor for payload decoding. Every
/// read past the end reports [`CkptError::Truncated`] instead of
/// panicking — corrupt lengths must never take the process down.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Take `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                expected: (self.pos + n) as u64,
                actual: self.buf.len() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u16`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end.
    pub fn get_u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Read a `u32`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Read a `u64`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Read an `f32` bit pattern written by [`ByteWriter::put_f32_bits`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end.
    pub fn get_f32_bits(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] past the end, [`CkptError::Malformed`] on
    /// invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Malformed("non-UTF-8 string".into()))
    }
}

/// Builder for a complete checkpoint file: named sections, each
/// CRC-guarded, closed with a whole-file CRC trailer.
#[derive(Debug)]
pub struct Envelope {
    buf: Vec<u8>,
    sections: u32,
}

impl Envelope {
    /// Start a new envelope (magic + version written immediately; the
    /// section count is patched in by [`Envelope::finish`]).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // patched later
        Self { buf, sections: 0 }
    }

    /// Append one named section with its payload CRC.
    pub fn section(&mut self, name: &str, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(name.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.sections += 1;
    }

    /// Patch the section count, append the whole-file CRC, return the
    /// finished bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[6..10].copy_from_slice(&self.sections.to_le_bytes());
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

impl Default for Envelope {
    fn default() -> Self {
        Self::new()
    }
}

/// Fully validate `bytes` and return the decoded `(name, payload)`
/// sections in file order.
///
/// Validation order is strictly outside-in: magic, version, whole-file
/// CRC (which covers every header byte), then each section's payload CRC.
/// No payload byte is interpreted before its checksums pass, so corrupt
/// state can never be *silently* loaded.
///
/// # Errors
///
/// Any [`CkptError`] variant describing the first integrity failure.
pub fn parse_envelope(bytes: &[u8]) -> Result<Vec<(String, &[u8])>, CkptError> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        // A truncated magic is indistinguishable from a foreign file.
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < 14 {
        return Err(CkptError::Truncated {
            expected: 14,
            actual: bytes.len() as u64,
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
    if version == 0 || version > VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    // Whole-file CRC first: it covers headers and lengths, so a flipped
    // length byte cannot send the section walk off the rails undetected.
    let body = &bytes[..bytes.len() - 4];
    let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("len 4"));
    if crc32(body) != trailer {
        return Err(CkptError::FileCrc);
    }
    let mut r = ByteReader::new(body);
    let _ = r.take(6); // magic + version, already checked
    let count = r.get_u32()?;
    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_len = r.get_u16()? as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| CkptError::Malformed("non-UTF-8 section name".into()))?;
        let payload_len = r.get_u64()? as usize;
        let payload_offset = r.position() as u64;
        let payload = r.take(payload_len)?;
        let crc = r.get_u32()?;
        if crc32(payload) != crc {
            return Err(CkptError::SectionCrc {
                section: name,
                offset: payload_offset,
            });
        }
        sections.push((name, payload));
    }
    if r.remaining() != 0 {
        return Err(CkptError::Malformed(format!(
            "{} trailing bytes after last section",
            r.remaining()
        )));
    }
    Ok(sections)
}

/// Find a required section by name in a parsed envelope.
///
/// # Errors
///
/// [`CkptError::MissingSection`] when absent.
pub fn require_section<'a>(
    sections: &[(String, &'a [u8])],
    name: &str,
) -> Result<&'a [u8], CkptError> {
    sections
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| *p)
        .ok_or_else(|| CkptError::MissingSection(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut e = Envelope::new();
        e.section("alpha", b"payload-one");
        e.section("beta", &[0u8; 37]);
        e.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let sections = parse_envelope(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, "alpha");
        assert_eq!(sections[0].1, b"payload-one");
        assert_eq!(sections[1].0, "beta");
        assert_eq!(require_section(&sections, "beta").unwrap().len(), 37);
        assert!(matches!(
            require_section(&sections, "gamma"),
            Err(CkptError::MissingSection(_))
        ));
    }

    #[test]
    fn section_crc_error_names_section_and_offset() {
        let mut e = Envelope::new();
        e.section("alpha", b"payload-one");
        let mut bytes = e.finish();
        // Corrupt one payload byte, then re-seal the whole-file CRC so the
        // outer check passes and the per-section CRC is what fires.
        // Payload starts after magic(4) + version(2) + count(4) +
        // name_len(2) + "alpha"(5) + payload_len(8) = byte 25.
        bytes[25] ^= 0x01;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        let crc_bytes = crc.to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc_bytes);
        let err = parse_envelope(&bytes).unwrap_err();
        assert_eq!(
            err,
            CkptError::SectionCrc {
                section: "alpha".into(),
                offset: 25,
            }
        );
        assert_eq!(
            err.to_string(),
            "CRC mismatch in checkpoint section \"alpha\" (payload at byte offset 25)"
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                assert!(
                    parse_envelope(&m).is_err(),
                    "flip at byte {byte} bit {bit} loaded silently"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample();
        for len in 0..bytes.len() {
            assert!(
                parse_envelope(&bytes[..len]).is_err(),
                "truncation to {len} bytes loaded silently"
            );
        }
    }

    #[test]
    fn foreign_and_future_files_rejected() {
        assert_eq!(parse_envelope(b"JSON{}"), Err(CkptError::BadMagic));
        let mut future = sample();
        future[4] = 0xFF;
        future[5] = 0x7F;
        // CRC fires first? No: version is checked before the CRC so the
        // error names the real problem.
        assert_eq!(
            parse_envelope(&future),
            Err(CkptError::UnsupportedVersion(0x7FFF))
        );
    }

    #[test]
    fn byte_cursor_bounds_checked() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        w.put_str("name");
        w.put_f32_bits(f32::from_bits(0x7FC0_1234)); // NaN with payload
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "name");
        assert_eq!(r.get_f32_bits().unwrap().to_bits(), 0x7FC0_1234);
        assert!(matches!(r.get_u32(), Err(CkptError::Truncated { .. })));
    }
}
