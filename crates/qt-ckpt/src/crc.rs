//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every checkpoint section and the whole file.
//!
//! Table-driven, built once at first use. This is the same polynomial as
//! zlib/gzip, so artifacts can be cross-checked with standard tools
//! (`python -c 'import zlib, sys; print(zlib.crc32(open(sys.argv[1],"rb").read()))'`).

use std::sync::OnceLock;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    })
}

/// Streaming CRC32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut c = Crc32::new();
        c.update(&data[..100]);
        c.update(&data[100..]);
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base: Vec<u8> = (0..64u8).collect();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(crc32(&m), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
