//! SEC-DED sidecar plane for serialized checkpoint payloads.
//!
//! CRC32 *detects* storage rot but cannot fix it: today a flipped bit
//! in a snapshot file costs the whole generation (the store falls back
//! to an older one). This module pairs any byte payload with a
//! qt-shield parity plane — one check byte per 8 payload bytes, ~12.5%
//! overhead — so a loader can *correct* single-bit rot per 64-bit word
//! in place and only reject on genuine multi-bit damage.
//!
//! The plane is stored out-of-band (a sidecar file or a dedicated
//! envelope section) and never changes the payload bytes themselves,
//! keeping the format readable by plane-unaware tools.

use qt_shield::secded::{self, Decode};

/// Outcome of verifying a payload against its parity plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Payload matches the plane exactly.
    Clean,
    /// This many single-bit flips were corrected in place.
    Corrected(u64),
    /// A word had multi-bit damage (or the plane doesn't fit the
    /// payload); the payload must not be trusted.
    Uncorrectable,
}

/// Number of check bytes a payload of `len` bytes needs.
pub fn ecc_plane_len(len: usize) -> usize {
    len.div_ceil(8)
}

/// Compute the parity plane for `payload`: one SEC-DED check byte per
/// 8-byte little-endian word, the last word zero-padded.
pub fn ecc_plane(payload: &[u8]) -> Vec<u8> {
    payload
        .chunks(8)
        .map(|ch| secded::encode(word_of(ch)))
        .collect()
}

/// Verify `payload` against `plane`, correcting single-bit flips in
/// place. Returns [`EccOutcome::Uncorrectable`] without touching the
/// payload if the plane length doesn't match.
pub fn ecc_verify(payload: &mut [u8], plane: &[u8]) -> EccOutcome {
    if plane.len() != ecc_plane_len(payload.len()) {
        return EccOutcome::Uncorrectable;
    }
    let mut corrected = 0u64;
    let len = payload.len();
    for (i, check) in plane.iter().enumerate() {
        let ch = &payload[i * 8..(i * 8 + 8).min(len)];
        match secded::decode(word_of(ch), *check) {
            Decode::Clean => {}
            Decode::Corrected { word, bit, .. } => {
                // A flip in the zero padding or the check byte itself
                // never maps back into payload bytes.
                if (bit as usize) < ch.len() * 8 {
                    let fixed = word.to_le_bytes();
                    let n = ch.len();
                    payload[i * 8..i * 8 + n].copy_from_slice(&fixed[..n]);
                }
                corrected += 1;
            }
            Decode::Uncorrectable => return EccOutcome::Uncorrectable,
        }
    }
    if corrected == 0 {
        EccOutcome::Clean
    } else {
        EccOutcome::Corrected(corrected)
    }
}

fn word_of(chunk: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn clean_payload_verifies() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let mut p = payload(n);
            let plane = ecc_plane(&p);
            assert_eq!(plane.len(), ecc_plane_len(n));
            assert_eq!(ecc_verify(&mut p, &plane), EccOutcome::Clean);
            assert_eq!(p, payload(n));
        }
    }

    #[test]
    fn every_single_bit_flip_is_corrected() {
        let orig = payload(41); // exercises a padded final word
        let plane = ecc_plane(&orig);
        for byte in 0..orig.len() {
            for bit in 0..8 {
                let mut p = orig.clone();
                p[byte] ^= 1 << bit;
                assert_eq!(
                    ecc_verify(&mut p, &plane),
                    EccOutcome::Corrected(1),
                    "byte {byte} bit {bit}"
                );
                assert_eq!(p, orig, "byte {byte} bit {bit} not restored");
            }
        }
    }

    #[test]
    fn double_flip_in_one_word_is_rejected() {
        let orig = payload(32);
        let plane = ecc_plane(&orig);
        let mut p = orig.clone();
        p[8] ^= 0x01;
        p[9] ^= 0x80; // same 8-byte word
        assert_eq!(ecc_verify(&mut p, &plane), EccOutcome::Uncorrectable);
    }

    #[test]
    fn flips_in_different_words_all_corrected() {
        let orig = payload(32);
        let plane = ecc_plane(&orig);
        let mut p = orig.clone();
        p[0] ^= 0x10;
        p[10] ^= 0x02;
        p[25] ^= 0x40;
        assert_eq!(ecc_verify(&mut p, &plane), EccOutcome::Corrected(3));
        assert_eq!(p, orig);
    }

    #[test]
    fn mismatched_plane_is_rejected() {
        let mut p = payload(16);
        let plane = ecc_plane(&p[..8]);
        assert_eq!(ecc_verify(&mut p, &plane), EccOutcome::Uncorrectable);
    }

    #[test]
    fn corrupted_plane_byte_is_survivable() {
        // A flip can land in the parity plane itself; the payload decodes
        // clean-with-correction and is untouched.
        let orig = payload(24);
        let mut plane = ecc_plane(&orig);
        plane[1] ^= 0x04;
        let mut p = orig.clone();
        assert_eq!(ecc_verify(&mut p, &plane), EccOutcome::Corrected(1));
        assert_eq!(p, orig);
    }
}
