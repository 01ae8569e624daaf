//! A contiguous ECC-protected region of packed quantized codes.
//!
//! Storage codes are at most 16 bits wide in this stack (see
//! `ElemFormat` in qt-quant), so four codes pack little-endian into one
//! 64-bit ECC word; each word carries one out-of-band check byte (the
//! parity plane, ~1.5% overhead at 8-bit formats). The region also
//! tracks which words may currently hold injected faults ("dirty"), so
//! the request read path only has to re-verify words that can possibly
//! have rotted — semantically identical to verifying everything,
//! because an untouched word decodes `Clean` by construction.

use crate::secded::{self, Decode};
use std::collections::BTreeSet;

/// Storage codes packed per 64-bit ECC word.
pub const CODES_PER_WORD: usize = 4;

/// Summary of a read-path verification pass over a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCheck {
    /// Single-bit errors corrected transiently (storage not rewritten;
    /// the scrubber owns in-place correction).
    pub corrected: u64,
    /// Whether an uncorrectable word was found (region now quarantined).
    pub uncorrectable: bool,
}

/// One named ECC-protected storage plane plus its parity plane.
#[derive(Debug, Clone)]
pub struct EccRegion {
    name: String,
    n_codes: usize,
    words: Vec<u64>,
    check: Vec<u8>,
    quarantined: bool,
    dirty: BTreeSet<u32>,
}

impl EccRegion {
    /// Pack `codes` four-per-word and compute the parity plane.
    pub fn protect(name: &str, codes: &[u16]) -> Self {
        let words = pack(codes);
        let check = words.iter().map(|&w| secded::encode(w)).collect();
        EccRegion {
            name: name.to_string(),
            n_codes: codes.len(),
            words,
            check,
            quarantined: false,
            dirty: BTreeSet::new(),
        }
    }

    /// Region name (the protected tensor's parameter name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of 64-bit ECC words in the region.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// Number of protected storage codes.
    pub fn codes_len(&self) -> usize {
        self.n_codes
    }

    /// Whether a double-bit detection has quarantined this region.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Words currently marked as possibly faulted.
    pub fn dirty_words(&self) -> usize {
        self.dirty.len()
    }

    /// Raw stored (word, check) pair — test/audit hook.
    pub fn raw(&self, word: usize) -> (u64, u8) {
        (self.words[word], self.check[word])
    }

    /// Flip one bit of the stored codeword `word`; `bit` addresses the
    /// full 72-bit codeword (64 data + 8 check bits).
    pub fn inject_flip(&mut self, word: usize, bit: u8) {
        let (w, c) = secded::flip(self.words[word], self.check[word], bit);
        self.words[word] = w;
        self.check[word] = c;
        self.dirty.insert(word as u32);
    }

    /// Scrub one word: decode, correct single-bit errors **in place**,
    /// and quarantine the region on an uncorrectable word.
    pub fn scrub_word(&mut self, word: usize) -> Decode {
        let d = secded::decode(self.words[word], self.check[word]);
        match d {
            Decode::Clean => {
                self.dirty.remove(&(word as u32));
            }
            Decode::Corrected {
                word: w, check: c, ..
            } => {
                self.words[word] = w;
                self.check[word] = c;
                self.dirty.remove(&(word as u32));
            }
            Decode::Uncorrectable => {
                self.quarantined = true;
            }
        }
        d
    }

    /// Read-path verification: decode every possibly-faulted word
    /// transiently. Corrections are counted but **not** written back;
    /// an uncorrectable word quarantines the region.
    pub fn verify_reads(&mut self) -> ReadCheck {
        let mut out = ReadCheck::default();
        for &w in &self.dirty {
            match secded::decode(self.words[w as usize], self.check[w as usize]) {
                Decode::Clean => {}
                Decode::Corrected { .. } => out.corrected += 1,
                Decode::Uncorrectable => out.uncorrectable = true,
            }
        }
        if out.uncorrectable {
            self.quarantined = true;
        }
        out
    }

    /// Decode the current storage into codes, applying transient
    /// single-bit correction; uncorrectable words decode as stored.
    pub fn codes(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.n_codes);
        for (i, &raw) in self.words.iter().enumerate() {
            let w = match secded::decode(raw, self.check[i]) {
                Decode::Corrected { word, .. } => word,
                _ => raw,
            };
            for k in 0..CODES_PER_WORD {
                if out.len() < self.n_codes {
                    out.push((w >> (16 * k)) as u16);
                }
            }
        }
        out
    }

    /// Rebuild the region from pristine codes (re-quantized from the
    /// f32 master weights), clearing quarantine and dirty state.
    pub fn repair_from(&mut self, pristine: &[u16]) {
        assert_eq!(
            pristine.len(),
            self.n_codes,
            "repair payload shape mismatch for region {:?}",
            self.name
        );
        self.words = pack(pristine);
        self.check = self.words.iter().map(|&w| secded::encode(w)).collect();
        self.quarantined = false;
        self.dirty.clear();
    }

    /// Whether the stored data **and** parity planes are bit-exact with
    /// a fresh encoding of `codes` — the post-repair audit.
    pub fn matches_exact(&self, codes: &[u16]) -> bool {
        if codes.len() != self.n_codes {
            return false;
        }
        let words = pack(codes);
        self.words == words
            && self
                .check
                .iter()
                .zip(words.iter())
                .all(|(&c, &w)| c == secded::encode(w))
    }

    /// Codes that would decode wrong *without being flagged*: the
    /// silent-corruption count against a pristine reference. Quarantined
    /// regions are flagged by definition, so they contribute zero.
    pub fn silent_errors(&self, pristine: &[u16]) -> u64 {
        if self.quarantined {
            return 0;
        }
        self.codes()
            .iter()
            .zip(pristine.iter())
            .filter(|(a, b)| a != b)
            .count() as u64
    }
}

fn pack(codes: &[u16]) -> Vec<u64> {
    codes
        .chunks(CODES_PER_WORD)
        .map(|ch| {
            let mut w = 0u64;
            for (k, &c) in ch.iter().enumerate() {
                w |= (c as u64) << (16 * k);
            }
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(n: usize) -> Vec<u16> {
        (0..n).map(|i| (i as u16).wrapping_mul(0x9E37)).collect()
    }

    #[test]
    fn protect_round_trips_codes() {
        for n in [0usize, 1, 3, 4, 5, 64, 63] {
            let c = codes(n);
            let r = EccRegion::protect("t", &c);
            assert_eq!(r.codes(), c);
            assert_eq!(r.words(), n.div_ceil(CODES_PER_WORD));
            assert!(r.matches_exact(&c));
        }
    }

    #[test]
    fn single_flip_scrubs_back() {
        let c = codes(17);
        let mut r = EccRegion::protect("t", &c);
        r.inject_flip(2, 37);
        assert_eq!(r.dirty_words(), 1);
        // Transient read correction does not rewrite storage.
        assert_eq!(
            r.verify_reads(),
            ReadCheck {
                corrected: 1,
                uncorrectable: false
            }
        );
        assert!(!r.matches_exact(&c));
        assert_eq!(r.codes(), c, "read path sees corrected codes");
        // Scrub corrects in place.
        match r.scrub_word(2) {
            Decode::Corrected { bit, .. } => assert_eq!(bit, 37),
            other => panic!("{other:?}"),
        }
        assert!(r.matches_exact(&c));
        assert_eq!(r.dirty_words(), 0);
        assert_eq!(r.silent_errors(&c), 0);
    }

    #[test]
    fn check_bit_flip_scrubs_back() {
        let c = codes(8);
        let mut r = EccRegion::protect("t", &c);
        r.inject_flip(1, 70);
        assert_eq!(r.codes(), c, "data plane untouched by check-bit flip");
        r.scrub_word(1);
        assert!(r.matches_exact(&c));
    }

    #[test]
    fn double_flip_quarantines_and_repair_restores() {
        let c = codes(33);
        let mut r = EccRegion::protect("t", &c);
        r.inject_flip(4, 3);
        r.inject_flip(4, 55);
        assert_eq!(r.scrub_word(4), Decode::Uncorrectable);
        assert!(r.is_quarantined());
        assert_eq!(
            r.silent_errors(&c),
            0,
            "quarantined corruption is flagged, not silent"
        );
        r.repair_from(&c);
        assert!(!r.is_quarantined());
        assert!(r.matches_exact(&c));
    }

    #[test]
    fn unprotected_double_flip_would_be_silent() {
        // The counterfactual the parity plane exists for: without ECC the
        // same two flips corrupt decoded codes with no flag at all.
        let c = codes(33);
        let mut r = EccRegion::protect("t", &c);
        r.inject_flip(4, 3);
        r.inject_flip(4, 55);
        let decoded = {
            // Bypass quarantine: decode the raw words directly.
            let (w, _) = r.raw(4);
            (0..CODES_PER_WORD)
                .map(|k| (w >> (16 * k)) as u16)
                .collect::<Vec<_>>()
        };
        assert_ne!(&decoded[..], &c[16..20], "raw storage really is corrupt");
    }
}
