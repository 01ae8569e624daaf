//! The shield proper: a set of protected regions, a budgeted
//! round-robin scrub cursor, quarantine bookkeeping, and the counters
//! integrity campaigns audit against.

use crate::region::EccRegion;
use crate::secded::{self, Decode};

/// Aggregate integrity counters for one shield instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShieldStats {
    /// Bit flips landed on protected storage by fault injection.
    pub flips_injected: u64,
    /// Words decoded by the scrubber.
    pub words_scrubbed: u64,
    /// Single-bit errors corrected in place by the scrubber.
    pub scrub_corrected: u64,
    /// Single-bit errors corrected transiently on the request read path.
    pub read_corrected: u64,
    /// Uncorrectable (multi-bit) detections, scrub or read path.
    pub uncorrectable: u64,
    /// Regions newly quarantined.
    pub quarantines: u64,
    /// Regions repaired from pristine master weights.
    pub repairs: u64,
}

/// A corrected (or injected) flip position, addressable down to the bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlipFix {
    /// Region index within the shield.
    pub region: usize,
    /// ECC word index within the region.
    pub word: usize,
    /// Bit within the 72-bit codeword (0..64 data, 64..72 check).
    pub bit: u8,
}

/// Result of one budgeted scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubOutcome {
    /// Words decoded under this pass's bandwidth budget.
    pub words_scrubbed: u64,
    /// Exact positions corrected in place.
    pub corrected: Vec<FlipFix>,
    /// Regions newly quarantined by a double-bit detection.
    pub quarantined: Vec<usize>,
}

/// Result of a read-path verification sweep across all regions.
#[derive(Debug, Clone, Default)]
pub struct ReadOutcome {
    /// Transient single-bit corrections performed for this read.
    pub corrected: u64,
    /// Regions newly quarantined by a double-bit detection.
    pub quarantined: Vec<usize>,
}

/// ECC shield over a set of named regions.
#[derive(Debug, Clone)]
pub struct Shield {
    regions: Vec<EccRegion>,
    /// Cumulative word offsets, for global word/bit addressing.
    offsets: Vec<u64>,
    cur_region: usize,
    cur_word: usize,
    stats: ShieldStats,
    corrected_log: Vec<FlipFix>,
}

impl Shield {
    /// Build a shield over already-protected regions.
    pub fn new(regions: Vec<EccRegion>) -> Self {
        let mut offsets = Vec::with_capacity(regions.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for r in &regions {
            acc += r.words() as u64;
            offsets.push(acc);
        }
        Shield {
            regions,
            offsets,
            cur_region: 0,
            cur_word: 0,
            stats: ShieldStats::default(),
            corrected_log: Vec::new(),
        }
    }

    /// Protected regions, in insertion order.
    pub fn regions(&self) -> &[EccRegion] {
        &self.regions
    }

    /// Total ECC words under protection.
    pub fn total_words(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Total protected bits: every data *and* check bit is a fault target.
    pub fn total_bits(&self) -> u64 {
        self.total_words() * secded::CODE_BITS as u64
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> ShieldStats {
        self.stats
    }

    /// Exact positions the scrubber has corrected, in scrub order —
    /// campaigns compare this against the injected-flip log.
    pub fn corrected_log(&self) -> &[FlipFix] {
        &self.corrected_log
    }

    /// Whether any region is quarantined (primary serving must degrade).
    pub fn has_quarantine(&self) -> bool {
        self.regions.iter().any(|r| r.is_quarantined())
    }

    /// Map a global bit address in `0..total_bits()` onto (region, word,
    /// bit-in-codeword) and flip it.
    pub fn inject_global_bit(&mut self, global_bit: u64) -> FlipFix {
        let word = global_bit / secded::CODE_BITS as u64;
        let bit = (global_bit % secded::CODE_BITS as u64) as u8;
        // offsets is sorted; find the region containing `word`.
        let region = match self.offsets.binary_search(&word) {
            Ok(mut i) => {
                // Land on a boundary: skip any zero-word regions.
                while self.offsets[i + 1] == self.offsets[i] {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        let local = (word - self.offsets[region]) as usize;
        self.inject(region, local, bit);
        FlipFix {
            region,
            word: local,
            bit,
        }
    }

    /// Flip one bit of one region's stored codeword.
    pub fn inject(&mut self, region: usize, word: usize, bit: u8) {
        self.regions[region].inject_flip(word, bit);
        self.stats.flips_injected += 1;
    }

    /// One background scrub pass: decode up to `budget_words` words,
    /// continuing round-robin from where the previous pass stopped.
    /// Single-bit errors are corrected in place; a double-bit detection
    /// quarantines the region and the cursor skips to the next one.
    pub fn scrub(&mut self, budget_words: usize) -> ScrubOutcome {
        let mut out = ScrubOutcome::default();
        if self.total_words() == 0 {
            return out;
        }
        // Cap the budget at the scannable word count so a generous budget
        // is one full pass, not a rescan loop.
        let scannable = |regions: &[EccRegion]| {
            regions
                .iter()
                .filter(|r| !r.is_quarantined())
                .map(|r| r.words() as u64)
                .sum::<u64>()
        };
        let mut budget = (budget_words as u64).min(scannable(&self.regions));
        let mut visited = 0u64;
        while visited < budget {
            // Skip quarantined or empty regions (repair owns them).
            let mut hops = 0;
            while self.regions[self.cur_region].is_quarantined()
                || self.regions[self.cur_region].words() == 0
            {
                self.cur_region = (self.cur_region + 1) % self.regions.len();
                self.cur_word = 0;
                hops += 1;
                if hops > self.regions.len() {
                    return out; // everything quarantined/empty
                }
            }
            let r = self.cur_region;
            let w = self.cur_word;
            visited += 1;
            self.stats.words_scrubbed += 1;
            out.words_scrubbed += 1;
            match self.regions[r].scrub_word(w) {
                Decode::Clean => {}
                Decode::Corrected { bit, .. } => {
                    self.stats.scrub_corrected += 1;
                    let fix = FlipFix {
                        region: r,
                        word: w,
                        bit,
                    };
                    self.corrected_log.push(fix);
                    out.corrected.push(fix);
                }
                Decode::Uncorrectable => {
                    self.stats.uncorrectable += 1;
                    self.stats.quarantines += 1;
                    out.quarantined.push(r);
                    // Abandon the region and shrink the pass accordingly.
                    budget = budget.min(visited + scannable(&self.regions));
                    self.cur_region = (r + 1) % self.regions.len();
                    self.cur_word = 0;
                    continue;
                }
            }
            self.cur_word += 1;
            if self.cur_word >= self.regions[r].words() {
                self.cur_word = 0;
                self.cur_region = (r + 1) % self.regions.len();
            }
        }
        out
    }

    /// Read-path sweep before serving from protected storage: verify
    /// every possibly-faulted word, correcting transiently. Regions
    /// already quarantined are skipped (they are awaiting repair and the
    /// caller must route around them).
    pub fn verify_reads(&mut self) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        for (i, r) in self.regions.iter_mut().enumerate() {
            if r.is_quarantined() {
                continue;
            }
            let chk = r.verify_reads();
            out.corrected += chk.corrected;
            if chk.uncorrectable {
                self.stats.uncorrectable += 1;
                self.stats.quarantines += 1;
                out.quarantined.push(i);
            }
        }
        self.stats.read_corrected += out.corrected;
        out
    }

    /// Repair one region from pristine codes (re-quantized master
    /// weights), clearing its quarantine.
    pub fn repair_region(&mut self, region: usize, pristine: &[u16]) {
        self.regions[region].repair_from(pristine);
        self.stats.repairs += 1;
    }

    /// Silent-corruption audit: codes that would decode wrong without a
    /// flag, summed over non-quarantined regions. `pristine` yields the
    /// reference codes per region index.
    pub fn silent_errors<F>(&self, mut pristine: F) -> u64
    where
        F: FnMut(usize) -> Vec<u16>,
    {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| r.silent_errors(&pristine(i)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::EccRegion;

    fn shield3() -> (Shield, Vec<Vec<u16>>) {
        let planes: Vec<Vec<u16>> = (0..3)
            .map(|t| (0..23 + t * 9).map(|i| (i as u16) * 7 + t as u16).collect())
            .collect();
        let regions = planes
            .iter()
            .enumerate()
            .map(|(i, c)| EccRegion::protect(&format!("p{i}"), c))
            .collect();
        (Shield::new(regions), planes)
    }

    #[test]
    fn global_bit_addressing_covers_every_region() {
        let (mut s, planes) = shield3();
        let step = 131; // co-prime stride over the bit space
        let mut hit = [false; 3];
        for k in 0..(s.total_bits() / step) {
            let fix = s.inject_global_bit((k * step) % s.total_bits());
            hit[fix.region] = true;
            assert!(fix.word < s.regions()[fix.region].words());
        }
        assert!(hit.iter().all(|&h| h), "stride missed a region");
        // A full-budget scrub pass corrects every single-bit fault; words
        // with an even number of hits per bit cancel back to clean.
        s.scrub(s.total_words() as usize);
        s.scrub(s.total_words() as usize); // second pass: anything left
        for (i, p) in planes.iter().enumerate() {
            if !s.regions()[i].is_quarantined() {
                assert_eq!(s.regions()[i].silent_errors(p), 0);
            }
        }
    }

    #[test]
    fn budgeted_cursor_resumes_round_robin() {
        let (mut s, _) = shield3();
        let total = s.total_words();
        let mut seen = 0u64;
        while seen < total {
            seen += s.scrub(5).words_scrubbed;
        }
        assert_eq!(seen, total, "cursor covered each word exactly once");
    }

    #[test]
    fn scrub_corrects_and_logs_positions() {
        let (mut s, _) = shield3();
        s.inject(1, 2, 17);
        s.inject(2, 0, 66);
        let out = s.scrub(s.total_words() as usize);
        let mut fixed = out.corrected.clone();
        fixed.sort();
        assert_eq!(
            fixed,
            vec![
                FlipFix {
                    region: 1,
                    word: 2,
                    bit: 17
                },
                FlipFix {
                    region: 2,
                    word: 0,
                    bit: 66
                },
            ]
        );
        assert_eq!(s.stats().scrub_corrected, 2);
        assert_eq!(s.corrected_log().len(), 2);
    }

    #[test]
    fn double_bit_quarantines_then_repair_restores_exact() {
        let (mut s, planes) = shield3();
        s.inject(1, 3, 5);
        s.inject(1, 3, 41);
        let read = s.verify_reads();
        assert_eq!(read.quarantined, vec![1]);
        assert!(s.has_quarantine());
        // Scrub skips the quarantined region but still covers the rest.
        let out = s.scrub(s.total_words() as usize);
        assert!(out.quarantined.is_empty());
        assert_eq!(
            out.words_scrubbed,
            s.total_words() - s.regions()[1].words() as u64
        );
        s.repair_region(1, &planes[1]);
        assert!(!s.has_quarantine());
        assert!(s.regions()[1].matches_exact(&planes[1]));
        assert_eq!(s.stats().repairs, 1);
        assert_eq!(s.silent_errors(|i| planes[i].clone()), 0);
    }
}
