//! Structured Markov language for perplexity experiments (WikiText
//! stand-in, Table 6).
//!
//! An order-1 Markov chain over content tokens where every token has a
//! small set of likely successors (sparse, peaked transitions). A model
//! that learns the transition table reaches low perplexity; quantization
//! noise shows up directly as a perplexity increase.

use crate::tokens::*;
use qt_transformer::TokenBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Markov language-model task.
#[derive(Debug, Clone)]
pub struct LmTask {
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length per training row.
    pub seq_len: usize,
    /// Likely successors per token.
    pub branching: usize,
    /// Probability mass on the likely successors.
    pub peak_mass: f64,
    table: Vec<Vec<usize>>,
}

impl LmTask {
    /// Build a task; the transition table is derived from `structure_seed`
    /// so the "language" itself is reproducible independent of sampling.
    pub fn new(vocab: usize, seq_len: usize, structure_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(structure_seed);
        let branching = 4;
        let content = FIRST_CONTENT;
        let table: Vec<Vec<usize>> = (0..vocab)
            .map(|_| {
                (0..branching)
                    .map(|_| content + rng.gen_range(0..vocab - content))
                    .collect()
            })
            .collect();
        Self {
            vocab,
            seq_len,
            branching,
            peak_mass: 0.9,
            table,
        }
    }

    /// Sample one token sequence (starts at BOS, then the chain).
    pub fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        let content = FIRST_CONTENT;
        let mut seq = Vec::with_capacity(self.seq_len);
        seq.push(BOS);
        let mut cur = content + rng.gen_range(0..self.vocab - content);
        seq.push(cur);
        while seq.len() < self.seq_len {
            cur = if rng.gen_bool(self.peak_mass) {
                self.table[cur][rng.gen_range(0..self.branching)]
            } else {
                content + rng.gen_range(0..self.vocab - content)
            };
            seq.push(cur);
        }
        seq
    }

    /// Deterministic dataset of `n` rows.
    pub fn dataset(&self, n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Pack rows into an LM batch: inputs are the sequence, targets are the
    /// next tokens (shifted left, final position ignored).
    pub fn batch(&self, rows: &[Vec<usize>]) -> (TokenBatch, Vec<usize>) {
        let b = rows.len();
        let mut ids = Vec::with_capacity(b * self.seq_len);
        let mut targets = Vec::with_capacity(b * self.seq_len);
        for row in rows {
            assert_eq!(row.len(), self.seq_len, "row length mismatch");
            ids.extend_from_slice(row);
            targets.extend(row[1..].iter().copied());
            targets.push(qt_autograd_ignore());
        }
        (TokenBatch::dense(ids, b, self.seq_len), targets)
    }

    /// Theoretical per-token entropy of the chain in nats (perplexity
    /// floor = `exp(entropy)`), ignoring the uniform-restart mass overlap.
    pub fn entropy_floor(&self) -> f64 {
        let content_count = (self.vocab - FIRST_CONTENT) as f64;
        let p_peak = self.peak_mass / self.branching as f64;
        let p_rest = (1.0 - self.peak_mass) / content_count;
        // branching tokens get p_peak (+ tiny rest mass, ignored)

        -(self.branching as f64) * p_peak * p_peak.ln()
            - (content_count - self.branching as f64) * p_rest * p_rest.ln().min(0.0)
    }
}

/// The ignore-index sentinel (re-exported to avoid a dependency cycle).
fn qt_autograd_ignore() -> usize {
    usize::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_follow_the_chain_mostly() {
        let task = LmTask::new(128, 32, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let s = task.sample(&mut rng);
            assert_eq!(s.len(), 32);
            assert_eq!(s[0], BOS);
            for w in s[1..].windows(2) {
                total += 1;
                if task.table[w[0]].contains(&w[1]) {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / total as f64;
        assert!(frac > 0.8, "peaked transitions should dominate: {frac}");
    }

    #[test]
    fn batch_targets_are_shifted() {
        let task = LmTask::new(128, 8, 0);
        let rows = task.dataset(2, 3);
        let (batch, targets) = task.batch(&rows);
        assert_eq!(batch.batch, 2);
        assert_eq!(targets.len(), 16);
        assert_eq!(targets[0], rows[0][1]);
        assert_eq!(targets[7], usize::MAX); // last position ignored
        assert_eq!(targets[8], rows[1][1]);
    }

    #[test]
    fn structure_seed_controls_language() {
        let a = LmTask::new(64, 16, 1).dataset(3, 9);
        let b = LmTask::new(64, 16, 1).dataset(3, 9);
        let c = LmTask::new(64, 16, 2).dataset(3, 9);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn entropy_floor_positive() {
        let task = LmTask::new(128, 32, 0);
        let h = task.entropy_floor();
        assert!(h > 0.3 && h < 5.0, "{h}");
    }
}
