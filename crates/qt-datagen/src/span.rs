//! SQuAD-style synthetic span extraction.
//!
//! Each example is `[CLS, q, SEP, c_1 … c_n, SEP, PAD…]`. Exactly one
//! context position holds the *marker* token equal to the question token
//! `q`; the answer is the span of `answer_len` payload tokens that follows
//! it. The model must attend from the question to the matching marker —
//! the same needle-finding structure as extractive QA — and is scored with
//! the token-overlap F1 used for SQuAD.

use crate::tokens::*;
use qt_transformer::TokenBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One span-extraction example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanExample {
    /// Padded token ids (length `seq_len`).
    pub ids: Vec<usize>,
    /// Validity mask.
    pub valid: Vec<bool>,
    /// Answer start position (inclusive).
    pub start: usize,
    /// Answer end position (inclusive).
    pub end: usize,
}

/// Generator of span-extraction examples.
#[derive(Debug, Clone)]
pub struct SpanTask {
    /// Model vocabulary size (tokens are drawn below this).
    pub vocab: usize,
    /// Padded sequence length.
    pub seq_len: usize,
    /// Number of distinct question keys.
    pub num_keys: usize,
    /// Answer span length.
    pub answer_len: usize,
    /// Probability that a filler position holds a *decoy* key (a key
    /// token different from the question), forcing sharp attention.
    pub decoy_prob: f64,
}

impl SpanTask {
    /// Default task sized for the simulation-scale models
    /// (vocab ≥ 96 recommended).
    pub fn new(vocab: usize, seq_len: usize) -> Self {
        Self {
            vocab,
            seq_len,
            num_keys: 8,
            answer_len: 2,
            decoy_prob: 0.25,
        }
    }

    /// Sample one example.
    pub fn sample(&self, rng: &mut StdRng) -> SpanExample {
        let keys_base = FIRST_CONTENT;
        let content_base = keys_base + self.num_keys;
        assert!(
            self.vocab > content_base + 8,
            "vocab too small for span task"
        );
        let q = keys_base + rng.gen_range(0..self.num_keys);
        // variable-length context leaves room for padding
        let min_ctx = self.answer_len + 4;
        let max_ctx = self.seq_len - 4; // CLS q SEP … SEP
        let ctx_len = rng.gen_range(min_ctx..=max_ctx.max(min_ctx));

        let mut ids = vec![CLS, q, SEP];
        let marker_pos_in_ctx = rng.gen_range(0..=ctx_len - 1 - self.answer_len);
        for i in 0..ctx_len {
            if i == marker_pos_in_ctx {
                ids.push(q); // the marker equals the question key
            } else if rng.gen_bool(self.decoy_prob) {
                // decoy: a *different* key — the model must attend sharply
                // to the exact match, which drives attention logits wide
                let decoy = keys_base
                    + (q - keys_base + 1 + rng.gen_range(0..self.num_keys - 1)) % self.num_keys;
                ids.push(decoy);
            } else {
                // filler that never collides with a key token
                ids.push(content_base + rng.gen_range(0..self.vocab - content_base));
            }
        }
        ids.push(SEP);
        let start = 3 + marker_pos_in_ctx;
        let end = start + self.answer_len - 1;
        let used = ids.len();
        ids.resize(self.seq_len, PAD);
        let mut valid = vec![true; used];
        valid.resize(self.seq_len, false);
        SpanExample {
            ids,
            valid,
            start,
            end,
        }
    }

    /// Deterministic dataset of `n` examples.
    pub fn dataset(&self, n: usize, seed: u64) -> Vec<SpanExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Pack examples into a batch plus per-row `(start, end)` targets.
    pub fn batch(&self, examples: &[SpanExample]) -> (TokenBatch, Vec<(usize, usize)>) {
        let b = examples.len();
        let mut ids = Vec::with_capacity(b * self.seq_len);
        let mut valid = Vec::with_capacity(b * self.seq_len);
        let mut targets = Vec::with_capacity(b);
        for ex in examples {
            ids.extend_from_slice(&ex.ids);
            valid.extend_from_slice(&ex.valid);
            targets.push((ex.start, ex.end));
        }
        (TokenBatch::with_mask(ids, b, self.seq_len, valid), targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn examples_are_well_formed() {
        let task = SpanTask::new(96, 32);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let ex = task.sample(&mut rng);
            assert_eq!(ex.ids.len(), 32);
            assert_eq!(ex.ids[0], CLS);
            assert_eq!(ex.ids[2], SEP);
            assert!(ex.start <= ex.end && ex.end < 32);
            // answer positions must be valid (not padding)
            assert!(ex.valid[ex.start] && ex.valid[ex.end]);
            // marker token equals the question token
            assert_eq!(ex.ids[ex.start], ex.ids[1]);
            // exactly one marker in the context
            let q = ex.ids[1];
            let count = ex.ids[3..]
                .iter()
                .zip(&ex.valid[3..])
                .filter(|&(&t, &v)| v && t == q)
                .count();
            assert_eq!(count, 1, "{:?}", ex.ids);
        }
    }

    #[test]
    fn deterministic_datasets() {
        let task = SpanTask::new(96, 24);
        assert_eq!(task.dataset(10, 7), task.dataset(10, 7));
        assert_ne!(task.dataset(10, 7), task.dataset(10, 8));
    }

    #[test]
    fn batching() {
        let task = SpanTask::new(96, 24);
        let data = task.dataset(4, 1);
        let (batch, targets) = task.batch(&data);
        assert_eq!(batch.batch, 4);
        assert_eq!(batch.seq, 24);
        assert_eq!(targets.len(), 4);
        assert_eq!(batch.ids[..24], data[0].ids[..]);
    }

    #[test]
    fn padding_present() {
        // with variable-length contexts, some rows must contain padding
        let task = SpanTask::new(96, 32);
        let data = task.dataset(50, 3);
        assert!(data.iter().any(|ex| ex.valid.iter().any(|&v| !v)));
    }
}
