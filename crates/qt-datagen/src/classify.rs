//! GLUE-style synthetic classification suite (four tasks of graded
//! difficulty, mirroring the paper's MNLI/QNLI/MRPC/SST-2 selection).

use crate::tokens::*;
use qt_transformer::TokenBatch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which GLUE-like task to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifyKind {
    /// Sentiment-style: label = which of two token pools dominates
    /// (2 classes, easiest).
    Sst2,
    /// Question-entailment-style: does the context contain the question
    /// key? (2 classes).
    Qnli,
    /// Paraphrase-style: are the two segments permutations of the same
    /// token multiset? (2 classes).
    Mrpc,
    /// Inference-style: entail / neutral / contradict, encoded by the
    /// arithmetic relation between segment keys (3 classes, hardest).
    Mnli,
}

impl ClassifyKind {
    /// All tasks, in the paper's Table 7 column order.
    pub const ALL: [ClassifyKind; 4] = [
        ClassifyKind::Mnli,
        ClassifyKind::Qnli,
        ClassifyKind::Mrpc,
        ClassifyKind::Sst2,
    ];

    /// Task name as printed in tables.
    pub fn name(self) -> &'static str {
        match self {
            ClassifyKind::Sst2 => "SST-2",
            ClassifyKind::Qnli => "QNLI",
            ClassifyKind::Mrpc => "MRPC",
            ClassifyKind::Mnli => "MNLI",
        }
    }

    /// Number of classes.
    pub fn classes(self) -> usize {
        match self {
            ClassifyKind::Mnli => 3,
            _ => 2,
        }
    }
}

/// Generator of classification examples.
#[derive(Debug, Clone)]
pub struct ClassifyTask {
    /// Task flavour.
    pub kind: ClassifyKind,
    /// Vocabulary size.
    pub vocab: usize,
    /// Padded sequence length.
    pub seq_len: usize,
}

impl ClassifyTask {
    /// Create a task.
    pub fn new(kind: ClassifyKind, vocab: usize, seq_len: usize) -> Self {
        Self {
            kind,
            vocab,
            seq_len,
        }
    }

    /// Sample one `(padded_ids, valid, label)` example.
    pub fn sample(&self, rng: &mut StdRng) -> (Vec<usize>, Vec<bool>, usize) {
        let body_budget = self.seq_len - 2; // CLS … (room for SEPs inside)
        let (mut body, label) = match self.kind {
            ClassifyKind::Sst2 => self.sample_sst2(rng, body_budget),
            ClassifyKind::Qnli => self.sample_qnli(rng, body_budget),
            ClassifyKind::Mrpc => self.sample_mrpc(rng, body_budget),
            ClassifyKind::Mnli => self.sample_mnli(rng, body_budget),
        };
        let mut ids = vec![CLS];
        ids.append(&mut body);
        let used = ids.len();
        assert!(used <= self.seq_len, "body overflow");
        ids.resize(self.seq_len, PAD);
        let mut valid = vec![true; used];
        valid.resize(self.seq_len, false);
        (ids, valid, label)
    }

    fn pools(&self) -> (usize, usize, usize) {
        // two disjoint pools of 8 tokens + keys region
        let pos = FIRST_CONTENT;
        let neg = pos + 8;
        let keys = neg + 8;
        assert!(self.vocab > keys + 24, "vocab too small for classify task");
        (pos, neg, keys)
    }

    fn sample_sst2(&self, rng: &mut StdRng, budget: usize) -> (Vec<usize>, usize) {
        let (pos, neg, _) = self.pools();
        let len = rng.gen_range(5..=budget.min(self.seq_len - 2));
        // draw an imbalanced mixture so the majority is learnable
        let p_pos: f64 = if rng.gen_bool(0.5) { 0.7 } else { 0.3 };
        let mut n_pos = 0usize;
        let body: Vec<usize> = (0..len)
            .map(|_| {
                if rng.gen_bool(p_pos) {
                    n_pos += 1;
                    pos + rng.gen_range(0..8)
                } else {
                    neg + rng.gen_range(0..8)
                }
            })
            .collect();
        let label = usize::from(2 * n_pos > len);
        (body, label)
    }

    fn sample_qnli(&self, rng: &mut StdRng, budget: usize) -> (Vec<usize>, usize) {
        let (_, _, keys) = self.pools();
        let q = keys + rng.gen_range(0..8);
        let ctx_len = rng.gen_range(4..=budget - 2);
        let mut body = vec![q, SEP];
        let contains = rng.gen_bool(0.5);
        let insert_at = rng.gen_range(0..ctx_len);
        for i in 0..ctx_len {
            if contains && i == insert_at {
                body.push(q);
            } else {
                // filler from a region disjoint from the key tokens
                body.push(keys + 8 + rng.gen_range(0..16));
            }
        }
        (body, usize::from(contains))
    }

    fn sample_mrpc(&self, rng: &mut StdRng, budget: usize) -> (Vec<usize>, usize) {
        let (_, _, keys) = self.pools();
        let content = keys + 8;
        let half = (budget - 1) / 2;
        let len = rng.gen_range(3..=half.min(8));
        let seg1: Vec<usize> = (0..len).map(|_| content + rng.gen_range(0..16)).collect();
        let paraphrase = rng.gen_bool(0.5);
        let mut seg2 = seg1.clone();
        if paraphrase {
            seg2.shuffle(rng);
        } else {
            // perturb one token
            let i = rng.gen_range(0..len);
            seg2[i] = content + ((seg2[i] - content + 1 + rng.gen_range(0..14)) % 16);
            seg2.shuffle(rng);
        }
        let mut body = seg1;
        body.push(SEP);
        body.extend(seg2);
        (body, usize::from(paraphrase))
    }

    fn sample_mnli(&self, rng: &mut StdRng, _budget: usize) -> (Vec<usize>, usize) {
        let (_, _, keys) = self.pools();
        let content = keys + 8;
        let key = rng.gen_range(0..14);
        let label = rng.gen_range(0..3usize); // 0 entail, 1 neutral, 2 contradict
        let second = match label {
            0 => key,                                   // same key → entailment
            2 => (key + 1) % 16,                        // successor → contradiction
            _ => (key + 2 + rng.gen_range(0..12)) % 16, // anything else → neutral
        };
        let mut body = vec![content + key];
        for _ in 0..3 {
            body.push(content + 16 + rng.gen_range(0..8));
        }
        body.push(SEP);
        body.push(content + second);
        for _ in 0..3 {
            body.push(content + 16 + rng.gen_range(0..8));
        }
        (body, label)
    }

    /// Deterministic dataset.
    pub fn dataset(&self, n: usize, seed: u64) -> Vec<(Vec<usize>, Vec<bool>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Pack into a batch plus labels.
    pub fn batch(&self, examples: &[(Vec<usize>, Vec<bool>, usize)]) -> (TokenBatch, Vec<usize>) {
        let b = examples.len();
        let mut ids = Vec::with_capacity(b * self.seq_len);
        let mut valid = Vec::with_capacity(b * self.seq_len);
        let mut labels = Vec::with_capacity(b);
        for (i, v, l) in examples {
            ids.extend_from_slice(i);
            valid.extend_from_slice(v);
            labels.push(*l);
        }
        (TokenBatch::with_mask(ids, b, self.seq_len, valid), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate_valid_examples() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in ClassifyKind::ALL {
            let task = ClassifyTask::new(kind, 96, 24);
            for _ in 0..100 {
                let (ids, valid, label) = task.sample(&mut rng);
                assert_eq!(ids.len(), 24);
                assert_eq!(valid.len(), 24);
                assert!(label < kind.classes());
                assert_eq!(ids[0], CLS);
                // padding aligns with mask
                for (t, v) in ids.iter().zip(&valid) {
                    if !v {
                        assert_eq!(*t, PAD);
                    }
                }
            }
        }
    }

    #[test]
    fn sst2_label_matches_majority() {
        let task = ClassifyTask::new(ClassifyKind::Sst2, 96, 24);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (ids, valid, label) = task.sample(&mut rng);
            let (pos, neg, _) = task.pools();
            let mut n_pos = 0;
            let mut n_neg = 0;
            for (t, v) in ids.iter().zip(&valid) {
                if !v || *t == CLS {
                    continue;
                }
                if (pos..pos + 8).contains(t) {
                    n_pos += 1;
                } else if (neg..neg + 8).contains(t) {
                    n_neg += 1;
                }
            }
            assert_eq!(label, usize::from(n_pos > n_neg));
        }
    }

    #[test]
    fn qnli_label_matches_containment() {
        let task = ClassifyTask::new(ClassifyKind::Qnli, 96, 24);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let (ids, valid, label) = task.sample(&mut rng);
            let q = ids[1];
            let contains = ids[3..].iter().zip(&valid[3..]).any(|(&t, &v)| v && t == q);
            assert_eq!(label, usize::from(contains));
        }
    }

    #[test]
    fn label_balance() {
        // every class appears reasonably often
        for kind in ClassifyKind::ALL {
            let task = ClassifyTask::new(kind, 96, 24);
            let data = task.dataset(300, 5);
            for c in 0..kind.classes() {
                let count = data.iter().filter(|(_, _, l)| *l == c).count();
                assert!(count > 40, "{kind:?} class {c}: {count}");
            }
        }
    }
}
