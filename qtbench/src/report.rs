//! Result plumbing shared by every workload: metric names, percentiles,
//! correctness checks and the one-line JSON result.

use std::fmt::Write as _;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "lm_prefill",
    "asr_decode",
    "lora_finetune",
    "serve_classify",
];

/// Highest percentile reported for a timing.
pub const TAIL_Q: f64 = 0.9;

/// Samples a run must have beyond every reported percentile.
pub const MIN_TAIL: usize = 10;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; the per-workload meaning is listed in `qtbench/README.md`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("error_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The machine-read metrics (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-read lines printed before the result: workload-named
    /// metrics, sample counts, the measured-vs-predicted table.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Shortest round-trip decimal of finite `v`, always a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['e', '.']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// `true` for names the result format accepts: a letter or digit, then
/// at most 63 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Linear-interpolation quantile of ascending `sorted` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples lying strictly past the interpolation point of quantile `q`
/// in `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// Fewest samples that leave [`MIN_TAIL`] beyond quantile `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_TAIL)
        .unwrap_or(usize::MAX)
}

/// Median, p90 and the count of a timing sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Summary {
        p50: quantile(&v, 0.5),
        p90: quantile(&v, TAIL_Q),
        n: v.len(),
    }
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    quantile(&v, 0.5)
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median over operations of `units_i / ms_i`, per second: a rate that
/// a stretch of slow operations (other tenants on the host) moves less
/// than total units over total time does.
pub fn median_rate(units: &[f64], ms: &[f64]) -> f64 {
    let rates: Vec<f64> = units.iter().zip(ms).map(|(u, ms)| u * 1e3 / ms).collect();
    median(&rates)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// FNV-1a over the bit patterns of `data` (logits digests).
pub fn digest(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The end-to-end numbers of one workload, in the fixed metric order.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub op_ms: Option<Summary>,
    pub error_pct: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let (p50, p90) = self.op_ms.map_or((f64::NAN, f64::NAN), |s| (s.p50, s.p90));
        let values = [
            self.setup_s,
            peak_rss_mb(),
            self.throughput_per_s,
            p50,
            p90,
            self.error_pct,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| Metric::new(n, v, u))
            .collect()
    }
}

/// Record the sample-count check for a timing and return its summary.
pub fn timing_check(out: &mut Outcome, what: &str, samples: &[f64]) -> Summary {
    let s = summarize(samples);
    let beyond = samples_beyond(s.n, TAIL_Q);
    out.check(
        &format!("{what}.samples_beyond_p90"),
        beyond >= MIN_TAIL,
        format!("{} samples, {beyond} beyond p90 (need {MIN_TAIL})", s.n),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(valid_name(n), "bad name {n:?}");
            assert!(seen.insert(n), "duplicate name {n:?}");
        }
        for (_, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond_it() {
        let n = min_samples(TAIL_Q);
        assert!(samples_beyond(n, TAIL_Q) >= MIN_TAIL);
        assert!(samples_beyond(n - 1, TAIL_Q) < MIN_TAIL);
        assert!(samples_beyond(n, 0.5) >= MIN_TAIL);
        // The count is literal: values strictly above the interpolated p90.
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p90 = quantile(&v, TAIL_Q);
        assert_eq!(
            v.iter().filter(|&&x| x > p90).count(),
            samples_beyond(n, TAIL_Q)
        );
    }

    #[test]
    fn too_few_samples_fail_the_run() {
        let mut out = Outcome::default();
        timing_check(&mut out, "op", &vec![1.0; 50]);
        assert!(!out.correct());
        let mut out = Outcome::default();
        timing_check(&mut out, "op", &vec![1.0; 100]);
        assert!(out.correct());
    }

    #[test]
    fn json_result_has_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.push(Metric::new("a.b", 2.0, "ms"));
        out.metrics.push(Metric::new("c", 0.125, "1/s"));
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 2.0, \"unit\": \"ms\"}, \"c\": {\"value\": 0.125, \"unit\": \"1/s\"}}}"
        );
        out.metrics.push(Metric::new("d", f64::NAN, "ms"));
        assert!(!out.correct());
    }
}
