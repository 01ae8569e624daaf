//! Fault-injection campaigns: sweep flip rate × element format over a
//! model's stored weights, measuring accuracy degradation and how much
//! of the corruption the format's exception codes reveal for free.
//!
//! The campaign answers the Table 9 question: *which 8-bit format is the
//! most robust home for weights in edge SRAM?* Posit codes concentrate
//! precision near ±1 and have a single exception code (NaR), while FP8
//! dedicates whole exponent patterns to ±∞/NaN — so the same physical
//! upset has very different consequences, and very different odds of
//! being caught by a zero-cost non-finite check at read time.

use crate::inject::{apply_flips, BitFlipInjector, CodeFormat, FlipPos, InjectionReport};
use qt_accel::SramFaultModel;
use qt_quant::ElemFormat;
use qt_transformer::Model;

/// Configuration of one campaign sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own stream from it, so the
    /// table is identical run-to-run and independent of sweep order.
    pub seed: u64,
    /// Storage formats to sweep.
    pub formats: Vec<ElemFormat>,
    /// Per-bit flip probabilities to sweep.
    pub flip_rates: Vec<f64>,
    /// Independent corruption trials averaged per cell.
    pub trials: usize,
}

impl CampaignConfig {
    /// The default Table 9 sweep: the paper's three Posit8 variants plus
    /// both FP8 formats, three flip rates, three trials.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            formats: vec![
                ElemFormat::P8E0,
                ElemFormat::P8E1,
                ElemFormat::P8E2,
                ElemFormat::E4M3,
                ElemFormat::E5M2,
            ],
            flip_rates: vec![1e-4, 1e-3, 1e-2],
            trials: 3,
        }
    }
}

/// One (format, rate) cell of the campaign table.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Storage format under test.
    pub format: ElemFormat,
    /// Per-bit flip probability injected.
    pub rate: f64,
    /// Trials averaged.
    pub trials: usize,
    /// Metric on the clean model (quantized to `format`, uncorrupted).
    pub baseline: f64,
    /// Mean metric over corrupted trials.
    pub corrupted: f64,
    /// Injection bookkeeping merged over all trials.
    pub report: InjectionReport,
}

impl CampaignCell {
    /// Accuracy lost to the injected faults (baseline − corrupted).
    pub fn degradation(&self) -> f64 {
        self.baseline - self.corrupted
    }

    /// Fraction of hit words whose corruption decodes to NaR/NaN/±∞ —
    /// caught by a free exception check at SRAM read time.
    pub fn detection_rate(&self) -> f64 {
        self.report.detection_rate()
    }
}

/// Derive a per-cell seed from the campaign seed and the cell's sweep
/// coordinates (SplitMix64-style mixing), so cells are independent and
/// sweep order is irrelevant.
pub fn cell_seed(master: u64, fmt_idx: usize, rate_idx: usize, trial: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul((fmt_idx as u64).wrapping_add(1)))
        .wrapping_add(0xBF58476D1CE4E5B9u64.wrapping_mul((rate_idx as u64).wrapping_add(1)))
        .wrapping_add(0x94D049BB133111EBu64.wrapping_mul((trial as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Shared sweep scaffolding for fault campaigns.
///
/// Every campaign in this crate walks the same grid — (format index ×
/// stress-level index) cells, `trials` independent trials per cell — and
/// owes the same two determinism guarantees: identical tables run-to-run,
/// and independence from sweep order. Both come from one discipline:
/// every trial's randomness is a fresh [`BitFlipInjector`] seeded from
/// [`cell_seed`] of the trial's grid coordinates, never from a shared
/// stream. The harness owns that discipline so the campaigns (and any
/// future sweep) cannot drift apart on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harness {
    seed: u64,
    trials: usize,
}

impl Harness {
    /// Harness over `trials` independent trials per cell (minimum 1),
    /// all derived from `seed`.
    pub fn new(seed: u64, trials: usize) -> Self {
        Self {
            seed,
            trials: trials.max(1),
        }
    }

    /// Trials run per cell.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Injector for the baseline (zero-fault) evaluation of a format.
    /// Uses a reserved level coordinate so it can never collide with a
    /// real cell's stream.
    pub fn baseline_injector(&self, fmt_idx: usize) -> BitFlipInjector {
        BitFlipInjector::new(cell_seed(self.seed, fmt_idx, usize::MAX, 0))
    }

    /// Run every trial of cell (`fmt_idx`, `level_idx`), handing each one
    /// its own freshly-seeded injector, and collect the results.
    pub fn run_cell<T>(
        &self,
        fmt_idx: usize,
        level_idx: usize,
        mut trial: impl FnMut(usize, &mut BitFlipInjector) -> T,
    ) -> Vec<T> {
        (0..self.trials)
            .map(|t| {
                let mut inj = BitFlipInjector::new(cell_seed(self.seed, fmt_idx, level_idx, t));
                trial(t, &mut inj)
            })
            .collect()
    }
}

/// Corrupt every parameter tensor of a model through `codec`'s stored
/// codes at the given per-bit flip rate. Returns the corrupted copy and
/// the merged injection report.
pub fn corrupt_model(
    model: &Model,
    codec: CodeFormat,
    rate: f64,
    injector: &mut BitFlipInjector,
) -> (Model, InjectionReport) {
    let flips = draw_model_flips(model, codec, rate, injector);
    apply_model_flips(model, codec, &flips)
}

/// Step one of [`corrupt_model`]: the flips of every parameter tensor,
/// in [`qt_transformer::ParamStore::names`] order. Needs only each
/// tensor's length, so a caller can see that a read is clean before it
/// copies or encodes anything.
pub(crate) fn draw_model_flips(
    model: &Model,
    codec: CodeFormat,
    rate: f64,
    injector: &mut BitFlipInjector,
) -> Vec<Vec<FlipPos>> {
    model
        .params
        .iter()
        .map(|(_, t)| injector.draw(t.len(), codec.bits(), rate))
        .collect()
}

/// Step two of [`corrupt_model`]: a copy of `model` whose every tensor
/// round-trips through `codec` with its drawn flips applied.
pub(crate) fn apply_model_flips(
    model: &Model,
    codec: CodeFormat,
    flips: &[Vec<FlipPos>],
) -> (Model, InjectionReport) {
    let mut corrupted = model.clone();
    let mut report = InjectionReport::default();
    for ((name, t), f) in model.params.iter().zip(flips) {
        let (t, r) = apply_flips(t, codec, f);
        report.merge(&r);
        corrupted.params.insert(name, t);
    }
    (corrupted, report)
}

/// Flip budget for holding a model's parameters in SRAM, at `codec`'s
/// storage width, under the given soft-error model.
pub fn weight_traffic_budget(model: &Model, codec: CodeFormat, fault: &SramFaultModel) -> u64 {
    let bytes = model.params.num_elements() as u64 * u64::from(codec.bits().div_ceil(8));
    fault.flip_budget(bytes)
}

/// Run the sweep: for every format × rate, quantize-and-corrupt the
/// model's weights `trials` times and score each corrupted copy with
/// `eval` (which receives the model and the storage format so it can
/// build a matching inference context). Formats without a storage code
/// (`Fp32`) are skipped.
///
/// Deterministic: identical `cfg` (including seed) and model produce an
/// identical table.
pub fn run_campaign(
    cfg: &CampaignConfig,
    model: &Model,
    eval: impl Fn(&Model, ElemFormat) -> f64,
) -> Vec<CampaignCell> {
    let harness = Harness::new(cfg.seed, cfg.trials);
    let mut cells = Vec::new();
    for (fi, &format) in cfg.formats.iter().enumerate() {
        let codec = match CodeFormat::new(format) {
            Some(c) => c,
            None => continue,
        };
        // Baseline: weights rounded onto the storage grid, zero faults.
        let (clean, _) = corrupt_model(model, codec, 0.0, &mut harness.baseline_injector(fi));
        let baseline = eval(&clean, format);
        for (ri, &rate) in cfg.flip_rates.iter().enumerate() {
            let mut report = InjectionReport::default();
            let scores = harness.run_cell(fi, ri, |_, inj| {
                let (corrupted, r) = corrupt_model(model, codec, rate, inj);
                report.merge(&r);
                eval(&corrupted, format)
            });
            cells.push(CampaignCell {
                format,
                rate,
                trials: harness.trials(),
                baseline,
                corrupted: scores.iter().sum::<f64>() / harness.trials() as f64,
                report,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::QuantScheme;
    use qt_train::evaluate_classify;
    use qt_transformer::{QuantCtx, TaskHead, TransformerConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        Model::new(cfg, TaskHead::Classify(2), &mut rng)
    }

    #[test]
    fn campaign_is_deterministic() {
        let model = tiny_model();
        let cfg = CampaignConfig {
            seed: 42,
            formats: vec![ElemFormat::P8E1, ElemFormat::E4M3],
            flip_rates: vec![0.0, 5e-3],
            trials: 2,
        };
        // A cheap deterministic metric: mean absolute weight value — it
        // moves when corruption moves the weights, without needing a
        // forward pass per cell.
        let eval = |m: &Model, _f: ElemFormat| {
            let mut s = 0.0f64;
            let mut n = 0u64;
            for (_, t) in m.params.iter() {
                for &x in t.data() {
                    if x.is_finite() {
                        s += x.abs() as f64;
                        n += 1;
                    }
                }
            }
            s / n.max(1) as f64
        };
        let a = run_campaign(&cfg, &model, eval);
        let b = run_campaign(&cfg, &model, eval);
        assert_eq!(a, b, "identical seed must produce an identical table");
        assert_eq!(a.len(), 4);
        // Zero-rate cells are exactly the baseline with no flips.
        for cell in a.iter().filter(|c| c.rate == 0.0) {
            assert_eq!(cell.degradation(), 0.0);
            assert_eq!(cell.report.bits_flipped, 0);
        }
        // Non-zero-rate cells actually flipped bits.
        for cell in a.iter().filter(|c| c.rate > 0.0) {
            assert!(cell.report.bits_flipped > 0);
        }
        let different_seed = run_campaign(&CampaignConfig { seed: 43, ..cfg }, &model, eval);
        assert_ne!(a, different_seed);
    }

    #[test]
    fn campaign_with_real_accuracy_metric() {
        use qt_datagen::{ClassifyKind, ClassifyTask};
        let model = tiny_model();
        let task = ClassifyTask::new(ClassifyKind::Sst2, model.cfg.vocab, 16);
        let data = task.dataset(16, 3);
        let batches: Vec<_> = data.chunks(8).map(|c| task.batch(c)).collect();
        let cfg = CampaignConfig {
            seed: 7,
            formats: vec![ElemFormat::P8E1],
            flip_rates: vec![1e-3],
            trials: 1,
        };
        let cells = run_campaign(&cfg, &model, |m, fmt| {
            let ctx = QuantCtx::inference(QuantScheme::uniform(fmt));
            evaluate_classify(m, &ctx, &batches)
        });
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert!(c.baseline >= 0.0 && c.baseline <= 100.0);
        assert!(c.corrupted >= 0.0 && c.corrupted <= 100.0);
        assert!(c.report.elements > 0);
    }
}
