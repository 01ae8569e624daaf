//! **Table 9**: fault-tolerance of 8-bit storage formats under SRAM
//! bit flips — accuracy degradation and free detection rate per
//! (format × flip-rate) cell of a seeded injection campaign.
//!
//! Weights are encoded into each format's stored codes, corrupted by a
//! deterministic seeded injector, decoded, and the classifier re-scored
//! under that format's inference scheme. The `SRAM flips` column ties the
//! sweep to hardware reality: the exact flip budget the accelerator's
//! soft-error model predicts for holding this model's weights at `--ber`.
//!
//! Extra flags beyond the shared harness (`--quick`, `--out`, `--seed`):
//!
//! * `--rates 1e-4,1e-3,1e-2` — per-bit flip probabilities to sweep
//! * `--formats p8e0,p8e1,p8e2,e4m3,e5m2` — storage formats to sweep
//! * `--trials N` — corruption trials averaged per cell
//! * `--ber B` — SRAM bit-error rate for the traffic-derived budget column
//! * `--ckpt-bers 1e-7,1e-6,1e-5` — BERs for the checkpoint-corruption
//!   companion table (storage-medium faults against serialized qt-ckpt
//!   files; detection must be 100%)
//! * `--json PATH` — also write the table's JSON form to an explicit path
//!
//! Identical seed and flags ⇒ identical table.

use qt_accel::{Accelerator, SramFaultModel, SystolicSim};
use qt_bench::{classify_task_for, datapath_for, parse_next, pretrain_classify, Opts, Table};
use qt_datagen::ClassifyKind;
use qt_quant::{ElemFormat, QuantScheme};
use qt_robust::{
    run_campaign, run_ckpt_campaign, weight_traffic_budget, CampaignConfig, CkptCampaignConfig,
    CodeFormat,
};
use qt_train::evaluate_classify;
use qt_transformer::{QuantCtx, TransformerConfig};

fn parse_format(s: &str) -> Option<ElemFormat> {
    match s.to_ascii_lowercase().as_str() {
        "p8e0" => Some(ElemFormat::P8E0),
        "p8e1" => Some(ElemFormat::P8E1),
        "p8e2" => Some(ElemFormat::P8E2),
        "p16e1" => Some(ElemFormat::P16E1),
        "e4m3" => Some(ElemFormat::E4M3),
        "e5m2" => Some(ElemFormat::E5M2),
        "e5m3" => Some(ElemFormat::E5M3),
        "bf16" => Some(ElemFormat::Bf16),
        _ => None,
    }
}

fn main() {
    let opts = Opts::parse();
    let mut cfg = CampaignConfig::new(opts.seed);
    if opts.quick {
        cfg.trials = 1;
    }
    // Default BER is high for real silicon but sized to the sim-scale
    // model so the budget column is non-degenerate; override with --ber.
    let mut ber = 1e-4f64;
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut ckpt_cfg = CkptCampaignConfig::new(opts.seed);
    if opts.quick {
        ckpt_cfg.trials = 2;
    }

    let mut it = opts.extra.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = it.next().map(Into::into),
            "--ckpt-bers" => {
                if let Some(v) = it.next() {
                    ckpt_cfg.bit_error_rates =
                        v.split(',').filter_map(|x| x.parse().ok()).collect();
                }
            }
            "--rates" => {
                if let Some(v) = it.next() {
                    cfg.flip_rates = v.split(',').filter_map(|x| x.parse().ok()).collect();
                }
            }
            "--formats" => {
                if let Some(v) = it.next() {
                    cfg.formats = v.split(',').filter_map(parse_format).collect();
                }
            }
            "--trials" => parse_next(a, &mut it, &mut cfg.trials),
            "--ber" => parse_next(a, &mut it, &mut ber),
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    assert!(
        !cfg.formats.is_empty() && !cfg.flip_rates.is_empty(),
        "need at least one valid format and one flip rate \
         (formats: p8e0 p8e1 p8e2 p16e1 e4m3 e5m2 e5m3 bf16)"
    );
    cfg.trials = cfg.trials.max(1);

    let steps = opts.pick(600, 100);
    let eval_n = opts.pick(256, 64);
    let trace = opts.open_trace("tab09_fault_tolerance");
    let ((), tasks) = qt_par::count_tasks(|| {
        let model_cfg = TransformerConfig::mobilebert_tiny_sim();
        let task = classify_task_for(&model_cfg, ClassifyKind::Sst2);
        eprintln!("[tab09] pretraining {}…", model_cfg.name);
        let model = pretrain_classify(&model_cfg, &task, steps, opts.seed);
        let eval_data = task.dataset(eval_n, opts.seed ^ 0x109);
        let batches: Vec<_> = eval_data.chunks(16).map(|c| task.batch(c)).collect();

        eprintln!(
            "[tab09] campaign: {} formats × {} rates × {} trials, seed {}",
            cfg.formats.len(),
            cfg.flip_rates.len(),
            cfg.trials,
            cfg.seed
        );
        let cells = run_campaign(&cfg, &model, |m, fmt| {
            let mut ctx = QuantCtx::inference(QuantScheme::uniform(fmt));
            if let Some(t) = &trace {
                let sim = SystolicSim::new(Accelerator::new(8, datapath_for(fmt)));
                ctx = ctx
                    .with_trace(std::rc::Rc::clone(t))
                    .with_cycle_model(std::rc::Rc::new(sim));
            }
            evaluate_classify(m, &ctx, &batches)
        });

        let fault = SramFaultModel::new(ber);
        let mut table = Table::new(
            "Table 9: weight bit-flip sensitivity (synthetic SST-2 accuracy %)",
            &[
                "Format",
                "Flip rate",
                "Baseline",
                "Corrupted",
                "Degraded",
                "Detected",
                "SRAM flips",
            ],
        );
        for cell in &cells {
            let budget = CodeFormat::new(cell.format)
                .map(|codec| weight_traffic_budget(&model, codec, &fault))
                .unwrap_or(0);
            table.row(&[
                format!("{:?}", cell.format),
                format!("{:.0e}", cell.rate),
                format!("{:.1}", cell.baseline),
                format!("{:.1}", cell.corrupted),
                format!("{:+.1}", -cell.degradation()),
                format!("{:.0}%", 100.0 * cell.detection_rate()),
                format!("{budget}"),
            ]);
        }

        table.print();
        table
            .write_json(&opts.out_dir, "tab09_fault_tolerance")
            .expect("write results");
        if let Some(path) = &json_out {
            table.write_json_to(path).expect("write --json output");
            eprintln!("[tab09] wrote {}", path.display());
        }

        // Companion sweep: the same upsets aimed at the *durable* copy of
        // training state — serialized qt-ckpt files — where the question is
        // not graceful degradation but absolute detection plus recovery via
        // generation fallback.
        assert!(
            !ckpt_cfg.bit_error_rates.is_empty(),
            "need at least one checkpoint BER (--ckpt-bers)"
        );
        eprintln!(
            "[tab09] checkpoint-corruption campaign: {} formats × {} BERs × {} trials",
            ckpt_cfg.formats.len(),
            ckpt_cfg.bit_error_rates.len(),
            ckpt_cfg.trials
        );
        let ckpt_cells = run_ckpt_campaign(&ckpt_cfg, &model);
        let mut ckpt_table = Table::new(
            "Table 9b: checkpoint corruption — detection and generation fallback",
            &[
                "Format",
                "BER",
                "Bytes",
                "Corrupted",
                "Detected",
                "Silent",
                "Recovery",
                "Depth",
            ],
        );
        for cell in &ckpt_cells {
            ckpt_table.row(&[
                format!("{:?}", cell.format),
                format!("{:.0e}", cell.ber),
                format!("{}", cell.bytes),
                format!("{}", cell.corrupted_files),
                format!("{:.0}%", 100.0 * cell.detection_rate()),
                format!("{}", cell.silent),
                format!("{:.0}%", 100.0 * cell.recovery_rate()),
                format!("{:.2}", cell.mean_fallback_depth),
            ]);
            // The envelope's integrity guarantee: a corrupt checkpoint must
            // never load. Fail the binary loudly if it ever does.
            assert_eq!(
                cell.silent, 0,
                "corrupt checkpoint loaded silently ({:?} @ {:.0e})",
                cell.format, cell.ber
            );
        }
        ckpt_table.print();
        ckpt_table
            .write_json(&opts.out_dir, "tab09_ckpt_corruption")
            .expect("write results");
    });
    opts.close_trace(trace, tasks);
}
