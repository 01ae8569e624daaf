//! **Table 5**: word error rate of the Whisper-style encoder-decoder
//! family on the synthetic transcription task, across Posit(8,1),
//! Posit(8,2) and E4M3 at each fusion level.
//!
//! Reproduction target: larger models are more robust to quantization, and
//! fusion generally (not strictly monotonically — the paper observes
//! hallucination noise) improves WER.

use qt_bench::{pretrain_seq2seq, Opts, Table};
use qt_datagen::AsrTask;
use qt_quant::{ElemFormat, FusionLevel, QuantScheme};
use qt_train::evaluate_asr_wer;
use qt_transformer::{QuantCtx, TransformerConfig};

fn main() {
    let opts = Opts::parse();
    let steps = opts.pick(1300, 100);
    let eval_n = opts.pick(96, 24);

    let mut table = Table::new(
        "Table 5: WER (%) on synthetic ASR vs fusion level",
        &[
            "Model",
            "Data type",
            "BF16",
            "No Fusion",
            "+AttnScal",
            "+Activation",
            "+LayerNorm",
            "+Residual",
        ],
    );

    for cfg in [
        TransformerConfig::whisper_tiny_sim(),
        TransformerConfig::whisper_small_sim(),
        TransformerConfig::whisper_large_sim(),
    ] {
        let task = AsrTask::new(cfg.vocab, 24, 6);
        eprintln!("[tab05] pretraining {}…", cfg.name);
        let model = pretrain_seq2seq(&cfg, &task, steps, opts.seed);
        let eval = task.dataset(eval_n, opts.seed ^ 0xEEE);
        let wer = |scheme: QuantScheme| {
            evaluate_asr_wer(&model, &QuantCtx::inference(scheme), &task, &eval, 24)
        };
        let bf16 = wer(QuantScheme::bf16());
        for fmt in [ElemFormat::P8E1, ElemFormat::P8E2, ElemFormat::E4M3] {
            let mut cells = vec![
                cfg.name.to_string(),
                fmt.name().to_string(),
                format!("{bf16:.1}"),
            ];
            for level in FusionLevel::ALL {
                let w = wer(QuantScheme::uniform(fmt).with_fusion(level));
                cells.push(format!("{w:.1}"));
            }
            table.row(&cells);
        }
    }

    table.print();
    table
        .write_json(&opts.out_dir, "tab05_asr_wer")
        .expect("write results");
}
