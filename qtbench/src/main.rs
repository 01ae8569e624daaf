//! `qtbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qtbench/Cargo.toml -- \
//!     --workload <lm_prefill|asr_decode|lora_finetune|serve_classify|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets the workload up from `--seed`, measures it for
//! `--seconds`, checks its outputs, and prints a provenance header,
//! human-readable lines and, last, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). A failed correctness check exits with status 1.

mod bench;
mod decode;
mod finetune;
mod layers;
mod prefill;
mod report;
mod serve;

use bench::Settings;
use report::{Outcome, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: qtbench --workload <lm_prefill|asr_decode|lora_finetune|serve_classify|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

fn env_or_unset(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unset".into())
}

/// Run every workload as a child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("qtbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let qt_threads = env_or_unset("QT_THREADS");
    // Every thread, the server's workers included, sizes its kernel
    // pool from QT_THREADS, read once per process: pin it before any
    // kernel runs. A traced run widens its own thread's pool with
    // `qt_par::with_threads(pool, ..)`.
    std::env::set_var("QT_THREADS", bench::KERNEL_POOL.to_string());
    let cores = bench::host_cores();
    let pool = bench::kernel_pool(&args.workload, args.trace, cores);
    let workers = if args.workload == "serve_classify" {
        serve::WORKERS
    } else {
        1
    };
    let threads = pool * workers;
    let s = Settings {
        seed: args.seed,
        seconds: args.seconds,
        pool,
    };
    println!(
        "provenance workload={} seed={} trace={} host_cores={cores} backend={} kernel_pool={pool} \
         workers={workers} QT_THREADS={qt_threads} QT_BACKEND={} oversubscribed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        qt_tensor::kernels::active().name(),
        env_or_unset("QT_BACKEND"),
        if threads > cores { "YES" } else { "no" },
    );
    let run: fn(&Settings) -> Outcome = match (args.workload.as_str(), args.trace) {
        ("lm_prefill", false) => prefill::end_to_end,
        ("lm_prefill", true) => prefill::per_layer,
        ("asr_decode", false) => decode::end_to_end,
        ("asr_decode", true) => decode::per_layer,
        ("lora_finetune", false) => finetune::end_to_end,
        ("lora_finetune", true) => finetune::per_layer,
        ("serve_classify", false) => serve::end_to_end,
        _ => serve::per_layer,
    };
    let mut out = run(&s);
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !report::valid_name(&m.name))
        .map(|m| m.name.as_str())
        .collect();
    out.check(
        "result.metric_names_well_formed",
        bad.is_empty(),
        format!("{bad:?}"),
    );
    for l in &out.lines {
        println!("{l}");
    }
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn seed_changes_inputs_but_not_metric_names() {
        assert_eq!(prefill::inputs(3), prefill::inputs(3));
        assert_ne!(prefill::inputs(3), prefill::inputs(4));
        assert_ne!(decode::inputs(3), decode::inputs(4));
        assert_ne!(finetune::inputs(3), finetune::inputs(4));
        assert_ne!(serve::inputs(3), serve::inputs(4));
        // Metric names come from fixed tables, never from the inputs.
        let names = |m: Vec<report::Metric>| m.into_iter().map(|m| m.name).collect::<Vec<_>>();
        let e2e: Vec<String> = report::END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(report::EndToEnd::default().metrics()), e2e);
        let per: Vec<String> = layers::PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(layers::Layers::default().metrics()), per);
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload asr_decode --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "asr_decode".into(),
                seed: 9,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload lm_prefill --trace 2").is_err());
        assert!(parse("--workload lm_prefill --seconds").is_err());
        assert!(parse("--workload lm_prefill --bogus 1").is_err());
    }
}
