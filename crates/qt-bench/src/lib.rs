//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md for the experiment index).
//!
//! Each binary:
//!
//! 1. parses [`Opts`] (`--quick` shrinks datasets/steps for CI),
//! 2. pre-trains the required simulation-scale models deterministically,
//! 3. evaluates the paper's sweep,
//! 4. prints an aligned text [`Table`] and writes `results/<name>.json`.

#![warn(missing_docs)]

pub mod prep;
pub mod table;

pub use prep::*;
pub use table::Table;

use qt_trace::{RunManifest, TraceHandle, TraceSession};

/// The accelerator datapath an element format would run on — used by
/// the binaries to pick the cycle model matching each evaluated scheme.
pub fn datapath_for(fmt: qt_quant::ElemFormat) -> qt_accel::Datapath {
    use qt_quant::ElemFormat as F;
    match fmt {
        F::P8E0 | F::P8E1 | F::P8E2 | F::P16E1 => qt_accel::Datapath::Posit8,
        F::E4M3 | F::E5M2 | F::E5M3 => qt_accel::Datapath::HybridFp8,
        F::Fp32 | F::Bf16 => qt_accel::Datapath::Bf16,
    }
}

/// Parse the value after `flag` with `parse`. A missing value, or one
/// `parse` rejects, is a usage error like an unknown flag: it exits
/// with status 2 naming the flag and the value, rather than letting
/// the run go on with a default the caller did not ask for.
pub fn parse_next_with<'a, T>(
    flag: &str,
    args: &mut impl Iterator<Item = &'a String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let value = args.next();
    value.and_then(|v| parse(v)).unwrap_or_else(|| {
        let shown = value.map_or("nothing".to_string(), |v| format!("{v:?}"));
        eprintln!("invalid value for {flag}: {shown}");
        std::process::exit(2)
    })
}

/// Parse the value after `flag` into `slot` through [`std::str::FromStr`],
/// failing as [`parse_next_with`] does.
pub fn parse_next<'a, T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = &'a String>,
    slot: &mut T,
) {
    *slot = parse_next_with(flag, args, |v| v.parse().ok());
}

/// splitmix64 step — the standard seed-spreading finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold `name` into the `base` seed, so each named run of one binary (a
/// routing policy, a bench leg) replays an independent but reproducible
/// request stream.
pub fn name_seed(base: u64, name: &str) -> u64 {
    let mut x = base;
    for b in name.bytes() {
        x = splitmix64(x ^ u64::from(b));
    }
    splitmix64(x)
}

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Reduced dataset/steps for smoke runs (`--quick`).
    pub quick: bool,
    /// Output directory for JSON results (`--out DIR`, default `results`).
    pub out_dir: std::path::PathBuf,
    /// Master seed (`--seed N`, default 42).
    pub seed: u64,
    /// Chrome `trace_event` output path (`--trace-out PATH`); a JSONL
    /// event stream lands next to it with the extension `jsonl`.
    pub trace_out: Option<std::path::PathBuf>,
    /// Deterministic run-manifest output path (`--manifest-out PATH`).
    pub manifest_out: Option<std::path::PathBuf>,
    /// Root directory for durable training checkpoints
    /// (`--checkpoint-dir DIR`); each fine-tuning run gets its own
    /// subdirectory keyed by run id. `None` disables checkpointing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint every N global steps (`--checkpoint-every N`,
    /// default 25).
    pub checkpoint_every: usize,
    /// Resume each fine-tuning run from its newest intact checkpoint
    /// instead of starting fresh (`--resume`).
    pub resume: bool,
    /// Arguments the shared parser did not recognise, in order — binaries
    /// with extra flags (e.g. `tab09`'s campaign knobs) consume these.
    pub extra: Vec<String>,
}

/// Checkpoint policy for one fine-tuning run, derived from [`Opts`] by
/// [`Opts::ckpt_spec`] — carries the run's private store directory.
#[derive(Debug, Clone)]
pub struct CkptSpec {
    /// Store directory for this run (root dir / run id).
    pub dir: std::path::PathBuf,
    /// Save every N global steps.
    pub every: usize,
    /// Resume from the newest intact generation before training.
    pub resume: bool,
}

impl Opts {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut quick = false;
        let mut out_dir = std::path::PathBuf::from("results");
        let mut seed = 42u64;
        let mut trace_out = None;
        let mut manifest_out = None;
        let mut checkpoint_dir = None;
        let mut checkpoint_every = 25usize;
        let mut resume = false;
        let mut extra = Vec::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = argv.iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--out" => {
                    if let Some(d) = args.next() {
                        out_dir = d.into();
                    }
                }
                "--seed" => parse_next(a, &mut args, &mut seed),
                "--trace-out" => trace_out = args.next().map(Into::into),
                "--manifest-out" => manifest_out = args.next().map(Into::into),
                "--checkpoint-dir" => checkpoint_dir = args.next().map(Into::into),
                "--checkpoint-every" => {
                    parse_next(a, &mut args, &mut checkpoint_every);
                    checkpoint_every = checkpoint_every.max(1);
                }
                "--resume" => resume = true,
                _ => extra.push(a.clone()),
            }
        }
        Self {
            quick,
            out_dir,
            seed,
            trace_out,
            manifest_out,
            checkpoint_dir,
            checkpoint_every,
            resume,
            extra,
        }
    }

    /// Checkpoint policy for the run named `run_id`, or `None` when
    /// `--checkpoint-dir` was not given. Each run id maps to its own
    /// subdirectory so concurrent fine-tunes never share a store.
    pub fn ckpt_spec(&self, run_id: &str) -> Option<CkptSpec> {
        self.checkpoint_dir.as_ref().map(|root| CkptSpec {
            dir: root.join(run_id),
            every: self.checkpoint_every,
            resume: self.resume,
        })
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn pick(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A copy of these options whose `--trace-out` / `--manifest-out`
    /// paths carry `_label` before the extension, so a binary that runs
    /// several configurations (e.g. `fleet_bench --policy all`) writes
    /// one artifact set per configuration instead of overwriting the
    /// same file on every [`Opts::close_trace`].
    pub fn scoped(&self, label: &str) -> Self {
        let suffix = |p: &std::path::PathBuf| -> std::path::PathBuf {
            let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
            let name = if ext.is_empty() {
                format!("{stem}_{label}")
            } else {
                format!("{stem}_{label}.{ext}")
            };
            p.with_file_name(name)
        };
        let mut out = self.clone();
        out.trace_out = self.trace_out.as_ref().map(&suffix);
        out.manifest_out = self.manifest_out.as_ref().map(&suffix);
        out
    }

    /// Open a trace session named after the binary when `--trace-out` or
    /// `--manifest-out` was given, annotated with the run's seed and
    /// mode; `None` otherwise (the hot path stays untraced).
    pub fn open_trace(&self, bin: &str) -> Option<TraceHandle> {
        if self.trace_out.is_none() && self.manifest_out.is_none() {
            return None;
        }
        let mut session = TraceSession::new(bin);
        session.set_meta("bin", bin);
        session.set_meta("seed", self.seed.to_string());
        session.set_meta("mode", if self.quick { "quick" } else { "full" });
        Some(session.handle())
    }

    /// Write every requested telemetry artifact from a finished session:
    /// the Chrome trace (plus a JSONL sibling) for `--trace-out`, the
    /// deterministic manifest for `--manifest-out`, and a top-10 cycle /
    /// saturation report to stderr.
    ///
    /// `chunk_tasks` is the traced section's qt-par chunk count, taken
    /// with [`qt_par::count_tasks`] around that section alone, so a binary
    /// that writes one manifest per configuration records each one's own
    /// work. It is recorded as `par.chunk_tasks`: deterministic for a
    /// given workload, since chunk boundaries never depend on the pool
    /// size.
    pub fn close_trace(&self, trace: Option<TraceHandle>, chunk_tasks: u64) {
        let Some(trace) = trace else { return };
        trace
            .borrow_mut()
            .metrics_mut()
            .counter_add("par.chunk_tasks", &[], chunk_tasks);
        let session = trace.borrow();
        // Atomic writes (qt-ckpt): a crash mid-export never leaves a
        // truncated trace or manifest behind, and parent dirs are created.
        if let Some(path) = &self.trace_out {
            qt_ckpt::atomic_write_str(path, &qt_trace::chrome_trace(&session))
                .unwrap_or_else(|e| eprintln!("trace-out {}: {e}", path.display()));
            let jsonl = path.with_extension("jsonl");
            qt_ckpt::atomic_write_str(&jsonl, &qt_trace::jsonl(&session))
                .unwrap_or_else(|e| eprintln!("trace-out {}: {e}", jsonl.display()));
        }
        if let Some(path) = &self.manifest_out {
            qt_ckpt::atomic_write_str(path, &RunManifest::render(&session))
                .unwrap_or_else(|e| eprintln!("manifest-out {}: {e}", path.display()));
        }
        eprintln!("{}", qt_trace::trace_report(&session, 10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_sections_record_their_own_chunk_tasks() {
        let opts = Opts {
            quick: true,
            out_dir: "results".into(),
            seed: 1,
            trace_out: None,
            manifest_out: None,
            checkpoint_dir: None,
            checkpoint_every: 25,
            resume: false,
            extra: Vec::new(),
        };
        // Two identical traced sections in one process, as a binary that
        // writes one manifest per configuration runs them.
        let traced_section = || {
            let trace = TraceSession::new("section").handle();
            let ((), tasks) = qt_par::count_tasks(|| qt_par::parallel_for(64, |_| {}));
            opts.close_trace(Some(trace.clone()), tasks);
            let recorded = trace
                .borrow()
                .metrics()
                .counter_value("par.chunk_tasks", &[]);
            recorded
        };
        let first = traced_section();
        assert_eq!(first, 64);
        assert_eq!(traced_section(), first);
    }
}
