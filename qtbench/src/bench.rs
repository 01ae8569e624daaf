//! Measurement loops shared by the workloads.

use crate::report::median;
use std::time::Instant;

/// Run settings every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Kernel pool (`qt_par`) size the measured operations run with.
    pub pool: usize,
}

/// Seed of every model's weights. The weights stand in for a fixed
/// pretrained checkpoint; `--seed` varies the inputs only.
pub const MODEL_SEED: u64 = 0x7e57_ab1e;

/// Seed of the fixed quality sets. Quality (`error_pct`) is scored on
/// inputs that do not change with `--seed`, so it moves only when the
/// program's arithmetic does.
pub const QUALITY_SEED: u64 = 0x9a11_7e57;

/// Kernel pool (`qt_par`) size of every end-to-end run and of every
/// serving thread (`QT_THREADS` is set to it before any kernel runs).
/// One thread: with two on a shared two-core host, the median
/// `lm_prefill` batch time of one seed moved by up to 38% between runs
/// (71 to 98 ms), against 7% with one.
pub const KERNEL_POOL: usize = 1;

/// Kernel pool of a run. Traced runs of the batch workloads use one
/// thread per host core, so the threaded dispatch of `qt_par` is timed
/// and checked against the one-thread results; `serve_classify` keeps
/// one thread per worker.
pub fn kernel_pool(workload: &str, trace: bool, host_cores: usize) -> usize {
    if trace && workload != "serve_classify" {
        host_cores
    } else {
        KERNEL_POOL
    }
}

/// Cores this host offers (`available_parallelism`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times set-up runs in one measurement.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times; keep the last state and report
/// the median wall time in seconds.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one setup"), median(&times))
}

/// A closed loop's samples.
#[derive(Debug, Default)]
pub struct Loop {
    /// Timed part of each operation, ms.
    pub op_ms: Vec<f64>,
    /// Benchmark time between one operation's timed part and the next
    /// operation's start (its checks and bookkeeping), ms.
    pub gaps_ms: Vec<f64>,
}

/// Call `op(i)` for `i = 0, 1, …` until `seconds` have passed and at
/// least `min_ops` operations ran, or `cap_s` seconds have passed. `op`
/// returns the wall time of its timed part in ms.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    cap_s: f64,
    mut op: impl FnMut(usize) -> f64,
) -> Loop {
    let start = Instant::now();
    let mut out = Loop::default();
    let mut prev: Option<(Instant, f64)> = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let n = out.op_ms.len();
        if (elapsed >= seconds && n >= min_ops) || (elapsed >= cap_s && n > 0) {
            break;
        }
        let t = Instant::now();
        if let Some((prev_start, prev_ms)) = prev {
            out.gaps_ms
                .push(((t - prev_start).as_secs_f64() * 1e3 - prev_ms).max(0.0));
        }
        let ms = op(n);
        prev = Some((t, ms));
        out.op_ms.push(ms);
    }
    out
}

/// Time `f` in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_traced_batch_workloads_widen_the_kernel_pool() {
        assert_eq!(kernel_pool("lm_prefill", true, 4), 4);
        assert_eq!(kernel_pool("lora_finetune", true, 2), 2);
        assert_eq!(kernel_pool("lm_prefill", false, 4), KERNEL_POOL);
        assert_eq!(kernel_pool("serve_classify", true, 4), KERNEL_POOL);
    }

    #[test]
    fn closed_loop_honours_min_ops_and_cap() {
        let l = closed_loop(0.0, 7, 10.0, |_| 0.01);
        assert_eq!(l.op_ms.len(), 7);
        assert_eq!(l.gaps_ms.len(), 6);
        let l = closed_loop(100.0, 1_000_000, 0.05, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            5.0
        });
        assert!(!l.op_ms.is_empty() && l.op_ms.len() < 50);
    }
}
