//! Runtime-dispatched GEMM microkernels.
//!
//! The blocked GEMM in [`crate::gemm`] funnels every inner loop through a
//! single [`MicroKernel`] function pointer: accumulate one A row segment
//! times one packed `kc × nr` B tile into an `NR`-wide accumulator. This
//! module provides three implementations —
//!
//! - `scalar`: the portable reference loop (the bitwise ground truth);
//! - `sse2`: 4-lane `std::arch` x86-64 kernel;
//! - `avx2`: 8-lane `std::arch` kernel with the full `NR`-column tile
//!   register-blocked across the `k` loop;
//!
//! — and picks one at startup with `is_x86_feature_detected!`,
//! overridable via the `QT_BACKEND` environment variable
//! (`scalar|sse2|avx2`) or per-thread via [`with_backend`].
//!
//! # Bitwise-identity contract
//!
//! All kernels produce **bit-identical** results, asserted (not assumed)
//! by unit tests here and proptests in `tests/`. This holds because:
//!
//! - every kernel adds the `k` terms of each output element in ascending
//!   `k` order (SIMD vectorizes across *columns*, never across `k`);
//! - multiplication and addition are separate IEEE-754 single roundings
//!   in every kernel: the SIMD paths use `mul_ps` + `add_ps`, never an
//!   FMA intrinsic, and Rust never contracts `a * b + c` on its own;
//! - the `a == 0 && row-finite` skip is a scalar per-`k` decision applied
//!   uniformly to all columns in every kernel.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::gemm::NR;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod sse2;

/// The microkernel contract: `kernel(arow, tile, finite, acc, nr)`
/// performs, for each `kk` in `0..arow.len()`:
///
/// ```text
/// if arow[kk] == 0.0 && finite[kk] { skip }   // row-finite-gated skip
/// else for j in 0..nr { acc[j] += arow[kk] * tile[kk * nr + j] }
/// ```
///
/// with mul-then-add as two separate roundings (no FMA) and `k` ascending
/// per element. `tile` is a packed `[arow.len()][nr]` block; `nr <= NR`;
/// `finite.len() == arow.len()`.
pub type MicroKernel =
    fn(arow: &[f32], tile: &[f32], finite: &[bool], acc: &mut [f32; NR], nr: usize);

/// Which GEMM inner-loop implementation to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum GemmBackend {
    /// Portable reference loop; always available, bitwise ground truth.
    Scalar,
    /// 4-lane `std::arch` x86-64 kernel (baseline feature on x86-64).
    Sse2,
    /// 8-lane `std::arch` kernel; requires AVX2 at runtime.
    Avx2,
}

/// All backend values, in preference order (weakest first).
pub const ALL_BACKENDS: [GemmBackend; 3] =
    [GemmBackend::Scalar, GemmBackend::Sse2, GemmBackend::Avx2];

impl GemmBackend {
    /// Stable lowercase name (matches the `QT_BACKEND` spelling).
    pub fn name(self) -> &'static str {
        match self {
            GemmBackend::Scalar => "scalar",
            GemmBackend::Sse2 => "sse2",
            GemmBackend::Avx2 => "avx2",
        }
    }

    /// Parse a `QT_BACKEND` spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(GemmBackend::Scalar),
            "sse2" => Some(GemmBackend::Sse2),
            "avx2" => Some(GemmBackend::Avx2),
            _ => None,
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            GemmBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            GemmBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            GemmBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The strongest backend the current CPU supports.
    pub fn detect_best() -> Self {
        ALL_BACKENDS
            .into_iter()
            .rev()
            .find(|b| b.available())
            .unwrap_or(GemmBackend::Scalar)
    }

    /// The microkernel for this backend. Unavailable backends resolve to
    /// the scalar kernel (results are bitwise-identical either way).
    pub fn kernel(self) -> MicroKernel {
        match self {
            GemmBackend::Scalar => scalar::kernel,
            #[cfg(target_arch = "x86_64")]
            GemmBackend::Sse2 if self.available() => sse2::kernel,
            #[cfg(target_arch = "x86_64")]
            GemmBackend::Avx2 if self.available() => avx2::kernel,
            _ => scalar::kernel,
        }
    }
}

/// Process-global backend, resolved from `QT_BACKEND` exactly once.
static CONFIGURED: OnceLock<GemmBackend> = OnceLock::new();

thread_local! {
    /// Per-thread override installed by [`with_backend`].
    static OVERRIDE: Cell<Option<GemmBackend>> = const { Cell::new(None) };
}

/// The `QT_BACKEND` value this process was configured with, if set.
pub fn qt_backend_env() -> Option<String> {
    std::env::var("QT_BACKEND").ok()
}

fn configured() -> GemmBackend {
    *CONFIGURED.get_or_init(|| match qt_backend_env() {
        Some(raw) => match GemmBackend::parse(&raw) {
            Some(b) if b.available() => b,
            Some(b) => {
                let best = GemmBackend::detect_best();
                eprintln!(
                    "qt-tensor: QT_BACKEND={} not supported by this CPU; using {}",
                    b.name(),
                    best.name()
                );
                best
            }
            None => {
                let best = GemmBackend::detect_best();
                eprintln!(
                    "qt-tensor: unknown QT_BACKEND={raw:?} (expected scalar|sse2|avx2); using {}",
                    best.name()
                );
                best
            }
        },
        None => GemmBackend::detect_best(),
    })
}

/// The backend GEMMs issued from the current thread will use: the
/// [`with_backend`] override if one is active (clamped to what the CPU
/// supports), else the process-global `QT_BACKEND` configuration, else
/// the strongest detected backend.
pub fn active() -> GemmBackend {
    let b = OVERRIDE.with(|o| o.get()).unwrap_or_else(configured);
    if b.available() {
        b
    } else {
        GemmBackend::detect_best()
    }
}

/// Run `f` with the GEMM backend pinned to `b` on the current thread.
///
/// Scoped and re-entrant: the previous override (if any) is restored on
/// exit, including on panic — the same discipline as
/// `qt_par::with_threads`. This is how benches and the determinism tests
/// sweep backends within one process. Note the pin applies to the thread
/// that *issues* the GEMM (worker threads inherit the kernel pointer the
/// issuing thread resolved, not the thread-local).
pub fn with_backend<R>(b: GemmBackend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<GemmBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            OVERRIDE.with(|o| o.set(prev));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(b))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        kernel: MicroKernel,
        arow: &[f32],
        tile: &[f32],
        finite: &[bool],
        nr: usize,
    ) -> [f32; NR] {
        let mut acc = [0.0f32; NR];
        // Non-zero initial accumulator: kernels must accumulate, not assign.
        for (j, a) in acc.iter_mut().enumerate() {
            *a = (j as f32) * 0.125 - 2.0;
        }
        kernel(arow, tile, finite, &mut acc, nr);
        acc
    }

    /// Deterministic ugly test values: denormals-adjacent, sign flips,
    /// magnitudes spread over many exponents, exact zeros.
    fn messy(i: usize) -> f32 {
        let m = ((i * 2654435761) >> 7) & 0xffff;
        if m.is_multiple_of(11) {
            0.0
        } else {
            let v = (m as f32 - 32768.0) * (1.5f32.powi((m % 13) as i32 - 6));
            if m.is_multiple_of(3) {
                -v
            } else {
                v
            }
        }
    }

    #[test]
    fn simd_kernels_bitwise_match_scalar() {
        for &kc in &[1usize, 2, 7, 128] {
            for &nr in &[1usize, 3, 8, 9, 31, 64] {
                let arow: Vec<f32> = (0..kc).map(messy).collect();
                let tile: Vec<f32> = (0..kc * nr).map(|i| messy(i + 977)).collect();
                let finite = vec![true; kc];
                let want = run(scalar::kernel, &arow, &tile, &finite, nr);
                for b in ALL_BACKENDS {
                    if !b.available() {
                        continue;
                    }
                    let got = run(b.kernel(), &arow, &tile, &finite, nr);
                    for j in 0..NR {
                        assert_eq!(
                            want[j].to_bits(),
                            got[j].to_bits(),
                            "{} kernel diverges at kc={kc} nr={nr} j={j}",
                            b.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_respect_finite_gated_zero_skip() {
        // Row 0: a==0, B row non-finite → must multiply (0×∞ = NaN).
        // Row 1: a==0, B row finite → must skip (acc keeps exact bits).
        let kc = 2;
        let nr = 9;
        let arow = vec![0.0f32, 0.0];
        let mut tile = vec![1.0f32; kc * nr];
        tile[3] = f32::INFINITY;
        let finite = vec![false, true];
        for b in ALL_BACKENDS {
            if !b.available() {
                continue;
            }
            let acc = run(b.kernel(), &arow, &tile, &finite, nr);
            assert!(acc[3].is_nan(), "{}: 0×∞ must poison", b.name());
            // Finite columns of the non-finite row still add exact 0×1.
            assert_eq!(acc[0], -2.0, "{}: finite column perturbed", b.name());
        }
    }

    #[test]
    fn env_parse_round_trips() {
        for b in ALL_BACKENDS {
            assert_eq!(GemmBackend::parse(b.name()), Some(b));
        }
        assert_eq!(GemmBackend::parse(" AVX2 "), Some(GemmBackend::Avx2));
        assert_eq!(GemmBackend::parse("neon"), None);
    }

    #[test]
    fn with_backend_restores_on_exit() {
        let outer = active();
        with_backend(GemmBackend::Scalar, || {
            assert_eq!(active(), GemmBackend::Scalar);
            with_backend(GemmBackend::Sse2, || {
                if GemmBackend::Sse2.available() {
                    assert_eq!(active(), GemmBackend::Sse2);
                }
            });
            assert_eq!(active(), GemmBackend::Scalar);
        });
        assert_eq!(active(), outer);
    }

    #[test]
    fn detect_best_is_available() {
        assert!(GemmBackend::detect_best().available());
    }
}
