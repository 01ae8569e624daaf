//! The qt-par determinism contract, cross-crate: every parallelized
//! kernel must produce bitwise-identical results at every thread count,
//! because chunk boundaries and accumulation order depend only on the
//! input shape — never on the pool size.

use proptest::prelude::*;
use qt_posit::UnderflowPolicy;
use qt_quant::{matmul_codes, ElemFormat, FakeQuant, PackedQuantB};
use qt_tensor::kernels::{with_backend, GemmBackend, ALL_BACKENDS};
use qt_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

/// Dimension set the GEMM sweep draws from: unit, odd, prime-ish, and a
/// multiple of every tile parameter.
const DIMS: [usize; 4] = [1, 3, 17, 64];

/// All quantized formats the code-domain path stores (everything but
/// Fp32).
const QFORMATS: [ElemFormat; 8] = [
    ElemFormat::P8E0,
    ElemFormat::P8E1,
    ElemFormat::P8E2,
    ElemFormat::P16E1,
    ElemFormat::E4M3,
    ElemFormat::E5M2,
    ElemFormat::E5M3,
    ElemFormat::Bf16,
];

proptest! {
    #[test]
    fn matmul_bitwise_equal_across_thread_counts(
        mi in 0usize..4, ki in 0usize..4, ni in 0usize..4, seed in 0u64..1 << 32
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let reference = qt_par::serial(|| a.matmul(&b));
        for t in 1..=8usize {
            let out = qt_par::with_threads(t, || a.matmul(&b));
            prop_assert_eq!(out.data(), reference.data(), "m={} k={} n={} t={}", m, k, n, t);
        }
    }

    #[test]
    fn gemm_backends_bitwise_equal(
        mi in 0usize..5, ki in 0usize..5, ni in 0usize..5, seed in 0u64..1 << 32
    ) {
        // Backend axis of the determinism contract: every SIMD microkernel
        // must reproduce the scalar reference bit-for-bit, including empty
        // dimensions, at pool sizes 1 and 4.
        const EDIMS: [usize; 5] = [0, 1, 3, 17, 64];
        let (m, k, n) = (EDIMS[mi], EDIMS[ki], EDIMS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let reference = with_backend(GemmBackend::Scalar, || qt_par::serial(|| a.matmul(&b)));
        for be in ALL_BACKENDS {
            if !be.available() {
                continue;
            }
            for t in [1usize, 4] {
                let out = with_backend(be, || qt_par::with_threads(t, || a.matmul(&b)));
                prop_assert_eq!(
                    out.data(), reference.data(),
                    "m={} k={} n={} backend={} t={}", m, k, n, be.name(), t
                );
            }
        }
    }

    #[test]
    fn code_domain_matches_f32_across_backends(
        fi in 0usize..8, bi in 0usize..2, seed in 0u64..1 << 32
    ) {
        // The code-domain GEMM (weights stored as quantized codes, decoded
        // panel-by-panel) must equal dequantize-then-matmul bit-for-bit,
        // for every storage format, every backend, batched or not.
        let fmt = QFORMATS[fi];
        let batched = bi == 1;
        let fq = FakeQuant::new(fmt);
        let mut rng = StdRng::seed_from_u64(seed);
        let xshape: &[usize] = if batched { &[2, 9, 33] } else { &[9, 33] };
        let x = fq.quantize(&Tensor::randn(xshape, &mut rng));
        let w = Tensor::randn(&[33, 17], &mut rng);
        let wq = fq.quantize_to_codes(&w).expect("quantized format");
        let pack = PackedQuantB::pack(&wq);
        let reference = with_backend(GemmBackend::Scalar, || {
            qt_par::serial(|| x.matmul(&wq.dequantize()))
        });
        for be in ALL_BACKENDS {
            if !be.available() {
                continue;
            }
            for t in [1usize, 4] {
                let out =
                    with_backend(be, || qt_par::with_threads(t, || matmul_codes(&x, &pack)));
                prop_assert_eq!(out.shape(), reference.shape());
                prop_assert_eq!(
                    out.data(), reference.data(),
                    "{:?} backend={} t={} batched={}", fmt, be.name(), t, batched
                );
            }
        }
    }

    #[test]
    fn batched_broadcast_matmul_deterministic(seed in 0u64..1 << 32) {
        // Broadcast batch (B shared across the batch axis) exercises the
        // pack-reuse path; batch × row-block units split the output.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 64, 17], &mut rng);
        let b = Tensor::randn(&[17, 64], &mut rng);
        let reference = with_backend(GemmBackend::Scalar, || qt_par::serial(|| a.matmul(&b)));
        for t in [2, 4, 8] {
            let out = qt_par::with_threads(t, || a.matmul(&b));
            prop_assert_eq!(out.data(), reference.data(), "t={}", t);
        }
        // And across backends at a fixed pool size.
        for be in ALL_BACKENDS {
            if !be.available() {
                continue;
            }
            let out = with_backend(be, || qt_par::with_threads(4, || a.matmul(&b)));
            prop_assert_eq!(out.data(), reference.data(), "backend={}", be.name());
        }
    }

    #[test]
    fn quantize_bitwise_equal_across_thread_counts(seed in 0u64..1 << 32) {
        // 12288 elements: crosses the quantizer's parallel chunk size, so
        // health partials really are merged from multiple chunks.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::randn(&[3, 64, 64], &mut rng).mul_scalar(16.0);
        x.data_mut()[7] = f32::NAN;
        x.data_mut()[9000] = f32::INFINITY;
        for fmt in [ElemFormat::P8E1, ElemFormat::E4M3] {
            let q = FakeQuant::new(fmt);
            let (rv, rh) = qt_par::serial(|| q.quantize_with_health(&x));
            for t in [2, 4, 8] {
                let (v, h) = qt_par::with_threads(t, || q.quantize_with_health(&x));
                let (bits_a, bits_b): (Vec<u32>, Vec<u32>) = (
                    v.data().iter().map(|f| f.to_bits()).collect(),
                    rv.data().iter().map(|f| f.to_bits()).collect(),
                );
                prop_assert_eq!(bits_a, bits_b, "{:?} t={}", fmt, t);
                prop_assert_eq!(h, rh, "{:?} t={}: health partials must merge in order", fmt, t);
            }
        }
    }

    #[test]
    fn softmax_and_layernorm_deterministic(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[96, 64], &mut rng);
        let gamma = Tensor::randn(&[64], &mut rng);
        let beta = Tensor::randn(&[64], &mut rng);
        let (rs, rl) = qt_par::serial(|| {
            (x.softmax_lastdim(), x.layernorm_lastdim(&gamma, &beta, 1e-5))
        });
        for t in [2, 8] {
            let (s, l) = qt_par::with_threads(t, || {
                (x.softmax_lastdim(), x.layernorm_lastdim(&gamma, &beta, 1e-5))
            });
            prop_assert_eq!(s.data(), rs.data(), "softmax t={}", t);
            prop_assert_eq!(l.data(), rl.data(), "layernorm t={}", t);
        }
    }
}

/// Every bf16-spaced f32 (all 2^16 top-16-bit patterns, i.e. every LUT
/// cell's low endpoint) must quantize identically through the
/// direct-index LUT and the reference scalar encoder, for every 8-/9-bit
/// format and both underflow policies.
#[test]
fn lut_matches_reference_on_all_bf16_spaced_inputs() {
    for fmt in [
        ElemFormat::P8E0,
        ElemFormat::P8E1,
        ElemFormat::P8E2,
        ElemFormat::E4M3,
        ElemFormat::E5M2,
        ElemFormat::E5M3,
    ] {
        for policy in [UnderflowPolicy::RoundTiesToZero, UnderflowPolicy::Standard] {
            let q = FakeQuant::with_policy(fmt, policy);
            for cell in 0u32..=0xFFFF {
                let x = f32::from_bits(cell << 16);
                if !x.is_finite() {
                    // Non-finite inputs go through the guard policy, not
                    // the LUT; covered by the guard tests.
                    continue;
                }
                let got = q.quantize_scalar(x);
                let want = fmt.quantize_scalar_with(x, policy);
                // Value equality: the table stores its single zero as
                // -0.0, so zero results differ from the reference only in
                // sign bit (pre-existing; all non-zero values are exact).
                assert_eq!(got, want, "{fmt:?} {policy:?} x={x:e} (cell {cell:#06x})");
                if want != 0.0 {
                    assert_eq!(got.to_bits(), want.to_bits(), "{fmt:?} {policy:?} x={x:e}");
                }
            }
        }
    }
}

/// The counter feeding the `par.chunk_tasks` metric must not depend on
/// the pool size — chunk decomposition is a function of the workload.
#[test]
fn chunk_task_counter_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(99);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    let count_at = |t: usize| {
        qt_par::count_tasks(|| {
            qt_par::with_threads(t, || {
                let _ = a.matmul(&b);
                let _ = FakeQuant::new(ElemFormat::P8E1).quantize(&a);
            })
        })
        .1
    };
    let serial = count_at(1);
    for t in [2, 4, 8] {
        assert_eq!(count_at(t), serial, "t={t}");
    }
}

/// Validate the `perf_kernels` output schema. Runs over the file named
/// by `QT_VALIDATE_KERNELS` (CI's perf-smoke job runs the binary first);
/// skips silently when the variable is unset.
#[test]
fn env_named_kernels_json_validates() {
    let Some(path) = integration::validate_path("QT_VALIDATE_KERNELS") else {
        return;
    };
    let text = std::fs::read_to_string(&path).expect("BENCH_kernels.json readable");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCH_kernels.json parses");
    assert_eq!(v["bench"].as_str(), Some("perf_kernels"));
    assert_eq!(v["schema"].as_str(), Some("qt-bench/kernels/v2"));
    assert_eq!(v["version"].as_u64(), Some(2));
    assert!(matches!(v["mode"].as_str(), Some("quick") | Some("full")));
    assert!(v["threads_available"].as_u64().unwrap_or(0) >= 1);
    let sweep = v["sweep"].as_array().expect("sweep array");
    assert!(!sweep.is_empty());
    let host_cores = v["host_cores"].as_u64().expect("host_cores");
    assert!(host_cores >= 1, "host_cores counts at least one core");
    let oversubscribed: Vec<u64> = sweep
        .iter()
        .filter_map(|t| t.as_u64())
        .filter(|&t| t > host_cores)
        .collect();
    assert_eq!(
        v["oversubscribed"]
            .as_array()
            .expect("oversubscribed array")
            .iter()
            .map(|t| t.as_u64().expect("thread count"))
            .collect::<Vec<_>>(),
        oversubscribed,
        "oversubscribed lists exactly the sweep points above host_cores"
    );
    let backends: Vec<&str> = v["backends"]
        .as_array()
        .expect("backends array")
        .iter()
        .map(|b| b.as_str().expect("backend name"))
        .collect();
    assert!(
        backends.contains(&"scalar"),
        "scalar backend always present"
    );
    let check_ms = |ms: &serde_json::Value, what: &str| {
        let ms = ms.as_object().unwrap_or_else(|| panic!("{what} ms map"));
        assert_eq!(ms.len(), sweep.len(), "{what}: one timing per sweep point");
        for (k, t) in ms {
            assert!(t.as_f64().unwrap_or(-1.0) >= 0.0, "{what}.{k}");
        }
    };
    // GEMM rows: each domain carries a per-backend timing matrix.
    let gemm = v["gemm"].as_array().expect("gemm array");
    assert!(!gemm.is_empty(), "gemm rows");
    for row in gemm {
        let domain = row["domain"].as_str().expect("gemm row domain");
        match domain {
            "f32" | "code" => {
                let per = row["backend"].as_object().expect("backend matrix");
                assert_eq!(per.len(), backends.len(), "one column per backend");
                for (bname, ms) in per {
                    assert!(
                        backends.contains(&bname.as_str()),
                        "unknown backend {bname}"
                    );
                    check_ms(ms, &format!("gemm[{domain}].{bname}"));
                }
            }
            other => panic!("unknown gemm domain {other:?}"),
        }
    }
    // Trajectory: the tracked perf history plus the current speedup.
    let traj = &v["trajectory"];
    assert!(
        traj["speedup_best_vs_scalar"].as_f64().unwrap_or(-1.0) > 0.0,
        "trajectory speedup"
    );
    let history = traj["history"].as_array().expect("trajectory history");
    assert!(!history.is_empty(), "history never empty after a run");
    for h in history {
        assert!(h["speedup_best_vs_scalar"].as_f64().unwrap_or(-1.0) > 0.0);
        assert!(matches!(h["mode"].as_str(), Some("quick") | Some("full")));
    }
    assert!(traj["per_shape"].as_array().is_some_and(|p| !p.is_empty()));
    // quantize + forward are skipped under --gemm-only.
    let gemm_only = v["gemm_only"].as_bool() == Some(true);
    if gemm_only {
        assert_eq!(
            v["forward"],
            serde_json::Value::Null,
            "--gemm-only writes no forward row"
        );
    } else {
        for row in v["quantize"].as_array().expect("quantize array") {
            check_ms(&row["ms"], "quantize");
        }
        assert_eq!(v["forward"]["deterministic"].as_bool(), Some(true));
        assert!(v["forward"]["perplexity"].as_f64().unwrap_or(-1.0) > 0.0);
    }
}

/// Owned (in-place) quantization must agree with the borrowed path.
#[test]
fn owned_quantize_matches_borrowed() {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::randn(&[4096], &mut rng).mul_scalar(32.0);
    for fmt in [ElemFormat::P8E1, ElemFormat::E5M2] {
        let q = FakeQuant::new(fmt);
        assert_eq!(q.quantize_owned(x.clone()).data(), q.quantize(&x).data());
        assert_eq!(
            q.quantize_scaled_owned(x.clone(), 3.5).data(),
            q.quantize_scaled(&x, 3.5).data()
        );
    }
}
