//! Kernel micro-benchmarks: the blocked GEMM swept over **backend ×
//! pool-size** in two domains — `f32` ([`Tensor::matmul`], the path every
//! model GEMM takes) and `code` (`qt_quant::matmul_codes` over a weight
//! decoded once from 8-bit codes) — LUT quantization per format, and a
//! full traced forward pass.
//!
//! Besides timing, every sweep point is checked bitwise against the
//! scalar serial result — the determinism contract spans thread counts
//! *and* kernel backends — and the forward pass additionally compares
//! deterministic run manifests. Writes `results/BENCH_kernels.json`
//! (schema `qt-bench/kernels/v2`, carrying a tracked perf trajectory)
//! and `results/GEMM_digest.txt` (a backend-invariant digest of the
//! reference output bits, byte-comparable across `QT_BACKEND` CI legs).
//!
//! Extra flags (beyond the shared `qt_bench::Opts` set):
//!
//! - `--gemm-only`        skip the quantize and forward sections
//! - `--baseline PATH`    read the committed baseline from PATH instead
//!   of the output file's previous contents
//! - `--enforce-perf`     exit non-zero unless the best SIMD/code path
//!   beats scalar f32 (> 1.0×) and stays within 15 % of the baseline
//!   speedup

use qt_accel::{Accelerator, SystolicSim};
use qt_bench::{datapath_for, pretrain_lm, Opts};
use qt_datagen::LmTask;
use qt_quant::{matmul_codes, ElemFormat, FakeQuant, PackedQuantB, QuantScheme};
use qt_tensor::kernels::{with_backend, GemmBackend, ALL_BACKENDS};
use qt_tensor::Tensor;
use qt_trace::{RunManifest, TraceSession};
use qt_train::evaluate_lm_perplexity;
use qt_transformer::{QuantCtx, TransformerConfig};
use rand::{rngs::StdRng, SeedableRng};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Pool sizes every kernel is swept over.
const SWEEP: [usize; 4] = [1, 2, 4, 8];
/// A fresh run must reach at least this fraction of the baseline speedup
/// under `--enforce-perf` (>15 % regression fails).
const PERF_FLOOR: f64 = 0.85;
/// History entries kept in the trajectory (oldest dropped first).
const HISTORY_CAP: usize = 24;

/// Best-of-`iters` wall milliseconds for `f`, after one warmup call.
fn time_ms<R>(iters: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, best)
}

fn ms_map(ms: &BTreeMap<usize, f64>) -> Value {
    let mut m = BTreeMap::new();
    for (t, v) in ms {
        m.insert(format!("t{t}"), Value::from(*v));
    }
    Value::Object(m)
}

/// FNV-1a over f32 bit patterns: the backend-invariant output digest.
fn fnv1a64(h: &mut u64, data: &[f32]) {
    for &v in data {
        for b in v.to_bits().to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Sweep `f` over every available backend × pool size, asserting each
/// result is bitwise-identical to `reference`. Returns
/// `{backend: {tN: ms}}` rows.
fn backend_sweep(what: &str, iters: usize, reference: &Tensor, f: impl Fn() -> Tensor) -> Value {
    let mut rows = BTreeMap::new();
    for b in ALL_BACKENDS {
        if !b.available() {
            continue;
        }
        let mut ms = BTreeMap::new();
        for t in SWEEP {
            let (out, best) = with_backend(b, || qt_par::with_threads(t, || time_ms(iters, &f)));
            assert_eq!(
                out.data(),
                reference.data(),
                "{what} not bitwise-deterministic at backend {} / {t} threads",
                b.name()
            );
            ms.insert(t, best);
        }
        rows.insert(b.name().to_string(), ms_map(&ms));
    }
    Value::Object(rows)
}

/// `row["backend"][name]["t1"]` as f64.
fn t1_ms(row: &Value, backend: &str) -> Option<f64> {
    row.get("backend")?.get(backend)?.get("t1")?.as_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn main() {
    let opts = Opts::parse();
    let iters = opts.pick(20, 3);
    let mut gemm_only = false;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut enforce_perf = false;
    let mut extra = opts.extra.iter();
    while let Some(a) = extra.next() {
        match a.as_str() {
            "--gemm-only" => gemm_only = true,
            "--baseline" => baseline_path = extra.next().map(Into::into),
            "--enforce-perf" => enforce_perf = true,
            other => {
                eprintln!("[perf_kernels] unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let backends: Vec<GemmBackend> = ALL_BACKENDS
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect();
    eprintln!(
        "[perf_kernels] backends {:?} (active: {}), pool sweep {SWEEP:?} (QT_THREADS={}, QT_BACKEND={})",
        backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
        qt_tensor::kernels::active().name(),
        qt_par::qt_threads_env().unwrap_or_else(|| "unset".into()),
        qt_tensor::kernels::qt_backend_env().unwrap_or_else(|| "unset".into()),
    );

    // ---- GEMM: the tab06 model shapes (seq × hidden × ffn) ----
    let mut gemm_rows = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut shapes: Vec<(String, [usize; 3])> = [
        TransformerConfig::gpt2_large_sim(),
        TransformerConfig::gpt2_xl_sim(),
        TransformerConfig::llama7b_sim(),
        TransformerConfig::llama13b_sim(),
    ]
    .iter()
    .map(|cfg| (cfg.name.to_string(), [32, cfg.hidden, cfg.ffn]))
    .collect();
    // One deliberately larger shape so the parallel path is exercised
    // well past the serial threshold even in --quick mode.
    shapes.push(("synthetic".into(), [128, 256, 512]));
    let fq = FakeQuant::new(ElemFormat::P8E1);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for (name, [m, k, n]) in &shapes {
        let a = Tensor::randn(&[*m, *k], &mut rng);
        let b = Tensor::randn(&[*k, *n], &mut rng);

        // f32 domain: the ordinary dequantized matmul.
        let reference = with_backend(GemmBackend::Scalar, || qt_par::serial(|| a.matmul(&b)));
        fnv1a64(&mut digest, reference.data());
        let backs = backend_sweep(&format!("GEMM {name}"), iters, &reference, || a.matmul(&b));
        eprintln!("[perf_kernels] gemm {name} [{m}x{k}x{n}] f32: {backs:?}");
        gemm_rows.push(json!({
            "model": name.clone(),
            "shape": json!([*m as u64, *k as u64, *n as u64]),
            "domain": "f32",
            "backend": backs,
        }));

        // Code domain: weight stored as codes, decoded once into packed
        // panels *outside* the timed loop, so only the multiply is timed.
        let aq = fq.quantize(&a);
        let wq = fq.quantize_to_codes(&b).expect("P8E1 is not Fp32");
        let pack = PackedQuantB::pack(&wq);
        let code_ref = with_backend(GemmBackend::Scalar, || {
            qt_par::serial(|| aq.matmul(&wq.dequantize()))
        });
        fnv1a64(&mut digest, code_ref.data());
        let backs = backend_sweep(&format!("code GEMM {name}"), iters, &code_ref, || {
            matmul_codes(&aq, &pack)
        });
        eprintln!("[perf_kernels] gemm {name} [{m}x{k}x{n}] code: {backs:?}");
        gemm_rows.push(json!({
            "model": name.clone(),
            "shape": json!([*m as u64, *k as u64, *n as u64]),
            "domain": "code",
            "backend": backs,
        }));
    }

    // ---- Perf trajectory: best SIMD/code path vs scalar f32, same run ----
    // Relative (same-machine, same-run) so the committed baseline is
    // portable across hosts: absolute ms differ, ratios travel.
    let mut per_shape = Vec::new();
    let mut scalar_t1s = Vec::new();
    let mut best_t1s = Vec::new();
    for (name, _) in &shapes {
        let rows: Vec<&Value> = gemm_rows
            .iter()
            .filter(|r| r["model"].as_str() == Some(name.as_str()))
            .collect();
        let f32_row = rows.iter().find(|r| r["domain"] == "f32").unwrap();
        let scalar_ms = t1_ms(f32_row, "scalar").expect("scalar f32 row");
        let mut best_ms = f64::INFINITY;
        let mut best_path = String::from("scalar/f32");
        for r in &rows {
            let domain = r["domain"].as_str().unwrap();
            for bname in r["backend"].as_object().expect("backend matrix").keys() {
                if domain == "f32" && bname == "scalar" {
                    continue;
                }
                if let Some(ms) = t1_ms(r, bname) {
                    if ms < best_ms {
                        best_ms = ms;
                        best_path = format!("{bname}/{domain}");
                    }
                }
            }
        }
        scalar_t1s.push(scalar_ms);
        best_t1s.push(best_ms);
        per_shape.push(json!({
            "model": name.clone(),
            "scalar_f32_t1_ms": scalar_ms,
            "best_t1_ms": best_ms,
            "best_path": best_path,
            "speedup": scalar_ms / best_ms,
        }));
    }
    let speedups: Vec<f64> = scalar_t1s
        .iter()
        .zip(&best_t1s)
        .map(|(s, b)| s / b)
        .collect();
    let speedup = median(speedups);
    eprintln!("[perf_kernels] median best-vs-scalar-f32 speedup: {speedup:.3}x");

    // Baseline + history come from the committed results file (or an
    // explicit --baseline); the freshly measured run is appended.
    let prior_path = baseline_path.unwrap_or_else(|| opts.out_dir.join("BENCH_kernels.json"));
    let prior: Option<Value> = std::fs::read_to_string(&prior_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let baseline_speedup = prior
        .as_ref()
        .and_then(|p| p["trajectory"]["speedup_best_vs_scalar"].as_f64());
    let mut history: Vec<Value> = prior
        .as_ref()
        .and_then(|p| p["trajectory"]["history"].as_array().cloned())
        .unwrap_or_default();
    history.push(json!({
        "mode": if opts.quick { "quick" } else { "full" },
        "seed": opts.seed,
        "speedup_best_vs_scalar": speedup,
        "scalar_f32_t1_ms_median": median(scalar_t1s.clone()),
        "best_t1_ms_median": median(best_t1s.clone()),
        "active_backend": qt_tensor::kernels::active().name(),
    }));
    if history.len() > HISTORY_CAP {
        let drop = history.len() - HISTORY_CAP;
        history.drain(..drop);
    }
    let trajectory = json!({
        "speedup_best_vs_scalar": speedup,
        "baseline_speedup": baseline_speedup.map(Value::from).unwrap_or(Value::Null),
        "per_shape": Value::Array(per_shape),
        "history": Value::Array(history),
    });

    if enforce_perf {
        if speedup.is_nan() || speedup <= 1.0 {
            eprintln!(
                "[perf_kernels] PERF FAIL: best path does not beat scalar f32 ({speedup:.3}x)"
            );
            std::process::exit(1);
        }
        if let Some(base) = baseline_speedup {
            if speedup < PERF_FLOOR * base {
                eprintln!(
                    "[perf_kernels] PERF FAIL: speedup {speedup:.3}x under {PERF_FLOOR} × baseline {base:.3}x"
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_kernels] perf gate passed: {speedup:.3}x vs baseline {base:.3}x (floor {PERF_FLOOR})"
            );
        } else {
            eprintln!("[perf_kernels] perf gate passed: {speedup:.3}x (no baseline yet)");
        }
    }

    // ---- Quantization per 8-/9-bit format ----
    let mut quant_rows = Vec::new();
    if !gemm_only {
        let elems = opts.pick(1 << 17, 1 << 14);
        let x = Tensor::randn(&[elems], &mut rng).mul_scalar(8.0);
        for fmt in [
            ElemFormat::P8E0,
            ElemFormat::P8E1,
            ElemFormat::P8E2,
            ElemFormat::E4M3,
            ElemFormat::E5M2,
            ElemFormat::E5M3,
            ElemFormat::Bf16,
        ] {
            let q = FakeQuant::new(fmt);
            let reference = qt_par::serial(|| q.quantize(&x));
            // The consuming path must agree with the borrowed path.
            assert_eq!(q.quantize_owned(x.clone()).data(), reference.data());
            let mut ms = BTreeMap::new();
            for t in SWEEP {
                let (out, best) = qt_par::with_threads(t, || time_ms(iters, || q.quantize(&x)));
                assert_eq!(
                    out.data(),
                    reference.data(),
                    "quantize {fmt:?} not bitwise-deterministic at {t} threads"
                );
                ms.insert(t, best);
            }
            eprintln!(
                "[perf_kernels] quantize {} ({elems} elems): {ms:?}",
                fmt.name()
            );
            quant_rows.push(json!({
                "format": fmt.name(),
                "elements": elems as u64,
                "ms": ms_map(&ms),
            }));
        }
    }

    // ---- Full traced forward pass ----
    let forward_row = if gemm_only {
        Value::Null
    } else {
        let cfg = TransformerConfig::gpt2_large_sim();
        let task = LmTask::new(cfg.vocab, 32, 7);
        let model = pretrain_lm(&cfg, &task, opts.pick(40, 5), opts.seed);
        let eval_data = task.dataset(opts.pick(32, 8), opts.seed ^ 0xEEE);
        let batches: Vec<_> = eval_data.chunks(8).map(|c| task.batch(c)).collect();
        let run_forward = || {
            let session = TraceSession::new("perf_kernels").handle();
            session.borrow_mut().set_meta("seed", opts.seed.to_string());
            let sim = SystolicSim::new(Accelerator::new(8, datapath_for(ElemFormat::P8E1)));
            let qctx = QuantCtx::inference(QuantScheme::posit8())
                .with_trace(Rc::clone(&session))
                .with_cycle_model(Rc::new(sim));
            let ppl = evaluate_lm_perplexity(&model, &qctx, &batches);
            drop(qctx);
            let session = Rc::try_unwrap(session).expect("sole owner").into_inner();
            (ppl, RunManifest::render_deterministic(&session))
        };
        // Reference under the *active* backend: manifests embed
        // backend-labelled counters, so the thread sweep must compare
        // against a same-backend reference. (Cross-backend equality is
        // carried by the perplexity bits and the GEMM digest instead.)
        let (ref_ppl, ref_manifest) = qt_par::serial(run_forward);
        let mut fwd_ms = BTreeMap::new();
        for t in SWEEP {
            let ((ppl, manifest), best) =
                qt_par::with_threads(t, || time_ms(iters.min(5), run_forward));
            assert_eq!(
                ppl.to_bits(),
                ref_ppl.to_bits(),
                "forward perplexity not bitwise-deterministic at {t} threads"
            );
            // Backend-labelled counters differ across backends by design,
            // so the manifest is only compared thread-to-thread here; the
            // cross-backend contract is carried by the perplexity bits
            // and the GEMM digest.
            assert_eq!(
                manifest, ref_manifest,
                "deterministic manifest differs at {t} threads"
            );
            fwd_ms.insert(t, best);
        }
        eprintln!(
            "[perf_kernels] forward {} (ppl {ref_ppl:.3}): {fwd_ms:?}",
            cfg.name
        );
        json!({
            "model": cfg.name,
            "batches": batches.len() as u64,
            "perplexity": ref_ppl,
            "ms": ms_map(&fwd_ms),
            "deterministic": true,
        })
    };

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = json!({
        "bench": "perf_kernels",
        "schema": "qt-bench/kernels/v2",
        "version": 2u64,
        "mode": if opts.quick { "quick" } else { "full" },
        "gemm_only": gemm_only,
        "seed": opts.seed,
        // The ambient `QT_THREADS` pool; the sweep below sets its own.
        "threads_available": qt_par::threads() as u64,
        "host_cores": host_cores as u64,
        "sweep": json!(SWEEP.iter().map(|&t| t as u64).collect::<Vec<_>>()),
        // Sweep points with more threads than cores time contention,
        // not scaling.
        "oversubscribed": json!(SWEEP
            .iter()
            .filter(|&&t| t > host_cores)
            .map(|&t| t as u64)
            .collect::<Vec<_>>()),
        "backends": json!(backends.iter().map(|b| b.name()).collect::<Vec<_>>()),
        "active_backend": qt_tensor::kernels::active().name(),
        "gemm": Value::Array(gemm_rows),
        "quantize": Value::Array(quant_rows),
        "forward": forward_row,
        "trajectory": trajectory,
    });
    let path = opts.out_dir.join("BENCH_kernels.json");
    let mut text = serde_json::to_string_pretty(&doc).expect("serializable");
    text.push('\n');
    // Atomic write (qt-ckpt): downstream tooling never reads a
    // half-written benchmark file, even if this process dies here.
    qt_ckpt::atomic_write_str(&path, &text).expect("write BENCH_kernels.json");
    eprintln!("[perf_kernels] wrote {}", path.display());

    // Backend-invariant digest of the reference output bits: every CI
    // backend leg must produce this exact file (cmp across legs).
    let digest_path = opts.out_dir.join("GEMM_digest.txt");
    let digest_text = format!(
        "gemm-digest-v1 fnv1a64 {digest:016x} shapes {}\n",
        shapes.len()
    );
    qt_ckpt::atomic_write_str(&digest_path, &digest_text).expect("write GEMM_digest.txt");
    eprintln!("[perf_kernels] wrote {}", digest_path.display());
}
