//! Criterion micro-benchmarks of the numerical kernels: posit
//! encode/decode, LUT fake-quantization, the approximate vs exact softmax,
//! fused (quire) dot products, and the systolic-array simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qt_accel::{Accelerator, Datapath, SystolicSim};
use qt_posit::approx::{fast_reciprocal, fast_sigmoid, ExpApprox};
use qt_posit::{FusedDot, P8E1};
use qt_quant::{ElemFormat, FakeQuant};
use qt_tensor::Tensor;
use qt_transformer::Softmax;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench_posit_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let values: Vec<f64> = (0..1024).map(|_| rng.gen_range(-100.0..100.0)).collect();
    c.bench_function("posit8_encode_1k", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &v in &values {
                acc ^= P8E1::from_f64(black_box(v)).bits();
            }
            acc
        })
    });
    let codes: Vec<P8E1> = (0..=255u16).map(P8E1::from_bits).collect();
    c.bench_function("posit8_decode_256", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &codes {
                let v = p.to_f64();
                if v.is_finite() {
                    acc += v;
                }
            }
            acc
        })
    });
}

fn bench_fake_quant(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let t = Tensor::randn(&[64, 64], &mut rng);
    for fmt in [ElemFormat::P8E1, ElemFormat::E4M3, ElemFormat::Bf16] {
        let q = FakeQuant::new(fmt);
        c.bench_function(&format!("fake_quant_4k_{}", fmt.name()), |b| {
            b.iter(|| q.quantize(black_box(&t)))
        });
    }
    // LUT path vs direct scalar encode
    let q = FakeQuant::new(ElemFormat::P8E1);
    c.bench_function("quant_scalar_lut_posit8", |b| {
        b.iter(|| q.quantize_scalar(black_box(1.2345)))
    });
    c.bench_function("quant_scalar_direct_posit8", |b| {
        b.iter(|| ElemFormat::P8E1.quantize_scalar(black_box(1.2345)))
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let scores = Tensor::randn(&[32, 32], &mut rng).mul_scalar(3.0);
    let exact = Softmax::new(qt_quant::SoftmaxKind::Exact);
    let approx = Softmax::new(qt_quant::SoftmaxKind::posit_full());
    c.bench_function("softmax_exact_32x32", |b| {
        b.iter(|| exact.forward(black_box(&scores)))
    });
    c.bench_function("softmax_posit_approx_32x32", |b| {
        b.iter(|| approx.forward(black_box(&scores)))
    });
}

fn bench_approx_ops(c: &mut Criterion) {
    let xs: Vec<P8E1> = (0..=255u16).map(P8E1::from_bits).collect();
    c.bench_function("fast_sigmoid_256", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &x in &xs {
                acc ^= fast_sigmoid(black_box(x)).bits();
            }
            acc
        })
    });
    c.bench_function("fast_reciprocal_256", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &x in &xs {
                acc ^= fast_reciprocal(black_box(x)).bits();
            }
            acc
        })
    });
    let cfg = ExpApprox::PAPER_BEST;
    c.bench_function("exp_approx_256", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &x in &xs {
                acc ^= cfg.eval_p8(black_box(x)).bits();
            }
            acc
        })
    });
}

fn bench_quire(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let a: Vec<P8E1> = (0..256)
        .map(|_| P8E1::from_f64(rng.gen_range(-2.0..2.0)))
        .collect();
    let b2: Vec<P8E1> = (0..256)
        .map(|_| P8E1::from_f64(rng.gen_range(-2.0..2.0)))
        .collect();
    c.bench_function("quire_fused_dot_256", |b| {
        b.iter(|| FusedDot::dot(black_box(&a), black_box(&b2)))
    });
}

fn bench_matmul_and_sim(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let a = Tensor::randn(&[32, 64], &mut rng);
    let b2 = Tensor::randn(&[64, 32], &mut rng);
    c.bench_function("tensor_matmul_32x64x32", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&b2)))
    });
    let sim = SystolicSim::new(Accelerator::new(16, Datapath::Posit8));
    c.bench_function("systolic_sim_gemm_256", |b| {
        b.iter(|| sim.gemm(black_box(256), 256, 256))
    });
}

fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_posit_codec,
        bench_fake_quant,
        bench_softmax,
        bench_approx_ops,
        bench_quire,
        bench_matmul_and_sim
}
criterion_main!(benches);
