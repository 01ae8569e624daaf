//! Cross-crate checks of the paper's headline claims at the scale this
//! reproduction runs at (see EXPERIMENTS.md for the full mapping).

use qt_accel::{
    Accelerator, Datapath, ExpUnit, RecipUnit, SynthesisPoint, SystolicSim, Tech40, VectorUnit,
};
use qt_posit::approx::ExpApprox;
use qt_quant::{ElemFormat, QuantScheme, SoftmaxKind};
use qt_tensor::Tensor;
use qt_transformer::Softmax;

#[test]
fn claim_posit8_has_best_decimal_accuracy_near_one() {
    use qt_posit::P8E1;
    use qt_softfloat::accuracy::decimal_accuracy_of_rounding;
    use qt_softfloat::{E4M3, E5M2};
    let worst = |round: &dyn Fn(f64) -> f64| {
        (1..100)
            .map(|i| decimal_accuracy_of_rounding(1.0 + i as f64 / 100.0, round))
            .fold(f64::INFINITY, f64::min)
    };
    let p = worst(&|x| P8E1::quantize(x));
    let e4 = worst(&|x| E4M3::quantize(x));
    let e5 = worst(&|x| E5M2::quantize(x));
    assert!(p > e4 && e4 > e5, "Figure 4 ordering: {p} {e4} {e5}");
}

#[test]
fn claim_approx_softmax_masks_correctly_only_with_threshold() {
    let x = Tensor::from_vec(vec![2.0, 1.5, -30.0, -30.0, -30.0, -30.0], &[1, 6]);
    let with = Softmax::new(SoftmaxKind::posit_full()).forward(&x);
    let without = Softmax::new(SoftmaxKind::PositApprox {
        approx_exp: true,
        approx_recip: true,
        exp: ExpApprox::raw(),
    })
    .forward(&x);
    let leak_with: f32 = with.data()[2..].iter().sum();
    let leak_without: f32 = without.data()[2..].iter().sum();
    assert_eq!(leak_with, 0.0, "thresholded exp must zero masked tokens");
    assert!(
        leak_without > 0.05,
        "raw approximation must leak attention: {leak_without}"
    );
}

#[test]
fn claim_gradients_underflow_posit8_without_scaling() {
    // Typical activation-gradient magnitudes (Figure 10) are far below
    // Posit8's minpos.
    let grads = [1e-5f32, 3e-6, 8e-7];
    for g in grads {
        assert_eq!(ElemFormat::P8E1.quantize_scalar(g), 0.0);
        assert_eq!(ElemFormat::E4M3.quantize_scalar(g), 0.0);
    }
    // Per-tensor scaling (amax → 64) rescues them.
    let amax = 1e-5f32;
    let scale = qt_quant::AmaxTracker::scale_from_amax(amax, ElemFormat::P8E1);
    for g in grads {
        let rescued = ElemFormat::P8E1.quantize_scalar(g * scale) / scale;
        assert!(
            (rescued - g).abs() / g < 0.06,
            "g={g} rescued={rescued} (scale {scale})"
        );
    }
}

#[test]
fn claim_hybrid_fp8_mac_supports_both_operand_formats() {
    use qt_softfloat::{E4M3, E5M2, E5M3};
    // Every operand value of either FP8 format is exact in the E5M3 MAC.
    for b in 0u16..=255 {
        let a = E4M3::from_bits(b).to_f64();
        if a.is_finite() {
            assert_eq!(E5M3::quantize(a), a);
        }
        let c = E5M2::from_bits(b).to_f64();
        if c.is_finite() {
            assert_eq!(E5M3::quantize(c), c);
        }
    }
}

#[test]
fn claim_hardware_savings_hold_together() {
    // All four headline hardware claims must hold simultaneously in the
    // cost model (abstract + Table 8 + §4.2).
    let tech = Tech40::default();
    let pt = SynthesisPoint::nominal();

    // exp / recip unit savings
    let exp_red = 1.0
        - ExpUnit::posit16_approx().synth(&tech, pt).area_mm2
            / ExpUnit::bf16_exact().synth(&tech, pt).area_mm2;
    assert!(exp_red > 0.5, "exp unit: {exp_red}");
    let recip_red = 1.0
        - RecipUnit::posit16_approx().synth(&tech, pt).area_mm2
            / RecipUnit::bf16_divider().synth(&tech, pt).area_mm2;
    assert!(recip_red > 0.75, "recip unit: {recip_red}");

    // vector unit savings (Table 8)
    let vec_red = 1.0
        - VectorUnit::posit8_style(16).synth(&tech, pt).area_mm2
            / VectorUnit::fp8_style(16).synth(&tech, pt).area_mm2;
    assert!((0.2..0.5).contains(&vec_red), "vector unit: {vec_red}");

    // accelerator-level: both 8-bit designs beat BF16; FP8 beats Posit8
    let total = |d| Accelerator::new(16, d).synth(&tech, pt).total().area_mm2;
    let bf = total(Datapath::Bf16);
    let p8 = total(Datapath::Posit8);
    let f8 = total(Datapath::HybridFp8);
    assert!(p8 < 0.8 * bf && f8 < 0.8 * bf);
    assert!(f8 < p8);
}

#[test]
fn claim_posit_softmax_is_faster_on_the_vector_unit() {
    let p8 = SystolicSim::new(Accelerator::new(16, Datapath::Posit8));
    let fp8 = SystolicSim::new(Accelerator::new(16, Datapath::HybridFp8));
    assert!(p8.softmax_cycles(128, 128) < fp8.softmax_cycles(128, 128));
}

#[test]
fn claim_8bit_lora_needs_no_float_merge() {
    // Equation 7: the merged weight is representable in the 8-bit format
    // itself (quant of the sum), so the GEMM consumes 8-bit operands.
    use qt_quant::FakeQuant;
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    let fq = FakeQuant::new(ElemFormat::P8E1);
    let w0 = Tensor::randn(&[16, 16], &mut rng).mul_scalar(0.2);
    let a = Tensor::randn(&[16, 4], &mut rng).mul_scalar(0.1);
    let b = Tensor::randn(&[4, 16], &mut rng).mul_scalar(0.1);
    let merged = fq.quantize(
        &fq.quantize(&w0)
            .add(&fq.quantize(&a).matmul(&fq.quantize(&b))),
    );
    // every element of the merged weight is on the posit grid
    for &x in merged.data() {
        assert_eq!(ElemFormat::P8E1.quantize_scalar(x), x);
    }
}

#[test]
fn claim_scheme_zoo_matches_paper_recipes() {
    let fp8 = QuantScheme::fp8();
    assert_eq!(fp8.fwd, ElemFormat::E4M3);
    assert_eq!(fp8.bwd, ElemFormat::E5M2);
    let p8 = QuantScheme::posit8_approx();
    assert!(matches!(p8.softmax, SoftmaxKind::PositApprox { .. }));
    assert_eq!(ElemFormat::P8E1.amax_target(), 64.0); // §5.1
}
