//! Quickstart: a tour of the 8-bit number formats and the posit bit-trick
//! approximations.
//!
//! ```bash
//! cargo run --release -p qt-examples --bin quickstart
//! ```

use qt_posit::approx::{fast_reciprocal, fast_sigmoid, ExpApprox};
use qt_posit::{FusedDot, Quire, P8E1};
use qt_quant::{ElemFormat, FakeQuant};
use qt_softfloat::{Bf16, E4M3, E5M2};

fn main() {
    println!("— formats —");
    for x in [0.1234f64, 1.0, std::f64::consts::PI, 250.0, 5000.0, 1e-4] {
        println!(
            "x = {x:>10}: Posit(8,1) → {:<10} E4M3 → {:<8} E5M2 → {:<8} BF16 → {}",
            P8E1::quantize(x),
            E4M3::quantize(x),
            E5M2::quantize(x),
            Bf16::quantize(x as f32),
        );
    }

    println!("\n— posit anatomy (Figure 1 of the paper) —");
    let p = P8E1::from_f64(0.171875);
    println!(
        "0.171875 encodes as {:08b} (sign 0, regime 001 → k=-2, exp 1, frac 011) with {} fraction bits",
        p.bits(),
        p.fraction_bits()
    );

    println!("\n— tapered precision —");
    for x in [1.05f64, 10.5, 100.5, 1000.5] {
        let q = P8E1::quantize(x);
        println!(
            "quantizing {x:>7}: posit → {q:>6} (rel err {:.2}%), fraction bits: {}",
            100.0 * ((q - x) / x).abs(),
            P8E1::from_f64(x).fraction_bits()
        );
    }

    println!("\n— bitwise approximations (§3.3) —");
    for x in [-2.0f64, -0.5, 0.0, 1.0, 3.0] {
        let s = fast_sigmoid(P8E1::from_f64(x));
        println!(
            "sigmoid({x:>4}) ≈ {:<8} (exact {:.4})",
            s.to_f64(),
            1.0 / (1.0 + (-x).exp())
        );
    }
    for x in [0.75f64, 2.0, 3.0, 5.0] {
        let r = fast_reciprocal(P8E1::from_f64(x));
        println!(
            "1/{x} ≈ {:<8} (exact {:.4}) — pure NOT gates",
            r.to_f64(),
            1.0 / x
        );
    }
    let exp = ExpApprox::PAPER_BEST;
    for x in [-5.0f64, -3.0, -1.0, -0.25] {
        println!(
            "exp({x:>5}) ≈ {:<8} (exact {:.4}) — θ={}, ε={}",
            exp.eval_f64(x),
            x.exp(),
            exp.theta,
            exp.epsilon
        );
    }

    println!("\n— fused dot product (quire, §3.2) —");
    let a: Vec<P8E1> = [1.5, 2.0, -0.25, 0.01]
        .iter()
        .map(|&x| P8E1::from_f64(x))
        .collect();
    let b: Vec<P8E1> = [2.0, 0.5, 4.0, 100.0]
        .iter()
        .map(|&x| P8E1::from_f64(x))
        .collect();
    let mut q = Quire::<8, 1>::new();
    for (&x, &y) in a.iter().zip(&b) {
        q.add_product(x, y);
    }
    println!(
        "exact accumulation {}, rounded once to posit: {}",
        q.to_f64(),
        FusedDot::dot(&a, &b)
    );

    println!("\n— tensor fake-quantization —");
    let fq = FakeQuant::new(ElemFormat::P8E1);
    let t = qt_tensor::Tensor::from_vec(vec![0.1, 1.05, -3.3, 900.0, 1e-6], &[5]);
    println!("input:  {:?}", t.data());
    println!("posit8: {:?}", fq.quantize(&t).data());
}
