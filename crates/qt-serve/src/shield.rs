//! Serving-side memory integrity: build a qt-shield parity plane over a
//! model's quantized weight codes, and translate integrity events into
//! the `TensorHealth` language the breaker already speaks.
//!
//! The shield protects exactly what the paper's accelerator keeps
//! resident: one [`qt_quant::QuantizedTensor`]-shaped code plane per
//! parameter, quantized with the same deterministic
//! [`FakeQuant::quantize_to_codes`] path the engine's primary format
//! uses. That determinism is what makes quarantine → repair bit-exact:
//! re-quantizing the pristine f32 master weights reproduces the
//! original codes (and parity plane) to the bit, at any `QT_THREADS`.
//!
//! Serving semantics while a region is quarantined: the replica routes
//! attempts down the *existing* degraded path (BF16 from the pristine
//! f32 master — see [`crate::engine::Engine`]), so repair is invisible
//! to correctness and only costs the degraded format's latency. Reads
//! that hit a correctable fault before the scrubber gets there are
//! corrected transiently and still served on the primary path: the
//! corrected codes are identical to the pristine codes by construction.

use crate::engine::Engine;
use qt_quant::{ElemFormat, FakeQuant, TensorHealth};
use qt_shield::{EccRegion, Shield};
use qt_transformer::Model;

/// ECC-protect every parameter of `model` as `format` storage codes,
/// one region per parameter in `params.names()` order. `None` for
/// `Fp32` (a carrier, not a storage format).
pub fn shield_model(model: &Model, format: ElemFormat) -> Option<Shield> {
    if format == ElemFormat::Fp32 {
        return None;
    }
    let fq = FakeQuant::new(format);
    let mut regions = Vec::new();
    for name in model.params.names() {
        let qt = fq.quantize_to_codes(model.params.get(&name))?;
        regions.push(EccRegion::protect(&name, qt.codes()));
    }
    Some(Shield::new(regions))
}

/// Re-quantize one parameter from the pristine f32 master weights: the
/// repair payload for a quarantined region, bit-exact with what
/// [`shield_model`] protected. `None` for `Fp32`.
pub fn pristine_codes(model: &Model, format: ElemFormat, name: &str) -> Option<Vec<u16>> {
    let fq = FakeQuant::new(format);
    Some(
        fq.quantize_to_codes(model.params.get(name))?
            .codes()
            .to_vec(),
    )
}

/// Repair payload addressed by region index within `engine`'s model, in
/// the same `params.names()` order [`shield_model`] used.
pub fn pristine_codes_for_region(
    engine: &Engine,
    format: ElemFormat,
    region: usize,
) -> Option<Vec<u16>> {
    let names = engine.model().params.names();
    pristine_codes(engine.model(), format, names.get(region)?)
}

/// An uncorrectable-storage detection expressed as [`TensorHealth`], so
/// scrub/repair events flow through the same unhealthy-attempt
/// accounting (and circuit breaker) as numerical faults: a poisoned
/// region is indistinguishable from a non-finite read, because that is
/// what the datapath would eventually see.
pub fn integrity_health(elements: u64, uncorrectable_words: u64) -> TensorHealth {
    TensorHealth {
        elements,
        nonfinite_out: uncorrectable_words,
        ..TensorHealth::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::HealthWindow;
    use qt_transformer::{TaskHead, TransformerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cfg = TransformerConfig::mobilebert_tiny_sim();
        cfg.layers = 1;
        Model::new(cfg, TaskHead::Classify(2), &mut rng)
    }

    #[test]
    fn shield_covers_every_parameter_in_name_order() {
        let model = tiny_model();
        let shield = shield_model(&model, ElemFormat::P8E1).unwrap();
        let names = model.params.names();
        assert_eq!(shield.regions().len(), names.len());
        for (region, name) in shield.regions().iter().zip(&names) {
            assert_eq!(region.name(), name);
            assert_eq!(region.codes_len(), model.params.get(name).len());
        }
        assert!(shield_model(&model, ElemFormat::Fp32).is_none());
    }

    #[test]
    fn pristine_codes_match_protected_regions_bit_exactly() {
        let model = tiny_model();
        let shield = shield_model(&model, ElemFormat::E4M3).unwrap();
        for (i, name) in model.params.names().iter().enumerate() {
            let codes = pristine_codes(&model, ElemFormat::E4M3, name).unwrap();
            assert!(
                shield.regions()[i].matches_exact(&codes),
                "{name}: repair payload differs from protected plane"
            );
        }
    }

    #[test]
    fn repair_after_double_flip_is_bit_exact() {
        let model = tiny_model();
        let mut shield = shield_model(&model, ElemFormat::P8E1).unwrap();
        shield.inject(0, 0, 3);
        shield.inject(0, 0, 59);
        assert!(!shield.verify_reads().quarantined.is_empty());
        let name = model.params.names()[0].clone();
        let codes = pristine_codes(&model, ElemFormat::P8E1, &name).unwrap();
        shield.repair_region(0, &codes);
        assert!(!shield.has_quarantine());
        assert!(shield.regions()[0].matches_exact(&codes));
    }

    #[test]
    fn integrity_health_trips_the_unhealthy_gate() {
        assert!(HealthWindow::is_unhealthy(&integrity_health(1024, 1)));
        assert!(!HealthWindow::is_unhealthy(&integrity_health(1024, 0)));
    }
}
