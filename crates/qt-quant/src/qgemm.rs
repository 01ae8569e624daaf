//! Code-domain GEMM: multiply straight from stored quantization codes.
//!
//! The paper's datapath keeps every operand as 8-bit codes with shared
//! scales; the f32 tensors this repo carries are only a simulation
//! vehicle, and the model's own GEMMs run as [`Tensor::matmul`] on
//! operands already cut to the 8-bit grid. This module is the storage
//! view of the same multiply:
//!
//! - [`QuantizedTensor`] holds a tensor as its stored bit codes
//!   ([`ElemFormat::encode_code`] words — what accelerator SRAM holds);
//! - [`PackedQuantB`] decodes a weight matrix **once** per pack, via a
//!   `2^bits` direct-index decode table, straight into the blocked
//!   `KC × NR` panel layout of [`qt_tensor::gemm::PackedB`] — no full
//!   f32 weight materialization;
//! - [`matmul_codes`] drives the shared SIMD-dispatched blocked GEMM
//!   over a pre-packed weight. `perf_kernels` times it as the `code`
//!   domain.
//!
//! # Bitwise-identity contract
//!
//! [`matmul_codes`] produces outputs **bit-identical** to dequantizing
//! and calling [`Tensor::matmul`] (asserted by tests, not assumed):
//!
//! - decode ∘ encode is the identity on every value a [`FakeQuant`]
//!   emits, except that a `-0.0` grid value may decode as `+0.0` — and
//!   zeros are skip-gated identically on both sides, so no output bit
//!   can differ;
//! - tiling, accumulation order (`k` ascending per element), and the
//!   row-finite-gated zero skip are shared with the f32 engine.

use crate::format::ElemFormat;
use crate::quantizer::FakeQuant;
use qt_tensor::gemm::{self, PackedB};
use qt_tensor::Tensor;

/// A tensor stored as quantization codes: the format, the shape, and one
/// `u16` storage word per element (only the low [`ElemFormat::bits`] bits
/// are meaningful).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedTensor {
    format: ElemFormat,
    shape: Vec<usize>,
    codes: Vec<u16>,
}

impl QuantizedTensor {
    /// Wrap raw codes. `codes.len()` must match the shape's element count.
    ///
    /// # Panics
    ///
    /// Panics if the element count mismatches or the format is `Fp32`
    /// (a carrier, not a storage format).
    pub fn new(format: ElemFormat, shape: &[usize], codes: Vec<u16>) -> Self {
        assert!(
            format != ElemFormat::Fp32,
            "Fp32 is a carrier, not a storage format"
        );
        let count: usize = shape.iter().product();
        assert_eq!(codes.len(), count, "codes do not fill shape {shape:?}");
        Self {
            format,
            shape: shape.to_vec(),
            codes,
        }
    }

    /// The storage format of the codes.
    pub fn format(&self) -> ElemFormat {
        self.format
    }

    /// The logical tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The stored code words, row-major.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Decode back to the f32 values the datapath computes with.
    pub fn dequantize(&self) -> Tensor {
        let lut = DecodeLut::new(self.format);
        let data: Vec<f32> = self.codes.iter().map(|&c| lut.get(c)).collect();
        Tensor::from_vec(data, &self.shape)
    }
}

/// Direct-index decode table: `table[code]` = the f32 the code decodes
/// to. `2^bits` entries (≤ 256 KiB even for the 16-bit formats), built
/// once per pack.
struct DecodeLut {
    table: Vec<f32>,
    mask: u16,
}

impl DecodeLut {
    fn new(format: ElemFormat) -> Self {
        let bits = format.bits();
        assert!(bits <= 16, "decode LUT needs a storage format");
        let table: Vec<f32> = (0..1u32 << bits)
            .map(|c| format.decode_code(c as u16).expect("storage format"))
            .collect();
        Self {
            table,
            mask: ((1u32 << bits) - 1) as u16,
        }
    }

    #[inline]
    fn get(&self, code: u16) -> f32 {
        self.table[(code & self.mask) as usize]
    }
}

impl FakeQuant {
    /// Quantize to stored codes: round each element onto the grid (the
    /// exact [`FakeQuant::quantize_scalar`] path, including underflow and
    /// non-finite policies) and encode the resulting grid value. `None`
    /// for `Fp32`, which has no storage code.
    pub fn quantize_to_codes(&self, t: &Tensor) -> Option<QuantizedTensor> {
        if self.format() == ElemFormat::Fp32 {
            return None;
        }
        let fmt = self.format();
        // Fixed chunking: the decomposition is thread-count-invariant.
        let chunks = qt_par::parallel_map_slices(t.data(), 8 * 1024, |_, _, xs| {
            xs.iter()
                .map(|&x| {
                    fmt.encode_code(self.quantize_scalar(x))
                        .expect("non-Fp32 format encodes")
                })
                .collect::<Vec<u16>>()
        });
        let mut codes = Vec::with_capacity(t.len());
        for c in chunks {
            codes.extend(c);
        }
        Some(QuantizedTensor::new(fmt, t.shape(), codes))
    }
}

/// A 2-D weight matrix decoded once from codes into the blocked panel
/// layout the SIMD microkernels consume. Build it once per weight
/// version; every multiply then runs without touching the codes or
/// materializing an f32 weight tensor.
pub struct PackedQuantB(PackedB);

impl PackedQuantB {
    /// Decode-and-pack a `[k, n]` quantized matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D.
    pub fn pack(w: &QuantizedTensor) -> Self {
        assert_eq!(w.shape().len(), 2, "weight pack needs a 2-D matrix");
        let (k, n) = (w.shape()[0], w.shape()[1]);
        let lut = DecodeLut::new(w.format());
        let codes = w.codes();
        Self(PackedB::pack_with(k, n, |kk, row| {
            for (slot, &c) in row.iter_mut().zip(&codes[kk * n..(kk + 1) * n]) {
                *slot = lut.get(c);
            }
        }))
    }

    /// Contraction depth (`k`).
    pub fn k(&self) -> usize {
        self.0.k()
    }

    /// Output width (`n`).
    pub fn n(&self) -> usize {
        self.0.n()
    }
}

/// Multiply `x` (`[..., m, k]`, f32 carrier — typically fake-quantized
/// activations) by a pre-packed quantized weight (`[k, n]`), producing
/// `[..., m, n]`. All leading axes share the weight, so they flatten
/// into one row dimension and parallelize over MC-row blocks through
/// the shared backend-dispatched engine.
///
/// Bitwise-identical to `x.matmul(&w.dequantize())` at any thread count
/// and backend.
///
/// # Panics
///
/// Panics if `x` has fewer than 2 axes or its last axis is not `w.k()`.
pub fn matmul_codes(x: &Tensor, w: &PackedQuantB) -> Tensor {
    assert!(x.ndim() >= 2, "matmul_codes lhs must be at least 2-D");
    let k = x.shape()[x.ndim() - 1];
    assert_eq!(
        k,
        w.k(),
        "matmul_codes contraction mismatch: {:?} x [{}, {}]",
        x.shape(),
        w.k(),
        w.n()
    );
    let n = w.n();
    let rows: usize = x.shape()[..x.ndim() - 1].iter().product();
    let mut out_shape = x.shape()[..x.ndim() - 1].to_vec();
    out_shape.push(n);
    let mut out = Tensor::zeros(&out_shape);
    if rows == 0 || n == 0 || k == 0 {
        return out;
    }
    gemm::gemm_prepacked(x.data(), rows, k, n, &w.0, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messy_tensor(shape: &[usize], salt: usize) -> Tensor {
        let count: usize = shape.iter().product();
        let data: Vec<f32> = (0..count)
            .map(|i| {
                let m = ((i + salt) * 2654435761) & 0xffff;
                if m.is_multiple_of(9) {
                    0.0
                } else {
                    ((m as f32) - 32768.0) * 1.7f32.powi((m % 11) as i32 - 5) * 1e-3
                }
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn decode_encode_round_trips_quantizer_output() {
        for fmt in [
            ElemFormat::P8E1,
            ElemFormat::E4M3,
            ElemFormat::E5M3,
            ElemFormat::P16E1,
            ElemFormat::Bf16,
        ] {
            let fq = FakeQuant::new(fmt);
            let t = messy_tensor(&[64], 7);
            let q = fq.quantize(&t);
            let codes = fq.quantize_to_codes(&t).unwrap();
            let back = codes.dequantize();
            for (i, (&a, &b)) in q.data().iter().zip(back.data()).enumerate() {
                // Exact bits, except -0.0 may decode as +0.0.
                if a == 0.0 && b == 0.0 {
                    continue;
                }
                assert_eq!(a.to_bits(), b.to_bits(), "{fmt} elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn matmul_codes_matches_dequantized_matmul() {
        for fmt in [ElemFormat::P8E1, ElemFormat::E4M3, ElemFormat::P16E1] {
            let fq = FakeQuant::new(fmt);
            let x = fq.quantize(&messy_tensor(&[2, 5, 33], 1));
            let wq = fq.quantize_to_codes(&messy_tensor(&[33, 17], 2)).unwrap();
            let packed = PackedQuantB::pack(&wq);
            let got = matmul_codes(&x, &packed);
            let want = x.matmul(&wq.dequantize());
            assert_eq!(got.shape(), &[2, 5, 17]);
            for (g, w) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{fmt}");
            }
        }
    }
}
