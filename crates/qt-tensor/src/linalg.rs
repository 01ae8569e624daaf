//! Matrix multiplication, transposition, permutation.
//!
//! The GEMM engine itself — packing, tiling, microkernel dispatch, and
//! the parallel driver — lives in [`crate::gemm`] (with the per-backend
//! inner loops in [`crate::kernels`]); this module provides the
//! batched/broadcasting [`Tensor::matmul`] front end on top of it.
//! Results are bitwise-deterministic at any thread count and identical
//! across all kernel backends.

use std::collections::BTreeMap;

use crate::gemm::{gemm_block, run_parts, PackedB, MC};
use crate::shape::strides_of;
use crate::tensor::Tensor;

impl Tensor {
    /// Batched matrix multiplication.
    ///
    /// `self` has shape `[..., m, k]`, `rhs` has shape `[..., k, n]`; the
    /// leading (batch) axes broadcast against each other; the result has
    /// shape `[broadcast_batch..., m, n]`.
    ///
    /// Runs the blocked parallel kernel described in the module docs;
    /// results are bitwise-identical for any `QT_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than 2 axes, the contraction dims
    /// disagree, or batch axes are not broadcast-compatible.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert!(
            self.ndim() >= 2 && rhs.ndim() >= 2,
            "matmul operands must be at least 2-D (got {:?} x {:?})",
            self.shape(),
            rhs.shape()
        );
        let (m, ka) = (self.shape()[self.ndim() - 2], self.shape()[self.ndim() - 1]);
        let (kb, n) = (rhs.shape()[rhs.ndim() - 2], rhs.shape()[rhs.ndim() - 1]);
        assert_eq!(
            ka,
            kb,
            "matmul contraction mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let batch_a = &self.shape()[..self.ndim() - 2];
        let batch_b = &rhs.shape()[..rhs.ndim() - 2];
        let batch = crate::shape::broadcast_shapes(batch_a, batch_b);
        let batch_count: usize = batch.iter().product();

        let mut out_shape = batch.clone();
        out_shape.extend_from_slice(&[m, n]);
        let mut out = Tensor::zeros(&out_shape);
        if m == 0 || n == 0 || ka == 0 || batch_count == 0 {
            return out;
        }

        // Flat batch offsets for each operand (0-stride on broadcast axes).
        let offs_a = batch_offsets(batch_a, &batch, m * ka);
        let offs_b = batch_offsets(batch_b, &batch, kb * n);

        let a = self.data();
        let b = rhs.data();

        // Pack B once per distinct batch offset (broadcast batches share
        // one pack), outside the parallel region. Offset → pack index via
        // a BTreeMap: O(B log B) over the batch instead of the former
        // O(B²) linear rescan, and iteration order (hence pack order)
        // stays deterministic.
        let mut pack_of = vec![0usize; batch_count];
        let mut packs: Vec<PackedB> = Vec::new();
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new(); // offset → pack idx
        for (bi, &bb) in offs_b.iter().enumerate() {
            let idx = *seen.entry(bb).or_insert_with(|| {
                packs.push(PackedB::pack(b, bb, kb, n));
                packs.len() - 1
            });
            pack_of[bi] = idx;
        }

        // One parallel unit per (batch, MC-row block); units tile the
        // output contiguously, in order. The backend (and so the kernel
        // pointer) is resolved once per matmul on the issuing thread.
        let kernel = crate::kernels::active().kernel();
        let row_blocks = m.div_ceil(MC);
        let mut part_lens = Vec::with_capacity(batch_count * row_blocks);
        for _ in 0..batch_count {
            for rb in 0..row_blocks {
                part_lens.push((MC.min(m - rb * MC)) * n);
            }
        }
        let unit = |u: usize, opart: &mut [f32]| {
            let bi = u / row_blocks;
            let rb = u % row_blocks;
            let i0 = rb * MC;
            let rows = MC.min(m - i0);
            gemm_block(
                &a[offs_a[bi]..],
                i0,
                rows,
                ka,
                n,
                &packs[pack_of[bi]],
                opart,
                kernel,
            );
        };

        run_parts(out.data_mut(), &part_lens, batch_count * m * ka * n, unit);
        out
    }

    /// Swap the last two axes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has fewer than 2 axes.
    pub fn transpose_last2(&self) -> Tensor {
        assert!(self.ndim() >= 2, "transpose needs >= 2 axes");
        let nd = self.ndim();
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(nd - 2, nd - 1);
        self.permute(&perm)
    }

    /// Permute the axes: `out.shape[i] = self.shape[perm[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permutation rank mismatch");
        let mut seen = vec![false; nd];
        for &p in perm {
            assert!(p < nd && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let in_strides = strides_of(self.shape());
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape()[p]).collect();
        let mut out = Tensor::zeros(&out_shape);
        // Walk output in order; map each output index to the input offset.
        let mut idx = vec![0usize; nd];
        let odata = out.data_mut();
        for slot in odata.iter_mut() {
            let mut in_off = 0;
            for (oax, &p) in perm.iter().enumerate() {
                in_off += idx[oax] * in_strides[p];
            }
            *slot = self.data()[in_off];
            for ax in (0..nd).rev() {
                idx[ax] += 1;
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        out
    }

    /// Slice along the first axis: rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the tensor is 0-D.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(self.ndim() >= 1, "cannot slice a scalar");
        assert!(
            start <= end && end <= self.shape()[0],
            "row slice {start}..{end} out of bounds for {:?}",
            self.shape()
        );
        let row: usize = self.shape()[1..].iter().product();
        let mut shape = self.shape().to_vec();
        shape[0] = end - start;
        Tensor::from_vec(self.data()[start * row..end * row].to_vec(), &shape)
    }
}

/// Per-batch flat element offsets for an operand whose batch shape is
/// `own` broadcast to `full`, with `inner` elements per matrix.
fn batch_offsets(own: &[usize], full: &[usize], inner: usize) -> Vec<usize> {
    if full.is_empty() {
        return vec![0];
    }
    let count: usize = full.iter().product();
    // Strides here count whole matrices; scale to elements when emitting.
    let strides = crate::shape::broadcast_strides(own, full);
    let nd = full.len();
    let mut offs = Vec::with_capacity(count);
    let mut idx = vec![0usize; nd];
    let mut off = 0usize;
    for _ in 0..count {
        offs.push(off * inner);
        for ax in (0..nd).rev() {
            idx[ax] += 1;
            off += strides[ax];
            if idx[ax] < full[ax] {
                break;
            }
            off -= strides[ax] * full[ax];
            idx[ax] = 0;
        }
    }
    offs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_propagates_nonfinite_rhs_through_zero_lhs() {
        // IEEE: 0 × NaN = NaN and 0 × ∞ = NaN. The zero-skip fast path
        // must not hide a poisoned B row behind a zero A element.
        let a = Tensor::zeros(&[1, 2]);
        let mut b = Tensor::zeros(&[2, 2]);
        b.set(&[0, 0], f32::NAN);
        b.set(&[1, 1], f32::INFINITY);
        let c = a.matmul(&b);
        assert!(c.data()[0].is_nan(), "0×NaN must propagate");
        assert!(c.data()[1].is_nan(), "0×∞ must propagate");
        // Finite B rows still take the skip: zeros stay exactly zero.
        let bf = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&bf).data(), &[0.0, 0.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).data(), a.data());
        assert_eq!(Tensor::eye(2).matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_batched() {
        // [2, 2, 3] x [2, 3, 1]
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]);
        let b = Tensor::ones(&[2, 3, 1]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 1]);
        assert_eq!(c.data(), &[3.0, 12.0, 21.0, 30.0]);
    }

    #[test]
    fn matmul_broadcast_batch() {
        // [2, 2] broadcast against batch [3, ...]
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 2, 2]);
        // each batch: diag(1,2) * b
        assert_eq!(&c.data()[0..4], &[0.0, 1.0, 4.0, 6.0]);
        assert_eq!(&c.data()[8..12], &[8.0, 9.0, 20.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "contraction mismatch")]
    fn matmul_bad_dims() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn transpose() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // double transpose is identity
        assert_eq!(t.transpose_last2().data(), a.data());
    }

    #[test]
    fn permute_heads_pattern() {
        // [B=1, S=2, H=2, D=2] -> [B, H, S, D]
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let y = x.permute(&[0, 2, 1, 3]);
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(y.data(), &[0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
        // inverse permutation restores
        assert_eq!(y.permute(&[0, 2, 1, 3]).data(), x.data());
    }

    #[test]
    fn slice_rows_basic() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let s = x.slice_rows(1, 3);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.5).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| i as f32 * 0.25 - 1.0).collect(), &[3, 4]);
        let lhs = a.matmul(&b).transpose_last2();
        let rhs = b.transpose_last2().matmul(&a.transpose_last2());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
