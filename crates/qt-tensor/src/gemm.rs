//! The blocked GEMM engine: packing, tiling, and the parallel driver.
//!
//! [`Tensor::matmul`](crate::Tensor::matmul) and the code-domain GEMM in
//! `qt-quant` both run on this module: a cache-blocked, B-panel-packed
//! kernel (`MC × KC × NR` tiling, f32 accumulate) whose inner loop is a
//! runtime-dispatched [`MicroKernel`] — see
//! [`crate::kernels`] for the backend story.
//!
//! # Determinism contract
//!
//! Every output element accumulates its `k` terms in ascending order
//! regardless of blocking, backend, or thread count; chunk boundaries are
//! shape-based only. Results are bitwise-identical for any `QT_THREADS`
//! and any `QT_BACKEND`.

use crate::kernels::MicroKernel;

/// Rows of `A`/`O` per parallel unit.
pub const MC: usize = 32;
/// Contraction-panel depth: one packed `KC × NR` B tile is ~32 KiB.
pub const KC: usize = 128;
/// Output-column tile width (the microkernel's register block).
pub const NR: usize = 64;
/// Below this many MACs the whole GEMM runs on the calling thread without
/// spawning. Threshold rationale: at ~1 MAC/cycle/core the smallest
/// parallel-worthy GEMM must amortize one scoped-thread spawn+join
/// (~10 µs ≈ 30–50 K cycles on CI-class hardware), so 64 Ki MACs is the
/// break-even point with ~2× headroom; measured in perf_kernels, shapes
/// below it (e.g. 64×64×16 attention fragments) lose time to spawning at
/// every pool size > 1. The decision is shape-based, so it — and the
/// `par.chunk_tasks` counter — is identical at every thread count.
pub const PAR_MIN_MACS: usize = 64 * 1024;

/// Start offsets of the packed `(panel, jb)` tiles for a `k × n` matrix
/// in the standard layout (per KC-panel, per NR-column tile, a contiguous
/// `[kc][nr]` block), plus the tile count per panel (`njb`). Index the
/// result as `offsets[panel * njb + jb]`.
fn tile_offsets(k: usize, n: usize) -> (Vec<usize>, usize) {
    let npanels = k.div_ceil(KC);
    let njb = n.div_ceil(NR);
    let mut tile_off = Vec::with_capacity(npanels * njb);
    let mut off = 0usize;
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for j0 in (0..n).step_by(NR) {
            let nr = NR.min(n - j0);
            tile_off.push(off);
            off += kc * nr;
        }
    }
    debug_assert_eq!(off, k * n);
    (tile_off, njb)
}

/// A right-hand side repacked for the microkernel: per KC-panel, per
/// NR-column tile, a contiguous `[kc][nr]` block, plus a per-`k`-row
/// all-finite flag that gates the `a == 0` skip (skipping a row holding
/// NaN/±∞ would hide the IEEE `0 × ∞ = NaN`).
pub struct PackedB {
    data: Vec<f32>,
    /// Start of tile `(panel, jb)` in `data`, indexed `panel * njb + jb`.
    tile_off: Vec<usize>,
    /// `finite[kk]`: every element of B row `kk` is finite.
    row_finite: Vec<bool>,
    njb: usize,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Pack the `k × n` matrix starting at flat offset `bb` of `b`.
    pub fn pack(b: &[f32], bb: usize, k: usize, n: usize) -> Self {
        Self::pack_with(k, n, |kk, row| {
            row.copy_from_slice(&b[bb + kk * n..bb + (kk + 1) * n])
        })
    }

    /// Pack a `k × n` matrix produced row-by-row: `fill(kk, row)` must
    /// write B row `kk` into the `n`-long scratch `row`. This is the
    /// code-domain entry point — `qt-quant` decodes quantized codes
    /// straight into the pack without ever materializing the full f32
    /// matrix. Row-finite flags are computed from the filled rows.
    pub fn pack_with(k: usize, n: usize, mut fill: impl FnMut(usize, &mut [f32])) -> Self {
        let (tile_off, njb) = tile_offsets(k, n);
        let mut data = vec![0.0f32; k * n];
        let mut row_finite = vec![false; k];
        let mut scratch = vec![0.0f32; n];
        for (kk, finite) in row_finite.iter_mut().enumerate() {
            fill(kk, &mut scratch);
            *finite = scratch.iter().all(|v| v.is_finite());
            let panel = kk / KC;
            let kloc = kk - panel * KC;
            for (jb, j0) in (0..n).step_by(NR).enumerate() {
                let nr = NR.min(n - j0);
                let dst = tile_off[panel * njb + jb] + kloc * nr;
                data[dst..dst + nr].copy_from_slice(&scratch[j0..j0 + nr]);
            }
        }
        Self {
            data,
            tile_off,
            row_finite,
            njb,
            k,
            n,
        }
    }

    /// Contraction depth this pack was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width this pack was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn tile(&self, panel: usize, jb: usize, kc: usize, nr: usize) -> &[f32] {
        let off = self.tile_off[panel * self.njb + jb];
        &self.data[off..off + kc * nr]
    }
}

/// Accumulate `rows` rows of `A × pack` into `o` (shape `[rows, n]`,
/// covering A rows `i0..i0+rows`) with the given microkernel. For each
/// output element the `k` terms are added in ascending order — panels and
/// column tiles only re-tile the loop nest, never the accumulation order.
#[allow(clippy::too_many_arguments)]
pub fn gemm_block(
    a: &[f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    pack: &PackedB,
    o: &mut [f32],
    kernel: MicroKernel,
) {
    for (panel, k0) in (0..k).step_by(KC).enumerate() {
        let kc = KC.min(k - k0);
        for (jb, j0) in (0..n).step_by(NR).enumerate() {
            let nr = NR.min(n - j0);
            let tile = pack.tile(panel, jb, kc, nr);
            let finite = &pack.row_finite[k0..k0 + kc];
            for r in 0..rows {
                let arow = &a[(i0 + r) * k + k0..(i0 + r) * k + k0 + kc];
                let orow = &mut o[r * n + j0..r * n + j0 + nr];
                let mut acc = [0.0f32; NR];
                acc[..nr].copy_from_slice(orow);
                kernel(arow, tile, finite, &mut acc, nr);
                orow.copy_from_slice(&acc[..nr]);
            }
        }
    }
}

/// Run `unit(u, part)` over the disjoint parts of `o` described by
/// `part_lens` (which must sum to `o.len()`), serially on the calling
/// thread when the GEMM is below [`PAR_MIN_MACS`] MACs and through the
/// `qt_par` pool otherwise. Both paths go through
/// `qt_par::parallel_for_parts_mut` (the serial one at pool size 1), so
/// there is exactly one part-walking loop and the `par.chunk_tasks`
/// counter advances identically either way.
pub fn run_parts(
    o: &mut [f32],
    part_lens: &[usize],
    macs: usize,
    unit: impl Fn(usize, &mut [f32]) + Sync,
) {
    let body = |u: usize, _off: usize, opart: &mut [f32]| unit(u, opart);
    if macs < PAR_MIN_MACS {
        qt_par::serial(|| {
            qt_par::parallel_for_parts_mut(o, part_lens, body);
        });
    } else {
        qt_par::parallel_for_parts_mut(o, part_lens, body);
    }
}

/// Multiply `a` (`m × k`, row-major) by a pre-packed B, accumulating into
/// `o` (`m × n`, row-major; typically zero-initialized). Resolves the
/// active backend once, then parallelizes over MC-row blocks with the
/// standard determinism contract. This is the entry the code-domain GEMM
/// drives after decoding codes into the pack.
///
/// # Panics
///
/// Panics if `a` or `o` are shorter than the shapes imply.
pub fn gemm_prepacked(a: &[f32], m: usize, k: usize, n: usize, pack: &PackedB, o: &mut [f32]) {
    assert_eq!(pack.k(), k, "pack depth mismatch");
    assert_eq!(pack.n(), n, "pack width mismatch");
    assert!(a.len() >= m * k, "lhs shorter than m*k");
    assert!(o.len() >= m * n, "out shorter than m*n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kernel = crate::kernels::active().kernel();
    let row_blocks = m.div_ceil(MC);
    let part_lens: Vec<usize> = (0..row_blocks).map(|rb| MC.min(m - rb * MC) * n).collect();
    run_parts(&mut o[..m * n], &part_lens, m * k * n, |rb, opart| {
        let i0 = rb * MC;
        let rows = MC.min(m - i0);
        gemm_block(a, i0, rows, k, n, pack, opart, kernel);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_with_matches_pack() {
        let k = 200;
        let n = 70;
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5 - 100.0).collect();
        let p1 = PackedB::pack(&b, 0, k, n);
        let p2 = PackedB::pack_with(k, n, |kk, row| {
            row.copy_from_slice(&b[kk * n..(kk + 1) * n])
        });
        assert_eq!(p1.data, p2.data);
        assert_eq!(p1.tile_off, p2.tile_off);
        assert_eq!(p1.row_finite, p2.row_finite);
        assert_eq!(p1.njb, p2.njb);
    }

    #[test]
    fn gemm_prepacked_matches_reference() {
        let (m, k, n) = (5, 7, 9);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * 0.125 - 3.0).collect();
        let pack = PackedB::pack(&b, 0, k, n);
        let mut o = vec![0.0f32; m * n];
        gemm_prepacked(&a, m, k, n, &pack, &mut o);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for kk in 0..k {
                    want += a[i * k + kk] * b[kk * n + j];
                }
                assert_eq!(want.to_bits(), o[i * n + j].to_bits());
            }
        }
    }

    #[test]
    fn gemm_prepacked_empty_dims_are_noops() {
        let pack = PackedB::pack(&[], 0, 0, 4);
        let mut o = vec![1.0f32; 8];
        gemm_prepacked(&[], 2, 0, 4, &pack, &mut o);
        assert_eq!(o, vec![1.0f32; 8]);
    }
}
