//! Shared im2col / col2im lowering for the GEMM convolution backend.
//!
//! All convolution passes in this crate reduce to one matrix product per
//! sample (computed by [`mgd_tensor::matmul`]):
//!
//! | pass                        | product                                     |
//! |-----------------------------|---------------------------------------------|
//! | `Conv3d` forward            | `Y = W · [X]` (implicit gather, [`conv_gemm`]) |
//! | `Conv3d` ∂input             | `dX = col2im(Wᵀ · dY)`                       |
//! | `Conv3d` ∂weight            | `dW += dY · im2col(X)ᵀ`                      |
//! | `ConvTranspose3d` forward   | `Y = col2im(Vᵀ · X) + b`                     |
//! | `ConvTranspose3d` ∂input    | `dX = V · im2col(dY)`                        |
//! | `ConvTranspose3d` ∂weight   | `dV += X · im2col(dY)ᵀ`                      |
//!
//! where the patch matrix of a sample holds one `(channel, kernel-tap)`
//! row per matrix row and one sliding-window position per column. The
//! `Conv3d` forward never materializes it: [`conv_gemm`] hands the GEMM a
//! [`PanelSource`] that gathers each packed `NR`-column panel straight
//! from the activation (`[X]` above), so the patch values go from the
//! input to the micro-kernel in one copy instead of three (im2col, B-pack,
//! kernel). The panels hold exactly the values [`im2col_range`] would
//! write, so the product is bitwise identical to im2col + GEMM. The only
//! materialized patch matrices left are those of the backward passes and
//! the cached-patch training forward (kept for the weight gradient).
//!
//! A transpose convolution is the adjoint of a convolution with the same
//! kernel/stride/padding, so the *same two* gather/scatter routines serve
//! both layers — `Conv3d` lowers over its input grid, `ConvTranspose3d`
//! over its output grid.
//!
//! Gathers parallelize over patch rows (or GEMM column slabs) and
//! scatters over channels; every task writes a disjoint slice in a fixed
//! order, so results are bitwise deterministic for any thread count.

use crate::layer::Triple;
use crate::util::SendPtr;
use mgd_tensor::matmul::{gemm_prepacked_with, PackedA, PanelSource};
use mgd_tensor::par::par_jobs;
use mgd_tensor::{Element, GemmElement};
use serde::{Deserialize, Serialize};

/// Which kernel implementation a convolution layer runs.
///
/// `Gemm` (the default) lowers onto the blocked matmul of
/// [`mgd_tensor::matmul`]; `Direct` keeps the original scalar triple-loop
/// kernels. The two are numerically equivalent to f64 round-off (enforced
/// by property tests), so `Direct` serves as a bisectable reference and a
/// fallback for debugging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvBackend {
    /// Scalar sliding-window loops (reference implementation).
    Direct,
    /// im2col / col2im lowering onto the blocked, register-tiled GEMM.
    #[default]
    Gemm,
}

/// Sliding-window geometry of one lowering: `c` channels of a
/// `dims`-shaped grid gathered through `kernel`/`stride`/`padding` windows
/// anchored at `out` positions.
#[derive(Clone, Copy, Debug)]
pub struct ConvGeom {
    /// Channels of the gathered/scattered grid.
    pub c: usize,
    /// Spatial extents (d, h, w) of the gathered/scattered grid.
    pub dims: Triple,
    /// Kernel extents.
    pub kernel: Triple,
    /// Strides.
    pub stride: Triple,
    /// Zero padding.
    pub padding: Triple,
    /// Window-anchor counts (the patch-matrix column space).
    pub out: Triple,
}

impl ConvGeom {
    /// Kernel volume.
    pub fn kvol(&self) -> usize {
        self.kernel.0 * self.kernel.1 * self.kernel.2
    }

    /// Patch-matrix rows: one per `(channel, kernel tap)`.
    pub fn rows(&self) -> usize {
        self.c * self.kvol()
    }

    /// Patch-matrix columns: one per window position.
    pub fn cols(&self) -> usize {
        self.out.0 * self.out.1 * self.out.2
    }

    /// Grid volume per channel.
    pub fn vol(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }
}

/// The valid anchor range `[lo, hi)` along one axis for kernel tap `k`:
/// anchors `o` with `0 <= o*stride + k - pad < extent`.
#[inline]
fn anchor_range(
    k: usize,
    stride: usize,
    pad: usize,
    extent: usize,
    anchors: usize,
) -> (usize, usize) {
    let lo = if k >= pad {
        0
    } else {
        (pad - k).div_ceil(stride)
    };
    let hi = if extent + pad > k {
        ((extent + pad - k - 1) / stride + 1).min(anchors)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Gathers `src` (one sample, `c × dims` row-major) into the patch matrix
/// `col` (`rows() × cols()` row-major). Out-of-grid taps become zeros.
pub(crate) fn im2col<E: Element>(g: &ConvGeom, src: &[E], col: &mut [E]) {
    im2col_range(g, src, col, 0, g.out.0 * g.out.1);
}

/// [`im2col`] restricted to anchor rows `[ar0, ar1)` of the flattened
/// `(o_d, o_h)` space — the column blocks `[ar0*ow, ar1*ow)` of the full
/// patch matrix. Chunking along this axis keeps the patch matrix
/// cache-resident at megavoxel grids, where materializing all of it would
/// turn the GEMM lowering memory-bound.
pub fn im2col_range<E: Element>(g: &ConvGeom, src: &[E], col: &mut [E], ar0: usize, ar1: usize) {
    let rows = g.rows();
    let cols = (ar1 - ar0) * g.out.2;
    assert_eq!(src.len(), g.c * g.vol());
    assert_eq!(col.len(), rows * cols);
    let (_, kh, kw) = g.kernel;
    let (sd, sh, sw) = g.stride;
    let (pd, ph, pw) = g.padding;
    let (dd, dh, dw) = g.dims;
    let (od, oh, ow) = g.out;
    let _ = od;
    let colptr = SendPtr(col.as_mut_ptr());
    par_jobs(rows, cols, |r| {
        // SAFETY: row task `r` exclusively owns col[r*cols .. (r+1)*cols].
        let dst = unsafe { std::slice::from_raw_parts_mut(colptr.get().add(r * cols), cols) };
        let (ci, tap) = (r / g.kvol(), r % g.kvol());
        let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
        let (khi, kwi) = (rem / kw, rem % kw);
        let (dlo, dhi) = anchor_range(kdi, sd, pd, dd, g.out.0);
        let (hlo, hhi) = anchor_range(khi, sh, ph, dh, oh);
        let (wlo, whi) = anchor_range(kwi, sw, pw, dw, ow);
        let chan = &src[ci * dd * dh * dw..(ci + 1) * dd * dh * dw];
        let mut idx = 0usize;
        for a in ar0..ar1 {
            let (o_d, o_h) = (a / oh, a % oh);
            if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                dst[idx..idx + ow].fill(E::ZERO);
                idx += ow;
                continue;
            }
            let id = o_d * sd + kdi - pd;
            let ih = o_h * sh + khi - ph;
            let srow = (id * dh + ih) * dw;
            dst[idx..idx + wlo].fill(E::ZERO);
            if whi > wlo {
                let iw0 = wlo * sw + kwi - pw;
                if sw == 1 {
                    dst[idx + wlo..idx + whi]
                        .copy_from_slice(&chan[srow + iw0..srow + iw0 + (whi - wlo)]);
                } else {
                    for t in 0..whi - wlo {
                        dst[idx + wlo + t] = chan[srow + iw0 + t * sw];
                    }
                }
            }
            dst[idx + whi..idx + ow].fill(E::ZERO);
            idx += ow;
        }
    });
}

/// One patch-matrix row of the implicit gather: a `(channel, kernel tap)`
/// pair with its valid anchor ranges.
#[derive(Clone, Copy, Debug)]
struct Tap {
    /// Channel base offset into the sample.
    chan: usize,
    /// Kernel tap indices (d, h, w).
    k: Triple,
    /// Valid anchors `[lo, hi)` per axis ([`anchor_range`]).
    d: (usize, usize),
    h: (usize, usize),
    w: (usize, usize),
}

/// The patch matrix of anchor rows `[ar0, ar1)` as a [`PanelSource`]:
/// panels are gathered straight from the activation, holding exactly the
/// values [`im2col_range`] writes into its columns.
struct PatchPanels<'a, E> {
    g: &'a ConvGeom,
    src: &'a [E],
    ar0: usize,
    taps: Vec<Tap>,
    /// Per tap, `chan + ((kd - pd)·H + (kh - ph))·W + (kw - pw)`: its
    /// source index relative to the window anchor, for anchors whose
    /// windows lie wholly inside the grid (kept apart from `taps` so the
    /// hot loop streams 8 bytes per row).
    deltas: Vec<isize>,
    /// Per-axis anchor ranges whose windows touch no padding for any tap.
    inner: [(usize, usize); 3],
}

impl<'a, E: Element> PatchPanels<'a, E> {
    fn new(g: &'a ConvGeom, src: &'a [E], ar0: usize) -> Self {
        let (kd, kh, kw) = g.kernel;
        let (sd, sh, sw) = g.stride;
        let (pd, ph, pw) = g.padding;
        let (dd, dh, dw) = g.dims;
        let (od, oh, ow) = g.out;
        let mut taps = Vec::with_capacity(g.rows());
        let mut deltas = Vec::with_capacity(g.rows());
        for ci in 0..g.c {
            for kdi in 0..kd {
                for khi in 0..kh {
                    for kwi in 0..kw {
                        let chan = ci * g.vol();
                        let rel = ((kdi as isize - pd as isize) * dh as isize
                            + (khi as isize - ph as isize))
                            * dw as isize
                            + (kwi as isize - pw as isize);
                        taps.push(Tap {
                            chan,
                            k: (kdi, khi, kwi),
                            d: anchor_range(kdi, sd, pd, dd, od),
                            h: anchor_range(khi, sh, ph, dh, oh),
                            w: anchor_range(kwi, sw, pw, dw, ow),
                        });
                        deltas.push(chan as isize + rel);
                    }
                }
            }
        }
        // Anchors valid for the first and the last tap of an axis are
        // valid for every tap in between.
        let inner = |first: (usize, usize), last: (usize, usize)| {
            let lo = first.0.max(last.0);
            (lo, first.1.min(last.1).max(lo))
        };
        let inner = [
            inner(
                anchor_range(0, sd, pd, dd, od),
                anchor_range(kd - 1, sd, pd, dd, od),
            ),
            inner(
                anchor_range(0, sh, ph, dh, oh),
                anchor_range(kh - 1, sh, ph, dh, oh),
            ),
            inner(
                anchor_range(0, sw, pw, dw, ow),
                anchor_range(kw - 1, sw, pw, dw, ow),
            ),
        ];
        PatchPanels {
            g,
            src,
            ar0,
            taps,
            deltas,
            inner,
        }
    }

    /// Writes row `t` of the patch matrix for the anchors `(o_d, o_h, o_w0
    /// .. o_w0 + dst.len())` — one run of one anchor row.
    #[inline]
    fn gather_run(&self, t: &Tap, o_d: usize, o_h: usize, o_w0: usize, dst: &mut [E]) {
        let g = self.g;
        let len = dst.len();
        if o_d < t.d.0 || o_d >= t.d.1 || o_h < t.h.0 || o_h >= t.h.1 {
            dst.fill(E::ZERO);
            return;
        }
        let (_, dh, dw) = g.dims;
        let (sd, sh, sw) = g.stride;
        let (pd, ph, pw) = g.padding;
        let id = o_d * sd + t.k.0 - pd;
        let ih = o_h * sh + t.k.1 - ph;
        let srow = t.chan + (id * dh + ih) * dw;
        let lo = t.w.0.clamp(o_w0, o_w0 + len);
        let hi = t.w.1.clamp(lo, o_w0 + len);
        dst[..lo - o_w0].fill(E::ZERO);
        if hi > lo {
            let iw0 = srow + lo * sw + t.k.2 - pw;
            let out = &mut dst[lo - o_w0..hi - o_w0];
            if sw == 1 {
                out.copy_from_slice(&self.src[iw0..iw0 + (hi - lo)]);
            } else {
                for (i, d) in out.iter_mut().enumerate() {
                    *d = self.src[iw0 + i * sw];
                }
            }
        }
        dst[hi - o_w0..].fill(E::ZERO);
    }
}

impl<E: GemmElement> PanelSource<E> for PatchPanels<'_, E> {
    fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, panel: &mut [E]) {
        let nr = E::NR;
        let (_, oh, ow) = self.g.out;
        let (sd, sh, sw) = self.g.stride;
        let (_, dh, dw) = self.g.dims;
        let taps = &self.taps[k0..k0 + kc_len];
        let deltas = &self.deltas[k0..k0 + kc_len];
        let [din, hin, win] = self.inner;
        let panel = &mut panel[..kc_len * nr];
        if jn < nr {
            for row in panel.chunks_exact_mut(nr) {
                row[jn..].fill(E::ZERO);
            }
        }
        // Split the panel into runs that stay on one anchor row; a narrow
        // grid (ow < NR) or a misaligned panel straddles rows.
        let mut col = 0;
        while col < jn {
            let abs = self.ar0 * ow + j0 + col;
            let (a, o_w0) = (abs / ow, abs % ow);
            let len = (ow - o_w0).min(jn - col);
            let (o_d, o_h) = (a / oh, a % oh);
            // Windows inside the grid along d and h for every tap: each tap
            // reads one contiguous source stretch at a fixed offset from the
            // anchor (zero-padded only at the w-edges).
            let dh_inner =
                sw == 1 && (din.0..din.1).contains(&o_d) && (hin.0..hin.1).contains(&o_h);
            let anchor = ((o_d * sd * dh + o_h * sh) * dw + o_w0) as isize;
            let rows = panel.chunks_exact_mut(nr).zip(deltas);
            if !dh_inner {
                for ((row, _), t) in rows.zip(taps) {
                    self.gather_run(t, o_d, o_h, o_w0, &mut row[col..col + len]);
                }
            } else if o_w0 >= win.0 && o_w0 + len <= win.1 {
                if len == nr {
                    // Full-width run: a fixed-length copy the compiler turns
                    // into vector moves.
                    for (row, &d) in rows {
                        let s0 = (anchor + d) as usize;
                        row.copy_from_slice(&self.src[s0..s0 + nr]);
                    }
                } else {
                    for (row, &d) in rows {
                        let s0 = (anchor + d) as usize;
                        row[col..col + len].copy_from_slice(&self.src[s0..s0 + len]);
                    }
                }
            } else {
                for ((row, &d), t) in rows.zip(taps) {
                    let dst = &mut row[col..col + len];
                    let lo = t.w.0.clamp(o_w0, o_w0 + len) - o_w0;
                    let hi = t.w.1.clamp(o_w0 + lo, o_w0 + len) - o_w0;
                    dst[..lo].fill(E::ZERO);
                    if hi > lo {
                        let s0 = (anchor + d + lo as isize) as usize;
                        dst[lo..hi].copy_from_slice(&self.src[s0..s0 + (hi - lo)]);
                    }
                    dst[hi..].fill(E::ZERO);
                }
            }
            col += len;
        }
    }
}

/// Implicit-GEMM convolution forward over anchor rows `[ar0, ar1)` of one
/// sample: `Y[oc, :] = bias[oc] + W[oc, :] · im2col(X)[:, ar0·ow..ar1·ow]`
/// without materializing the patch matrix.
///
/// `pa` is the packed `out_c × rows()` weight matrix and `src` one sample
/// (`c × dims`). Output row `oc` is written to `dst[oc * ldc ..][..cols]`
/// with `cols = (ar1 - ar0) · ow`, so the result can land directly in a
/// band of a larger output tensor. Bitwise identical to [`im2col_range`]
/// followed by [`mgd_tensor::matmul::gemm_prepacked`] and a bias pass.
#[allow(clippy::too_many_arguments)]
pub fn conv_gemm<E: GemmElement>(
    pa: &PackedA<E>,
    g: &ConvGeom,
    src: &[E],
    ar0: usize,
    ar1: usize,
    dst: &mut [E],
    ldc: usize,
    bias: &[E],
) {
    assert_eq!(src.len(), g.c * g.vol());
    assert_eq!(pa.k(), g.rows(), "weight columns must match patch rows");
    let panels = PatchPanels::new(g, src, ar0);
    gemm_prepacked_with(
        pa,
        &panels,
        (ar1 - ar0) * g.out.2,
        dst,
        ldc,
        false,
        Some(bias),
    );
}

/// Scatters the patch matrix `col` back onto `dst` (one sample,
/// `c × dims` row-major), **accumulating** overlapping windows.
///
/// This is the exact adjoint of [`im2col`]; rows map to the same
/// `(channel, tap)` pairs, so tasks parallelize over channels (each channel
/// owns a disjoint `dst` slab).
pub(crate) fn col2im_accumulate<E: Element>(g: &ConvGeom, col: &[E], dst: &mut [E]) {
    col2im_range_accumulate(g, col, dst, 0, g.out.0 * g.out.1);
}

/// [`col2im_accumulate`] restricted to anchor rows `[ar0, ar1)` of the
/// flattened `(o_d, o_h)` space. Successive chunks scatter onto overlapping
/// window footprints, so chunks must be processed sequentially (tasks
/// inside one chunk still parallelize over channels).
pub(crate) fn col2im_range_accumulate<E: Element>(
    g: &ConvGeom,
    col: &[E],
    dst: &mut [E],
    ar0: usize,
    ar1: usize,
) {
    let rows = g.rows();
    let cols = (ar1 - ar0) * g.out.2;
    assert_eq!(dst.len(), g.c * g.vol());
    assert_eq!(col.len(), rows * cols);
    let (_, kh, kw) = g.kernel;
    let (sd, sh, sw) = g.stride;
    let (pd, ph, pw) = g.padding;
    let (dd, dh, dw) = g.dims;
    let (_, oh, ow) = g.out;
    let kvol = g.kvol();
    let dstptr = SendPtr(dst.as_mut_ptr());
    par_jobs(g.c, kvol * cols, |ci| {
        // SAFETY: channel task `ci` exclusively owns its dst slab.
        let chan = unsafe {
            std::slice::from_raw_parts_mut(dstptr.get().add(ci * dd * dh * dw), dd * dh * dw)
        };
        for tap in 0..kvol {
            let r = ci * kvol + tap;
            let src = &col[r * cols..(r + 1) * cols];
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let (dlo, dhi) = anchor_range(kdi, sd, pd, dd, g.out.0);
            let (hlo, hhi) = anchor_range(khi, sh, ph, dh, oh);
            let (wlo, whi) = anchor_range(kwi, sw, pw, dw, ow);
            if whi <= wlo {
                continue;
            }
            let iw0 = wlo * sw + kwi - pw;
            for a in ar0..ar1 {
                let (o_d, o_h) = (a / oh, a % oh);
                if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                    continue;
                }
                let id = o_d * sd + kdi - pd;
                let ih = o_h * sh + khi - ph;
                let drow = (id * dh + ih) * dw;
                let srow = (a - ar0) * ow;
                if sw == 1 {
                    for t in 0..whi - wlo {
                        chan[drow + iw0 + t] += src[srow + wlo + t];
                    }
                } else {
                    for t in 0..whi - wlo {
                        chan[drow + iw0 + t * sw] += src[srow + wlo + t];
                    }
                }
            }
        }
    });
}

/// Reusable per-layer lowering scratch: the patch-matrix buffers of the
/// GEMM backend, grown on demand and kept across calls so steady-state
/// training does no per-call allocation.
///
/// `Clone` intentionally produces an *empty* scratch: replicated models
/// (data-parallel workers, [`crate::unet::UNet::deepened`]) must not drag
/// megabytes of transient buffers through the copy.
#[derive(Debug, Default)]
pub(crate) struct Scratch<E: Element = f64> {
    /// Patch matrix of the chunk currently being processed.
    pub col: Vec<E>,
    /// Second patch buffer (data-gradient product target in backward).
    pub col2: Vec<E>,
    /// Contiguous copy of a strided row-chunk operand (gradient or input
    /// columns of one chunk).
    pub tmp: Vec<E>,
    /// GEMM output chunk before being scattered into the strided result.
    pub ctmp: Vec<E>,
    /// Patch matrices of the whole last forward batch, cached for the
    /// weight-gradient GEMM when within [`PATCH_CACHE_MAX`].
    pub cached: Vec<E>,
    /// Whether `cached` holds the last training forward's patch matrices.
    pub cached_valid: bool,
}

impl<E: Element> Clone for Scratch<E> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// Largest total patch-matrix element count (per layer, whole batch) kept
/// alive between forward and backward: 2^23 elements = 64 MiB of f64.
/// Above this, backward re-gathers patches per sample from the cached
/// input instead.
pub(crate) const PATCH_CACHE_MAX: usize = 1 << 23;

/// Target element count of one patch-matrix chunk (2^20 ≈ 8 MiB of f64):
/// large enough to amortize GEMM packing, small enough to stay
/// cache-resident so the lowering never round-trips a megavoxel patch
/// matrix through DRAM.
pub(crate) const CHUNK_ELEMS: usize = 1 << 20;

/// Splits a sample's anchor rows (flattened `(o_d, o_h)` space) into
/// chunks of roughly [`CHUNK_ELEMS`] patch elements each, returned as an
/// iterator of `(ar0, ar1)` ranges.
pub(crate) fn anchor_chunks(g: &ConvGeom) -> impl Iterator<Item = (usize, usize)> {
    let rows = g.out.0 * g.out.1;
    let per_row = g.rows() * g.out.2;
    let step = (CHUNK_ELEMS / per_row.max(1)).clamp(1, rows.max(1));
    (0..rows.div_ceil(step)).map(move |i| (i * step, ((i + 1) * step).min(rows)))
}

/// Bias gradient `gb[oc] += Σ_{n,voxel} grad[n, oc, voxel]` shared by
/// `Conv3d` and `ConvTranspose3d`, parallel over output channels (each
/// task owns exactly one accumulator slot).
pub(crate) fn bias_grad(grad: &[f64], n: usize, c: usize, vol: usize, gb: &mut [f64]) {
    assert_eq!(grad.len(), n * c * vol);
    assert_eq!(gb.len(), c);
    let gbptr = SendPtr(gb.as_mut_ptr());
    par_jobs(c, n * vol, |oc| {
        let mut s = 0.0;
        for ni in 0..n {
            let base = (ni * c + oc) * vol;
            for v in &grad[base..base + vol] {
                s += v;
            }
        }
        // SAFETY: each oc task owns exactly gb[oc].
        unsafe { *gbptr.get().add(oc) += s };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> ConvGeom {
        ConvGeom {
            c: 2,
            dims: (1, 4, 5),
            kernel: (1, 3, 3),
            stride: (1, 1, 1),
            padding: (0, 1, 1),
            out: (1, 4, 5),
        }
    }

    /// Brute-force reference gather.
    fn im2col_naive(g: &ConvGeom, src: &[f64]) -> Vec<f64> {
        let mut col = vec![0.0; g.rows() * g.cols()];
        let (_, kh, kw) = g.kernel;
        for r in 0..g.rows() {
            let (ci, tap) = (r / g.kvol(), r % g.kvol());
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let mut p = 0;
            for o_d in 0..g.out.0 {
                for o_h in 0..g.out.1 {
                    for o_w in 0..g.out.2 {
                        let id = (o_d * g.stride.0 + kdi) as isize - g.padding.0 as isize;
                        let ih = (o_h * g.stride.1 + khi) as isize - g.padding.1 as isize;
                        let iw = (o_w * g.stride.2 + kwi) as isize - g.padding.2 as isize;
                        let inside = id >= 0
                            && (id as usize) < g.dims.0
                            && ih >= 0
                            && (ih as usize) < g.dims.1
                            && iw >= 0
                            && (iw as usize) < g.dims.2;
                        if inside {
                            let off = ((ci * g.dims.0 + id as usize) * g.dims.1 + ih as usize)
                                * g.dims.2
                                + iw as usize;
                            col[r * g.cols() + p] = src[off];
                        }
                        p += 1;
                    }
                }
            }
        }
        col
    }

    #[test]
    fn im2col_matches_naive_gather() {
        for g in [
            geom(),
            ConvGeom {
                c: 3,
                dims: (4, 4, 4),
                kernel: (3, 3, 3),
                stride: (1, 1, 1),
                padding: (1, 1, 1),
                out: (4, 4, 4),
            },
            ConvGeom {
                c: 1,
                dims: (1, 6, 6),
                kernel: (1, 3, 3),
                stride: (1, 2, 2),
                padding: (0, 1, 1),
                out: (1, 3, 3),
            },
            ConvGeom {
                c: 2,
                dims: (3, 6, 10),
                kernel: (2, 2, 2),
                stride: (2, 2, 2),
                padding: (0, 0, 0),
                out: (1, 3, 5),
            },
        ] {
            let src: Vec<f64> = (0..g.c * g.vol()).map(|i| i as f64 + 0.5).collect();
            let mut col = vec![f64::NAN; g.rows() * g.cols()];
            im2col(&g, &src, &mut col);
            assert_eq!(col, im2col_naive(&g, &src), "geom {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for random-ish x, c — the
        // defining property that makes the backward lowerings correct.
        let g = ConvGeom {
            c: 2,
            dims: (2, 5, 4),
            kernel: (2, 3, 2),
            stride: (1, 2, 1),
            padding: (1, 1, 1),
            out: (3, 3, 5),
        };
        let x: Vec<f64> = (0..g.c * g.vol())
            .map(|i| ((i * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let cmat: Vec<f64> = (0..g.rows() * g.cols())
            .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
            .collect();
        let mut col = vec![0.0; g.rows() * g.cols()];
        im2col(&g, &x, &mut col);
        let mut back = vec![0.0; g.c * g.vol()];
        col2im_accumulate(&g, &cmat, &mut back);
        let lhs: f64 = col.iter().zip(&cmat).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn chunked_gather_scatter_matches_whole() {
        let g = ConvGeom {
            c: 2,
            dims: (3, 5, 4),
            kernel: (2, 3, 2),
            stride: (1, 1, 2),
            padding: (1, 1, 0),
            out: (4, 5, 2),
        };
        let src: Vec<f64> = (0..g.c * g.vol()).map(|i| (i as f64).sin()).collect();
        let mut whole = vec![0.0; g.rows() * g.cols()];
        im2col(&g, &src, &mut whole);
        let arows = g.out.0 * g.out.1;
        // Gather in ragged chunks and compare column blocks.
        for step in [1usize, 3, 7, arows] {
            let mut ar0 = 0;
            while ar0 < arows {
                let ar1 = (ar0 + step).min(arows);
                let cols = (ar1 - ar0) * g.out.2;
                let mut part = vec![f64::NAN; g.rows() * cols];
                im2col_range(&g, &src, &mut part, ar0, ar1);
                for r in 0..g.rows() {
                    assert_eq!(
                        &part[r * cols..(r + 1) * cols],
                        &whole[r * g.cols() + ar0 * g.out.2..r * g.cols() + ar1 * g.out.2],
                        "step {step} ar {ar0}..{ar1} row {r}"
                    );
                }
                ar0 = ar1;
            }
        }
        // Scatter in chunks and compare against the whole scatter.
        let cmat: Vec<f64> = (0..g.rows() * g.cols()).map(|i| (i as f64).cos()).collect();
        let mut whole_dst = vec![0.0; g.c * g.vol()];
        col2im_accumulate(&g, &cmat, &mut whole_dst);
        let mut chunk_dst = vec![0.0; g.c * g.vol()];
        for (ar0, ar1) in [(0usize, 2usize), (2, 9), (9, arows)] {
            let cols = (ar1 - ar0) * g.out.2;
            let mut part = vec![0.0; g.rows() * cols];
            for r in 0..g.rows() {
                part[r * cols..(r + 1) * cols].copy_from_slice(
                    &cmat[r * g.cols() + ar0 * g.out.2..r * g.cols() + ar1 * g.out.2],
                );
            }
            col2im_range_accumulate(&g, &part, &mut chunk_dst, ar0, ar1);
        }
        for i in 0..whole_dst.len() {
            assert!((whole_dst[i] - chunk_dst[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn implicit_gemm_spans_k_blocks_bitwise() {
        // 16 channels × 3³ taps = 432 patch rows: two KC blocks, so the
        // gather is asked for row windows that start mid-channel.
        use mgd_tensor::matmul::{gemm_prepacked, pack_a};
        for (g, out_c) in [
            (
                ConvGeom {
                    c: 16,
                    dims: (6, 7, 12),
                    kernel: (3, 3, 3),
                    stride: (1, 1, 1),
                    padding: (1, 1, 1),
                    out: (6, 7, 12),
                },
                8,
            ),
            (
                ConvGeom {
                    c: 32,
                    dims: (1, 5, 37),
                    kernel: (1, 3, 3),
                    stride: (1, 1, 1),
                    padding: (0, 1, 1),
                    out: (1, 5, 37),
                },
                16,
            ),
        ] {
            let src: Vec<f64> = (0..g.c * g.vol()).map(|i| (i as f64 * 0.3).sin()).collect();
            let w: Vec<f64> = (0..out_c * g.rows())
                .map(|i| (i as f64 * 0.7).cos())
                .collect();
            let bias: Vec<f64> = (0..out_c).map(|i| i as f64 * 0.125 - 0.5).collect();
            let pa = pack_a(&w, out_c, g.rows(), false);
            let rows = g.out.0 * g.out.1;
            for (ar0, ar1) in [(0, rows), (1, 2), (2, rows - 1)] {
                let cols = (ar1 - ar0) * g.out.2;
                let mut col = vec![0.0; g.rows() * cols];
                im2col_range(&g, &src, &mut col, ar0, ar1);
                let mut want = vec![0.0; out_c * cols];
                gemm_prepacked(&pa, &col, false, &mut want, cols, false);
                let mut got = vec![0.0; out_c * cols];
                conv_gemm(&pa, &g, &src, ar0, ar1, &mut got, cols, &bias);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), (bias[i / cols] + b).to_bits(), "{g:?} [{i}]");
                }
            }
        }
    }

    #[test]
    fn anchor_chunks_cover_all_rows() {
        let g = ConvGeom {
            c: 16,
            dims: (64, 64, 64),
            kernel: (3, 3, 3),
            stride: (1, 1, 1),
            padding: (1, 1, 1),
            out: (64, 64, 64),
        };
        let chunks: Vec<_> = anchor_chunks(&g).collect();
        assert!(chunks.len() > 1, "64³ must chunk");
        assert_eq!(chunks.first().unwrap().0, 0);
        assert_eq!(chunks.last().unwrap().1, g.out.0 * g.out.1);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must tile contiguously");
        }
        for &(a, b) in &chunks {
            assert!(b > a && g.rows() * (b - a) * g.out.2 <= 2 * CHUNK_ELEMS);
        }
    }

    #[test]
    fn scratch_clone_is_empty() {
        let s = Scratch {
            col: vec![1.0; 8],
            col2: vec![2.0; 8],
            tmp: vec![4.0; 8],
            ctmp: vec![5.0; 8],
            cached: vec![3.0; 8],
            cached_valid: true,
        };
        let c = s.clone();
        assert!(c.col.is_empty() && c.col2.is_empty() && c.cached.is_empty());
        assert!(!c.cached_valid);
    }
}
