//! 3D convolution with hand-written backprop: a blocked-GEMM lowering
//! (default) plus the original direct sliding-window kernels, selected by
//! [`ConvBackend`].

use crate::layer::{Dims5, Layer, Triple};
use crate::lowering::{
    anchor_chunks, bias_grad, col2im_accumulate, col2im_range_accumulate, conv_gemm, im2col,
    im2col_range, ConvBackend, ConvGeom, Scratch, PATCH_CACHE_MAX,
};
use crate::param::Param;
use crate::spatial::SplitAxis;
use crate::util::{tap_range, SendPtr};
use crate::workspace::Workspace;
use mgd_tensor::matmul::{gemm, gemm_prepacked, pack_a, PackedA};
use mgd_tensor::par::maybe_par_for;
use mgd_tensor::{Element, GemmElement, Tensor};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Weight-panel pack counts of one layer, or summed over a network.
///
/// Tests and benches compare two readings to assert that a model snapshot
/// packs each layer once and then serves every slab/request from the
/// cached panels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepackStats {
    /// Weight-panel packs built by [`Conv3d::prepack`].
    pub builds: u64,
    /// Inference calls that reused prepacked panels instead of re-packing
    /// the weight matrix.
    pub reuses: u64,
}

impl std::ops::Add for PrepackStats {
    type Output = PrepackStats;
    fn add(self, o: PrepackStats) -> PrepackStats {
        PrepackStats {
            builds: self.builds + o.builds,
            reuses: self.reuses + o.reuses,
        }
    }
}

/// The counters behind [`PrepackStats`], owned by one layer. Reuses are
/// counted from `&self` inference on any number of threads, hence atomic.
#[derive(Debug, Default)]
struct PrepackCounter {
    builds: u64,
    reuses: AtomicU64,
}

impl Clone for PrepackCounter {
    fn clone(&self) -> Self {
        PrepackCounter {
            builds: self.builds,
            reuses: AtomicU64::new(self.reuses.load(Ordering::Relaxed)),
        }
    }
}

/// A 3D convolution `y = W ⊛ x + b` over NCDHW tensors.
///
/// Weight layout `[out_c, in_c, kd, kh, kw]`. 2D networks use kernels with
/// unit depth (`(1, k, k)`), so a single implementation serves both the 2D
/// and 3D experiments of the paper.
///
/// The forward/backward kernels run on the [`ConvBackend`] selected at
/// construction (default [`ConvBackend::Gemm`]): each pass lowers onto one
/// blocked matrix product per sample — `Y = W·im2col(X)` (as an implicit
/// GEMM that gathers patch panels straight from `X`, see [`conv_gemm`]),
/// `dX = col2im(Wᵀ·dY)`, `dW += dY·im2col(X)ᵀ` — sharing the packed weight
/// panels across the batch.
#[derive(Clone, Debug)]
pub struct Conv3d<E: Element = f64> {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel extents (kd, kh, kw).
    pub kernel: Triple,
    /// Strides (sd, sh, sw).
    pub stride: Triple,
    /// Zero-padding (pd, ph, pw).
    pub padding: Triple,
    /// Filter weights.
    pub weight: Param<E>,
    /// Per-output-channel bias.
    pub bias: Param<E>,
    /// Kernel implementation to run.
    pub backend: ConvBackend,
    /// Cached training activation — training is `f64`-only, so this stays
    /// concrete (always empty in non-`f64` instantiations).
    cache_x: Option<Tensor>,
    scratch: Scratch<E>,
    /// Weight panels packed once by [`Conv3d::prepack`] and reused by every
    /// inference call until the weights can change again (any training
    /// forward or `params()` borrow invalidates them).
    prepacked: Option<PackedA<E>>,
    /// How often this layer built and reused its prepacked panels.
    prepack_counts: PrepackCounter,
}

impl Conv3d {
    /// Fully configured constructor with Kaiming initialization.
    pub fn new<R: Rng>(
        in_c: usize,
        out_c: usize,
        kernel: Triple,
        stride: Triple,
        padding: Triple,
        rng: &mut R,
    ) -> Self {
        let (kd, kh, kw) = kernel;
        let fan_in = in_c * kd * kh * kw;
        Conv3d {
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            weight: Param::kaiming([out_c, in_c, kd, kh, kw], fan_in, rng),
            bias: Param::zeros([out_c]),
            backend: ConvBackend::default(),
            cache_x: None,
            scratch: Scratch::default(),
            prepacked: None,
            prepack_counts: PrepackCounter::default(),
        }
    }

    /// Stride-1 "same" convolution (odd kernels only).
    pub fn same<R: Rng>(in_c: usize, out_c: usize, kernel: Triple, rng: &mut R) -> Self {
        let (kd, kh, kw) = kernel;
        assert!(
            kd % 2 == 1 && kh % 2 == 1 && kw % 2 == 1,
            "same-padding needs odd kernels"
        );
        Conv3d::new(
            in_c,
            out_c,
            kernel,
            (1, 1, 1),
            ((kd - 1) / 2, (kh - 1) / 2, (kw - 1) / 2),
            rng,
        )
    }
}

impl<E: Element> Conv3d<E> {
    /// Selects the kernel implementation (builder-style).
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Output spatial dims for the given input dims.
    pub fn out_dims(&self, din: &Dims5) -> Dims5 {
        let o = |i: usize, k: usize, s: usize, p: usize| {
            assert!(i + 2 * p >= k, "input {i} too small for kernel {k} pad {p}");
            (i + 2 * p - k) / s + 1
        };
        Dims5 {
            n: din.n,
            c: self.out_c,
            d: o(din.d, self.kernel.0, self.stride.0, self.padding.0),
            h: o(din.h, self.kernel.1, self.stride.1, self.padding.1),
            w: o(din.w, self.kernel.2, self.stride.2, self.padding.2),
        }
    }

    /// Lowering geometry over the *input* grid of one sample.
    fn geom(&self, din: &Dims5, dout: &Dims5) -> ConvGeom {
        ConvGeom {
            c: self.in_c,
            dims: (din.d, din.h, din.w),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out: (dout.d, dout.h, dout.w),
        }
    }

    /// Converts the layer weights to another element type (through `f64`);
    /// the copy starts with empty scratch and no cached activation.
    pub fn cast_as<T: Element>(&self) -> Conv3d<T> {
        Conv3d {
            in_c: self.in_c,
            out_c: self.out_c,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            weight: self.weight.cast_as(),
            bias: self.bias.cast_as(),
            backend: self.backend,
            cache_x: None,
            scratch: Scratch::default(),
            prepacked: None,
            prepack_counts: PrepackCounter::default(),
        }
    }
}

impl Conv3d {
    /// GEMM forward: per sample, `Y_n = W · im2col(X_n)` (+ bias), sharing
    /// the packed weight panels across the batch.
    ///
    /// A training forward within [`PATCH_CACHE_MAX`] gathers the whole
    /// patch matrix and keeps it for the weight-gradient GEMM; every other
    /// forward runs the implicit GEMM ([`conv_gemm`]), which gathers patch
    /// panels straight from the input and never materializes the matrix.
    fn forward_gemm(&mut self, x: &Tensor, din: &Dims5, dout: &Dims5, train: bool) -> Tensor {
        let geom = self.geom(din, dout);
        let (kdim, p) = (geom.rows(), geom.cols());
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        // The [out_c, in_c, kd, kh, kw] weight is already the out_c × kdim
        // matrix row-major — pack it once for the whole batch.
        let pa = pack_a(self.weight.data.as_slice(), self.out_c, kdim, false);
        let cache_patches = train && din.n * kdim * p <= PATCH_CACHE_MAX;
        self.scratch.cached_valid = cache_patches;
        if !cache_patches {
            self.rows_into(&pa, &geom, x, 0..dout.d * dout.h, &mut y, 0);
            return y;
        }
        let xs = x.as_slice();
        let bs = self.bias.data.as_slice();
        let ys = y.as_mut_slice();
        let cached = &mut self.scratch.cached;
        cached.resize(din.n * kdim * p, 0.0);
        for ni in 0..din.n {
            let xslab = &xs[ni * self.in_c * geom.vol()..][..self.in_c * geom.vol()];
            let yslab = &mut ys[ni * self.out_c * p..][..self.out_c * p];
            let colslab = &mut cached[ni * kdim * p..(ni + 1) * kdim * p];
            im2col(&geom, xslab, colslab);
            // Seed each output row with its bias; the GEMM accumulates
            // the patch products on top.
            for (oc, row) in yslab.chunks_exact_mut(p).enumerate() {
                row.fill(bs[oc]);
            }
            gemm_prepacked(&pa, colslab, false, yslab, p, true);
        }
        y
    }

    /// GEMM backward: `dW += dY_n · im2col(X_n)ᵀ` over cached (or
    /// re-gathered) patch matrices, and `dX_n = col2im(Wᵀ · dY_n)` —
    /// streamed through cache-resident anchor-row chunks when the patch
    /// matrix is not cached.
    fn backward_gemm(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        din: &Dims5,
        dout: &Dims5,
    ) -> Tensor {
        let geom = self.geom(din, dout);
        let (kdim, p) = (geom.rows(), geom.cols());
        let ow = dout.w;
        let g = grad_out.as_slice();
        let xs = x.as_slice();
        // Packed Wᵀ (kdim × out_c) shared across the batch.
        let pat = pack_a(self.weight.data.as_slice(), kdim, self.out_c, true);
        let gw = self.weight.grad.as_mut_slice();
        let mut gx = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
        let gxs = gx.as_mut_slice();
        let Scratch {
            col,
            col2,
            tmp,
            cached,
            cached_valid,
            ..
        } = &mut self.scratch;
        let use_cache = *cached_valid;
        for ni in 0..din.n {
            let gslab = &g[ni * self.out_c * p..][..self.out_c * p];
            let xslab = &xs[ni * self.in_c * geom.vol()..][..self.in_c * geom.vol()];
            let gxslab = &mut gxs[ni * self.in_c * geom.vol()..][..self.in_c * geom.vol()];
            if use_cache {
                let colslab = &cached[ni * kdim * p..(ni + 1) * kdim * p];
                // Weight gradient (k-dimension = window positions — the
                // split-k GEMM shape at fine grids).
                gemm(self.out_c, kdim, p, gslab, false, colslab, true, gw, true);
                // Data gradient.
                col2.resize(kdim * p, 0.0);
                gemm_prepacked(&pat, gslab, false, col2, p, false);
                col2im_accumulate(&geom, col2, gxslab);
            } else {
                for (ar0, ar1) in anchor_chunks(&geom) {
                    let cc = (ar1 - ar0) * ow;
                    // Contiguous copy of this chunk's gradient columns
                    // (rows of dY_n are strided by the full position count).
                    tmp.resize(self.out_c * cc, 0.0);
                    for oc in 0..self.out_c {
                        tmp[oc * cc..(oc + 1) * cc]
                            .copy_from_slice(&gslab[oc * p + ar0 * ow..oc * p + ar1 * ow]);
                    }
                    col.resize(kdim * cc, 0.0);
                    im2col_range(&geom, xslab, col, ar0, ar1);
                    gemm(self.out_c, kdim, cc, tmp, false, col, true, gw, true);
                    col2.resize(kdim * cc, 0.0);
                    gemm_prepacked(&pat, tmp, false, col2, cc, false);
                    col2im_range_accumulate(&geom, col2, gxslab, ar0, ar1);
                }
            }
        }
        *cached_valid = false;
        gx
    }

    /// Inference forward restricted to output planes `keep` along `axis`
    /// — the kernel of the slab-decomposed spatial forward
    /// ([`crate::spatial`]): the input is a rank's halo-extended slab and
    /// `keep` selects the owned output planes, so each rank gathers/
    /// multiplies only the patch columns it owns.
    ///
    /// Returns `[n, out_c, keep.len(), oh, ow]` for [`SplitAxis::Depth`]
    /// and `[n, out_c, 1, keep.len(), ow]` for [`SplitAxis::Height`]
    /// (which requires a unit output depth axis). Values are bitwise
    /// identical to the corresponding planes of [`Layer::forward`] on the
    /// same input: restricting the anchor-row range only drops patch
    /// columns, and every output element is still produced by one GEMM
    /// over the full shared dimension in a fixed order. No activation is
    /// cached (this is a serving-only path).
    pub fn forward_planes(
        &mut self,
        x: &Tensor,
        keep: std::ops::Range<usize>,
        axis: SplitAxis,
    ) -> Tensor {
        // A range forward never caches patches; invalidate like forward().
        self.scratch.cached_valid = false;
        let mut ws = Workspace::new();
        self.infer_planes(x, keep, axis, &mut ws)
    }

    /// Accumulates the per-channel bias gradient (shared lowering helper).
    fn bias_grad(&mut self, grad_out: &Tensor, dout: &Dims5) {
        bias_grad(
            grad_out.as_slice(),
            dout.n,
            dout.c,
            dout.vol(),
            self.bias.grad.as_mut_slice(),
        );
    }

    /// Direct (sliding-window) backward — the reference kernels for the
    /// weight and input gradients.
    fn backward_direct(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        din: &Dims5,
        dout: &Dims5,
    ) -> Tensor {
        let (kd, kh, kw) = self.kernel;
        let (sd, sh, sw) = self.stride;
        let (pd, ph, pw) = self.padding;
        let g = grad_out.as_slice();
        let xs = x.as_slice();

        // Weight gradient: each oc owns its grad_w slice (parallel over oc).
        {
            let kvol = self.in_c * kd * kh * kw;
            let ptr = SendPtr(self.weight.grad.as_mut_slice().as_mut_ptr());
            maybe_par_for(dout.c, dout.n * dout.vol() * kvol, |oc| {
                // SAFETY: each oc task owns a disjoint weight-grad block.
                let gw = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(oc * kvol), kvol) };
                for n in 0..dout.n {
                    let gbase = (n * dout.c + oc) * dout.vol();
                    let mut oi = 0usize;
                    for od in 0..dout.d {
                        let (kd_lo, kd_hi) = tap_range(od, sd, pd, kd, din.d);
                        for oh in 0..dout.h {
                            let (kh_lo, kh_hi) = tap_range(oh, sh, ph, kh, din.h);
                            for ow in 0..dout.w {
                                let (kw_lo, kw_hi) = tap_range(ow, sw, pw, kw, din.w);
                                let gv = g[gbase + oi];
                                oi += 1;
                                if gv == 0.0 {
                                    continue;
                                }
                                for ic in 0..self.in_c {
                                    let xbase = (n * self.in_c + ic) * din.vol();
                                    let wbase = ic * kd * kh * kw;
                                    for kdi in kd_lo..kd_hi {
                                        let id = od * sd + kdi - pd;
                                        for khi in kh_lo..kh_hi {
                                            let ih = oh * sh + khi - ph;
                                            let xrow = xbase
                                                + (id * din.h + ih) * din.w
                                                + (ow * sw + kw_lo - pw);
                                            let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                            for t in 0..(kw_hi - kw_lo) {
                                                gw[wrow + t] += gv * xs[xrow + t];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }

        // Input gradient: scatter form, parallel over (n, ic)… but each
        // (n, ·) task needs all oc; parallelize over n and write the full
        // per-sample block.
        let mut gx: Tensor = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
        {
            let ws = self.weight.data.as_slice();
            let sample_block = din.c * din.vol();
            let ptr = SendPtr(gx.as_mut_slice().as_mut_ptr());
            maybe_par_for(din.n, dout.c * dout.vol() * self.in_c * kd * kh * kw, |n| {
                // SAFETY: each n task owns a disjoint input-grad block.
                let gxb = unsafe {
                    std::slice::from_raw_parts_mut(ptr.get().add(n * sample_block), sample_block)
                };
                for oc in 0..dout.c {
                    let gbase = (n * dout.c + oc) * dout.vol();
                    let mut oi = 0usize;
                    for od in 0..dout.d {
                        let (kd_lo, kd_hi) = tap_range(od, sd, pd, kd, din.d);
                        for oh in 0..dout.h {
                            let (kh_lo, kh_hi) = tap_range(oh, sh, ph, kh, din.h);
                            for ow in 0..dout.w {
                                let (kw_lo, kw_hi) = tap_range(ow, sw, pw, kw, din.w);
                                let gv = g[gbase + oi];
                                oi += 1;
                                if gv == 0.0 {
                                    continue;
                                }
                                for ic in 0..self.in_c {
                                    let xbase = ic * din.vol();
                                    let wbase = (oc * self.in_c + ic) * kd * kh * kw;
                                    for kdi in kd_lo..kd_hi {
                                        let id = od * sd + kdi - pd;
                                        for khi in kh_lo..kh_hi {
                                            let ih = oh * sh + khi - ph;
                                            let xrow = xbase
                                                + (id * din.h + ih) * din.w
                                                + (ow * sw + kw_lo - pw);
                                            let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                            for t in 0..(kw_hi - kw_lo) {
                                                gxb[xrow + t] += gv * ws[wrow + t];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        gx
    }
}

impl<E: Element> Conv3d<E> {
    /// Direct (sliding-window) forward — the reference kernel, generic over
    /// the element type (identical operation order for every `E`).
    fn forward_direct(&self, x: &Tensor<E>, din: &Dims5, dout: &Dims5) -> Tensor<E> {
        let mut y: Tensor<E> = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let (kd, kh, kw) = self.kernel;
        let (sd, sh, sw) = self.stride;
        let (pd, ph, pw) = self.padding;
        let xs = x.as_slice();
        let ws = self.weight.data.as_slice();
        let bs = self.bias.data.as_slice();
        let ptr = SendPtr(y.as_mut_slice().as_mut_ptr());
        let out_block = dout.vol();
        maybe_par_for(
            dout.n * dout.c,
            out_block * self.in_c * kd * kh * kw,
            |nc| {
                let n = nc / dout.c;
                let oc = nc % dout.c;
                // SAFETY: each (n, oc) task owns a disjoint output block.
                let yblock = unsafe {
                    std::slice::from_raw_parts_mut(ptr.get().add(nc * out_block), out_block)
                };
                let b = bs[oc];
                let mut oi = 0usize;
                for od in 0..dout.d {
                    let (kd_lo, kd_hi) = tap_range(od, sd, pd, kd, din.d);
                    for oh in 0..dout.h {
                        let (kh_lo, kh_hi) = tap_range(oh, sh, ph, kh, din.h);
                        for ow in 0..dout.w {
                            let (kw_lo, kw_hi) = tap_range(ow, sw, pw, kw, din.w);
                            let mut acc = b;
                            for ic in 0..self.in_c {
                                let xbase = (n * self.in_c + ic) * din.vol();
                                let wbase = (oc * self.in_c + ic) * kd * kh * kw;
                                for kdi in kd_lo..kd_hi {
                                    let id = od * sd + kdi - pd;
                                    for khi in kh_lo..kh_hi {
                                        let ih = oh * sh + khi - ph;
                                        let xrow = xbase
                                            + (id * din.h + ih) * din.w
                                            + (ow * sw + kw_lo - pw);
                                        let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                        for t in 0..(kw_hi - kw_lo) {
                                            acc += xs[xrow + t] * ws[wrow + t];
                                        }
                                    }
                                }
                            }
                            yblock[oi] = acc;
                            oi += 1;
                        }
                    }
                }
            },
        );
        y
    }
}

impl<E: GemmElement> Conv3d<E> {
    /// Packs the weight matrix into GEMM micro-panels once, so every
    /// subsequent [`Conv3d::infer`] / [`Conv3d::infer_planes_into`] call
    /// skips the pack — the "prepack once per snapshot, reuse across
    /// slabs, layers, and requests" half of the serving fast path. The
    /// panels are a pure function of the weight bytes, so cached and
    /// fresh packs produce bitwise-identical results.
    pub fn prepack(&mut self) {
        let (kd, kh, kw) = self.kernel;
        let kdim = self.in_c * kd * kh * kw;
        self.prepacked = Some(pack_a(self.weight.data.as_slice(), self.out_c, kdim, false));
        self.prepack_counts.builds += 1;
    }

    /// Panel packs this layer built and inference calls that reused them.
    pub fn prepack_stats(&self) -> PrepackStats {
        PrepackStats {
            builds: self.prepack_counts.builds,
            reuses: self.prepack_counts.reuses.load(Ordering::Relaxed),
        }
    }

    /// Borrows the prepacked panels if present (counting the reuse), else
    /// packs into `local` for this call only.
    fn packed<'a>(&'a self, kdim: usize, local: &'a mut Option<PackedA<E>>) -> &'a PackedA<E> {
        match &self.prepacked {
            Some(pa) => {
                self.prepack_counts.reuses.fetch_add(1, Ordering::Relaxed);
                pa
            }
            None => local.insert(pack_a(self.weight.data.as_slice(), self.out_c, kdim, false)),
        }
    }

    /// Shared-state inference forward: bitwise identical to
    /// `forward(x, false)` at the default `f64` element, but `&self`, so
    /// one set of weights behind an `Arc` can serve any number of
    /// concurrent callers.
    ///
    /// The Gemm path is the implicit GEMM of the inference branch of
    /// [`Layer::forward`] (inference never caches patches), so values match
    /// that path bit for bit. It gathers patch panels straight from `x` and
    /// needs no scratch; the [`Workspace`] parameter keeps the signature
    /// uniform with the other layers.
    pub fn infer(&self, x: &Tensor<E>, _ws: &mut Workspace<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        if self.backend == ConvBackend::Direct {
            return self.forward_direct(x, &din, &dout);
        }
        let geom = self.geom(&din, &dout);
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let mut local = None;
        let pa = self.packed(geom.rows(), &mut local);
        self.rows_into(pa, &geom, x, 0..dout.d * dout.h, &mut y, 0);
        y
    }

    /// Implicit-GEMM forward of anchor rows `rows` (flattened `(o_d, o_h)`)
    /// of every sample of `x`, written into `dst` (`[n, out_c, …]` with
    /// `ow`-wide rows) from row `dst_row0` of each channel plane on.
    fn rows_into(
        &self,
        pa: &PackedA<E>,
        geom: &ConvGeom,
        x: &Tensor<E>,
        rows: std::ops::Range<usize>,
        dst: &mut Tensor<E>,
        dst_row0: usize,
    ) {
        let n = x.dims()[0];
        let xvol = self.in_c * geom.vol();
        let pvol = dst.len() / (n * self.out_c);
        let ow = geom.out.2;
        let bs = self.bias.data.as_slice();
        let (xs, ys) = (x.as_slice(), dst.as_mut_slice());
        for ni in 0..n {
            let xslab = &xs[ni * xvol..][..xvol];
            let yslab = &mut ys[ni * self.out_c * pvol..][..self.out_c * pvol];
            conv_gemm(
                pa,
                geom,
                xslab,
                rows.start,
                rows.end,
                &mut yslab[dst_row0 * ow..],
                pvol,
                bs,
            );
        }
    }

    /// [`Conv3d::infer_planes_into`] with a freshly allocated output of
    /// exactly `keep.len()` planes. Panics on an empty `keep`.
    pub fn infer_planes(
        &self,
        x: &Tensor<E>,
        keep: std::ops::Range<usize>,
        axis: SplitAxis,
        ws: &mut Workspace<E>,
    ) -> Tensor<E> {
        assert!(keep.start < keep.end, "empty output plane range");
        let din = Dims5::of(x);
        let dout = self.out_dims(&din);
        let odims = match axis {
            SplitAxis::Depth => [din.n, self.out_c, keep.len(), dout.h, dout.w],
            SplitAxis::Height => [din.n, self.out_c, 1, keep.len(), dout.w],
        };
        let mut y = Tensor::zeros(odims);
        self.infer_planes_into(x, keep, axis, &mut y, 0, ws);
        y
    }

    /// Inference forward restricted to output planes `keep` along `axis`,
    /// written into `dst` starting at plane `dst_plane0` — the kernel of
    /// the slab-decomposed spatial forward ([`crate::spatial`]).
    ///
    /// `dst` is `[n, out_c, P, oh, ow]` for [`SplitAxis::Depth`] (any
    /// `P ≥ dst_plane0 + keep.len()`) and `[n, out_c, 1, P, ow]` for
    /// [`SplitAxis::Height`] (which requires a unit output depth axis).
    /// Writing disjoint `keep` bands of the same `dst` in any order
    /// yields bitwise-identical planes to one full [`Conv3d::infer`] on
    /// the union input: restricting the anchor-row range only drops patch
    /// columns, and every output element is still produced by one GEMM
    /// over the full shared dimension in a fixed order — this is what
    /// makes the interior/boundary split of the overlapped halo exchange
    /// exact. An empty `keep` is a no-op. No activation is cached (this
    /// is a serving-only path).
    pub fn infer_planes_into(
        &self,
        x: &Tensor<E>,
        keep: std::ops::Range<usize>,
        axis: SplitAxis,
        dst: &mut Tensor<E>,
        dst_plane0: usize,
        _ws: &mut Workspace<E>,
    ) {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        let ddst = Dims5::of(dst);
        assert_eq!(ddst.n, din.n, "dst batch mismatch");
        assert_eq!(ddst.c, self.out_c, "dst channel mismatch");
        assert_eq!(ddst.w, dout.w, "dst width mismatch");
        let (ar0, ar1, plane_rows) = match axis {
            SplitAxis::Depth => {
                assert!(keep.end <= dout.d, "plane range exceeds output depth");
                assert_eq!(ddst.h, dout.h, "dst height mismatch");
                (keep.start * dout.h, keep.end * dout.h, dout.h)
            }
            SplitAxis::Height => {
                assert_eq!(dout.d, 1, "height split needs a unit depth axis");
                assert!(keep.end <= dout.h, "plane range exceeds output height");
                assert_eq!(ddst.d, 1, "dst depth mismatch");
                (keep.start, keep.end, 1)
            }
        };
        if ar0 >= ar1 {
            return;
        }
        let ow = dout.w;
        let dst_row0 = dst_plane0 * plane_rows;
        let dst_rows = ddst.d * ddst.h;
        assert!(
            dst_row0 + (ar1 - ar0) <= dst_rows,
            "dst plane range out of bounds"
        );
        let pvol = ddst.vol();
        let ys = dst.as_mut_slice();
        if self.backend == ConvBackend::Direct {
            // Reference path: full sliding-window pass, then carve the kept
            // anchor rows (bitwise identical to computing them in place).
            let full = self.forward_direct(x, &din, &dout);
            let p_full = dout.vol();
            let fs = full.as_slice();
            for nc in 0..din.n * self.out_c {
                let src = &fs[nc * p_full + ar0 * ow..nc * p_full + ar1 * ow];
                ys[nc * pvol + dst_row0 * ow..][..src.len()].copy_from_slice(src);
            }
            return;
        }
        let geom = self.geom(&din, &dout);
        let mut local = None;
        let pa = self.packed(geom.rows(), &mut local);
        self.rows_into(pa, &geom, x, ar0..ar1, dst, dst_row0);
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        // Every forward invalidates the patch cache up front — only a Gemm
        // training forward re-validates it (inside forward_gemm). Otherwise
        // a backend switch between forwards could leave a stale cache that
        // a later Gemm backward would consume.
        self.scratch.cached_valid = false;
        if train {
            // Training implies an upcoming weight update; stale panels
            // would silently serve old weights.
            self.prepacked = None;
        }
        let y = match self.backend {
            ConvBackend::Direct => self.forward_direct(x, &din, &dout),
            ConvBackend::Gemm => self.forward_gemm(x, &din, &dout, train),
        };
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // `take` instead of clone: backward consumes the cached activation,
        // so the hot path never copies a full input tensor.
        let x = self.cache_x.take().expect("backward before forward");
        let din = Dims5::of(&x);
        let dout = self.out_dims(&din);
        assert_eq!(grad_out.dims(), &[dout.n, dout.c, dout.d, dout.h, dout.w]);
        self.bias_grad(grad_out, &dout);
        match self.backend {
            ConvBackend::Direct => self.backward_direct(&x, grad_out, &din, &dout),
            ConvBackend::Gemm => self.backward_gemm(&x, grad_out, &din, &dout),
        }
    }

    fn params(&mut self) -> Vec<&mut Param> {
        // Handing out &mut weights invalidates any prepacked panels.
        self.prepacked = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        format!(
            "Conv3d({}→{}, k{:?}, s{:?}, p{:?})",
            self.in_c, self.out_c, self.kernel, self.stride, self.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS, FD_TOL};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn identity_kernel_passthrough() {
        let mut c = Conv3d::new(1, 1, (1, 1, 1), (1, 1, 1), (0, 0, 0), &mut rng());
        c.weight.data = Tensor::from_vec([1, 1, 1, 1, 1], vec![1.0]);
        c.bias.data = Tensor::from_vec([1], vec![0.0]);
        let x = Tensor::from_vec([1, 1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_1d_convolution() {
        // Width-3 kernel [1, 2, 3] over [1, 1, 1, 1, 4] input, same padding.
        let mut c = Conv3d::same(1, 1, (1, 1, 3), &mut rng());
        c.weight.data = Tensor::from_vec([1, 1, 1, 1, 3], vec![1.0, 2.0, 3.0]);
        c.bias.data = Tensor::from_vec([1], vec![0.5]);
        let x = Tensor::from_vec([1, 1, 1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x, false);
        // y[i] = 0.5 + 1*x[i-1] + 2*x[i] + 3*x[i+1] (zero-padded)
        assert_eq!(
            y.as_slice(),
            &[
                0.5 + 2.0 + 6.0,
                0.5 + 1.0 + 4.0 + 9.0,
                0.5 + 2.0 + 6.0 + 12.0,
                0.5 + 3.0 + 8.0
            ]
        );
    }

    #[test]
    fn same_padding_preserves_spatial_dims() {
        let mut c = Conv3d::same(2, 5, (3, 3, 3), &mut rng());
        let y = c.forward(&Tensor::zeros([2, 2, 4, 6, 8]), false);
        assert_eq!(y.dims(), &[2, 5, 4, 6, 8]);
    }

    #[test]
    fn stride_two_halves_dims() {
        let mut c = Conv3d::new(1, 3, (2, 2, 2), (2, 2, 2), (0, 0, 0), &mut rng());
        let y = c.forward(&Tensor::zeros([1, 1, 4, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 3, 2, 4, 4]);
    }

    #[test]
    fn resolution_agnostic_weights() {
        // The same filter applied at two resolutions of a constant input
        // produces the same interior value — the property multigrid training
        // relies on (paper §3.1.2).
        let mut c = Conv3d::same(1, 1, (1, 3, 3), &mut rng());
        let y1 = c.forward(&Tensor::ones([1, 1, 1, 8, 8]), false);
        let y2 = c.forward(&Tensor::ones([1, 1, 1, 16, 16]), false);
        let mid1 = y1.at(&[0, 0, 0, 4, 4]);
        let mid2 = y2.at(&[0, 0, 0, 8, 8]);
        assert!((mid1 - mid2).abs() < 1e-12);
    }

    #[test]
    fn linearity_in_input() {
        let mut c = Conv3d::same(2, 3, (1, 3, 3), &mut rng());
        let mut r = rng();
        let a = Tensor::rand_uniform([1, 2, 1, 5, 5], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform([1, 2, 1, 5, 5], -1.0, 1.0, &mut r);
        let ya = c.forward(&a, false);
        let yb = c.forward(&b, false);
        let yab = c.forward(&a.add(&b), false);
        // Conv(a + b) = Conv(a) + Conv(b) - bias (bias counted twice).
        let mut expect = ya.add(&yb);
        for oc in 0..3 {
            let bias = c.bias.data[oc];
            for n in 0..1 {
                for d in 0..1 {
                    for h in 0..5 {
                        for w in 0..5 {
                            *expect.at_mut(&[n, oc, d, h, w]) -= bias;
                        }
                    }
                }
            }
        }
        assert!(yab.rel_l2_error(&expect) < 1e-12);
    }

    #[test]
    fn gradcheck_same_2d_kernel() {
        let c = Conv3d::same(2, 3, (1, 3, 3), &mut rng());
        check_layer_gradient(Box::new(c), &[2, 2, 1, 5, 5], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_3d_kernel() {
        let c = Conv3d::same(1, 2, (3, 3, 3), &mut rng());
        check_layer_gradient(Box::new(c), &[1, 1, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_strided() {
        let c = Conv3d::new(2, 2, (1, 3, 3), (1, 2, 2), (0, 1, 1), &mut rng());
        check_layer_gradient(Box::new(c), &[1, 2, 1, 6, 6], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_1x1() {
        let c = Conv3d::new(3, 2, (1, 1, 1), (1, 1, 1), (0, 0, 0), &mut rng());
        check_layer_gradient(Box::new(c), &[2, 3, 1, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_gemm_backend_explicit() {
        // The default backend is Gemm, but pin it explicitly so this keeps
        // covering the lowering even if the default ever changes.
        let c = Conv3d::same(2, 3, (3, 3, 3), &mut rng()).with_backend(ConvBackend::Gemm);
        check_layer_gradient(Box::new(c), &[1, 2, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_direct_backend_explicit() {
        let c = Conv3d::same(2, 3, (3, 3, 3), &mut rng()).with_backend(ConvBackend::Direct);
        check_layer_gradient(Box::new(c), &[1, 2, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gemm_chunked_path_matches_direct_at_64cubed() {
        // 1×2ch×64³ exceeds both the patch cache and the chunk budget, so
        // this exercises the implicit-GEMM training forward AND the
        // streamed (chunked) backward against the direct reference.
        let mut r = rng();
        let mut direct = Conv3d::same(2, 2, (3, 3, 3), &mut r).with_backend(ConvBackend::Direct);
        let mut gemm = direct.clone().with_backend(ConvBackend::Gemm);
        let x = Tensor::rand_uniform([1, 2, 64, 64, 64], -1.0, 1.0, &mut r);
        let yd = direct.forward(&x, true);
        let yg = gemm.forward(&x, true);
        assert!(yd.rel_l2_error(&yg) < 1e-12, "{}", yd.rel_l2_error(&yg));
        let g = Tensor::rand_uniform(yd.dims().to_vec(), -1.0, 1.0, &mut r);
        let gxd = direct.backward(&g);
        let gxg = gemm.backward(&g);
        assert!(gxd.rel_l2_error(&gxg) < 1e-12, "{}", gxd.rel_l2_error(&gxg));
        assert!(direct.weight.grad.rel_l2_error(&gemm.weight.grad) < 1e-12);
        assert!(direct.bias.grad.rel_l2_error(&gemm.bias.grad) < 1e-12);
    }

    #[test]
    fn backend_switch_invalidates_patch_cache() {
        // Regression: a Gemm training forward caches its patch matrix; a
        // Direct training forward on a *different* input used to leave that
        // cache marked valid, so a subsequent Gemm backward consumed stale
        // (wrong-sized) patches. Every forward must invalidate it.
        let mut r = rng();
        let mut conv = Conv3d::same(1, 2, (1, 3, 3), &mut r).with_backend(ConvBackend::Gemm);
        let x1 = Tensor::rand_uniform([1, 1, 1, 4, 4], -1.0, 1.0, &mut r);
        let _ = conv.forward(&x1, true); // fills + validates the patch cache
        conv.backend = ConvBackend::Direct;
        let x2 = Tensor::rand_uniform([1, 1, 1, 6, 6], -1.0, 1.0, &mut r);
        let _ = conv.forward(&x2, true); // must invalidate the x1 cache
        conv.backend = ConvBackend::Gemm;
        let g = Tensor::rand_uniform([1, 2, 1, 6, 6], -1.0, 1.0, &mut r);
        let gx = conv.backward(&g); // panicked (stale 4×4 cache) before the fix
                                    // And the gradients must match a clean single-backend run on x2.
        let mut reference = Conv3d::same(1, 2, (1, 3, 3), &mut rng());
        reference.weight.data = conv.weight.data.clone();
        reference.bias.data = conv.bias.data.clone();
        let _ = reference.forward(&x2, true);
        let gx_ref = reference.backward(&g);
        assert!(gx.rel_l2_error(&gx_ref) < 1e-12);
        assert!(conv.weight.grad.rel_l2_error(&reference.weight.grad) < 1e-12);
    }

    #[test]
    fn infer_matches_forward_bitwise_both_backends() {
        // An inference forward and `infer` both run the implicit GEMM over
        // all anchor rows, so they must agree bit for bit.
        let mut r = rng();
        for backend in [ConvBackend::Gemm, ConvBackend::Direct] {
            let mut c = Conv3d::same(2, 3, (3, 3, 3), &mut r).with_backend(backend);
            let x = Tensor::rand_uniform([2, 2, 20, 20, 20], -1.0, 1.0, &mut r);
            let y = c.forward(&x, false);
            let mut ws = crate::workspace::Workspace::new();
            let yi = c.infer(&x, &mut ws);
            assert!(y
                .as_slice()
                .iter()
                .zip(yi.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn gemm_forward_is_bitwise_deterministic() {
        let mut r = rng();
        let mut c = Conv3d::same(4, 4, (3, 3, 3), &mut r);
        let x = Tensor::rand_uniform([1, 4, 16, 16, 16], -1.0, 1.0, &mut r);
        let y1 = c.forward(&x, false);
        let y2 = c.forward(&x, false);
        assert!(y1
            .as_slice()
            .iter()
            .zip(y2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
