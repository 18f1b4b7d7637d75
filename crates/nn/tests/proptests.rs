//! Property-based tests for the CNN framework.

use mgd_dist::{carve_planes, launch_with, SlabPartition};
use mgd_nn::layer::Dims5;
use mgd_nn::lowering::{conv_gemm, im2col_range, ConvGeom};
use mgd_nn::unet::{concat_channels, split_channels};
use mgd_nn::{
    predict_slab, Adam, Conv3d, ConvBackend, ConvTranspose3d, Layer, MaxPool3d, Optimizer, Param,
    Sigmoid, SplitAxis, UNet, UNetConfig,
};
use mgd_tensor::matmul::{gemm_prepacked, pack_a};
use mgd_tensor::{GemmElement, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forward + backward a layer pair (identical weights, different backends)
/// on the same input/cotangent and assert every output and accumulated
/// gradient agrees to ≤ `tol` relative L2 error.
fn assert_backends_equivalent<L: Layer + Clone>(mut direct: L, mut gemm: L, x: &Tensor, tol: f64) {
    let mut rng = StdRng::seed_from_u64(0xE0);
    let yd = direct.forward(x, true);
    let yg = gemm.forward(x, true);
    prop_assert_eq!(yd.dims(), yg.dims());
    prop_assert!(
        yd.rel_l2_error(&yg) < tol,
        "forward diverges: {}",
        yd.rel_l2_error(&yg)
    );
    let g = Tensor::rand_uniform(yd.dims().to_vec(), -1.0, 1.0, &mut rng);
    let gxd = direct.backward(&g);
    let gxg = gemm.backward(&g);
    prop_assert!(
        gxd.rel_l2_error(&gxg) < tol,
        "input grad diverges: {}",
        gxd.rel_l2_error(&gxg)
    );
    let pd: Vec<Tensor> = direct.params().iter().map(|p| p.grad.clone()).collect();
    let pg: Vec<Tensor> = gemm.params().iter().map(|p| p.grad.clone()).collect();
    for (i, (a, b)) in pd.iter().zip(&pg).enumerate() {
        prop_assert!(
            a.rel_l2_error(b) < tol,
            "param {i} grad diverges: {}",
            a.rel_l2_error(b)
        );
    }
}

/// Asserts the implicit-gather conv GEMM equals `im2col_range` +
/// `gemm_prepacked` + a bias pass bit for bit on anchor rows `[ar0, ar1)`.
fn assert_implicit_matches_im2col<E: GemmElement>(
    g: &ConvGeom,
    out_c: usize,
    ar0: usize,
    ar1: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rand = |len: usize, rng: &mut StdRng| -> Vec<E> {
        (0..len)
            .map(|_| E::from_f64(rng.gen_range(-1.0..1.0)))
            .collect()
    };
    let src = rand(g.c * g.vol(), &mut rng);
    let w = rand(out_c * g.rows(), &mut rng);
    let bias = rand(out_c, &mut rng);
    let pa = pack_a(&w, out_c, g.rows(), false);
    let cols = (ar1 - ar0) * g.out.2;
    let mut col = vec![E::ZERO; g.rows() * cols];
    im2col_range(g, &src, &mut col, ar0, ar1);
    let mut prod = vec![E::ZERO; out_c * cols];
    gemm_prepacked(&pa, &col, false, &mut prod, cols, false);
    // Land the implicit product in a wider matrix to exercise the row
    // stride; the gap columns must stay untouched.
    let ldc = cols + 3;
    let sentinel = E::from_f64(7.25);
    let mut got = vec![sentinel; out_c * ldc];
    conv_gemm(&pa, g, &src, ar0, ar1, &mut got, ldc, &bias);
    for oc in 0..out_c {
        for j in 0..ldc {
            let have = got[oc * ldc + j];
            let want = if j < cols {
                bias[oc] + prod[oc * cols + j]
            } else {
                sentinel
            };
            assert!(
                have.bits() == want.bits(),
                "{} {:?} out_c={} rows {}..{} [{}, {}]: {} vs {}",
                E::NAME,
                g,
                out_c,
                ar0,
                ar1,
                oc,
                j,
                have,
                want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Same-padding convolutions preserve spatial dims for any channel
    /// combination and input size.
    #[test]
    fn conv_same_preserves_dims(
        cin in 1usize..4, cout in 1usize..4,
        h in 3usize..10, w in 3usize..10, seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv3d::same(cin, cout, (1, 3, 3), &mut rng);
        let x = Tensor::rand_uniform([1, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        prop_assert_eq!(y.dims(), &[1, cout, 1, h, w]);
    }

    /// Max-pool backward conserves the total gradient mass.
    #[test]
    fn pool_backward_conserves_gradient(h in 1usize..5, w in 1usize..5, seed in 0u64..100) {
        let (h, w) = (h * 2, w * 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = MaxPool3d::new((1, 2, 2));
        let x = Tensor::rand_uniform([1, 1, 1, h, w], -1.0, 1.0, &mut rng);
        let y = pool.forward(&x, true);
        let g = Tensor::rand_uniform(y.dims().to_vec(), -1.0, 1.0, &mut rng);
        let gx = pool.backward(&g);
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-10);
    }

    /// Sigmoid output is strictly inside (0, 1) for inputs where f64 can
    /// represent that (|x| ≲ 36; beyond, it rounds to exactly 0/1), and is
    /// monotone.
    #[test]
    fn sigmoid_range_and_monotonicity(a in -30.0..30.0f64, b in -30.0..30.0f64) {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec([1, 1, 1, 1, 2], vec![a, b]);
        let y = s.forward(&x, false);
        prop_assert!(y[0] > 0.0 && y[0] < 1.0);
        prop_assert!(y[1] > 0.0 && y[1] < 1.0);
        if a < b {
            prop_assert!(y[0] <= y[1]);
        }
    }

    /// concat/split roundtrip for arbitrary channel splits.
    #[test]
    fn concat_split_roundtrip(ca in 1usize..5, cb in 1usize..5, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform([2, ca, 1, 3, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([2, cb, 1, 3, 3], -1.0, 1.0, &mut rng);
        let cat = concat_channels(&a, &b);
        let (a2, b2) = split_channels(&cat, ca);
        prop_assert_eq!(a2.as_slice(), a.as_slice());
        prop_assert_eq!(b2.as_slice(), b.as_slice());
    }

    /// Adam converges on any 1D positive quadratic.
    #[test]
    fn adam_minimizes_quadratic(target in -5.0..5.0f64, curvature in 0.5..4.0f64) {
        let mut p = Param::new(Tensor::from_vec([1], vec![0.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..800 {
            let g = 2.0 * curvature * (p.data[0] - target);
            p.grad = Tensor::from_vec([1], vec![g]);
            opt.step(&mut [&mut p]);
        }
        prop_assert!((p.data[0] - target).abs() < 1e-2, "{} vs {}", p.data[0], target);
    }

    /// The U-Net accepts every resolution divisible by 2^depth and
    /// produces outputs in (0, 1) with the sigmoid head.
    #[test]
    fn unet_resolution_sweep(k in 1usize..4, seed in 0u64..20) {
        let cfg = UNetConfig { two_d: true, depth: 2, base_filters: 2, seed, ..Default::default() };
        let mut net = UNet::new(cfg);
        let m = 4 << k; // 8, 16, 32
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform([1, 1, 1, m, m], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, false);
        prop_assert_eq!(y.dims(), &[1, 1, 1, m, m]);
        prop_assert!(y.as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    /// The GEMM lowering computes the same convolution as the direct
    /// sliding-window kernels — forward and all three gradients — across
    /// random channels, kernels (incl. 2D `(1,k,k)`), strides and paddings.
    #[test]
    fn conv_gemm_matches_direct(
        n in 1usize..3, cin in 1usize..4, cout in 1usize..4,
        kd in 1usize..4, khw in 1usize..4,
        sd in 1usize..3, shw in 1usize..3,
        pd in 0usize..2, phw in 0usize..2,
        extra in 0usize..4, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Spatial extents large enough for the kernel at this padding.
        let d = (kd.saturating_sub(2 * pd)).max(1) + extra;
        let hw = (khw.saturating_sub(2 * phw)).max(1) + extra + 1;
        let direct = Conv3d::new(cin, cout, (kd, khw, khw), (sd, shw, shw), (pd, phw, phw), &mut rng)
            .with_backend(ConvBackend::Direct);
        let gemm = direct.clone().with_backend(ConvBackend::Gemm);
        let x = Tensor::rand_uniform([n, cin, d, hw, hw], -1.0, 1.0, &mut rng);
        assert_backends_equivalent(direct, gemm, &x, 1e-10);
    }

    /// The implicit-gather conv GEMM is bitwise equal to materializing the
    /// patch matrix with `im2col_range` and multiplying it, at both
    /// elements: random kernels 1–3, strides 1–2, paddings 0–1 and 1–5
    /// channels per axis, widths on both sides of the `NR` tile (and not
    /// multiples of it), over one anchor row or a slab of rows.
    #[test]
    fn implicit_gather_matches_im2col_bitwise(
        c in 1usize..6, out_c in 1usize..18,
        kd in 1usize..4, kh in 1usize..4, kw in 1usize..4,
        sd in 1usize..3, sh in 1usize..3, sw in 1usize..3,
        pd in 0usize..2, ph in 0usize..2, pw in 0usize..2,
        d_extra in 0usize..3, h_extra in 0usize..4, w in 1usize..41,
        single_row in 0usize..2, r0 in 0usize..64, r1 in 0usize..64, seed in 0u64..1000,
    ) {
        let dims = (
            (kd.saturating_sub(2 * pd)).max(1) + d_extra,
            (kh.saturating_sub(2 * ph)).max(1) + h_extra,
            w.max(kw.saturating_sub(2 * pw)).max(1),
        );
        let out = |i: usize, k: usize, s: usize, p: usize| (i + 2 * p - k) / s + 1;
        let g = ConvGeom {
            c,
            dims,
            kernel: (kd, kh, kw),
            stride: (sd, sh, sw),
            padding: (pd, ph, pw),
            out: (
                out(dims.0, kd, sd, pd),
                out(dims.1, kh, sh, ph),
                out(dims.2, kw, sw, pw),
            ),
        };
        let rows = g.out.0 * g.out.1;
        let (ar0, ar1) = if single_row == 1 {
            (r0 % rows, r0 % rows + 1)
        } else {
            let (a, b) = (r0 % (rows + 1), r1 % (rows + 1));
            if a == b { (0, rows) } else { (a.min(b), a.max(b)) }
        };
        assert_implicit_matches_im2col::<f64>(&g, out_c, ar0, ar1, seed);
        assert_implicit_matches_im2col::<f32>(&g, out_c, ar0, ar1, seed);
    }

    /// Same equivalence for the transpose convolution (the decoder path),
    /// including strided upsampling and output padding.
    #[test]
    fn convt_gemm_matches_direct(
        n in 1usize..3, cin in 1usize..4, cout in 1usize..4,
        kd in 1usize..4, khw in 1usize..4,
        sd in 1usize..3, shw in 1usize..3,
        p in 0usize..2,
        extra in 0usize..4, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // i >= 3 keeps (i-1)s + k - 2p >= 1 for every drawn combination.
        let d = 3 + extra;
        let hw = 3 + extra;
        let direct =
            ConvTranspose3d::new(cin, cout, (kd, khw, khw), (sd, shw, shw), (p, p, p), &mut rng)
                .with_backend(ConvBackend::Direct);
        let gemm = direct.clone().with_backend(ConvBackend::Gemm);
        let x = Tensor::rand_uniform([n, cin, d, hw, hw], -1.0, 1.0, &mut rng);
        assert_backends_equivalent(direct, gemm, &x, 1e-10);
    }

    /// A whole U-Net built on the Gemm backend matches the Direct build
    /// weight-for-weight on forward prediction.
    #[test]
    fn unet_backends_agree(seed in 0u64..20) {
        let base = UNetConfig {
            two_d: true, depth: 2, base_filters: 2, seed,
            conv_backend: ConvBackend::Direct,
            ..Default::default()
        };
        let mut direct = UNet::new(base);
        let mut gemm = UNet::new(UNetConfig { conv_backend: ConvBackend::Gemm, ..base });
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let yd = direct.forward(&x, false);
        let yg = gemm.forward(&x, false);
        prop_assert!(yd.rel_l2_error(&yg) < 1e-12);
    }

    /// FEM-convention slab partitions disjointly cover every node plane
    /// and every element layer for any valid `(n_split, p)`.
    #[test]
    fn fem_partition_invariants(p in 1usize..8, extra in 1usize..33) {
        let n_split = p + extra; // always >= p + 1 layers
        let part = SlabPartition::new(n_split, p).unwrap();
        let mut planes = vec![0usize; n_split];
        let mut layers = vec![0usize; n_split - 1];
        for r in 0..p {
            for pl in part.owned_planes(r) {
                planes[pl] += 1;
            }
            for l in part.owned_layers(r) {
                layers[l] += 1;
            }
        }
        prop_assert!(planes.iter().all(|&c| c == 1), "planes {planes:?}");
        prop_assert!(layers.iter().all(|&c| c == 1), "layers {layers:?}");
    }

    /// Aligned slab partitions tile the axis with contiguous, non-empty
    /// slabs whose sizes are all multiples of the alignment.
    #[test]
    fn aligned_partition_invariants(p in 1usize..8, extra in 0usize..9, lg in 0u32..4) {
        let blocks = p + extra;
        let align = 1usize << lg;
        let extent = blocks * align;
        let part = SlabPartition::aligned(extent, p, align).unwrap();
        let mut covered = 0usize;
        for r in 0..p {
            let owned = part.owned_planes(r);
            prop_assert_eq!(owned.start, covered, "slabs must tile contiguously");
            prop_assert!(!owned.is_empty());
            prop_assert!(owned.len().is_multiple_of(align));
            covered = owned.end;
        }
        prop_assert_eq!(covered, extent);
        // One more rank than blocks must fail as a typed error.
        prop_assert!(SlabPartition::aligned(extent, blocks + 1, align).is_err());
    }

    /// The slab-decomposed spatial forward is bitwise identical to the
    /// serial forward for random resolutions, depths, dimensionalities and
    /// rank counts — the core guarantee of `mgd_nn::spatial`.
    #[test]
    fn spatial_forward_matches_serial_bitwise(
        depth in 1usize..3, blocks_extra in 0usize..3, p in 2usize..5,
        hw in 1usize..3, two_d_bit in 0usize..2, seed in 0u64..1000,
    ) {
        let two_d = two_d_bit == 1;
        let align = 1usize << depth;
        let extent = (p + blocks_extra) * align;
        let other = hw * align * 2;
        let dims = if two_d { [1, extent, other] } else { [extent, other.min(8), 4.max(align)] };
        let cfg = UNetConfig {
            depth, base_filters: 2, two_d, seed,
            ..Default::default()
        };
        let mut reference = UNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = Tensor::rand_uniform(vec![1, 1, dims[0], dims[1], dims[2]], -1.0, 1.0, &mut rng);
        let serial = reference.forward(&x, false);
        let d5 = Dims5::of(&x);
        let axis = reference.split_axis();
        let part = SlabPartition::aligned(axis.extent(&d5), p, align).unwrap();
        let layout = axis.layout(&d5);
        let jobs: Vec<(UNet, Tensor, std::ops::Range<usize>)> = (0..p)
            .map(|r| {
                let owned = part.owned_planes(r);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let sdims = match axis {
                    SplitAxis::Depth => vec![1, 1, owned.len(), dims[1], dims[2]],
                    SplitAxis::Height => vec![1, 1, 1, owned.len(), dims[2]],
                };
                (UNet::new(cfg), Tensor::from_vec(sdims, data), owned)
            })
            .collect();
        let results = launch_with(jobs, |comm, (mut replica, slab, owned)| {
            (owned, predict_slab(&mut replica, &slab, &comm))
        });
        let out_layout = axis.layout(&Dims5::of(&serial));
        for (owned, out) in results {
            let expect = carve_planes(serial.as_slice(), &out_layout, owned.start, owned.end);
            prop_assert_eq!(out.as_slice().len(), expect.len());
            for (i, (a, b)) in out.as_slice().iter().zip(&expect).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "two_d={} depth={} p={} owned={:?} elem {}: {} vs {}",
                    two_d, depth, p, owned, i, a, b
                );
            }
        }
    }

    /// The f32 convolution inference path tracks the f64 master path to
    /// the single-precision equivalence tolerance across random shapes.
    #[test]
    fn conv_f32_infer_matches_f64(
        cin in 1usize..4, cout in 1usize..4,
        h in 4usize..12, w in 4usize..12, seed in 0u64..200,
    ) {
        use mgd_nn::Workspace;
        use mgd_tensor::Element;
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv3d::same(cin, cout, (1, 3, 3), &mut rng);
        let conv32 = conv.cast_as::<f32>();
        let x = Tensor::rand_uniform([2, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y64 = conv.infer(&x, &mut Workspace::new());
        let y32 = conv32.infer(&x.cast::<f32>(), &mut Workspace::<f32>::new());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "conv f32 drift {err}");
    }

    /// The f32 transpose-convolution (decoder) inference path tracks f64
    /// to the same tolerance.
    #[test]
    fn convt_f32_infer_matches_f64(
        cin in 1usize..4, cout in 1usize..4,
        h in 3usize..8, w in 3usize..8, seed in 0u64..200,
    ) {
        use mgd_nn::Workspace;
        use mgd_tensor::Element;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = ConvTranspose3d::up2(cin, cout, true, &mut rng);
        let t32 = t.cast_as::<f32>();
        let x = Tensor::rand_uniform([1, cin, 1, h, w], -1.0, 1.0, &mut rng);
        let y64 = t.infer(&x, &mut Workspace::new());
        let y32 = t32.infer(&x.cast::<f32>(), &mut Workspace::<f32>::new());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "convt f32 drift {err}");
    }

    /// A whole f32 U-Net replica (random seeds, both conv backends) tracks
    /// the f64 master network within the f32 equivalence tolerance, and
    /// repeat runs are bitwise deterministic.
    #[test]
    fn unet_f32_matches_f64(seed in 0u64..30, gemm_bit in 0usize..2) {
        use mgd_nn::Workspace;
        use mgd_tensor::Element;
        let cfg = UNetConfig {
            two_d: true, depth: 2, base_filters: 2, seed,
            conv_backend: if gemm_bit == 1 { ConvBackend::Gemm } else { ConvBackend::Direct },
            ..Default::default()
        };
        let mut net = UNet::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF32);
        let _ = net.forward(&Tensor::rand_uniform([2, 1, 1, 8, 8], -1.0, 1.0, &mut rng), true);
        let net32 = net.to_f32();
        let x = Tensor::rand_uniform([1, 1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y64 = net.infer(&x, &mut Workspace::new());
        let x32 = x.cast::<f32>();
        let y32 = net32.infer(&x32, &mut Workspace::<f32>::new());
        let err = y64.rel_l2_error(&y32.cast::<f64>());
        prop_assert!(err < <f32 as Element>::EQUIV_TOL, "unet f32 drift {err}");
        let again = net32.infer(&x32, &mut Workspace::<f32>::new());
        for (a, b) in y32.as_slice().iter().zip(again.as_slice()) {
            prop_assert!(a.to_bits() == b.to_bits(), "f32 repeat run not bitwise equal");
        }
    }

    /// Gradient accumulation: two backward passes double the parameter
    /// gradient (callers rely on accumulate-then-zero semantics).
    #[test]
    fn gradients_accumulate(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv3d::same(1, 1, (1, 3, 3), &mut rng);
        let x = Tensor::rand_uniform([1, 1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform([1, 1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        let once = conv.weight.grad.clone();
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
        for i in 0..once.len() {
            prop_assert!((conv.weight.grad[i] - 2.0 * once[i]).abs() < 1e-9);
        }
    }
}
