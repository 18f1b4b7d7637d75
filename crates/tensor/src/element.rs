//! The element-type abstraction behind generic tensors and kernels.
//!
//! Everything in this workspace computed in `f64` until the precision
//! refactor; [`Element`] is the seam that lets the same tensor, GEMM,
//! network-inference and multigrid-smoother code run in `f32` (2× SIMD
//! lanes, half the working set) while training and certification stay in
//! `f64`. The contract is deliberately small:
//!
//! - **Conversion** through `f64` ([`Element::from_f64`] /
//!   [`Element::to_f64`]). Reductions (sums, dots, norms) accumulate in
//!   `f64` regardless of the storage element, so `f32` tensors still report
//!   `f64`-quality statistics and the `f64` instantiation is bit-for-bit
//!   the pre-refactor code.
//! - **Named epsilons** that used to be scattered literals: the BatchNorm
//!   variance floor ([`Element::BN_EPS`]), the Adam denominator guard
//!   ([`Element::ADAM_EPS`]), and the documented equivalence tolerance of
//!   this element against an `f64` reference ([`Element::EQUIV_TOL`]).
//! - **Determinism hooks**: [`Element::bits`] exposes the raw IEEE pattern
//!   so bitwise-reproducibility tests work for any element.
//!
//! [`GemmElement`] layers the blocked-GEMM tuning knobs (`MR×NR` register
//! tile, `KC`/`NC` cache blocks) and the register-tiled micro-kernel on
//! top, because the optimal tile is precision-dependent: `f32` doubles the
//! lanes per vector register, so its tile is twice as wide.

use serde::{Deserialize, Serialize};
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Division/curvature guard for `f64` solver code: denominators smaller in
/// magnitude than this are treated as zero (inverse-diagonal masking in the
/// FEM systems, line-search curvature and norm-ratio guards). Hoisted from
/// scattered `1e-300` literals.
pub const F64_DIV_GUARD: f64 = 1e-300;

/// Numeric-precision mode of an engine, snapshot, or solver path.
///
/// This is the user-facing knob the element-generic kernels hide behind:
///
/// - [`Precision::F64`] — every path runs in `f64` (the reference
///   behavior). The default.
/// - [`Precision::F32`] — *serving* forward passes run single precision
///   (f32 weights, activations and cached predictions: half the memory
///   traffic, twice the SIMD lanes). Training, certified solving and every
///   residual certificate stay `f64`.
/// - [`Precision::Mixed`] — `F32` serving **plus** the mixed-precision
///   multigrid preconditioner for certified solves: V-cycle smoothing,
///   residuals and transfers in `f32`, outer PCG / coarsest solve /
///   certification in `f64` (iterative refinement). Certificates are still
///   machine-checked in `f64`, so `certify_tol` down to ~1e-12 remains
///   reachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full double precision everywhere (the reference behavior).
    #[default]
    F64,
    /// Single-precision serving fast path; solves and training stay `f64`.
    F32,
    /// `F32` serving plus the `f32`-V-cycle / `f64`-refinement solver path.
    Mixed,
}

impl Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Mixed => "mixed",
        })
    }
}

/// A scalar element type tensors and kernels can be generic over.
///
/// Implemented for `f64` (the master/training/certification precision) and
/// `f32` (the SIMD fast path). All mixed-precision logic converts through
/// `f64`; see the module docs for the accumulate-in-`f64` convention.
pub trait Element:
    Copy
    + Clone
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Serialize
    + Deserialize
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (distance from 1.0 to the next representable value).
    const EPSILON: Self;
    /// Lowercase type name, used as the precision tag in weight snapshots
    /// and bench reports (`"f64"` / `"f32"`).
    const NAME: &'static str;
    /// BatchNorm variance floor: added to the batch variance before the
    /// square root so normalization never divides by ~0.
    const BN_EPS: Self;
    /// Adam second-moment denominator guard.
    const ADAM_EPS: Self;
    /// Documented relative-L2 tolerance of this element's compute paths
    /// against an `f64` reference (the bound the equivalence test suite
    /// asserts). Identically-zero rounding gap for `f64` itself is covered
    /// by a tiny non-zero allowance so tests can share one code path.
    const EQUIV_TOL: f64;

    /// Rounds an `f64` into this element.
    fn from_f64(v: f64) -> Self;
    /// Widens this element to `f64` (exact for both implementations).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// NaN-propagating-free maximum (IEEE `maxNum`, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// NaN-propagating-free minimum.
    fn min(self, other: Self) -> Self;
    /// Fused/contracted `self * a + b` (allowed to round once or twice,
    /// matching `f64::mul_add` availability).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// False for NaN and ±∞.
    fn is_finite(self) -> bool;
    /// Raw IEEE bit pattern, zero-extended to 64 bits (for bitwise
    /// determinism assertions).
    fn bits(self) -> u64;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const NAME: &'static str = "f64";
    const BN_EPS: Self = 1e-5;
    const ADAM_EPS: Self = 1e-8;
    const EQUIV_TOL: f64 = 1e-12;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const NAME: &'static str = "f32";
    const BN_EPS: Self = 1e-5;
    const ADAM_EPS: Self = 1e-8;
    // One part in ~10^4: conv/U-Net forwards measured ~1e-6..1e-5 relative
    // to f64; the bound leaves headroom for deep stacks and 64^3 domains.
    const EQUIV_TOL: f64 = 1e-4;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// An [`Element`] with blocked-GEMM tuning parameters and a register-tiled
/// micro-kernel.
///
/// The tile geometry is chosen per precision and per target for the same
/// register budget: an `MR × NR` tile needs `MR · NR / W` accumulator
/// registers (`W` lanes each) plus the `NR / W` loads of a B row and one
/// broadcast of A.
///
/// - **AVX-512 builds** (`target_feature = "avx512f"`, which the repo's
///   `target-cpu=native` build enables on such hosts) run explicit
///   `std::arch` FMA kernels with an **8-row** tile: `8 × 16` for `f64`
///   and `8 × 32` for `f32`, 16 of the 32 `zmm` registers holding
///   accumulators. Eight rows means the U-Net's channel counts
///   (8, 16, 32, 64) fill every tile without padded rows.
/// - **Every other build** keeps the portable auto-vectorized body:
///   `6 × 16` for `f64` and `6 × 32` for `f32` (12 accumulators).
///
/// Either choice is made at compile time, so results are bitwise
/// deterministic within one build; [`GemmElement::FUSED`] says whether the
/// kernel rounds each multiply-add once (FMA) or twice.
pub trait GemmElement: Element {
    /// Micro-kernel tile rows (rows of `op(A)` per register tile).
    const MR: usize;
    /// Micro-kernel tile columns (columns of `op(B)` per register tile).
    const NR: usize;
    /// Cache block along the shared dimension `k` (an `MR`-panel of A plus
    /// an `NR`-panel of B sized to stay L1-resident).
    const KC: usize;
    /// Columns per parallel job (one packed `KC × NC` B slab sized for L2).
    const NC: usize;
    /// Whether the micro-kernel computes each step as one fused
    /// multiply-add (`acc = a.mul_add(b, acc)`) rather than `acc += a * b`.
    const FUSED: bool;

    /// Computes a full `MR × NR` register tile over `kc_len` packed steps:
    /// `acc[mr * NR + nr] = Σ_k apanel[k*MR + mr] * bpanel[k*NR + nr]`,
    /// summed in increasing `k` (fused per step when [`Self::FUSED`]).
    ///
    /// `acc` (length `MR * NR`, row-major) is fully overwritten. Each
    /// implementation accumulates in fixed registers with a fixed loop
    /// order, so results are bitwise deterministic.
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]);
}

/// Whether this build runs the explicit AVX-512 FMA micro-kernels.
const AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// Expands to a monomorphic micro-kernel body; keeping the accumulator as a
/// `[[E; NR]; MR]` local (not a slice) is what lets the auto-vectorizer map
/// the tile onto SIMD registers.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
macro_rules! microkernel_body {
    ($e:ty, $mr:expr, $nr:expr, $kc_len:ident, $apanel:ident, $bpanel:ident, $acc:ident, $step:expr) => {{
        const MR: usize = $mr;
        const NR: usize = $nr;
        let mut tile = [[<$e as Element>::ZERO; NR]; MR];
        // `chunks_exact` hoists all bounds checks out of the hot loop,
        // leaving a branch-free body of MR broadcasts × NR-wide
        // multiply-adds.
        let a_steps = $apanel[..$kc_len * MR].chunks_exact(MR);
        let b_steps = $bpanel[..$kc_len * NR].chunks_exact(NR);
        for (avals, bvals) in a_steps.zip(b_steps) {
            for mr in 0..MR {
                let a = avals[mr];
                let row = &mut tile[mr];
                for nr in 0..NR {
                    row[nr] = $step(a, bvals[nr], row[nr]);
                }
            }
        }
        for mr in 0..MR {
            $acc[mr * NR..mr * NR + NR].copy_from_slice(&tile[mr]);
        }
    }};
}

/// The explicit AVX-512 FMA micro-kernels: an 8-row tile of two `zmm`
/// accumulators per row, one broadcast of A per row and two loads of B per
/// `k` step.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use std::arch::x86_64::*;

    /// Expands to the 8 × (2 vectors) FMA loop for one element type.
    macro_rules! fma_tile {
        ($kc_len:ident, $apanel:ident, $bpanel:ident, $acc:ident, $lanes:expr,
         $zero:ident, $load:ident, $set1:ident, $fmadd:ident, $store:ident) => {{
            const MR: usize = 8;
            const NR: usize = 2 * $lanes;
            let a = &$apanel[..$kc_len * MR];
            let b = &$bpanel[..$kc_len * NR];
            assert!($acc.len() >= MR * NR);
            let mut c = [[$zero(); 2]; MR];
            for k in 0..$kc_len {
                // SAFETY: `b` holds `kc_len * NR` elements, so both loads
                // of row `k` are in bounds; `avx512f` is a compile-time
                // target feature of this build.
                let (b0, b1) = unsafe {
                    let p = b.as_ptr().add(k * NR);
                    ($load(p), $load(p.add($lanes)))
                };
                let arow = &a[k * MR..k * MR + MR];
                for r in 0..MR {
                    let av = $set1(arow[r]);
                    c[r][0] = $fmadd(av, b0, c[r][0]);
                    c[r][1] = $fmadd(av, b1, c[r][1]);
                }
            }
            for r in 0..MR {
                // SAFETY: `acc` holds at least `MR * NR` elements (asserted).
                unsafe {
                    let p = $acc.as_mut_ptr().add(r * NR);
                    $store(p, c[r][0]);
                    $store(p.add($lanes), c[r][1]);
                }
            }
        }};
    }

    /// `f64` 8 × 16 tile.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn f64_8x16(kc_len: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64]) {
        fma_tile!(
            kc_len,
            apanel,
            bpanel,
            acc,
            8,
            _mm512_setzero_pd,
            _mm512_loadu_pd,
            _mm512_set1_pd,
            _mm512_fmadd_pd,
            _mm512_storeu_pd
        );
    }

    /// `f32` 8 × 32 tile.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn f32_8x32(kc_len: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [f32]) {
        fma_tile!(
            kc_len,
            apanel,
            bpanel,
            acc,
            16,
            _mm512_setzero_ps,
            _mm512_loadu_ps,
            _mm512_set1_ps,
            _mm512_fmadd_ps,
            _mm512_storeu_ps
        );
    }
}

impl GemmElement for f64 {
    const MR: usize = if AVX512 { 8 } else { 6 };
    const NR: usize = 16;
    const KC: usize = 256;
    const NC: usize = 256;
    const FUSED: bool = AVX512;

    #[inline(always)]
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]) {
        // SAFETY: this arm only compiles when `avx512f` is a target feature
        // of the whole build.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            avx512::f64_8x16(kc_len, apanel, bpanel, acc)
        };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        microkernel_body!(f64, 6, 16, kc_len, apanel, bpanel, acc, |a: f64, b, c| c
            + a * b);
    }
}

impl GemmElement for f32 {
    // Twice the tile width of f64 for the same accumulator count, while a
    // KC×NR B panel is still 32 KiB — L1-resident. NC doubles so a packed
    // B slab stays the same 512 KiB in bytes.
    const MR: usize = if AVX512 { 8 } else { 6 };
    const NR: usize = 32;
    const KC: usize = 256;
    const NC: usize = 512;
    const FUSED: bool = AVX512 || cfg!(target_feature = "fma");

    // `inline(never)`: whether LLVM vectorizes the portable `mul_add` loop
    // turns out to depend on the surrounding inlining context — fused into
    // `compute_cols` inside an rlib it has been seen to lower to *scalar*
    // FMA (~3× slower end to end through a `share_f32()` vtable) while the
    // same source vectorized fine when monomorphized in a leaf crate.
    // Compiling the kernel as a standalone function makes its codegen
    // context-independent; the call costs ~100k flops of work, so the
    // overhead is noise.
    #[inline(never)]
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]) {
        // SAFETY: as for the f64 kernel.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            avx512::f32_8x32(kc_len, apanel, bpanel, acc)
        };
        // LLVM refuses to contract `acc += a * b` into FMA for f32 (and the
        // separate mul/add form also vectorizes poorly here). Spell the
        // fused form out when the target has hardware FMA; without it,
        // `f32::mul_add` would lower to a libm call per lane, so fall back
        // to the contractible form instead.
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        if cfg!(target_feature = "fma") {
            microkernel_body!(f32, 6, 32, kc_len, apanel, bpanel, acc, |a: f32, b, c| a
                .mul_add(b, c));
        } else {
            microkernel_body!(f32, 6, 32, kc_len, apanel, bpanel, acc, |a: f32, b, c| c
                + a * b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(f64::from_f64(1.5), 1.5);
        assert_eq!(f32::from_f64(1.5), 1.5f32);
        assert_eq!(Element::to_f64(0.25f32), 0.25);
        assert_eq!(<f64 as Element>::NAME, "f64");
        assert_eq!(<f32 as Element>::NAME, "f32");
    }

    #[test]
    fn bits_distinguish_signed_zero() {
        assert_ne!(Element::bits(0.0f32), Element::bits(-0.0f32));
        assert_ne!(Element::bits(0.0f64), Element::bits(-0.0f64));
        assert_eq!(Element::bits(1.0f32), u64::from(1.0f32.to_bits()));
    }

    #[test]
    fn microkernel_matches_naive_dot() {
        fn check<E: GemmElement>() {
            // Inexact products, so a fused and an unfused step round
            // differently and the reference must match the kernel's form.
            let kc = 37;
            let apanel: Vec<E> = (0..kc * E::MR)
                .map(|i| E::from_f64((i as f64 * 0.37).sin()))
                .collect();
            let bpanel: Vec<E> = (0..kc * E::NR)
                .map(|i| E::from_f64((i as f64 * 0.73).cos()))
                .collect();
            let mut acc = vec![E::from_f64(99.0); E::MR * E::NR];
            E::microkernel(kc, &apanel, &bpanel, &mut acc);
            for mr in 0..E::MR {
                for nr in 0..E::NR {
                    // The reference rounds exactly like the kernel: one
                    // fused step per k on the FMA path, mul then add
                    // otherwise.
                    let mut want = E::ZERO;
                    for k in 0..kc {
                        let (a, b) = (apanel[k * E::MR + mr], bpanel[k * E::NR + nr]);
                        want = if E::FUSED {
                            a.mul_add(b, want)
                        } else {
                            want + a * b
                        };
                    }
                    assert_eq!(acc[mr * E::NR + nr], want, "{} ({mr},{nr})", E::NAME);
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }
}
