//! Cache-blocked, register-tiled matrix multiplication, generic over the
//! element type.
//!
//! This is the single compute kernel the convolution layers of `mgd-nn`
//! lower onto: `C = op(A) · op(B)` with optional accumulation into `C`.
//! The design follows the classic GotoBLAS/BLIS decomposition, scaled to
//! this workspace's shapes (a small-ish left operand — a weight matrix —
//! times a wide patch matrix):
//!
//! - **Packing**: `op(A)` is packed once into column-major micro-panels of
//!   `E::MR` rows ([`PackedA`], reusable across a whole mini-batch via
//!   [`gemm_prepacked`]); `op(B)` is packed per `(k-block, column-slab)`
//!   into row-major micro-panels of `E::NR` columns. Packing makes every
//!   micro-kernel read sequential regardless of the logical layout, and
//!   absorbs both transposes and edge-tile zero padding.
//! - **One loop nest, two B-panel sources** ([`PanelSource`]): the panels
//!   are filled either from a stored matrix (every [`gemm`] /
//!   [`gemm_prepacked`] call) or by a caller-supplied filler through
//!   [`gemm_prepacked_with`] — the convolution forward gathers its patch
//!   panels straight from the activation there (implicit GEMM), so the
//!   patch matrix is never materialized. The filler only decides where
//!   the panel values come from; the k-order of every sum is the same.
//! - **Register tiling**: the micro-kernel accumulates an `MR × NR` tile in
//!   registers over an `E::KC`-long stretch of the shared dimension, so
//!   each loaded element is reused `MR` (or `NR`) times. The tile geometry
//!   is per-precision and per-target ([`GemmElement`]): AVX-512 builds run
//!   explicit FMA kernels on an 8-row tile, other builds a portable 6-row
//!   body; `f32` runs a tile twice as wide as `f64` for the same register
//!   budget, which is where its ~2× GEMM ceiling comes from.
//! - **Parallelism**: column slabs of `E::NC` columns are independent jobs
//!   dispatched through [`crate::par::par_jobs_with`]; when the shared
//!   dimension dominates (`k` huge, `m·n` tiny — the conv weight-gradient
//!   shape), the kernel instead splits `k` into chunks reduced **in chunk
//!   order**, so results are bitwise deterministic for any thread count.
//!   The split-k reduction normally accumulates in `E`; [`gemm_opts`] with
//!   [`SplitKAcc::Wide`] reduces the `f32` partial products in `f64`
//!   instead (a no-op for `f64`), trading one widening pass for immunity to
//!   catastrophic cancellation across chunks.
//!
//! Every job writes a disjoint region of `C` with a fixed internal loop
//! order, and reductions happen in a deterministic order, so a given entry
//! point is bitwise reproducible run-to-run within one build.

use crate::element::GemmElement;
use crate::par::par_jobs_with;

/// Micro-kernel tile rows of the `f64` instantiation.
pub const MR: usize = <f64 as GemmElement>::MR;
/// Micro-kernel tile columns of the `f64` instantiation.
pub const NR: usize = <f64 as GemmElement>::NR;
/// `k` cache block of the `f64` instantiation.
pub const KC: usize = <f64 as GemmElement>::KC;
/// Columns per parallel job of the `f64` instantiation.
pub const NC: usize = <f64 as GemmElement>::NC;

/// Minimum `k` chunk length of the split-k path.
const KSPLIT_LEN: usize = 8192;
/// Largest `m · n` for which the split-k path is considered (above this the
/// column-slab path already exposes enough parallelism).
const KSPLIT_MAX_MN: usize = 1 << 16;
/// Cap on total split-k scratch (elements) across all chunks.
const KSPLIT_MAX_SCRATCH: usize = 1 << 22;

/// How the split-k path reduces its per-chunk partial products.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitKAcc {
    /// Reduce in the element type itself (the default; for `f64` this is
    /// the only behavior there is).
    #[default]
    Native,
    /// Widen each partial to `f64` and reduce there, rounding back to `E`
    /// once at the end. Only changes results for `f32`.
    Wide,
}

/// Raw-pointer wrapper so parallel jobs can write provably disjoint regions
/// of `C` (each job owns a distinct column range or scratch slab).
struct SendPtr<E>(*mut E);
impl<E> SendPtr<E> {
    #[inline]
    fn get(&self) -> *mut E {
        self.0
    }
}
// SAFETY: jobs only write through disjoint index ranges, guaranteed by the
// dispatchers below.
unsafe impl<E> Send for SendPtr<E> {}
unsafe impl<E> Sync for SendPtr<E> {}

/// `op(A)` packed into `E::MR`-row micro-panels, grouped by `E::KC` block.
///
/// Packing is the expensive-once half of the kernel: a conv layer packs its
/// weight matrix one time per forward/backward call and reuses it for every
/// sample in the batch through [`gemm_prepacked`].
///
/// Reuse contract: the panels depend only on `A`'s bytes and shape, so a
/// `PackedA` may be cached for as long as the source matrix is unchanged
/// and shared across calls, threads, and requests — [`gemm_prepacked`]
/// takes `&PackedA` and never mutates it. Inference engines exploit this
/// by packing each conv's weight matrix once per model snapshot (it is
/// `Clone`, so casting a model clones its panels too).
#[derive(Clone)]
pub struct PackedA<E = f64> {
    m: usize,
    k: usize,
    mpanels: usize,
    data: Vec<E>,
}

impl<E> std::fmt::Debug for PackedA<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedA")
            .field("m", &self.m)
            .field("k", &self.k)
            .field("mpanels", &self.mpanels)
            .finish_non_exhaustive()
    }
}

impl<E: GemmElement> PackedA<E> {
    /// Rows of `op(A)`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of `op(A)` (the shared dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed panel of (`kb`-th `KC` block, `mp`-th `MR` panel).
    #[inline]
    fn panel(&self, kb: usize, mp: usize, kc_len: usize) -> &[E] {
        let base = kb * self.mpanels * E::KC * E::MR + mp * kc_len * E::MR;
        &self.data[base..base + kc_len * E::MR]
    }
}

/// Element strides `(row_stride, col_stride)` of `op(M)` for a matrix
/// stored row-major and logically transposed or not.
#[inline]
fn op_strides(rows_op: usize, cols_op: usize, trans: bool) -> (usize, usize) {
    if trans {
        // Stored as `cols_op × rows_op` row-major.
        (1, rows_op)
    } else {
        let _ = cols_op;
        (cols_op, 1)
    }
}

/// Packs `op(A)` (`m × k`) into [`PackedA`]. `trans_a` means `a` is stored
/// `k × m` row-major and used transposed.
pub fn pack_a<E: GemmElement>(a: &[E], m: usize, k: usize, trans_a: bool) -> PackedA<E> {
    assert_eq!(a.len(), m * k, "A storage must hold m*k elements");
    let (ars, acs) = op_strides(m, k, trans_a);
    pack_a_range(a, m, ars, acs, 0, k)
}

/// A filler of packed `op(B)` micro-panels — the one seam between the
/// blocked loop nest and where its right operand lives.
///
/// [`gemm_prepacked_with`] asks the source for one micro-panel at a time,
/// right before the micro-kernel consumes it; implementations must be pure
/// functions of their arguments (jobs call them concurrently and in any
/// order).
pub trait PanelSource<E: GemmElement>: Sync {
    /// Writes rows `[k0, k0 + kc_len)` × columns `[j0, j0 + jn)` of `op(B)`
    /// (`jn ≤ E::NR`) into one row-major micro-panel, `panel[kk * NR +
    /// col]`, zero-padding the columns past `jn`.
    fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, panel: &mut [E]);
}

/// A stored row-major `op(B)` with element strides, whose rows start at
/// `koff` (split-k chunks read a row window of one matrix).
struct MatrixPanels<'a, E> {
    b: &'a [E],
    brs: usize,
    bcs: usize,
    koff: usize,
}

impl<E: GemmElement> PanelSource<E> for MatrixPanels<'_, E> {
    #[inline]
    fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, panel: &mut [E]) {
        let (b, brs, bcs) = (self.b, self.brs, self.bcs);
        let k0 = self.koff + k0;
        let nr = E::NR;
        let rows = panel[..kc_len * nr].chunks_exact_mut(nr).enumerate();
        if jn == nr && bcs == 1 {
            // Contiguous row fragments: bulk-copy each k row.
            for (kk, row) in rows {
                let src = (k0 + kk) * brs + j0;
                row.copy_from_slice(&b[src..src + nr]);
            }
        } else {
            for (kk, row) in rows {
                for (col, slot) in row.iter_mut().enumerate() {
                    *slot = if col < jn {
                        b[(k0 + kk) * brs + (j0 + col) * bcs]
                    } else {
                        E::ZERO
                    };
                }
            }
        }
    }
}

/// Computes columns `[j0, j1)` of `C (m × n) {=, +=} op(A) · op(B)`
/// sequentially, `C[i, j]` living at `c[i * ldc + j]` and `op(B)` panels
/// coming from `src`. With `bias`, the last k-block writes
/// `bias[i] + (C[i, j] + partial)` — the same bits as adding the bias to
/// the finished product in a second pass.
///
/// # Safety
/// `c` must be valid for `(m - 1) * ldc + n` elements and no other thread
/// may touch columns `[j0, j1)` concurrently.
#[allow(clippy::too_many_arguments)]
unsafe fn compute_cols<E: GemmElement, S: PanelSource<E> + ?Sized>(
    pa: &PackedA<E>,
    src: &S,
    c: *mut E,
    ldc: usize,
    j0: usize,
    j1: usize,
    accumulate: bool,
    bias: Option<&[E]>,
    bpack: &mut Vec<E>,
) {
    let (mr_t, nr_t, kc_t) = (E::MR, E::NR, E::KC);
    let kblocks = pa.k.div_ceil(kc_t);
    // One B micro-panel at a time: filled, then consumed by every A panel
    // while it is still L1-resident.
    bpack.resize(kc_t * nr_t, E::ZERO);
    let mut acc = vec![E::ZERO; mr_t * nr_t];
    for kb in 0..kblocks {
        let k0 = kb * kc_t;
        let kc_len = kc_t.min(pa.k - k0);
        let first = kb == 0 && !accumulate;
        let last_bias = if kb + 1 == kblocks { bias } else { None };
        for jbase in (j0..j1).step_by(nr_t) {
            let nvalid = nr_t.min(j1 - jbase);
            let bpanel = &mut bpack[..kc_len * nr_t];
            src.fill(k0, kc_len, jbase, nvalid, bpanel);
            for mp in 0..pa.mpanels {
                let i0 = mp * mr_t;
                let mvalid = mr_t.min(pa.m - i0);
                E::microkernel(kc_len, pa.panel(kb, mp, kc_len), bpanel, &mut acc);
                for mr in 0..mvalid {
                    let row =
                        std::slice::from_raw_parts_mut(c.add((i0 + mr) * ldc + jbase), nvalid);
                    let part = &acc[mr * nr_t..mr * nr_t + nvalid];
                    match (first, last_bias) {
                        (true, None) => row.copy_from_slice(part),
                        (true, Some(b)) => {
                            let b = b[i0 + mr];
                            for (d, &v) in row.iter_mut().zip(part) {
                                *d = b + v;
                            }
                        }
                        (false, None) => {
                            for (d, &v) in row.iter_mut().zip(part) {
                                *d += v;
                            }
                        }
                        (false, Some(b)) => {
                            let b = b[i0 + mr];
                            for (d, &v) in row.iter_mut().zip(part) {
                                *d = b + (*d + v);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `C (m × n) {=, +=} op(A) · op(B)` with `op(A)` already packed.
///
/// This is the batch-loop entry point: pack the (shared) weight matrix once
/// with [`pack_a`], then call this per sample. Column slabs of `E::NC`
/// columns run as parallel jobs; output is bitwise deterministic for any
/// thread count.
pub fn gemm_prepacked<E: GemmElement>(
    pa: &PackedA<E>,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    n: usize,
    accumulate: bool,
) {
    let k = pa.k;
    assert_eq!(b.len(), k * n, "B storage must hold k*n elements");
    assert_eq!(c.len(), pa.m * n, "C storage must hold m*n elements");
    let (brs, bcs) = op_strides(k, n, trans_b);
    let src = MatrixPanels {
        b,
        brs,
        bcs,
        koff: 0,
    };
    gemm_prepacked_with(pa, &src, n, c, n, accumulate, None);
}

/// `C (m × n) {=, +=} op(A) · op(B)` with `op(A)` already packed and the
/// `op(B)` panels filled by `src` — the implicit-GEMM entry point.
///
/// `C[i, j]` lives at `c[i * ldc + j]` (`ldc ≥ n`), so the product can land
/// directly in a column window of a wider matrix. With `bias`, every row
/// `i` finishes as `bias[i] + C[i, j]`, added after the whole sum (the
/// same bits as a separate pass). Column slabs of `E::NC` columns run as
/// parallel jobs; output is bitwise deterministic for any thread count and
/// identical to [`gemm_prepacked`] on a matrix holding the same panels.
pub fn gemm_prepacked_with<E: GemmElement, S: PanelSource<E> + ?Sized>(
    pa: &PackedA<E>,
    src: &S,
    n: usize,
    c: &mut [E],
    ldc: usize,
    accumulate: bool,
    bias: Option<&[E]>,
) {
    let (m, k) = (pa.m, pa.k);
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldc >= n, "C row stride must cover n columns");
    assert!(
        c.len() >= (m - 1) * ldc + n,
        "C storage must hold m rows of stride ldc"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "one bias per row of C");
    }
    if k == 0 {
        for (i, row) in c.chunks_mut(ldc).take(m).enumerate() {
            let row = &mut row[..n];
            if !accumulate {
                row.fill(E::ZERO);
            }
            if let Some(b) = bias {
                for d in row {
                    *d = b[i] + *d;
                }
            }
        }
        return;
    }
    let jobs = n.div_ceil(E::NC);
    let cptr = SendPtr(c.as_mut_ptr());
    par_jobs_with(jobs, m * k, Vec::<E>::new, |bpack, job| {
        let j0 = job * E::NC;
        let j1 = (j0 + E::NC).min(n);
        // SAFETY: job `job` exclusively owns columns [j0, j1) of C, and C
        // holds m rows of stride ldc (asserted above).
        unsafe {
            compute_cols(pa, src, cptr.get(), ldc, j0, j1, accumulate, bias, bpack);
        }
    });
}

/// `C (m × n) {=, +=} op(A) · op(B)`, all operands row-major slices of one
/// element type.
///
/// `trans_a` / `trans_b` mean the slice stores the transpose of the operand
/// (so `a` is `k × m`, resp. `b` is `n × k`); the transposition is absorbed
/// while packing. `accumulate = false` overwrites `C`, `true` adds into it.
///
/// Shape-adaptive dispatch: the wide/batched shapes of conv forward and
/// data-gradient passes run the packed column-slab path; the conv
/// weight-gradient shape (`k` huge, `m·n` small) runs a split-k path whose
/// partial products are reduced in chunk order — both bitwise deterministic
/// across runs and thread counts.
#[allow(clippy::too_many_arguments)]
pub fn gemm<E: GemmElement>(
    m: usize,
    n: usize,
    k: usize,
    a: &[E],
    trans_a: bool,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    accumulate: bool,
) {
    gemm_opts(
        m,
        n,
        k,
        a,
        trans_a,
        b,
        trans_b,
        c,
        accumulate,
        SplitKAcc::Native,
    );
}

/// [`gemm`] with an explicit split-k accumulation policy (the `f64`-
/// accumulate knob for `f32` weight-gradient GEMMs).
#[allow(clippy::too_many_arguments)]
pub fn gemm_opts<E: GemmElement>(
    m: usize,
    n: usize,
    k: usize,
    a: &[E],
    trans_a: bool,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    accumulate: bool,
    split_k_acc: SplitKAcc,
) {
    assert_eq!(a.len(), m * k, "A storage must hold m*k elements");
    assert_eq!(b.len(), k * n, "B storage must hold k*n elements");
    assert_eq!(c.len(), m * n, "C storage must hold m*n elements");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(E::ZERO);
        }
        return;
    }
    let chunks = k
        .div_ceil(KSPLIT_LEN)
        .min(KSPLIT_MAX_SCRATCH / (m * n).max(1));
    if chunks >= 2 && m * n <= KSPLIT_MAX_MN {
        gemm_split_k(
            m,
            n,
            k,
            a,
            trans_a,
            b,
            trans_b,
            c,
            accumulate,
            chunks,
            split_k_acc,
        );
    } else {
        let pa = pack_a(a, m, k, trans_a);
        gemm_prepacked(&pa, b, trans_b, c, n, accumulate);
    }
}

/// Split-k evaluation: `chunks` partial `m × n` products computed in
/// parallel, then reduced **in chunk order** into `C`.
#[allow(clippy::too_many_arguments)]
fn gemm_split_k<E: GemmElement>(
    m: usize,
    n: usize,
    k: usize,
    a: &[E],
    trans_a: bool,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    accumulate: bool,
    chunks: usize,
    split_k_acc: SplitKAcc,
) {
    let (ars, acs) = op_strides(m, k, trans_a);
    let (brs, bcs) = op_strides(k, n, trans_b);
    let chunk_len = k.div_ceil(chunks);
    let mn = m * n;
    let mut partials = vec![E::ZERO; chunks * mn];
    let pptr = SendPtr(partials.as_mut_ptr());
    par_jobs_with(chunks, mn * chunk_len, Vec::<E>::new, |bpack, s| {
        let k0 = s * chunk_len;
        let k1 = (k0 + chunk_len).min(k);
        let pa = pack_a_range(a, m, ars, acs, k0, k1);
        // SAFETY: chunk `s` exclusively owns partials[s*mn .. (s+1)*mn].
        let src = MatrixPanels {
            b,
            brs,
            bcs,
            koff: k0,
        };
        unsafe {
            compute_cols(
                &pa,
                &src,
                pptr.get().add(s * mn),
                n,
                0,
                n,
                false,
                None,
                bpack,
            );
        }
    });
    if split_k_acc == SplitKAcc::Wide && E::NAME != "f64" {
        // Widened reduction: chunk order preserved, one rounding at the end.
        let mut wide: Vec<f64> = if accumulate {
            c.iter().map(|x| x.to_f64()).collect()
        } else {
            vec![0.0; mn]
        };
        for s in 0..chunks {
            let part = &partials[s * mn..(s + 1) * mn];
            for (dst, &src) in wide.iter_mut().zip(part) {
                *dst += src.to_f64();
            }
        }
        for (dst, &src) in c.iter_mut().zip(&wide) {
            *dst = E::from_f64(src);
        }
        return;
    }
    if !accumulate {
        c.fill(E::ZERO);
    }
    for s in 0..chunks {
        let part = &partials[s * mn..(s + 1) * mn];
        for (dst, &src) in c.iter_mut().zip(part) {
            *dst += src;
        }
    }
}

/// Packs columns `[k0, k1)` of `op(A)` given explicit element strides.
fn pack_a_range<E: GemmElement>(
    a: &[E],
    m: usize,
    ars: usize,
    acs: usize,
    k0: usize,
    k1: usize,
) -> PackedA<E> {
    let (mr_t, kc_t) = (E::MR, E::KC);
    let k = k1 - k0;
    let mpanels = m.div_ceil(mr_t).max(1);
    let kblocks = k.div_ceil(kc_t);
    let mut data = vec![E::ZERO; kblocks.max(1) * mpanels * kc_t * mr_t];
    for kb in 0..kblocks {
        let kc0 = kb * kc_t;
        let kc_len = kc_t.min(k - kc0);
        let block_base = kb * mpanels * kc_t * mr_t;
        let mut out = block_base;
        for mp in 0..mpanels {
            let i0 = mp * mr_t;
            for kk in 0..kc_len {
                let l = k0 + kc0 + kk;
                for mr in 0..mr_t {
                    let i = i0 + mr;
                    data[out] = if i < m { a[i * ars + l * acs] } else { E::ZERO };
                    out += 1;
                }
            }
        }
    }
    PackedA {
        m,
        k,
        mpanels,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive<E: GemmElement>(
        m: usize,
        n: usize,
        k: usize,
        a: &[E],
        trans_a: bool,
        b: &[E],
        trans_b: bool,
    ) -> Vec<E> {
        let (ars, acs) = op_strides(m, k, trans_a);
        let (brs, bcs) = op_strides(k, n, trans_b);
        let mut c = vec![E::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = E::ZERO;
                for l in 0..k {
                    s += a[i * ars + l * acs] * b[l * brs + j * bcs];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn rand_vec<E: GemmElement>(len: usize, rng: &mut StdRng) -> Vec<E> {
        (0..len)
            .map(|_| E::from_f64(rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn check_case<E: GemmElement>(
        m: usize,
        n: usize,
        k: usize,
        trans_a: bool,
        trans_b: bool,
        seed: u64,
        tol: f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<E> = rand_vec(m * k, &mut rng);
        let b: Vec<E> = rand_vec(k * n, &mut rng);
        let want = naive(m, n, k, &a, trans_a, &b, trans_b);
        let mut c = vec![E::ZERO; m * n];
        gemm(m, n, k, &a, trans_a, &b, trans_b, &mut c, false);
        for i in 0..m * n {
            let (ci, wi) = (c[i].to_f64(), want[i].to_f64());
            assert!(
                (ci - wi).abs() <= tol * wi.abs().max(1.0),
                "{} ({m}x{n}x{k}, ta={trans_a}, tb={trans_b})[{i}]: {ci} vs {wi}",
                E::NAME
            );
        }
    }

    #[test]
    fn matches_naive_across_shapes() {
        // Exercises full tiles, ragged edges in every dimension, tiny and
        // micro-kernel-sized operands — for both element types (the f32
        // tile is wider, so its edge cases sit at different shapes).
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, KC),
            (MR + 1, NR + 3, KC + 5),
            (6, 32 + 5, KC + 5), // ragged edge of the f32 tile
            (3, 7, 2),
            (8, 600, 40),  // crosses an NC slab boundary for both tiles
            (17, 23, 300), // crosses a KC block boundary
            (2, 2, 513),
        ] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let seed = (m * 31 + n * 7 + k) as u64;
                check_case::<f64>(m, n, k, ta, tb, seed, 1e-11);
                check_case::<f32>(m, n, k, ta, tb, seed, 1e-4);
            }
        }
    }

    #[test]
    fn row_and_column_edges_of_every_tile() {
        // Row counts around both tile heights (6 and 8) and the U-Net's
        // channel counts; column counts one below, at and one above
        // multiples of each element's NR.
        fn check<E: GemmElement>(tol: f64) {
            let nr = E::NR;
            for &m in &[1, 7, 8, 9, 16, 17, 33] {
                for &n in &[nr - 1, nr, nr + 1, 2 * nr - 1, 2 * nr + 1, 3 * nr] {
                    let seed = (m * 131 + n) as u64;
                    check_case::<E>(m, n, 37, false, false, seed, tol);
                    check_case::<E>(m, n, KC + 3, true, false, seed, tol);
                }
            }
        }
        check::<f64>(1e-11);
        check::<f32>(1e-4);
    }

    /// A panel source that serves a stored matrix through the filler
    /// interface, element by element.
    struct Cells<'a, E>(&'a [E], usize);

    impl<E: GemmElement> PanelSource<E> for Cells<'_, E> {
        fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, panel: &mut [E]) {
            let (b, n, nr) = (self.0, self.1, E::NR);
            for kk in 0..kc_len {
                for col in 0..nr {
                    panel[kk * nr + col] = if col < jn {
                        b[(k0 + kk) * n + j0 + col]
                    } else {
                        E::ZERO
                    };
                }
            }
        }
    }

    #[test]
    fn panel_source_with_stride_and_bias_matches_prepacked() {
        fn check<E: GemmElement>() {
            let mut rng = StdRng::seed_from_u64(17);
            for &(m, n, k) in &[
                (8, 300, 27),
                (9, 45, 300),
                (1, 5, 3),
                (16, 3 * E::NC + 7, 40),
            ] {
                let a: Vec<E> = rand_vec(m * k, &mut rng);
                let b: Vec<E> = rand_vec(k * n, &mut rng);
                let bias: Vec<E> = rand_vec(m, &mut rng);
                let pa = pack_a(&a, m, k, false);
                let mut want = vec![E::ZERO; m * n];
                gemm_prepacked(&pa, &b, false, &mut want, n, false);
                let ldc = n + 5;
                let mut got = vec![E::ONE; m * ldc];
                gemm_prepacked_with(&pa, &Cells(&b, n), n, &mut got, ldc, false, Some(&bias));
                for i in 0..m {
                    for j in 0..ldc {
                        let want = if j < n {
                            bias[i] + want[i * n + j]
                        } else {
                            E::ONE
                        };
                        assert_eq!(
                            got[i * ldc + j].bits(),
                            want.bits(),
                            "{} {m}x{n}x{k} [{i}, {j}]",
                            E::NAME
                        );
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn split_k_path_matches_naive() {
        // k large enough for >= 2 chunks, m*n small: hits gemm_split_k.
        check_case::<f64>(3, 5, 2 * KSPLIT_LEN + 17, false, true, 99, 1e-11);
        check_case::<f32>(3, 5, 2 * KSPLIT_LEN + 17, false, true, 99, 1e-3);
    }

    #[test]
    fn split_k_wide_accumulate_is_at_least_as_accurate() {
        let (m, n, k) = (2, 3, 2 * KSPLIT_LEN + 5);
        let mut rng = StdRng::seed_from_u64(41);
        let a: Vec<f32> = rand_vec(m * k, &mut rng);
        let b: Vec<f32> = rand_vec(k * n, &mut rng);
        let a64: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
        let b64: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
        let want = naive(m, n, k, &a64, false, &b64, false);
        let mut native = vec![0.0f32; m * n];
        let mut wide = vec![0.0f32; m * n];
        gemm_opts(
            m,
            n,
            k,
            &a,
            false,
            &b,
            false,
            &mut native,
            false,
            SplitKAcc::Native,
        );
        gemm_opts(
            m,
            n,
            k,
            &a,
            false,
            &b,
            false,
            &mut wide,
            false,
            SplitKAcc::Wide,
        );
        let err = |c: &[f32]| -> f64 {
            c.iter()
                .zip(&want)
                .map(|(&x, &w)| (f64::from(x) - w).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&wide) <= err(&native) + 1e-12);
        assert!(err(&wide) < 1e-3);
    }

    #[test]
    fn accumulate_adds_into_c() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m, n, k) = (5, 9, 11);
        let a: Vec<f64> = rand_vec(m * k, &mut rng);
        let b: Vec<f64> = rand_vec(k * n, &mut rng);
        let base: Vec<f64> = rand_vec(m * n, &mut rng);
        let mut c = base.clone();
        gemm(m, n, k, &a, false, &b, false, &mut c, true);
        let prod = naive(m, n, k, &a, false, &b, false);
        for i in 0..m * n {
            assert!((c[i] - (base[i] + prod[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn prepacked_matches_gemm_and_reuses_across_calls() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, n, k) = (6, 40, 30);
        let a: Vec<f64> = rand_vec(m * k, &mut rng);
        let pa = pack_a(&a, m, k, false);
        assert_eq!((pa.m(), pa.k()), (m, k));
        for trial in 0..3 {
            let b: Vec<f64> = rand_vec(k * n, &mut rng);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_prepacked(&pa, &b, false, &mut c1, n, false);
            gemm(m, n, k, &a, false, &b, false, &mut c2, false);
            assert_eq!(c1, c2, "trial {trial}");
        }
    }

    #[test]
    fn zero_k_zeroes_or_preserves_c() {
        let mut c = vec![3.0f64; 4];
        gemm(2, 2, 0, &[], false, &[], false, &mut c, true);
        assert_eq!(c, vec![3.0; 4]);
        gemm(2, 2, 0, &[], false, &[], false, &mut c, false);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn bitwise_deterministic_across_runs() {
        fn check<E: GemmElement>() {
            let mut rng = StdRng::seed_from_u64(13);
            let (m, n, k) = (8, 1024, 216);
            let a: Vec<E> = rand_vec(m * k, &mut rng);
            let b: Vec<E> = rand_vec(k * n, &mut rng);
            let mut c1 = vec![E::ZERO; m * n];
            let mut c2 = vec![E::ZERO; m * n];
            gemm(m, n, k, &a, false, &b, false, &mut c1, false);
            gemm(m, n, k, &a, false, &b, false, &mut c2, false);
            assert!(
                c1.iter().zip(&c2).all(|(x, y)| x.bits() == y.bits()),
                "{} gemm not reproducible",
                E::NAME
            );
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn f32_split_k_bitwise_deterministic() {
        let (m, n, k) = (3, 4, 2 * KSPLIT_LEN + 7);
        let mut rng = StdRng::seed_from_u64(29);
        let a: Vec<f32> = rand_vec(m * k, &mut rng);
        let b: Vec<f32> = rand_vec(k * n, &mut rng);
        for acc in [SplitKAcc::Native, SplitKAcc::Wide] {
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            gemm_opts(m, n, k, &a, false, &b, false, &mut c1, false, acc);
            gemm_opts(m, n, k, &a, false, &b, false, &mut c2, false, acc);
            assert!(c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;

    fn probe<E: GemmElement>(m: usize, n: usize, k: usize) {
        let a = vec![E::ONE; m * k];
        let b = vec![E::ONE; k * n];
        let mut c = vec![E::ZERO; m * n];
        let t = std::time::Instant::now();
        gemm(m, n, k, &a, false, &b, false, &mut c, false);
        let dt = t.elapsed().as_secs_f64();
        let gflops = 2.0 * (m * n * k) as f64 / dt / 1e9;
        eprintln!(
            "gemm[{}] {m}x{n}x{k}: {dt:.3}s  {gflops:.2} GFLOP/s",
            E::NAME
        );
    }

    #[test]
    #[ignore]
    fn throughput_probe() {
        let (m, n, k) = (16, 262144, 432);
        probe::<f64>(m, n, k);
        probe::<f32>(m, n, k);
    }
}
