//! Assembled nodal stencils: the solver-side stiffness operator.
//!
//! On a structured multilinear grid every row of `K` couples node `i` to
//! at most its `3^D` neighbours, so `K` is a per-node `3^D` stencil. The
//! solvers ([`crate::system::FemSystem`] and through it every multigrid
//! level, PCG apply, residual and certificate) apply `K` thousands of times
//! for one fixed coefficient field, so [`Stencil`] assembles it **once**
//! and turns every later apply into a pure row gather: no quadrature, no
//! element colouring, no scatter.
//!
//! Only the symmetric half is stored — the centre plus the forward offsets
//! (first non-zero step, slowest axis first, is `+1`): 14 entries per node
//! in 3D, 5 in 2D. The backward entries are read from the neighbour's row,
//! `K[i][i−o] = S[i−o][o]`, so the applied matrix is exactly symmetric.
//! Entries whose neighbour falls outside the grid are zero.
//!
//! Assembly uses the [`ElementBasis`] quadrature tables. The element
//! matrix is linear in the nodal coefficients,
//! `K_e = Σ_c Σ_l' coeff_c[l'] · A[c][l']`, so the reference tables
//! `A[c][l']` are integrated once per grid spacing and each element entry
//! is one short dot product with the gathered coefficients. That covers
//! both [`PdeOperator::Poisson`] (one component) and
//! [`PdeOperator::AnisoDiffusion`] (one component per tensor entry).
//!
//! The matrix-free kernels of [`crate::operator`] / [`crate::pde`] remain
//! the oracle the stencil is tested against, and the operator the training
//! loss and `dist_fem` use (they see a new ν on almost every call, so
//! assembling would not pay off there).

use crate::basis::ElementBasis;
use crate::color::{for_each_element_colored, SyncSlice};
use crate::grid::Grid;
use crate::operator::MAX_NL;
use crate::pde::{sym_index, PdeOperator};
use mgd_tensor::{Element, PAR_THRESHOLD};
use rayon::prelude::*;

/// The symmetric half of an assembled per-node `3^D` stencil.
///
/// `coef[k * nn + i]` is `K[i][i + steps[k]]`; `steps[0]` is the centre.
/// Generic over the storage element so the mixed-precision V-cycle can
/// round a level's stencil to `f32` once and share the same gather kernel.
#[derive(Clone, Debug)]
pub struct Stencil<const D: usize, E: Element = f64> {
    grid: Grid<D>,
    /// Per-axis step of each stored entry, slowest axis first.
    steps: Vec<[isize; D]>,
    coef: Vec<E>,
}

/// Per-axis steps of the centre followed by the forward half offsets.
fn half_steps<const D: usize>() -> Vec<[isize; D]> {
    let full = 3usize.pow(D as u32);
    // Base-3 codes in lexicographic order; the centre sits in the middle
    // and the forward offsets are exactly the codes above it.
    (full / 2..full)
        .map(|code| {
            let mut s = [0isize; D];
            let mut rem = code;
            for d in (0..D).rev() {
                s[d] = (rem % 3) as isize - 1;
                rem /= 3;
            }
            s
        })
        .collect()
}

/// Index into [`half_steps`] of step `s` (or of `−s` when `s` points
/// backward), and whether `s` was flipped.
fn half_slot<const D: usize>(s: [isize; D]) -> (usize, bool) {
    let centre = 3usize.pow(D as u32) / 2;
    let code = s.iter().fold(0usize, |acc, &v| acc * 3 + (v + 1) as usize);
    if code >= centre {
        (code - centre, false)
    } else {
        (centre - code, true)
    }
}

/// The upper triangle `a ≤ b` of the reference element matrices: where
/// each entry lands in the stencil, and its tables `A[c][l']`.
struct PairTables {
    /// `(slot, local node whose row stores the entry)` per pair.
    dest: Vec<(usize, usize)>,
    /// `table[j * npairs + p]` is `A[c][l'][a][b]` of pair `p` for the
    /// coefficient index `j = c · nl + l'` (pair-fastest, so one element's
    /// entries accumulate as a vector update per gathered coefficient).
    table: Vec<f64>,
}

/// Integrates `A[c][l'][a][b] = Σ_q w·detJ · val[q][l'] · G_c(∇φ_a, ∇φ_b)`
/// for every pair `a ≤ b`, where `G_c` is the bilinear form of coefficient
/// component `c` (`∇φ_a·∇φ_b` for Poisson; `∂_α φ_a ∂_β φ_b` plus its
/// transpose for tensor component `(α, β)`).
fn pair_tables<const D: usize>(basis: &ElementBasis<D>, op: PdeOperator) -> PairTables {
    let (nl, nq) = (basis.nl, basis.nq);
    let nc = op.ncomp(D);
    // Component index → the (α, β) tensor entries it weights.
    let mut comps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nc];
    match op {
        PdeOperator::Poisson => comps[0] = (0..D).map(|a| (a, a)).collect(),
        PdeOperator::AnisoDiffusion => {
            for a in 0..D {
                for b in 0..D {
                    comps[sym_index(D, a, b)].push((a, b));
                }
            }
        }
    }
    let pos = |l: usize, d: usize| ((l >> (D - 1 - d)) & 1) as isize;
    let grad = |q: usize, l: usize| &basis.grad[(q * nl + l) * D..(q * nl + l + 1) * D];
    let np = nl * (nl + 1) / 2;
    let mut dest = Vec::with_capacity(np);
    let mut table = vec![0.0; nc * nl * np];
    for a in 0..nl {
        for b in a..nl {
            let p = dest.len();
            let mut step = [0isize; D];
            for (d, s) in step.iter_mut().enumerate() {
                *s = pos(b, d) - pos(a, d);
            }
            let (slot, flipped) = half_slot(step);
            dest.push((slot, if flipped { b } else { a }));
            for q in 0..nq {
                let (ga, gb) = (grad(q, a), grad(q, b));
                for (c, entries) in comps.iter().enumerate() {
                    let g: f64 = entries.iter().map(|&(x, y)| ga[x] * gb[y]).sum();
                    for l in 0..nl {
                        table[(c * nl + l) * np + p] += basis.w_detj * basis.val[q * nl + l] * g;
                    }
                }
            }
        }
    }
    PairTables { dest, table }
}

/// Upper-triangle entries of one element matrix (36 for D = 3).
const MAX_PAIRS: usize = MAX_NL * (MAX_NL + 1) / 2;

impl<const D: usize> Stencil<D, f64> {
    /// Assembles the stencil of `op` with coefficient block `coeff`
    /// (component-major, already validated) on `grid`.
    pub fn assemble(
        grid: &Grid<D>,
        basis: &ElementBasis<D>,
        op: PdeOperator,
        coeff: &[f64],
    ) -> Self {
        let nn = grid.num_nodes();
        let nl = basis.nl;
        let nc = op.ncomp(D);
        debug_assert_eq!(coeff.len(), nc * nn);
        let steps = half_steps::<D>();
        let PairTables { dest, table } = pair_tables(basis, op);
        let np = dest.len();
        let mut coef = vec![0.0; steps.len() * nn];
        let strides = grid.strides();
        let sync = SyncSlice::new(&mut coef);
        for_each_element_colored(grid, np * nc * nl, |e| {
            let base = grid.element_base(grid.element_multi(e));
            let mut local = [0usize; MAX_NL];
            for (l, g) in local.iter_mut().enumerate().take(nl) {
                *g = base + grid.local_offset(&strides, l);
            }
            let mut acc = [0.0; MAX_PAIRS];
            let acc = &mut acc[..np];
            for c in 0..nc {
                for l in 0..nl {
                    let v = coeff[c * nn + local[l]];
                    let t = &table[(c * nl + l) * np..(c * nl + l + 1) * np];
                    for (a, &tp) in acc.iter_mut().zip(t) {
                        *a += tp * v;
                    }
                }
            }
            for (&(slot, row), &v) in dest.iter().zip(acc.iter()) {
                // SAFETY: rows written are nodes of this element, and
                // same-colour elements share no nodes.
                unsafe { sync.add(slot * nn + local[row], v) };
            }
        });
        Stencil {
            grid: *grid,
            steps,
            coef,
        }
    }

    /// Rounds every entry to `F` once (the mixed-precision V-cycle's copy).
    pub fn to_element<F: Element>(&self) -> Stencil<D, F> {
        Stencil {
            grid: self.grid,
            steps: self.steps.clone(),
            coef: self.coef.iter().map(|&v| F::from_f64(v)).collect(),
        }
    }
}

impl<const D: usize, E: Element> Stencil<D, E> {
    /// The diagonal of `K` (the stencil centre).
    pub fn diag(&self) -> &[E] {
        &self.coef[..self.grid.num_nodes()]
    }

    /// `out = K u` (overwrites `out`; rows of fixed nodes included).
    ///
    /// Each grid line along `x` is computed independently from the centre
    /// plus every stored offset read forward from its own row and backward
    /// from the neighbour's row, in a fixed order — so the result does not
    /// depend on how lines are spread over threads.
    pub fn apply(&self, u: &[E], out: &mut [E]) {
        let nn = self.grid.num_nodes();
        assert_eq!(u.len(), nn, "u length");
        assert_eq!(out.len(), nn, "out length");
        let nx = self.grid.n[D - 1];
        let line = |(li, o): (usize, &mut [E])| self.apply_line(li, u, o);
        if nn * (2 * self.steps.len() - 1) >= PAR_THRESHOLD {
            let lines: Vec<(usize, &mut [E])> = out.chunks_mut(nx).enumerate().collect();
            lines.into_par_iter().for_each(line);
        } else {
            out.chunks_mut(nx).enumerate().for_each(line);
        }
    }

    /// Row gather for the `x` line `li` (lines are numbered row-major over
    /// the slower axes).
    fn apply_line(&self, li: usize, u: &[E], o: &mut [E]) {
        let n = self.grid.n;
        let nn = self.grid.num_nodes();
        let nx = n[D - 1];
        // Multi-index of the line over the slower axes, and line strides.
        let mut m = [0usize; D];
        let mut lstride = [0usize; D];
        let mut rem = li;
        let mut s = 1;
        for d in (0..D - 1).rev() {
            m[d] = rem % n[d];
            rem /= n[d];
            lstride[d] = s;
            s *= n[d];
        }
        // The line `sign` steps away along the slower axes, if inside.
        let neighbour = |step: &[isize; D], sign: isize| -> Option<usize> {
            let mut l = li as isize;
            for d in 0..D - 1 {
                let md = m[d] as isize + sign * step[d];
                if md < 0 || md >= n[d] as isize {
                    return None;
                }
                l += sign * step[d] * lstride[d] as isize;
            }
            Some(l as usize)
        };
        let b = li * nx;
        for ((oi, &si), &ui) in o.iter_mut().zip(&self.coef[b..b + nx]).zip(&u[b..b + nx]) {
            *oi = si * ui;
        }
        for (k, step) in self.steps.iter().enumerate().skip(1) {
            let sk = &self.coef[k * nn..(k + 1) * nn];
            let dx = step[D - 1];
            let (fwd, bwd) = (dx.max(0) as usize, (-dx).max(0) as usize);
            // Forward: K[i][i+s] = S[i][s], for x with 0 ≤ x + dx < nx;
            // the neighbour of x = lo sits at x + dx = fwd.
            if let Some(nb) = neighbour(step, 1) {
                let (lo, hi, v0) = (bwd, nx - fwd, nb * nx + fwd);
                axpy(&mut o[lo..hi], &sk[b + lo..b + hi], &u[v0..v0 + hi - lo]);
            }
            // Backward: K[i][i−s] = S[i−s][s], for x with 0 ≤ x − dx < nx;
            // the neighbour of x = lo sits at x − dx = bwd.
            if let Some(nb) = neighbour(step, -1) {
                let (lo, hi, v0) = (fwd, nx - bwd, nb * nx + bwd);
                let v = v0..v0 + hi - lo;
                axpy(&mut o[lo..hi], &sk[v.clone()], &u[v]);
            }
        }
    }
}

/// `o[x] += s[x] · v[x]`.
#[inline]
fn axpy<E: Element>(o: &mut [E], s: &[E], v: &[E]) {
    for ((oi, &si), &vi) in o.iter_mut().zip(s).zip(v) {
        *oi += si * vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_offsets_cover_the_stencil_once() {
        let h3 = half_steps::<3>();
        assert_eq!(h3.len(), 14);
        assert_eq!(h3[0], [0, 0, 0]);
        for s in &h3[1..] {
            let first = s.iter().find(|&&v| v != 0).copied();
            assert_eq!(first, Some(1), "{s:?} is not forward");
            let neg = [-s[0], -s[1], -s[2]];
            assert!(!h3.contains(&neg));
        }
        assert_eq!(half_steps::<2>().len(), 5);
        assert_eq!(half_slot([0isize, -1, 1]).0, half_slot([0isize, 1, -1]).0);
        assert!(half_slot([0isize, -1, 1]).1 && !half_slot([0isize, 1, -1]).1);
    }
}
