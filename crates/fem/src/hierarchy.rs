//! General multigrid hierarchy with interpolation transfers.
//!
//! [`crate::gmg::GmgSolver`] requires `2^j + 1` nodes per axis so that
//! coarse vertices coincide with fine vertices. The network-facing grids
//! of this project have `2^k` nodes per axis — never vertex-nested — so
//! this module builds a hierarchy with *physical-coordinate* multilinear
//! transfers instead: each level coarsens `n → (n+1)/2` nodes per axis
//! (`64 → 32 → 16 → 8`, or `33 → 17 → 9 → 5` in the nested case, where
//! the general transfer reduces exactly to the classical
//! `[1/2, 1, 1/2]` stencil), prolongation interpolates coarse nodal
//! values at fine node coordinates, and restriction is its exact
//! transpose. Coarse operators are rediscretized from a sampled ν.
//!
//! Because restriction is exactly `Pᵀ` and pre/post smoothing use the
//! same damped-Jacobi sweep counts, one V-cycle is a symmetric positive
//! definite operation — usable directly as a CG preconditioner
//! ([`Precond`] impl), which is how the hybrid solver consumes it: the
//! outer CG tracks the true residual, so certification never depends on
//! the (non-nested, approximate) coarse corrections being accurate.

use crate::bc::Dirichlet;
use crate::cg::CgOptions;
use crate::error::FemError;
use crate::grid::Grid;
use crate::pcg::{JacobiPrecond, PcgStep, PcgWorkspace, Precond};
use crate::pde::PdeOperator;
use crate::system::PoissonSystem;

/// Hierarchy construction and V-cycle options.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyOptions {
    /// Stop coarsening once any axis has at most this many nodes.
    pub coarse_n: usize,
    /// Pre-smoothing sweeps per level. Keep equal to `post_smooth` so the
    /// V-cycle stays symmetric (CG-preconditioner requirement).
    pub pre_smooth: usize,
    /// Post-smoothing sweeps per level.
    pub post_smooth: usize,
    /// Damped-Jacobi relaxation factor.
    pub omega: f64,
    /// Relative tolerance of the coarsest-level CG solve.
    pub coarse_tol: f64,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            coarse_n: 5,
            pre_smooth: 2,
            post_smooth: 2,
            omega: 0.7,
            coarse_tol: 1e-12,
            max_levels: 32,
        }
    }
}

/// Per-node 1D interpolation: `(j, w0, w1)` means the target node takes
/// `w0 · source[j] + w1 · source[j+1]` along this axis.
pub(crate) type AxisTable = Vec<(usize, f64, f64)>;

/// Weights for interpolating an `n_source`-node axis at the node
/// coordinates of an `n_target`-node axis (both spanning the same span).
fn sample_axis(n_target: usize, n_source: usize) -> AxisTable {
    debug_assert!(n_target >= 2 && n_source >= 2);
    (0..n_target)
        .map(|i| {
            let s = i as f64 * (n_source - 1) as f64 / (n_target - 1) as f64;
            let j = (s.floor() as usize).min(n_source - 2);
            let t = (s - j as f64).clamp(0.0, 1.0);
            (j, 1.0 - t, t)
        })
        .collect()
}

/// A multigrid hierarchy over arbitrary (≥ 2 nodes per axis) grids.
/// Level 0 is the finest.
pub struct GridHierarchy<const D: usize> {
    pub(crate) levels: Vec<PoissonSystem<D>>,
    /// `c2f[l][d]` interpolates level `l+1` (coarse) values at the node
    /// coordinates of level `l` (fine) along axis `d`.
    pub(crate) c2f: Vec<Vec<AxisTable>>,
    /// `f2c[l][d]` samples level `l` (fine) values at the node
    /// coordinates of level `l+1` (coarse) along axis `d`.
    f2c: Vec<Vec<AxisTable>>,
    pub(crate) opts: HierarchyOptions,
}

impl<const D: usize> GridHierarchy<D> {
    /// Builds the hierarchy for `K(ν)` on `grid` with Dirichlet `bc`.
    ///
    /// Coarse-level ν is the multilinear sample of the fine ν; coarse
    /// masks fix a node iff its whole sampling support is fixed (exact
    /// for face-aligned Dirichlet sets, which endpoints always preserve).
    pub fn build(
        grid: Grid<D>,
        nu: &[f64],
        bc: &Dirichlet,
        opts: HierarchyOptions,
    ) -> Result<Self, FemError> {
        Self::build_with_operator(grid, PdeOperator::Poisson, nu, bc, opts)
    }

    /// [`build`](Self::build) for an arbitrary [`PdeOperator`]: coarse
    /// coefficient blocks are rediscretized by multilinearly sampling every
    /// component of the fine block. Per-node convex combinations of SPD
    /// tensors are SPD, so coarse anisotropic operators stay valid; at one
    /// component this reduces bitwise to the scalar path.
    pub fn build_with_operator(
        grid: Grid<D>,
        op: PdeOperator,
        nu: &[f64],
        bc: &Dirichlet,
        opts: HierarchyOptions,
    ) -> Result<Self, FemError> {
        if grid.n.iter().any(|&m| m < 2) {
            return Err(FemError::NotCoarsenable {
                n: grid.n.to_vec(),
                requirement: "every axis needs at least 2 nodes",
            });
        }
        let finest = PoissonSystem::with_operator(grid, op, nu.to_vec(), bc.clone())?;
        Self::from_finest(finest, opts)
    }

    /// Builds the coarse levels below an already assembled finest system
    /// (taken as level 0 as is, so its stencil is not assembled twice).
    pub fn from_finest(finest: PoissonSystem<D>, opts: HierarchyOptions) -> Result<Self, FemError> {
        let op = finest.op;
        let ncomp = op.ncomp(D);
        let mut levels = vec![finest];
        let mut c2f = Vec::new();
        let mut f2c = Vec::new();
        loop {
            let fine = levels.last().expect("finest level");
            let g = fine.grid;
            if levels.len() >= opts.max_levels || g.n.iter().any(|&m| m <= opts.coarse_n.max(2)) {
                break;
            }
            // Coarsen n -> (n+1)/2 per axis (n even halves; n odd nests).
            let mut cn = [0usize; D];
            for d in 0..D {
                cn[d] = g.n[d].div_ceil(2).max(2);
            }
            let cg: Grid<D> = Grid::new(cn);
            let down: Vec<AxisTable> = (0..D).map(|d| sample_axis(cn[d], g.n[d])).collect();
            let up: Vec<AxisTable> = (0..D).map(|d| sample_axis(g.n[d], cn[d])).collect();
            // Sample each coefficient component and the fixed mask onto the
            // coarse grid.
            let fnn = g.num_nodes();
            let cnn = cg.num_nodes();
            let mut cnu = vec![0.0; ncomp * cnn];
            let mut cfix = vec![false; cnn];
            for ci in 0..cnn {
                let cm = cg.node_multi(ci);
                let mut acc = [0.0; crate::pde::MAX_NCOMP];
                let mut all_fixed = true;
                for corner in 0..(1usize << D) {
                    let mut w = 1.0;
                    let mut fm = [0usize; D];
                    for d in 0..D {
                        let (j, w0, w1) = down[d][cm[d]];
                        let hi = (corner >> d) & 1;
                        w *= if hi == 1 { w1 } else { w0 };
                        fm[d] = j + hi;
                    }
                    if w <= 1e-12 {
                        continue;
                    }
                    let fi = g.node(fm);
                    for (c, a) in acc.iter_mut().enumerate().take(ncomp) {
                        *a += w * fine.nu[c * fnn + fi];
                    }
                    all_fixed &= fine.bc.fixed[fi];
                }
                for (c, a) in acc.iter().enumerate().take(ncomp) {
                    cnu[c * cnn + ci] = *a;
                }
                cfix[ci] = all_fixed;
            }
            let cbc = Dirichlet {
                values: vec![0.0; cnn],
                fixed: cfix,
            };
            levels.push(PoissonSystem::with_operator(cg, op, cnu, cbc)?);
            c2f.push(up);
            f2c.push(down);
        }
        Ok(GridHierarchy {
            levels,
            c2f,
            f2c,
            opts,
        })
    }

    /// Number of levels (≥ 1; level 0 is the finest).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The system at level `l`.
    pub fn level(&self, l: usize) -> &PoissonSystem<D> {
        &self.levels[l]
    }

    /// The finest-level system.
    pub fn finest(&self) -> &PoissonSystem<D> {
        &self.levels[0]
    }

    /// Nodes per axis at level `l`.
    pub fn dims_at(&self, l: usize) -> [usize; D] {
        self.levels[l].grid.n
    }

    /// ν at level `l` (sampled down from the finest field).
    pub fn nu_at(&self, l: usize) -> &[f64] {
        &self.levels[l].nu
    }

    /// Interpolates a level-`l+1` field at level-`l` node coordinates,
    /// zeroing fine fixed nodes (corrections stay interior).
    pub fn prolong(&self, l: usize, coarse: &[f64]) -> Vec<f64> {
        let out = self.interp(
            &self.c2f[l],
            &self.levels[l].grid,
            &self.levels[l + 1].grid,
            coarse,
        );
        let mut out = out;
        self.levels[l].mask(&mut out);
        out
    }

    /// Exact transpose of [`prolong`](Self::prolong): scatters a level-`l`
    /// residual to level `l+1`, zeroing coarse fixed nodes.
    pub fn restrict(&self, l: usize, fine: &[f64]) -> Vec<f64> {
        let fg = &self.levels[l].grid;
        let cg = &self.levels[l + 1].grid;
        let tables = &self.c2f[l];
        let mut out = vec![0.0; cg.num_nodes()];
        for fi in 0..fg.num_nodes() {
            let v = fine[fi];
            if v == 0.0 {
                continue;
            }
            let fm = fg.node_multi(fi);
            for corner in 0..(1usize << D) {
                let mut w = 1.0;
                let mut cm = [0usize; D];
                for d in 0..D {
                    let (j, w0, w1) = tables[d][fm[d]];
                    let hi = (corner >> d) & 1;
                    w *= if hi == 1 { w1 } else { w0 };
                    cm[d] = j + hi;
                }
                if w != 0.0 {
                    out[cg.node(cm)] += w * v;
                }
            }
        }
        self.levels[l + 1].mask(&mut out);
        out
    }

    /// Multilinear sample of a level-`l` field at level-`l+1` node
    /// coordinates — the right transfer for *solution-like* fields
    /// (iterates, ν), as opposed to the residual transpose-scatter.
    pub fn sample_down(&self, l: usize, fine: &[f64]) -> Vec<f64> {
        self.interp(
            &self.f2c[l],
            &self.levels[l + 1].grid,
            &self.levels[l].grid,
            fine,
        )
    }

    /// Chains [`sample_down`](Self::sample_down) from the finest level to
    /// level `l`.
    pub fn sample_to_level(&self, l: usize, finest: &[f64]) -> Vec<f64> {
        let mut v = finest.to_vec();
        for lev in 0..l {
            v = self.sample_down(lev, &v);
        }
        v
    }

    /// Chains [`prolong`](Self::prolong) from level `l` up to the finest.
    pub fn prolong_to_finest(&self, l: usize, field: &[f64]) -> Vec<f64> {
        let mut v = field.to_vec();
        for lev in (0..l).rev() {
            v = self.prolong(lev, &v);
        }
        v
    }

    fn interp(
        &self,
        tables: &[AxisTable],
        target: &Grid<D>,
        source: &Grid<D>,
        src: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; target.num_nodes()];
        for (ti, o) in out.iter_mut().enumerate() {
            let tm = target.node_multi(ti);
            let mut acc = 0.0;
            for corner in 0..(1usize << D) {
                let mut w = 1.0;
                let mut sm = [0usize; D];
                for d in 0..D {
                    let (j, w0, w1) = tables[d][tm[d]];
                    let hi = (corner >> d) & 1;
                    w *= if hi == 1 { w1 } else { w0 };
                    sm[d] = j + hi;
                }
                if w != 0.0 {
                    acc += w * src[source.node(sm)];
                }
            }
            *o = acc;
        }
        out
    }

    /// One V-cycle on the level-`l` system `K e = b` (homogeneous
    /// constraints; `u` is updated in place).
    pub fn v_cycle(&self, l: usize, u: &mut [f64], b: &[f64]) {
        let sys = &self.levels[l];
        if l + 1 == self.levels.len() {
            coarse_solve(sys, b, u, self.opts.coarse_tol);
            return;
        }
        sys.jacobi_smooth(u, b, self.opts.omega, self.opts.pre_smooth);
        let mut r = vec![0.0; sys.num_nodes()];
        sys.residual_into(u, b, &mut r);
        let rc = self.restrict(l, &r);
        let mut ec = vec![0.0; self.levels[l + 1].num_nodes()];
        self.v_cycle(l + 1, &mut ec, &rc);
        let ef = self.prolong(l, &ec);
        for (ui, ei) in u.iter_mut().zip(&ef) {
            *ui += ei;
        }
        sys.jacobi_smooth(u, b, self.opts.omega, self.opts.post_smooth);
    }
}

/// The coarsest-level solve of the f64 and mixed V-cycles: Jacobi-PCG on
/// `K u = b` over the level's assembled system, from the iterate in `u`,
/// to relative tolerance `tol` (absolute floor and iteration cap as in
/// [`CgOptions::default`]). Only the mask of the level's BC is used, so
/// the finest level's inhomogeneous values are irrelevant.
pub(crate) fn coarse_solve<const D: usize>(
    sys: &PoissonSystem<D>,
    b: &[f64],
    u: &mut [f64],
    tol: f64,
) {
    let CgOptions {
        abs_tol, max_iter, ..
    } = CgOptions::default();
    let pre = JacobiPrecond::of(sys);
    let mut ws = PcgWorkspace::start(sys, &pre, u, b);
    let r0 = ws.recurrence_residual();
    if r0 > abs_tol {
        for _ in 0..max_iter {
            match ws.step(sys, &pre, u) {
                PcgStep::Advanced(rn) if rn > tol * r0 && rn > abs_tol => {}
                _ => break,
            }
        }
    }
    sys.mask(u);
}

impl<const D: usize> Precond for GridHierarchy<D> {
    /// `z ≈ K⁻¹ r` via one V-cycle from a zero initial error.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|x| *x = 0.0);
        self.v_cycle(0, z, r);
        self.levels[0].mask(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nu_var<const D: usize>(g: &Grid<D>) -> Vec<f64> {
        (0..g.num_nodes())
            .map(|i| {
                let c = g.node_coords(i);
                let mut s = 1.0;
                for (k, &x) in c.iter().enumerate() {
                    s *= ((k + 2) as f64 * x).sin().mul_add(0.4, 1.0);
                }
                s.abs() + 0.3
            })
            .collect()
    }

    fn hier2d(m: usize) -> GridHierarchy<2> {
        let g: Grid<2> = Grid::cube(m);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap()
    }

    #[test]
    fn depth_on_power_of_two_grid() {
        // 64 -> 32 -> 16 -> 8 -> 4: stop once an axis is <= coarse_n.
        let h = hier2d(64);
        assert_eq!(h.num_levels(), 5);
        assert_eq!(h.dims_at(1), [32, 32]);
        assert_eq!(h.dims_at(4), [4, 4]);
    }

    #[test]
    fn nested_grid_reduces_to_classical_stencil() {
        // On 2^j+1 grids the sampled transfer is the [1/2, 1, 1/2]
        // stencil: restriction of a constant-1 interior residual onto an
        // interior coarse node sums to 4 in 2D.
        let h = hier2d(17);
        assert_eq!(h.dims_at(1), [9, 9]);
        let fine = vec![1.0; h.level(0).num_nodes()];
        let r = h.restrict(0, &fine);
        let cgrid = &h.level(1).grid;
        let mid = cgrid.node([4, 4]);
        assert!((r[mid] - 4.0).abs() < 1e-12, "got {}", r[mid]);
    }

    #[test]
    fn restriction_is_prolongation_transpose() {
        let h = hier2d(12); // non-nested: 12 -> 6 -> 3
        let nf = h.level(0).num_nodes();
        let nc = h.level(1).num_nodes();
        let e: Vec<f64> = (0..nc).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let r: Vec<f64> = (0..nf).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let mut rm = r.clone();
        h.level(0).mask(&mut rm);
        let mut em = e.clone();
        h.level(1).mask(&mut em);
        let pe = h.prolong(0, &em);
        let rr = h.restrict(0, &rm);
        let lhs: f64 = pe.iter().zip(&rm).map(|(a, b)| a * b).sum();
        let rhs: f64 = em.iter().zip(&rr).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn vcycle_pcg_converges_on_power_of_two_grid() {
        let h = hier2d(64);
        let sys = h.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        let mut iters = 0;
        for _ in 0..60 {
            iters += 1;
            match ws.step(sys, &h, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => panic!("breakdown"),
            }
        }
        let rel = sys.residual_norm(&u, &rhs) / r0;
        assert!(rel <= 1e-9, "rel residual {rel} after {iters} iters");
        // Multigrid preconditioning must beat plain Jacobi CG by a wide
        // margin: tens of iterations, not hundreds.
        assert!(iters <= 40, "MG-PCG took {iters} iterations");
    }

    #[test]
    fn vcycle_pcg_converges_in_3d() {
        let g: Grid<3> = Grid::cube(16);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
        let sys = h.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        for _ in 0..50 {
            if let PcgStep::Advanced(rn) = ws.step(sys, &h, &mut u) {
                if rn <= 1e-10 * r0 {
                    break;
                }
            }
        }
        assert!(sys.residual_norm(&u, &rhs) / r0 <= 1e-9);
    }

    #[test]
    fn anisotropic_hierarchy_preconditions_pcg() {
        // Rotated diag(s, s/ratio) tensor field; the rediscretized coarse
        // tensors must stay SPD (convex combinations) and the V-cycle must
        // still precondition CG to fast convergence.
        let g: Grid<2> = Grid::cube(32);
        let nn = g.num_nodes();
        let mut t = vec![0.0; 3 * nn];
        let (sn, cs) = 0.5f64.sin_cos();
        for i in 0..nn {
            let c = g.node_coords(i);
            let s = 1.0 + 0.4 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos() + 0.5;
            let a = s;
            let b = s / 6.0;
            t[i] = a * cs * cs + b * sn * sn;
            t[nn + i] = a * sn * sn + b * cs * cs;
            t[2 * nn + i] = (a - b) * cs * sn;
        }
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h = GridHierarchy::build_with_operator(
            g,
            PdeOperator::AnisoDiffusion,
            &t,
            &bc,
            HierarchyOptions::default(),
        )
        .unwrap();
        // Every level re-validated SPD at construction (with_operator).
        assert!(h.num_levels() >= 3);
        let sys = h.finest();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        let mut iters = 0;
        for _ in 0..80 {
            iters += 1;
            match ws.step(sys, &h, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => panic!("breakdown"),
            }
        }
        let rel = sys.residual_norm(&u, &rhs) / r0;
        assert!(rel <= 1e-9, "rel residual {rel} after {iters} iters");
    }

    #[test]
    fn scalar_build_is_bitwise_identical_through_operator_path() {
        // build() delegates to build_with_operator(Poisson) — coarse ν and
        // every level's diag must match the historical path exactly.
        let h = hier2d(24);
        for l in 0..h.num_levels() {
            assert_eq!(h.nu_at(l).len(), h.level(l).num_nodes());
        }
        let g: Grid<2> = Grid::cube(24);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h2 = GridHierarchy::build_with_operator(
            g,
            PdeOperator::Poisson,
            &nu,
            &bc,
            HierarchyOptions::default(),
        )
        .unwrap();
        for l in 0..h.num_levels() {
            assert!(h
                .nu_at(l)
                .iter()
                .zip(h2.nu_at(l))
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn solution_matches_classical_gmg_on_nested_grid() {
        let g: Grid<2> = Grid::cube(33);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
        let sys = h.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h, &u, &rhs);
        for _ in 0..60 {
            if let PcgStep::Advanced(rn) = ws.step(sys, &h, &mut u) {
                if rn <= 1e-11 * r0 {
                    break;
                }
            }
        }
        let gmg = crate::gmg::GmgSolver::new(
            g,
            &nu,
            Dirichlet::x_faces(&g, 1.0, 0.0),
            crate::gmg::GmgOptions::default(),
        )
        .unwrap();
        let (u_ref, st) = gmg.solve(None, None);
        assert!(st.converged);
        let err: f64 = u
            .iter()
            .zip(&u_ref)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = u_ref.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / norm < 1e-7, "rel err {}", err / norm);
    }
}
