//! A discrete variational system bound to one `(grid, operator, coeff, BC)`
//! tuple.
//!
//! [`FemSystem`] packages the residual / operator-application / smoothing
//! entry points every solver drives: multigrid levels, PCG applies, true
//! residuals after arbitrary (e.g. learned) updates, and certificates. The
//! operator is pluggable ([`PdeOperator`]); the historical name
//! [`PoissonSystem`] survives as an alias for the default scalar-ν build.
//!
//! **Which operator runs where.** A system assembles its operator once, at
//! construction, into an assembled half-stencil (`Stencil`): the centre
//! plus the forward offsets of each node's `3^D` neighbourhood. Every
//! [`apply`](FemSystem::apply), residual and Jacobi sweep is then a pure
//! row gather. That costs 14 `f64` per node in 3D (about 235 MB at 128³)
//! and 5 in 2D. The training loss and `dist_fem` stay matrix-free
//! ([`crate::operator`] / [`PdeOperator`] quadrature kernels): they see a
//! new coefficient field on nearly every call, so assembly would not pay
//! off there.

use crate::basis::ElementBasis;
use crate::bc::Dirichlet;
use crate::error::FemError;
use crate::grid::Grid;
use crate::pde::PdeOperator;
use crate::stencil::Stencil;

/// The discrete operator `K(ν)` with its Dirichlet mask — the reusable
/// core of every solver in this crate.
#[derive(Clone)]
pub struct FemSystem<const D: usize> {
    /// Structured grid the system is discretized on.
    pub grid: Grid<D>,
    /// Element basis (quadrature-tabulated shape gradients).
    pub basis: ElementBasis<D>,
    /// The variational operator being discretized.
    pub op: PdeOperator,
    /// Nodal coefficient block (component-major; scalar ν for Poisson).
    pub nu: Vec<f64>,
    /// Dirichlet boundary condition (mask + prescribed values).
    pub bc: Dirichlet,
    /// `K` assembled once into its symmetric half-stencil.
    stencil: Stencil<D>,
    /// Masked inverse stiffness diagonal (zero at fixed nodes).
    diag_inv: Vec<f64>,
}

/// Historical name for the scalar-coefficient build of [`FemSystem`].
pub type PoissonSystem<const D: usize> = FemSystem<D>;

impl<const D: usize> std::fmt::Debug for FemSystem<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FemSystem")
            .field("op", &self.op.name())
            .field("n", &self.grid.n)
            .finish()
    }
}

impl<const D: usize> FemSystem<D> {
    /// Builds the scalar-ν Poisson system, validating slice lengths
    /// against the grid.
    pub fn new(grid: Grid<D>, nu: Vec<f64>, bc: Dirichlet) -> Result<Self, FemError> {
        Self::with_operator(grid, PdeOperator::Poisson, nu, bc)
    }

    /// Builds a system for an arbitrary [`PdeOperator`], validating the
    /// coefficient block (length + SPD for tensor operators) and BC mask.
    pub fn with_operator(
        grid: Grid<D>,
        op: PdeOperator,
        nu: Vec<f64>,
        bc: Dirichlet,
    ) -> Result<Self, FemError> {
        let nn = grid.num_nodes();
        op.validate_coeff(&grid, &nu)?;
        if bc.fixed.len() != nn {
            return Err(FemError::SizeMismatch {
                what: "bc.fixed",
                expected: nn,
                got: bc.fixed.len(),
            });
        }
        let basis = ElementBasis::new(&grid);
        let stencil = Stencil::assemble(&grid, &basis, op, &nu);
        let diag_inv: Vec<f64> = stencil
            .diag()
            .iter()
            .zip(&bc.fixed)
            .map(|(&d, &fx)| {
                if fx || d.abs() < mgd_tensor::F64_DIV_GUARD {
                    0.0
                } else {
                    1.0 / d
                }
            })
            .collect();
        Ok(FemSystem {
            grid,
            basis,
            op,
            nu,
            bc,
            stencil,
            diag_inv,
        })
    }

    /// Nodes in the system (vector length).
    pub fn num_nodes(&self) -> usize {
        self.grid.num_nodes()
    }

    /// Masked inverse diagonal of `K` (zero at fixed nodes) — the Jacobi
    /// preconditioner / smoother coefficients.
    pub fn diag_inv(&self) -> &[f64] {
        &self.diag_inv
    }

    /// The assembled operator.
    pub(crate) fn stencil(&self) -> &Stencil<D> {
        &self.stencil
    }

    /// `out = K u` (overwrites `out`; rows of fixed nodes included).
    pub fn apply(&self, u: &[f64], out: &mut [f64]) {
        self.stencil.apply(u, out);
    }

    /// Zeroes fixed entries of `v`.
    pub fn mask(&self, v: &mut [f64]) {
        self.bc.zero_fixed(v);
    }

    /// Writes the prescribed Dirichlet values into `u`.
    pub fn impose_bc(&self, u: &mut [f64]) {
        self.bc.apply(u);
    }

    /// `r = mask(rhs − K u)` — the true interior residual.
    pub fn residual_into(&self, u: &[f64], rhs: &[f64], r: &mut [f64]) {
        self.apply(u, r);
        for (ri, &bi) in r.iter_mut().zip(rhs) {
            *ri = bi - *ri;
        }
        self.mask(r);
    }

    /// ‖mask(rhs − K u)‖₂, recomputed from scratch (no recurrences).
    pub fn residual_norm(&self, u: &[f64], rhs: &[f64]) -> f64 {
        let mut r = vec![0.0; self.num_nodes()];
        self.residual_into(u, rhs, &mut r);
        r.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `sweeps` damped-Jacobi sweeps on `K u = b` with relaxation `omega`.
    pub fn jacobi_smooth(&self, u: &mut [f64], b: &[f64], omega: f64, sweeps: usize) {
        let nn = self.num_nodes();
        let mut r = vec![0.0; nn];
        for _ in 0..sweeps {
            self.apply(u, &mut r);
            for i in 0..nn {
                u[i] += omega * self.diag_inv[i] * (b[i] - r[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_mis_sized_inputs() {
        let g: Grid<2> = Grid::cube(9);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let err = PoissonSystem::new(g, vec![1.0; 3], bc).unwrap_err();
        assert!(matches!(err, FemError::SizeMismatch { what: "nu", .. }));
    }

    #[test]
    fn rejects_indefinite_tensor_coefficients() {
        let g: Grid<2> = Grid::cube(5);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut t = vec![1.0; 3 * nn];
        t[2 * nn..].iter_mut().for_each(|v| *v = 3.0); // off-diag > diag
        let err = FemSystem::with_operator(g, PdeOperator::AnisoDiffusion, t, bc).unwrap_err();
        assert!(matches!(err, FemError::NotSpd { node: 0 }));
    }

    #[test]
    fn residual_vanishes_on_exact_solution() {
        // u = 1 − x is the exact FE solution for ν = 1 with x-face BC.
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let sys = PoissonSystem::new(g, vec![1.0; nn], bc).unwrap();
        let u: Vec<f64> = (0..nn).map(|i| 1.0 - g.node_coords(i)[0]).collect();
        let rhs = vec![0.0; nn];
        assert!(sys.residual_norm(&u, &rhs) < 1e-12);
    }

    #[test]
    fn anisotropic_residual_vanishes_on_linear_profile() {
        // u = 1 − x stays exact for a constant *diagonal* tensor: the flux
        // T∇u = (−T_xx, 0) is constant and tangential fluxes vanish, so the
        // homogeneous-Neumann y-faces stay consistent. (An off-diagonal
        // T_xy would push flux through the y-faces and change the solution.)
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut t = vec![0.0; 3 * nn];
        t[..nn].iter_mut().for_each(|v| *v = 2.0);
        t[nn..2 * nn].iter_mut().for_each(|v| *v = 0.5);
        let sys = FemSystem::with_operator(g, PdeOperator::AnisoDiffusion, t, bc).unwrap();
        let u: Vec<f64> = (0..nn).map(|i| 1.0 - g.node_coords(i)[0]).collect();
        let rhs = vec![0.0; nn];
        assert!(sys.residual_norm(&u, &rhs) < 1e-12);
    }

    #[test]
    fn jacobi_smoothing_reduces_residual() {
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let sys = PoissonSystem::new(g, vec![1.0; nn], bc).unwrap();
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let rhs = vec![0.0; nn];
        let r0 = sys.residual_norm(&u, &rhs);
        sys.jacobi_smooth(&mut u, &rhs, 0.7, 10);
        assert!(sys.residual_norm(&u, &rhs) < r0);
    }
}
