//! Dimension-erased Poisson systems and multigrid hierarchies.
//!
//! The engine side of the project works with runtime-shaped fields
//! (`dims: &[usize]`, 2D or 3D) while `mgd-fem` is generic over
//! `const D: usize`. [`ErasedSystem`] / [`ErasedHierarchy`] bridge the
//! two with the same convention as the training loss: 2D dims are
//! `[ny, nx]`, 3D dims are `[nz, ny, nx]`, and the paper's boundary
//! condition (`u = 1` on the `x = 0` face, `u = 0` on `x = 1`) is
//! imposed through `Dirichlet::x_faces`.

use mgd_fem::bc::BoundarySpec;
use mgd_fem::error::FemError;
use mgd_fem::grid::Grid;
use mgd_fem::hierarchy::{GridHierarchy, HierarchyOptions};
use mgd_fem::mixed::MixedHierarchy;
use mgd_fem::operator::load_vector;
use mgd_fem::pcg::{JacobiPrecond, LinearOp, Precond};
use mgd_fem::pde::PdeOperator;
use mgd_fem::system::PoissonSystem;
use mgd_tensor::Precision;
use std::fmt;

/// Errors raised by hybrid solver construction.
#[derive(Clone, Debug, PartialEq)]
pub enum HybridError {
    /// Unsupported or inconsistent input shapes.
    InvalidInput(String),
    /// A FEM-layer construction failure.
    Fem(FemError),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridError::InvalidInput(m) => write!(f, "invalid hybrid solver input: {m}"),
            HybridError::Fem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<FemError> for HybridError {
    fn from(e: FemError) -> Self {
        HybridError::Fem(e)
    }
}

/// A Poisson system over runtime-shaped (2D or 3D) grids.
#[derive(Debug)]
pub enum ErasedSystem {
    /// `dims = [ny, nx]`.
    D2(PoissonSystem<2>),
    /// `dims = [nz, ny, nx]`.
    D3(PoissonSystem<3>),
}

impl ErasedSystem {
    /// Builds the paper's BVP (`−∇·(ν∇u) = 0`, `u = 1` at `x = 0`,
    /// `u = 0` at `x = 1`) on a grid of the given dims.
    pub fn poisson(dims: &[usize], nu: &[f64]) -> Result<Self, HybridError> {
        Self::with_operator(dims, PdeOperator::Poisson, nu, &BoundarySpec::default())
    }

    /// Builds a system for an arbitrary operator and boundary spec. The
    /// coefficient block is component-major (`ncomp · Π dims` values);
    /// tensor operators are SPD-validated node-by-node.
    pub fn with_operator(
        dims: &[usize],
        op: PdeOperator,
        coeff: &[f64],
        boundary: &BoundarySpec,
    ) -> Result<Self, HybridError> {
        boundary.validate()?;
        match dims {
            [ny, nx] => {
                let grid: Grid<2> = Grid::new([*ny, *nx]);
                let bc = boundary.build(&grid);
                Ok(ErasedSystem::D2(PoissonSystem::with_operator(
                    grid,
                    op,
                    coeff.to_vec(),
                    bc,
                )?))
            }
            [nz, ny, nx] => {
                let grid: Grid<3> = Grid::new([*nz, *ny, *nx]);
                let bc = boundary.build(&grid);
                Ok(ErasedSystem::D3(PoissonSystem::with_operator(
                    grid,
                    op,
                    coeff.to_vec(),
                    bc,
                )?))
            }
            other => Err(HybridError::InvalidInput(format!(
                "expected 2 or 3 spatial dims, got {other:?}"
            ))),
        }
    }

    /// The variational operator this system discretizes.
    pub fn op(&self) -> PdeOperator {
        match self {
            ErasedSystem::D2(s) => s.op,
            ErasedSystem::D3(s) => s.op,
        }
    }

    /// Assembles the load vector `F` for a nodal forcing `f` (the rhs that
    /// [`crate::solve_certified`] certifies against).
    pub fn load_vector(&self, f: &[f64]) -> Result<Vec<f64>, HybridError> {
        let nn = self.num_nodes();
        if f.len() != nn {
            return Err(HybridError::InvalidInput(format!(
                "forcing has length {}, expected {nn}",
                f.len()
            )));
        }
        let mut rhs = vec![0.0; nn];
        match self {
            ErasedSystem::D2(s) => load_vector(&s.grid, &s.basis, f, &mut rhs),
            ErasedSystem::D3(s) => load_vector(&s.grid, &s.basis, f, &mut rhs),
        }
        Ok(rhs)
    }

    /// Nodes in the system.
    pub fn num_nodes(&self) -> usize {
        match self {
            ErasedSystem::D2(s) => s.num_nodes(),
            ErasedSystem::D3(s) => s.num_nodes(),
        }
    }

    /// Nodes per axis.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            ErasedSystem::D2(s) => s.grid.n.to_vec(),
            ErasedSystem::D3(s) => s.grid.n.to_vec(),
        }
    }

    /// ν on the finest grid.
    pub fn nu(&self) -> &[f64] {
        match self {
            ErasedSystem::D2(s) => &s.nu,
            ErasedSystem::D3(s) => &s.nu,
        }
    }

    /// Writes prescribed Dirichlet values into `u`.
    pub fn impose_bc(&self, u: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.impose_bc(u),
            ErasedSystem::D3(s) => s.impose_bc(u),
        }
    }

    /// `r = mask(rhs − K u)`.
    pub fn residual_into(&self, u: &[f64], rhs: &[f64], r: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.residual_into(u, rhs, r),
            ErasedSystem::D3(s) => s.residual_into(u, rhs, r),
        }
    }

    /// True residual norm ‖mask(rhs − K u)‖₂, recomputed from scratch.
    pub fn residual_norm(&self, u: &[f64], rhs: &[f64]) -> f64 {
        match self {
            ErasedSystem::D2(s) => s.residual_norm(u, rhs),
            ErasedSystem::D3(s) => s.residual_norm(u, rhs),
        }
    }

    /// The Jacobi preconditioner of this system.
    pub fn jacobi(&self) -> JacobiPrecond {
        match self {
            ErasedSystem::D2(s) => JacobiPrecond::of(s),
            ErasedSystem::D3(s) => JacobiPrecond::of(s),
        }
    }
}

impl LinearOp for ErasedSystem {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.apply(u, out),
            ErasedSystem::D3(s) => s.apply(u, out),
        }
    }
    fn mask(&self, v: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.mask(v),
            ErasedSystem::D3(s) => s.mask(v),
        }
    }
}

/// A dimension-erased [`GridHierarchy`], optionally carrying the
/// mixed-precision ([`MixedHierarchy`]) V-cycle as its preconditioner.
pub enum ErasedHierarchy {
    /// 2D hierarchy.
    D2(GridHierarchy<2>),
    /// 3D hierarchy.
    D3(GridHierarchy<3>),
    /// 2D hierarchy with an f32 V-cycle (f64 coarsest solve).
    D2Mixed(MixedHierarchy<2>),
    /// 3D hierarchy with an f32 V-cycle (f64 coarsest solve).
    D3Mixed(MixedHierarchy<3>),
}

impl ErasedHierarchy {
    /// Builds the V-cycle hierarchy matching `sys` (full f64 cycle).
    pub fn build(sys: &ErasedSystem, opts: HierarchyOptions) -> Result<Self, HybridError> {
        Self::build_with_precision(sys, opts, Precision::F64)
    }

    /// Builds the hierarchy with a precision policy. [`Precision::Mixed`]
    /// selects the f32 V-cycle preconditioner (setup and coarsest solve
    /// stay f64); the outer PCG and all residual certificates remain f64
    /// regardless, so solution accuracy is unaffected — only convergence
    /// rate can differ. `F64` and `F32` both build the plain f64 cycle:
    /// `F32` is a serving-side (forward-pass) policy and does not touch
    /// the certified solver.
    pub fn build_with_precision(
        sys: &ErasedSystem,
        opts: HierarchyOptions,
        precision: Precision,
    ) -> Result<Self, HybridError> {
        // The hierarchy's finest level is a copy of `sys`, so its stencil
        // is not assembled a second time.
        Ok(match (sys, precision) {
            (ErasedSystem::D2(s), Precision::Mixed) => ErasedHierarchy::D2Mixed(
                MixedHierarchy::new(GridHierarchy::from_finest(s.clone(), opts)?),
            ),
            (ErasedSystem::D3(s), Precision::Mixed) => ErasedHierarchy::D3Mixed(
                MixedHierarchy::new(GridHierarchy::from_finest(s.clone(), opts)?),
            ),
            (ErasedSystem::D2(s), _) => {
                ErasedHierarchy::D2(GridHierarchy::from_finest(s.clone(), opts)?)
            }
            (ErasedSystem::D3(s), _) => {
                ErasedHierarchy::D3(GridHierarchy::from_finest(s.clone(), opts)?)
            }
        })
    }

    /// Number of levels (level 0 is the finest).
    pub fn num_levels(&self) -> usize {
        match self {
            ErasedHierarchy::D2(h) => h.num_levels(),
            ErasedHierarchy::D3(h) => h.num_levels(),
            ErasedHierarchy::D2Mixed(h) => h.inner().num_levels(),
            ErasedHierarchy::D3Mixed(h) => h.inner().num_levels(),
        }
    }

    /// Nodes per axis at level `l`.
    pub fn dims_at(&self, l: usize) -> Vec<usize> {
        match self {
            ErasedHierarchy::D2(h) => h.dims_at(l).to_vec(),
            ErasedHierarchy::D3(h) => h.dims_at(l).to_vec(),
            ErasedHierarchy::D2Mixed(h) => h.inner().dims_at(l).to_vec(),
            ErasedHierarchy::D3Mixed(h) => h.inner().dims_at(l).to_vec(),
        }
    }

    /// ν sampled down to level `l`.
    pub fn nu_at(&self, l: usize) -> &[f64] {
        match self {
            ErasedHierarchy::D2(h) => h.nu_at(l),
            ErasedHierarchy::D3(h) => h.nu_at(l),
            ErasedHierarchy::D2Mixed(h) => h.inner().nu_at(l),
            ErasedHierarchy::D3Mixed(h) => h.inner().nu_at(l),
        }
    }

    /// Multilinear sample of a finest-level field at level `l` nodes.
    pub fn sample_to_level(&self, l: usize, finest: &[f64]) -> Vec<f64> {
        match self {
            ErasedHierarchy::D2(h) => h.sample_to_level(l, finest),
            ErasedHierarchy::D3(h) => h.sample_to_level(l, finest),
            ErasedHierarchy::D2Mixed(h) => h.inner().sample_to_level(l, finest),
            ErasedHierarchy::D3Mixed(h) => h.inner().sample_to_level(l, finest),
        }
    }

    /// Prolongs a level-`l` field up to the finest level (masked).
    pub fn prolong_to_finest(&self, l: usize, field: &[f64]) -> Vec<f64> {
        match self {
            ErasedHierarchy::D2(h) => h.prolong_to_finest(l, field),
            ErasedHierarchy::D3(h) => h.prolong_to_finest(l, field),
            ErasedHierarchy::D2Mixed(h) => h.inner().prolong_to_finest(l, field),
            ErasedHierarchy::D3Mixed(h) => h.inner().prolong_to_finest(l, field),
        }
    }
}

impl Precond for ErasedHierarchy {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            ErasedHierarchy::D2(h) => h.apply(r, z),
            ErasedHierarchy::D3(h) => h.apply(r, z),
            ErasedHierarchy::D2Mixed(h) => h.apply(r, z),
            ErasedHierarchy::D3Mixed(h) => h.apply(r, z),
        }
    }
}
