//! Structured-grid finite elements for the MGDiffNet reproduction.
//!
//! Implements the numerical backbone of the paper:
//! - the **Ritz energy functional** `J(u) = ½ B(u,u) − L(u)` (paper Eq. 14)
//!   and its gradient with respect to nodal values — this *is* the training
//!   loss of Algorithm 1;
//! - **matrix-free stiffness application** `v = K(ν) u` for multilinear
//!   (bilinear quad / trilinear hex) elements with 2-point Gauss quadrature,
//!   parallelized with **element coloring** (2^D colors; same-color elements
//!   share no nodes, so scatter writes are race-free);
//! - an **assembled half-stencil** of the same `K` (`stencil.rs`) that every
//!   solver applies as a row gather — see [`system`] for which side uses
//!   which operator;
//! - **Jacobi-preconditioned conjugate gradients** and a classical
//!   **geometric multigrid V-cycle** (damped-Jacobi smoother, full-weighting
//!   restriction, multilinear prolongation) — the traditional solvers the
//!   paper compares against in §4.3;
//! - exact **Dirichlet boundary handling** via masking, matching the
//!   network-side BC imposition `U = U_int·χ_int + U_bc·χ_b`.
//!
//! Everything is generic over the spatial dimension `const D: usize`
//! (2 and 3 are exercised); grids are uniform over `[0,1]^D` with `x` on the
//! fastest axis, matching the tensor layout used by `mgd-nn`.

pub mod basis;
pub mod bc;
pub mod cg;
pub mod color;
pub mod error;
pub mod gmg;
pub mod grid;
pub mod hierarchy;
pub mod mixed;
pub mod operator;
pub mod pcg;
pub mod pde;
pub mod solver;
pub(crate) mod stencil;
pub mod system;

pub use basis::ElementBasis;
pub use bc::{BoundarySpec, Dirichlet};
pub use cg::{solve_cg, solve_cg_op, solve_cg_rhs_op, CgOptions, CgStats};
pub use error::FemError;
pub use gmg::{GmgOptions, GmgSolver, GmgStats};
pub use grid::Grid;
pub use hierarchy::{GridHierarchy, HierarchyOptions};
pub use mixed::MixedHierarchy;
pub use operator::{
    apply_stiffness, apply_stiffness_serial, energy, energy_grad, load_vector, stiffness_diag,
};
pub use pcg::{JacobiPrecond, LinearOp, PcgStep, PcgWorkspace, Precond};
pub use pde::{sym_index, PdeOperator, MAX_NCOMP};
pub use solver::{solve_poisson, Method, SolveReport};
pub use system::{FemSystem, PoissonSystem};
