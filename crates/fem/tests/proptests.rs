//! Property-based tests for the FEM operators.

use mgd_fem::{
    apply_stiffness, apply_stiffness_serial, energy, Dirichlet, ElementBasis, FemSystem, Grid,
    PdeOperator,
};
use proptest::prelude::*;

fn field(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03));
            lo + (hi - lo) * ((h >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Coefficient block for `op`: scalar ν in `[0.1, 5]`, or the SPD tensor
/// field `T = a·I + b·w wᵀ` (`a ∈ [0.2, 3]`, `b ∈ [0, 4]`, `w ∈ [-1, 1]^D`).
fn coeff_block<const D: usize>(g: &Grid<D>, op: PdeOperator, seed: u64) -> Vec<f64> {
    let nn = g.num_nodes();
    match op {
        PdeOperator::Poisson => field(nn, seed, 0.1, 5.0),
        PdeOperator::AnisoDiffusion => {
            let a = field(nn, seed, 0.2, 3.0);
            let b = field(nn, seed.wrapping_add(1), 0.0, 4.0);
            let w: Vec<Vec<f64>> = (0..D)
                .map(|d| field(nn, seed.wrapping_add(2 + d as u64), -1.0, 1.0))
                .collect();
            let mut t = vec![0.0; op.ncomp(D) * nn];
            for i in 0..nn {
                for x in 0..D {
                    for y in x..D {
                        let iso = if x == y { a[i] } else { 0.0 };
                        t[mgd_fem::sym_index(D, x, y) * nn + i] = iso + b[i] * w[x][i] * w[y][i];
                    }
                }
            }
            t
        }
    }
}

fn system<const D: usize>(n: [usize; D], op: PdeOperator, seed: u64) -> FemSystem<D> {
    let g: Grid<D> = Grid::new(n);
    let coeff = coeff_block(&g, op, seed);
    let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
    FemSystem::with_operator(g, op, coeff, bc).unwrap()
}

fn op_of(aniso: bool) -> PdeOperator {
    if aniso {
        PdeOperator::AnisoDiffusion
    } else {
        PdeOperator::Poisson
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖K_stencil u − K_quadrature u‖ / ‖K_quadrature u‖` for a random `u`.
fn stencil_vs_quadrature<const D: usize>(sys: &FemSystem<D>, seed: u64) -> f64 {
    let nn = sys.num_nodes();
    let u = field(nn, seed, -1.0, 1.0);
    let mut ks = vec![0.0; nn];
    sys.apply(&u, &mut ks);
    let mut kq = vec![0.0; nn];
    sys.op
        .apply_stiffness(&sys.grid, &sys.basis, &sys.nu, &u, &mut kq);
    let diff: Vec<f64> = ks.iter().zip(&kq).map(|(a, b)| a - b).collect();
    norm(&diff) / norm(&kq)
}

/// Probes `K` with unit vectors: `e_iᵀ(K e_j) == e_jᵀ(K e_i)` bit for bit
/// for every `j` in node `i`'s neighbourhood (and one far node).
fn unit_probes_symmetric<const D: usize>(sys: &FemSystem<D>, i: usize) -> bool {
    let nn = sys.num_nodes();
    let strides = sys.grid.strides();
    let probe = |j: usize| {
        let mut e = vec![0.0; nn];
        e[j] = 1.0;
        let mut ke = vec![0.0; nn];
        sys.apply(&e, &mut ke);
        ke
    };
    let ki = probe(i);
    let mut js: Vec<usize> = (0..3usize.pow(D as u32))
        .filter_map(|code| {
            let mut j = i as isize;
            let mut rem = code;
            for d in (0..D).rev() {
                j += ((rem % 3) as isize - 1) * strides[d] as isize;
                rem /= 3;
            }
            (0..nn as isize).contains(&j).then_some(j as usize)
        })
        .collect();
    js.push(nn - 1 - i);
    js.into_iter().all(|j| {
        let kj = probe(j);
        // e_iᵀ(K e_j) is entry i of K e_j; e_jᵀ(K e_i) is entry j of K e_i.
        kj[i].to_bits() == ki[j].to_bits()
    })
}

/// Masked inverse diagonal from the stencil centre vs `1 / stiffness_diag`.
fn diag_inv_vs_quadrature<const D: usize>(sys: &FemSystem<D>) -> f64 {
    let nn = sys.num_nodes();
    let mut diag = vec![0.0; nn];
    sys.op
        .stiffness_diag(&sys.grid, &sys.basis, &sys.nu, &mut diag);
    (0..nn)
        .map(|i| {
            let want = if sys.bc.fixed[i] { 0.0 } else { 1.0 / diag[i] };
            let got = sys.diag_inv()[i];
            if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            }
        })
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The assembled half-stencil applies the same `K` as the matrix-free
    /// quadrature kernel, Poisson and aniso, on 2D grids with any axis
    /// down to 2 nodes.
    #[test]
    fn stencil_matches_quadrature_2d(
        ny in 2usize..9, nx in 2usize..9, aniso in 0usize..2, seed in 0u64..1000,
    ) {
        let sys = system([ny, nx], op_of(aniso == 1), seed);
        let rel = stencil_vs_quadrature(&sys, seed.wrapping_add(7));
        prop_assert!(rel <= 1e-13, "{:?} {:?}: rel {}", sys.op, [ny, nx], rel);
    }

    /// 3D counterpart of `stencil_matches_quadrature_2d`.
    #[test]
    fn stencil_matches_quadrature_3d(
        nz in 2usize..7, ny in 2usize..7, nx in 2usize..7, aniso in 0usize..2, seed in 0u64..1000,
    ) {
        let sys = system([nz, ny, nx], op_of(aniso == 1), seed);
        let rel = stencil_vs_quadrature(&sys, seed.wrapping_add(7));
        prop_assert!(rel <= 1e-13, "{:?} {:?}: rel {}", sys.op, [nz, ny, nx], rel);
    }

    /// `FemSystem::apply` is exactly symmetric: unit-vector probes give
    /// `uᵀ(Kv) == vᵀ(Ku)` bitwise (each backward entry is read from the
    /// neighbour's stored forward entry).
    #[test]
    fn system_apply_is_bitwise_symmetric(
        nz in 2usize..6, ny in 2usize..6, nx in 2usize..6, aniso in 0usize..2,
        seed in 0u64..1000, pick in 0usize..1000,
    ) {
        let s3 = system([nz, ny, nx], op_of(aniso == 1), seed);
        prop_assert!(unit_probes_symmetric(&s3, pick % s3.num_nodes()));
        let s2 = system([ny, nx], op_of(aniso == 1), seed);
        prop_assert!(unit_probes_symmetric(&s2, pick % s2.num_nodes()));
    }

    /// The Jacobi coefficients read off the stencil centre match the
    /// quadrature diagonal (masked to zero at fixed nodes).
    #[test]
    fn diag_inv_matches_stiffness_diag(
        nz in 2usize..7, ny in 2usize..7, nx in 2usize..7, aniso in 0usize..2, seed in 0u64..1000,
    ) {
        let s3 = system([nz, ny, nx], op_of(aniso == 1), seed);
        let e3 = diag_inv_vs_quadrature(&s3);
        prop_assert!(e3 <= 1e-14, "3D {:?}: {}", s3.op, e3);
        let s2 = system([ny, nx], op_of(aniso == 1), seed);
        let e2 = diag_inv_vs_quadrature(&s2);
        prop_assert!(e2 <= 1e-14, "2D {:?}: {}", s2.op, e2);
    }

    /// The no-forcing energy ½uᵀKu is non-negative for positive ν.
    #[test]
    fn energy_nonnegative(m in 3usize..10, seed in 0u64..1000) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = field(nn, seed.wrapping_add(1), -2.0, 2.0);
        prop_assert!(energy(&g, &b, &nu, &u, None) >= -1e-12);
    }

    /// Energy is 1-homogeneous in ν: J(cν, u) = c·J(ν, u).
    #[test]
    fn energy_linear_in_nu(m in 3usize..8, seed in 0u64..1000, c in 0.1..10.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let nu_c: Vec<f64> = nu.iter().map(|&v| c * v).collect();
        let u = field(nn, seed.wrapping_add(2), -1.0, 1.0);
        let j1 = energy(&g, &b, &nu, &u, None);
        let j2 = energy(&g, &b, &nu_c, &u, None);
        prop_assert!((j2 - c * j1).abs() < 1e-9 * (1.0 + j1.abs()));
    }

    /// Energy is 2-homogeneous in u: J(ν, cu) = c²·J(ν, u).
    #[test]
    fn energy_quadratic_in_u(m in 3usize..8, seed in 0u64..1000, c in -3.0..3.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = field(nn, seed.wrapping_add(3), -1.0, 1.0);
        let uc: Vec<f64> = u.iter().map(|&v| c * v).collect();
        let j1 = energy(&g, &b, &nu, &u, None);
        let j2 = energy(&g, &b, &nu, &uc, None);
        prop_assert!((j2 - c * c * j1).abs() < 1e-9 * (1.0 + j1.abs()));
    }

    /// Parallel (colored) and serial stiffness application agree bitwise-ish.
    #[test]
    fn colored_equals_serial_apply(my in 3usize..9, mx in 3usize..9, seed in 0u64..1000) {
        let g: Grid<2> = Grid::new([my, mx]);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = field(nn, seed.wrapping_add(4), -1.0, 1.0);
        let mut a = vec![0.0; nn];
        let mut s = vec![0.0; nn];
        apply_stiffness(&g, &b, &nu, &u, &mut a);
        apply_stiffness_serial(&g, &b, &nu, &u, &mut s);
        for i in 0..nn {
            prop_assert!((a[i] - s[i]).abs() < 1e-10, "node {}: {} vs {}", i, a[i], s[i]);
        }
    }

    /// K annihilates constants for any ν (pure Neumann compatibility).
    #[test]
    fn stiffness_kernel_contains_constants(m in 3usize..10, seed in 0u64..1000, c in -5.0..5.0f64) {
        let g: Grid<2> = Grid::cube(m);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = field(nn, seed, 0.1, 5.0);
        let u = vec![c; nn];
        let mut ku = vec![0.0; nn];
        apply_stiffness(&g, &b, &nu, &u, &mut ku);
        prop_assert!(ku.iter().all(|&x| x.abs() < 1e-10));
    }

    /// Dirichlet mask operations are idempotent and complementary.
    #[test]
    fn mask_idempotent(m in 3usize..10, seed in 0u64..1000) {
        let g: Grid<2> = Grid::cube(m);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut u = field(g.num_nodes(), seed, -1.0, 1.0);
        bc.apply(&mut u);
        let once = u.clone();
        bc.apply(&mut u);
        prop_assert_eq!(&u, &once);
        let mut v = once.clone();
        bc.zero_fixed(&mut v);
        // Fixed entries zeroed, interior untouched.
        for i in 0..v.len() {
            if bc.fixed[i] {
                prop_assert_eq!(v[i], 0.0);
            } else {
                prop_assert_eq!(v[i], once[i]);
            }
        }
    }

    /// 3D grids: node/multi-index roundtrip for arbitrary shapes.
    #[test]
    fn grid_roundtrip_3d(nz in 2usize..6, ny in 2usize..6, nx in 2usize..6) {
        let g: Grid<3> = Grid::new([nz, ny, nx]);
        for i in 0..g.num_nodes() {
            prop_assert_eq!(g.node(g.node_multi(i)), i);
        }
    }
}
