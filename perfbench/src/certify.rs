//! `certify-3d`: certified solves at 24³. One closed-loop client calls
//! `EngineSnapshot::solve_certified` on unique ω with the `InitialGuess`
//! strategy at tol 1e-8; the surrogate is trained in set-up with a fixed
//! seed.

use crate::common::{
    bitwise_eq, calm_median, gemm_probes, median_time, rasterize_ms, repeated_setup, timed,
    timed_steal, with_cpu_util, Cfg, Outcome,
};
use crate::gen::{omega, omegas, stream, Rng};
use crate::stats::tail;
use crate::trace::{self_times, Recorder, Span};
use mgd_fem::{BoundarySpec, HierarchyOptions, LinearOp, PdeOperator, Precond};
use mgd_field::DiffusivityModel;
use mgd_hybrid::{
    solve_certified, CertifiedSolution, CertifyOptions, ErasedHierarchy, ErasedSystem, StallPolicy,
    StrategyKind,
};
use mgd_tensor::{Precision, Tensor};
use mgdiffnet::{CycleKind, EngineSnapshot, InferenceRequest, Problem, SolverEngine};
use std::sync::Arc;

const RES: usize = 24;
const TOL: f64 = 1e-8;
/// The surrogate's training seed, the same on every run.
const TRAIN_SEED: u64 = 2021;
const EPOCHS: usize = 2;
const FILTERS: usize = 8;
const SETUPS: usize = 3;
const MIN_SOLVES: usize = 20;
/// Consecutive solves averaged into one unit of work for `p50_ms`.
const SOLVES_PER_UNIT: usize = 4;
/// Solves replayed with tracing in a traced run.
const REPLAYED: usize = 12;

fn dims() -> Vec<usize> {
    vec![RES, RES, RES]
}

/// Set-up: build, train the surrogate (fixed seed), and warm the solve path
/// with one certified solve on an ω of its own stream.
fn setup(seed: u64) -> SolverEngine {
    let mut engine = SolverEngine::builder()
        .resolution(dims())
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .cycle(CycleKind::HalfV)
        .levels(2)
        .samples(16)
        .batch_size(8)
        .max_epochs(EPOCHS)
        .patience(EPOCHS + 1)
        .net_depth(2)
        .base_filters(FILTERS)
        .hybrid_strategy(StrategyKind::InitialGuess)
        .certify_tol(TOL)
        .seed(TRAIN_SEED)
        .build()
        .expect("certify engine builds");
    engine.train().expect("surrogate trains");
    let warm = omegas(seed, stream::SAMPLE + 300, 1, 4).remove(0);
    engine
        .solve_certified(&InferenceRequest::omega(warm), TOL)
        .expect("warm-up solve");
    engine
}

struct Solve {
    omega: Vec<f64>,
    ms: f64,
    steal: f64,
    sol: Option<CertifiedSolution>,
}

/// Closed loop, one client: the next solve starts when the previous one
/// returns.
fn closed_loop(snap: &EngineSnapshot, seed: u64, budget_s: f64, min: usize) -> (Vec<Solve>, f64) {
    let start = std::time::Instant::now();
    let mut solves = Vec::new();
    let mut unique = Rng::new(seed, stream::UNIQUE);
    while solves.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let omega = omega(&mut unique, 4);
        let req = InferenceRequest::omega(omega.clone());
        let (res, s, steal) = timed_steal(|| snap.solve_certified(&req, TOL));
        solves.push(Solve {
            omega,
            ms: 1e3 * s,
            steal,
            sol: res.ok(),
        });
    }
    let wall = start.elapsed().as_secs_f64();
    (solves, wall)
}

/// Re-verifies a certificate from a freshly assembled system: the true
/// residual of `u` relative to the BC-imposed zero iterate.
fn recheck(omega: &[f64], sol: &CertifiedSolution) -> bool {
    let nu = DiffusivityModel::paper().rasterize(omega, &dims());
    let Ok(sys) = ErasedSystem::with_operator(
        &dims(),
        PdeOperator::Poisson,
        nu.as_slice(),
        &BoundarySpec::default(),
    ) else {
        return false;
    };
    let rhs = vec![0.0; sys.num_nodes()];
    let mut u0 = vec![0.0; sys.num_nodes()];
    sys.impose_bc(&mut u0);
    let r_ref = sys.residual_norm(&u0, &rhs);
    sol.converged && sys.residual_norm(&sol.u, &rhs) / r_ref <= TOL
}

fn check_solves(out: &mut Outcome, solves: &[Solve]) {
    let bad = solves
        .iter()
        .filter(|s| !s.sol.as_ref().is_some_and(|sol| recheck(&s.omega, sol)))
        .count();
    out.attempted += solves.len() as u64;
    out.failed += bad as u64;
    out.check(
        "every solve converged and re-verifies against a freshly assembled system",
        bad == 0,
    );
}

fn iterations(solves: &[Solve]) -> f64 {
    let it: Vec<f64> = solves
        .iter()
        .filter_map(|s| s.sol.as_ref())
        .map(|s| s.iterations as f64)
        .collect();
    it.iter().sum::<f64>() / it.len().max(1) as f64
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    if !cfg.traced {
        let (engine, setup_s) = repeated_setup(SETUPS, || setup(cfg.seed));
        out.set("setup_s", setup_s);
        let snap = engine.snapshot();
        let (solves, wall) = closed_loop(&snap, cfg.seed, cfg.seconds, MIN_SOLVES);
        let ms: Vec<f64> = solves.iter().map(|s| s.ms).collect();
        // A solve's cost varies with its ω (4 to 6 outer steps), so the
        // unit of work is the mean of SOLVES_PER_UNIT consecutive solves,
        // and the median runs over the calm units.
        let (unit_ms, steal): (Vec<f64>, Vec<f64>) = solves
            .chunks(SOLVES_PER_UNIT)
            .map(|c| {
                let n = c.len() as f64;
                let ms = c.iter().map(|s| s.ms).sum::<f64>() / n;
                (ms, c.iter().map(|s| s.steal).sum::<f64>() / n)
            })
            .unzip();
        let p50 = calm_median(&unit_ms, &steal);
        out.set("p50_ms", p50);
        // One client: throughput is the reciprocal of the median solve.
        out.set("rate_per_s", 1e3 / p50);
        out.note(
            "unit",
            "mean of 4 consecutive certified solves, median over the calm units; \
             rate = 1 / that (one client)",
        );
        out.note("solves_per_wall_s", solves.len() as f64 / wall);
        out.note_tail("tail", tail(&ms));
        out.note("solves", solves.len());
        out.note("certify_outer_iters", iterations(&solves));
        check_solves(&mut out, &solves);
        return out;
    }
    let mut engine = setup(cfg.seed);
    let snap = engine.snapshot();
    let before = snap.stats();
    let ((solves, _), util) =
        with_cpu_util(|| closed_loop(&snap, cfg.seed, cfg.seconds, MIN_SOLVES));
    out.set_serve_stats(&before, &snap.stats());
    out.set("proc.cpu_util", util);
    check_solves(&mut out, &solves);
    let ms: Vec<f64> = solves.iter().map(|s| s.ms).collect();
    if let Some(t) = tail(&ms) {
        out.set("hybrid.solve_tail_ms", t.value);
    }
    out.set("hybrid.outer_iters", iterations(&solves));
    let fell = solves
        .iter()
        .filter(|s| s.sol.as_ref().is_some_and(|x| x.fell_back))
        .count();
    out.set("hybrid.fallback_ratio", fell as f64 / solves.len() as f64);

    // A republished snapshot has the same weights and an empty cache, so
    // the replay's surrogate calls miss just as the untraced ones did.
    let _ = engine.model_mut();
    let fresh = engine.snapshot();
    let rec = Arc::new(Recorder::default());
    let replayed = &solves[..REPLAYED.min(solves.len())];
    let mut same = true;
    let (_, traced_s) = timed(|| {
        for (i, s) in replayed.iter().enumerate() {
            let sol = replay(&rec, &fresh, &s.omega, i as u64);
            same &= s
                .sol
                .as_ref()
                .is_some_and(|orig| bitwise_eq(&orig.u, &sol.u));
        }
    });
    out.check("traced replay certified u bitwise equal to untraced", same);
    let untraced_s: f64 = replayed.iter().map(|s| s.ms / 1e3).sum();
    let spans = rec.spans();
    let per_solve = |name: &str| -> f64 {
        1e3 * spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum::<f64>()
            / replayed.len() as f64
    };
    out.set("hybrid.assemble_ms", per_solve("hybrid.assemble"));
    out.set(
        "hybrid.hierarchy_build_ms",
        per_solve("hybrid.hierarchy_build"),
    );
    out.set("hybrid.surrogate_ms", per_solve("core.surrogate_predict"));
    let selfs = self_times(&spans);
    let solve_self: f64 = spans
        .iter()
        .filter(|s| s.name == "hybrid.solve")
        .map(|s| selfs[&s.id])
        .sum();
    out.set(
        "hybrid.solve_self_ms",
        1e3 * solve_self / replayed.len() as f64,
    );
    probe_fem(&mut out, &solves[0].omega, &fresh);
    // One forward on an unseen ω: the surrogate's inference alone.
    let unseen = omegas(cfg.seed, stream::SAMPLE + 400, 5, 4);
    let mut it = unseen.into_iter();
    out.set(
        "nn.infer_ms",
        1e3 * median_time(5, || {
            fresh
                .predict_request(&InferenceRequest::omega(it.next().unwrap()))
                .expect("infer");
        }),
    );
    let hot = InferenceRequest::omega(solves[0].omega.clone());
    fresh.predict_request(&hot).expect("hit warm");
    out.set(
        "core.hit_ms",
        1e3 * median_time(21, || {
            fresh.predict_request(&hot).expect("hit");
        }),
    );
    out.set(
        "field.rasterize_ms",
        rasterize_ms(&solves[0].omega, &dims()),
    );
    gemm_probes(&mut out, RES, FILTERS);
    out.set_trace(spans, traced_s, untraced_s);
    out
}

/// `EngineSnapshot::solve_certified` rebuilt from the public layers, each
/// call a span, with the surrogate a closure around `predict`.
fn replay(rec: &Recorder, snap: &EngineSnapshot, omega: &[f64], req: u64) -> CertifiedSolution {
    let r = Some(req);
    rec.span("e2e.solve", r, || {
        let nu = rec.span("field.rasterize", r, || {
            DiffusivityModel::paper().rasterize(omega, &dims())
        });
        let sys = rec
            .span("hybrid.assemble", r, || {
                ErasedSystem::with_operator(
                    &dims(),
                    PdeOperator::Poisson,
                    nu.as_slice(),
                    &BoundarySpec::default(),
                )
            })
            .expect("system assembles");
        let hier = rec
            .span("hybrid.hierarchy_build", r, || {
                ErasedHierarchy::build_with_precision(
                    &sys,
                    HierarchyOptions::default(),
                    Precision::F64,
                )
            })
            .expect("hierarchy builds");
        let surrogate = |d: &[usize], nu: &[f64]| -> Option<Vec<f64>> {
            rec.span("core.surrogate_predict", r, || {
                if d != &dims()[..] || nu.len() != d.iter().product::<usize>() {
                    return None;
                }
                let coeff = Tensor::from_vec(d.to_vec(), nu.to_vec());
                snap.predict(&coeff).ok().map(|u| u.as_slice().to_vec())
            })
        };
        let opts = CertifyOptions {
            tol: TOL,
            stall: StallPolicy::default(),
            ..Default::default()
        };
        rec.span("hybrid.solve", r, || {
            solve_certified(
                &sys,
                &hier,
                &surrogate,
                StrategyKind::InitialGuess,
                None,
                &opts,
            )
        })
    })
}

/// Direct timed calls on one assembled 24³ system: an operator apply, one
/// V-cycle of the finest hierarchy, and a residual norm.
fn probe_fem(out: &mut Outcome, omega: &[f64], snap: &EngineSnapshot) {
    let nu = DiffusivityModel::paper().rasterize(omega, &dims());
    let sys = ErasedSystem::with_operator(
        &dims(),
        PdeOperator::Poisson,
        nu.as_slice(),
        &BoundarySpec::default(),
    )
    .expect("system assembles");
    let hier =
        ErasedHierarchy::build_with_precision(&sys, HierarchyOptions::default(), Precision::F64)
            .expect("hierarchy builds");
    let n = sys.num_nodes();
    let coeff = Tensor::from_vec(dims(), nu.as_slice().to_vec());
    let u = snap.predict(&coeff).expect("predict").as_slice().to_vec();
    let rhs = vec![0.0; n];
    let mut r = vec![0.0; n];
    sys.residual_into(&u, &rhs, &mut r);
    let mut out_v = vec![0.0; n];
    out.set(
        "fem.apply_ms",
        1e3 * median_time(21, || LinearOp::apply(&sys, &u, &mut out_v)),
    );
    // Computed, not measured: read u and ν, write K·u, 8 bytes each.
    out.set("fem.apply_bytes", (3 * 8 * n) as f64);
    out.set(
        "fem.vcycle_ms",
        1e3 * median_time(11, || Precond::apply(&hier, &r, &mut out_v)),
    );
    out.set(
        "fem.residual_ms",
        1e3 * median_time(21, || {
            std::hint::black_box(sys.residual_norm(&u, &rhs));
        }),
    );
}
