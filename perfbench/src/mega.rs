//! `megavoxel-3d`: the paper's megavoxel inference. Unique ω at 128³
//! (2.1 Mvoxel) served slab-parallel over two ranks with halo exchange
//! (`SpatialThreads(2)`), net depth 3 and 8 base filters, one closed-loop
//! client.

use crate::common::{
    bitwise_eq, calm_median, gemm_probes, median_time, rasterize_ms, repeated_setup, timed,
    timed_steal, with_cpu_util, Cfg, Outcome,
};
use crate::gen::{omega, omegas, stream, Rng};
use crate::trace::{current, Recorder, Span};
use crate::wrap::{CommCounters, TracedComm};
use mgd_dist::{assemble_planes, carve_planes, launch_with, Comm, SlabLayout, SlabPartition};
use mgd_field::{stack_fields_with, DiffusivityModel, InputEncoding};
use mgd_nn::{infer_slab, SlabOpts, UNet, UNetConfig, Workspace};
use mgd_tensor::Tensor;
use mgdiffnet::{FemLoss, InferenceRequest, LossSpec, Parallelism, Problem, SolverEngine};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const RES: usize = 128;
const RANKS: usize = 2;
const DEPTH: usize = 3;
const FILTERS: usize = 8;
const BUILDS: usize = 3;
const MIN_REQUESTS: usize = 3;
/// Requests replayed with tracing in a traced run.
const REPLAYED: usize = 2;

fn dims() -> Vec<usize> {
    vec![RES, RES, RES]
}

fn unet(seed: u64) -> UNet {
    UNet::new(UNetConfig {
        two_d: false,
        in_channels: 1,
        depth: DEPTH,
        base_filters: FILTERS,
        batch_norm: true,
        seed,
        ..Default::default()
    })
}

fn build(seed: u64, parallelism: Parallelism) -> SolverEngine {
    SolverEngine::builder()
        .resolution(dims())
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(DEPTH)
        .base_filters(FILTERS)
        .parallelism(parallelism)
        .seed(seed)
        .build()
        .expect("megavoxel engine builds")
}

/// Set-up: the median of `BUILDS` slab-parallel engine builds (weights
/// prepacked, rank pool spawned at publish) plus one warm-up request on
/// the last engine — a 128³ forward is too long to repeat per build.
fn setup(seed: u64) -> (SolverEngine, f64) {
    let (engine, build_s) =
        repeated_setup(BUILDS, || build(seed, Parallelism::SpatialThreads(RANKS)));
    let warm = omegas(seed, stream::SAMPLE + 500, 1, 4).remove(0);
    let (res, warm_s) = timed(|| engine.predict_request(&InferenceRequest::omega(warm)));
    res.expect("warm-up request");
    (engine, build_s + warm_s)
}

struct Served {
    omegas: Vec<Vec<f64>>,
    secs: Vec<f64>,
    steal: Vec<f64>,
    first: Option<Arc<Tensor>>,
    failed: u64,
    wall: f64,
}

fn closed_loop(engine: &SolverEngine, seed: u64, budget_s: f64, min: usize) -> Served {
    let mut unique = Rng::new(seed, stream::UNIQUE);
    let mut s = Served {
        omegas: Vec::new(),
        secs: Vec::new(),
        steal: Vec::new(),
        first: None,
        failed: 0,
        wall: 0.0,
    };
    let start = std::time::Instant::now();
    while s.secs.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let w = omega(&mut unique, 4);
        let (res, t, steal) =
            timed_steal(|| engine.predict_request(&InferenceRequest::omega(w.clone())));
        match res {
            Ok(u) if u.dims() == dims() && !u.has_non_finite() => {
                if s.first.is_none() {
                    s.first = Some(u);
                }
            }
            _ => s.failed += 1,
        }
        s.omegas.push(w);
        s.secs.push(t);
        s.steal.push(steal);
    }
    s.wall = start.elapsed().as_secs_f64();
    s
}

/// The first answer against the `Serial` engine's forward; returns the
/// serial forward's seconds.
fn check_serial(out: &mut Outcome, seed: u64, s: &Served) -> f64 {
    out.attempted += s.secs.len() as u64;
    out.failed += s.failed;
    out.check(
        "every answer has shape [128, 128, 128] and is finite",
        s.failed == 0,
    );
    let serial = build(seed, Parallelism::Serial);
    let (reference, secs) =
        timed(|| serial.predict_request(&InferenceRequest::omega(s.omegas[0].clone())));
    let same = match (&s.first, reference) {
        (Some(a), Ok(b)) => bitwise_eq(a.as_slice(), b.as_slice()),
        _ => false,
    };
    out.failed += u64::from(!same);
    out.check("first answer bitwise equal to the Serial forward", same);
    secs
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    if !cfg.traced {
        let (engine, setup_s) = setup(cfg.seed);
        out.set("setup_s", setup_s);
        let s = closed_loop(&engine, cfg.seed, cfg.seconds, MIN_REQUESTS);
        drop(engine);
        let p50 = calm_median(&s.secs, &s.steal);
        out.set("p50_ms", 1e3 * p50);
        // One client: throughput is the reciprocal of the median request.
        out.set("rate_per_s", 1.0 / p50);
        out.note(
            "unit",
            "one 128^3 request (megavoxel_forward_s); rate = 1 / median request",
        );
        out.note("requests_per_wall_s", s.secs.len() as f64 / s.wall);
        out.note("requests", s.secs.len());
        out.note("tail", "fewer than 20 requests per run: median only");
        check_serial(&mut out, cfg.seed, &s);
        return out;
    }
    let (engine, _) = setup(cfg.seed);
    let before = engine.stats();
    let (s, util) = with_cpu_util(|| closed_loop(&engine, cfg.seed, cfg.seconds / 2.0, REPLAYED));
    out.set_serve_stats(&before, &engine.stats());
    out.set("proc.cpu_util", util);
    let hot = InferenceRequest::omega(s.omegas[0].clone());
    out.set(
        "core.hit_ms",
        1e3 * median_time(21, || {
            engine.predict_request(&hot).expect("hit");
        }),
    );
    let answers: Vec<Arc<Tensor>> = s.omegas[..REPLAYED]
        .iter()
        .map(|w| {
            engine
                .predict_request(&InferenceRequest::omega(w.clone()))
                .expect("cached")
        })
        .collect();
    drop(engine);
    let serial_s = check_serial(&mut out, cfg.seed, &s);
    out.set("nn.serial_forward_s", serial_s);

    let rec = Arc::new(Recorder::default());
    let mut net = unet(cfg.seed);
    net.prepack();
    let net = Arc::new(net);
    let loss = FemLoss::with_spec(&dims(), &LossSpec::poisson()).expect("loss builds");
    let mut halo = (0.0, 0.0);
    let mut same = true;
    let mut traced_s = 0.0;
    for (i, w) in s.omegas[..REPLAYED].iter().enumerate() {
        let (u, t) = timed(|| replay(&rec, &net, &loss, w, i as u64));
        traced_s += t;
        same &= bitwise_eq(u.0.as_slice(), answers[i].as_slice());
        halo.0 += u.1 as f64;
        halo.1 += u.2 as f64;
    }
    out.check("traced replay slab output bitwise equal to untraced", same);
    out.set("dist.halo_msgs", halo.0 / REPLAYED as f64);
    out.set("dist.halo_bytes", halo.1 / REPLAYED as f64);
    let spans = rec.spans();
    rank_metrics(&mut out, &spans, serial_s);
    out.set("field.rasterize_ms", rasterize_ms(&s.omegas[0], &dims()));
    gemm_probes(&mut out, RES, FILTERS);
    let untraced_s: f64 = s.secs[..REPLAYED].iter().sum();
    out.set_trace(spans, traced_s, untraced_s);
    out
}

/// One request through the slab-parallel path rebuilt from public parts:
/// rasterize, encode, carve, `infer_slab` per rank over a traced
/// communicator, assemble, impose BCs. Returns the field and the halo
/// messages and bytes sent by all ranks.
fn replay(
    rec: &Arc<Recorder>,
    net: &Arc<UNet>,
    loss: &FemLoss,
    omega: &[f64],
    req: u64,
) -> (Tensor, u64, u64) {
    let r = Some(req);
    rec.span("e2e.request", r, || {
        let x = rec.span("field.rasterize", r, || {
            let nu = DiffusivityModel::paper().rasterize(omega, &dims());
            let enc = InputEncoding::LogNu.encode_coeff(&nu, 1);
            stack_fields_with(&[enc], 3).expect("stack")
        });
        let part = SlabPartition::aligned(RES, RANKS, 1 << DEPTH).expect("partition");
        let layout = SlabLayout {
            pre: 1,
            split: RES,
            post: RES * RES,
        };
        let counters: Vec<Arc<CommCounters>> = (0..RANKS).map(|_| Arc::default()).collect();
        let root = current();
        let slabs = launch_with(counters.clone(), |comm, counters| {
            let rank = comm.rank();
            let comm = TracedComm {
                inner: comm,
                rec: Arc::clone(rec),
                counters,
            };
            rec.span_under("nn.slab", root, Some(rank as u64), || {
                let owned = part.owned_planes(rank);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let slab = Tensor::from_vec(vec![1, 1, owned.len(), RES, RES], data);
                let opts = SlabOpts {
                    overlap: true,
                    spill_dir: None,
                };
                infer_slab(net.as_ref(), &slab, &comm, &mut Workspace::new(), &opts).into_vec()
            })
        });
        let u = rec.span("core.assemble", r, || {
            let mut u = Tensor::from_vec(
                vec![1, 1, RES, RES, RES],
                assemble_planes(&slabs, 1, layout.post),
            );
            loss.apply_bc_batch(&mut u);
            Tensor::from_vec(dims(), u.into_vec())
        });
        let msgs = counters
            .iter()
            .map(|c| c.msgs_sent.load(Ordering::Relaxed))
            .sum();
        let bytes = counters
            .iter()
            .map(|c| c.bytes_sent.load(Ordering::Relaxed))
            .sum();
        (u, msgs, bytes)
    })
}

/// Per-rank compute (slab span minus its halo waits), waits and imbalance,
/// averaged over the replayed requests.
fn rank_metrics(out: &mut Outcome, spans: &[Span], serial_s: f64) {
    let mut wait: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "dist.halo_wait") {
        *wait.entry(s.parent.unwrap_or(0)).or_default() += s.duration();
    }
    let mut by_req: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "nn.slab") {
        let w = wait.get(&s.id).copied().unwrap_or(0.0);
        let parent_req = spans
            .iter()
            .find(|p| Some(p.id) == s.parent)
            .and_then(|p| p.req)
            .unwrap_or(0);
        by_req
            .entry(parent_req)
            .or_default()
            .push((s.duration() - w, w));
    }
    let n = by_req.len().max(1) as f64;
    let (mut compute, mut waited, mut imbalance) = (0.0, 0.0, 0.0);
    for ranks in by_req.values() {
        let max_c = ranks.iter().map(|r| r.0).fold(0.0, f64::max);
        let min_c = ranks.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        compute += max_c / n;
        waited += ranks.iter().map(|r| r.1).fold(0.0, f64::max) / n;
        imbalance += max_c / min_c / n;
    }
    out.set("nn.slab_compute_s", compute);
    out.set("dist.halo_wait_s", waited);
    out.set("dist.rank_imbalance", imbalance);
    out.set("nn.spatial_efficiency", serial_s / (RANKS as f64 * compute));
}
