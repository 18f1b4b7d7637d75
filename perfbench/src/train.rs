//! `train-halfv-3d`: the paper's training mechanism. `SolverEngine::train`
//! on 3D Poisson with the Half-V cycle over 8³→16³→32³, data-parallel on
//! two ranks, every phase a fixed number of epochs.

use crate::common::{
    calm_median, gemm_probes, median_time, rasterize_ms, repeated_setup, timed, timed_steal,
    with_cpu_util, Cfg, Outcome,
};
use crate::gen::sobol_omegas;
use crate::json::Json;
use crate::stats::median;
use crate::trace::{current, Recorder, Span};
use crate::wrap::{CommCounters, TracedComm, TracedModel, TracedOpt};
use mgd_dist::{global_minibatches, launch_with, local_minibatch, pad_indices, Comm};
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Adam, Model, Optimizer, UNet, UNetConfig};
use mgd_tensor::Tensor;
use mgdiffnet::{
    CycleKind, FemLoss, InferenceRequest, LossSpec, MgConfig, MgRunLog, MultigridTrainer,
    Parallelism, Problem, SolverEngine, TrainConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const RES: usize = 32;
const LEVELS: usize = 3;
const SAMPLES: usize = 16;
const BATCH: usize = 8;
const RANKS: usize = 2;
const DEPTH: usize = 2;
const FILTERS: usize = 8;
/// Epochs per phase; early-stopping patience exceeds it, so every phase
/// runs exactly this many.
const EPOCHS: usize = 1;
const LR: f64 = 3e-3;
const SETUPS: usize = 5;
const MIN_REPS: usize = 3;

fn dataset(seed: u64) -> Dataset {
    Dataset::from_omegas(
        sobol_omegas(seed, SAMPLES, DiffusivityModel::paper().num_modes()),
        DiffusivityModel::paper(),
        InputEncoding::LogNu,
    )
}

fn unet_config(seed: u64) -> UNetConfig {
    UNetConfig {
        two_d: false,
        in_channels: 1,
        depth: DEPTH,
        base_filters: FILTERS,
        batch_norm: true,
        seed,
        ..Default::default()
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: BATCH,
        seed,
        max_epochs: EPOCHS,
        patience: EPOCHS + 1,
        ..Default::default()
    }
}

fn build(seed: u64) -> SolverEngine {
    let tc = train_config(seed);
    SolverEngine::builder()
        .resolution([RES, RES, RES])
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .cycle(CycleKind::HalfV)
        .levels(LEVELS)
        .batch_size(tc.batch_size)
        .max_epochs(tc.max_epochs)
        .patience(tc.patience)
        .learning_rate(LR)
        .net_depth(DEPTH)
        .base_filters(FILTERS)
        .parallelism(Parallelism::Threads(RANKS))
        .seed(seed)
        .dataset(dataset(seed))
        .build()
        .expect("train engine builds")
}

/// Set-up: build the engine and warm the forward path with one batched
/// prediction over the finest-level training inputs.
fn setup(seed: u64) -> SolverEngine {
    let engine = build(seed);
    let fields: Vec<Tensor> = (0..BATCH)
        .map(|s| engine.dataset().nu_field(s, &[RES, RES, RES]))
        .collect();
    engine.predict_batch(&fields).expect("warm-up predict");
    engine
}

/// Training samples processed by one schedule (epochs × samples).
fn samples_per_schedule(log: &MgRunLog) -> f64 {
    log.phases.iter().map(|p| p.epochs).sum::<usize>() as f64 * SAMPLES as f64
}

struct Untraced {
    times: Vec<f64>,
    steal: Vec<f64>,
    losses: Vec<f64>,
    samples: f64,
    failed: u64,
    cpu_util: f64,
}

/// Trains fresh engines (same seed) back to back until the time budget is
/// spent; each schedule's wall time is one sample.
fn measure(cfg: &Cfg, budget_s: f64, min_reps: usize) -> Untraced {
    let mut u = Untraced {
        times: Vec::new(),
        steal: Vec::new(),
        losses: Vec::new(),
        samples: 0.0,
        failed: 0,
        cpu_util: 0.0,
    };
    let mut cpu = Vec::new();
    let start = std::time::Instant::now();
    while u.times.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let mut engine = build(cfg.seed);
        let ((res, s, steal), util) = with_cpu_util(|| timed_steal(|| engine.train()));
        cpu.push(util);
        match res {
            Ok(log) if log.final_loss.is_finite() => {
                u.samples = samples_per_schedule(&log);
                u.times.push(s);
                u.steal.push(steal);
                u.losses.push(log.final_loss);
            }
            _ => u.failed += 1,
        }
        if u.failed > 0 && u.times.is_empty() {
            break;
        }
    }
    u.cpu_util = median(&cpu);
    u
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    if !cfg.traced {
        out.set("setup_s", repeated_setup(SETUPS, || setup(cfg.seed)).1);
        let u = measure(cfg, cfg.seconds, MIN_REPS);
        check_untraced(&mut out, &u);
        if !u.times.is_empty() {
            let train_s = calm_median(&u.times, &u.steal);
            out.set("p50_ms", 1e3 * train_s);
            out.set("rate_per_s", u.samples / train_s);
        }
        return out;
    }
    // Traced run: a short untraced measurement, then the traced replay.
    drop(setup(cfg.seed));
    let u = measure(cfg, 0.0, 1);
    check_untraced(&mut out, &u);
    out.set("proc.cpu_util", u.cpu_util);
    let Some(&loss_ref) = u.losses.first() else {
        return out;
    };
    let untraced_s = median(&u.times);
    let rec = Arc::new(Recorder::default());
    let (replay, traced_s) = timed(|| replay(cfg.seed, &rec));
    let spans = rec.spans();
    out.attempted += 1;
    let (log, model, counters) = match replay {
        Ok(v) => v,
        Err(e) => {
            out.failed += 1;
            out.note("replay_error", e);
            return out;
        }
    };
    out.check(
        "traced replay final loss bitwise equal to untraced",
        log.final_loss.to_bits() == loss_ref.to_bits(),
    );
    out.set("core.final_loss", log.final_loss);
    rank0_metrics(&mut out, &spans);
    out.set(
        "dist.allreduce_calls",
        counters.allreduce_calls.load(Ordering::Relaxed) as f64,
    );
    out.set(
        "dist.allreduce_bytes",
        counters.allreduce_bytes.load(Ordering::Relaxed) as f64,
    );
    probe_epoch(&mut out, cfg.seed, model);
    gemm_probes(&mut out, RES, FILTERS);
    let omega = dataset(cfg.seed).omegas[0].clone();
    out.set("field.rasterize_ms", rasterize_ms(&omega, &[RES, RES, RES]));
    let engine = build(cfg.seed);
    let req = InferenceRequest::omega(omega);
    engine.predict_request(&req).expect("hit probe warm");
    out.set(
        "core.hit_ms",
        1e3 * median_time(21, || {
            engine.predict_request(&req).expect("hit probe");
        }),
    );
    out.set_trace(spans, traced_s, untraced_s);
    out
}

fn check_untraced(out: &mut Outcome, u: &Untraced) {
    out.attempted += (u.times.len() as u64) + u.failed;
    out.failed += u.failed;
    out.check(
        "every final loss is finite",
        u.losses.iter().all(|l| l.is_finite()),
    );
    out.check(
        "repeated schedules at one seed give bitwise-equal final losses",
        u.losses
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits()),
    );
    out.note(
        "unit",
        "one whole fixed Half-V schedule (train_s); rate = training samples/s",
    );
    out.note(
        "train_s",
        Json::Arr(u.times.iter().map(|&t| Json::from(t)).collect()),
    );
    if let Some(&loss) = u.losses.first() {
        out.note("train_final_loss", loss);
    }
    out.note("tail", "fewer than 20 schedules per run: median only");
}

type Replay = (MgRunLog, Box<dyn Model>, Arc<CommCounters>);

/// The engine's `Threads(2)` training path rebuilt from public parts, with
/// the model, optimizer and communicator wrapped for tracing.
fn replay(seed: u64, rec: &Arc<Recorder>) -> Result<Replay, String> {
    let schedule = MultigridTrainer::with_spec(
        MgConfig {
            cycle: CycleKind::HalfV,
            levels: LEVELS,
            ..Default::default()
        },
        train_config(seed),
        vec![RES, RES, RES],
        LossSpec::poisson(),
    )
    .map_err(|e| e.to_string())?;
    let data = dataset(seed);
    let base = TracedModel {
        inner: Box::new(UNet::new(unet_config(seed))),
        rec: Arc::clone(rec),
        infer_parent: Default::default(),
    };
    let opt = TracedOpt {
        inner: Box::new(Adam::new(LR)),
        rec: Arc::clone(rec),
    };
    let counters: Vec<Arc<CommCounters>> = (0..RANKS).map(|_| Arc::default()).collect();
    let replicas: Vec<_> = (0..RANKS)
        .map(|r| {
            (
                base.clone_model(),
                opt.clone_optimizer(),
                Arc::clone(&counters[r]),
            )
        })
        .collect();
    let results = rec.span("e2e.schedule", Some(0), || {
        let root = current();
        launch_with(replicas, |comm, (mut model, mut opt, counters)| {
            let rank = comm.rank() as u64;
            let comm = TracedComm {
                inner: comm,
                rec: Arc::clone(rec),
                counters,
            };
            rec.span_under("core.rank", root, Some(rank), || {
                schedule
                    .run(&mut model, &mut opt, &data, &comm)
                    .map(|log| (log, model))
            })
        })
    });
    let mut rank0 = None;
    for (r, res) in results.into_iter().enumerate() {
        let v = res.map_err(|e| e.to_string())?;
        if r == 0 {
            rank0 = Some(v);
        }
    }
    let (log, model) = rank0.ok_or("no rank 0")?;
    Ok((log, model, Arc::clone(&counters[0])))
}

/// Rank 0's per-layer seconds over the traced schedule.
fn rank0_metrics(out: &mut Outcome, spans: &[Span]) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let rank0 = spans
        .iter()
        .find(|s| s.name == "core.rank" && s.req == Some(0))
        .map(|s| s.id);
    let under_rank0 = |s: &Span| {
        let mut p = s.parent;
        while let Some(id) = p {
            if Some(id) == rank0 {
                return true;
            }
            p = by_id.get(&id).and_then(|x| x.parent);
        }
        false
    };
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && under_rank0(s))
            .map(Span::duration)
            .sum()
    };
    out.set("nn.forward_s", total("nn.forward"));
    out.set("nn.backward_s", total("nn.backward"));
    out.set("nn.optim_step_s", total("nn.optim_step"));
    out.set("dist.allreduce_s", total("dist.allreduce"));
    let selfs = crate::trace::self_times(spans);
    if let Some(id) = rank0 {
        out.set("core.trainer_self_s", selfs[&id]);
    }
}

/// Direct timed calls over one finest-level epoch of rank 0's minibatches:
/// input batching (`field.batch_s`) and the FEM loss with its gradient
/// (`core.loss_s`) on the trained model's outputs.
fn probe_epoch(out: &mut Outcome, seed: u64, mut model: Box<dyn Model>) {
    let data = dataset(seed);
    let dims = [RES, RES, RES];
    let loss = FemLoss::with_spec(&dims, &LossSpec::poisson()).expect("loss builds");
    let mut perm = data.epoch_permutation(seed, 0);
    pad_indices(&mut perm, BATCH);
    let batches: Vec<Vec<usize>> = global_minibatches(&perm, BATCH)
        .iter()
        .map(|mb| local_minibatch(mb, 0, RANKS).to_vec())
        .collect();
    let mut batch_s = 0.0;
    let mut loss_s = 0.0;
    for local in &batches {
        let ((x, nu), s) = timed(|| {
            (
                data.try_batch_inputs(local, &dims).expect("batch inputs"),
                data.try_batch_nu(local, &dims).expect("batch nu"),
            )
        });
        batch_s += s;
        let mut u = model.forward(&x, true);
        loss_s += timed(|| {
            loss.apply_bc_batch(&mut u);
            std::hint::black_box(loss.energy_grad_batch(&nu, &u));
        })
        .1;
    }
    out.set("field.batch_s", batch_s);
    out.set("core.loss_s", loss_s);
}
