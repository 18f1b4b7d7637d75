//! `serve-hot-2d`: the micro-batching queue with its prediction cache.
//! Two queue workers over a 64² 2D snapshot. Phase 1 is an open loop at a
//! fixed Poisson rate; phase 2 a closed loop that keeps
//! `max_batch × workers` requests outstanding. Half the requests repeat one
//! of 48 hot ω, half are unique.

use crate::common::{
    bitwise_eq, calm, gemm_probes, median_time, rasterize_ms, repeated_setup, timed, timed_steal,
    with_cpu_util, Cfg, Outcome,
};
use crate::gen::{omegas, poisson_arrivals, stream, RequestMix, Rng};
use crate::json::Json;
use crate::stats::{median, percentile, tail};
use crate::trace::{current, Recorder};
use crate::wrap::TracedModel;
use mgd_field::DiffusivityModel;
use mgd_nn::{Model, UNet, UNetConfig};
use mgd_serve::{ServeQueue, Ticket};
use mgd_tensor::Tensor;
use mgdiffnet::{InferenceRequest, MgdResult, Problem, SolverEngine};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const RES: usize = 64;
const WORKERS: usize = 2;
/// Open-loop arrival rate of phase 1, requests per second: about a quarter
/// of the closed-loop capacity measured on a 2-core AVX-512 Xeon. At half
/// of capacity, queueing amplified the shared machine's speed drift into
/// run-to-run p50 swings of 10-17 ms.
pub const RATE: f64 = 60.0;
const HOT_SET: usize = 48;
const HOT_SHARE: f64 = 0.5;
/// Share of the run spent in the open-loop phase.
const PHASE1_SHARE: f64 = 0.6;
/// The run alternates the two phases this many times, so both sample the
/// same machine conditions.
const ROUNDS: u64 = 5;
/// Answers compared bit for bit against a direct `predict_request`: at
/// most this many, drawn one in `KEEP_EVERY`.
const SAMPLED: usize = 24;
const KEEP_EVERY: u64 = 64;
/// Generator lateness (p99, ms) beyond which a run is flagged as having
/// fallen behind its schedule.
const LAG_FLAG_MS: f64 = 5.0;
const SETUPS: usize = 5;
const DEPTH: usize = 2;
const FILTERS: usize = 8;

fn unet(seed: u64) -> UNet {
    UNet::new(UNetConfig {
        two_d: true,
        in_channels: 1,
        depth: DEPTH,
        base_filters: FILTERS,
        batch_norm: true,
        seed,
        ..Default::default()
    })
}

fn build(seed: u64, model: Box<dyn Model>, cache: usize) -> SolverEngine {
    SolverEngine::builder()
        .resolution([RES, RES])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .model(model)
        .seed(seed)
        .cache_capacity(cache)
        .build()
        .expect("serve engine builds")
}

fn modes() -> usize {
    DiffusivityModel::paper().num_modes()
}

/// Set-up: build the engine, start the queue, and push one full batch of
/// warm-up requests (a stream of their own) through it.
fn setup(seed: u64, model: Box<dyn Model>) -> (SolverEngine, ServeQueue) {
    let engine = build(seed, model, 64);
    let queue = ServeQueue::for_engine(&engine, WORKERS);
    let tickets: Vec<Ticket> = omegas(seed, stream::SAMPLE + 100, 16, modes())
        .into_iter()
        .map(|o| {
            queue
                .submit(InferenceRequest::omega(o))
                .expect("warm-up admit")
        })
        .collect();
    for t in tickets {
        t.wait().expect("warm-up answer");
    }
    (engine, queue)
}

/// One answered (or refused) request. Only a seeded sample of the fields
/// is kept, for the bitwise check; the rest are validated and dropped.
struct Answer {
    omega: Vec<f64>,
    latency_ms: f64,
    /// Answered with a finite field of the right shape.
    ok: bool,
    answered: bool,
    kept: Option<Arc<Tensor>>,
}

impl Answer {
    fn new(omega: Vec<f64>, latency_ms: f64, result: MgdResult<Arc<Tensor>>) -> Answer {
        let ok = matches!(&result, Ok(u) if u.dims() == [RES, RES] && !u.has_non_finite());
        // A deterministic one-in-KEEP_EVERY sample, chosen by the input
        // itself so thread timing cannot change which answers are checked.
        let h = omega
            .iter()
            .fold(0, |h, w| Rng::new(h ^ w.to_bits(), 0).next_u64());
        let answered = result.is_ok();
        let kept = result.ok().filter(|_| ok && h % KEEP_EVERY == 0);
        Answer {
            omega,
            latency_ms,
            ok,
            answered,
            kept,
        }
    }
}

#[derive(Default)]
struct Phase1 {
    answers: Vec<Answer>,
    lateness_ms: Vec<f64>,
    admit_us: Vec<f64>,
}

impl Phase1 {
    fn extend(&mut self, other: Phase1) {
        self.answers.extend(other.answers);
        self.lateness_ms.extend(other.lateness_ms);
        self.admit_us.extend(other.admit_us);
    }
}

/// The open loop: sends on the precomputed schedule no matter how the
/// server keeps up; latency runs from each request's *scheduled* send.
fn open_loop(
    queue: &ServeQueue,
    arrivals: &[f64],
    mix: &mut RequestMix,
    rec: Option<&Recorder>,
) -> Phase1 {
    let (tx, rx) = mpsc::channel::<(Vec<f64>, Instant, MgdResult<Ticket>)>();
    let collector = std::thread::spawn(move || {
        rx.into_iter()
            .map(|(omega, due, ticket)| match ticket {
                Ok(t) => {
                    let (result, done) = t.wait_timed();
                    let latency_ms = 1e3 * done.saturating_duration_since(due).as_secs_f64();
                    Answer::new(omega, latency_ms, result)
                }
                Err(e) => Answer::new(omega, f64::INFINITY, Err(e)),
            })
            .collect::<Vec<_>>()
    });
    let mut lateness_ms = Vec::with_capacity(arrivals.len());
    let mut admit_us = Vec::with_capacity(arrivals.len());
    let t0 = Instant::now();
    for (i, &at) in arrivals.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lateness_ms.push(1e3 * sent.saturating_duration_since(due).as_secs_f64());
        let (omega, _) = mix.next_request();
        let req = InferenceRequest::omega(omega.clone());
        let (ticket, s) = match rec {
            Some(r) => timed(|| r.span("serve.admit", Some(i as u64), || queue.submit(req))),
            None => timed(|| queue.submit(req)),
        };
        admit_us.push(1e6 * s);
        tx.send((omega, due, ticket)).expect("collector alive");
    }
    drop(tx);
    let answers = collector.join().expect("collector thread");
    Phase1 {
        answers,
        lateness_ms,
        admit_us,
    }
}

/// One open-loop window followed by one closed-loop window, with the CPU
/// steal share while both ran.
struct Round {
    open: Phase1,
    closed: Vec<Answer>,
    closed_s: f64,
    steal: f64,
}

/// Median latency of an open-loop window, refused requests included.
fn p50_ms(p: &Phase1) -> f64 {
    median(&p.answers.iter().map(|a| a.latency_ms).collect::<Vec<_>>())
}

/// The closed loop: at most `max_batch × workers` requests outstanding;
/// returns the answers and the seconds it ran, including the drain.
fn closed_loop(
    queue: &ServeQueue,
    mix: &mut RequestMix,
    budget_s: f64,
    window: usize,
) -> (Vec<Answer>, f64) {
    let mut inflight: VecDeque<(Vec<f64>, Instant, MgdResult<Ticket>)> = VecDeque::new();
    let mut answers = Vec::new();
    let t0 = Instant::now();
    loop {
        let open = t0.elapsed().as_secs_f64() < budget_s;
        while open && inflight.len() < window {
            let (omega, _) = mix.next_request();
            let ticket = queue.submit(InferenceRequest::omega(omega.clone()));
            inflight.push_back((omega, Instant::now(), ticket));
        }
        let Some((omega, sent, ticket)) = inflight.pop_front() else {
            break;
        };
        let (result, latency_ms) = match ticket {
            Ok(t) => {
                let (r, done) = t.wait_timed();
                (r, 1e3 * done.saturating_duration_since(sent).as_secs_f64())
            }
            Err(e) => (Err(e), f64::INFINITY),
        };
        answers.push(Answer::new(omega, latency_ms, result));
    }
    (answers, t0.elapsed().as_secs_f64())
}

/// Shape and finiteness of every answer, and a seeded sample compared bit
/// for bit against a cache-free engine's direct `predict_request`.
fn check_answers(out: &mut Outcome, seed: u64, answers: &[&Answer]) {
    let failed = answers.iter().filter(|a| !a.ok).count() as u64;
    out.attempted += answers.len() as u64;
    out.failed += failed;
    out.check("every answer has shape [64, 64] and is finite", failed == 0);
    let reference = build(seed, Box::new(unet(seed)), 0);
    let mut mismatched = 0usize;
    let sampled: Vec<&Answer> = answers
        .iter()
        .filter(|a| a.kept.is_some())
        .take(SAMPLED)
        .copied()
        .collect();
    out.note("bitwise_sampled", sampled.len());
    for a in sampled {
        let u = a.kept.as_ref().expect("kept");
        let direct = reference
            .predict_request(&InferenceRequest::omega(a.omega.clone()))
            .expect("direct predict");
        if !bitwise_eq(u.as_slice(), direct.as_slice()) {
            mismatched += 1;
        }
    }
    out.failed += mismatched as u64;
    out.check(
        "sampled answers bitwise equal to a direct EngineSnapshot::predict_request",
        mismatched == 0,
    );
}

fn note_phase1(out: &mut Outcome, p1: &Phase1) -> Vec<f64> {
    let lat: Vec<f64> = p1
        .answers
        .iter()
        .filter(|a| a.answered)
        .map(|a| a.latency_ms)
        .collect();
    let lag_p99 = percentile(&p1.lateness_ms, 99.0);
    out.note("phase1_rate_per_s", RATE);
    out.note("phase1_requests", p1.answers.len());
    out.note(
        "phase1_refused",
        p1.answers.iter().filter(|a| !a.answered).count(),
    );
    out.note_tail("phase1_tail", tail(&lat));
    out.note(
        "generator_lateness_ms",
        Json::obj([
            ("p50", Json::from(median(&p1.lateness_ms))),
            ("p99", Json::from(lag_p99)),
            ("max", Json::from(percentile(&p1.lateness_ms, 100.0))),
        ]),
    );
    out.note("generator_fell_behind", lag_p99 > LAG_FLAG_MS);
    lat
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let p1_s = PHASE1_SHARE * cfg.seconds;
    let p2_s = cfg.seconds - p1_s;
    if !cfg.traced {
        let ((engine, queue), setup_s) =
            repeated_setup(SETUPS, || setup(cfg.seed, Box::new(unet(cfg.seed))));
        out.set("setup_s", setup_s);
        let window = engine.serve_options().max_batch * WORKERS;
        let mut open_mix = RequestMix::new(cfg.seed, 0, HOT_SET, HOT_SHARE, modes());
        let mut closed_mix = RequestMix::new(cfg.seed, 1, HOT_SET, HOT_SHARE, modes());
        let mut rounds = Vec::new();
        for round in 0..ROUNDS {
            let arrivals = poisson_arrivals(cfg.seed, round, RATE, p1_s / ROUNDS as f64);
            let ((open, (closed, closed_s)), _, steal) = timed_steal(|| {
                let open = open_loop(&queue, &arrivals, &mut open_mix, None);
                let budget = p2_s / ROUNDS as f64;
                (open, closed_loop(&queue, &mut closed_mix, budget, window))
            });
            rounds.push(Round {
                open,
                closed,
                closed_s,
                steal,
            });
        }
        queue.shutdown();
        drop(engine);
        let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
        let calm_rounds: Vec<_> = rounds
            .iter()
            .zip(calm(&steal))
            .filter(|(_, c)| *c)
            .map(|(r, _)| r)
            .collect();
        let lat: Vec<f64> = calm_rounds
            .iter()
            .flat_map(|r| {
                r.open
                    .answers
                    .iter()
                    .filter(|a| a.answered)
                    .map(|a| a.latency_ms)
            })
            .collect();
        if !lat.is_empty() {
            out.set("p50_ms", median(&lat));
        }
        let closed: usize = calm_rounds.iter().map(|r| r.closed.len()).sum();
        let closed_s: f64 = calm_rounds.iter().map(|r| r.closed_s).sum();
        out.set("rate_per_s", closed as f64 / closed_s);
        out.note(
            "unit",
            "phase-1 request latency from its scheduled send; rate = phase-2 answers per \
             second of closed-loop time; both over the rounds with at most the median steal",
        );
        let json = |f: &dyn Fn(&Round) -> f64| {
            Json::Arr(rounds.iter().map(|r| Json::from(f(r))).collect())
        };
        out.note("round_p50_ms", json(&|r| p50_ms(&r.open)));
        out.note(
            "round_rate_per_s",
            json(&|r| r.closed.len() as f64 / r.closed_s),
        );
        out.note("round_steal_share", json(&|r| r.steal));
        let mut p1 = Phase1::default();
        let mut p2 = Vec::new();
        for r in rounds {
            p1.extend(r.open);
            p2.extend(r.closed);
        }
        note_phase1(&mut out, &p1);
        let all: Vec<&Answer> = p1.answers.iter().chain(&p2).collect();
        check_answers(&mut out, cfg.seed, &all);
        return out;
    }
    // Traced run: the open loop untraced, then the same schedule and mix
    // again on an identically built engine whose model view is traced.
    let (engine, queue) = setup(cfg.seed, Box::new(unet(cfg.seed)));
    let before = engine.stats();
    let q0 = queue.stats();
    // One open-loop window of the whole phase-1 length, replayed traced
    // below with the same schedule and mix.
    let arrivals = poisson_arrivals(cfg.seed, 0, RATE, p1_s);
    let mix = || RequestMix::new(cfg.seed, 0, HOT_SET, HOT_SHARE, modes());
    let (p1, util) = with_cpu_util(|| open_loop(&queue, &arrivals, &mut mix(), None));
    let qs = queue.stats();
    out.set_serve_stats(&before, &engine.stats());
    queue.shutdown();
    let lat = note_phase1(&mut out, &p1);
    out.set("proc.cpu_util", util);
    out.set("serve.generator_lag_ms", percentile(&p1.lateness_ms, 99.0));
    if let Some(t) = tail(&lat) {
        out.set("serve.tail_ms", t.value);
    }
    let batches = (qs.batches - q0.batches) as f64;
    let mean_batch = (qs.served - q0.served) as f64 / batches.max(1.0);
    out.set("serve.batches", batches);
    out.set("serve.mean_batch", mean_batch);
    let answers: Vec<&Answer> = p1.answers.iter().collect();
    check_answers(&mut out, cfg.seed, &answers);

    // Direct calls on the untraced snapshot: a miss batch of the observed
    // mean size, and a cache hit.
    let snap = engine.snapshot();
    let n = (mean_batch.round() as usize).max(1);
    let mut fresh = omegas(cfg.seed, stream::SAMPLE + 200, 5 * n, modes()).into_iter();
    let infer_ms = 1e3
        * median_time(5, || {
            let reqs: Vec<InferenceRequest> = (0..n)
                .map(|_| InferenceRequest::omega(fresh.next().unwrap()))
                .collect();
            snap.predict_requests(&reqs).expect("miss batch");
        });
    out.set("nn.infer_ms", infer_ms);
    if !lat.is_empty() {
        out.set("serve.queue_wait_derived_ms", median(&lat) - infer_ms);
    }
    out.note(
        "serve.queue_wait_derived_ms",
        "derived: phase-1 p50 latency minus nn.infer_ms at the mean batch size",
    );
    let hot = InferenceRequest::omega(
        RequestMix::new(cfg.seed, 0, HOT_SET, 1.0, modes())
            .next_request()
            .0,
    );
    snap.predict_request(&hot).expect("hit warm");
    out.set(
        "core.hit_ms",
        1e3 * median_time(21, || {
            snap.predict_request(&hot).expect("hit");
        }),
    );
    let omega = omegas(cfg.seed, stream::UNIQUE, 1, modes()).remove(0);
    out.set("field.rasterize_ms", rasterize_ms(&omega, &[RES, RES]));
    gemm_probes(&mut out, 32, FILTERS);
    drop((snap, engine));

    let rec = Arc::new(Recorder::default());
    let traced = TracedModel {
        inner: Box::new(unet(cfg.seed)),
        rec: Arc::clone(&rec),
        infer_parent: Default::default(),
    };
    let parent = Arc::clone(&traced.infer_parent);
    let (tengine, tqueue) = setup(cfg.seed, Box::new(traced));
    let p1t = rec.span("e2e.phase", None, || {
        parent.store(current().unwrap_or(0), Ordering::Relaxed);
        open_loop(&tqueue, &arrivals, &mut mix(), Some(&rec))
    });
    tqueue.shutdown();
    drop(tengine);
    let admit: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "serve.admit")
        .map(|s| 1e6 * s.duration())
        .collect();
    if !admit.is_empty() {
        out.set("serve.admit_us", median(&admit));
    }
    out.note("untraced_admit_us_p50", median(&p1.admit_us));
    // Warm-up spans before the phase began are not part of it.
    let phase = rec
        .spans()
        .into_iter()
        .filter(|s| s.parent.is_some() || s.name == "e2e.phase");
    // The open loop's wall time is fixed by its schedule, so the overhead
    // is read from the median latency of the same schedule.
    out.set_trace(phase.collect(), p50_ms(&p1t), p50_ms(&p1));
    out
}
