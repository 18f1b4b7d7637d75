//! Machine-readable spatial-serving benchmark: slab-decomposed megavoxel
//! inference through `Parallelism::SpatialThreads` / `Parallelism::Grid`.
//!
//! Four sections, written as JSON so the scaling trajectory is trackable
//! across commits:
//!
//! 1. **equality** — serial-vs-spatial agreement per configuration, with
//!    the verification method recorded per row: bitwise for the f64 path
//!    (overlap on, overlap off, and skip-spill streaming) and a 1e-5
//!    relative tolerance for the f32 slab path.
//! 2. **pool** — spawn-per-request (`launch_with`) vs the persistent
//!    `SlabPool` on a small slab forward: the pool-on/off latency delta
//!    and the rank-spawn counters behind it.
//! 3. **megavoxel** — the 192³ (~7.1 Mvoxel) acceptance domain with
//!    overlap-on/off forward times, best-of-2 serial reference, modelled
//!    *and measured* per-rank activation peaks (the run aborts if the
//!    measurement ever exceeds the model), and — in full mode — the
//!    equal-cores throughput gate `spatial <= serial`.
//! 4. **out_of_core** — a 768³ (~453 Mvoxel) domain whose serial
//!    activation model (~135 GB) does not fit this machine's RAM, served
//!    through the slab-streaming mode (overlap + per-rank skip spill).
//!
//! ```text
//! cargo run --release -p mgd-bench --bin spatial_report              # full
//! cargo run --release -p mgd-bench --bin spatial_report -- --quick  # CI smoke
//! cargo run --release -p mgd-bench --bin spatial_report -- out.json
//! ```
//!
//! Default output path: `results/BENCH_spatial.json`. Activation numbers
//! come from [`mgd_nn::activation_peak_elems_opts`] — a live-tensor model
//! of the forward walk (weights and the assembled I/O fields are excluded
//! on both sides of the comparison) — cross-checked on every timed run
//! against the allocation meter each rank keeps on its workspace
//! ([`mgd_nn::Workspace::measured_peak_elems`]), maxed over the ranks in
//! `ServeStats::slab_activation_peak_elems`.

use mgd_dist::{launch_with, Comm, SlabLayout, SlabPartition, SlabPool};
use mgd_nn::{
    activation_peak_elems, activation_peak_elems_opts, infer_slab, SlabOpts, UNet, UNetConfig,
    Workspace,
};
use mgdiffnet::prelude::*;
use mgdiffnet::Precision;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const MB: f64 = 1024.0 * 1024.0;
const GB: f64 = MB * 1024.0;

/// One engine configuration under measurement.
struct Cfg {
    res: Vec<usize>,
    depth: usize,
    filters: usize,
    par: Parallelism,
    precision: Precision,
    overlap: bool,
    spill: Option<PathBuf>,
}

impl Cfg {
    fn new(res: &[usize], depth: usize, filters: usize, par: Parallelism) -> Self {
        Cfg {
            res: res.to_vec(),
            depth,
            filters,
            par,
            precision: Precision::F64,
            overlap: true,
            spill: None,
        }
    }

    fn build(&self) -> SolverEngine {
        let problem = if self.res.len() == 3 {
            Problem::poisson_3d(DiffusivityModel::paper())
        } else {
            Problem::poisson_2d(DiffusivityModel::paper())
        };
        let b = SolverEngine::builder()
            .resolution(self.res.clone())
            .problem(problem)
            .levels(1)
            .net_depth(self.depth)
            .base_filters(self.filters)
            .samples(1)
            .batch_size(1)
            .seed(7)
            .cache_capacity(0) // measure forwards, not cache replays
            .precision(self.precision)
            .spatial_overlap(self.overlap)
            .parallelism(self.par);
        let b = match &self.spill {
            Some(dir) => b.spatial_spill_dir(dir.clone()),
            None => b,
        };
        b.build().expect("bench engine")
    }
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("mgd_spatial_report_spill");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `MemTotal` of this machine in GB (None off Linux).
fn ram_gb() -> Option<f64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb: f64 = info
        .lines()
        .find(|l| l.starts_with("MemTotal:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / MB)
}

/// Serial-vs-spatial equality on one configuration. f64 rows must be
/// bitwise identical; the f32 slab path is checked to 1e-5 relative
/// tolerance. Panics on any violation (this bin doubles as a smoke gate
/// in CI's `--quick` mode) and returns the JSON record with the method
/// used on the row.
fn equality_case(res: &[usize], depth: usize, p: usize, mode: &str) -> Value {
    let mut serial = Cfg::new(res, depth, 4, Parallelism::Serial);
    let mut spatial = Cfg::new(res, depth, 4, Parallelism::SpatialThreads(p));
    match mode {
        "overlap" => {}
        "no-overlap" => spatial.overlap = false,
        "spill" => spatial.spill = Some(scratch_dir()),
        "f32" => {
            serial.precision = Precision::F32;
            spatial.precision = Precision::F32;
        }
        other => panic!("unknown equality mode {other}"),
    }
    let serial = serial.build();
    let nu = serial.dataset().nu_field(0, res);
    let expect = serial.predict(&nu).expect("serial predict");
    let got = spatial.build().predict(&nu).expect("spatial predict");
    let method = if mode == "f32" {
        // f32 slab halos round differently from the serial f32 sweep only
        // through the all-reduce-free boundary bands; rounding-level
        // agreement is the contract.
        let scale = expect
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1.0);
        for (a, b) in expect.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (a - b).abs() / scale < 1e-5,
                "f32 SpatialThreads({p}) drifted past 1e-5 at {res:?}: {a} vs {b}"
            );
        }
        "tolerance(1e-5)"
    } else {
        let equal = expect
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            equal,
            "SpatialThreads({p}) [{mode}] diverged from Serial at {res:?}"
        );
        "bitwise"
    };
    println!("  equality {res:?} depth {depth} p={p} [{mode}]: {method}");
    json!({
        "resolution": res.to_vec(),
        "net_depth": depth,
        "ranks": p,
        "mode": mode,
        "method": method,
        "equal": true,
    })
}

/// Pool-on/off delta: the same small slab forward repeated with fresh
/// rank threads per request (`launch_with`, the pre-pool serving path)
/// and through one persistent `SlabPool`. Counters prove the pool never
/// respawns.
fn pool_case(iters: usize) -> Value {
    let (m, p) = (32usize, 4usize);
    let cfg = UNetConfig {
        depth: 2,
        base_filters: 2,
        two_d: false,
        seed: 7,
        ..Default::default()
    };
    let mut net = UNet::new(cfg);
    net.prepack();
    let net = Arc::new(net);
    let part = SlabPartition::aligned(m, p, 1 << 2).expect("aligned partition");
    let layout = SlabLayout {
        pre: 1,
        split: m,
        post: m * m,
    };
    let x: Vec<f64> = (0..m * m * m).map(|i| (i % 97) as f64 / 97.0).collect();
    let slabs: Vec<Tensor> = (0..p)
        .map(|r| {
            let owned = part.owned_planes(r);
            let data = mgd_dist::carve_planes(&x, &layout, owned.start, owned.end);
            Tensor::from_vec(vec![1, 1, owned.len(), m, m], data)
        })
        .collect();
    let opts = SlabOpts::default();

    // Off: rank threads spawned (and torn down) on every request — one
    // per rank of each `launch_with` call.
    let mut off_spawns = 0u64;
    let t = Instant::now();
    for _ in 0..iters {
        let net = &net;
        let opts = &opts;
        let outs = launch_with(slabs.clone(), move |comm, slab| {
            let mut ws = Workspace::new();
            infer_slab(net, &slab, &comm, &mut ws, opts)
        });
        assert_eq!(outs.len(), p);
        off_spawns += outs.len() as u64;
    }
    let off_ms = t.elapsed().as_secs_f64() * 1e3 / iters as f64;

    // On: one persistent pool, workspaces owned by the rank threads.
    let mut pool = SlabPool::new((0..p).map(|_| Workspace::new()).collect());
    let slabs = Arc::new(slabs);
    let t = Instant::now();
    for _ in 0..iters {
        let net = Arc::clone(&net);
        let slabs = Arc::clone(&slabs);
        let opts = opts.clone();
        let outs = pool.run(move |comm, ws: &mut Workspace| {
            infer_slab(&net, &slabs[comm.rank()], comm, ws, &opts)
        });
        assert_eq!(outs.len(), p);
    }
    let on_ms = t.elapsed().as_secs_f64() * 1e3 / iters as f64;
    let on_spawns = pool.rank_spawns();
    assert_eq!(
        off_spawns,
        (p * iters) as u64,
        "launch_with must spawn per request"
    );
    assert_eq!(
        on_spawns, p as u64,
        "the pool must spawn each rank exactly once"
    );
    println!(
        "  pool {m}³ p={p} x{iters}: spawn-per-request {off_ms:.2} ms/req ({off_spawns} spawns) \
         vs pooled {on_ms:.2} ms/req ({on_spawns} spawns)"
    );
    json!({
        "resolution": [m, m, m],
        "ranks": p,
        "requests": iters,
        "spawn_per_request_ms": off_ms,
        "pooled_ms": on_ms,
        "spawn_per_request_thread_spawns": off_spawns,
        "pooled_thread_spawns": on_spawns,
    })
}

/// Best-of-`n` wall time of repeated predicts on fresh coefficient
/// fields (cache capacity is 0, so every call runs the network).
fn best_of(engine: &SolverEngine, nu: &Tensor, n: usize) -> (f64, std::sync::Arc<Tensor>) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t = Instant::now();
        let u = engine.predict(nu).expect("predict");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(u);
    }
    (best, out.expect("at least one run"))
}

/// Modelled per-rank activation peaks for a slab decomposition, plus the
/// serial model, in JSON; returns `(rows, serial_elems, max_rank_elems)`.
fn rank_model(
    m: usize,
    depth: usize,
    filters: usize,
    ranks: usize,
    opts: &SlabOpts,
) -> (Vec<Value>, usize, usize) {
    let cfg = UNetConfig {
        depth,
        base_filters: filters,
        two_d: false,
        ..Default::default()
    };
    let serial = activation_peak_elems(&cfg, 1, [m, m, m], 0);
    let part = SlabPartition::aligned(m, ranks, 1 << depth).expect("aligned partition");
    let mut max_rank = 0usize;
    let rows = (0..ranks)
        .map(|r| {
            let owned = part.owned_planes(r);
            let halo_sides = usize::from(r > 0) + usize::from(r + 1 < ranks);
            let peak = activation_peak_elems_opts(&cfg, 1, [owned.len(), m, m], halo_sides, opts);
            max_rank = max_rank.max(peak);
            json!({
                "rank": r,
                "slab_planes": owned.len(),
                "halo_sides": halo_sides,
                "activation_peak_mb": peak as f64 * 8.0 / MB,
            })
        })
        .collect();
    (rows, serial, max_rank)
}

/// The acceptance domain: serves `m`³ spatially with overlap on and off,
/// times the serial reference, verifies bitwise equality and the
/// model-vs-measured activation ceiling, and (when `gate`) enforces
/// spatial <= serial wall time at equal cores (best-of-`runs` each).
fn megavoxel_case(m: usize, depth: usize, filters: usize, ranks: usize, gate: bool) -> Value {
    let res = [m, m, m];
    // Best-of-3 under the gate: single-core wall times at this size swing
    // a few percent run to run, and the gate compares two ~15 s numbers.
    let runs = if gate { 3 } else { 1 };
    let opts = SlabOpts::default();
    let (per_rank, serial_elems, max_rank_elems) = rank_model(m, depth, filters, ranks, &opts);
    let serial_mb = serial_elems as f64 * 8.0 / MB;
    let max_rank_mb = max_rank_elems as f64 * 8.0 / MB;
    assert!(
        max_rank_mb < serial_mb,
        "per-rank activation peak {max_rank_mb:.1} MB must undercut the serial {serial_mb:.1} MB"
    );

    let spatial = Cfg::new(&res, depth, filters, Parallelism::SpatialThreads(ranks)).build();
    let nu = spatial.dataset().nu_field(0, &res);
    let (spatial_ms, u_spatial) = best_of(&spatial, &nu, runs);
    // The largest meter reading over the ranks' workspaces (a fresh
    // engine, so only this case's walks).
    let stats = spatial.stats();
    let measured_mb = stats.slab_activation_peak_elems as f64 * 8.0 / MB;
    assert!(
        measured_mb > 0.0 && measured_mb <= max_rank_mb,
        "measured per-rank peak {measured_mb:.1} MB must stay within the model {max_rank_mb:.1} MB"
    );
    assert_eq!(
        stats.slab_pool_misses, 0,
        "the eager pool must absorb every request"
    );

    let mut no_overlap = Cfg::new(&res, depth, filters, Parallelism::SpatialThreads(ranks));
    no_overlap.overlap = false;
    let (no_overlap_ms, u_plain) = best_of(&no_overlap.build(), &nu, 1);
    let overlap_equal = u_spatial
        .as_slice()
        .iter()
        .zip(u_plain.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(overlap_equal, "overlap on/off paths diverged at {m}³");

    let serial = Cfg::new(&res, depth, filters, Parallelism::Serial).build();
    let (serial_ms, u_serial) = best_of(&serial, &nu, runs);
    let equal = u_serial
        .as_slice()
        .iter()
        .zip(u_spatial.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(equal, "megavoxel spatial serve diverged from serial");

    println!(
        "  {m}³ ({:.1} Mvoxel) x{ranks}: overlap {spatial_ms:.0} ms | no-overlap \
         {no_overlap_ms:.0} ms | serial {serial_ms:.0} ms (best of {runs}); peaks: measured \
         {measured_mb:.0} MB <= model {max_rank_mb:.0} MB (serial model {serial_mb:.0} MB)",
        (m * m * m) as f64 / 1e6,
    );
    if gate {
        assert!(
            spatial_ms <= serial_ms,
            "equal-cores gate: spatial {spatial_ms:.0} ms must not trail serial {serial_ms:.0} ms"
        );
        println!("  equal-cores throughput gate: spatial <= serial ✓");
    }
    json!({
        "resolution": res.to_vec(),
        "voxels": m * m * m,
        "ranks": ranks,
        "net": json!({ "depth": depth, "base_filters": filters }),
        "timing_runs": runs,
        "spatial_forward_ms": spatial_ms,
        "spatial_no_overlap_ms": no_overlap_ms,
        "serial_forward_ms": serial_ms,
        "overlap_speedup": no_overlap_ms / spatial_ms,
        "equal_cores_gate": if gate { Some(spatial_ms <= serial_ms) } else { None },
        "equality_method": "bitwise",
        "slab_pool": json!({ "hits": stats.slab_pool_hits, "misses": stats.slab_pool_misses }),
        "serial_peak_activation_mb": serial_mb,
        "max_rank_activation_mb": max_rank_mb,
        "measured_rank_activation_mb": measured_mb,
        "per_rank_bounded_below_serial": max_rank_mb < serial_mb,
        "per_rank": per_rank,
    })
}

/// The streaming entry: an `m`³ domain whose *serial* activation model
/// exceeds this machine's RAM, served through overlap + per-rank skip
/// spill. Serial can't run here, so equality rides on the bitwise spill
/// verification at the CI sizes; this row asserts finiteness and the
/// measured-peak ceiling instead.
fn out_of_core_case(m: usize, depth: usize, filters: usize, ranks: usize) -> Value {
    let res = [m, m, m];
    let opts = SlabOpts {
        overlap: true,
        spill_dir: Some(scratch_dir()),
    };
    let (per_rank, serial_elems, max_rank_elems) = rank_model(m, depth, filters, ranks, &opts);
    let serial_gb = serial_elems as f64 * 8.0 / GB;
    let max_rank_gb = max_rank_elems as f64 * 8.0 / GB;
    let ram = ram_gb();
    let serial_fits = ram.map(|r| serial_gb < r);
    println!(
        "  {m}³ ({:.0} Mvoxel) streaming x{ranks}: serial model {serial_gb:.0} GB vs {} GB RAM \
         (fits: {serial_fits:?}), per-rank streamed model {max_rank_gb:.1} GB",
        (m * m * m) as f64 / 1e6,
        ram.map(|r| format!("{r:.0}")).unwrap_or_else(|| "?".into()),
    );

    let mut cfg = Cfg::new(&res, depth, filters, Parallelism::SpatialThreads(ranks));
    cfg.spill = Some(scratch_dir());
    let engine = cfg.build();
    let nu = engine.dataset().nu_field(0, &res);
    let t = Instant::now();
    let u = engine.predict(&nu).expect("streamed predict");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let measured = engine.stats().slab_activation_peak_elems as usize;
    let measured_gb = measured as f64 * 8.0 / GB;
    assert!(
        measured > 0 && measured <= max_rank_elems,
        "measured streamed peak {measured} elems must stay within the model {max_rank_elems} elems"
    );
    assert!(u.as_slice().iter().all(|v| v.is_finite()));
    println!(
        "  {m}³ streamed forward: {:.0} s, measured per-rank peak {measured_gb:.1} GB <= model \
         {max_rank_gb:.1} GB",
        ms / 1e3
    );
    json!({
        "resolution": res.to_vec(),
        "voxels": m * m * m,
        "ranks": ranks,
        "net": json!({ "depth": depth, "base_filters": filters }),
        "streaming": json!({ "overlap": true, "skip_spill": true }),
        "spatial_forward_ms": ms,
        "serial_forward_ms": Value::Null,
        "serial_peak_activation_gb": serial_gb,
        "serial_fits_in_ram": serial_fits,
        "ram_gb": ram,
        "max_rank_activation_gb": max_rank_gb,
        "measured_rank_activation_gb": measured_gb,
        "equality_method": "bitwise at CI sizes (serial cannot hold this domain)",
        "per_rank": per_rank,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_spatial.json".into());

    println!(
        "spatial serving report ({}) -> {out_path}",
        if quick { "quick" } else { "full" }
    );
    println!("equality gate (method per row):");
    let mut equality = vec![
        equality_case(&[64, 64], 2, 2, "overlap"),
        equality_case(&[32, 32, 32], 2, 2, "overlap"),
        equality_case(&[32, 32, 32], 2, 4, "overlap"),
        equality_case(&[32, 32, 32], 2, 2, "no-overlap"),
        equality_case(&[32, 32, 32], 2, 2, "spill"),
        equality_case(&[32, 32, 32], 2, 2, "f32"),
    ];
    if !quick {
        equality.push(equality_case(&[64, 64], 2, 4, "overlap"));
        equality.push(equality_case(&[64, 64, 64], 3, 4, "overlap"));
        equality.push(equality_case(&[64, 64, 64], 3, 4, "spill"));
    }

    println!("rank pool:");
    let pool = pool_case(if quick { 6 } else { 16 });

    println!("megavoxel serving:");
    let megavoxel = if quick {
        // CI smoke: the mechanism at a sub-second size, no timing gate.
        megavoxel_case(32, 2, 4, 4, false)
    } else {
        // The acceptance domain: 192³ ≈ 7.1 Mvoxel, 4 slab ranks, gated.
        megavoxel_case(192, 3, 8, 4, true)
    };

    let out_of_core = if quick {
        // CI smoke of the streaming mode itself (spill + overlap end to
        // end through the engine); the full run proves the RAM claim.
        println!("out-of-core streaming (smoke):");
        Some(out_of_core_case(32, 2, 4, 2))
    } else {
        println!("out-of-core streaming:");
        Some(out_of_core_case(768, 3, 8, 4))
    };

    let report = json!({
        "bench": "spatial",
        "mode": if quick { "quick" } else { "full" },
        "threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "equality": equality,
        "pool": pool,
        "megavoxel": megavoxel,
        "out_of_core": out_of_core,
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, serde_json::to_string_pretty(&report).unwrap())
        .expect("write report");
    println!("report written to {out_path}");
}
