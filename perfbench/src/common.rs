//! What every workload shares: the metric catalogue, the run outcome,
//! repeated set-up, and the direct layer probes.

use crate::json::Json;
use crate::stats::{median, Tail};
use crate::trace::{Breakdown, Span};
use mgd_field::DiffusivityModel;
use mgd_tensor::matmul::gemm;
use mgdiffnet::ServeStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics: every traced run reports each of them. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("tensor.gemm_gflops.conv3d", "GFLOP/s"),
    ("tensor.gemm_gflops.conv2d", "GFLOP/s"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.optim_step_s", "s"),
    ("nn.infer_ms", "ms"),
    ("nn.slab_compute_s", "s"),
    ("nn.serial_forward_s", "s"),
    ("nn.spatial_efficiency", "ratio"),
    ("field.batch_s", "s"),
    ("field.rasterize_ms", "ms"),
    ("fem.apply_ms", "ms"),
    ("fem.apply_bytes", "bytes"),
    ("fem.vcycle_ms", "ms"),
    ("fem.residual_ms", "ms"),
    ("hybrid.assemble_ms", "ms"),
    ("hybrid.hierarchy_build_ms", "ms"),
    ("hybrid.solve_self_ms", "ms"),
    ("hybrid.surrogate_ms", "ms"),
    ("hybrid.outer_iters", "count"),
    ("hybrid.fallback_ratio", "ratio"),
    ("hybrid.solve_tail_ms", "ms"),
    ("dist.allreduce_s", "s"),
    ("dist.allreduce_calls", "count"),
    ("dist.allreduce_bytes", "bytes"),
    ("dist.halo_wait_s", "s"),
    ("dist.halo_msgs", "count"),
    ("dist.halo_bytes", "bytes"),
    ("dist.rank_imbalance", "ratio"),
    ("core.loss_s", "s"),
    ("core.trainer_self_s", "s"),
    ("core.final_loss", "energy"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_evictions", "count"),
    ("core.workspace_pool_misses", "count"),
    ("core.slab_pool_misses", "count"),
    ("core.hit_ms", "ms"),
    ("serve.mean_batch", "req"),
    ("serve.batches", "count"),
    ("serve.admit_us", "us"),
    ("serve.queue_wait_derived_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// A run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Supporting figures for the report line (tails, lateness, notes).
    pub detail: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }

    pub fn note_tail(&mut self, key: &str, tail: Option<Tail>) {
        let v = match tail {
            Some(t) => Json::obj([
                ("percentile", Json::from(t.percentile)),
                ("value_ms", Json::from(t.value)),
                ("samples", Json::from(t.samples)),
            ]),
            None => Json::from("fewer than 20 samples: no percentile leaves 10 beyond it"),
        };
        self.note(key, v);
    }

    /// Records the serving-side counters accumulated between two reads.
    pub fn set_serve_stats(&mut self, before: &ServeStats, after: &ServeStats) {
        let hits = (after.cache_hits - before.cache_hits) as f64;
        let misses = (after.cache_misses - before.cache_misses) as f64;
        self.set(
            "core.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        self.set(
            "core.cache_evictions",
            (after.cache_evictions - before.cache_evictions) as f64,
        );
        self.set(
            "core.workspace_pool_misses",
            (after.workspace_pool_misses - before.workspace_pool_misses) as f64,
        );
        self.set(
            "core.slab_pool_misses",
            (after.slab_pool_misses - before.slab_pool_misses) as f64,
        );
    }

    /// Records the trace breakdown and the tracing overhead (traced over
    /// untraced wall time of the same work, minus one).
    pub fn set_trace(&mut self, spans: Vec<Span>, traced_s: f64, untraced_s: f64) {
        let b = Breakdown::of(&spans);
        self.set("trace.unattributed_share", b.unattributed_share());
        self.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
        let layers = b
            .layer_self_s
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect::<Vec<_>>();
        self.note(
            "breakdown",
            Json::obj([
                ("layer_self_s", Json::Obj(layers)),
                ("unattributed_s", Json::from(b.unattributed_s)),
                ("unattributed_share", Json::from(b.unattributed_share())),
                ("span_s", Json::from(b.span_s)),
                ("traced_wall_s", Json::from(b.wall_s)),
                (
                    "note",
                    Json::from(
                        "layer self times plus unattributed equal span_s; span_s exceeds \
                         traced_wall_s by the time parallel spans overlap",
                    ),
                ),
            ]),
        );
        self.note("traced_e2e_s", traced_s);
        self.note("untraced_e2e_s", untraced_s);
        self.spans = spans;
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `f`; returns its result, its wall seconds and the share of the
/// machine's CPU time the hypervisor stole while it ran.
pub fn timed_steal<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let a = crate::host::cpu_steal_ticks();
    let (r, s) = timed(f);
    let b = crate::host::cpu_steal_ticks();
    (r, s, (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64)
}

/// Which of a run's units of work ran with at most the median steal share:
/// the calmer half (more on ties). Neighbours on a shared VM steal CPU in
/// bursts of seconds; the end-to-end figures come from these units, so
/// they show the program on the CPU it asked for rather than the burst.
pub fn calm(steal: &[f64]) -> Vec<bool> {
    let m = median(steal);
    steal.iter().map(|&s| s <= m).collect()
}

/// Median of `values` over the calm units.
pub fn calm_median(values: &[f64], steal: &[f64]) -> f64 {
    let kept: Vec<f64> = values
        .iter()
        .zip(calm(steal))
        .filter(|(_, c)| *c)
        .map(|(&v, _)| v)
        .collect();
    median(&kept)
}

/// Median seconds of `f` over `reps` calls.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Runs a complete set-up `reps` times (each result dropped before the
/// next set-up starts, so memory never holds two) and returns the last
/// one with the median set-up time.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last.take());
        let (v, s) = timed(&mut setup);
        times.push(s);
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Columns of one cache-resident chunk of the conv lowering for a layer
/// with `k` patch rows on a `d × h × w` grid: the GEMM `n` the program
/// actually issues (see `mgd_nn::lowering`, 2^20-element chunks of whole
/// anchor rows).
pub fn conv_chunk_cols(k: usize, d: usize, h: usize, w: usize) -> usize {
    ((1usize << 20) / (k * w)).clamp(1, d * h) * w
}

/// GFLOP/s of `mgd_tensor::matmul::gemm` on an `m × k` by `k × n` product,
/// median over repeated calls.
pub fn gemm_gflops(m: usize, n: usize, k: usize) -> f64 {
    let a: Vec<f64> = (0..m * k).map(|i| ((i % 17) as f64 - 8.0) * 0.01).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i % 13) as f64 - 6.0) * 0.01).collect();
    let mut c = vec![0.0; m * n];
    gemm(m, n, k, &a, false, &b, false, &mut c, false);
    let flops = 2.0 * (m * n * k) as f64;
    // Enough calls for ~0.1 s of work, at least 5.
    let probe = timed(|| gemm(m, n, k, &a, false, &b, false, &mut c, false)).1;
    let reps = ((0.1 / probe.max(1e-6)) as usize).clamp(5, 200);
    let s = median_time(reps, || gemm(m, n, k, &a, false, &b, false, &mut c, false));
    flops / s / 1e9
}

/// The three GEMM probes: the widest 3D conv lowering chunk of the net on
/// `grid3d` (decoder conv over `2·filters` concatenated channels), the same
/// for the 64² 2D serving net, and a square 512² GEMM as the peak.
pub fn gemm_probes(out: &mut Outcome, grid3d: usize, filters: usize) {
    let k3 = 2 * filters * 27;
    let n3 = conv_chunk_cols(k3, grid3d, grid3d, grid3d);
    let k2 = 2 * filters * 9;
    let n2 = conv_chunk_cols(k2, 1, 64, 64);
    out.set("tensor.gemm_gflops.conv3d", gemm_gflops(filters, n3, k3));
    out.set("tensor.gemm_gflops.conv2d", gemm_gflops(filters, n2, k2));
    out.set("tensor.gemm_peak_gflops", gemm_gflops(512, 512, 512));
    out.note(
        "gemm_shapes_mnk",
        Json::obj([
            ("conv3d", Json::from(format!("{filters}x{n3}x{k3}"))),
            ("conv2d", Json::from(format!("{filters}x{n2}x{k2}"))),
            ("peak", Json::from("512x512x512")),
        ]),
    );
}

/// Median milliseconds to rasterize one ω on `dims`.
pub fn rasterize_ms(omega: &[f64], dims: &[usize]) -> f64 {
    let model = DiffusivityModel::paper();
    1e3 * median_time(5, || {
        std::hint::black_box(model.rasterize(omega, dims));
    })
}

/// Whether two fields agree bit for bit.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// CPU seconds over wall seconds while `f` runs.
pub fn with_cpu_util<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = crate::host::cpu_seconds();
    let (r, wall) = timed(f);
    let cpu = crate::host::cpu_seconds() - c0;
    (r, cpu / wall.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the metric lists in BENCHMARK.json must name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = spec.lines().filter(|l| l.contains("\"better\"")).collect();
        let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        assert_eq!(listed.len(), expected.len());
        for (line, (name, unit)) in listed.iter().zip(expected) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(
                line.trim_start().starts_with(&entry),
                "{line} vs {name} [{unit}]"
            );
        }
    }

    #[test]
    fn calm_units_have_at_most_the_median_steal() {
        let steal = [0.0, 0.2, 0.0, 0.1, 0.3];
        assert_eq!(calm(&steal), [true, false, true, true, false]);
        // Values of the calm units: 1, 3, 4.
        assert_eq!(calm_median(&[1.0, 9.0, 3.0, 4.0, 9.0], &steal), 3.0);
        // Ties keep every unit.
        assert_eq!(calm(&[0.0; 4]), [true; 4]);
    }

    #[test]
    fn chunk_columns_follow_the_lowering_rule() {
        // 32³ decoder conv over 16 channels: 2^20 / (432 · 32) = 75 rows.
        assert_eq!(conv_chunk_cols(432, 32, 32, 32), 75 * 32);
        // A 2D 64² layer has only 64 anchor rows: the whole grid.
        assert_eq!(conv_chunk_cols(144, 1, 64, 64), 64 * 64);
    }
}
