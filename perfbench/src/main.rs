//! The MGDiffNet benchmark: four workloads over the library crates, one
//! command.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train-halfv-3d`, `serve-hot-2d`, `certify-3d`,
//! `megavoxel-3d` (see `perfbench/README.md`). With `--trace 0` the run
//! measures the end-to-end metrics with tracing off; with `--trace 1` it
//! replays the workload through tracing wrappers and direct layer calls
//! and reports the per-layer metrics. Every run checks the program's
//! outputs. The second-to-last stdout line is a JSON report (host
//! provenance, tails, trace breakdown, checks); the last line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The full
//! span list of a traced run is written under `<target dir>/perfbench/`.

mod certify;
mod common;
mod gen;
mod host;
mod json;
mod mega;
mod serve;
mod stats;
mod trace;
mod train;
mod wrap;

use common::{Cfg, Outcome, END_TO_END, PER_LAYER};
use json::Json;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "train-halfv-3d",
    "serve-hot-2d",
    "certify-3d",
    "megavoxel-3d",
];

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let traced = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1 (got {t})")),
    };
    Ok((
        workload,
        Cfg {
            seed: num("--seed")?,
            seconds: seconds as f64,
            traced,
        },
    ))
}

fn write_spans(workload: &str, cfg: &Cfg, out: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{}.json", cfg.seed));
    let spans = Json::Arr(
        out.spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("name", Json::from(s.name)),
                    ("start_s", Json::from(s.start)),
                    ("end_s", Json::from(s.end)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("req", s.req.map_or(Json::Null, Json::from)),
                ])
            })
            .collect(),
    );
    std::fs::write(&path, spans.to_string())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mgd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = host::cpu_steal_ticks();
    let mut out = match workload.as_str() {
        "train-halfv-3d" => train::run(&cfg),
        "serve-hot-2d" => serve::run(&cfg),
        "certify-3d" => certify::run(&cfg),
        _ => mega::run(&cfg),
    };
    let steal1 = host::cpu_steal_ticks();
    out.note(
        "cpu_steal_share",
        (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64,
    );
    let catalogue: &[(&str, &str)] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    if !cfg.traced {
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    let unknown: Vec<&str> = out
        .metrics
        .keys()
        .filter(|k| !catalogue.iter().any(|(n, _)| n == *k))
        .copied()
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics outside the catalogue: {unknown:?}"
    );
    if cfg.traced {
        match write_spans(&workload, &cfg, &out) {
            Ok(path) => out.note("spans_file", path),
            Err(e) => out.note("spans_file", format!("not written: {e}")),
        }
    }
    let correct = out.attempted > 0 && out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    let metrics = Json::obj(catalogue.iter().map(|&(name, unit)| {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    }));
    let checks = Json::obj(
        out.checks
            .iter()
            .map(|(n, ok)| (n.clone(), Json::from(*ok))),
    );
    let report = Json::obj([
        ("report", Json::from(workload.as_str())),
        (
            "host",
            host::provenance(&workload, cfg.seed, cfg.seconds as u64, cfg.traced),
        ),
        ("checks", checks),
        ("detail", Json::Obj(out.detail.clone())),
    ]);
    println!("{report}");
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
