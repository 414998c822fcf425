//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact-seq|exact-par|serve-mix|schedule-large> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds` seconds, checks every output, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! ([`END_TO_END`]); with `--trace 1` the run alternates untraced and
//! traced passes and reports the per-layer ones ([`PER_LAYER`]). A line
//! before it records the host (thread count, git revision, `rustc -V`)
//! and every figure measured; the spans of a traced run are written to
//! `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! Timed sections run one at a time: no workload shares the cores with
//! a sibling case. Seed [`ROUTINE_SEED`] is the one to tune against;
//! [`HELD_OUT_SEED`] confirms a claim on inputs it was not tuned on.

mod exact;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rbp_util::Json;

use crate::stats::{iqr_frac, median, Tally};
use crate::trace::{layer_coverage, Tracer};

/// The seed routine runs use.
pub const ROUTINE_SEED: u64 = 1;
/// The seed kept back for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("pass_s", "s", Lower),
];

/// Per-layer metrics of a traced run. The first block holds the
/// workload-specific end-to-end figures, measured in the run's
/// untraced passes; a metric a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("solve_s", "s", Lower),
    ("solve_hier_s", "s", Lower),
    ("serve_rps", "1/s", Higher),
    ("serve_p50_ms", "ms", Lower),
    ("serve_p99_ms", "ms", Lower),
    ("schedule_stream_s", "s", Lower),
    ("schedule_mem_s", "s", Lower),
    ("fail_frac", "ratio", Lower),
    ("dag.build_s", "s", Lower),
    ("core.settled", "count", Lower),
    ("core.pushed", "count", Lower),
    ("core.states_per_s", "1/s", Higher),
    ("core.h_root_frac", "ratio", Higher),
    ("core.arena_bytes_per_state", "B", Lower),
    ("core.frontier_peak", "count", Lower),
    ("core.validate_s", "s", Lower),
    ("bounds.sandwich_s", "s", Lower),
    ("hier.settled", "count", Lower),
    ("hier.states_per_s", "1/s", Higher),
    ("driver.settled_ratio", "ratio", Lower),
    ("driver.sends_per_settled", "ratio", Lower),
    ("driver.batch_factor", "ratio", Higher),
    ("driver.locality_frac", "ratio", Higher),
    ("driver.foreign_expansions", "count", Lower),
    ("serve.http.p50_ms", "ms", Lower),
    ("serve.wire.p50_ms", "ms", Lower),
    ("serve.hit.p50_ms", "ms", Lower),
    ("serve.store_hit.p50_ms", "ms", Lower),
    ("serve.miss.p50_ms", "ms", Lower),
    ("serve.server_frac", "ratio", Lower),
    ("serve.cache.hit_frac", "ratio", Higher),
    ("serve.store.hit_frac", "ratio", Higher),
    ("serve.rejected", "count", Lower),
    ("util.json.parse_us", "us", Lower),
    ("serve.api.parse_us", "us", Lower),
    ("serve.api.key_us", "us", Lower),
    ("serve.cache.get_us", "us", Lower),
    ("serve.store.get_us", "us", Lower),
    ("serve.store.append_us", "us", Lower),
    ("serve.api.execute_ms", "ms", Lower),
    ("util.json.render_us", "us", Lower),
    ("serve.store.open_s", "s", Lower),
    ("stream.topo.nodes_per_s", "1/s", Higher),
    ("stream.wavefront.nodes_per_s", "1/s", Higher),
    ("stream.list.nodes_per_s", "1/s", Higher),
    ("stream.jsonl_mb_per_s", "MB/s", Higher),
    ("stream.peak_active_set", "count", Lower),
    ("schedulers.schedule_s", "s", Lower),
    ("core.batchify_s", "s", Lower),
    ("bench.trace_overhead_frac", "ratio", Lower),
    ("bench.span_coverage_frac", "ratio", Higher),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = ROUTINE_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {WORKLOADS:?})"
            ));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range 0..600"));
        }
        Ok(RunArgs {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

const WORKLOADS: &[&str] = &["exact-seq", "exact-par", "serve-mix", "schedule-large"];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]. A value must be finite: JSON has no NaN.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name),
            "unlisted metric {name}"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.0.insert(name, value);
    }

    fn table(&self, table: &[(&'static str, &str, Better)]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|&(name, unit, _)| {
                    let value = self.0.get(name).copied().unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::obj([("value", Json::Float(value)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        )
    }

    fn all(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Float(*v)))
                .collect(),
        )
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Wall time of every untraced pass, for the within-run spread.
    pub passes: Vec<f64>,
}

/// Runs `setup` `reps` times, appending each wall time to `times`, and
/// returns the last result. Earlier results are dropped before the next
/// build, so repetition does not raise peak memory.
///
/// A set-up that takes microseconds is timed in a window a few
/// milliseconds wide, where load from other tenants of a shared host
/// (a 2-thread Xeon VM, measured) moves it by a third from run to run;
/// callers of such set-ups take further samples between passes, so the
/// median covers the whole run as the pass times do.
pub fn time_setup<T>(times: &mut Vec<f64>, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one repetition")
}

/// Runs `pass(i)` for `i = 0, 1, …` while the budget lasts: a pass
/// starts only when the median pass so far still fits in the
/// `seconds` left, and at least `min` passes run.
pub fn run_passes(seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let left = seconds - t0.elapsed().as_secs_f64();
        if walls.len() >= min && median(&walls) > left {
            return walls.len();
        }
        let p = Instant::now();
        pass(walls.len());
        walls.push(p.elapsed().as_secs_f64());
    }
}

/// Records the trace's own health: the share of each traced pass (root
/// spans `roots`) that layer spans cover, and the traced pass time
/// against the untraced one.
pub fn trace_health(
    m: &mut Metrics,
    tracer: &Tracer,
    roots: &[usize],
    traced: &[f64],
    plain: &[f64],
) {
    let coverage: Vec<f64> = roots
        .iter()
        .map(|&r| layer_coverage(tracer.spans(), r))
        .collect();
    m.set("bench.span_coverage_frac", median(&coverage));
    m.set(
        "bench.trace_overhead_frac",
        median(traced) / median(plain) - 1.0,
    );
}

/// Scratch directory for the run's temporary files, inside the
/// directory the benchmark runs from.
#[must_use]
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of every file under `dirs`, in path order: names the
/// code under test where the checkout is not a git repository.
fn source_digest(dirs: &[&str]) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn host_record(args: &RunArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(nproc)),
        (
            "git_rev",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "source_digest",
            Json::from(source_digest(&["crates", "perfbench/src"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Instrumentation inside the program stays off in every run: phase
    // profiling slows the search about threefold, and no trace sink is
    // ever installed. Nothing else runs yet, so the environment is ours.
    std::env::remove_var("RBP_PHASE_PROF");
    assert!(!rbp_core::phase_timing_enabled());
    let mut out = match args.workload.as_str() {
        "exact-seq" => exact::run(&args, 1),
        "exact-par" => exact::run(&args, 2),
        "serve-mix" => serve::run(&args),
        "schedule-large" => schedule::run(&args),
        _ => unreachable!("workload names are checked when parsing"),
    };
    out.metrics.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let path = scratch_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(scratch_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                out.tracer.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for why in &out.tally.reasons {
        eprintln!("perfbench: FAILED {why}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let spread = if out.passes.len() >= 2 {
        Json::Float(iqr_frac(&out.passes))
    } else {
        Json::Null
    };
    println!(
        "{}",
        Json::obj([
            // Recorded after the run: spawning git and rustc first
            // disturbs the set-up timing.
            ("host", host_record(&args)),
            ("measured", out.metrics.all()),
            (
                "passes",
                Json::arr(out.passes.iter().map(|&p| Json::Float(p)))
            ),
            ("pass_iqr_frac", spread),
        ])
        .render()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(out.tally.failed == 0)),
            ("attempted", Json::from(out.tally.attempted)),
            ("failed", Json::from(out.tally.failed)),
            ("metrics", out.metrics.table(table)),
        ])
        .render()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, table: &[(&str, &str, Better)]| {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|&(n, u, b)| {
                    let b = if b == Lower { "lower" } else { "higher" };
                    (n.to_string(), u.to_string(), b.to_string())
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = RunArgs::parse(&strings(&[
            "--workload",
            "exact-seq",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("exact-seq", 7, 3.0, true)
        );
        assert!(RunArgs::parse(&strings(&["--workload", "nope"])).is_err());
        assert!(RunArgs::parse(&strings(&["--workload", "serve-mix", "--trace", "2"])).is_err());
        assert!(RunArgs::parse(&strings(&["--seed", "1"])).is_err());
        assert!(RunArgs::parse(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn run_passes_runs_at_least_min_and_stops_on_budget() {
        let mut n = 0;
        assert_eq!(run_passes(0.0, 2, |_| n += 1), 2);
        assert_eq!(n, 2);
        let count = run_passes(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!((2..=3).contains(&count), "{count}");
    }
}
