//! Minimal microbenchmark runner.
//!
//! The container has no external crates, so the `benches/` targets are
//! `harness = false` binaries built on this module instead of criterion.
//! Each benchmark runs a closure for a warmup phase and then a measured
//! phase, reports median/mean wall time per iteration, and the whole
//! suite is dumped as `BENCH_<name>.json` at the workspace root so runs
//! can be diffed across commits.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rbp_trace::CounterSet;
use rbp_util::json::Json;

use crate::Table;

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Number of measured iterations.
    pub iters: u64,
    /// Median wall time per iteration.
    pub median_ns: u64,
    /// Mean wall time per iteration.
    pub mean_ns: u64,
    /// Minimum wall time per iteration.
    pub min_ns: u64,
    /// Extra counters recorded next to the timings (e.g. settled-state
    /// counts for solver benches) — the shared [`CounterSet`] from
    /// `rbp-trace`, not a bespoke key/value list.
    pub extra: CounterSet,
}

/// The timing fields every measurement serializes; an extra counter may
/// not reuse one of these keys.
const TIMING_KEYS: [&str; 5] = ["name", "iters", "median_ns", "mean_ns", "min_ns"];

impl Measurement {
    /// Serializes the timings and the extra counters as one JSON
    /// object. Panics if an extra counter's key collides with a timing
    /// field, which would write a duplicate key.
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("iters".to_string(), Json::from(self.iters)),
            ("median_ns".to_string(), Json::from(self.median_ns)),
            ("mean_ns".to_string(), Json::from(self.mean_ns)),
            ("min_ns".to_string(), Json::from(self.min_ns)),
        ];
        for (k, v) in self.extra.iter() {
            assert!(
                !TIMING_KEYS.contains(&k),
                "extra counter `{k}` of `{}` collides with a timing field",
                self.name
            );
            obj.push((k.to_string(), Json::from(v)));
        }
        Json::Obj(obj)
    }
}

/// A benchmark suite: collects [`Measurement`]s, prints a table, and
/// writes `BENCH_<name>.json`.
#[derive(Debug)]
pub struct Bench {
    name: String,
    warmup: Duration,
    measure: Duration,
    max_iters: u64,
    results: Vec<Measurement>,
}

impl Bench {
    /// New suite; `name` determines the JSON file name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        // Keep benches quick by default; RBP_BENCH_MS overrides the
        // per-case measurement window.
        let ms = std::env::var("RBP_BENCH_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(200);
        Bench {
            name: name.to_string(),
            warmup: Duration::from_millis(ms / 4),
            measure: Duration::from_millis(ms),
            max_iters: 1_000_000,
            results: Vec::new(),
        }
    }

    /// Times `f` (warmup then measurement window) and records the result.
    /// The closure's return value is `black_box`ed so work is not
    /// optimized away.
    pub fn run<T, F: FnMut() -> T>(&mut self, label: &str, mut f: F) -> &mut Measurement {
        // Warmup: also estimates per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= self.max_iters {
                break;
            }
        }
        let mut samples: Vec<u64> = Vec::new();
        let start = Instant::now();
        // Always take at least one sample so the stats below never divide
        // by zero, even when the measure window is zero.
        loop {
            let t = Instant::now();
            black_box(f());
            samples.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if start.elapsed() >= self.measure || (samples.len() as u64) >= self.max_iters {
                break;
            }
        }
        samples.sort_unstable();
        let iters = samples.len() as u64;
        let median_ns = samples[samples.len() / 2];
        let mean_ns = samples.iter().sum::<u64>() / iters;
        let min_ns = samples[0];
        self.results.push(Measurement {
            name: label.to_string(),
            iters,
            median_ns,
            mean_ns,
            min_ns,
            extra: CounterSet::new(),
        });
        self.results.last_mut().expect("just pushed")
    }

    /// All measurements so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the suite as a table.
    pub fn print(&self) {
        let mut t = Table::new(&["bench", "iters", "median", "mean", "min"]);
        for m in &self.results {
            t.row(&[
                m.name.clone(),
                m.iters.to_string(),
                fmt_ns(m.median_ns),
                fmt_ns(m.mean_ns),
                fmt_ns(m.min_ns),
            ]);
        }
        t.print();
    }

    /// Serializes the suite to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("suite".to_string(), Json::from(self.name.as_str())),
            (
                "results".to_string(),
                Json::Arr(self.results.iter().map(Measurement::to_json).collect()),
            ),
        ])
        .render_pretty()
    }

    /// Prints the table and writes `BENCH_<name>.json` into the
    /// workspace root (or the current directory as a fallback).
    pub fn finish(&self) {
        self.print();
        let file = format!("BENCH_{}.json", self.name);
        let path = workspace_root().join(file);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Workspace root: walk up from the executable's cwd until a
/// `Cargo.toml` containing `[workspace]` is found.
pub(crate) fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| ".".into());
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serializes() {
        let mut b = Bench::new("unit_test");
        b.warmup = Duration::from_millis(1);
        b.measure = Duration::from_millis(5);
        let m = b.run("noop", || 1 + 1);
        m.extra.add("settled", 42);
        assert_eq!(b.results().len(), 1);
        assert!(b.results()[0].iters > 0);
        let json = b.to_json();
        assert!(json.contains("\"suite\": \"unit_test\""));
        assert!(json.contains("\"settled\": 42"));
    }

    #[test]
    #[should_panic(expected = "extra counter `iters` of `noop` collides with a timing field")]
    fn extra_counter_may_not_shadow_a_timing_field() {
        let mut b = Bench::new("unit_test_collision");
        b.warmup = Duration::from_millis(0);
        b.measure = Duration::from_millis(0);
        b.run("noop", || 1 + 1).extra.add("iters", 64);
        let _ = b.to_json();
    }

    #[test]
    fn zero_measure_window_takes_one_sample() {
        let mut b = Bench::new("unit_test_zero");
        b.warmup = Duration::from_millis(0);
        b.measure = Duration::from_millis(0);
        let m = b.run("noop", || 1 + 1);
        assert_eq!(m.iters, 1);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
