//! # rbp-bench — the experiment harness
//!
//! One binary per experiment (see `src/bin/exp_*.rs` and EXPERIMENTS.md
//! at the repository root); each regenerates the quantitative content of
//! a lemma, theorem, or figure of the paper as a plain-text table.
//!
//! This library holds the shared pieces: a fixed-width table printer, a
//! parallel parameter-sweep helper built on `std::thread::scope` (sweeps
//! are embarrassingly parallel; results are collected through a mutex
//! and re-ordered deterministically), and [`micro`], a dependency-free
//! microbenchmark runner used by the `benches/` targets (the container
//! has no criterion, so the harness is in-tree).

#![warn(missing_docs)]

pub mod micro;

pub use micro::{Bench, Measurement};

use std::sync::Mutex;

/// A fixed-width plain-text table printer.
///
/// ```
/// use rbp_bench::Table;
/// let mut t = Table::new(&["d", "speedup"]);
/// t.row(&["4", "2.02"]);
/// let s = t.render();
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[impl AsRef<str>]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..cols {
                if i > 0 {
                    s.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numbers-ish, left-align first column.
                if i == 0 {
                    s.push_str(&format!("{cell:<width$}", width = widths[i]));
                } else {
                    s.push_str(&format!("{cell:>width$}", width = widths[i]));
                }
            }
            s
        };
        let mut out = line(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and, when a trace sink is installed,
    /// also emits it as a `table` event named `name` so `rbp report`
    /// can reproduce it from the trace file alone.
    pub fn print_traced(&self, name: &str) {
        self.print();
        if rbp_trace::enabled() {
            rbp_trace::table(name, &self.headers, &self.rows);
        }
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment header banner and records it as a trace event
/// (`{"type":"event","name":"experiment", …}`) so reports can title
/// their sections.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===\n");
    if rbp_trace::enabled() {
        rbp_trace::event(
            "experiment",
            vec![
                ("id", rbp_trace::Json::from(id)),
                ("title", rbp_trace::Json::from(title)),
            ],
        );
    }
}

/// Installs the standard JSONL trace sink for an experiment binary.
///
/// The destination defaults to `TRACE_<tool>.jsonl` at the workspace
/// root (next to the `BENCH_*.json` artifacts). The `RBP_TRACE`
/// environment variable overrides it: a path redirects the trace, and
/// `0`, `off`, or an empty value disables tracing entirely. The
/// manifest header records the tool name and its command-line
/// arguments; pass extra identifying fields (seed, instance hash,
/// solver config) through `extra`.
pub fn init_trace(tool: &str, extra: &[(&str, rbp_trace::Json)]) {
    let path = match std::env::var("RBP_TRACE") {
        Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => return,
        Ok(v) => std::path::PathBuf::from(v),
        Err(_) => micro::workspace_root().join(format!("TRACE_{tool}.jsonl")),
    };
    let Ok(sink) = rbp_trace::JsonlSink::create(&path) else {
        eprintln!("warning: could not create trace file {}", path.display());
        return;
    };
    let args: Vec<rbp_trace::Json> = std::env::args()
        .skip(1)
        .map(|a| rbp_trace::Json::from(a.as_str()))
        .collect();
    let mut manifest = rbp_trace::Manifest::new(tool).field("args", rbp_trace::Json::Arr(args));
    if !extra.iter().any(|(k, _)| *k == "seed") {
        // Every experiment derives its randomness from RBP_SEED (see
        // rbp_util::env_seed); record the effective base seed so a trace
        // identifies the exact rerun command.
        manifest = manifest.field("seed", rbp_util::env_seed(0));
    }
    for (k, v) in extra {
        manifest = manifest.field(k, v.clone());
    }
    rbp_trace::install(Box::new(sink), manifest);
    println!("trace: {}", path.display());
}

/// Flushes and closes the trace sink installed by [`init_trace`]. Call
/// at the end of `main` — the global sink is not dropped on process
/// exit, so skipping this loses buffered lines.
pub fn finish_trace() {
    rbp_trace::uninstall();
}

/// Runs `f` over all `inputs` in parallel (scoped threads, one per input
/// up to `max_threads`), returning outputs in input order.
///
/// Meant for untimed work: cases that share the cores skew each other's
/// wall-clock figures, so timed sections belong in a serial loop.
pub fn par_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    let max_threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(4)
        .min(n.max(1));
    let results: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    let next: Mutex<usize> = Mutex::new(0);
    std::thread::scope(|scope| {
        for _ in 0..max_threads {
            scope.spawn(|| loop {
                let i = {
                    let mut guard = next.lock().unwrap();
                    let i = *guard;
                    if i >= n {
                        return;
                    }
                    *guard += 1;
                    i
                };
                let out = f(&inputs[i]);
                results.lock().unwrap()[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("alpha"));
        // All rows share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn sweep_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = par_sweep(inputs.clone(), |&x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_handles_empty() {
        let out: Vec<u64> = par_sweep(Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }
}
