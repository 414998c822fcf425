//! `schedule-large`: the heuristic tier with no search at all. The
//! three streaming schedulers run on two 10^6-node DAGs,
//! wavefront-stream writes a 10^5-node grid's schedule into a JSONL
//! file, and the in-memory registry runs on three 4096-node DAGs with
//! `validate` and `batchify` after each schedule.

use std::fs::File;
use std::io::Read;
use std::time::Instant;

use rbp_bounds::trivial;
use rbp_core::{batchify, CostModel, MppInstance, MppRun};
use rbp_dag::{generators, Dag};
use rbp_schedulers::{all_schedulers, MppScheduler, TopoBaseline, Wavefront};
use rbp_stream::{
    all_stream_schedulers, JsonlSink, NullSink, StreamHeader, StreamRun, StreamScheduler,
    TopoStream, WavefrontStream,
};
use rbp_util::Rng;

use crate::stats::{expect_eq, median, sum_of_medians, Tally};
use crate::trace::{durations, Tracer};
use crate::{run_passes, scratch_dir, time_setup, trace_health, Metrics, Outcome, RunArgs};

/// Processors and red pebbles per processor on every instance.
const K: usize = 8;
const R: usize = 8;
const G: u64 = 2;

/// Recorded streamed totals on grid 1000×1000 at k = r = 8, g = 2.
const GRID_TOTALS: [(&str, u64); 3] = [
    ("topo-stream", 6_996_000),
    ("wavefront-stream", 880_873),
    ("list-stream", 4_997_938),
];

/// Side of the grid whose wavefront schedule is written to a file, and
/// its recorded total at k = r = 8, g = 2 (the in-memory Wavefront
/// gives the same). A 10^5-node grid writes a ~17 MB file in about
/// 0.3 s. The 10^6-node grid's 171 MB file took 2.6–3.8 s, half of a
/// pass, on a 2-thread VM: a 30 s run then held four passes, too few
/// for the per-operation medians to hold steady between runs.
const FILE_GRID: usize = 316;
const FILE_GRID_TOTAL: u64 = 89_238;

/// The run's DAGs, built from the seed.
pub struct Dags {
    pub grid: Dag,
    pub layered: Dag,
    /// The grid streamed into a JSONL file.
    pub file_grid: Dag,
    /// The in-memory tier's instances (serve's 4096-node limit).
    pub small: Vec<Dag>,
}

fn build(seed: u64) -> Dags {
    let mut rng = Rng::new(seed ^ 0x7363_6865_6400);
    Dags {
        grid: generators::grid(1000, 1000),
        layered: generators::layered_random(1000, 1000, 3, rng.next_u64()),
        file_grid: generators::grid(FILE_GRID, FILE_GRID),
        small: vec![
            generators::grid(64, 64),
            generators::layered_random(64, 64, 3, rng.next_u64()),
            // (h+1)(h+2)/2 nodes: 4095.
            generators::pyramid(89),
        ],
    }
}

fn stream_span(name: &str) -> &'static str {
    match name {
        "topo-stream" => "stream.topo",
        "wavefront-stream" => "stream.wavefront",
        _ => "stream.list",
    }
}

/// Checks one streamed run: every node scheduled, every move counted,
/// the total inside the Lemma 1 bounds and, when recorded, equal to it.
pub fn check_stream(
    name: &str,
    dag: &Dag,
    run: &StreamRun,
    sink_moves: u64,
    want: Option<u64>,
) -> Result<(), String> {
    let inst = MppInstance::new(dag, K, R, G);
    let total = run.cost.total(CostModel::mpp(G));
    expect_eq(&format!("{name} nodes"), run.nodes, dag.n())?;
    expect_eq(&format!("{name} moves"), run.moves, sink_moves)?;
    if !(trivial::lower(&inst) <= total && total <= trivial::upper(&inst)) {
        return Err(format!("{name}: total {total} outside the Lemma 1 bounds"));
    }
    match want {
        Some(w) => expect_eq(&format!("{name} total on {}", dag.name()), total, w),
        None => Ok(()),
    }
}

/// What one pass measured.
struct PassTimes {
    /// Wall time of each operation, streaming ones first.
    ops: Vec<f64>,
    /// How many of `ops` are streaming runs.
    stream_ops: usize,
    peak_active: usize,
    jsonl_bytes: u64,
}

fn pass(dags: &Dags, jsonl: &std::path::Path, tr: &mut Tracer, tally: &mut Tally) -> PassTimes {
    let mut ops = Vec::new();
    let mut timed = |tally: &mut Tally, op: &mut dyn FnMut() -> Result<(), String>| {
        let t0 = Instant::now();
        tally.record(op());
        ops.push(t0.elapsed().as_secs_f64());
    };
    let mut peak_active = 0;
    for (dag, recorded) in [(&dags.grid, true), (&dags.layered, false)] {
        for s in all_stream_schedulers() {
            let name = s.name();
            let want = GRID_TOTALS
                .iter()
                .find(|(n, _)| recorded && *n == name)
                .map(|&(_, t)| t);
            timed(tally, &mut || {
                let mut sink = NullSink::new();
                let run = tr
                    .time(stream_span(&name), || s.schedule(dag, K, R, &mut sink))
                    .map_err(|e| format!("{name}: {e}"))?;
                peak_active = peak_active.max(run.peak_active_set);
                check_stream(&name, dag, &run, sink.moves(), want)
            });
        }
    }
    let mut written = None;
    timed(tally, &mut || {
        written = Some(tr.time("stream.jsonl", || stream_to_file(&dags.file_grid, jsonl))?);
        Ok(())
    });
    // Reading the file back is the benchmark's check, not the sink's
    // work: it stays outside the operation's time and span.
    let jsonl_bytes = match written.map(|run| check_jsonl(jsonl, &run)) {
        Some(Ok(bytes)) => bytes,
        Some(Err(why)) => {
            tally.fail(why);
            0
        }
        None => 0,
    };
    let stream_ops = 2 * all_stream_schedulers().len() + 1;

    for dag in &dags.small {
        let inst = MppInstance::new(dag, K, R, G);
        for s in all_schedulers() {
            timed(tally, &mut || {
                let run = tr
                    .time("schedulers.schedule", || s.schedule(&inst))
                    .map_err(|e| format!("{}: {e}", s.name()))?;
                check_in_memory(&s.name(), &inst, &run, tr)
            });
        }
    }
    timed(tally, &mut || twins(&dags.small[0], tr));
    PassTimes {
        ops,
        stream_ops,
        peak_active,
        jsonl_bytes,
    }
}

/// Replays a registry run through the validator, batches it, and
/// replays the batched strategy: it must be valid and no dearer.
fn check_in_memory(
    name: &str,
    inst: &MppInstance,
    run: &MppRun,
    tr: &mut Tracer,
) -> Result<(), String> {
    let replay = tr.time("core.validate", || run.strategy.validate(inst));
    expect_eq(
        &format!("{name} replayed cost"),
        replay.map_err(|e| e.to_string())?,
        run.cost,
    )?;
    let batched = tr.time("core.batchify", || batchify(inst, &run.strategy));
    let cost = tr
        .time("core.validate", || batched.validate(inst))
        .map_err(|e| format!("{name} batched: {e}"))?;
    if cost.total(inst.model) > run.cost.total(inst.model) {
        return Err(format!("{name}: batchify made the strategy dearer"));
    }
    Ok(())
}

/// Streamed totals equal the in-memory twins' on one small instance.
fn twins(dag: &Dag, tr: &mut Tracer) -> Result<(), String> {
    let inst = MppInstance::new(dag, K, R, G);
    let pairs: [(&dyn StreamScheduler, &dyn MppScheduler); 2] =
        [(&TopoStream, &TopoBaseline), (&WavefrontStream, &Wavefront)];
    for (streamed, twin) in pairs {
        let run = tr
            .time("stream.twin", || {
                streamed.schedule(dag, K, R, &mut NullSink::new())
            })
            .map_err(|e| e.to_string())?;
        let mem = tr
            .time("schedulers.schedule", || twin.schedule(&inst))
            .map_err(|e| e.to_string())?;
        expect_eq(
            &format!("{} vs {} on {}", streamed.name(), twin.name(), dag.name()),
            run.cost,
            mem.cost,
        )?;
    }
    Ok(())
}

/// Streams the wavefront schedule of `dag` into a JSONL file at `path`.
fn stream_to_file(dag: &Dag, path: &std::path::Path) -> Result<StreamRun, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let header = StreamHeader {
        dag_name: dag.name().to_string(),
        n: dag.n(),
        k: K,
        r: R,
        g: G,
    };
    let mut sink = JsonlSink::new(File::create(path).map_err(io)?, &header).map_err(io)?;
    let run = WavefrontStream
        .schedule(dag, K, R, &mut sink)
        .map_err(|e| e.to_string())?;
    sink.into_inner().map_err(io)?;
    Ok(run)
}

/// Checks the JSONL file `run` wrote to `path` (the file grid's
/// recorded total, its size, and its line count: header plus one per
/// move), then removes it. Returns the bytes written.
fn check_jsonl(path: &std::path::Path, run: &StreamRun) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    // Read back in chunks: the file must not count toward peak memory.
    let (mut bytes, mut lines) = (0u64, 0u64);
    let mut file = File::open(path).map_err(io)?;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let got = file.read(&mut buf).map_err(io)?;
        if got == 0 {
            break;
        }
        bytes += got as u64;
        lines += buf[..got].iter().filter(|&&b| b == b'\n').count() as u64;
    }
    std::fs::remove_file(path).map_err(io)?;
    expect_eq(
        "jsonl total",
        run.cost.total(CostModel::mpp(G)),
        FILE_GRID_TOTAL,
    )?;
    expect_eq("jsonl bytes", bytes, run.bytes_emitted)?;
    expect_eq("jsonl lines", lines, run.moves + 1)?;
    Ok(run.bytes_emitted)
}

/// Runs `schedule-large`.
pub fn run(args: &RunArgs) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let dags = time_setup(&mut setup, 3, || build(args.seed));
    m.set("setup_s", median(&setup));
    m.set("dag.build_s", median(&setup));

    let dir = scratch_dir();
    let jsonl = dir.join(format!("stream-{}.jsonl", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        tally.record(Err(format!("{}: {e}", dir.display())));
    }

    let (mut plain, mut per_op, mut traced) = (vec![], vec![], vec![]);
    let mut roots = Vec::new();
    let (mut peak_active, mut jsonl_bytes, mut stream_ops) = (0, 0, 0);
    let mut tracer = Tracer::new(true);
    let min_passes = if args.trace { 2 } else { 1 };
    run_passes(args.seconds, min_passes, |i| {
        let traced_pass = args.trace && i % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if traced_pass { &mut tracer } else { &mut off };
        let t0 = Instant::now();
        let root = tr.begin("bench.pass");
        let times = pass(&dags, &jsonl, tr, &mut tally);
        tr.end(root);
        let wall = t0.elapsed().as_secs_f64();
        peak_active = peak_active.max(times.peak_active);
        jsonl_bytes = times.jsonl_bytes;
        stream_ops = times.stream_ops;
        if traced_pass {
            roots.extend(root.index());
            traced.push(wall);
        } else {
            plain.push(wall);
            per_op.push(times.ops);
        }
    });
    let _ = std::fs::remove_file(&jsonl);

    // Each operation at its median time across the untraced passes.
    let n = per_op.first().map_or(0, Vec::len);
    m.set("pass_s", sum_of_medians(&per_op, 0..n));
    m.set("schedule_stream_s", sum_of_medians(&per_op, 0..stream_ops));
    m.set("schedule_mem_s", sum_of_medians(&per_op, stream_ops..n));
    if args.trace {
        let spans = tracer.spans();
        let passes = traced.len() as f64;
        let per_pass = |name: &str| durations(spans, name).iter().sum::<f64>() / passes;
        let nodes = (dags.grid.n() + dags.layered.n()) as f64;
        m.set("stream.topo.nodes_per_s", nodes / per_pass("stream.topo"));
        m.set(
            "stream.wavefront.nodes_per_s",
            nodes / per_pass("stream.wavefront"),
        );
        m.set("stream.list.nodes_per_s", nodes / per_pass("stream.list"));
        // The bytes written do not vary between passes.
        m.set(
            "stream.jsonl_mb_per_s",
            jsonl_bytes as f64 / 1e6 / per_pass("stream.jsonl"),
        );
        m.set("stream.peak_active_set", peak_active as f64);
        m.set("schedulers.schedule_s", per_pass("schedulers.schedule"));
        m.set("core.batchify_s", per_pass("core.batchify"));
        m.set("core.validate_s", per_pass("core.validate"));
        trace_health(&mut m, &tracer, &roots, &traced, &plain);
    }
    m.set("fail_frac", tally.fail_frac());
    Outcome {
        metrics: m,
        tally,
        tracer,
        passes: plain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_stream::TopoStream;

    #[test]
    fn a_wrong_streamed_total_is_reported_as_a_failure() {
        let dag = generators::grid(10, 10);
        let mut sink = NullSink::new();
        let run = TopoStream.schedule(&dag, K, R, &mut sink).unwrap();
        let total = run.cost.total(CostModel::mpp(G));
        assert!(check_stream("topo", &dag, &run, sink.moves(), Some(total)).is_ok());
        assert!(check_stream("topo", &dag, &run, sink.moves(), Some(total + 1)).is_err());
        assert!(check_stream("topo", &dag, &run, sink.moves() + 1, None).is_err());
    }

    #[test]
    fn small_instances_pass_every_in_memory_check() {
        let dags = build(1);
        assert!(dags.small.iter().all(|d| d.n() <= 4096));
        let dag = generators::grid(8, 8);
        let inst = MppInstance::new(&dag, K, R, G);
        let mut tr = Tracer::new(false);
        for s in all_schedulers() {
            let run = s.schedule(&inst).unwrap();
            check_in_memory(&s.name(), &inst, &run, &mut tr).unwrap();
        }
        twins(&dag, &mut tr).unwrap();
    }
}
