//! `serve-mix`: an in-process `Server` under two closed-loop clients,
//! one over HTTP and one over a persistent wire connection. Each sends
//! a seeded, Zipf-skewed mix of `/v1/solve`, `/v1/schedule` and
//! `/v1/bounds` requests over a key set much larger than the RAM cache,
//! with the persistent store filled before timing, so most requests
//! are RAM or store hits and about one in ten is a fresh small instance.
//!
//! Closed loop fits because sync-mode callers wait for each reply. Both
//! clients start each block of [`BLOCK`] requests together; a block's
//! wall time is one pass.

use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rbp_serve::{build_dag, http, wire, ResultCache, ResultStore, ServeConfig, Server, Work};
use rbp_util::{Json, Rng};

use crate::stats::{highest_resolved_percentile, median, percentile, tail_is_resolved, Tally};
use crate::trace::{durations, Tracer};
use crate::{run_passes, scratch_dir, time_setup, trace_health, Metrics, Outcome, RunArgs};

/// Distinct hot keys, all stored before timing starts.
const HOT_KEYS: usize = 384;
/// RAM cache entries: much smaller than the key set.
const CACHE_CAP: usize = 32;
/// Share of requests that carry a fresh instance (a guaranteed miss).
const MISS_FRAC: f64 = 0.10;
/// Zipf exponent of the hot-key popularity.
const ZIPF_S: f64 = 1.0;
/// Requests per client in one pass.
const BLOCK: usize = 250;
/// Requests replayed in-process per pass of the traced comparison.
const REPLAY: usize = 1500;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Server starts timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 31;

/// One request: endpoint, JSON body, and the hot key it hits (`None`
/// for a fresh instance).
#[derive(Debug, Clone)]
pub struct Req {
    pub endpoint: &'static str,
    pub body: String,
    pub hot: Option<usize>,
}

fn body(family: &str, params: &[u64], k: u64, r: u64, g: u64, inline: bool) -> String {
    let dag = if inline {
        let ps: Vec<usize> = params.iter().map(|&p| p as usize).collect();
        let dag = build_dag(family, &ps).expect("benchmark generator specs are valid");
        ("dag_text", Json::from(rbp_dag::io::to_text(&dag)))
    } else {
        (
            "generator",
            Json::obj([
                ("family", Json::from(family)),
                ("params", Json::arr(params.iter().map(|&p| Json::from(p)))),
            ]),
        )
    };
    Json::obj([
        dag,
        ("k", Json::from(k)),
        ("r", Json::from(r)),
        ("g", Json::from(g)),
    ])
    .render()
}

/// The hot key set, by popularity rank `i`: one in five solves an 8-node
/// DAG, two in five schedule a 64–256-node DAG, two in five ask for
/// bounds of a 2000–4096-node DAG (where deriving the key dominates a
/// cached answer). Classes and inline `dag_text` sit at fixed ranks, so
/// the seed moves only the instances and the request order, not the
/// shape of the mix. Inline bodies carry the small DAGs only: a
/// 4000-node `dag_text` takes 0.1–0.8 s to parse on a 2-thread Xeon
/// VM, and one such key near the top ranks would outweigh the whole
/// request path.
#[must_use]
pub fn hot_requests(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x686f_7400);
    (0..HOT_KEYS)
        .map(|i| {
            let s = rng.next_below(1 << 19);
            let (endpoint, body) = match i % 5 {
                0 => {
                    let (k, g) = (1 + rng.next_below(2), 1 + rng.next_below(2));
                    (
                        "solve",
                        body("layered", &[2, 4, 2, s], k, 3, g, i % 10 == 5),
                    )
                }
                1 | 2 => {
                    let (fam, ps) = match rng.index(3) {
                        0 => ("grid", vec![rng.range_u64(8, 17), rng.range_u64(8, 17)]),
                        1 => (
                            "layered",
                            vec![rng.range_u64(8, 17), rng.range_u64(8, 17), 2, s],
                        ),
                        _ => ("fft", vec![rng.range_u64(4, 6)]),
                    };
                    let k = 2 + 2 * rng.next_below(2);
                    ("schedule", body(fam, &ps, k, 4, 2, i % 10 == 1))
                }
                _ => {
                    let (fam, ps) = match rng.index(3) {
                        0 => ("grid", vec![rng.range_u64(45, 65), rng.range_u64(45, 65)]),
                        1 => (
                            "layered",
                            vec![rng.range_u64(45, 65), rng.range_u64(45, 65), 3, s],
                        ),
                        // pyramid(h) has (h+1)(h+2)/2 nodes: 4095 at h = 89.
                        _ => ("pyramid", vec![rng.range_u64(62, 90)]),
                    };
                    let k = 1 << (1 + rng.next_below(3));
                    ("bounds", body(fam, &ps, k, 8, 1 + rng.next_below(3), false))
                }
            };
            Req {
                endpoint,
                body,
                hot: Some(i),
            }
        })
        .collect()
}

/// One client's seeded request stream: Zipf-ranked hot keys, with a
/// fresh small instance (a layered DAG whose seed parameter no other
/// request uses) about one time in ten.
pub struct Stream<'a> {
    rng: Rng,
    hot: &'a [Req],
    cdf: Vec<f64>,
    next_fresh: u64,
}

impl<'a> Stream<'a> {
    /// Client `client` (0 or 1) of the run seeded `seed`.
    #[must_use]
    pub fn new(seed: u64, client: u64, hot: &'a [Req]) -> Self {
        let mut acc = 0.0;
        let cdf = (0..hot.len())
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        // Fresh seeds live above every hot seed (< 2^19); the two
        // clients take alternate ones.
        let base = (1 << 19) + (Rng::new(seed).next_below(1 << 17) << 1);
        Stream {
            rng: Rng::new(seed ^ (0x636c_6900 + client)),
            hot,
            cdf,
            next_fresh: base + client,
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.rng.bool(MISS_FRAC) {
            let s = self.next_fresh;
            self.next_fresh += 2;
            let (endpoint, body) = match self.rng.index(10) {
                // One processor keeps a fresh solve near a millisecond.
                0..=3 => {
                    let r = 3 + self.rng.next_below(2);
                    let g = 1 + self.rng.next_below(3);
                    ("solve", body("layered", &[2, 4, 2, s], 1, r, g, false))
                }
                4..=6 => ("schedule", body("layered", &[4, 6, 2, s], 2, 3, 2, false)),
                _ => ("bounds", body("layered", &[6, 8, 2, s], 2, 3, 2, false)),
            };
            return Some(Req {
                endpoint,
                body,
                hot: None,
            });
        }
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = self.rng.f64() * total;
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.hot.len() - 1);
        Some(self.hot[i].clone())
    }
}

/// The answer `Work::execute` gives for `req`, rendered as the server
/// renders a result core.
///
/// # Errors
/// The request's parse or execution error.
pub fn direct_answer(req: &Req) -> Result<String, String> {
    parse_work(req)?
        .execute()
        .map(|j| j.render())
        .map_err(|e| e.msg)
}

/// `req` parsed as the server parses it, with `max_solve_threads = 1`.
fn parse_work(req: &Req) -> Result<Work, String> {
    let json = Json::parse(&req.body).map_err(|e| e.to_string())?;
    let mut work = Work::parse(req.endpoint, &json).map_err(|e| e.msg)?;
    work.cap_threads(1);
    Ok(work)
}

/// Compares a served result core with the direct answer. Unless the
/// texts are equal outright (the wire ships the core verbatim), both
/// sides go through one parse and render, so an HTTP envelope's
/// re-rendered core compares alike.
pub fn check_answer(req: &Req, served: &str, reference: &str) -> Result<(), String> {
    let canon = |s: &str| {
        Json::parse(s)
            .map(|j| j.render())
            .map_err(|e| e.to_string())
    };
    if served == reference || canon(served)? == canon(reference)? {
        Ok(())
    } else {
        Err(format!(
            "/v1/{} answer differs from Work::execute for {}",
            req.endpoint,
            &req.body[..req.body.len().min(120)]
        ))
    }
}

/// One client-side sample.
#[derive(Debug, Clone)]
struct Sample {
    ms: f64,
    http: bool,
    tag: &'static str,
    /// Server-reported `elapsed_us` over client latency (HTTP only).
    server_frac: Option<f64>,
}

/// What one call returned: the served core and the sample, or why the
/// request failed.
fn call_http(addr: std::net::SocketAddr, req: &Req) -> Result<(String, Sample), String> {
    let t0 = Instant::now();
    let resp = http::request(
        addr,
        "POST",
        &format!("/v1/{}", req.endpoint),
        Some(&req.body),
        TIMEOUT,
    )
    .map_err(|e| format!("http: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if resp.status != 200 {
        return Err(format!("http status {}: {}", resp.status, resp.body));
    }
    let env = Json::parse(&resp.body).map_err(|e| format!("http body: {e}"))?;
    let tag = match env.get("cache").and_then(Json::as_str) {
        Some("hit") => "hit",
        Some("store") => "store",
        _ => "miss",
    };
    let server_frac = env
        .get("elapsed_us")
        .and_then(Json::as_f64)
        .map(|us| us / 1e3 / ms);
    let core = env
        .get("result")
        .ok_or("http envelope without result")?
        .render();
    Ok((
        core,
        Sample {
            ms,
            http: true,
            tag,
            server_frac,
        },
    ))
}

fn call_wire(client: &mut wire::Client, req: &Req) -> Result<(String, Sample), String> {
    let t0 = Instant::now();
    let resp = client
        .call(req.endpoint, &req.body)
        .map_err(|e| format!("wire: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if !resp.is_ok() {
        return Err(format!("wire status {}: {}", resp.status, resp.payload));
    }
    Ok((
        resp.payload,
        Sample {
            ms,
            http: false,
            tag: wire::tag_name(resp.tag),
            server_frac: None,
        },
    ))
}

/// Fills a fresh store at `dir` with every hot key's answer, computed
/// directly, and returns the answers.
fn fill_store(dir: &Path, hot: &[Req]) -> std::io::Result<Vec<String>> {
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultStore::open(dir, 0)?;
    hot.iter()
        .map(|req| {
            let key = parse_work(req).map_err(std::io::Error::other)?.cache_key();
            let answer = direct_answer(req).map_err(std::io::Error::other)?;
            store.append(&key, &answer);
            Ok(answer)
        })
        .collect()
}

/// Starts `reps` servers on `store_dir` one after another, timing each
/// `Server::start` (store open, warm boot, thread spawn) into `times`;
/// every one but the last is shut down again, untimed.
fn start_servers(store_dir: &Path, times: &mut Vec<f64>, reps: usize) -> std::io::Result<Server> {
    let mut last: Option<Server> = None;
    for _ in 0..reps.max(1) {
        if let Some(s) = last.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        last = Some(Server::start(config(store_dir))?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one start"))
}

fn config(store_dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache_cap: CACHE_CAP,
        max_solve_threads: 1,
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        store_cap_bytes: 0,
        ..ServeConfig::default()
    }
}

/// Client-side results of the timed phase.
struct Served {
    samples: Vec<Sample>,
    /// Wall time of every block (both clients' requests).
    blocks: Vec<f64>,
}

/// Runs both clients in blocks for `seconds`. Answers for fresh
/// instances are checked between blocks, untimed, against a direct
/// `Work::execute`.
fn drive(
    server: &Server,
    args: &RunArgs,
    hot: &[Req],
    refs: &[String],
    seconds: f64,
    tally: &mut Tally,
) -> Served {
    let addr = server.addr();
    let barrier = Barrier::new(2);
    let go = Mutex::new(true);
    let slots = Mutex::new([0.0f64; 2]);
    let blocks = Mutex::new(Vec::<f64>::new());
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|client| {
                let (barrier, go, slots, blocks) = (&barrier, &go, &slots, &blocks);
                s.spawn(move || {
                    let mut stream = Stream::new(args.seed, client, hot);
                    let mut wire_client = (client == 1)
                        .then(|| wire::Client::connect(addr, TIMEOUT).map_err(|e| e.to_string()));
                    let (mut samples, mut fresh, mut tally) =
                        (Vec::new(), Vec::new(), Tally::default());
                    loop {
                        // The leader decides whether another block fits;
                        // both wait for that decision.
                        if barrier.wait().is_leader() {
                            let done = blocks.lock().expect("block log lock");
                            let left = seconds - t0.elapsed().as_secs_f64();
                            *go.lock().expect("go flag lock") =
                                done.is_empty() || median(&done) <= left;
                        }
                        barrier.wait();
                        if !*go.lock().expect("go flag lock") {
                            break;
                        }
                        let start = Instant::now();
                        for req in stream.by_ref().take(BLOCK) {
                            let out = match &mut wire_client {
                                None => call_http(addr, &req),
                                Some(Ok(c)) => call_wire(c, &req),
                                Some(Err(e)) => Err(format!("wire connect: {e}")),
                            };
                            tally.record(out.and_then(|(core, sample)| {
                                samples.push(sample);
                                match req.hot {
                                    Some(i) => check_answer(&req, &core, &refs[i]),
                                    None => {
                                        fresh.push((req, core));
                                        Ok(())
                                    }
                                }
                            }));
                        }
                        slots.lock().expect("slot lock")[client as usize] =
                            start.elapsed().as_secs_f64();
                        // A block ends when its slower client ends.
                        if barrier.wait().is_leader() {
                            let [a, b] = *slots.lock().expect("slot lock");
                            blocks.lock().expect("block log lock").push(a.max(b));
                        }
                        for (req, core) in fresh.drain(..) {
                            let checked = direct_answer(&req)
                                .and_then(|want| check_answer(&req, &core, &want));
                            if let Err(why) = checked {
                                tally.fail(why);
                            }
                        }
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = Served {
        samples: Vec::new(),
        blocks: blocks.into_inner().expect("block log lock"),
    };
    for (samples, t) in per_client {
        out.samples.extend(samples);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.reasons.extend(t.reasons);
    }
    out
}

/// Runs `serve-mix`.
pub fn run(args: &RunArgs) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let dir: PathBuf = scratch_dir().join(format!("serve-{}", std::process::id()));
    let store_dir = dir.join("store");
    let hot = hot_requests(args.seed);
    let pristine = dir.join("pristine.log");
    let mut starts = Vec::new();
    let prepared = fill_store(&store_dir, &hot).and_then(|refs| {
        std::fs::copy(store_dir.join("results.log"), &pristine)?;
        let mut open = Vec::new();
        drop(time_setup(&mut open, 9, || {
            ResultStore::open(&store_dir, 0)
        })?);
        m.set("serve.store.open_s", median(&open));
        let server = start_servers(&store_dir, &mut starts, SETUP_REPS / 2)?;
        Ok((refs, server))
    });
    let (refs, server) = match prepared {
        Ok(p) => p,
        Err(e) => {
            tally.record(Err(format!("preparing the server: {e}")));
            let _ = std::fs::remove_dir_all(&dir);
            m.set("fail_frac", tally.fail_frac());
            return Outcome {
                metrics: m,
                tally,
                tracer: Tracer::new(false),
                passes: Vec::new(),
            };
        }
    };

    let client_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let served = drive(&server, args, &hot, &refs, client_seconds, &mut tally);
    let stats = http::request(server.addr(), "GET", "/v1/stats", None, TIMEOUT)
        .ok()
        .and_then(|r| Json::parse(&r.body).ok());
    server.shutdown();

    // The other half of the set-up samples, after the timed window, on
    // a fresh copy of the filled store (the run appended to its own).
    let again = dir.join("setup-store");
    let restarted = std::fs::create_dir_all(&again)
        .and_then(|()| std::fs::copy(&pristine, again.join("results.log")))
        .and_then(|_| start_servers(&again, &mut starts, SETUP_REPS - SETUP_REPS / 2));
    match restarted {
        Ok(s) => s.shutdown(),
        Err(e) => tally.record(Err(format!("restarting the server: {e}"))),
    }
    m.set("setup_s", median(&starts));

    client_metrics(&mut m, &served);
    if let Some(stats) = &stats {
        stats_metrics(&mut m, stats);
    }
    let mut tracer = Tracer::new(true);
    if args.trace {
        replay(&mut m, args, (&hot, &refs), &dir, &mut tracer, &mut tally);
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.set("fail_frac", tally.fail_frac());
    Outcome {
        metrics: m,
        tally,
        tracer,
        passes: served.blocks,
    }
}

fn client_metrics(m: &mut Metrics, s: &Served) {
    let ms = |f: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        s.samples.iter().filter(|x| f(x)).map(|x| x.ms).collect()
    };
    let all = ms(&|_| true);
    m.set("pass_s", median(&s.blocks));
    // Requests per second of time spent in blocks (the checks between
    // blocks are not the server's load).
    m.set("serve_rps", all.len() as f64 / s.blocks.iter().sum::<f64>());
    m.set("serve_p50_ms", median(&all));
    let p99 = if tail_is_resolved(all.len(), 99.0) {
        percentile(&all, 99.0)
    } else {
        highest_resolved_percentile(&all).map_or(0.0, |p| p.1)
    };
    m.set("serve_p99_ms", p99);
    m.set("serve.http.p50_ms", median(&ms(&|x| x.http)));
    m.set("serve.wire.p50_ms", median(&ms(&|x| !x.http)));
    m.set("serve.hit.p50_ms", median(&ms(&|x| x.tag == "hit")));
    m.set("serve.store_hit.p50_ms", median(&ms(&|x| x.tag == "store")));
    m.set("serve.miss.p50_ms", median(&ms(&|x| x.tag == "miss")));
    let fracs: Vec<f64> = s.samples.iter().filter_map(|x| x.server_frac).collect();
    m.set("serve.server_frac", median(&fracs));
}

fn stats_metrics(m: &mut Metrics, stats: &Json) {
    let n = |path: &[&str]| -> f64 {
        let mut v = Some(stats);
        for p in path {
            v = v.and_then(|j| j.get(p));
        }
        v.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let frac = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    m.set(
        "serve.cache.hit_frac",
        frac(n(&["cache", "hits"]), n(&["cache", "misses"])),
    );
    m.set(
        "serve.store.hit_frac",
        frac(n(&["store", "hits"]), n(&["store", "misses"])),
    );
    m.set("serve.rejected", n(&["rejected"]));
}

/// Replays the clients' interleaved request sequence in-process through
/// the same calls the server makes, alternating untraced and traced
/// passes, each on a fresh cache and a fresh copy of the filled store
/// (`dir/pristine.log`).
fn replay(
    m: &mut Metrics,
    args: &RunArgs,
    (hot, refs): (&[Req], &[String]),
    dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let pristine = dir.join("pristine.log");
    let mut a = Stream::new(args.seed, 0, hot);
    let mut b = Stream::new(args.seed, 1, hot);
    let reqs: Vec<Req> = (0..REPLAY)
        .filter_map(|i| if i % 2 == 0 { a.next() } else { b.next() })
        .collect();
    let (mut plain, mut traced, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    let replay_dir = dir.join("replay");
    run_passes(args.seconds / 2.0, 2, |i| {
        let traced_pass = i % 2 == 1;
        let store = std::fs::create_dir_all(&replay_dir)
            .and_then(|()| std::fs::copy(&pristine, replay_dir.join("results.log")))
            .and_then(|_| ResultStore::open(&replay_dir, 0));
        let store = match store {
            Ok(s) => s,
            Err(e) => return tally.record(Err(format!("replay store: {e}"))),
        };
        let cache = ResultCache::new(CACHE_CAP);
        let mut off = Tracer::new(false);
        let tr = if traced_pass { &mut *tracer } else { &mut off };
        let t0 = Instant::now();
        let root = tr.begin("bench.pass");
        let answers: Vec<Result<String, String>> = reqs
            .iter()
            .map(|req| {
                let group = tr.begin("bench.request");
                let answer = serve_in_process(req, &cache, &store, tr);
                tr.end(group);
                answer
            })
            .collect();
        tr.end(root);
        let wall = t0.elapsed().as_secs_f64();
        // Checked after the pass, so checking is not timed. Fresh
        // instances came from Work::execute itself here.
        for (req, answer) in reqs.iter().zip(answers) {
            tally.record(answer.and_then(|core| match req.hot {
                Some(i) => check_answer(req, &core, &refs[i]),
                None => Ok(()),
            }));
        }
        if traced_pass {
            roots.extend(root.index());
            traced.push(wall);
        } else {
            plain.push(wall);
        }
    });
    let spans = tracer.spans();
    let med_us = |name: &str| median(&durations(spans, name)) * 1e6;
    m.set("util.json.parse_us", med_us("util.json.parse"));
    m.set("serve.api.parse_us", med_us("serve.api.parse"));
    m.set("serve.api.key_us", med_us("serve.api.key"));
    m.set("serve.cache.get_us", med_us("serve.cache.get"));
    m.set("serve.store.get_us", med_us("serve.store.get"));
    m.set("serve.store.append_us", med_us("serve.store.append"));
    m.set("serve.api.execute_ms", med_us("serve.api.execute") / 1e3);
    m.set("util.json.render_us", med_us("util.json.render"));
    trace_health(m, tracer, &roots, &traced, &plain);
}

/// The server's submission path for one request, call by call:
/// parse the body, parse the work, derive the key, probe the RAM cache
/// then the store, and only then execute, render, cache and persist.
fn serve_in_process(
    req: &Req,
    cache: &ResultCache,
    store: &ResultStore,
    tr: &mut Tracer,
) -> Result<String, String> {
    let json = tr
        .time("util.json.parse", || Json::parse(&req.body))
        .map_err(|e| e.to_string())?;
    let work = tr
        .time("serve.api.parse", || {
            Work::parse(req.endpoint, &json).map(|mut w| {
                w.cap_threads(1);
                w
            })
        })
        .map_err(|e| e.msg)?;
    let key = tr.time("serve.api.key", || work.cache_key());
    if let Some(core) = tr.time("serve.cache.get", || cache.get(&key)) {
        return Ok(core);
    }
    if let Some(core) = tr.time("serve.store.get", || store.get(&key)) {
        tr.time("serve.cache.insert", || cache.insert(&key, core.clone()));
        return Ok(core);
    }
    let core = tr
        .time("serve.api.execute", || work.execute())
        .map_err(|e| e.msg)?;
    let rendered = tr.time("util.json.render", || core.render());
    tr.time("serve.cache.insert", || {
        cache.insert(&key, rendered.clone())
    });
    tr.time("serve.store.append", || store.append(&key, &rendered));
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_follow_the_seed_and_mix_hot_and_fresh_keys() {
        let hot = hot_requests(3);
        assert_eq!(hot_requests(3)[7].body, hot[7].body);
        let a: Vec<_> = Stream::new(3, 0, &hot).take(2000).collect();
        let again: Vec<_> = Stream::new(3, 0, &hot).take(2000).collect();
        assert!(a.iter().zip(&again).all(|(x, y)| x.body == y.body));
        let fresh = a.iter().filter(|r| r.hot.is_none()).count();
        assert!((120..280).contains(&fresh), "{fresh} fresh of 2000");
        // Fresh instances never repeat, across both clients.
        let b: Vec<_> = Stream::new(3, 1, &hot).take(2000).collect();
        let mut bodies: Vec<_> = a
            .iter()
            .chain(&b)
            .filter(|r| r.hot.is_none())
            .map(|r| &r.body)
            .collect();
        let n = bodies.len();
        bodies.sort();
        bodies.dedup();
        assert_eq!(bodies.len(), n);
        // Zipf: the most popular key is the most requested.
        let top = a.iter().filter(|r| r.hot == Some(0)).count();
        assert!(top > 100, "{top}");
    }

    #[test]
    fn in_process_path_matches_direct_answers_and_a_wrong_answer_fails() {
        let hot = hot_requests(5);
        let dir = scratch_dir().join(format!("test-serve-{}", std::process::id()));
        let refs = fill_store(&dir.join("store"), &hot[..6]).unwrap();
        let store = ResultStore::open(&dir.join("store"), 0).unwrap();
        let cache = ResultCache::new(2);
        let mut tr = Tracer::new(true);
        let mut tally = Tally::default();
        for (req, want) in hot[..6].iter().zip(&refs) {
            let got = serve_in_process(req, &cache, &store, &mut tr).unwrap();
            tally.record(check_answer(req, &got, want));
        }
        let fresh: Vec<_> = Stream::new(5, 0, &hot)
            .filter(|r| r.hot.is_none())
            .take(3)
            .collect();
        for req in &fresh {
            let got = serve_in_process(req, &cache, &store, &mut tr).unwrap();
            tally.record(direct_answer(req).and_then(|want| check_answer(req, &got, &want)));
        }
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        // A planted wrong served answer is a failure.
        let wrong = refs[0].replacen("\"endpoint\"", "\"endpoint_\"", 1);
        tally.record(check_answer(&hot[0], &wrong, &refs[0]));
        assert_eq!((tally.attempted, tally.failed), (10, 1));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
