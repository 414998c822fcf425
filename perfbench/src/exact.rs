//! `exact-seq` and `exact-par`: prove every optimum of a fixed instance
//! set (plus seeded draws) with the A* engine, replay each witness
//! through the checked validator, and place it between the Lemma 1
//! lower bound and the best heuristic.

use std::time::Instant;

use rbp_bounds::trivial;
use rbp_core::{
    solve_mpp_with, validate_mpp, MppInstance, SearchConfig, SearchOutcome, SearchStats,
};
use rbp_dag::{generators, Dag};
use rbp_hier::{all_hier_schedulers, solve_hier_with, validate_hier, HierInstance};
use rbp_schedulers::all_schedulers;
use rbp_util::Rng;

use crate::stats::{expect_eq, median, sum_of_medians, Tally};
use crate::trace::{durations, Tracer};
use crate::{run_passes, time_setup, trace_health, Metrics, Outcome, RunArgs};

/// Seeded `layered_random(3, 3, 2, ·)` draws per set. Many small draws
/// rather than two `layered_random(3, 4, 2, ·)` ones: those are bimodal
/// (0.1 s or 2–3.4 s each on a 2-thread Xeon VM), so two of them would
/// move `solve_s` by half between seeds and no bound could hold it.
const DRAWS: usize = 8;

/// Set-up repetitions per sampling window.
const SETUP_REPS: usize = 101;

/// One exact instance: MPP with `k = 2`, `r = 3`, or its three-level
/// lift when `green` is set.
pub struct Case {
    pub name: String,
    pub dag: Dag,
    pub g: u64,
    /// `(green_cap, green_cost)` for the three-level game.
    pub green: Option<(usize, u64)>,
    /// The recorded optimum, for the fixed instances.
    pub want: Option<u64>,
}

const K: usize = 2;
const R: usize = 3;

impl Case {
    fn mpp(&self) -> MppInstance<'_> {
        MppInstance::new(&self.dag, K, R, self.g)
    }

    fn hier(&self) -> Option<HierInstance<'_>> {
        self.green
            .map(|(cap, cost)| HierInstance::new(&self.dag, K, R, self.g, cap, cost))
    }
}

/// The instance set for `seed`: the fixed instances with their recorded
/// optima, the seeded draws, and the three-level instance.
#[must_use]
pub fn cases(seed: u64) -> Vec<Case> {
    let case = |name: &str, dag: Dag, g: u64, green, want| Case {
        name: name.to_string(),
        dag,
        g,
        green,
        want,
    };
    let mut out = vec![
        case("grid3x4_g1", generators::grid(3, 4), 1, None, Some(13)),
        case("pyramid3_g2", generators::pyramid(3), 2, None, Some(15)),
        case("grid3x3_g2", generators::grid(3, 3), 2, None, Some(11)),
    ];
    let mut rng = Rng::new(seed ^ 0x6578_6163_7400);
    for _ in 0..DRAWS {
        let s = rng.next_below(1 << 20);
        out.push(case(
            &format!("layered3x3_{s}_g1"),
            generators::layered_random(3, 3, 2, s),
            1,
            None,
            None,
        ));
    }
    out.push(case(
        "pyramid3_hier_g2",
        generators::pyramid(3),
        2,
        Some((1, 1)),
        Some(12),
    ));
    out
}

/// What one solve produced, after its checks.
pub struct Solved {
    pub total: Option<u64>,
    pub stats: SearchStats,
    pub wall: f64,
}

/// Checks a claimed optimum: it must be proven, replay through the
/// validator to exactly `total`, lie between `lower` and `best`, and
/// equal the recorded optimum and the reference (another thread
/// count's answer) when those are known.
pub fn check_optimum(
    name: &str,
    total: Option<u64>,
    replayed: Result<u64, String>,
    lower: u64,
    best: u64,
    want: Option<u64>,
    reference: Option<u64>,
) -> Result<(), String> {
    let total = total.ok_or_else(|| format!("{name}: no optimum proven"))?;
    expect_eq(&format!("{name} replayed cost"), replayed?, total)?;
    if !(lower <= total && total <= best) {
        return Err(format!(
            "{name}: optimum {total} outside Lemma 1 lower {lower} .. best heuristic {best}"
        ));
    }
    if let Some(w) = want {
        expect_eq(&format!("{name} recorded optimum"), total, w)?;
    }
    if let Some(r) = reference {
        expect_eq(&format!("{name} optimum vs reference"), total, r)?;
    }
    Ok(())
}

/// Solves `case`, validates it and sandwiches it, recording spans.
fn solve_case(
    case: &Case,
    config: &SearchConfig,
    reference: Option<u64>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Solved {
    let t0 = Instant::now();
    let group = tr.begin("bench.instance");
    let mpp = case.mpp();
    let (total, stats, replayed, best) = if let Some(h) = case.hier() {
        let out = tr.time("hier.search", || solve_hier_with(&h, config));
        let replayed = tr.time("hier.validate", || replay_hier(&h, &out));
        let best = tr.time("bounds.sandwich", || {
            all_hier_schedulers()
                .iter()
                .filter_map(|s| s.schedule(&h).ok())
                .map(|run| run.cost.total(h.model))
                .min()
        });
        (out.solution.map(|s| s.total), out.stats, replayed, best)
    } else {
        let out = tr.time("core.search", || solve_mpp_with(&mpp, config));
        let replayed = tr.time("core.validate", || replay_mpp(&mpp, &out));
        let best = tr.time("bounds.sandwich", || {
            all_schedulers()
                .iter()
                .filter_map(|s| s.schedule(&mpp).ok())
                .map(|run| run.cost.total(mpp.model))
                .min()
        });
        (out.solution.map(|s| s.total), out.stats, replayed, best)
    };
    let lower = trivial::lower(&mpp);
    tr.end(group);
    tally.record(check_optimum(
        &case.name,
        total,
        replayed,
        lower,
        best.unwrap_or(0),
        case.want,
        reference,
    ));
    Solved {
        total,
        stats,
        wall: t0.elapsed().as_secs_f64(),
    }
}

fn replay_mpp(
    inst: &MppInstance,
    out: &SearchOutcome<rbp_core::MppSolution>,
) -> Result<u64, String> {
    let sol = out.solution.as_ref().ok_or("no witness")?;
    validate_mpp(inst, &sol.strategy.moves)
        .map(|c| c.total(inst.model))
        .map_err(|e| e.to_string())
}

fn replay_hier(
    inst: &HierInstance,
    out: &SearchOutcome<rbp_hier::HierSolution>,
) -> Result<u64, String> {
    let sol = out.solution.as_ref().ok_or("no witness")?;
    validate_hier(inst, &sol.strategy.moves)
        .map(|c| c.total(inst.model))
        .map_err(|e| e.to_string())
}

/// Runs `exact-seq` (`threads == 1`) or `exact-par` (`threads == 2`).
pub fn run(args: &RunArgs, threads: usize) -> Outcome {
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    // Set-up is building the instance set; it takes tens of
    // microseconds, so it is sampled again after every pass.
    let mut setup = Vec::new();
    let set = time_setup(&mut setup, SETUP_REPS, || cases(args.seed));

    // Reference optima from the sequential engine for the seeded draws
    // (the fixed instances carry recorded optima). Every pass is
    // checked against them, so exact-par's answers equal exact-seq's.
    let seq = SearchConfig::default();
    let reference: Vec<Option<u64>> = set
        .iter()
        .map(|c| match c.want {
            Some(_) => None,
            None => solve_mpp_with(&c.mpp(), &seq).solution.map(|s| s.total),
        })
        .collect();

    let config = SearchConfig::default().with_threads(threads);
    let mut plain = Vec::new();
    let mut per_case: Vec<Vec<f64>> = Vec::new();
    let mut traced = Vec::new();
    let mut last: Vec<Solved> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut roots = Vec::new();
    let min_passes = if args.trace { 2 } else { 1 };
    run_passes(args.seconds, min_passes, |i| {
        // In a traced run, passes alternate untraced and traced.
        let traced_pass = args.trace && i % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if traced_pass { &mut tracer } else { &mut off };
        let t0 = Instant::now();
        let root = tr.begin("bench.pass");
        let solved: Vec<Solved> = set
            .iter()
            .zip(&reference)
            .map(|(c, &r)| solve_case(c, &config, r, tr, &mut tally))
            .collect();
        tr.end(root);
        let wall = t0.elapsed().as_secs_f64();
        if traced_pass {
            roots.extend(root.index());
            traced.push(wall);
        } else {
            plain.push(wall);
            per_case.push(solved.iter().map(|s| s.wall).collect());
        }
        last = solved;
        time_setup(&mut setup, SETUP_REPS, || cases(args.seed));
    });

    // Proving every optimum once: each instance at its median time.
    // The three-level instance is the last one.
    let n = set.len();
    m.set("setup_s", median(&setup));
    m.set("dag.build_s", median(&setup));
    m.set("pass_s", sum_of_medians(&per_case, 0..n));
    m.set("solve_s", sum_of_medians(&per_case, 0..n));
    m.set("solve_hier_s", sum_of_medians(&per_case, n - 1..n));
    if args.trace {
        search_metrics(&mut m, &set, &last, &tracer, traced.len());
        trace_health(&mut m, &tracer, &roots, &traced, &plain);
        if threads > 1 {
            let t1: Vec<SearchStats> = set
                .iter()
                .map(|c| match c.hier() {
                    Some(h) => solve_hier_with(&h, &seq).stats,
                    None => solve_mpp_with(&c.mpp(), &seq).stats,
                })
                .collect();
            driver_metrics(&mut m, &t1, &last);
        }
    }
    m.set("fail_frac", tally.fail_frac());
    Outcome {
        metrics: m,
        tally,
        tracer,
        passes: plain,
    }
}

/// Search counters (from the last pass; they repeat exactly at one
/// thread) and per-layer times (per traced pass).
fn search_metrics(m: &mut Metrics, set: &[Case], last: &[Solved], tr: &Tracer, passes: usize) {
    let per_pass = |name: &str| durations(tr.spans(), name).iter().sum::<f64>() / passes as f64;
    let (mut settled, mut pushed, mut bytes, mut states, mut peak) = (0, 0, 0, 0, 0);
    let (mut h_frac, mut hier_settled) = (Vec::new(), 0);
    for (c, s) in set.iter().zip(last) {
        if c.green.is_some() {
            hier_settled += s.stats.settled;
            continue;
        }
        settled += s.stats.settled;
        pushed += s.stats.pushed;
        bytes += s.stats.arena_peak_bytes;
        states += s.stats.arena_states;
        peak = peak.max(s.stats.frontier_peak);
        h_frac.push(s.total.map_or(0.0, |t| s.stats.h_root as f64 / t as f64));
    }
    m.set("core.settled", settled as f64);
    m.set("core.pushed", pushed as f64);
    m.set(
        "core.states_per_s",
        settled as f64 / per_pass("core.search"),
    );
    m.set("core.h_root_frac", median(&h_frac));
    m.set(
        "core.arena_bytes_per_state",
        bytes as f64 / states.max(1) as f64,
    );
    m.set("core.frontier_peak", peak as f64);
    m.set(
        "core.validate_s",
        per_pass("core.validate") + per_pass("hier.validate"),
    );
    m.set("bounds.sandwich_s", per_pass("bounds.sandwich"));
    m.set("hier.settled", hier_settled as f64);
    m.set(
        "hier.states_per_s",
        hier_settled as f64 / per_pass("hier.search"),
    );
}

/// Sharded-engine counters of the last two-thread pass against a
/// one-thread solve of every instance.
fn driver_metrics(m: &mut Metrics, t1: &[SearchStats], last: &[Solved]) {
    let ratios: Vec<f64> = t1
        .iter()
        .zip(last)
        .map(|(a, b)| b.stats.settled as f64 / a.settled.max(1) as f64)
        .collect();
    let sum = |f: fn(&SearchStats) -> u64| last.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let (sends, blocks, local) = (
        sum(|s| s.cross_sends),
        sum(|s| s.send_blocks),
        sum(|s| s.local_succs),
    );
    m.set("driver.settled_ratio", median(&ratios));
    m.set(
        "driver.sends_per_settled",
        sends / sum(|s| s.settled).max(1.0),
    );
    m.set("driver.batch_factor", sends / blocks.max(1.0));
    m.set("driver.locality_frac", local / (local + sends).max(1.0));
    m.set("driver.foreign_expansions", sum(|s| s.foreign_expansions));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cases_carry_the_recorded_optima_and_draws_follow_the_seed() {
        let a = cases(1);
        let want: Vec<_> = a
            .iter()
            .filter_map(|c| c.want.map(|w| (c.name.as_str(), w)))
            .collect();
        assert_eq!(
            want,
            vec![
                ("grid3x4_g1", 13),
                ("pyramid3_g2", 15),
                ("grid3x3_g2", 11),
                ("pyramid3_hier_g2", 12)
            ]
        );
        assert_eq!(a.len(), 4 + DRAWS);
        let names = |s| cases(s).into_iter().map(|c| c.name).collect::<Vec<_>>();
        assert_eq!(names(1), names(1));
        assert_ne!(names(1), names(2));
        // The held-out seed draws instances the routine seed does not.
        let routine = names(crate::ROUTINE_SEED);
        assert!(names(crate::HELD_OUT_SEED)
            .iter()
            .filter(|n| n.starts_with("layered"))
            .all(|n| !routine.contains(n)));
    }

    #[test]
    fn a_planted_wrong_optimum_is_reported_as_a_failure() {
        let mut tally = Tally::default();
        // Correct: proven, replays, inside the sandwich, recorded.
        tally.record(check_optimum("ok", Some(13), Ok(13), 6, 20, Some(13), None));
        // Planted wrong optimum against the recorded value.
        tally.record(check_optimum(
            "planted",
            Some(12),
            Ok(12),
            6,
            20,
            Some(13),
            None,
        ));
        // A witness that replays to another cost.
        tally.record(check_optimum("replay", Some(13), Ok(14), 6, 20, None, None));
        // Below the Lemma 1 lower bound, above the best heuristic.
        tally.record(check_optimum("low", Some(5), Ok(5), 6, 20, None, None));
        tally.record(check_optimum("high", Some(21), Ok(21), 6, 20, None, None));
        // Parallel answer differing from the sequential reference.
        tally.record(check_optimum(
            "par",
            Some(13),
            Ok(13),
            6,
            20,
            None,
            Some(12),
        ));
        tally.record(check_optimum(
            "none",
            None,
            Err("no witness".into()),
            6,
            20,
            None,
            None,
        ));
        assert_eq!((tally.attempted, tally.failed), (7, 6));
    }

    #[test]
    fn a_real_solve_passes_its_checks() {
        let case = Case {
            name: "grid2x3".into(),
            dag: generators::grid(2, 3),
            g: 2,
            green: None,
            want: None,
        };
        let mut tally = Tally::default();
        let mut tr = Tracer::new(true);
        let s = solve_case(&case, &SearchConfig::default(), None, &mut tr, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert!(s.total.is_some());
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench.instance",
                "core.search",
                "core.validate",
                "bounds.sandwich"
            ]
        );
    }
}
