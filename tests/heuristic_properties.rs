//! Property tests for the A\* heuristic (`AdmissibleHeuristic`) as
//! the MPP and three-level exact solvers use it.
//!
//! 1. **Consistency**: along seeded random walks through the naive
//!    (unpruned, label-sensitive) state space, every successor `s'` of
//!    a visited state `s` satisfies `h(s) ≤ cost(s → s') + h(s')`. This
//!    is what lets the bucket frontier's cursor only move forward and
//!    makes the first settling of a state final.
//! 2. **Admissibility in effect**: the default solver (heuristic on)
//!    proves the same optimum as uniform-cost search (heuristic off) on
//!    small seeded `layered_random` instances, with and without a green
//!    tier.
//!
//! Every case is a deterministic function of its loop index, so a
//! failure message identifies the exact instance.

use rbp::core::mpp::exact::probe::heuristic_walk;
use rbp::core::rbp_dag::generators;
use rbp::core::{solve_mpp_with, GreenTier, MppInstance, SearchConfig, SolveLimits};
use rbp::hier::{solve_hier_with, HierInstance};
use rbp::util::Rng;

const WALK_STEPS: usize = 40;

fn assert_consistent(inst: &MppInstance, tier: Option<GreenTier>, seed: u64, ctx: &str) -> u64 {
    let mut edges = 0;
    for (step, (h, succs)) in heuristic_walk(inst, tier, seed, WALK_STEPS)
        .into_iter()
        .enumerate()
    {
        for (cost, h2) in succs {
            assert!(
                h <= cost + h2,
                "{ctx} step {step}: h = {h} > cost {cost} + h' {h2}"
            );
            edges += 1;
        }
    }
    edges
}

/// 150 random MPP instances (k ≤ 4), 6 walks each: the bound never
/// drops by more than the edge cost.
#[test]
fn mpp_heuristic_is_consistent_along_random_walks() {
    let mut rng = Rng::new(0xc0_5157);
    let mut edges = 0;
    for case in 0..150u64 {
        let dag = if case % 2 == 0 {
            generators::random_dag(5 + rng.index(6), 0.2 + rng.f64() * 0.4, case)
        } else {
            generators::layered_random(2 + rng.index(3), 2 + rng.index(2), 2, case)
        };
        let k = 1 + rng.index(4);
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 4);
        let inst = MppInstance::new(&dag, k, r, g);
        for walk in 0..6 {
            let ctx = format!(
                "mpp case {case} walk {walk}: n={} k={k} r={r} g={g}",
                dag.n()
            );
            edges += assert_consistent(&inst, None, case * 6 + walk, &ctx);
        }
    }
    assert!(edges > 100_000, "walks too short: {edges} edges");
}

/// 100 random three-level instances (green capacity 1 or 2, green
/// cost possibly below `g`), 6 walks each.
#[test]
fn hier_heuristic_is_consistent_along_random_walks() {
    let mut rng = Rng::new(0x41_e2c5);
    let mut edges = 0;
    for case in 0..100u64 {
        let dag = generators::random_dag(5 + rng.index(5), 0.2 + rng.f64() * 0.4, case + 1000);
        let k = 1 + rng.index(3);
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(2, 5);
        let green_cap = 1 + rng.index(2);
        let green_cost = rng.range_u64(1, g);
        let inst = HierInstance::new(&dag, k, r, g, green_cap, green_cost);
        for walk in 0..6 {
            let ctx = format!(
                "hier case {case} walk {walk}: n={} k={k} r={r} g={g} cap={green_cap} gc={green_cost}",
                dag.n()
            );
            edges += assert_consistent(
                &inst.mpp_instance(),
                Some(inst.green_tier()),
                case * 6 + walk,
                &ctx,
            );
        }
    }
    assert!(edges > 50_000, "walks too short: {edges} edges");
}

fn configs() -> (SearchConfig, SearchConfig) {
    let limits = SolveLimits::states(2_000_000);
    (
        SearchConfig::default().with_limits(limits),
        SearchConfig {
            heuristic: false,
            ..SearchConfig::default()
        }
        .with_limits(limits),
    )
}

/// Seeded `layered_random` MPP instances, three layers deep, at k = 2
/// (width 3) and k = 3 (width 2): the default solver and uniform-cost
/// search prove the same optimum.
#[test]
fn mpp_optimum_matches_heuristic_off() {
    let (on, off) = configs();
    for seed in 0..12u64 {
        let (width, k) = if seed % 2 == 0 { (3, 2) } else { (2, 3) };
        let dag = generators::layered_random(3, width, 2, seed);
        let g = 1 + seed % 3;
        let inst = MppInstance::new(&dag, k, 3, g);
        let ctx = format!("mpp seed {seed}: n={} k={k} g={g}", dag.n());
        let fast = solve_mpp_with(&inst, &on).solution;
        let slow = solve_mpp_with(&inst, &off).solution;
        let fast = fast.unwrap_or_else(|| panic!("{ctx}: heuristic-on budget"));
        let slow = slow.unwrap_or_else(|| panic!("{ctx}: heuristic-off budget"));
        assert_eq!(fast.total, slow.total, "{ctx}: optima differ");
    }
}

/// The same check in the three-level game at k = 2, green capacity 1
/// and 2.
#[test]
fn hier_optimum_matches_heuristic_off() {
    let (on, off) = configs();
    for seed in 0..8u64 {
        let dag = generators::layered_random(3, 2, 2, seed + 100);
        let green_cap = 1 + (seed % 2) as usize;
        let g = 2 + seed % 2;
        let inst = HierInstance::new(&dag, 2, 3, g, green_cap, 1);
        let ctx = format!("hier seed {seed}: n={} g={g} cap={green_cap}", dag.n());
        let fast = solve_hier_with(&inst, &on).solution;
        let slow = solve_hier_with(&inst, &off).solution;
        let fast = fast.unwrap_or_else(|| panic!("{ctx}: heuristic-on budget"));
        let slow = slow.unwrap_or_else(|| panic!("{ctx}: heuristic-off budget"));
        assert_eq!(fast.total, slow.total, "{ctx}: optima differ");
    }
}
