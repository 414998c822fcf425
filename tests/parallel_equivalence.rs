//! Equivalence harness for the sharded parallel exact solver.
//!
//! The parallel engine (HDA\*-style shard ownership over SPSC
//! channels) must be invisible in the results: on every instance,
//! every thread count, and every [`PartitionMode`] it proves the same
//! optimal `total` as the sequential engine, its witness validates,
//! and its stop reasons stay meaningful. This harness checks that on
//! randomized small instances across MPP (k ≤ 3) and the SPP variant
//! zoo, at 2, 4, and 8 worker threads (rotating the partition mode
//! through the random cases and sweeping all modes exhaustively on
//! fixed instances), plus determinism of the proven cost across
//! repeated parallel runs.
//!
//! Every case is a deterministic function of its loop index (seeded
//! in-tree RNG), so a failure message identifies the exact instance.

use std::time::Duration;

use rbp::core::rbp_dag::generators;
use rbp::core::{
    solve_mpp_with, solve_spp_with, CostModel, MppInstance, PartitionMode, SearchConfig,
    SearchStats, ShardStats, SolveLimits, SppInstance, SppVariant, StopReason,
};
use rbp::util::Rng;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Deterministically rotates ownership strategies through the random
/// cases, so every (mode, thread-count) pair gets steady coverage
/// without tripling the harness's runtime.
fn rotate_mode(case: u64, threads: usize) -> PartitionMode {
    PartitionMode::ALL[(case as usize + threads) % PartitionMode::ALL.len()]
}

fn sequential_cfg() -> SearchConfig {
    SearchConfig::default().with_limits(SolveLimits::states(400_000))
}

/// The per-shard traffic rows add up to the aggregate counters, and on
/// a solved run every message a shard sent was received by its owner
/// before quiescence was declared.
fn assert_shard_traffic(ctx: &str, stats: &SearchStats, shards: &[ShardStats], reason: StopReason) {
    let sum = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.sent), stats.cross_sends, "{ctx}: cross_sends");
    assert_eq!(
        sum(|s| s.send_blocks),
        stats.send_blocks,
        "{ctx}: send_blocks"
    );
    assert_eq!(
        sum(|s| s.local_succs),
        stats.local_succs,
        "{ctx}: local_succs"
    );
    if reason == StopReason::Solved {
        assert_eq!(
            sum(|s| s.sent),
            sum(|s| s.received),
            "{ctx}: messages in flight at quiescence"
        );
    }
}

/// 60 random MPP instances × thread counts {2, 4, 8}: the parallel
/// engine proves the sequential optimum, its witness validates, and it
/// reports one shard row per worker.
#[test]
fn mpp_parallel_matches_sequential_on_random_dags() {
    let seq_cfg = sequential_cfg();
    let mut rng = Rng::new(0x9a11e1);
    for case in 0..60u64 {
        let n = 4 + rng.index(4); // 4..=7 nodes
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case);
        let k = 1 + rng.index(3); // 1..=3 processors
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let inst = MppInstance::new(&dag, k, r, g);

        let seq = solve_mpp_with(&inst, &seq_cfg);
        let ctx = format!("case {case}: n={n} k={k} r={r} g={g}");
        let s = seq
            .solution
            .unwrap_or_else(|| panic!("{ctx}: sequential budget"));
        for threads in THREAD_COUNTS {
            let mode = rotate_mode(case, threads);
            let par = solve_mpp_with(&inst, &seq_cfg.with_threads(threads).with_partition(mode));
            let p = par
                .solution
                .unwrap_or_else(|| panic!("{ctx}: t={threads} {mode} budget"));
            assert_eq!(
                s.total, p.total,
                "{ctx}: t={threads} {mode} optimum differs"
            );
            assert_eq!(par.reason, StopReason::Solved, "{ctx}: t={threads} reason");
            let cost = p
                .strategy
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{ctx}: t={threads} witness invalid: {e}"));
            assert_eq!(cost.total(inst.model), p.total, "{ctx}: witness cost");
            assert_eq!(
                par.stats.threads, threads as u64,
                "{ctx}: reported thread count"
            );
            assert_eq!(par.shards.len(), threads, "{ctx}: shard row count");
            let shard_settled: u64 = par.shards.iter().map(|s| s.settled).sum();
            assert_eq!(
                shard_settled, par.stats.settled,
                "{ctx}: shard settled sums to the aggregate"
            );
            assert_shard_traffic(
                &format!("{ctx}: t={threads} {mode}"),
                &par.stats,
                &par.shards,
                par.reason,
            );
        }
    }
}

/// 40 random SPP instances across the §3.1 variant zoo × thread counts
/// {2, 4, 8}: parallel and sequential agree on both the optimum and on
/// unsolvability (one-shot instances can be genuinely unsolvable).
#[test]
fn spp_parallel_matches_sequential_across_variants() {
    let seq_cfg = sequential_cfg();
    let mut rng = Rng::new(0x5e9_1a1 ^ 0xffff);
    let mut solved = 0u32;
    for case in 0..40u64 {
        let n = 4 + rng.index(4);
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case);
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let (model, variant) = match case % 5 {
            0 => (CostModel::spp_io_only(g), SppVariant::base()),
            1 => (CostModel::mpp(g), SppVariant::base()),
            2 => (CostModel::spp_with_compute(g, 2), SppVariant::base()),
            3 => (CostModel::spp_io_only(g), SppVariant::hong_kung()),
            _ => (CostModel::mpp(g), SppVariant::one_shot()),
        };
        let inst = SppInstance {
            dag: &dag,
            r,
            model,
            variant,
        };

        let seq = solve_spp_with(&inst, &seq_cfg);
        let ctx = format!("case {case}: n={n} r={r} g={g} variant={variant:?}");
        for threads in THREAD_COUNTS {
            let mode = rotate_mode(case, threads);
            let par = solve_spp_with(&inst, &seq_cfg.with_threads(threads).with_partition(mode));
            assert_shard_traffic(
                &format!("{ctx}: t={threads} {mode}"),
                &par.stats,
                &par.shards,
                par.reason,
            );
            match (&seq.solution, par.solution) {
                (None, None) => {
                    assert!(variant.one_shot, "{ctx}: only one-shot can be unsolvable");
                }
                (Some(s), Some(p)) => {
                    assert_eq!(s.total, p.total, "{ctx}: t={threads} optimum differs");
                    let cost = p
                        .strategy
                        .validate(&inst)
                        .unwrap_or_else(|e| panic!("{ctx}: t={threads} witness invalid: {e}"));
                    assert_eq!(cost.total(inst.model), p.total, "{ctx}: witness cost");
                    solved += 1;
                }
                (s, p) => panic!(
                    "{ctx}: t={threads} disagrees on solvability (seq={}, par={})",
                    s.is_some(),
                    p.is_some()
                ),
            }
        }
    }
    // The unsolvable one-shot cases are a small minority.
    assert!(
        solved >= 90,
        "only {solved} (instance, threads) runs solved"
    );
}

/// Exhaustive modes × thread-counts sweep on fixed instances: every
/// partition strategy proves the identical optimum with a validating
/// witness, and reports sane traffic stats (fractions in range, shard
/// rows summing to the aggregate, nothing left in flight).
#[test]
fn all_partition_modes_prove_identical_optima() {
    let cfg = sequential_cfg();
    for (dag, k, r, g) in [
        (generators::grid(3, 3), 2, 3, 2),
        (generators::binary_in_tree(4), 2, 3, 1),
        (generators::independent_chains(2, 4), 3, 2, 2),
    ] {
        let inst = MppInstance::new(&dag, k, r, g);
        let seq = solve_mpp_with(&inst, &cfg)
            .solution
            .expect("sequential budget");
        let ctx = format!("n={} k={k} r={r} g={g}", dag.n());
        for mode in PartitionMode::ALL {
            for threads in THREAD_COUNTS {
                let par = solve_mpp_with(&inst, &cfg.with_threads(threads).with_partition(mode));
                let sol = par
                    .solution
                    .unwrap_or_else(|| panic!("{ctx}: {mode} t={threads} budget"));
                assert_eq!(
                    seq.total, sol.total,
                    "{ctx}: {mode} t={threads} optimum differs"
                );
                let cost = sol
                    .strategy
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("{ctx}: {mode} t={threads} invalid: {e}"));
                assert_eq!(cost.total(inst.model), sol.total, "{ctx}: witness cost");
                let lf = par.stats.locality_fraction();
                assert!(
                    (0.0..=1.0).contains(&lf),
                    "{ctx}: {mode} t={threads} locality_fraction {lf} out of range"
                );
                for (i, shard) in par.shards.iter().enumerate() {
                    let dr = shard.duplicate_rate();
                    assert!(
                        (0.0..=1.0).contains(&dr),
                        "{ctx}: {mode} t={threads} shard{i} duplicate_rate {dr}"
                    );
                }
                assert_eq!(par.reason, StopReason::Solved, "{ctx}: {mode} t={threads}");
                assert_shard_traffic(
                    &format!("{ctx}: {mode} t={threads}"),
                    &par.stats,
                    &par.shards,
                    par.reason,
                );
            }
        }
    }
}

/// The proven cost is deterministic run to run: tie-breaking inside the
/// parallel engine may pick different witnesses, but the optimum (and
/// its witness's validated cost) never wavers.
#[test]
fn parallel_cost_is_deterministic_across_runs() {
    let cfg = sequential_cfg().with_threads(4);
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    let mut totals = Vec::new();
    for run in 0..5 {
        let out = solve_mpp_with(&inst, &cfg);
        let sol = out
            .solution
            .unwrap_or_else(|| panic!("run {run}: budget exhausted"));
        let cost = sol
            .strategy
            .validate(&inst)
            .unwrap_or_else(|e| panic!("run {run}: witness invalid: {e}"));
        assert_eq!(cost.total(inst.model), sol.total, "run {run}: witness cost");
        totals.push(sol.total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "parallel optimum wavered across runs: {totals:?}"
    );
}

/// Stop reasons stay distinct and honest under the parallel engine: a
/// tiny state budget reports `StateLimit`, an expired deadline reports
/// `Deadline`, and both leave the solution empty.
#[test]
fn parallel_stop_reasons_distinguish_limit_from_deadline() {
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);

    let limited = SearchConfig::default()
        .with_limits(SolveLimits::states(8))
        .with_threads(4);
    let out = solve_mpp_with(&inst, &limited);
    assert!(out.solution.is_none(), "8 settled states cannot solve 3x3");
    assert_eq!(out.reason, StopReason::StateLimit);

    let expired = SearchConfig::default()
        .with_limits(SolveLimits::states(400_000).with_deadline(Duration::from_nanos(0)))
        .with_threads(4);
    let out = solve_mpp_with(&inst, &expired);
    assert!(out.solution.is_none(), "expired deadline cannot solve");
    assert_eq!(out.reason, StopReason::Deadline);
}
