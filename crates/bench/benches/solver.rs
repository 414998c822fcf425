//! Exact solver scaling (SPP in n and r; MPP in k), plus the ablation
//! of the PR's two search optimizations: processor-symmetry
//! canonicalization and the admissible A\* heuristic. Each variant's
//! settled-state count lands in `BENCH_solver.json` next to wall time,
//! so before/after runs can be compared commit-to-commit.

use rbp_bench::Bench;
use rbp_core::mpp::exact::probe;
use rbp_core::rbp_dag::generators;
use rbp_core::{
    solve_mpp, solve_mpp_with, solve_spp, solve_spp_with, MppInstance, SearchConfig, SolveLimits,
    SppInstance,
};

fn main() {
    // The full before/after sweep (exp_solver) owns BENCH_solver.json;
    // this microbench suite writes BENCH_solver_micro.json.
    let mut b = Bench::new("solver_micro");

    for leaves in [4usize, 8] {
        let dag = generators::binary_in_tree(leaves);
        b.run(&format!("spp/tree{leaves}"), || {
            solve_spp(
                &SppInstance::with_compute(&dag, 3, 2),
                SolveLimits::default(),
            )
            .unwrap()
            .total
        });
    }
    for r in [3usize, 4] {
        let dag = generators::grid(3, 3);
        b.run(&format!("spp/grid3x3_r{r}"), || {
            solve_spp(
                &SppInstance::with_compute(&dag, r, 2),
                SolveLimits::default(),
            )
            .unwrap()
            .total
        });
    }
    for k in [1usize, 2] {
        let dag = generators::binary_in_tree(4);
        b.run(&format!("mpp/tree4_k{k}"), || {
            solve_mpp(&MppInstance::new(&dag, k, 3, 2), SolveLimits::default())
                .unwrap()
                .total
        });
    }

    // Ablation: symmetry × heuristic on a k=2 instance. All four
    // variants must agree on the optimum; they differ in states settled
    // and wall time.
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    let mut totals = Vec::new();
    for (sym, heur) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = SearchConfig {
            symmetry: sym,
            heuristic: heur,
            ..SearchConfig::default()
        };
        let label = format!(
            "mpp/grid3x3_k2[sym={}+heur={}]",
            u8::from(sym),
            u8::from(heur)
        );
        let outcome = solve_mpp_with(&inst, &cfg);
        totals.push(outcome.solution.as_ref().expect("solvable").total);
        let settled = outcome.stats.settled;
        let pushed = outcome.stats.pushed;
        let m = b.run(&label, || solve_mpp_with(&inst, &cfg).stats.settled);
        m.extra.add("settled", settled);
        m.extra.add("pushed", pushed);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "ablation variants disagree: {totals:?}"
    );

    // Same ablation for SPP (no symmetry axis; heuristic only).
    let dag = generators::grid(3, 4);
    let inst = SppInstance::with_compute(&dag, 3, 2);
    for heur in [false, true] {
        let cfg = SearchConfig {
            symmetry: false,
            heuristic: heur,
            ..SearchConfig::default()
        };
        let outcome = solve_spp_with(&inst, &cfg);
        let settled = outcome.stats.settled;
        let m = b.run(&format!("spp/grid3x4[heur={}]", u8::from(heur)), || {
            solve_spp_with(&inst, &cfg).stats.settled
        });
        m.extra.add("settled", settled);
    }

    // Hot-path kernels (`solver_kernel` group), timed in isolation via
    // the solver's probe hooks: memoized processor-permutation
    // canonicalization, heuristic evaluation, and per-expansion successor
    // generation with dominance pruning off vs on. All walk-based
    // kernels share a fixed seed so before/after runs time identical
    // work; the returned checksums keep the work live.
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    const KSEED: u64 = 0xbeb0;
    let m = b.run("solver_kernel/canonicalize_64k", || {
        probe::canon_kernel(64_000, KSEED)
    });
    m.extra.add("keys", 64_000u64);
    let m = b.run("solver_kernel/heur_eval_8k", || {
        probe::heur_kernel(&inst, 8_000, KSEED)
    });
    m.extra.add("evals", 8_000u64);
    for (label, dominance) in [
        ("solver_kernel/expand_naive_2k", false),
        ("solver_kernel/expand_pruned_2k", true),
    ] {
        let emitted = probe::expand_kernel(&inst, 2_000, dominance, KSEED);
        let m = b.run(label, || {
            probe::expand_kernel(&inst, 2_000, dominance, KSEED)
        });
        m.extra.add("expansions", 2_000u64);
        m.extra.add("emitted", emitted);
    }

    // Relax-path cost: 64k successors relaxed into an arena of 1M
    // states (about 40 MB, so lookups miss the caches), one at a time
    // vs in per-expansion batches prefetched before the first relax.
    // Both rows relax the same duplicates through the arena's own code
    // and must return the same checksum.
    const ARENA_STATES: usize = 1_000_000;
    const SUCCS: usize = 64_000;
    let mut relax = rbp_core::arenabench::RelaxBench::new(ARENA_STATES, SUCCS, KSEED);
    assert_eq!(
        relax.relax_inline(),
        relax.relax_batched(),
        "relax paths must agree"
    );
    for (label, batched) in [
        ("solver_kernel/relax_inline_64k", false),
        ("solver_kernel/relax_batched_64k", true),
    ] {
        let m = b.run(label, || {
            if batched {
                relax.relax_batched()
            } else {
                relax.relax_inline()
            }
        });
        m.extra.add("succs", SUCCS as u64);
        m.extra.add("arena_states", ARENA_STATES as u64);
        if batched {
            m.extra.add("batch", rbp_core::arenabench::BATCH as u64);
        }
    }

    // Send-path cost: one ring slot per state vs the driver's
    // `BLOCK_CAP`-state blocks, over the driver's own `Msg` and ring
    // sizes. The two single-thread rows interleave producer and consumer
    // on one thread, so they are deterministic on any host: they expose
    // the *copy* side of the trade-off (batching moves each message
    // twice, into the block and then the block through the ring) while
    // `ring_ops` records the synchronization side it buys — `BLOCK_CAP`x
    // fewer atomic release/acquire pairs and shared-cache-line handoffs.
    // The cross-thread row puts producer and consumer on two threads, so
    // those handoffs really cross cores (on a single-core host it
    // measures the OS scheduler). The checksums prove every transport
    // delivers identical messages before any is timed.
    const MSGS: u64 = 200_000;
    const BCAP: u64 = rbp_core::ringbench::BLOCK_CAP as u64;
    let want = rbp_core::ringbench::transfer_per_state(MSGS);
    assert_eq!(
        want,
        rbp_core::ringbench::transfer_batched(MSGS),
        "transports must deliver identical payloads"
    );
    assert_eq!(
        want,
        rbp_core::ringbench::transfer_batched_cross_thread(MSGS),
        "transports must deliver identical payloads"
    );
    let m = b.run("ring/send_per_state_200k", || {
        rbp_core::ringbench::transfer_per_state(MSGS)
    });
    m.extra.add("msgs", MSGS);
    m.extra.add("ring_ops", MSGS);
    let m = b.run("ring/send_batched_200k", || {
        rbp_core::ringbench::transfer_batched(MSGS)
    });
    m.extra.add("msgs", MSGS);
    m.extra.add("ring_ops", MSGS.div_ceil(BCAP));
    m.extra.add("block_cap", BCAP);
    let m = b.run("ring/cross_thread_batched_200k", || {
        rbp_core::ringbench::transfer_batched_cross_thread(MSGS)
    });
    m.extra.add("msgs", MSGS);
    m.extra.add("ring_ops", MSGS.div_ceil(BCAP));
    m.extra.add("block_cap", BCAP);
    m.extra.add("threads", 2u64);

    b.finish();
}
