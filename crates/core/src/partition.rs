//! Pluggable shard-ownership strategies for the parallel exact solver.
//!
//! The HDA\*-style engine in `driver.rs` assigns every canonical state
//! to an owning shard; successors generated on the wrong shard travel
//! over an SPSC ring. The original owner function was a pure hash of
//! the packed key — perfectly balanced, but with `T` shards a fraction
//! `(T-1)/T` of all successors is foreign, so the search becomes
//! communication-bound. A [`PartitionMode`] selects how ownership is
//! derived instead:
//!
//! - [`PartitionMode::Hash`] — the original fastrange hash. Best load
//!   balance, worst locality; the baseline every other mode is measured
//!   against.
//! - [`PartitionMode::Bands`] — progress projection: the owner is a
//!   function of the highest topological level holding a pebble.
//!   Successors of a state usually stay within the same band (computes
//!   deep in the DAG, loads, stores), so most traffic disappears, while
//!   the band sweep hands work from shard to shard as the search
//!   advances through the DAG.
//! - [`PartitionMode::Anchors`] — abstraction projection in the HDA\*
//!   tradition: a small set of structurally important *anchor* nodes is
//!   chosen once per instance ([`rbp_dag::analysis::anchor_nodes`]),
//!   and the owner is a function of the pebbled-node-set restricted to
//!   the anchors' durable (blue) component. Blue pebbles are never
//!   deleted by the normalized solvers, so the projection is monotone
//!   along every path: only the store step that first blues an anchor
//!   crosses shards, and every other rule application stays local.
//!
//! All three are pure functions of the *canonical* key (plus the
//! instance), so ownership is total, stable across repeated calls, and
//! — because canonicalization sorts the per-processor red masks before
//! the driver ever sees a key — invariant under processor permutation.
//! That invariance is what keeps the distributed termination proof and
//! the duplicate-detection arena sound under every mode.

use std::str::FromStr;

use crate::arena::shard_of;

/// Shard-ownership strategy for the parallel exact solver (the
/// `--partition` knob). See the module docs for when each mode wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Fastrange hash of the packed canonical key (the pre-partition
    /// behavior): best balance, no locality.
    #[default]
    Hash,
    /// Topological-band progress projection: owner follows the deepest
    /// pebbled level.
    Bands,
    /// Anchor-set abstraction projection: owner follows the blue pebbles
    /// on a few high-degree anchor nodes.
    Anchors,
}

impl PartitionMode {
    /// Every mode, in the order CLI help and sweeps enumerate them.
    pub const ALL: [PartitionMode; 3] = [
        PartitionMode::Hash,
        PartitionMode::Bands,
        PartitionMode::Anchors,
    ];

    /// Lowercase token used by the CLI, the serve API, and traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionMode::Hash => "hash",
            PartitionMode::Bands => "bands",
            PartitionMode::Anchors => "anchors",
        }
    }
}

impl FromStr for PartitionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hash" => Ok(PartitionMode::Hash),
            "bands" => Ok(PartitionMode::Bands),
            "anchors" => Ok(PartitionMode::Anchors),
            other => Err(format!(
                "unknown partition mode '{other}' (expected hash, bands, or anchors)"
            )),
        }
    }
}

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A built ownership function: [`PartitionMode`] plus the per-instance
/// tables it projects through. Built once per solve and shared
/// read-only by every worker.
#[derive(Debug)]
pub struct Partition {
    mode: PartitionMode,
    /// `Bands`: topological level of each node.
    level: Vec<u32>,
    /// `Bands`: number of levels (`max(level) + 1`), at least 1.
    depth: u32,
    /// `Anchors`: bit positions of the anchor nodes (ascending).
    anchors: Vec<u32>,
}

impl Partition {
    /// Builds the ownership tables for `mode` over `dag` with `shards`
    /// worker shards. Cheap for `Hash`; one topological pass otherwise.
    pub fn build(mode: PartitionMode, dag: &rbp_dag::Dag, shards: usize) -> Self {
        let mut p = Partition {
            mode,
            level: Vec::new(),
            depth: 1,
            anchors: Vec::new(),
        };
        match mode {
            PartitionMode::Hash => {}
            PartitionMode::Bands => {
                let topo = dag.topo();
                p.level = dag.nodes().map(|v| topo.level(v) as u32).collect();
                p.depth = topo.depth().max(1) as u32;
            }
            PartitionMode::Anchors => {
                // ceil(log2(shards)) anchors give exactly `shards`
                // projection cells when shards is a power of two; more
                // anchors would buy balance by splitting stores across
                // shards more often (worse locality).
                let want = usize::BITS - (shards.max(2) - 1).leading_zeros();
                let want = (want as usize).clamp(1, 6);
                p.anchors = rbp_dag::analysis::anchor_nodes(dag, want)
                    .into_iter()
                    .map(|v| v.index() as u32)
                    .collect();
            }
        }
        p
    }

    /// The owning shard of the canonical state `(red_all, blue)` whose
    /// packed-key hash is `hash`. Total (`< shards`) and a pure function
    /// of its arguments.
    #[inline]
    pub fn owner(&self, red_all: u64, blue: u64, hash: u64, shards: usize) -> usize {
        match self.mode {
            PartitionMode::Hash => shard_of(hash, shards),
            PartitionMode::Bands => {
                let pebbled = red_all | blue;
                if pebbled == 0 {
                    return 0;
                }
                let mut band = 0u32;
                let mut m = pebbled;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    band = band.max(self.level[i]);
                }
                (band as usize * shards) / self.depth as usize
            }
            PartitionMode::Anchors => {
                if self.anchors.is_empty() {
                    return 0;
                }
                let mut cell = 0usize;
                for (i, &a) in self.anchors.iter().enumerate() {
                    cell |= ((blue >> a & 1) as usize) << i;
                }
                (cell * shards) >> self.anchors.len()
            }
        }
    }

    /// The anchor nodes this partition projects through (empty unless
    /// mode is `Anchors`). Exposed for traces and tests.
    #[cfg(test)]
    pub fn anchor_bits(&self) -> &[u32] {
        &self.anchors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::hash_words;
    use rbp_dag::generators;

    fn grid() -> rbp_dag::Dag {
        generators::grid(2, 4)
    }

    /// Ownership is total (always `< shards`) and stable (same inputs,
    /// same shard, across repeated calls and rebuilt partitions).
    #[test]
    fn ownership_total_and_stable_across_modes() {
        let dag = grid();
        let n = dag.n();
        for mode in PartitionMode::ALL {
            for shards in [2usize, 3, 4, 8] {
                let p = Partition::build(mode, &dag, shards);
                let q = Partition::build(mode, &dag, shards);
                for seed in 0..512u64 {
                    let red = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1 << n) - 1);
                    let blue = seed.wrapping_mul(0xd134_2543_de82_ef95) & ((1 << n) - 1);
                    let h = hash_words(&[red, blue]);
                    let o = p.owner(red, blue, h, shards);
                    assert!(o < shards, "{mode} shards={shards}: owner {o} out of range");
                    assert_eq!(o, p.owner(red, blue, h, shards), "{mode}: unstable");
                    assert_eq!(o, q.owner(red, blue, h, shards), "{mode}: build-dependent");
                }
            }
        }
    }

    /// The anchors projection depends only on the canonical `(red_all,
    /// blue)` masks: permuting which processor holds which red pebble
    /// (same union) never moves the state to a different shard.
    #[test]
    fn anchors_invariant_under_processor_permutation() {
        let dag = grid();
        let p = Partition::build(PartitionMode::Anchors, &dag, 4);
        // Two processors holding {0,1} ∪ {4,5} in either assignment:
        // the canonical key packs the same red union either way.
        let red_all = 0b11_0011u64;
        for blue in [0u64, 0b1000, 0b1100_0000] {
            let h1 = hash_words(&[red_all, blue, 1]);
            let h2 = hash_words(&[red_all, blue, 2]); // different raw packing
            assert_eq!(
                p.owner(red_all, blue, h1, 4),
                p.owner(red_all, blue, h2, 4),
                "anchors owner must ignore the hash entirely"
            );
        }
    }

    /// Anchors: only blue transitions on anchor nodes move ownership;
    /// red churn (the high-frequency move class) never does.
    #[test]
    fn anchors_ignore_red_churn() {
        let dag = grid();
        let p = Partition::build(PartitionMode::Anchors, &dag, 4);
        assert!(!p.anchor_bits().is_empty());
        let blue = 1u64 << p.anchor_bits()[0];
        let base = p.owner(0, blue, 0, 4);
        for red in 0..(1u64 << dag.n().min(8)) {
            assert_eq!(p.owner(red, blue, hash_words(&[red]), 4), base);
        }
    }

    /// Bands: deepening the pebbled frontier moves ownership forward
    /// monotonically, and the deepest band maps to the last shard.
    #[test]
    fn bands_follow_topological_progress() {
        let dag = generators::chain(8); // level(i) = i, depth 8
        let shards = 4;
        let p = Partition::build(PartitionMode::Bands, &dag, shards);
        let mut prev = 0;
        for i in 0..8u64 {
            let o = p.owner(1 << i, 0, 0, shards);
            assert!(o >= prev, "band owner regressed at node {i}");
            prev = o;
        }
        assert_eq!(p.owner(0, 0, 0, shards), 0, "empty state owned by shard 0");
        assert_eq!(p.owner(1 << 7, 0, 0, shards), shards - 1);
    }

    /// Every mode parses its own token and rejects junk.
    #[test]
    fn mode_tokens_round_trip() {
        for mode in PartitionMode::ALL {
            assert_eq!(mode.as_str().parse::<PartitionMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("fancy".parse::<PartitionMode>().is_err());
        assert_eq!(PartitionMode::default(), PartitionMode::Hash);
    }
}
