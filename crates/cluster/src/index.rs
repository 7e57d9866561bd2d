//! Incremental leader clustering over the LSH candidate-pair index.
//!
//! [`leader()`](crate::leader::leader) needs a full similarity matrix — one
//! evaluation per subscription pair. [`OnlineLeader`] keeps the same greedy
//! assignment discipline but filters through the banded MinHash
//! [`CandidateIndex`]: a new subscription is only compared against the
//! leaders it shares at least one signature band with, so an arrival costs
//! `O(candidate leaders)` instead of `O(all leaders)` similarity
//! evaluations, and subscribe/unsubscribe churn no longer forces a full
//! re-clustering.
//!
//! The per-item assignment step is shared between incremental insertion and
//! leader-removal reassignment — a single implementation guarantees the two
//! paths can never drift apart. With one-row bands and the estimate scorer,
//! the incremental clustering is *exactly* the batch
//! [`leader()`](crate::leader::leader) result on the estimate matrix: any
//! leader with a non-zero estimate shares a signature slot, hence a band,
//! hence is always probed (pinned by property tests).
//!
//! Probing takes at most [`DEFAULT_PROBE_CAP`] leaders per band bucket
//! (tunable via [`OnlineLeader::with_probe_cap`]). Buckets grow in community
//! creation order, so the cap keeps exactly the leaders first-fit prefers —
//! the lowest cluster ids — and the batch equivalence above holds verbatim
//! while every bucket stays within the cap. The cap is what bounds an
//! arrival to `O(bands × cap)` regardless of how degenerate the workload's
//! feature universe is: on a narrow DTD, thousands of sub-threshold leaders
//! can share a band key, and scanning them all would creep back toward the
//! quadratic behaviour this module exists to avoid.
//!
//! Before probing, an arrival whose signature is identical to a live
//! leader's is scored against that leader alone and joins its community
//! when it qualifies — an `O(1)` fast path that keeps duplicate-heavy
//! workloads (the million-subscription regime, where bounded-depth
//! generators repeat patterns constantly) from re-probing, and from
//! founding duplicate communities when the matching leader sits beyond the
//! probe cap. With the estimate scorer the shortcut is exact for best-fit
//! (an identical signature estimates 1.0, the maximum, and the map keeps
//! the earliest such leader); under first-fit it may prefer the identical
//! leader over an earlier, merely-qualifying one.
//!
//! Similarity is injected as a closure so callers choose the scorer: the
//! engine's real selectivity-based metric for quality, or the index's own
//! signature [`estimate`](CandidateIndex::estimate) for pure
//! `O(pattern)`-per-arrival scaling (the 1M-subscription bench).

use std::collections::HashMap;

use tps_pattern::TreePattern;

pub use tps_core::{pattern_features, CandidateIndex, LshConfig};

use crate::assignment::Clustering;
use crate::leader::LeaderConfig;

/// A community tracked by [`OnlineLeader`]: its leader plus the follower
/// slots currently assigned to it.
#[derive(Debug, Clone)]
struct ClusterState {
    leader: u32,
    members: Vec<u32>,
}

/// Sentinel for "slot is not assigned to any cluster".
const UNASSIGNED: usize = usize::MAX;

/// Default number of leaders probed per band bucket on arrival.
///
/// 16 leaders across the default 8 bands caps an arrival at 128 similarity
/// evaluations — far below that in practice, since the duplicate fast path
/// absorbs repeated patterns and first-fit breaks at the first qualifying
/// leader.
pub const DEFAULT_PROBE_CAP: usize = 16;

/// Incremental, candidate-filtered leader clustering.
///
/// Subscriptions are inserted one at a time and join the community of a
/// sufficiently similar *leader* (first-fit or best-fit in community
/// creation order, mirroring [`leader()`](crate::leader::leader)), or found
/// a new community. Only leaders sharing at least one LSH band with the
/// arrival are probed. Removal of a follower is `O(community size)`;
/// removal of a leader dissolves its community and re-assigns the remaining
/// members through the identical per-item step.
#[derive(Debug, Clone)]
pub struct OnlineLeader {
    index: CandidateIndex,
    config: LeaderConfig,
    /// Leader-only band buckets: probing an arrival touches communities, not
    /// every stored subscription (full buckets would make an arrival cost
    /// proportional to community sizes).
    leader_buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// Communities in creation order; dissolved communities are tombstoned
    /// so ids stay stable.
    clusters: Vec<Option<ClusterState>>,
    /// Slot → cluster id ([`UNASSIGNED`] when removed).
    slot_cluster: Vec<usize>,
    /// Leaders probed per band bucket on arrival (see [`DEFAULT_PROBE_CAP`]).
    probe_cap: usize,
    /// Signature hash → cluster of the earliest live leader carrying that
    /// exact signature: the `O(1)` duplicate fast path. Entries die with
    /// their leader; hash collisions are caught by a signature comparison.
    signature_clusters: HashMap<u64, usize>,
}

impl OnlineLeader {
    /// Create an empty clustering with the given banding and leader
    /// configurations.
    pub fn new(lsh: LshConfig, config: LeaderConfig) -> Self {
        Self {
            index: CandidateIndex::new(lsh),
            config,
            leader_buckets: vec![HashMap::new(); lsh.bands()],
            clusters: Vec::new(),
            slot_cluster: Vec::new(),
            probe_cap: DEFAULT_PROBE_CAP,
            signature_clusters: HashMap::new(),
        }
    }

    /// Override the number of leaders probed per band bucket on arrival
    /// (clamped to at least one). Larger caps recover more of the batch
    /// [`leader()`](crate::leader::leader) assignment on degenerate
    /// workloads; smaller caps bound the per-arrival cost harder.
    pub fn with_probe_cap(mut self, cap: usize) -> Self {
        self.probe_cap = cap.max(1);
        self
    }

    /// Leaders probed per band bucket on arrival.
    pub fn probe_cap(&self) -> usize {
        self.probe_cap
    }

    /// The underlying candidate index (signatures, estimates, live slots).
    pub fn index(&self) -> &CandidateIndex {
        &self.index
    }

    /// The leader configuration (threshold and fit policy).
    pub fn config(&self) -> &LeaderConfig {
        &self.config
    }

    /// Total slots ever inserted (slots are never reused).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no slot was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of live (not removed) slots.
    pub fn live_count(&self) -> usize {
        self.index.live_count()
    }

    /// Live leader slots in community creation order.
    pub fn leaders(&self) -> Vec<u32> {
        self.clusters
            .iter()
            .flatten()
            .map(|cluster| cluster.leader)
            .collect()
    }

    /// Number of live communities.
    pub fn cluster_count(&self) -> usize {
        self.clusters.iter().flatten().count()
    }

    /// Live slots in ascending order — the item order of
    /// [`OnlineLeader::clustering`].
    pub fn live_slots(&self) -> Vec<u32> {
        (0..self.index.len() as u32)
            .filter(|&slot| self.index.contains(slot))
            .collect()
    }

    /// Snapshot the current partition over the live slots (item `i` of the
    /// clustering is the `i`-th live slot, ascending).
    pub fn clustering(&self) -> Clustering {
        let assignment: Vec<usize> = (0..self.index.len() as u32)
            .filter(|&slot| self.index.contains(slot))
            .map(|slot| self.slot_cluster[slot as usize])
            .collect();
        Clustering::from_assignment(assignment)
    }

    /// Insert a pattern, scoring candidate leaders with `similarity(slot,
    /// leader_slot)` (the caller maps slots back to its own handles).
    /// Returns the new slot.
    pub fn insert_with<F>(&mut self, pattern: &TreePattern, mut similarity: F) -> u32
    where
        F: FnMut(u32, u32) -> f64,
    {
        self.insert_features_scored(&pattern_features(pattern), |_, a, b| similarity(a, b))
    }

    /// Insert a pattern scored by the index's own signature estimate —
    /// `O(pattern)` per arrival, no engine evaluation at all.
    pub fn insert_estimated(&mut self, pattern: &TreePattern) -> u32 {
        self.insert_features_scored(&pattern_features(pattern), |index, a, b| {
            index.estimate(a, b)
        })
    }

    /// Insert a pre-computed feature set scored by the signature estimate
    /// (the 1M-subscription bench path: features are built once, patterns
    /// dropped).
    pub fn insert_features_estimated(&mut self, features: &[u64]) -> u32 {
        self.insert_features_scored(features, |index, a, b| index.estimate(a, b))
    }

    /// Remove a slot, scoring with `similarity` when a leader removal forces
    /// its members through re-assignment. Returns false when the slot was
    /// unknown or already removed.
    pub fn remove_with<F>(&mut self, slot: u32, mut similarity: F) -> bool
    where
        F: FnMut(u32, u32) -> f64,
    {
        self.remove_scored(slot, |_, a, b| similarity(a, b))
    }

    /// Remove a slot, scoring any re-assignment with the signature estimate.
    pub fn remove_estimated(&mut self, slot: u32) -> bool {
        self.remove_scored(slot, |index, a, b| index.estimate(a, b))
    }

    fn insert_features_scored<F>(&mut self, features: &[u64], mut scorer: F) -> u32
    where
        F: FnMut(&CandidateIndex, u32, u32) -> f64,
    {
        let slot = self.index.insert_features(features);
        self.slot_cluster.push(UNASSIGNED);
        self.assign(slot, &mut scorer);
        slot
    }

    /// The shared per-item step: probe candidate communities in creation
    /// order and either join one or found a new one. Mirrors
    /// [`leader()`](crate::leader::leader) exactly — first-fit breaks at the
    /// first qualifying leader, best-fit keeps the earliest among ties.
    /// FNV-style fold of a slot's full signature, keying the duplicate
    /// fast-path map.
    fn signature_hash(&self, slot: u32) -> u64 {
        self.index
            .signature(slot)
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |acc: u64, &value| {
                acc.wrapping_mul(0x0000_0100_0000_01B3) ^ u64::from(value)
            })
    }

    fn join(&mut self, slot: u32, cluster: usize) {
        // invariant: callers only ever pass live cluster ids.
        self.clusters[cluster]
            .as_mut()
            .expect("joined a dissolved cluster")
            .members
            .push(slot);
        self.slot_cluster[slot as usize] = cluster;
    }

    fn found_community(&mut self, slot: u32) {
        let cluster = self.clusters.len();
        self.clusters.push(Some(ClusterState {
            leader: slot,
            members: Vec::new(),
        }));
        self.slot_cluster[slot as usize] = cluster;
        for band in 0..self.leader_buckets.len() {
            let key = self.index.band_key(slot, band);
            self.leader_buckets[band].entry(key).or_default().push(slot);
        }
        self.signature_clusters
            .entry(self.signature_hash(slot))
            .or_insert(cluster);
    }

    fn assign<F>(&mut self, slot: u32, scorer: &mut F)
    where
        F: FnMut(&CandidateIndex, u32, u32) -> f64,
    {
        // Duplicate fast path: score the earliest live leader carrying this
        // exact signature before any bucket probing.
        if let Some(&cluster) = self.signature_clusters.get(&self.signature_hash(slot)) {
            // invariant: fast-path entries are evicted with their leader.
            let leader = self.clusters[cluster]
                .as_ref()
                .expect("fast-path entry for a dissolved cluster")
                .leader;
            if self.index.signature(slot) == self.index.signature(leader)
                && scorer(&self.index, slot, leader) >= self.config.similarity_threshold
            {
                self.join(slot, cluster);
                return;
            }
        }

        let mut candidates: Vec<usize> = Vec::new();
        for (band, buckets) in self.leader_buckets.iter().enumerate() {
            let key = self.index.band_key(slot, band);
            if let Some(leaders) = buckets.get(&key) {
                // Buckets grow in community creation order, so the cap keeps
                // the lowest cluster ids — the ones first-fit would pick.
                candidates.extend(
                    leaders
                        .iter()
                        .take(self.probe_cap)
                        .map(|&leader| self.slot_cluster[leader as usize]),
                );
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        let mut chosen: Option<(usize, f64)> = None;
        for &cluster in &candidates {
            // invariant: leader buckets only hold leaders of live clusters.
            let leader = self.clusters[cluster]
                .as_ref()
                .expect("bucketed leader of a dissolved cluster")
                .leader;
            let similarity = scorer(&self.index, slot, leader);
            if similarity < self.config.similarity_threshold {
                continue;
            }
            match (self.config.best_fit, chosen) {
                (false, None) => {
                    chosen = Some((cluster, similarity));
                    break;
                }
                (true, Some((_, best))) if similarity <= best => {}
                _ => chosen = Some((cluster, similarity)),
            }
        }

        match chosen {
            Some((cluster, _)) => self.join(slot, cluster),
            None => self.found_community(slot),
        }
    }

    fn remove_scored<F>(&mut self, slot: u32, mut scorer: F) -> bool
    where
        F: FnMut(&CandidateIndex, u32, u32) -> f64,
    {
        if !self.index.contains(slot) {
            return false;
        }
        let cluster = self.slot_cluster[slot as usize];
        self.index.remove(slot);
        self.slot_cluster[slot as usize] = UNASSIGNED;
        // invariant: every live slot carries a live cluster assignment.
        let state = self.clusters[cluster]
            .as_mut()
            .expect("live slot assigned to a dissolved cluster");
        if state.leader != slot {
            state.members.retain(|&member| member != slot);
            return true;
        }
        // Leader removal dissolves the community: evict the leader from the
        // probe buckets and re-run the shared assignment step over the
        // orphaned members in ascending slot order.
        let mut orphans = std::mem::take(&mut state.members);
        self.clusters[cluster] = None;
        let hash = self.signature_hash(slot);
        if self.signature_clusters.get(&hash) == Some(&cluster) {
            self.signature_clusters.remove(&hash);
        }
        for band in 0..self.leader_buckets.len() {
            let key = self.index.band_key(slot, band);
            if let Some(leaders) = self.leader_buckets[band].get_mut(&key) {
                leaders.retain(|&leader| leader != slot);
                if leaders.is_empty() {
                    self.leader_buckets[band].remove(&key);
                }
            }
        }
        orphans.sort_unstable();
        for orphan in orphans {
            self.slot_cluster[orphan as usize] = UNASSIGNED;
            self.assign(orphan, &mut scorer);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::{leader, LeaderConfig};
    use tps_core::{ProximityMetric, SimMatrix};

    fn parse(text: &str) -> TreePattern {
        TreePattern::parse(text).unwrap()
    }

    fn single_row_config() -> LshConfig {
        LshConfig {
            bands: 16,
            rows: 1,
            seed: 0xA5,
        }
    }

    /// With one-row bands any pair with a non-zero estimate shares a band,
    /// so candidate filtering drops nothing `leader()` would use: the
    /// incremental clustering must equal the batch run on the estimate
    /// matrix.
    #[test]
    fn single_row_online_assignment_equals_batch_leader() {
        let patterns: Vec<TreePattern> = [
            "/media/CD/title",
            "/media/CD[title][price]",
            "/media/CD/title",
            "/media/book/author",
            "/media/book[author]",
            "//dvd/region",
            "/media/CD",
            "//dvd",
        ]
        .iter()
        .map(|p| parse(p))
        .collect();
        for best_fit in [false, true] {
            let config = LeaderConfig {
                similarity_threshold: 0.4,
                best_fit,
            };
            let mut online = OnlineLeader::new(single_row_config(), config);
            for pattern in &patterns {
                online.insert_estimated(pattern);
            }
            let matrix =
                SimMatrix::from_symmetric_fn(patterns.len(), ProximityMetric::M3, |i, j| {
                    online.index().estimate(i as u32, j as u32)
                });
            let batch = leader(&matrix, config);
            assert_eq!(online.clustering(), batch.clustering, "best_fit {best_fit}");
            assert_eq!(
                online.leaders(),
                batch
                    .leaders
                    .iter()
                    .map(|&l| l as u32)
                    .collect::<Vec<u32>>()
            );
        }
    }

    #[test]
    fn identical_patterns_join_the_same_community() {
        let mut online = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        let a = online.insert_estimated(&parse("/media/CD/title"));
        let b = online.insert_estimated(&parse("/media/CD/title"));
        let c = online.insert_estimated(&parse("//unrelated/thing"));
        let clustering = online.clustering();
        assert!(clustering.same_cluster(a as usize, b as usize));
        assert!(!clustering.same_cluster(a as usize, c as usize));
        assert_eq!(online.leaders(), vec![a, c]);
        assert_eq!(online.cluster_count(), 2);
    }

    #[test]
    fn follower_removal_keeps_the_community_intact() {
        let mut online = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        let a = online.insert_estimated(&parse("/media/CD/title"));
        let b = online.insert_estimated(&parse("/media/CD/title"));
        let c = online.insert_estimated(&parse("/media/CD/title"));
        assert!(online.remove_estimated(b));
        assert!(!online.remove_estimated(b), "double removal is a no-op");
        assert_eq!(online.leaders(), vec![a]);
        assert_eq!(online.live_slots(), vec![a, c]);
        assert!(online.clustering().same_cluster(0, 1));
    }

    #[test]
    fn leader_removal_reassigns_members_through_the_shared_step() {
        let mut online = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        let a = online.insert_estimated(&parse("/media/CD/title"));
        let b = online.insert_estimated(&parse("/media/CD/title"));
        let c = online.insert_estimated(&parse("/media/CD/title"));
        assert_eq!(online.leaders(), vec![a]);
        assert!(online.remove_estimated(a));
        // The orphaned members re-cluster among themselves: the lowest slot
        // founds the replacement community and the other re-joins it.
        assert_eq!(online.leaders(), vec![b]);
        assert_eq!(online.cluster_count(), 1);
        assert!(online.clustering().same_cluster(0, 1));
        assert_eq!(online.live_slots(), vec![b, c]);
    }

    #[test]
    fn removal_of_a_singleton_leader_drops_its_community() {
        let mut online = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        let a = online.insert_estimated(&parse("/media/CD/title"));
        let b = online.insert_estimated(&parse("//unrelated/thing"));
        assert!(online.remove_estimated(a));
        assert_eq!(online.leaders(), vec![b]);
        assert_eq!(online.cluster_count(), 1);
        assert_eq!(online.live_count(), 1);
    }

    /// Zero churn: inserting the same patterns into a fresh instance (the
    /// "full re-clustering") reproduces the incrementally built partition.
    #[test]
    fn rebuild_from_scratch_matches_incremental_at_zero_churn() {
        let patterns: Vec<TreePattern> = [
            "/media/CD/title",
            "/media/CD",
            "/media/book/author",
            "/media/CD/title",
            "//dvd/region",
        ]
        .iter()
        .map(|p| parse(p))
        .collect();
        let mut incremental = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        for pattern in &patterns {
            incremental.insert_estimated(pattern);
        }
        let mut rebuilt = OnlineLeader::new(LshConfig::default(), LeaderConfig::default());
        for pattern in &patterns {
            rebuilt.insert_estimated(pattern);
        }
        assert_eq!(incremental.clustering(), rebuilt.clustering());
        assert_eq!(incremental.leaders(), rebuilt.leaders());
    }

    /// The probe cap bounds how many leaders an arrival scores — at most
    /// `bands × cap` even when every leader shares a band key with the
    /// arrival — while identical patterns still find their community (their
    /// leader sits first in every shared bucket).
    #[test]
    fn probe_cap_bounds_the_arrival_scan_and_keeps_identical_patterns_together() {
        let mut online = OnlineLeader::new(
            single_row_config(),
            LeaderConfig {
                similarity_threshold: 2.0, // nothing qualifies: every arrival leads
                best_fit: true,            // no first-fit break: every candidate scored
            },
        )
        .with_probe_cap(1);
        assert_eq!(online.probe_cap(), 1);
        let pattern = parse("/media/CD/title");
        for _ in 0..8 {
            online.insert_with(&pattern, |_, _| 0.0);
        }
        let mut probed = 0usize;
        online.insert_with(&pattern, |_, _| {
            probed += 1;
            0.0
        });
        // One extra score for the duplicate fast path (it fails the
        // unreachable threshold and falls through to probing).
        assert!(
            probed <= single_row_config().bands() + 1,
            "scored {probed} leaders with a probe cap of one"
        );

        let mut capped =
            OnlineLeader::new(single_row_config(), LeaderConfig::default()).with_probe_cap(1);
        let a = capped.insert_estimated(&pattern);
        let b = capped.insert_estimated(&pattern);
        assert!(capped.clustering().same_cluster(a as usize, b as usize));
    }

    #[test]
    fn external_scorer_receives_the_new_slot_and_the_leader() {
        let mut online = OnlineLeader::new(
            LshConfig::default(),
            LeaderConfig {
                similarity_threshold: 0.5,
                best_fit: true,
            },
        );
        let a = online.insert_with(&parse("/media/CD/title"), |_, _| 1.0);
        let mut probed: Vec<(u32, u32)> = Vec::new();
        let b = online.insert_with(&parse("/media/CD/title"), |slot, leader| {
            probed.push((slot, leader));
            1.0
        });
        assert_eq!(probed, vec![(b, a)]);
        assert!(online.clustering().same_cluster(a as usize, b as usize));
    }
}
