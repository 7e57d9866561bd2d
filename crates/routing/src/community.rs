//! Semantic-community discovery.
//!
//! The motivation of the paper is to gather consumers with similar
//! subscriptions into *semantic communities* so that content-based routers
//! can disseminate a document within a community without filtering it
//! against every individual subscription. This module implements the
//! clustering step on top of the similarity estimator: a simple greedy,
//! threshold-based clustering (the paper leaves the concrete clustering
//! algorithm to its companion systems work; greedy threshold clustering is
//! what its semantic-overlay predecessor uses).

use std::cmp::Ordering;
use std::collections::HashMap;

use tps_cluster::Clustering;
use tps_core::{CandidateIndex, LshConfig, PatternId, ProximityMetric, SimilarityEngine};
use tps_pattern::TreePattern;

/// Configuration of the community clustering.
#[derive(Debug, Clone, Copy)]
pub struct CommunityConfig {
    /// Proximity metric used to compare subscriptions.
    pub metric: ProximityMetric,
    /// Minimum similarity to the community representative for a subscription
    /// to join that community.
    pub threshold: f64,
    /// Maximum number of members per community (0 = unbounded). Bounding the
    /// size keeps intra-community dissemination cheap.
    pub max_community_size: usize,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        Self {
            metric: ProximityMetric::M3,
            threshold: 0.6,
            max_community_size: 0,
        }
    }
}

/// One community: indices into the subscription list handed to
/// [`CommunityClustering::cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Index of the representative subscription: the first member for the
    /// greedy builds, the medoid for
    /// [`CommunityClustering::from_clustering`].
    pub representative: usize,
    /// Indices of all member subscriptions (including the representative).
    pub members: Vec<usize>,
}

impl Community {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the community is empty (never true for produced communities).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Result of clustering a subscription workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommunityClustering {
    /// The communities, in creation order.
    pub communities: Vec<Community>,
}

impl CommunityClustering {
    /// Greedily cluster a registered subscription workload using
    /// similarities estimated by `engine`.
    ///
    /// `subscriptions` are handles obtained from
    /// [`SimilarityEngine::register_all`]; community member indices refer to
    /// positions in this slice. Each subscription joins the first existing
    /// community whose representative is at least `config.threshold` similar
    /// (under `config.metric`); otherwise it founds a new community. This is
    /// a single-pass, deterministic procedure: its cost is
    /// `O(#subscriptions · #communities)` similarity evaluations, all served
    /// from the engine's marginal/joint caches.
    pub fn cluster(
        engine: &SimilarityEngine,
        subscriptions: &[PatternId],
        config: CommunityConfig,
    ) -> Self {
        Self::greedy(subscriptions.len(), config, |index, representative| {
            engine.similarity(
                subscriptions[index],
                subscriptions[representative],
                config.metric,
            )
        })
    }

    /// Cluster a registered workload with the pairwise similarities
    /// evaluated in parallel first.
    ///
    /// The greedy pass itself is inherently sequential (each decision
    /// depends on the communities formed so far), so this entry point
    /// materialises the full similarity matrix on up to `threads` worker
    /// threads ([`SimilarityEngine::similarity_matrix_par`]) and then runs
    /// the same greedy pass over matrix lookups. Matrix entries are
    /// bit-identical to pairwise `similarity` calls, so the clustering is
    /// identical to [`CommunityClustering::cluster`] — and the engine's
    /// caches come out warm for every pair, not just the consulted ones.
    ///
    /// Cost trade-off: the greedy pass only consults subscriptions against
    /// community *representatives* (`O(n·c)` pairs, `c` = communities), while
    /// the matrix evaluates all `n·(n−1)/2` joints. Parallel wins when
    /// communities are large relative to `n` (low thresholds), when the
    /// full matrix is wanted anyway (quality metrics, routing overlays), or
    /// when later queries profit from the warm joint cache; with many tiny
    /// communities and no further use for the matrix, the sequential
    /// [`CommunityClustering::cluster`] can do less total work.
    pub fn cluster_par(
        engine: &SimilarityEngine,
        subscriptions: &[PatternId],
        config: CommunityConfig,
        threads: usize,
    ) -> Self {
        let matrix = engine.similarity_matrix_par(subscriptions, config.metric, threads);
        Self::greedy(matrix.len(), config, |index, representative| {
            matrix.get(index, representative)
        })
    }

    /// Cluster a registered workload through the banded MinHash candidate
    /// index: each subscription is only compared against the community
    /// representatives it shares at least one signature band with.
    ///
    /// This replaces the `O(n·c)` similarity evaluations of
    /// [`CommunityClustering::cluster`] with `O(n · candidate reps)` — the
    /// sub-quadratic path for large workloads. The assignment discipline is
    /// identical (first open community in creation order whose
    /// representative clears `config.threshold`), but representatives the
    /// banding fails to surface are skipped, so low-similarity joins near
    /// the threshold can differ from the exhaustive pass; identical
    /// patterns always share all bands and are never missed (see
    /// `docs/SCALING.md` for the recall trade-off).
    pub fn cluster_indexed(
        engine: &SimilarityEngine,
        subscriptions: &[PatternId],
        config: CommunityConfig,
        lsh: LshConfig,
    ) -> Self {
        let mut incremental = IncrementalCommunities::new(config, lsh);
        for (position, &id) in subscriptions.iter().enumerate() {
            incremental.insert_with(engine.pattern(id), |_, representative| {
                engine.similarity(
                    // invariant: representative slots of an insert-only run
                    // are positions into `subscriptions`.
                    subscriptions[position],
                    subscriptions[representative as usize],
                    config.metric,
                )
            });
        }
        incremental.snapshot()
    }

    /// Communities from a partition computed by any `tps-cluster`
    /// algorithm, so that their routing cost and accuracy can be measured
    /// by [`crate::Broker`]'s community strategy.
    ///
    /// Each non-empty cluster becomes one community, in cluster order. Its
    /// representative is its *medoid*: the member with the largest sum of
    /// `score(member, other)` over the other members, ties going to the
    /// smaller index. `score` is a symmetrised similarity of two
    /// subscription positions, such as `|a, b| matrix.symmetric(a, b)` over
    /// a [`tps_core::SimMatrix`] of the workload.
    pub fn from_clustering<F>(clustering: &Clustering, mut score: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        let communities = clustering
            .clusters()
            .into_iter()
            .filter(|members| !members.is_empty())
            .map(|members| {
                let totals: Vec<f64> = members
                    .iter()
                    .map(|&candidate| {
                        members
                            .iter()
                            .filter(|&&other| other != candidate)
                            .map(|&other| score(candidate, other))
                            .sum()
                    })
                    .collect();
                let (medoid, _) = totals
                    .iter()
                    .enumerate()
                    .max_by(|(a, x), (b, y)| {
                        x.partial_cmp(y).unwrap_or(Ordering::Equal).then(b.cmp(a))
                    })
                    // invariant: empty clusters were filtered out above
                    .expect("communities are non-empty");
                Community {
                    representative: members[medoid],
                    members,
                }
            })
            .collect();
        Self { communities }
    }

    /// The one greedy pass both entry points share: subscription `index`
    /// joins the first open community whose representative is at least
    /// `config.threshold` similar (`similarity(index, representative)`),
    /// else founds a new one. Keeping a single implementation is what
    /// guarantees [`CommunityClustering::cluster`] and
    /// [`CommunityClustering::cluster_par`] can never drift apart.
    fn greedy<F>(count: usize, config: CommunityConfig, mut similarity: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        let mut communities: Vec<Community> = Vec::new();
        for index in 0..count {
            let mut joined = false;
            for community in communities.iter_mut() {
                if config.max_community_size > 0 && community.len() >= config.max_community_size {
                    continue;
                }
                if similarity(index, community.representative) >= config.threshold {
                    community.members.push(index);
                    joined = true;
                    break;
                }
            }
            if !joined {
                communities.push(Community {
                    representative: index,
                    members: vec![index],
                });
            }
        }
        Self { communities }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.communities.len()
    }

    /// Whether there are no communities.
    pub fn is_empty(&self) -> bool {
        self.communities.is_empty()
    }

    /// The community index each subscription belongs to.
    pub fn assignment(&self, subscription_count: usize) -> Vec<usize> {
        let mut assignment = vec![usize::MAX; subscription_count];
        for (c, community) in self.communities.iter().enumerate() {
            for &m in &community.members {
                assignment[m] = c;
            }
        }
        assignment
    }

    /// Average intra-community similarity according to `engine`; a quality
    /// measure of the clustering (1.0 when every community is a set of
    /// behaviourally identical subscriptions). Pair similarities come from
    /// the engine's caches, so re-evaluating after clustering is cheap.
    pub fn average_intra_similarity(
        &self,
        engine: &SimilarityEngine,
        subscriptions: &[PatternId],
        metric: ProximityMetric,
    ) -> f64 {
        let mut total = 0.0;
        let mut pairs = 0usize;
        for community in &self.communities {
            for (i, &a) in community.members.iter().enumerate() {
                for &b in &community.members[i + 1..] {
                    total += engine.similarity(subscriptions[a], subscriptions[b], metric);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            1.0
        } else {
            total / pairs as f64
        }
    }

    /// Sizes of all communities, largest first.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.communities.iter().map(Community::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// One live community tracked by [`IncrementalCommunities`]: the
/// representative slot plus every member slot (representative included).
#[derive(Debug, Clone)]
struct IncrementalCommunity {
    representative: u32,
    members: Vec<u32>,
}

/// Sentinel for "slot not assigned to any community".
const UNASSIGNED: usize = usize::MAX;

/// Incrementally maintained semantic communities over the LSH candidate
/// index.
///
/// This is the online counterpart of [`CommunityClustering`]: subscriptions
/// are inserted as they arrive and removed as they cancel, and each arrival
/// is compared only against the community representatives it shares at
/// least one signature band with — the same first-fit, capacity-checked
/// discipline as the batch greedy pass, filtered through the index. Removal
/// of a representative dissolves its community and re-runs the remaining
/// members (ascending slot order) through the identical assignment step, so
/// an `eager` re-clustering policy costs `O(churned community)` instead of
/// `O(n·c)` per event.
///
/// Slots are dense and never reused; [`IncrementalCommunities::snapshot`]
/// renumbers the live slots ascending so the result is a plain
/// [`CommunityClustering`] over the surviving subscription positions.
#[derive(Debug, Clone)]
pub struct IncrementalCommunities {
    config: CommunityConfig,
    index: CandidateIndex,
    /// Representative-only band buckets: probing an arrival touches
    /// communities, not every stored subscription.
    rep_buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// Communities in creation order; dissolved ones are tombstoned so ids
    /// stay stable.
    communities: Vec<Option<IncrementalCommunity>>,
    slot_community: Vec<usize>,
}

impl IncrementalCommunities {
    /// Create an empty incremental clustering.
    pub fn new(config: CommunityConfig, lsh: LshConfig) -> Self {
        Self {
            config,
            index: CandidateIndex::new(lsh),
            rep_buckets: vec![HashMap::new(); lsh.bands()],
            communities: Vec::new(),
            slot_community: Vec::new(),
        }
    }

    /// The clustering configuration.
    pub fn config(&self) -> &CommunityConfig {
        &self.config
    }

    /// The underlying candidate index.
    pub fn index(&self) -> &CandidateIndex {
        &self.index
    }

    /// Number of live subscriptions.
    pub fn live_count(&self) -> usize {
        self.index.live_count()
    }

    /// Number of live communities.
    pub fn community_count(&self) -> usize {
        self.communities.iter().flatten().count()
    }

    /// Insert a subscription; `similarity(slot, representative_slot)` scores
    /// it against candidate representatives (the caller maps slots back to
    /// its own handles). Returns the new slot.
    pub fn insert_with<F>(&mut self, pattern: &TreePattern, mut similarity: F) -> u32
    where
        F: FnMut(u32, u32) -> f64,
    {
        let slot = self.index.insert(pattern);
        self.slot_community.push(UNASSIGNED);
        self.assign(slot, &mut similarity);
        slot
    }

    /// Remove a slot; a representative removal dissolves its community and
    /// re-assigns the orphaned members using `similarity`. Returns false
    /// when the slot was unknown or already removed.
    pub fn remove_with<F>(&mut self, slot: u32, mut similarity: F) -> bool
    where
        F: FnMut(u32, u32) -> f64,
    {
        if !self.index.contains(slot) {
            return false;
        }
        let community = self.slot_community[slot as usize];
        self.index.remove(slot);
        self.slot_community[slot as usize] = UNASSIGNED;
        // invariant: every live slot carries a live community assignment.
        let state = self.communities[community]
            .as_mut()
            .expect("live slot assigned to a dissolved community");
        if state.representative != slot {
            state.members.retain(|&member| member != slot);
            return true;
        }
        let mut orphans = std::mem::take(&mut state.members);
        self.communities[community] = None;
        for band in 0..self.rep_buckets.len() {
            let key = self.index.band_key(slot, band);
            if let Some(reps) = self.rep_buckets[band].get_mut(&key) {
                reps.retain(|&rep| rep != slot);
                if reps.is_empty() {
                    self.rep_buckets[band].remove(&key);
                }
            }
        }
        orphans.retain(|&member| member != slot);
        orphans.sort_unstable();
        for orphan in orphans {
            self.slot_community[orphan as usize] = UNASSIGNED;
            self.assign(orphan, &mut similarity);
        }
        true
    }

    /// The shared per-arrival step, mirroring the batch greedy pass: join
    /// the first open candidate community (creation order, capacity checked
    /// before similarity) whose representative clears the threshold, else
    /// found a new community.
    fn assign<F>(&mut self, slot: u32, similarity: &mut F)
    where
        F: FnMut(u32, u32) -> f64,
    {
        let mut candidates: Vec<usize> = Vec::new();
        for (band, buckets) in self.rep_buckets.iter().enumerate() {
            let key = self.index.band_key(slot, band);
            if let Some(reps) = buckets.get(&key) {
                candidates.extend(reps.iter().map(|&rep| self.slot_community[rep as usize]));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        let mut joined = None;
        for &community in &candidates {
            // invariant: representative buckets only hold representatives of
            // live communities.
            let state = self.communities[community]
                .as_ref()
                .expect("bucketed representative of a dissolved community");
            if self.config.max_community_size > 0
                && state.members.len() >= self.config.max_community_size
            {
                continue;
            }
            if similarity(slot, state.representative) >= self.config.threshold {
                joined = Some(community);
                break;
            }
        }

        match joined {
            Some(community) => {
                // invariant: `joined` only ever holds live community ids.
                self.communities[community]
                    .as_mut()
                    .expect("joined a dissolved community")
                    .members
                    .push(slot);
                self.slot_community[slot as usize] = community;
            }
            None => {
                let community = self.communities.len();
                self.communities.push(Some(IncrementalCommunity {
                    representative: slot,
                    members: vec![slot],
                }));
                self.slot_community[slot as usize] = community;
                for band in 0..self.rep_buckets.len() {
                    let key = self.index.band_key(slot, band);
                    self.rep_buckets[band].entry(key).or_default().push(slot);
                }
            }
        }
    }

    /// Snapshot the live communities as a [`CommunityClustering`], with
    /// member indices renumbered to positions among the live slots
    /// (ascending) — the order the surviving subscriptions appear in when
    /// collected for a rebuild.
    pub fn snapshot(&self) -> CommunityClustering {
        let mut position = vec![usize::MAX; self.index.len()];
        let mut next = 0usize;
        for slot in 0..self.index.len() as u32 {
            if self.index.contains(slot) {
                position[slot as usize] = next;
                next += 1;
            }
        }
        let mut communities = Vec::new();
        for state in self.communities.iter().flatten() {
            let mut members: Vec<usize> = state
                .members
                .iter()
                .map(|&member| position[member as usize])
                .collect();
            members.sort_unstable();
            communities.push(Community {
                representative: position[state.representative as usize],
                members,
            });
        }
        CommunityClustering { communities }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_pattern::TreePattern;
    use tps_synopsis::{ingest, Ingest, SynopsisConfig};
    use tps_xml::XmlTree;

    fn engine_and_subs() -> (SimilarityEngine, Vec<PatternId>) {
        let docs: Vec<XmlTree> = [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><CD><composer><last>Bach</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
            "<media><book><author><last>Orwell</last></author></book></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect();
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let ids = engine.register_all(&subscriptions());
        (engine, ids)
    }

    fn subscriptions() -> Vec<TreePattern> {
        [
            "//CD",
            "//composer",
            "//CD/composer",
            "//book",
            "//author",
            "//book/author",
        ]
        .iter()
        .map(|s| TreePattern::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn clusters_cd_and_book_subscribers_separately() {
        let (engine, subs) = engine_and_subs();
        let clustering = CommunityClustering::cluster(&engine, &subs, CommunityConfig::default());
        assert_eq!(clustering.len(), 2);
        let assignment = clustering.assignment(subs.len());
        // CD-related subscriptions (0, 1, 2) share a community; book-related
        // (3, 4, 5) share the other.
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[0], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_eq!(assignment[3], assignment[5]);
        assert_ne!(assignment[0], assignment[3]);
    }

    #[test]
    fn threshold_one_separates_non_identical_subscriptions() {
        let (engine, subs) = engine_and_subs();
        let config = CommunityConfig {
            threshold: 1.01,
            ..CommunityConfig::default()
        };
        let clustering = CommunityClustering::cluster(&engine, &subs, config);
        assert_eq!(clustering.len(), subs.len());
    }

    #[test]
    fn threshold_zero_puts_everything_together() {
        let (engine, subs) = engine_and_subs();
        let config = CommunityConfig {
            threshold: 0.0,
            ..CommunityConfig::default()
        };
        let clustering = CommunityClustering::cluster(&engine, &subs, config);
        assert_eq!(clustering.len(), 1);
        assert_eq!(clustering.communities[0].len(), subs.len());
    }

    #[test]
    fn max_community_size_is_respected() {
        let (engine, subs) = engine_and_subs();
        let config = CommunityConfig {
            threshold: 0.0,
            max_community_size: 2,
            ..CommunityConfig::default()
        };
        let clustering = CommunityClustering::cluster(&engine, &subs, config);
        assert!(clustering.sizes().iter().all(|&s| s <= 2));
        assert_eq!(clustering.sizes().iter().sum::<usize>(), subs.len());
    }

    #[test]
    fn intra_similarity_is_high_for_good_clusters() {
        let (engine, subs) = engine_and_subs();
        let clustering = CommunityClustering::cluster(&engine, &subs, CommunityConfig::default());
        let quality = clustering.average_intra_similarity(&engine, &subs, ProximityMetric::M3);
        assert!(quality > 0.6, "intra-community similarity {quality}");
    }

    #[test]
    fn assignment_covers_every_subscription() {
        let (engine, subs) = engine_and_subs();
        let clustering = CommunityClustering::cluster(&engine, &subs, CommunityConfig::default());
        let assignment = clustering.assignment(subs.len());
        assert!(assignment.iter().all(|&a| a != usize::MAX));
    }

    #[test]
    fn empty_subscription_list_produces_no_communities() {
        let (engine, _) = engine_and_subs();
        let clustering = CommunityClustering::cluster(&engine, &[], CommunityConfig::default());
        assert!(clustering.is_empty());
        assert_eq!(
            clustering.average_intra_similarity(&engine, &[], ProximityMetric::M1),
            1.0
        );
    }

    fn engine_similarity<'a>(
        engine: &'a SimilarityEngine,
        subs: &'a [PatternId],
        metric: ProximityMetric,
    ) -> impl FnMut(u32, u32) -> f64 + 'a {
        move |slot, representative| {
            engine.similarity(subs[slot as usize], subs[representative as usize], metric)
        }
    }

    #[test]
    fn indexed_clustering_matches_exhaustive_on_duplicate_heavy_workloads() {
        // At threshold 1.01 > 1 every subscription is a singleton; at a high
        // threshold only behaviourally identical subscriptions join, and
        // identical patterns always share all signature bands, so the
        // candidate filter cannot miss a qualifying representative.
        let docs: Vec<XmlTree> = [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect();
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let patterns: Vec<TreePattern> = ["//CD", "//book", "//CD", "//book", "//CD"]
            .iter()
            .map(|s| TreePattern::parse(s).unwrap())
            .collect();
        let subs = engine.register_all(&patterns);
        for threshold in [0.99, 1.01] {
            let config = CommunityConfig {
                threshold,
                ..CommunityConfig::default()
            };
            let exhaustive = CommunityClustering::cluster(&engine, &subs, config);
            let indexed =
                CommunityClustering::cluster_indexed(&engine, &subs, config, LshConfig::default());
            assert_eq!(indexed, exhaustive, "threshold {threshold}");
        }
    }

    #[test]
    fn incremental_insert_only_run_matches_cluster_indexed() {
        let (engine, subs) = engine_and_subs();
        let config = CommunityConfig::default();
        let lsh = LshConfig::default();
        let batch = CommunityClustering::cluster_indexed(&engine, &subs, config, lsh);
        let mut incremental = IncrementalCommunities::new(config, lsh);
        for &id in &subs {
            incremental.insert_with(
                engine.pattern(id),
                engine_similarity(&engine, &subs, config.metric),
            );
        }
        assert_eq!(incremental.snapshot(), batch);
        assert_eq!(incremental.live_count(), subs.len());
        assert_eq!(incremental.community_count(), batch.len());
    }

    #[test]
    fn incremental_member_removal_keeps_the_snapshot_consistent() {
        let (engine, subs) = engine_and_subs();
        let config = CommunityConfig::default();
        let mut incremental = IncrementalCommunities::new(config, LshConfig::default());
        let mut slots = Vec::new();
        for &id in &subs {
            slots.push(incremental.insert_with(
                engine.pattern(id),
                engine_similarity(&engine, &subs, config.metric),
            ));
        }
        // Slot 2 (`//CD/composer`) is a follower of the first community.
        assert!(incremental.remove_with(slots[2], engine_similarity(&engine, &subs, config.metric)));
        assert!(
            !incremental.remove_with(slots[2], engine_similarity(&engine, &subs, config.metric))
        );
        let snapshot = incremental.snapshot();
        assert_eq!(incremental.live_count(), subs.len() - 1);
        // The five survivors are fully assigned, positions renumbered 0..5.
        let assignment = snapshot.assignment(subs.len() - 1);
        assert!(assignment.iter().all(|&a| a != usize::MAX));
    }

    #[test]
    fn representative_removal_reassigns_the_orphans() {
        let docs: Vec<XmlTree> = [
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
            "<media><book><author><last>Austen</last></author></book></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect();
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let patterns: Vec<TreePattern> = ["//CD", "//CD", "//CD"]
            .iter()
            .map(|s| TreePattern::parse(s).unwrap())
            .collect();
        let subs = engine.register_all(&patterns);
        let config = CommunityConfig::default();
        let mut incremental = IncrementalCommunities::new(config, LshConfig::default());
        let mut slots = Vec::new();
        for &id in &subs {
            slots.push(incremental.insert_with(
                engine.pattern(id),
                engine_similarity(&engine, &subs, config.metric),
            ));
        }
        assert_eq!(incremental.community_count(), 1);
        assert!(incremental.remove_with(slots[0], engine_similarity(&engine, &subs, config.metric)));
        // The two orphans re-cluster into a single community led by the
        // lowest surviving slot.
        assert_eq!(incremental.community_count(), 1);
        let snapshot = incremental.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot.communities[0].members, vec![0, 1]);
        assert_eq!(snapshot.communities[0].representative, 0);
    }

    #[test]
    fn parallel_clustering_is_identical_to_sequential() {
        let (engine, subs) = engine_and_subs();
        for config in [
            CommunityConfig::default(),
            CommunityConfig {
                threshold: 0.3,
                max_community_size: 2,
                ..CommunityConfig::default()
            },
            CommunityConfig {
                metric: ProximityMetric::M1,
                ..CommunityConfig::default()
            },
        ] {
            let sequential = CommunityClustering::cluster(&engine, &subs, config);
            for threads in [1usize, 2, 4] {
                let parallel = CommunityClustering::cluster_par(&engine, &subs, config, threads);
                assert_eq!(parallel, sequential, "{threads} threads");
            }
        }
    }

    /// `from_clustering` reads only symmetrised similarities, and matrix
    /// entries are bit-identical to pairwise engine calls: scoring with the
    /// matrix or with the engine picks the same medoids.
    #[test]
    fn from_clustering_picks_the_same_medoids_from_the_matrix_and_the_engine() {
        use tps_cluster::{agglomerative, AgglomerativeConfig};
        use tps_workload::{Dataset, DatasetConfig, Dtd};

        let dataset = Dataset::generate(
            Dtd::nitf_like(),
            &DatasetConfig::small().with_scale(120, 30, 0).with_seed(11),
        );
        let mut engine = SimilarityEngine::new(SynopsisConfig::hashes(128));
        engine.ingest(ingest::trees(&dataset.documents)).unwrap();
        let ids = engine.register_all(&dataset.positive);
        for metric in [ProximityMetric::M1, ProximityMetric::M3] {
            let matrix = engine.similarity_matrix(&ids, metric);
            let agglomerated = agglomerative(
                &matrix,
                AgglomerativeConfig {
                    similarity_threshold: 0.3,
                    ..AgglomerativeConfig::default()
                },
            )
            .clustering;
            assert!(agglomerated.largest_cluster() > 2, "{metric}");
            for clustering in [agglomerated, Clustering::single_community(ids.len())] {
                let from_matrix = CommunityClustering::from_clustering(&clustering, |a, b| {
                    matrix.symmetric(a, b)
                });
                let from_engine = CommunityClustering::from_clustering(&clustering, |a, b| {
                    (engine.similarity(ids[a], ids[b], metric)
                        + engine.similarity(ids[b], ids[a], metric))
                        / 2.0
                });
                assert_eq!(from_matrix, from_engine, "{metric}");
            }
        }
    }
}
