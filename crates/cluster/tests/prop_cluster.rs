//! Property-based tests for the clustering substrate.

use proptest::prelude::*;

use tps_cluster::{
    agglomerative, evaluate, kmedoids, leader, AgglomerativeConfig, CandidateIndex, Clustering,
    KMedoidsConfig, LeaderConfig, LshConfig, MinHashSignature, OnlineLeader,
};
use tps_core::{ProximityMetric, SimMatrix};

/// A strategy over random symmetric similarity matrices.
fn similarity_matrix(max_len: usize) -> impl Strategy<Value = SimMatrix> {
    (1..=max_len).prop_flat_map(|len| {
        proptest::collection::vec(0.0f64..=1.0, len * (len.saturating_sub(1)) / 2).prop_map(
            move |upper| {
                let mut iter = upper.into_iter();
                SimMatrix::from_symmetric_fn(len, ProximityMetric::M3, |_, _| {
                    iter.next().unwrap_or(0.0)
                })
            },
        )
    })
}

fn check_partition(clustering: &Clustering, len: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(clustering.len(), len);
    let sizes = clustering.sizes();
    prop_assert_eq!(sizes.iter().sum::<usize>(), len);
    prop_assert!(sizes.iter().all(|&s| s > 0), "no empty communities");
    for i in 0..len {
        prop_assert!(clustering.cluster_of(i) < clustering.cluster_count());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every clustering algorithm returns a well-formed partition of the
    /// input subscriptions.
    #[test]
    fn algorithms_return_valid_partitions(matrix in similarity_matrix(12), threshold in 0.0f64..=1.0) {
        let n = matrix.len();
        let agglo = agglomerative(
            &matrix,
            AgglomerativeConfig { similarity_threshold: threshold, ..AgglomerativeConfig::default() },
        );
        check_partition(&agglo.clustering, n)?;
        let led = leader(
            &matrix,
            LeaderConfig { similarity_threshold: threshold, ..LeaderConfig::default() },
        );
        check_partition(&led.clustering, n)?;
        let kmed = kmedoids(&matrix, KMedoidsConfig { k: (n / 2).max(1), ..KMedoidsConfig::default() });
        check_partition(&kmed.clustering, n)?;
        // Some medoids may end up with empty communities after renumbering,
        // but never fewer medoids than communities.
        prop_assert!(kmed.medoids.len() >= kmed.clustering.cluster_count());
    }

    /// A similarity threshold of 1.0+ keeps everything separate unless two
    /// subscriptions are perfectly similar; a threshold of 0.0 produces a
    /// single community.
    #[test]
    fn threshold_extremes_bound_the_community_count(matrix in similarity_matrix(10)) {
        let n = matrix.len();
        let all = leader(
            &matrix,
            LeaderConfig { similarity_threshold: 0.0, ..LeaderConfig::default() },
        );
        prop_assert_eq!(all.clustering.cluster_count(), 1);
        let none = agglomerative(
            &matrix,
            AgglomerativeConfig { similarity_threshold: 1.01, ..AgglomerativeConfig::default() },
        );
        prop_assert_eq!(none.clustering.cluster_count(), n);
    }

    /// Geometric quality values stay within their documented ranges.
    #[test]
    fn quality_values_are_bounded(matrix in similarity_matrix(10), threshold in 0.0f64..=1.0) {
        let clustering = agglomerative(
            &matrix,
            AgglomerativeConfig { similarity_threshold: threshold, ..AgglomerativeConfig::default() },
        )
        .clustering;
        let quality = evaluate(&matrix, &clustering);
        prop_assert!((0.0..=1.0).contains(&quality.intra_similarity));
        prop_assert!((0.0..=1.0).contains(&quality.inter_similarity));
        prop_assert!((-1.0..=1.0).contains(&quality.silhouette));
    }

    /// MinHash estimates are within a coarse additive bound of the true
    /// Jaccard coefficient.
    #[test]
    fn minhash_estimates_track_jaccard(
        a in proptest::collection::btree_set(0u64..400, 1..120),
        b in proptest::collection::btree_set(0u64..400, 1..120),
        seed in any::<u64>(),
    ) {
        let intersection = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        let truth = intersection / union;
        let sig_a = MinHashSignature::from_ids(a.iter().copied(), 512, seed);
        let sig_b = MinHashSignature::from_ids(b.iter().copied(), 512, seed);
        let estimate = sig_a.jaccard_estimate(&sig_b).unwrap();
        prop_assert!((estimate - truth).abs() < 0.2, "estimate {estimate} vs truth {truth}");
    }

    /// Clustering::from_assignment is idempotent under renumbering.
    #[test]
    fn clustering_renumbering_is_idempotent(raw in proptest::collection::vec(0usize..6, 0..30)) {
        let first = Clustering::from_assignment(raw);
        let second = Clustering::from_assignment(first.assignment().to_vec());
        prop_assert_eq!(first, second);
    }

    /// Identical feature sets produce identical signatures under any banding
    /// configuration, so they are candidates with probability exactly 1 —
    /// the deterministic floor of the recall guarantee.
    #[test]
    fn identical_feature_sets_are_always_candidates(
        set in proptest::collection::btree_set(0u64..200, 1..40),
        bands in 1usize..6,
        rows in 1usize..4,
        seed in any::<u64>(),
    ) {
        let features: Vec<u64> = set.into_iter().collect();
        let mut index = CandidateIndex::new(LshConfig { bands, rows, seed });
        let a = index.insert_features(&features);
        let b = index.insert_features(&features);
        prop_assert_eq!(index.estimate(a, b), 1.0);
        prop_assert!(index.candidates(a).contains(&b));
        prop_assert!(index.candidate_pairs().contains(&(a, b)));
    }

    /// Zero churn: an insert-only [`OnlineLeader`] must be reproduced
    /// exactly by a from-scratch rebuild over the same feature sets, for
    /// both fit policies and any banding.
    #[test]
    fn online_leader_rebuild_matches_incremental_at_zero_churn(
        sets in proptest::collection::vec(proptest::collection::btree_set(0u64..50, 1..12), 1..20),
        bands in 1usize..6,
        rows in 1usize..3,
        seed in any::<u64>(),
        threshold in 0.05f64..=0.95,
        best_fit in any::<bool>(),
    ) {
        let lsh = LshConfig { bands, rows, seed };
        let config = LeaderConfig { similarity_threshold: threshold, best_fit };
        let mut incremental = OnlineLeader::new(lsh, config);
        let mut rebuilt = OnlineLeader::new(lsh, config);
        for set in &sets {
            let features: Vec<u64> = set.iter().copied().collect();
            incremental.insert_features_estimated(&features);
        }
        for set in &sets {
            let features: Vec<u64> = set.iter().copied().collect();
            rebuilt.insert_features_estimated(&features);
        }
        prop_assert_eq!(incremental.clustering(), rebuilt.clustering());
        prop_assert_eq!(incremental.leaders(), rebuilt.leaders());
        check_partition(&incremental.clustering(), sets.len())?;
    }

    /// With one-row bands every pair with a non-zero estimate shares a band,
    /// so the candidate-filtered online assignment equals the batch
    /// [`leader()`] run on the full estimate matrix.
    #[test]
    fn single_row_online_leader_equals_batch_leader(
        sets in proptest::collection::vec(proptest::collection::btree_set(0u64..30, 1..10), 1..16),
        bands in 1usize..10,
        seed in any::<u64>(),
        threshold in 0.05f64..=0.95,
        best_fit in any::<bool>(),
    ) {
        let lsh = LshConfig { bands, rows: 1, seed };
        let config = LeaderConfig { similarity_threshold: threshold, best_fit };
        let mut online = OnlineLeader::new(lsh, config);
        for set in &sets {
            let features: Vec<u64> = set.iter().copied().collect();
            online.insert_features_estimated(&features);
        }
        let matrix = SimMatrix::from_symmetric_fn(sets.len(), ProximityMetric::M3, |i, j| {
            online.index().estimate(i as u32, j as u32)
        });
        let batch = leader(&matrix, config);
        prop_assert_eq!(online.clustering(), batch.clustering);
        let batch_leaders: Vec<u32> = batch.leaders.iter().map(|&l| l as u32).collect();
        prop_assert_eq!(online.leaders(), batch_leaders);
    }
}

/// The banding recall bound, checked empirically on a seeded workload: among
/// pairs whose true feature Jaccard is at least `s`, the fraction surfaced
/// as candidates must reach `recall(s)` minus a small sampling slack.
#[test]
fn candidate_recall_meets_the_banding_bound() {
    let config = LshConfig::default();
    let mut index = CandidateIndex::new(config);
    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
    // 200 disjoint pairs with controlled overlap: |A| = 50, k of them
    // swapped out in B, so Jaccard = (50 - k) / (50 + k) >= 45/55.
    for t in 0..200u64 {
        let base = t * 1_000;
        let a: Vec<u64> = (base..base + 50).collect();
        let k = t % 6;
        let b: Vec<u64> = (base + k..base + 50)
            .chain(base + 500..base + 500 + k)
            .collect();
        let jaccard = (50 - k) as f64 / (50 + k) as f64;
        let (sa, sb) = (index.insert_features(&a), index.insert_features(&b));
        pairs.push((sa, sb, jaccard));
    }
    let s = 45.0 / 55.0;
    let expected = config.recall(s);
    let hits = pairs
        .iter()
        .filter(|&&(a, b, _)| index.candidates(a).contains(&b))
        .count();
    let observed = hits as f64 / pairs.len() as f64;
    assert!(
        observed >= expected - 0.1,
        "recall {observed} below bound {expected} - 0.1"
    );
}
