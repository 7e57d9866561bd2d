//! k-medoids (PAM-style) clustering of subscriptions.
//!
//! Unlike k-means, k-medoids only needs pairwise (dis)similarities — exactly
//! what the proximity metrics provide — and its community representatives are
//! actual subscriptions, which a routing overlay can use directly as the
//! community's aggregate interest.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tps_core::SimMatrix;

use crate::assignment::Clustering;

/// Configuration for [`kmedoids()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMedoidsConfig {
    /// Number of communities to form (clamped to the number of
    /// subscriptions).
    pub k: usize,
    /// Maximum number of assignment/update rounds.
    pub max_iterations: usize,
    /// Seed for the initial medoid choice.
    pub seed: u64,
}

impl Default for KMedoidsConfig {
    fn default() -> Self {
        Self {
            k: 4,
            max_iterations: 32,
            seed: 0x5EED,
        }
    }
}

/// The result of a k-medoids run.
#[derive(Debug, Clone)]
pub struct KMedoidsResult {
    /// The final flat clustering.
    pub clustering: Clustering,
    /// The medoid (representative subscription) of each community, indexed
    /// by community id.
    pub medoids: Vec<usize>,
    /// Total dissimilarity of every subscription to its medoid.
    pub total_cost: f64,
    /// Number of iterations actually performed.
    pub iterations: usize,
}

/// Cluster subscriptions into `k` communities around medoid subscriptions.
pub fn kmedoids(matrix: &SimMatrix, config: KMedoidsConfig) -> KMedoidsResult {
    let n = matrix.len();
    if n == 0 {
        return KMedoidsResult {
            clustering: Clustering::from_assignment(Vec::new()),
            medoids: Vec::new(),
            total_cost: 0.0,
            iterations: 0,
        };
    }
    let k = config.k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut medoids: Vec<usize> = (0..n).collect();
    medoids.shuffle(&mut rng);
    medoids.truncate(k);
    medoids.sort_unstable();

    let mut assignment = assign_to_medoids(matrix, &medoids);
    let mut iterations = 0usize;
    for _ in 0..config.max_iterations {
        iterations += 1;
        let mut changed = false;
        // Update: for each community, pick the member minimising the total
        // dissimilarity to the other members.
        for (cluster, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = assignment
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == cluster)
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut best = *medoid;
            let mut best_cost = f64::INFINITY;
            for &candidate in &members {
                let cost: f64 = members
                    .iter()
                    .map(|&other| 1.0 - matrix.symmetric(candidate, other))
                    .sum();
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
            if best != *medoid {
                *medoid = best;
                changed = true;
            }
        }
        // Re-assign to the (possibly moved) medoids.
        let new_assignment = assign_to_medoids(matrix, &medoids);
        if new_assignment != assignment {
            assignment = new_assignment;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    let total_cost = assignment
        .iter()
        .enumerate()
        .map(|(i, &c)| 1.0 - matrix.symmetric(i, medoids[c]))
        .sum();
    KMedoidsResult {
        clustering: Clustering::from_assignment(assignment),
        medoids,
        total_cost,
        iterations,
    }
}

fn assign_to_medoids(matrix: &SimMatrix, medoids: &[usize]) -> Vec<usize> {
    (0..matrix.len())
        .map(|i| {
            let mut best_cluster = 0usize;
            let mut best_similarity = f64::NEG_INFINITY;
            for (cluster, &medoid) in medoids.iter().enumerate() {
                let similarity = if i == medoid {
                    // A medoid always stays in its own community.
                    f64::INFINITY
                } else {
                    matrix.symmetric(i, medoid)
                };
                if similarity > best_similarity {
                    best_similarity = similarity;
                    best_cluster = cluster;
                }
            }
            best_cluster
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::ProximityMetric;

    fn block_matrix() -> SimMatrix {
        SimMatrix::from_symmetric_fn(6, ProximityMetric::M3, |i, j| {
            if (i < 3) == (j < 3) {
                0.85
            } else {
                0.1
            }
        })
    }

    #[test]
    fn recovers_two_blocks_with_k_2() {
        let result = kmedoids(
            &block_matrix(),
            KMedoidsConfig {
                k: 2,
                ..KMedoidsConfig::default()
            },
        );
        let clustering = &result.clustering;
        assert_eq!(clustering.cluster_count(), 2);
        assert!(clustering.same_cluster(0, 1));
        assert!(clustering.same_cluster(3, 5));
        assert!(!clustering.same_cluster(0, 3));
        assert_eq!(result.medoids.len(), 2);
        // Each medoid belongs to the community it represents.
        for (cluster, &medoid) in result.medoids.iter().enumerate() {
            assert!(clustering.members(cluster).contains(&medoid));
        }
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let matrix = SimMatrix::from_symmetric_fn(3, ProximityMetric::M3, |_, _| 0.5);
        let result = kmedoids(
            &matrix,
            KMedoidsConfig {
                k: 10,
                ..KMedoidsConfig::default()
            },
        );
        assert_eq!(result.medoids.len(), 3);
        assert_eq!(result.clustering.cluster_count(), 3);
        assert!(result.total_cost.abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let matrix = block_matrix();
        let config = KMedoidsConfig {
            k: 2,
            seed: 42,
            ..KMedoidsConfig::default()
        };
        let a = kmedoids(&matrix, config);
        let b = kmedoids(&matrix, config);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.medoids, b.medoids);
        assert_eq!(a.total_cost, b.total_cost);
    }

    #[test]
    fn cost_improves_over_a_bad_random_start() {
        // With one cluster the cost equals the sum of dissimilarities to the
        // best single medoid; with two clusters it must not be worse.
        let matrix = block_matrix();
        let one = kmedoids(
            &matrix,
            KMedoidsConfig {
                k: 1,
                ..KMedoidsConfig::default()
            },
        );
        let two = kmedoids(
            &matrix,
            KMedoidsConfig {
                k: 2,
                ..KMedoidsConfig::default()
            },
        );
        assert!(two.total_cost <= one.total_cost + 1e-9);
        assert!(one.iterations >= 1);
    }

    #[test]
    fn empty_input_returns_an_empty_result() {
        let matrix = SimMatrix::from_symmetric_fn(0, ProximityMetric::M3, |_, _| 0.0);
        let result = kmedoids(&matrix, KMedoidsConfig::default());
        assert!(result.clustering.is_empty());
        assert!(result.medoids.is_empty());
        assert_eq!(result.iterations, 0);
    }
}
