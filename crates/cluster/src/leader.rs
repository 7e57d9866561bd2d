//! Greedy leader (threshold) clustering.
//!
//! This is the online algorithm a broker can run as subscriptions arrive:
//! each new subscription joins the community of the first *leader* it is
//! similar enough to, or founds a new community otherwise. It is the
//! cheapest of the three clustering algorithms (one similarity evaluation
//! per existing leader) and the one closest to what the paper's semantic
//! overlay construction needs in practice.

use tps_core::SimMatrix;

use crate::assignment::Clustering;

/// Configuration for [`leader()`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderConfig {
    /// Minimum (symmetrised) similarity to an existing leader required to
    /// join its community.
    pub similarity_threshold: f64,
    /// When `true`, a subscription joins the *most* similar qualifying
    /// leader; when `false`, the first qualifying leader in arrival order
    /// (the cheaper, fully online variant).
    pub best_fit: bool,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        Self {
            similarity_threshold: 0.5,
            best_fit: true,
        }
    }
}

/// The result of a leader clustering run.
#[derive(Debug, Clone)]
pub struct LeaderResult {
    /// The final flat clustering.
    pub clustering: Clustering,
    /// The leader subscription of each community, indexed by community id.
    pub leaders: Vec<usize>,
}

/// Cluster subscriptions by greedily assigning each to a sufficiently
/// similar leader, in index order.
pub fn leader(matrix: &SimMatrix, config: LeaderConfig) -> LeaderResult {
    let mut leaders: Vec<usize> = Vec::new();
    let mut assignment = vec![0usize; matrix.len()];
    for (i, slot) in assignment.iter_mut().enumerate() {
        let mut chosen: Option<(usize, f64)> = None;
        for (cluster, &leader) in leaders.iter().enumerate() {
            let similarity = matrix.symmetric(i, leader);
            if similarity < config.similarity_threshold {
                continue;
            }
            match (config.best_fit, chosen) {
                (false, None) => {
                    chosen = Some((cluster, similarity));
                    break;
                }
                (true, Some((_, best))) if similarity <= best => {}
                _ => chosen = Some((cluster, similarity)),
            }
        }
        *slot = match chosen {
            Some((cluster, _)) => cluster,
            None => {
                leaders.push(i);
                leaders.len() - 1
            }
        };
    }
    LeaderResult {
        clustering: Clustering::from_assignment(assignment),
        leaders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::ProximityMetric;

    fn block_matrix() -> SimMatrix {
        SimMatrix::from_symmetric_fn(6, ProximityMetric::M3, |i, j| {
            if (i < 3) == (j < 3) {
                0.8
            } else {
                0.1
            }
        })
    }

    #[test]
    fn groups_by_threshold() {
        let result = leader(&block_matrix(), LeaderConfig::default());
        assert_eq!(result.clustering.cluster_count(), 2);
        assert_eq!(result.leaders, vec![0, 3]);
        assert!(result.clustering.same_cluster(1, 2));
        assert!(!result.clustering.same_cluster(2, 3));
    }

    #[test]
    fn threshold_above_max_yields_singletons() {
        let result = leader(
            &block_matrix(),
            LeaderConfig {
                similarity_threshold: 0.95,
                ..LeaderConfig::default()
            },
        );
        assert_eq!(result.clustering.cluster_count(), 6);
        assert_eq!(result.clustering.singleton_count(), 6);
    }

    #[test]
    fn threshold_zero_yields_one_community() {
        let result = leader(
            &block_matrix(),
            LeaderConfig {
                similarity_threshold: 0.0,
                ..LeaderConfig::default()
            },
        );
        assert_eq!(result.clustering.cluster_count(), 1);
        assert_eq!(result.leaders, vec![0]);
    }

    #[test]
    fn best_fit_picks_the_most_similar_leader() {
        // Item 2 is similar to both leaders 0 and 1, but more similar to 1.
        let matrix = SimMatrix::from_symmetric_fn(3, ProximityMetric::M3, |i, j| {
            match (i.min(j), i.max(j)) {
                (0, 2) => 0.6,
                (1, 2) => 0.9,
                _ => 0.1,
            }
        });
        let config = LeaderConfig {
            similarity_threshold: 0.5,
            best_fit: true,
        };
        let best = leader(&matrix, config);
        assert!(best.clustering.same_cluster(1, 2));
        let first = leader(
            &matrix,
            LeaderConfig {
                best_fit: false,
                ..config
            },
        );
        assert!(first.clustering.same_cluster(0, 2));
    }

    #[test]
    fn leaders_belong_to_their_own_communities() {
        let result = leader(&block_matrix(), LeaderConfig::default());
        for (cluster, &leader_index) in result.leaders.iter().enumerate() {
            assert_eq!(result.clustering.cluster_of(leader_index), cluster);
        }
    }

    #[test]
    fn empty_matrix_produces_empty_result() {
        let matrix = SimMatrix::from_symmetric_fn(0, ProximityMetric::M3, |_, _| 0.0);
        let result = leader(&matrix, LeaderConfig::default());
        assert!(result.clustering.is_empty());
        assert!(result.leaders.is_empty());
    }
}
