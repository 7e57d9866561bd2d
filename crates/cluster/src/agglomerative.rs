//! Agglomerative (bottom-up) hierarchical clustering of subscriptions.
//!
//! Starting from singleton communities, the two most similar communities are
//! merged repeatedly until either no pair exceeds the similarity threshold or
//! the target number of communities is reached. The inter-community
//! similarity is computed with a configurable [`Linkage`]. The full merge
//! history (dendrogram) is recorded, which is useful to pick the threshold a
//! routing overlay should use.

use tps_core::SimMatrix;

use crate::assignment::Clustering;

/// How the similarity between two communities is derived from member
/// similarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Similarity of the closest pair (single linkage).
    Single,
    /// Similarity of the farthest pair (complete linkage).
    Complete,
    /// Average pairwise similarity (UPGMA).
    Average,
}

/// Configuration for [`agglomerative()`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgglomerativeConfig {
    /// Linkage criterion.
    pub linkage: Linkage,
    /// Stop merging when the best inter-community similarity falls below
    /// this threshold.
    pub similarity_threshold: f64,
    /// Never merge below this number of communities (1 disables the bound).
    pub min_clusters: usize,
}

impl Default for AgglomerativeConfig {
    fn default() -> Self {
        Self {
            linkage: Linkage::Average,
            similarity_threshold: 0.5,
            min_clusters: 1,
        }
    }
}

/// One merge step of the dendrogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// First merged community (by then-current id).
    pub left: usize,
    /// Second merged community.
    pub right: usize,
    /// Linkage similarity at which the merge happened.
    pub similarity: f64,
    /// Number of communities remaining after the merge.
    pub clusters_after: usize,
}

/// The result of a hierarchical clustering run.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    /// The final flat clustering.
    pub clustering: Clustering,
    /// The merges performed, in order.
    pub merges: Vec<Merge>,
}

/// Cluster subscriptions hierarchically over a similarity matrix.
pub fn agglomerative(matrix: &SimMatrix, config: AgglomerativeConfig) -> Dendrogram {
    let n = matrix.len();
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut merges = Vec::new();
    let min_clusters = config.min_clusters.max(1);
    while clusters.len() > min_clusters {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let similarity =
                    linkage_similarity(matrix, &clusters[a], &clusters[b], config.linkage);
                if best.map(|(_, _, s)| similarity > s).unwrap_or(true) {
                    best = Some((a, b, similarity));
                }
            }
        }
        let Some((a, b, similarity)) = best else {
            break;
        };
        if similarity < config.similarity_threshold {
            break;
        }
        let merged_in = clusters.swap_remove(b);
        clusters[a].extend(merged_in);
        merges.push(Merge {
            left: a,
            right: b,
            similarity,
            clusters_after: clusters.len(),
        });
    }
    let mut assignment = vec![0usize; n];
    for (cluster_id, members) in clusters.iter().enumerate() {
        for &member in members {
            assignment[member] = cluster_id;
        }
    }
    Dendrogram {
        clustering: Clustering::from_assignment(assignment),
        merges,
    }
}

fn linkage_similarity(matrix: &SimMatrix, a: &[usize], b: &[usize], linkage: Linkage) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut worst = f64::INFINITY;
    let mut sum = 0.0;
    let mut count = 0usize;
    for &i in a {
        for &j in b {
            let similarity = matrix.symmetric(i, j);
            best = best.max(similarity);
            worst = worst.min(similarity);
            sum += similarity;
            count += 1;
        }
    }
    if count == 0 {
        return 0.0;
    }
    match linkage {
        Linkage::Single => best,
        Linkage::Complete => worst,
        Linkage::Average => sum / count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::ProximityMetric;

    /// Two obvious blocks: {0,1,2} highly similar, {3,4} highly similar,
    /// low similarity across blocks.
    fn block_matrix() -> SimMatrix {
        SimMatrix::from_symmetric_fn(5, ProximityMetric::M3, |i, j| {
            let same_block = (i < 3) == (j < 3);
            if same_block {
                0.9
            } else {
                0.05
            }
        })
    }

    #[test]
    fn recovers_the_two_blocks() {
        let dendrogram = agglomerative(&block_matrix(), AgglomerativeConfig::default());
        let clustering = &dendrogram.clustering;
        assert_eq!(clustering.cluster_count(), 2);
        assert!(clustering.same_cluster(0, 1));
        assert!(clustering.same_cluster(0, 2));
        assert!(clustering.same_cluster(3, 4));
        assert!(!clustering.same_cluster(0, 3));
        assert_eq!(dendrogram.merges.len(), 3);
    }

    #[test]
    fn threshold_one_keeps_singletons_when_nothing_is_identical() {
        let matrix = SimMatrix::from_symmetric_fn(4, ProximityMetric::M3, |_, _| 0.6);
        let dendrogram = agglomerative(
            &matrix,
            AgglomerativeConfig {
                similarity_threshold: 0.99,
                ..AgglomerativeConfig::default()
            },
        );
        assert_eq!(dendrogram.clustering.cluster_count(), 4);
        assert!(dendrogram.merges.is_empty());
    }

    #[test]
    fn threshold_zero_merges_everything() {
        let dendrogram = agglomerative(
            &block_matrix(),
            AgglomerativeConfig {
                similarity_threshold: 0.0,
                ..AgglomerativeConfig::default()
            },
        );
        assert_eq!(dendrogram.clustering.cluster_count(), 1);
        assert_eq!(dendrogram.merges.len(), 4);
        // The cross-block merge happens last and at low similarity.
        assert!(dendrogram.merges.last().unwrap().similarity < 0.1);
    }

    #[test]
    fn min_clusters_bounds_the_merging() {
        let dendrogram = agglomerative(
            &block_matrix(),
            AgglomerativeConfig {
                similarity_threshold: 0.0,
                min_clusters: 3,
                ..AgglomerativeConfig::default()
            },
        );
        assert_eq!(dendrogram.clustering.cluster_count(), 3);
    }

    #[test]
    fn linkages_order_chain_similarities_correctly() {
        // 0-1 similar, 1-2 similar, 0-2 dissimilar: single linkage chains,
        // complete linkage does not.
        let matrix = SimMatrix::from_symmetric_fn(3, ProximityMetric::M3, |i, j| {
            match (i.min(j), i.max(j)) {
                (0, 1) | (1, 2) => 0.8,
                _ => 0.1,
            }
        });
        let single = agglomerative(
            &matrix,
            AgglomerativeConfig {
                linkage: Linkage::Single,
                similarity_threshold: 0.5,
                min_clusters: 1,
            },
        );
        assert_eq!(single.clustering.cluster_count(), 1);
        let complete = agglomerative(
            &matrix,
            AgglomerativeConfig {
                linkage: Linkage::Complete,
                similarity_threshold: 0.5,
                min_clusters: 1,
            },
        );
        assert_eq!(complete.clustering.cluster_count(), 2);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty = SimMatrix::from_symmetric_fn(0, ProximityMetric::M3, |_, _| 0.0);
        let dendrogram = agglomerative(&empty, AgglomerativeConfig::default());
        assert!(dendrogram.clustering.is_empty());
        let single = SimMatrix::from_symmetric_fn(1, ProximityMetric::M3, |_, _| 0.0);
        let dendrogram = agglomerative(&single, AgglomerativeConfig::default());
        assert_eq!(dendrogram.clustering.cluster_count(), 1);
    }
}
