//! Geometric quality of semantic communities over the similarity matrix:
//! average intra- and inter-community similarity and the silhouette
//! coefficient. These say how well a clustering respects the proximity
//! metric. Routing quality (precision and recall of delivering a document
//! to whole communities) is measured by `tps_routing::Broker`'s community
//! strategy, on the actual documents.

use tps_core::SimMatrix;

use crate::assignment::Clustering;

/// Geometric quality summary of a clustering against a similarity matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQuality {
    /// Average similarity over pairs that share a community.
    pub intra_similarity: f64,
    /// Average similarity over pairs in different communities.
    pub inter_similarity: f64,
    /// Mean silhouette coefficient (in `[-1, 1]`, higher is better).
    pub silhouette: f64,
    /// Number of communities.
    pub cluster_count: usize,
    /// Number of single-member communities.
    pub singleton_count: usize,
}

/// Average similarity over pairs of subscriptions that share a community.
/// Returns 1.0 when no such pair exists (all singletons).
pub fn intra_cluster_similarity(matrix: &SimMatrix, clustering: &Clustering) -> f64 {
    pair_average(matrix, clustering, true).unwrap_or(1.0)
}

/// Average similarity over pairs of subscriptions in different communities.
/// Returns 0.0 when no such pair exists (a single community).
pub fn inter_cluster_similarity(matrix: &SimMatrix, clustering: &Clustering) -> f64 {
    pair_average(matrix, clustering, false).unwrap_or(0.0)
}

fn pair_average(matrix: &SimMatrix, clustering: &Clustering, same_cluster: bool) -> Option<f64> {
    let n = matrix.len();
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if clustering.same_cluster(i, j) == same_cluster {
                sum += matrix.symmetric(i, j);
                count += 1;
            }
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Mean silhouette coefficient of the clustering, computed on the
/// dissimilarity `1 - s`. Subscriptions in singleton communities contribute
/// a silhouette of 0, following the usual convention.
pub fn silhouette(matrix: &SimMatrix, clustering: &Clustering) -> f64 {
    let n = matrix.len();
    if n == 0 {
        return 0.0;
    }
    if clustering.cluster_count() < 2 {
        return 0.0;
    }
    let clusters = clustering.clusters();
    let mut total = 0.0;
    for i in 0..n {
        let own = clustering.cluster_of(i);
        if clusters[own].len() < 2 {
            continue; // silhouette 0 for singletons
        }
        // a(i): mean dissimilarity to the rest of the own community.
        let a: f64 = clusters[own]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| 1.0 - matrix.symmetric(i, j))
            .sum::<f64>()
            / (clusters[own].len() - 1) as f64;
        // b(i): smallest mean dissimilarity to another community.
        let mut b = f64::INFINITY;
        for (cluster, members) in clusters.iter().enumerate() {
            if cluster == own || members.is_empty() {
                continue;
            }
            let mean: f64 = members
                .iter()
                .map(|&j| 1.0 - matrix.symmetric(i, j))
                .sum::<f64>()
                / members.len() as f64;
            b = b.min(mean);
        }
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

/// Compute the full geometric quality summary.
pub fn evaluate(matrix: &SimMatrix, clustering: &Clustering) -> ClusterQuality {
    ClusterQuality {
        intra_similarity: intra_cluster_similarity(matrix, clustering),
        inter_similarity: inter_cluster_similarity(matrix, clustering),
        silhouette: silhouette(matrix, clustering),
        cluster_count: clustering.cluster_count(),
        singleton_count: clustering.singleton_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::ProximityMetric;

    fn block_matrix() -> SimMatrix {
        SimMatrix::from_symmetric_fn(6, ProximityMetric::M3, |i, j| {
            if (i < 3) == (j < 3) {
                0.9
            } else {
                0.1
            }
        })
    }

    fn block_clustering() -> Clustering {
        Clustering::from_assignment(vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn good_clustering_scores_high() {
        let matrix = block_matrix();
        let clustering = block_clustering();
        let quality = evaluate(&matrix, &clustering);
        assert!((quality.intra_similarity - 0.9).abs() < 1e-9);
        assert!((quality.inter_similarity - 0.1).abs() < 1e-9);
        assert!(quality.silhouette > 0.8);
        assert_eq!(quality.cluster_count, 2);
        assert_eq!(quality.singleton_count, 0);
    }

    #[test]
    fn bad_clustering_scores_low() {
        let matrix = block_matrix();
        // Mix the two blocks deliberately.
        let clustering = Clustering::from_assignment(vec![0, 1, 0, 1, 0, 1]);
        let quality = evaluate(&matrix, &clustering);
        assert!(quality.intra_similarity < 0.6);
        assert!(quality.silhouette < 0.1);
    }

    #[test]
    fn degenerate_clusterings_use_conventions() {
        let matrix = block_matrix();
        let singletons = Clustering::singletons(6);
        assert_eq!(intra_cluster_similarity(&matrix, &singletons), 1.0);
        assert_eq!(silhouette(&matrix, &singletons), 0.0);
        let one = Clustering::single_community(6);
        assert_eq!(inter_cluster_similarity(&matrix, &one), 0.0);
        assert_eq!(silhouette(&matrix, &one), 0.0);
    }
}
