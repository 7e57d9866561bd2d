//! The result type shared by all clustering algorithms: an assignment of
//! subscriptions to semantic communities.

use std::collections::HashMap;

/// A partition of `n` subscriptions into `k` communities.
///
/// Cluster identifiers are dense (`0..k`); every subscription belongs to
/// exactly one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<usize>,
    cluster_count: usize,
}

impl Clustering {
    /// Build a clustering from a raw per-item assignment. Cluster ids are
    /// renumbered densely in order of first appearance.
    pub fn from_assignment(raw: Vec<usize>) -> Self {
        let mut remap: HashMap<usize, usize> = HashMap::new();
        let assignment = raw
            .into_iter()
            .map(|value| {
                let next = remap.len();
                *remap.entry(value).or_insert(next)
            })
            .collect();
        Self {
            assignment,
            cluster_count: remap.len(),
        }
    }

    /// The discrete clustering in which every subscription is its own
    /// community.
    pub fn singletons(len: usize) -> Self {
        Self {
            assignment: (0..len).collect(),
            cluster_count: len,
        }
    }

    /// The clustering in which all subscriptions share one community.
    pub fn single_community(len: usize) -> Self {
        Self {
            assignment: vec![0; len],
            cluster_count: usize::from(len > 0),
        }
    }

    /// Number of subscriptions covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the clustering covers no subscriptions.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of communities.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// The community of subscription `i`.
    pub fn cluster_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The per-subscription community assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The members of community `cluster`.
    pub fn members(&self, cluster: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(i, _)| i)
            .collect()
    }

    /// All communities as member lists, indexed by community id.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut clusters = vec![Vec::new(); self.cluster_count];
        for (i, &c) in self.assignment.iter().enumerate() {
            clusters[c].push(i);
        }
        clusters
    }

    /// The community sizes, indexed by community id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for &c in &self.assignment {
            sizes[c] += 1;
        }
        sizes
    }

    /// Number of single-member communities.
    pub fn singleton_count(&self) -> usize {
        self.sizes().into_iter().filter(|&s| s == 1).count()
    }

    /// Size of the largest community (0 for an empty clustering).
    pub fn largest_cluster(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }

    /// Whether two subscriptions share a community.
    pub fn same_cluster(&self, i: usize, j: usize) -> bool {
        self.assignment[i] == self.assignment[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_renumbers_densely() {
        let clustering = Clustering::from_assignment(vec![7, 7, 3, 9, 3, usize::MAX]);
        assert_eq!(clustering.assignment(), &[0, 0, 1, 2, 1, 3]);
        assert_eq!(clustering.cluster_count(), 4);
        assert_eq!(clustering.members(1), vec![2, 4]);
    }

    #[test]
    fn singletons_and_single_community() {
        let singles = Clustering::singletons(4);
        assert_eq!(singles.cluster_count(), 4);
        assert_eq!(singles.singleton_count(), 4);
        let one = Clustering::single_community(4);
        assert_eq!(one.cluster_count(), 1);
        assert_eq!(one.largest_cluster(), 4);
        assert!(one.same_cluster(0, 3));
        assert!(!singles.same_cluster(0, 3));
    }

    #[test]
    fn empty_clustering_is_well_behaved() {
        let empty = Clustering::from_assignment(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.cluster_count(), 0);
        assert_eq!(empty.largest_cluster(), 0);
        assert_eq!(Clustering::single_community(0).cluster_count(), 0);
    }

    #[test]
    fn clusters_and_sizes_are_consistent() {
        let clustering = Clustering::from_assignment(vec![0, 1, 0, 2, 1, 0]);
        let clusters = clustering.clusters();
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], vec![0, 2, 5]);
        assert_eq!(clustering.sizes(), vec![3, 2, 1]);
        assert_eq!(clustering.singleton_count(), 1);
        assert_eq!(clustering.largest_cluster(), 3);
    }
}
