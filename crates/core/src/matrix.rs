//! The dense pairwise similarity matrix.
//!
//! Clustering consumers into semantic communities starts from the pairwise
//! similarities `(p ~ q)` of their subscriptions under one of the paper's
//! proximity metrics. [`SimMatrix`] holds them for a whole workload, so the
//! comparatively expensive estimator is consulted once per pair. The
//! estimated matrix comes from [`SimilarityEngine::similarity_matrix`]
//! (or its parallel sibling), the ground truth from
//! [`ExactEvaluator::similarity_matrix`]; both assemble their entries from
//! selectivities through the same pass. The clustering algorithms and
//! quality metrics of `tps-cluster` read it.
//!
//! [`SimilarityEngine::similarity_matrix`]: crate::SimilarityEngine::similarity_matrix
//! [`ExactEvaluator::similarity_matrix`]: crate::ExactEvaluator::similarity_matrix

use crate::metrics::ProximityMetric;

/// A dense `n × n` matrix of pairwise similarities in `[0, 1]`.
///
/// Entry `(i, j)` is the similarity of pattern `i` to pattern `j` under the
/// matrix's metric; the diagonal is `1.0`. Asymmetric metrics (`M1`) give
/// an asymmetric matrix; [`SimMatrix::symmetric`] averages both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    len: usize,
    metric: ProximityMetric,
    values: Vec<f64>,
}

impl SimMatrix {
    /// The one assembly pass from selectivities: unit diagonal, and for
    /// each `i < j` the metric over `selectivities(i, j) = [P(p_i), P(p_j),
    /// P(p_i ∧ p_j)]`, mirrored to `(j, i)` for symmetric metrics and
    /// recomputed with the marginals swapped otherwise. `None` marks a pair
    /// of one and the same pattern, whose entries are `1.0`.
    pub(crate) fn from_selectivities<F>(
        len: usize,
        metric: ProximityMetric,
        mut selectivities: F,
    ) -> Self
    where
        F: FnMut(usize, usize) -> Option<[f64; 3]>,
    {
        let mut values = vec![1.0; len * len];
        for i in 0..len {
            for j in (i + 1)..len {
                let Some([p_i, p_j, p_and]) = selectivities(i, j) else {
                    continue;
                };
                let forward = metric.compute(p_i, p_j, p_and);
                values[i * len + j] = forward;
                values[j * len + i] = if metric.is_symmetric() {
                    forward
                } else {
                    metric.compute(p_j, p_i, p_and)
                };
            }
        }
        Self {
            len,
            metric,
            values,
        }
    }

    /// Build a symmetric matrix from a function consulted only for `i < j`;
    /// each value is mirrored to `(j, i)`. Values are clamped to `[0, 1]`
    /// (NaN becomes `0.0`) and the diagonal is `1.0`.
    pub fn from_symmetric_fn<F>(len: usize, metric: ProximityMetric, mut similarity: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        let mut values = vec![1.0; len * len];
        for i in 0..len {
            for j in (i + 1)..len {
                let value = similarity(i, j);
                let value = if value.is_nan() {
                    0.0
                } else {
                    value.clamp(0.0, 1.0)
                };
                values[i * len + j] = value;
                values[j * len + i] = value;
            }
        }
        Self {
            len,
            metric,
            values,
        }
    }

    /// Number of patterns the matrix covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The proximity metric the matrix was built with.
    pub fn metric(&self) -> ProximityMetric {
        self.metric
    }

    /// The similarity of pair `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.len && j < self.len, "index out of bounds");
        self.values[i * self.len + j]
    }

    /// The symmetrised similarity `(s(i, j) + s(j, i)) / 2`.
    pub fn symmetric(&self, i: usize, j: usize) -> f64 {
        (self.get(i, j) + self.get(j, i)) / 2.0
    }

    /// One row of the matrix.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "index out of bounds");
        &self.values[i * self.len..(i + 1) * self.len]
    }

    /// The backing row-major value slice (`len × len` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactEvaluator, SimilarityEngine};
    use tps_pattern::TreePattern;
    use tps_synopsis::{ingest, Ingest, SynopsisConfig};
    use tps_xml::XmlTree;

    fn patterns() -> Vec<TreePattern> {
        ["//CD", "//CD/title", "//book", "/media/book/author"]
            .iter()
            .map(|s| TreePattern::parse(s).unwrap())
            .collect()
    }

    fn documents() -> Vec<XmlTree> {
        [
            "<media><CD><title>A</title></CD></media>",
            "<media><CD><title>B</title></CD><book><author>X</author></book></media>",
            "<media><book><author>Y</author><title>C</title></book></media>",
            "<media><CD><composer>M</composer></CD></media>",
        ]
        .iter()
        .map(|s| XmlTree::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn from_symmetric_fn_sets_unit_diagonal_and_clamps() {
        let values = [-3.0, 10.0, f64::NAN];
        let mut next = values.iter();
        let matrix =
            SimMatrix::from_symmetric_fn(3, ProximityMetric::M3, |_, _| *next.next().unwrap());
        for i in 0..3 {
            assert_eq!(matrix.get(i, i), 1.0);
        }
        assert_eq!(matrix.get(0, 1), 0.0);
        assert_eq!(matrix.get(2, 0), 1.0);
        assert_eq!(matrix.get(1, 2), 0.0);
    }

    #[test]
    fn symmetric_constructor_mirrors_values() {
        let matrix = SimMatrix::from_symmetric_fn(4, ProximityMetric::M2, |i, j| {
            1.0 / (1.0 + (i + j) as f64)
        });
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(matrix.get(i, j), matrix.get(j, i));
            }
        }
        assert_eq!(matrix.get(1, 3), 0.2);
    }

    #[test]
    fn exact_and_estimated_matrices_agree_on_a_small_stream() {
        let docs = documents();
        let patterns = patterns();
        let exact = ExactEvaluator::new(docs.clone());
        let mut engine = SimilarityEngine::new(SynopsisConfig::sets(100));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let ids = engine.register_all(&patterns);
        let exact_matrix = exact.similarity_matrix(&patterns, ProximityMetric::M3);
        let estimated = engine.similarity_matrix(&ids, ProximityMetric::M3);
        assert_eq!(exact_matrix.len(), estimated.len());
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                assert!(
                    (exact_matrix.get(i, j) - estimated.get(i, j)).abs() < 0.35,
                    "pair ({i},{j}) disagrees: exact {} vs estimated {}",
                    exact_matrix.get(i, j),
                    estimated.get(i, j)
                );
            }
        }
    }

    #[test]
    fn from_engine_par_matches_the_sequential_path() {
        let docs = documents();
        let mut engine = SimilarityEngine::new(SynopsisConfig::hashes(128));
        engine.ingest(ingest::trees(&docs)).unwrap();
        let ids = engine.register_all(&patterns());
        for metric in [ProximityMetric::M1, ProximityMetric::M3] {
            let sequential = engine.similarity_matrix(&ids, metric);
            for threads in [1usize, 2, 4] {
                let parallel = engine.similarity_matrix_par(&ids, metric, threads);
                assert_eq!(parallel, sequential, "{threads} threads, {metric}");
            }
        }
    }

    #[test]
    fn asymmetric_metric_produces_asymmetric_matrix() {
        let exact = ExactEvaluator::new(documents());
        let patterns = patterns();
        let matrix = exact.similarity_matrix(&patterns, ProximityMetric::M1);
        // P(//CD | //CD/title) = 1 but P(//CD/title | //CD) < 1 on this stream.
        assert_eq!(matrix.get(0, 1), 1.0);
        assert!(matrix.get(0, 1) > matrix.get(1, 0));
        assert_eq!(matrix.symmetric(0, 1), matrix.symmetric(1, 0));
        // Every entry is the pairwise exact similarity in its direction.
        for i in 0..patterns.len() {
            for j in 0..patterns.len() {
                let pairwise = if i == j {
                    1.0
                } else {
                    exact.similarity(&patterns[i], &patterns[j], ProximityMetric::M1)
                };
                assert_eq!(matrix.get(i, j).to_bits(), pairwise.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn rows_and_ranges_are_consistent() {
        let matrix = SimMatrix::from_symmetric_fn(3, ProximityMetric::M3, |_, _| 0.25);
        assert_eq!(matrix.row(1), &[0.25, 1.0, 0.25]);
        // Row `i` is the `i`-th `len`-wide range of the row-major values.
        for i in 0..3 {
            assert_eq!(matrix.row(i), &matrix.values()[i * 3..(i + 1) * 3]);
        }
    }

    #[test]
    fn empty_and_singleton_matrices_behave() {
        let empty = SimMatrix::from_symmetric_fn(0, ProximityMetric::M2, |_, _| 0.0);
        assert!(empty.is_empty());
        assert!(empty.values().is_empty());
        let single = SimMatrix::from_symmetric_fn(1, ProximityMetric::M2, |_, _| 0.0);
        assert_eq!(single.len(), 1);
        assert_eq!(single.get(0, 0), 1.0);
        assert!(ExactEvaluator::empty()
            .similarity_matrix(&[], ProximityMetric::M1)
            .is_empty());
    }
}
