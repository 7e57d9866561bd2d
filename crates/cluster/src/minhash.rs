//! MinHash signatures for scalable pairwise similarity.
//!
//! Building the full similarity matrix costs one (joint-)selectivity
//! evaluation per subscription pair. A cheaper first pass summarises each
//! subscription as a fixed-width MinHash signature and estimates the Jaccard
//! coefficient `|A ∩ B| / |A ∪ B|` from the signatures alone, in
//! `O(num_hashes)` per pair.
//!
//! [`MinHashSignature`] itself is agnostic about what the ids describe: any
//! `u64` set works. The workspace signs **structural pattern features**
//! ([`tps_core::pattern_features`]): signature construction is
//! `O(pattern)` with no corpus access, which is what lets the banded LSH
//! candidate index ([`crate::index`]) scale to millions of subscriptions.

/// Mixing function used to derive the per-permutation hash values
/// (SplitMix64 finaliser).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Error returned by [`MinHashSignature::jaccard_estimate`] when the two
/// signatures were built with different numbers of hash functions.
///
/// Slot-wise agreement is only meaningful when slot `k` of both signatures
/// was produced by the same permutation, so mismatched widths cannot be
/// compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureWidthMismatch {
    /// Width of the left-hand signature.
    pub left: usize,
    /// Width of the right-hand signature.
    pub right: usize,
}

impl std::fmt::Display for SignatureWidthMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "signature width mismatch: {} vs {} hash functions",
            self.left, self.right
        )
    }
}

impl std::error::Error for SignatureWidthMismatch {}

/// A MinHash signature of a set of `u64` identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature {
    values: Vec<u64>,
    is_empty: bool,
}

impl MinHashSignature {
    /// Build a signature with `num_hashes` hash functions (derived from
    /// `seed`) over the given identifiers.
    pub fn from_ids<I>(ids: I, num_hashes: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let num_hashes = num_hashes.max(1);
        // Derive each permutation's seed once, outside the per-id loop: the
        // inner loop below runs |ids| × num_hashes times and must stay a
        // single mix() per slot.
        let seeds: Vec<u64> = (0..num_hashes)
            .map(|k| mix(seed.wrapping_add(k as u64)))
            .collect();
        let mut values = vec![u64::MAX; num_hashes];
        let mut is_empty = true;
        for id in ids {
            is_empty = false;
            for (slot, permutation_seed) in values.iter_mut().zip(&seeds) {
                let hashed = mix(id ^ permutation_seed);
                if hashed < *slot {
                    *slot = hashed;
                }
            }
        }
        Self { values, is_empty }
    }

    /// Number of hash functions in the signature.
    pub fn num_hashes(&self) -> usize {
        self.values.len()
    }

    /// Whether the underlying set was empty.
    pub fn is_empty(&self) -> bool {
        self.is_empty
    }

    /// Estimate the Jaccard coefficient of the two underlying sets as the
    /// fraction of agreeing signature slots. Two empty sets have Jaccard 0
    /// by convention (matching `M3` when neither pattern matches anything).
    ///
    /// Returns [`SignatureWidthMismatch`] when the signatures were built
    /// with different numbers of hash functions.
    pub fn jaccard_estimate(&self, other: &Self) -> Result<f64, SignatureWidthMismatch> {
        if self.num_hashes() != other.num_hashes() {
            return Err(SignatureWidthMismatch {
                left: self.num_hashes(),
                right: other.num_hashes(),
            });
        }
        if self.is_empty || other.is_empty {
            return Ok(0.0);
        }
        let agreeing = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count();
        Ok(agreeing as f64 / self.num_hashes() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{pattern_features, ExactEvaluator, ProximityMetric};
    use tps_pattern::TreePattern;
    use tps_xml::XmlTree;

    #[test]
    fn identical_sets_have_estimate_one() {
        let a = MinHashSignature::from_ids(0..50u64, 64, 7);
        let b = MinHashSignature::from_ids(0..50u64, 64, 7);
        assert_eq!(a.jaccard_estimate(&b).unwrap(), 1.0);
    }

    #[test]
    fn disjoint_sets_have_estimate_near_zero() {
        let a = MinHashSignature::from_ids(0..50u64, 128, 7);
        let b = MinHashSignature::from_ids(1_000..1_050u64, 128, 7);
        assert!(a.jaccard_estimate(&b).unwrap() < 0.1);
    }

    #[test]
    fn estimate_tracks_true_jaccard_for_half_overlap() {
        // |A ∩ B| / |A ∪ B| = 100 / 300.
        let a = MinHashSignature::from_ids(0..200u64, 256, 11);
        let b = MinHashSignature::from_ids(100..300u64, 256, 11);
        let estimate = a.jaccard_estimate(&b).unwrap();
        assert!(
            (estimate - 1.0 / 3.0).abs() < 0.12,
            "estimate {estimate} too far from 1/3"
        );
    }

    #[test]
    fn empty_sets_yield_zero() {
        let empty = MinHashSignature::from_ids(std::iter::empty(), 32, 3);
        let full = MinHashSignature::from_ids(0..10u64, 32, 3);
        assert!(empty.is_empty());
        assert_eq!(empty.jaccard_estimate(&full).unwrap(), 0.0);
        assert_eq!(empty.jaccard_estimate(&empty).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_signature_sizes_are_a_typed_error() {
        let a = MinHashSignature::from_ids(0..10u64, 16, 3);
        let b = MinHashSignature::from_ids(0..10u64, 32, 3);
        let err = a.jaccard_estimate(&b).unwrap_err();
        assert_eq!(
            err,
            SignatureWidthMismatch {
                left: 16,
                right: 32
            }
        );
        assert!(err.to_string().contains("16 vs 32"));
        // The error is symmetric in structure, not in field order.
        assert_eq!(
            b.jaccard_estimate(&a).unwrap_err(),
            SignatureWidthMismatch {
                left: 32,
                right: 16
            }
        );
    }

    /// The seed hoist must not change any signature: re-derive a signature
    /// with the original per-id, per-slot re-hashing and compare bit for bit.
    #[test]
    fn hoisted_seeds_match_the_naive_construction() {
        let ids: Vec<u64> = (0..97u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let (num_hashes, seed) = (64, 0xDEAD_BEEF);
        let fast = MinHashSignature::from_ids(ids.iter().copied(), num_hashes, seed);
        let mut naive = vec![u64::MAX; num_hashes];
        for &id in &ids {
            for (k, slot) in naive.iter_mut().enumerate() {
                let hashed = mix(id ^ mix(seed.wrapping_add(k as u64)));
                if hashed < *slot {
                    *slot = hashed;
                }
            }
        }
        let reference = MinHashSignature {
            values: naive,
            is_empty: false,
        };
        assert_eq!(fast, reference);
    }

    /// The structural-feature estimate agrees with the matched-document
    /// Jaccard (the exact `M3`) where the two set notions agree by
    /// construction: identical patterns, and patterns that are disjoint
    /// both structurally and behaviourally.
    #[test]
    fn document_and_feature_estimates_agree_on_seeded_workloads() {
        let docs: Vec<XmlTree> = (0..60)
            .map(|i| {
                let body = match i % 3 {
                    0 => "<media><CD><title>t</title></CD></media>",
                    1 => "<media><book><author>a</author></book></media>",
                    _ => "<media><dvd><region>r</region></dvd></media>",
                };
                XmlTree::parse(body).unwrap()
            })
            .collect();
        let exact = ExactEvaluator::new(docs);
        let (num_hashes, seed) = (256, 4242u64);
        let tolerance = 3.0 / (num_hashes as f64).sqrt();

        let parse = |s: &str| TreePattern::parse(s).unwrap();
        let feature_sig =
            |p: &TreePattern| MinHashSignature::from_ids(pattern_features(p), num_hashes, seed);

        // Identical patterns: both notions give Jaccard exactly 1.
        let (a, b) = (parse("//CD/title"), parse("//CD/title"));
        assert_eq!(exact.similarity(&a, &b, ProximityMetric::M3), 1.0);
        assert_eq!(
            feature_sig(&a).jaccard_estimate(&feature_sig(&b)).unwrap(),
            1.0
        );

        // Structurally and behaviourally disjoint patterns: both notions
        // give Jaccard 0, so the estimate must be within MinHash error.
        let (a, b) = (parse("//CD/title"), parse("//book/author"));
        let documents = exact.similarity(&a, &b, ProximityMetric::M3);
        let features = feature_sig(&a).jaccard_estimate(&feature_sig(&b)).unwrap();
        assert_eq!(documents, 0.0);
        assert!(
            (documents - features).abs() <= tolerance,
            "disjoint pair: document Jaccard {documents} vs feature estimate {features}"
        );
    }
}
