//! Banded MinHash (LSH) candidate-pair index over pattern signatures.
//!
//! The full similarity matrix costs one joint-selectivity evaluation per
//! subscription pair — a non-starter at the million-subscription scale the
//! ROADMAP targets. This module provides the sub-quadratic first pass: every
//! registered pattern is summarised as a small MinHash signature of its
//! *structural features* (root-to-node path prefixes and canonical subtree
//! shapes, both computable from the [`TreePattern`] alone in `O(pattern)`
//! with no corpus scan), and the signatures are bucketed band-wise so that
//! only patterns sharing at least one band — the *candidate pairs* — are ever
//! compared with the real selectivity-based estimator.
//!
//! With `b` bands of `r` rows each, a pair of patterns whose feature sets
//! have true Jaccard similarity `s` becomes a candidate with probability
//! `1 − (1 − s^r)^b` ([`LshConfig::recall`]) — close to 1 above the
//! threshold the banding is tuned for and close to 0 well below it. Two
//! patterns with *identical* feature sets have identical signatures and are
//! therefore always candidates.
//!
//! Storage is a compact SoA layout: one flat `u32` arena holds every
//! signature (`bands · rows` values per pattern — 64 bytes each under the
//! default configuration, ~64 MB for 10⁶ subscriptions), and the per-band
//! buckets map a band key to the slots that share it.
//!
//! [`crate::SimilarityEngine::similarity_candidates`] builds on this index
//! to evaluate real similarities only on candidate pairs; `tps-cluster`
//! re-exports the index and adds incremental leader-based clustering on top.

use std::collections::HashMap;

use tps_pattern::{PatternLabel, TreePattern};

/// SplitMix64 finaliser used to derive per-permutation hashes and band keys.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string — a stable, dependency-free tag hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Domain separators keeping the two feature families (and the label kinds)
/// from colliding with each other.
const PATH_DOMAIN: u64 = 0x7061_7468; // "path"
const SUBTREE_DOMAIN: u64 = 0x7375_6274; // "subt"
const EMPTY_SENTINEL: u64 = 0x656d_7074; // "empt"

fn label_hash(label: PatternLabel<'_>) -> u64 {
    match label {
        PatternLabel::Root => mix(1),
        PatternLabel::Wildcard => mix(2),
        PatternLabel::Descendant => mix(3),
        PatternLabel::Tag(tag) => mix(fnv1a(tag.as_bytes())),
    }
}

/// The structural feature set of a pattern: one hashed root-to-node path
/// prefix and one hashed canonical (order-insensitive) subtree shape per
/// non-root node, sorted and deduplicated.
///
/// Both families are computed from the pattern alone — `O(pattern)` work,
/// no document corpus, no synopsis — which is what makes signature
/// construction affordable at registration time for millions of
/// subscriptions. Patterns with equal canonical forms produce equal feature
/// sets, and patterns sharing paths or subtrees share features, so the
/// Jaccard similarity of two feature sets tracks structural overlap (the
/// cheap proxy the LSH index banks on; the *real* selectivity-based
/// similarity is only evaluated on candidate pairs).
pub fn pattern_features(pattern: &TreePattern) -> Vec<u64> {
    let order = pattern.preorder();
    let count = pattern.node_count();
    let mut path = vec![0u64; count];
    let mut subtree = vec![0u64; count];

    // Path prefixes, top-down: preorder visits parents before children.
    for &id in &order {
        let parent_path = match pattern.parent(id) {
            Some(parent) => path[parent.index()],
            None => mix(PATH_DOMAIN),
        };
        path[id.index()] = mix(parent_path.wrapping_add(label_hash(pattern.label(id))));
    }

    // Canonical subtree shapes, bottom-up: reverse preorder visits children
    // before parents; child hashes are sorted so sibling order is ignored
    // (tree patterns are unordered).
    for &id in order.iter().rev() {
        let mut children: Vec<u64> = pattern
            .children(id)
            .iter()
            .map(|child| subtree[child.index()])
            .collect();
        children.sort_unstable();
        let mut acc = mix(label_hash(pattern.label(id)).wrapping_add(SUBTREE_DOMAIN));
        for child in children {
            acc = mix(acc.wrapping_add(child));
        }
        subtree[id.index()] = acc;
    }

    let root = pattern.root();
    let mut features = Vec::with_capacity(2 * count.saturating_sub(1));
    for &id in &order {
        if id == root {
            // Every pattern is rooted at the same `/.` node; including it
            // would gift every pair a shared feature and inflate estimates.
            continue;
        }
        features.push(path[id.index()]);
        features.push(subtree[id.index()]);
    }
    if features.is_empty() {
        // A bare-root pattern still needs a non-empty set so its signature
        // is defined (and equal to other bare-root patterns').
        features.push(mix(EMPTY_SENTINEL));
    }
    features.sort_unstable();
    features.dedup();
    features
}

/// Banding parameters of the candidate-pair index.
///
/// `bands · rows` MinHash permutations are evaluated per pattern; a pair
/// becomes a candidate when all `rows` values of at least one band agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshConfig {
    /// Number of bands (`b`). Zero is treated as 1.
    pub bands: usize,
    /// Rows per band (`r`). Zero is treated as 1.
    pub rows: usize,
    /// Seed the per-permutation hash functions are derived from.
    pub seed: u64,
}

impl Default for LshConfig {
    /// 8 bands × 2 rows: 16 `u32` values (64 bytes) per pattern, with the
    /// recall/precision sweet spot near Jaccard 0.3
    /// (see [`LshConfig::recall`] and `docs/SCALING.md`).
    fn default() -> Self {
        Self {
            bands: 8,
            rows: 2,
            seed: 0x0074_7073_5f6c_7368,
        }
    }
}

impl LshConfig {
    /// Effective number of bands (at least 1).
    pub fn bands(&self) -> usize {
        self.bands.max(1)
    }

    /// Effective rows per band (at least 1).
    pub fn rows(&self) -> usize {
        self.rows.max(1)
    }

    /// Signature width: `bands · rows` MinHash values per pattern.
    pub fn width(&self) -> usize {
        self.bands() * self.rows()
    }

    /// Probability that a pair with true feature-set Jaccard `s` becomes a
    /// candidate: `1 − (1 − s^r)^b`. This is the recall bound the property
    /// tests hold the index to.
    pub fn recall(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, 1.0);
        1.0 - (1.0 - s.powi(self.rows() as i32)).powi(self.bands() as i32)
    }
}

/// An LSH candidate-pair index over pattern signatures.
///
/// Patterns are inserted (assigned a dense `u32` slot) and may later be
/// removed; [`CandidateIndex::candidates`] returns the live slots sharing at
/// least one band with a given slot, and [`CandidateIndex::candidate_pairs`]
/// enumerates every unordered candidate pair. Signature construction is
/// `O(pattern · width)`; a candidate lookup touches only the slot's `b`
/// buckets.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    config: LshConfig,
    /// Per-permutation seeds, hoisted out of every signature computation.
    seeds: Vec<u64>,
    /// Flat SoA signature arena: `width` values per slot.
    signatures: Vec<u32>,
    live: Vec<bool>,
    live_count: usize,
    /// Per-band buckets: band key → slots currently sharing it.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
}

impl Default for CandidateIndex {
    fn default() -> Self {
        Self::new(LshConfig::default())
    }
}

impl CandidateIndex {
    /// Create an empty index with the given banding configuration.
    pub fn new(config: LshConfig) -> Self {
        let width = config.width();
        let seeds = (0..width)
            .map(|k| mix(config.seed.wrapping_add(k as u64)))
            .collect();
        Self {
            config,
            seeds,
            signatures: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            buckets: vec![HashMap::new(); config.bands()],
        }
    }

    /// The banding configuration.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// Total slots ever inserted (slots are never reused).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no slot was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of live (not removed) slots.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether `slot` exists and has not been removed.
    pub fn contains(&self, slot: u32) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// Approximate resident size of the index in bytes (signature arena
    /// plus bucket tables) — the bound the 1M-subscription bench reports.
    pub fn memory_bytes(&self) -> usize {
        let signatures = self.signatures.len() * std::mem::size_of::<u32>();
        let buckets: usize = self
            .buckets
            .iter()
            .map(|band| {
                band.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>())
                    + band.values().map(|slots| slots.len() * 4).sum::<usize>()
            })
            .sum();
        signatures + buckets + self.live.len()
    }

    /// Insert a pattern; returns its slot. Equivalent to
    /// [`CandidateIndex::insert_features`] over
    /// [`pattern_features`]`(pattern)`.
    pub fn insert(&mut self, pattern: &TreePattern) -> u32 {
        self.insert_features(&pattern_features(pattern))
    }

    /// Insert a pre-computed feature set; returns its slot.
    pub fn insert_features(&mut self, features: &[u64]) -> u32 {
        let slot = self.live.len() as u32;
        let width = self.config.width();
        let base = self.signatures.len();
        self.signatures.resize(base + width, 0);
        for (k, value) in self.signatures[base..].iter_mut().enumerate() {
            let seed = self.seeds[k];
            let mut minimum = u64::MAX;
            for &feature in features {
                let hashed = mix(feature ^ seed);
                if hashed < minimum {
                    minimum = hashed;
                }
            }
            *value = (minimum >> 32) as u32;
        }
        self.live.push(true);
        self.live_count += 1;
        for band in 0..self.config.bands() {
            let key = self.band_key(slot, band);
            self.buckets[band].entry(key).or_default().push(slot);
        }
        slot
    }

    /// Remove a slot from every bucket; returns false when the slot was
    /// unknown or already removed. Slots are never reused.
    pub fn remove(&mut self, slot: u32) -> bool {
        if !self.contains(slot) {
            return false;
        }
        self.live[slot as usize] = false;
        self.live_count -= 1;
        for band in 0..self.config.bands() {
            let key = self.band_key(slot, band);
            if let Some(slots) = self.buckets[band].get_mut(&key) {
                slots.retain(|&s| s != slot);
                if slots.is_empty() {
                    self.buckets[band].remove(&key);
                }
            }
        }
        true
    }

    /// The signature of `slot` (`width` MinHash values).
    pub fn signature(&self, slot: u32) -> &[u32] {
        let width = self.config.width();
        let base = slot as usize * width;
        &self.signatures[base..base + width]
    }

    /// The bucket key of `slot` in `band`: a hash of the band's row values
    /// (salted with the band number, so equal rows in different bands do not
    /// alias).
    pub fn band_key(&self, slot: u32, band: usize) -> u64 {
        let rows = self.config.rows();
        let signature = self.signature(slot);
        let mut acc = mix(self.config.seed ^ (band as u64).wrapping_mul(0x100_0000_01b3));
        for &value in &signature[band * rows..(band + 1) * rows] {
            acc = mix(acc.wrapping_add(value as u64 + 1));
        }
        acc
    }

    /// Live slots sharing at least one band with `slot`, sorted, excluding
    /// `slot` itself. Cost: the sizes of `slot`'s `b` buckets.
    pub fn candidates(&self, slot: u32) -> Vec<u32> {
        if !self.contains(slot) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for band in 0..self.config.bands() {
            let key = self.band_key(slot, band);
            if let Some(slots) = self.buckets[band].get(&key) {
                out.extend(slots.iter().copied().filter(|&s| s != slot));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every unordered candidate pair `(a, b)` with `a < b` among live
    /// slots, sorted. Cost: the sum of squared bucket sizes — sub-quadratic
    /// whenever the banding spreads the population.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for band in &self.buckets {
            for slots in band.values() {
                for (i, &a) in slots.iter().enumerate() {
                    for &b in &slots[i + 1..] {
                        pairs.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Estimated Jaccard similarity of the two slots' feature sets: the
    /// fraction of agreeing signature positions.
    pub fn estimate(&self, a: u32, b: u32) -> f64 {
        let agreeing = self
            .signature(a)
            .iter()
            .zip(self.signature(b))
            .filter(|(x, y)| x == y)
            .count();
        agreeing as f64 / self.config.width() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> TreePattern {
        TreePattern::parse(text).unwrap()
    }

    fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
        let sa: std::collections::HashSet<u64> = a.iter().copied().collect();
        let sb: std::collections::HashSet<u64> = b.iter().copied().collect();
        if sa.is_empty() && sb.is_empty() {
            return 0.0;
        }
        sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
    }

    #[test]
    fn features_are_canonical_and_order_insensitive() {
        let a = pattern_features(&parse("/a[b][c]"));
        let b = pattern_features(&parse("/a[c][b]"));
        assert_eq!(a, b, "sibling order must not change the feature set");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
    }

    #[test]
    fn distinct_structures_have_distinct_features() {
        let a = pattern_features(&parse("/media/CD/title"));
        let b = pattern_features(&parse("/media/book/author"));
        assert_ne!(a, b);
        // The shared `/media` prefix is a shared feature; the rest differ.
        let jaccard = exact_jaccard(&a, &b);
        assert!(jaccard > 0.0 && jaccard < 0.5, "jaccard {jaccard}");
    }

    #[test]
    fn wildcard_descendant_and_tag_labels_are_distinguished() {
        let features: Vec<Vec<u64>> = ["/a/b", "/a/*", "/a//b", "//a/b"]
            .iter()
            .map(|p| pattern_features(&parse(p)))
            .collect();
        for i in 0..features.len() {
            for j in (i + 1)..features.len() {
                assert_ne!(features[i], features[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn bare_root_patterns_share_a_sentinel_feature() {
        let features = pattern_features(&TreePattern::new());
        assert_eq!(features.len(), 1);
        assert_eq!(features, pattern_features(&TreePattern::new()));
    }

    #[test]
    fn identical_patterns_are_always_candidates() {
        for config in [
            LshConfig::default(),
            LshConfig {
                bands: 4,
                rows: 4,
                seed: 99,
            },
            LshConfig {
                bands: 1,
                rows: 1,
                seed: 7,
            },
        ] {
            let mut index = CandidateIndex::new(config);
            let a = index.insert(&parse("/media/CD[title][price]"));
            let b = index.insert(&parse("/media/CD[price][title]"));
            assert_eq!(index.estimate(a, b), 1.0);
            assert_eq!(index.candidates(a), vec![b]);
            assert_eq!(index.candidate_pairs(), vec![(a, b)]);
        }
    }

    #[test]
    fn unrelated_patterns_are_rarely_candidates() {
        let mut index = CandidateIndex::default();
        let a = index.insert(&parse("/x/y/z"));
        let b = index.insert(&parse("/q/r/s"));
        assert!(index.estimate(a, b) < 0.2);
        assert!(index.candidates(a).is_empty());
    }

    #[test]
    fn estimate_tracks_exact_feature_jaccard() {
        // Wide signatures make the estimate tight (3/sqrt(width) error).
        let config = LshConfig {
            bands: 128,
            rows: 2,
            seed: 11,
        };
        let mut index = CandidateIndex::new(config);
        let pairs = [
            ("/media/CD/title", "/media/CD/title"),
            ("/media/CD[title][price]", "/media/CD[title]"),
            ("/media/CD/title", "/media/book/author"),
            ("//a/b/c", "//a/b"),
        ];
        for (p, q) in pairs {
            let (pp, qq) = (parse(p), parse(q));
            let truth = exact_jaccard(&pattern_features(&pp), &pattern_features(&qq));
            let (a, b) = (index.insert(&pp), index.insert(&qq));
            let estimate = index.estimate(a, b);
            let bound = 3.0 / (config.width() as f64).sqrt();
            assert!(
                (estimate - truth).abs() <= bound,
                "{p} vs {q}: estimate {estimate}, truth {truth}"
            );
        }
    }

    #[test]
    fn removal_evicts_the_slot_from_candidates_and_pairs() {
        let mut index = CandidateIndex::default();
        let a = index.insert(&parse("/media/CD/title"));
        let b = index.insert(&parse("/media/CD/title"));
        let c = index.insert(&parse("/media/CD/title"));
        assert_eq!(index.candidates(a), vec![b, c]);
        assert!(index.remove(b));
        assert!(!index.remove(b), "double removal is a no-op");
        assert!(!index.contains(b));
        assert_eq!(index.live_count(), 2);
        assert_eq!(index.candidates(a), vec![c]);
        assert_eq!(index.candidate_pairs(), vec![(a, c)]);
        assert_eq!(index.candidates(b), Vec::<u32>::new());
    }

    #[test]
    fn slots_are_dense_and_never_reused() {
        let mut index = CandidateIndex::default();
        assert_eq!(index.insert(&parse("/a")), 0);
        assert_eq!(index.insert(&parse("/b")), 1);
        index.remove(0);
        assert_eq!(index.insert(&parse("/c")), 2);
        assert_eq!(index.len(), 3);
        assert_eq!(index.live_count(), 2);
    }

    #[test]
    fn config_recall_matches_the_banding_formula() {
        let config = LshConfig::default();
        assert_eq!(config.width(), 16);
        assert!((config.recall(1.0) - 1.0).abs() < 1e-12);
        assert!(config.recall(0.0) < 1e-12);
        let manual = 1.0 - (1.0 - 0.8f64.powi(2)).powi(8);
        assert!((config.recall(0.8) - manual).abs() < 1e-12);
        // Zero bands/rows are clamped, not rejected.
        let degenerate = LshConfig {
            bands: 0,
            rows: 0,
            seed: 0,
        };
        assert_eq!(degenerate.width(), 1);
    }

    #[test]
    fn memory_stays_bounded_by_width_per_pattern() {
        let mut index = CandidateIndex::default();
        for i in 0..500 {
            index.insert(&parse(&format!("/a/b{}", i % 25)));
        }
        let bytes = index.memory_bytes();
        // Signature arena alone is width * 4 bytes per slot; buckets add a
        // bounded overhead per live slot.
        assert!(bytes >= 500 * 16 * 4);
        assert!(
            bytes < 500 * 16 * 4 * 10,
            "bucket overhead blew up: {bytes}"
        );
    }
}
