//! The analysis pass every workload ends with: the paper's own path from
//! a traffic synopsis and a subscription set to their similarity matrix.

use std::time::{Duration, Instant};

use tps_core::{PatternId, ProximityMetric, SimMatrix, SimilarityEngine};
use tps_pattern::TreePattern;
use tps_synopsis::{DocId, IngestTarget, Synopsis, SynopsisConfig};

use crate::oracle::Tally;

/// Patterns one unit analyses at most: the 300 of `analytic_batch`.
pub const MAX_PATTERNS: usize = 300;
/// Documents the analysed synopsis has seen at most. `SEL` walks the
/// synopsis, so its size sets what a unit costs: ~1 s for 300 nitf
/// patterns at this size, which lets a run analyse several pattern sets.
pub const SYNOPSIS_DOCUMENTS: usize = 1_024;
/// Matrix entries the reference check samples.
const CHECKED_ENTRIES: usize = 100;

/// The synopsis a broker that saw the first [`SYNOPSIS_DOCUMENTS`] of
/// `documents` once would hold (`OverlayConfig::default()`'s
/// representation).
pub fn synopsis_of(documents: &[Vec<u8>]) -> Synopsis {
    let mut synopsis = Synopsis::new(SynopsisConfig::hashes(256));
    for (i, document) in documents.iter().take(SYNOPSIS_DOCUMENTS).enumerate() {
        synopsis
            .ingest_bytes_as(document, DocId(i as u64))
            // invariant: the documents were serialized from generated trees.
            .expect("generated documents scan");
    }
    synopsis
}

/// One cold pass: register → selectivities → similarity matrix.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Before `register_all`.
    pub from: Instant,
    /// After `similarity_matrix`.
    pub to: Instant,
    /// Unordered pairs the matrix covers.
    pub pairs: usize,
}

/// The first unit's results, for the reference check.
struct First {
    ids: Vec<PatternId>,
    selectivities: Vec<f64>,
    matrix: SimMatrix,
}

/// The analysis of one run: cold units over successive pattern sets.
pub struct Analysis<'a> {
    pool: Vec<&'a TreePattern>,
    /// Patterns per unit.
    size: usize,
    synopsis: Synopsis,
    /// The timed units so far.
    pub units: Vec<Unit>,
    first: Option<First>,
}

impl<'a> Analysis<'a> {
    /// Analyse sets of min(standing, [`MAX_PATTERNS`]) patterns drawn from
    /// `subscriptions` followed by `arrivals`, against the synopsis of
    /// `documents`.
    pub fn new(
        subscriptions: &'a [TreePattern],
        arrivals: &'a [TreePattern],
        documents: &[Vec<u8>],
    ) -> Self {
        Self {
            pool: subscriptions.iter().chain(arrivals).collect(),
            size: subscriptions.len().min(MAX_PATTERNS),
            synopsis: synopsis_of(documents),
            units: Vec::new(),
            first: None,
        }
    }

    /// Run cold units until `budget` is spent, at least one. The first unit
    /// ever analyses the standing subscriptions; each further unit the next
    /// set of the pool, wrapping around. What a pair costs varies 100-fold
    /// with the two patterns, so a single set says more about the seed than
    /// about the program; a run's rate is taken over all its sets. Every
    /// unit starts from an engine that has evaluated nothing, so nothing is
    /// cached between units.
    pub fn run(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            let start = self.units.len() * self.size;
            let patterns = (0..self.size).map(|i| self.pool[(start + i) % self.pool.len()]);
            let mut engine = SimilarityEngine::from_synopsis(self.synopsis.clone());
            let from = Instant::now();
            let ids = engine.register_all(patterns);
            let selectivities = engine.selectivities(&ids);
            let matrix = engine.similarity_matrix(&ids, ProximityMetric::M3);
            let to = Instant::now();
            self.units.push(Unit {
                from,
                to,
                pairs: ids.len() * ids.len().saturating_sub(1) / 2,
            });
            self.first.get_or_insert(First {
                ids,
                selectivities,
                matrix,
            });
            if to >= deadline {
                return;
            }
        }
    }

    /// Print what was analysed, hold the first unit's matrix against the
    /// reference, and hand the timed units over.
    pub fn finish(self, tally: &mut Tally) -> Vec<Unit> {
        eprintln!(
            "analysis: {} pattern sets, {} synopsis nodes, selectivity checksum {:016x}",
            self.units.len(),
            self.synopsis.node_count(),
            self.checksum()
        );
        let (checked, wrong) = self.check_matrix();
        tally.add(checked, wrong, "matrix entries bit-equal to similarity()");
        tally.add(
            self.units.iter().map(|u| u.pairs as u64).sum(),
            0,
            "pairs analysed",
        );
        self.units
    }

    /// FNV-1a over the bit patterns of the first unit's selectivities:
    /// printed so that two runs of one seed can be compared by eye.
    pub fn checksum(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for value in self.first.iter().flat_map(|f| &f.selectivities) {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Compare [`CHECKED_ENTRIES`] entries of the first unit's matrix,
    /// spread evenly over the upper triangle, with `similarity()` on an
    /// engine that never built a matrix. Returns (entries checked, entries
    /// that differ in any bit).
    pub fn check_matrix(&self) -> (u64, u64) {
        let Some(first) = &self.first else {
            return (0, 0);
        };
        let n = first.ids.len();
        let pairs = n * n.saturating_sub(1) / 2;
        if pairs == 0 {
            return (0, 0);
        }
        let mut reference = SimilarityEngine::from_synopsis(self.synopsis.clone());
        let ids = reference.register_all(self.pool[..n].iter().copied());
        let checked = pairs.min(CHECKED_ENTRIES);
        let mut wrong = 0;
        for k in 0..checked {
            // The k-th sampled pair, by its rank in row-major upper-triangle
            // order.
            let mut rank = k * pairs / checked;
            let mut i = 0;
            while rank >= n - 1 - i {
                rank -= n - 1 - i;
                i += 1;
            }
            let j = i + 1 + rank;
            let expected = reference.similarity(ids[i], ids[j], ProximityMetric::M3);
            if first.matrix.get(i, j).to_bits() != expected.to_bits() {
                wrong += 1;
            }
        }
        (checked as u64, wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{workload, Inputs};

    #[test]
    fn matrix_entries_equal_per_pair_similarity() {
        let inputs = Inputs::generate(workload("relay_small").unwrap(), 3);
        let mut analysis = Analysis::new(
            &inputs.subscriptions,
            &inputs.arrivals,
            &inputs.documents[..200],
        );
        assert_eq!(analysis.check_matrix(), (0, 0));
        analysis.run(Duration::ZERO);
        analysis.run(Duration::ZERO);
        assert_eq!(analysis.units.len(), 2);
        assert_eq!(analysis.units[0].pairs, 66);
        assert_eq!(analysis.check_matrix(), (66, 0));
        let again = {
            let mut again = Analysis::new(
                &inputs.subscriptions,
                &inputs.arrivals,
                &inputs.documents[..200],
            );
            again.run(Duration::ZERO);
            again.checksum()
        };
        assert_eq!(analysis.checksum(), again);
    }
}
