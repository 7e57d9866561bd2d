//! The scaling experiment for the banded-MinHash candidate index: what
//! registering and clustering a large subscription workload costs when no
//! pair outside the candidate set is ever scored.
//!
//! The paper's figures stop at thousands of subscriptions because every
//! batch clustering pass evaluates all `n(n-1)/2` pairs. The candidate
//! index replaces that scan with per-arrival band probes, so the sweep here
//! pushes the subscription count up to one million (at `TPS_SCALE=paper`)
//! and reports the communities and the index footprint at each size on
//! stdout, and the wall time and per-subscription cost on stderr, so that
//! two runs at one scale print the same table. Near-linear scaling shows
//! as a roughly flat `us/sub` on stderr; the `cargo bench` suite
//! (`benches/index.rs` in `tps-bench`) pins the same property as a CI ratio
//! gate.
//!
//! Signatures derive from the patterns alone ([`pattern_features`]), so the
//! sweep needs no document corpus at all — exactly the property that makes
//! registration `O(pattern)`.

use std::time::Instant;

use tps_cluster::{pattern_features, LeaderConfig, LshConfig, OnlineLeader};
use tps_workload::{Dtd, XPathGenConfig, XPathGenerator};

use crate::harness::Table;
use crate::scale::ExperimentScale;

/// Similarity threshold used for the leader assignment at every size.
pub const THRESHOLD: f64 = 0.5;

/// Subscription counts swept at the given scale. The `paper` preset ends at
/// the headline one-million-subscription point; `tiny` stays small enough
/// for CI smoke runs.
pub fn subscription_sweep(scale: &ExperimentScale) -> Vec<usize> {
    if scale.name.starts_with("paper") {
        vec![10_000, 100_000, 1_000_000]
    } else if scale.name.starts_with("tiny") {
        vec![500, 1_000, 2_000]
    } else {
        vec![5_000, 20_000, 80_000]
    }
}

/// The scaling figure at the standard sweep for `scale`.
pub fn fig_scaling(scale: &ExperimentScale) -> Table {
    fig_scaling_sweep(scale, &subscription_sweep(scale))
}

/// One row per subscription count: generate that many subscriptions from
/// the media DTD, then time the incremental register+cluster loop through
/// [`OnlineLeader`] (generation and feature extraction are excluded from
/// the timed section — they are the same for any clustering discipline).
/// The timings go to stderr, not into the table.
pub fn fig_scaling_sweep(scale: &ExperimentScale, sizes: &[usize]) -> Table {
    let dtd = Dtd::media();
    let lsh = LshConfig::default();
    let mut table = Table::new(
        &format!(
            "Candidate-index scaling: incremental register+cluster \
             ({} bands x {} rows, threshold {THRESHOLD})",
            lsh.bands(),
            lsh.rows()
        ),
        &["subs", "features", "communities", "index-MiB"],
    );
    for (row, &count) in sizes.iter().enumerate() {
        // A fresh generator per row keeps every row's workload independent
        // of the sweep order (and of the other rows' sizes).
        let mut generator = XPathGenerator::new(
            &dtd,
            XPathGenConfig::default().with_seed(scale.seed.wrapping_add(row as u64)),
        );
        let features: Vec<Vec<u64>> = (0..count)
            .map(|_| pattern_features(&generator.generate()))
            .collect();
        let total_features: usize = features.iter().map(Vec::len).sum();
        let start = Instant::now();
        let mut online = OnlineLeader::new(
            lsh,
            LeaderConfig {
                similarity_threshold: THRESHOLD,
                ..LeaderConfig::default()
            },
        );
        for feature_set in &features {
            online.insert_features_estimated(feature_set);
        }
        let elapsed = start.elapsed().as_secs_f64();
        eprintln!(
            "[fig_scaling] {count} subs: build-ms {:.1}, us/sub {:.2}",
            elapsed * 1e3,
            elapsed * 1e6 / count.max(1) as f64
        );
        table.push_row(vec![
            count.to_string(),
            total_features.to_string(),
            online.cluster_count().to_string(),
            format!(
                "{:.2}",
                online.index().memory_bytes() as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleConfig;

    #[test]
    fn sweeps_grow_with_the_scale_and_paper_reaches_a_million() {
        let tiny = subscription_sweep(&ScaleConfig::preset("tiny").resolve());
        let quick = subscription_sweep(&ScaleConfig::preset("quick").resolve());
        let paper = subscription_sweep(&ScaleConfig::preset("paper").resolve());
        for sweep in [&tiny, &quick, &paper] {
            assert!(sweep.windows(2).all(|w| w[0] < w[1]), "{sweep:?}");
        }
        assert!(tiny.last() < quick.last());
        assert_eq!(paper.last(), Some(&1_000_000));
        // The downscale factor changes the name, not the sweep shape.
        let half = subscription_sweep(&ScaleConfig::preset("tiny").with_factor(0.5).resolve());
        assert_eq!(half, tiny);
    }

    #[test]
    fn figure_produces_one_row_per_size_with_sane_columns() {
        let scale = ScaleConfig::preset("tiny").resolve();
        let table = fig_scaling_sweep(&scale, &[200, 400]);
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            let subs: usize = row[0].parse().unwrap();
            let features: usize = row[1].parse().unwrap();
            let communities: usize = row[2].parse().unwrap();
            assert!(features >= subs, "{row:?}");
            assert!(communities >= 1 && communities <= subs, "{row:?}");
        }
        // More subscriptions, at least as many communities.
        let first: usize = table.rows[0][2].parse().unwrap();
        let second: usize = table.rows[1][2].parse().unwrap();
        assert!(second >= first, "{table:?}");
    }
}
