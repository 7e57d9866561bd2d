//! Shared delivery-accuracy accounting.
//!
//! Every routing simulation in this crate — the single [`crate::Broker`],
//! the multi-broker [`crate::BrokerNetwork`], and `tps-sim`'s dynamic
//! `SimReport` — ends up with the same three derived figures: delivery
//! *precision*, delivery *recall* and the per-document broker filtering
//! cost. They used to be copied per stats struct; [`DeliveryMetrics`]
//! defines them once over five raw counters, so a new simulation only
//! supplies its counters.

/// `numerator / denominator`, or `empty` when the denominator is zero —
/// the guard every rate in the routing reports needs.
pub fn rate_or(numerator: usize, denominator: usize, empty: f64) -> f64 {
    if denominator == 0 {
        empty
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Derived delivery-accuracy figures over raw routing counters.
///
/// Implementors provide the counters; `precision()`, `recall()` and
/// `matches_per_document()` come for free and are therefore consistent
/// across every simulation in the workspace (including degenerate cases:
/// empty streams and empty subscription sets yield perfect accuracy and
/// zero cost).
pub trait DeliveryMetrics {
    /// Number of routed (published) documents.
    fn documents(&self) -> usize;

    /// Pattern-match operations performed while routing.
    fn match_operations(&self) -> usize;

    /// Messages delivered to consumers (document × consumer pairs).
    fn deliveries(&self) -> usize;

    /// Deliveries to consumers whose subscription actually matches.
    fn useful_deliveries(&self) -> usize;

    /// Matching (consumer, document) pairs that were never delivered.
    fn missed_deliveries(&self) -> usize;

    /// Fraction of deliveries that were useful (1.0 when nothing was
    /// delivered).
    fn precision(&self) -> f64 {
        rate_or(self.useful_deliveries(), self.deliveries(), 1.0)
    }

    /// Fraction of matching (consumer, document) pairs that were delivered
    /// (1.0 when nothing should have been delivered).
    fn recall(&self) -> f64 {
        rate_or(
            self.useful_deliveries(),
            self.useful_deliveries() + self.missed_deliveries(),
            1.0,
        )
    }

    /// Match operations per routed document — the broker-side filtering
    /// cost the paper's motivation wants to reduce.
    fn matches_per_document(&self) -> f64 {
        rate_or(self.match_operations(), self.documents(), 0.0)
    }
}

/// Link-level rates for multi-broker runs (static and simulated), derived
/// from two more counters on top of [`DeliveryMetrics`]. Defined once so
/// the static `NetworkStats` and the simulator's aggregates can never
/// diverge on what "link precision" means.
pub trait LinkMetrics: DeliveryMetrics {
    /// Messages sent over overlay links.
    fn link_messages(&self) -> usize;

    /// Link messages that reached a subtree with no interested consumer.
    fn spurious_link_messages(&self) -> usize;

    /// Fraction of link messages that were useful (1.0 when no messages
    /// were sent).
    fn link_precision(&self) -> f64 {
        rate_or(
            self.link_messages() - self.spurious_link_messages(),
            self.link_messages(),
            1.0,
        )
    }

    /// Average number of link messages per document.
    fn messages_per_document(&self) -> f64 {
        rate_or(self.link_messages(), self.documents(), 0.0)
    }
}

/// How much table construction compacted the per-link subscription sets —
/// entries offered versus entries kept, summed over all links of all
/// brokers. Exact tables keep everything; containment pruning and the
/// analysis-driven compaction pre-pass drop covered entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCompaction {
    /// Subscription entries offered to table construction.
    pub input_entries: usize,
    /// Entries kept after summarisation / compaction.
    pub kept_entries: usize,
}

impl TableCompaction {
    /// Entries dropped by compaction.
    pub fn pruned_entries(&self) -> usize {
        self.input_entries.saturating_sub(self.kept_entries)
    }

    /// Fraction of offered entries kept (1.0 for an empty table).
    pub fn keep_ratio(&self) -> f64 {
        rate_or(self.kept_entries, self.input_entries, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Raw {
        documents: usize,
        match_operations: usize,
        deliveries: usize,
        useful: usize,
        missed: usize,
    }

    impl DeliveryMetrics for Raw {
        fn documents(&self) -> usize {
            self.documents
        }
        fn match_operations(&self) -> usize {
            self.match_operations
        }
        fn deliveries(&self) -> usize {
            self.deliveries
        }
        fn useful_deliveries(&self) -> usize {
            self.useful
        }
        fn missed_deliveries(&self) -> usize {
            self.missed
        }
    }

    #[test]
    fn rates_follow_the_counters() {
        let stats = Raw {
            documents: 4,
            match_operations: 10,
            deliveries: 8,
            useful: 6,
            missed: 2,
        };
        assert_eq!(stats.precision(), 0.75);
        assert_eq!(stats.recall(), 0.75);
        assert_eq!(stats.matches_per_document(), 2.5);
    }

    #[test]
    fn empty_runs_have_perfect_accuracy_and_zero_cost() {
        let stats = Raw {
            documents: 0,
            match_operations: 0,
            deliveries: 0,
            useful: 0,
            missed: 0,
        };
        assert_eq!(stats.precision(), 1.0);
        assert_eq!(stats.recall(), 1.0);
        assert_eq!(stats.matches_per_document(), 0.0);
    }

    #[test]
    fn rate_or_guards_zero_denominators() {
        assert_eq!(rate_or(3, 4, 1.0), 0.75);
        assert_eq!(rate_or(0, 0, 1.0), 1.0);
        assert_eq!(rate_or(5, 0, 0.0), 0.0);
    }

    struct RawLinks(Raw, usize, usize);

    impl DeliveryMetrics for RawLinks {
        fn documents(&self) -> usize {
            self.0.documents
        }
        fn match_operations(&self) -> usize {
            self.0.match_operations
        }
        fn deliveries(&self) -> usize {
            self.0.deliveries
        }
        fn useful_deliveries(&self) -> usize {
            self.0.useful
        }
        fn missed_deliveries(&self) -> usize {
            self.0.missed
        }
    }

    impl LinkMetrics for RawLinks {
        fn link_messages(&self) -> usize {
            self.1
        }
        fn spurious_link_messages(&self) -> usize {
            self.2
        }
    }

    #[test]
    fn link_rates_follow_the_counters() {
        let stats = RawLinks(
            Raw {
                documents: 5,
                match_operations: 0,
                deliveries: 0,
                useful: 0,
                missed: 0,
            },
            20,
            5,
        );
        assert_eq!(stats.link_precision(), 0.75);
        assert_eq!(stats.messages_per_document(), 4.0);
        let idle = RawLinks(
            Raw {
                documents: 0,
                match_operations: 0,
                deliveries: 0,
                useful: 0,
                missed: 0,
            },
            0,
            0,
        );
        assert_eq!(idle.link_precision(), 1.0);
        assert_eq!(idle.messages_per_document(), 0.0);
    }
}
