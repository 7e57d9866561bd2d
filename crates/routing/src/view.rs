//! The overlay view: the one subscription set the brokers route by.
//!
//! [`OverlayView`] holds the consumers — each one's attach broker and
//! pattern under a `u64` id — with the shared step forest ([`PatternSet`])
//! that names the consumers a document interests in one walk, the place
//! lists of every broker the view serves, and the 128-bit digest that names
//! the view on the wire. One `subscribe` and one `unsubscribe` keep all four
//! current.
//!
//! One view, three clocks: the static [`crate::BrokerNetwork`] builds one
//! per call and walks the tree, `tps-sim` drives one over every broker in
//! virtual time, and `tps-net`'s `BrokerCore` keeps one per live broker.
//! The view keeps no routing table, because when to rebuild one is each
//! clock's policy: per call, on the recluster policy (stale in between by
//! design), or lazily after a view change.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use tps_pattern::containment::ContainmentOracle;
use tps_pattern::{PatternSet, TreePattern};
use tps_xml::{XmlError, XmlTree};

use crate::digest::entry_digest;
use crate::hop::{HopCounts, LinkRule, Places, RouteOutcome};
use crate::table::{RoutingTable, TableMode};
use crate::topology::{BrokerId, BrokerTopology};

/// One consumer of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewEntry {
    /// The broker the consumer is attached to.
    pub broker: BrokerId,
    /// The subscription.
    pub pattern: TreePattern,
}

/// The consumers of the overlay, their matcher, the place lists of the
/// brokers the view serves, and the view's digest.
#[derive(Debug)]
pub struct OverlayView {
    consumers: BTreeMap<u64, ViewEntry>,
    /// The patterns of `consumers` under their ids: one walk of a document
    /// yields the consumers it interests.
    matcher: PatternSet,
    /// `places[b]`: broker `b`'s place lists, when the view serves `b`.
    places: Vec<Option<Places>>,
    /// Wrapping sum of [`entry_digest`] over `consumers`.
    digest: u128,
}

impl OverlayView {
    /// An empty view of `topology`, filing consumers at the `served`
    /// brokers.
    pub fn new(topology: &BrokerTopology, served: impl IntoIterator<Item = BrokerId>) -> Self {
        let mut places: Vec<Option<Places>> = topology.brokers().map(|_| None).collect();
        for broker in served {
            places[broker] = Some(Places::new(topology, broker));
        }
        Self {
            consumers: BTreeMap::new(),
            matcher: PatternSet::new(),
            places,
            digest: 0,
        }
    }

    /// The consumer `id`, if it is in the view.
    pub fn get(&self, id: u64) -> Option<&ViewEntry> {
        self.consumers.get(&id)
    }

    /// Every consumer of the view, keyed by id.
    pub fn consumers(&self) -> &BTreeMap<u64, ViewEntry> {
        &self.consumers
    }

    /// The digest of the view: the wrapping sum of a fixed 128-bit hash of
    /// every `(id, attach broker, pattern)` in it, whatever order it was
    /// built in (docs/NET.md, "Match once per overlay").
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// The matcher over the view's patterns.
    pub fn matcher(&self) -> &PatternSet {
        &self.matcher
    }

    /// Add consumer `id`, attached at `broker`. Returns whether the view
    /// changed: an id already in the view keeps its entry, whether `broker`
    /// and `pattern` repeat it (an exact duplicate) or not (a conflict, which
    /// a caller tells apart with [`OverlayView::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `broker` is not a broker of the topology.
    pub fn subscribe(&mut self, id: u64, broker: BrokerId, pattern: TreePattern) -> bool {
        let Entry::Vacant(slot) = self.consumers.entry(id) else {
            return false;
        };
        self.matcher.insert(id, &pattern);
        self.digest = self
            .digest
            .wrapping_add(entry_digest(id, broker as u32, &pattern));
        for places in self.places.iter_mut().flatten() {
            places.insert(id, broker);
        }
        slot.insert(ViewEntry { broker, pattern });
        true
    }

    /// Remove consumer `id`, returning its entry, or `None` when it is not
    /// in the view.
    pub fn unsubscribe(&mut self, id: u64) -> Option<ViewEntry> {
        let entry = self.consumers.remove(&id)?;
        self.matcher.remove(id, &entry.pattern);
        self.digest =
            self.digest
                .wrapping_sub(entry_digest(id, entry.broker as u32, &entry.pattern));
        for places in self.places.iter_mut().flatten() {
            places.remove(id, entry.broker);
        }
        Some(entry)
    }

    /// The consumers the document `bytes` interests, ascending, from one
    /// scan that also checks the bytes are a well-formed document
    /// ([`PatternSet::matches_bytes`]).
    #[inline]
    pub fn interest_bytes(&mut self, bytes: &[u8]) -> Result<&[u64], XmlError> {
        self.matcher.matches_bytes(bytes)
    }

    /// The consumers `document` interests, ascending.
    #[inline]
    pub fn interest_tree(&mut self, document: &XmlTree) -> &[u64] {
        self.matcher.matches(document)
    }

    /// Route one document at served broker `broker` ([`crate::hop`]):
    /// `interest` holds the consumers it interests, ascending (ids not in
    /// the view are ignored), `from` is the neighbour it arrived from, and
    /// `rule` decides each other link.
    ///
    /// # Panics
    ///
    /// Panics if the view does not serve `broker`.
    #[inline]
    pub fn hop(
        &mut self,
        broker: BrokerId,
        interest: &[u64],
        from: Option<BrokerId>,
        rule: LinkRule<'_>,
        counts: &mut HopCounts,
    ) -> RouteOutcome {
        self.places[broker]
            .as_mut()
            .unwrap_or_else(|| panic!("broker {broker} is not served by this view"))
            .hop(interest, from, rule, counts)
    }

    /// Served broker `broker`'s routing table: the patterns behind each of
    /// its links in id order, summarised with `mode` — after the compaction
    /// pre-pass when there is an `oracle`. Every clock builds its tables
    /// here, so a churn-free run of any of them is table-identical.
    ///
    /// # Panics
    ///
    /// Panics if the view does not serve `broker`.
    pub fn table(
        &self,
        broker: BrokerId,
        mode: TableMode,
        oracle: Option<&ContainmentOracle<'_>>,
    ) -> RoutingTable {
        let per_link: Vec<Vec<TreePattern>> = self
            .links(broker)
            .iter()
            .map(|behind| {
                let pattern = |id| self.consumers[id].pattern.clone();
                behind.iter().map(pattern).collect()
            })
            .collect();
        match oracle {
            None => RoutingTable::build(&per_link, mode),
            Some(oracle) => RoutingTable::build_compacted(&per_link, mode, oracle),
        }
    }

    /// The consumers behind each link of served broker `broker`, ascending,
    /// in link order.
    pub fn links(&self, broker: BrokerId) -> &[Vec<u64>] {
        self.places(broker).links()
    }

    /// The consumers attached to served broker `broker` itself, ascending.
    pub fn local(&self, broker: BrokerId) -> &[u64] {
        self.places(broker).local()
    }

    fn places(&self, broker: BrokerId) -> &Places {
        self.places[broker]
            .as_ref()
            .unwrap_or_else(|| panic!("broker {broker} is not served by this view"))
    }
}
