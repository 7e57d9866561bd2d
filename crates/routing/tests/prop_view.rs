//! `OverlayView` against a model: a `BTreeMap` of entries, brute-force
//! `TreePattern::matches` for the interest, and
//! `BrokerTopology::link_partitions` for where each broker files a
//! consumer. Random runs of subscribe, exact duplicate, conflicting
//! re-subscribe, unsubscribe, double unsubscribe and publish on a 7-broker
//! tree leave the view equal to the model after every step: the same
//! interest from the tree and from the bytes, the same place lists at
//! every broker, the digest of a fresh view built from the model in
//! shuffled order, and a path cache that recomputes from scratch.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tps_pattern::TreePattern;
use tps_routing::{BrokerTopology, OverlayView, ViewEntry};
use tps_workload::{DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig, XPathGenerator};
use tps_xml::XmlTree;

const BROKERS: usize = 7;

/// Subscriber ids are drawn from `0..IDS`, so runs revisit them.
const IDS: u64 = 12;

type Model = BTreeMap<u64, ViewEntry>;

/// The ids of the model's entries that satisfy `keep`, ascending.
fn ids(model: &Model, keep: impl Fn(&ViewEntry) -> bool) -> Vec<u64> {
    model
        .iter()
        .filter(|(_, entry)| keep(entry))
        .map(|(&id, _)| id)
        .collect()
}

/// Assert that `view` is `model`, reading the interest of `document`.
fn check(
    view: &mut OverlayView,
    model: &Model,
    topology: &BrokerTopology,
    document: &XmlTree,
    shuffle: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.consumers(), model);
    let interest = ids(model, |entry| entry.pattern.matches(document));
    prop_assert_eq!(view.interest_tree(document), &interest[..]);
    let bytes = document.to_xml().into_bytes();
    prop_assert_eq!(view.interest_bytes(&bytes).unwrap(), &interest[..]);
    for broker in topology.brokers() {
        let links: Vec<Vec<u64>> = topology
            .link_partitions(broker)
            .iter()
            .map(|behind| ids(model, |entry| behind.contains(&entry.broker)))
            .collect();
        prop_assert_eq!(view.links(broker), &links[..]);
        prop_assert_eq!(view.local(broker), &ids(model, |e| e.broker == broker)[..]);
    }
    // The digest names the view, not its history: a view built from the
    // model in another order, serving another broker, agrees.
    let mut entries: Vec<(&u64, &ViewEntry)> = model.iter().collect();
    entries.shuffle(&mut StdRng::seed_from_u64(shuffle));
    let mut fresh = OverlayView::new(topology, [shuffle as usize % BROKERS]);
    for (&id, entry) in entries {
        prop_assert!(fresh.subscribe(id, entry.broker, entry.pattern.clone()));
    }
    prop_assert_eq!(fresh.digest(), view.digest());
    prop_assert_eq!(view.digest() == 0, model.is_empty());
    prop_assert_eq!(view.matcher().check_path_cache(), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_view_is_its_model_after_every_step(
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            (0u8..6, any::<u64>(), 0usize..BROKERS, 0usize..10, 0usize..6),
            1..60,
        ),
    ) {
        let dtd = Dtd::media();
        let patterns: Vec<TreePattern> =
            XPathGenerator::new(&dtd, XPathGenConfig::default().with_seed(seed))
                .generate_many(10);
        let config = DocGenConfig::default()
            .with_seed(seed ^ 0xd0c5)
            .with_target_tag_pairs(30);
        let documents = DocumentGenerator::new(&dtd, config).generate_many(6);
        let topology = BrokerTopology::balanced_tree(BROKERS, 2);
        let mut view = OverlayView::new(&topology, topology.brokers());
        let mut model = Model::new();
        for (step, &(kind, pick, broker, pattern, document)) in steps.iter().enumerate() {
            let entry = ViewEntry { broker, pattern: patterns[pattern].clone() };
            // An id in the view, if there is one.
            let held = (!model.is_empty())
                .then(|| *model.keys().nth(pick as usize % model.len()).unwrap());
            let mut published = step % documents.len();
            match (kind, held) {
                // Subscribe an id drawn at random: new, or already held.
                (0, _) => {
                    let id = pick % IDS;
                    let new = !model.contains_key(&id);
                    prop_assert_eq!(view.subscribe(id, entry.broker, entry.pattern.clone()), new);
                    model.entry(id).or_insert(entry);
                }
                // An exact duplicate changes nothing.
                (1, Some(id)) => {
                    let held = model[&id].clone();
                    prop_assert!(!view.subscribe(id, held.broker, held.pattern));
                }
                // Neither does a conflicting re-subscribe.
                (2, Some(id)) => {
                    let broker = if model[&id] == entry { (broker + 1) % BROKERS } else { broker };
                    prop_assert!(!view.subscribe(id, broker, entry.pattern));
                }
                // Unsubscribe returns the entry, once.
                (3 | 4, Some(id)) => {
                    prop_assert_eq!(view.unsubscribe(id), model.remove(&id));
                    if kind == 4 {
                        prop_assert_eq!(view.unsubscribe(id), None);
                    }
                }
                (5, _) => published = document,
                // A duplicate, conflict or departure with an empty view:
                // nothing to leave.
                _ => prop_assert_eq!(view.unsubscribe(pick % IDS), None),
            }
            check(&mut view, &model, &topology, &documents[published], seed ^ step as u64)?;
        }
    }
}
