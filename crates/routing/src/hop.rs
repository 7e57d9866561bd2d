//! The hop: what one broker does with one document, given the subscribers
//! of the view the document interests.
//!
//! Every clock of the overlay ([`crate::view`]) routes a document by
//! calling [`crate::OverlayView::hop`] at each broker the document reaches,
//! so all of them decide local deliveries and forwards, and count the
//! paper's two costs — messages over links and match operations at brokers
//! — the same way by construction. A clock brings only where the interest
//! set comes from (a match at this broker, a set carried by a forward, or
//! the simulator's set frozen at publication), how a link is decided
//! ([`LinkRule`]), and what it does with the [`RouteOutcome`]. The view
//! files each served broker's consumers in a `Places` (private to this
//! crate), one ascending id list per link and one of its own consumers,
//! which the hop merges with the interest set.

use tps_xml::XmlTree;

use crate::table::RoutingTable;
use crate::topology::{BrokerId, BrokerTopology};

/// The four counters a hop increments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCounts {
    /// Local consumers the document was delivered to.
    pub deliveries: usize,
    /// Messages sent over links.
    pub link_messages: usize,
    /// Link messages towards a subtree with no interested consumer.
    pub spurious_link_messages: usize,
    /// Pattern-match operations: local filtering plus link lookups.
    pub match_operations: usize,
}

/// What a broker decided to do with one document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Local subscribers the document matched, ascending.
    pub deliveries: Vec<u64>,
    /// Neighbour brokers the document must be forwarded to.
    pub forwards: Vec<BrokerId>,
}

/// How a hop decides whether to forward over a link, and what deciding it
/// costs in match operations.
#[derive(Debug, Clone, Copy)]
pub enum LinkRule<'a> {
    /// Every link but the arrival one, at no cost.
    Flooding,
    /// An exact table read off the place lists: forward when a consumer
    /// behind the link is interested. The cost is a first-hit scan of the
    /// link's consumers in id order.
    Exact,
    /// This broker's routing table, asked about the document link by link
    /// (summarised or compacted tables, and the simulator's tables as of
    /// its last rebuild).
    Table(&'a RoutingTable, &'a XmlTree),
}

/// One broker's view, filed by where each subscriber is attached: one
/// ascending list of subscriber ids per link (who is behind it), then one
/// of the consumers attached to the broker itself.
#[derive(Debug, Clone)]
pub(crate) struct Places {
    /// The broker's neighbours, in link order.
    neighbours: Vec<BrokerId>,
    /// `place_of[b]`: the link that broker `b` lives behind, or one past
    /// the last link for this broker itself.
    place_of: Vec<usize>,
    /// The per-link lists, then the local one.
    lists: Vec<Vec<u64>>,
    // Scratch of `hop`, one slot per place and per link, kept so that a
    // hop allocates nothing here.
    cursors: Vec<usize>,
    first_hits: Vec<Option<usize>>,
}

impl Places {
    /// Empty place lists for `broker` of `topology`.
    pub(crate) fn new(topology: &BrokerTopology, broker: BrokerId) -> Self {
        let partitions = topology.link_partitions(broker);
        let links = partitions.len();
        let mut place_of = vec![links; topology.broker_count()];
        for (link, subtree) in partitions.iter().enumerate() {
            for &behind in subtree {
                place_of[behind] = link;
            }
        }
        Self {
            neighbours: topology.neighbours(broker).to_vec(),
            place_of,
            lists: vec![Vec::new(); links + 1],
            cursors: vec![0; links + 1],
            first_hits: vec![None; links],
        }
    }

    /// File `subscriber`, attached at broker `attached`. Filing a subscriber
    /// twice files it once.
    pub(crate) fn insert(&mut self, subscriber: u64, attached: BrokerId) {
        let list = &mut self.lists[self.place_of[attached]];
        if let Err(position) = list.binary_search(&subscriber) {
            list.insert(position, subscriber);
        }
    }

    /// Unfile `subscriber`, attached at broker `attached`.
    pub(crate) fn remove(&mut self, subscriber: u64, attached: BrokerId) {
        let list = &mut self.lists[self.place_of[attached]];
        if let Ok(position) = list.binary_search(&subscriber) {
            list.remove(position);
        }
    }

    /// The subscribers behind each link, in link order.
    pub(crate) fn links(&self) -> &[Vec<u64>] {
        &self.lists[..self.neighbours.len()]
    }

    /// The consumers attached to this broker itself.
    pub(crate) fn local(&self) -> &[u64] {
        &self.lists[self.neighbours.len()]
    }

    /// Route one document at this broker. `interest` holds the subscribers
    /// the document matches, ascending; ids filed nowhere here are ignored.
    /// Every local consumer costs one match operation and receives the
    /// document if interested. Every link but the one to `from` is decided
    /// by `rule`, and a forward is spurious when no consumer filed behind
    /// the link is interested.
    pub(crate) fn hop(
        &mut self,
        interest: &[u64],
        from: Option<BrokerId>,
        rule: LinkRule<'_>,
        counts: &mut HopCounts,
    ) -> RouteOutcome {
        let mut outcome = RouteOutcome::default();
        let links = self.neighbours.len();
        let Self {
            neighbours,
            lists,
            cursors,
            first_hits,
            ..
        } = self;

        // Every interested subscriber is filed in at most one place, and the
        // interest set and the lists are all ascending: one merging pass
        // with a cursor per place finds the local deliveries and, for each
        // outgoing link, its first interested consumer as a position among
        // the link's entries. A link is ranked once; later subscribers behind
        // it are only told apart from the local ones.
        cursors.fill(0);
        first_hits.fill(None);
        'interested: for &subscriber in interest {
            let local = &lists[links];
            cursors[links] = seek(local, cursors[links], subscriber);
            if local.get(cursors[links]) == Some(&subscriber) {
                outcome.deliveries.push(subscriber);
                continue;
            }
            for (link, &neighbour) in neighbours.iter().enumerate() {
                if first_hits[link].is_some() || Some(neighbour) == from {
                    continue;
                }
                let behind = &lists[link];
                cursors[link] = seek(behind, cursors[link], subscriber);
                if behind.get(cursors[link]) == Some(&subscriber) {
                    first_hits[link] = Some(cursors[link]);
                    continue 'interested;
                }
            }
        }
        counts.match_operations += lists[links].len();
        counts.deliveries += outcome.deliveries.len();

        for (link, &neighbour) in neighbours.iter().enumerate() {
            if Some(neighbour) == from {
                continue;
            }
            let first_hit = first_hits[link];
            let (chosen, cost) = match rule {
                LinkRule::Flooding => (true, 0),
                // A first-hit scan stops at that entry, or runs through all.
                LinkRule::Exact => (
                    first_hit.is_some(),
                    first_hit.map_or(lists[link].len(), |p| p + 1),
                ),
                LinkRule::Table(table, document) => table.link(link).matches(document),
            };
            counts.match_operations += cost;
            if chosen {
                counts.link_messages += 1;
                // Pure observability, never a match operation: the interest
                // set already says who behind the link wants the document.
                if first_hit.is_none() {
                    counts.spurious_link_messages += 1;
                }
                outcome.forwards.push(neighbour);
            }
        }
        outcome
    }
}

/// The first position at or after `from` of ascending `list` whose value is
/// at least `target`, found by galloping: a merge that costs the logarithm of
/// each gap it skips rather than its length.
fn seek(list: &[u64], from: usize, target: u64) -> usize {
    let mut low = from;
    let mut step = 1;
    while low + step < list.len() && list[low + step] < target {
        low += step;
        step *= 2;
    }
    let high = (low + step + 1).min(list.len());
    low + list[low..high].partition_point(|&value| value < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_finds_what_a_binary_search_of_the_rest_finds() {
        let list: Vec<u64> = (0..200).map(|i| i * i / 7 + i).collect();
        for from in [0, 1, 17, 199, 200] {
            for target in 0..list[199] + 3 {
                let expected = from + list[from..].partition_point(|&value| value < target);
                assert_eq!(seek(&list, from, target), expected, "{from} {target}");
            }
        }
        assert_eq!(seek(&[], 0, 5), 0);
    }

    #[test]
    fn places_file_subscribers_by_the_link_they_live_behind() {
        // Broker 0 of a 5-broker binary tree: 1 and 3 behind link 0, 2 and
        // 4 behind link 1.
        let mut places = Places::new(&BrokerTopology::balanced_tree(5, 2), 0);
        for (subscriber, attached) in [(7, 3), (2, 1), (5, 0), (4, 2), (2, 1), (1, 0), (5, 0)] {
            places.insert(subscriber, attached);
        }
        assert_eq!(places.links(), [vec![2, 7], vec![4]]);
        assert_eq!(places.local(), [1, 5]);
        places.remove(7, 3);
        places.remove(7, 3);
        places.remove(5, 0);
        places.remove(5, 0);
        assert_eq!(places.links(), [vec![2], vec![4]]);
        assert_eq!(places.local(), [1]);
    }

    #[test]
    fn a_hop_delivers_locally_and_never_forwards_back() {
        let mut places = Places::new(&BrokerTopology::balanced_tree(5, 2), 0);
        for (subscriber, attached) in [(1, 0), (2, 1), (3, 3), (4, 2)] {
            places.insert(subscriber, attached);
        }
        let mut counts = HopCounts::default();
        let outcome = places.hop(&[1, 3, 9], Some(2), LinkRule::Exact, &mut counts);
        assert_eq!(outcome.deliveries, [1]);
        assert_eq!(outcome.forwards, [1]);
        // One local consumer, then link 0's first-hit scan stops at its
        // second entry; link 1 leads back to the sender.
        assert_eq!(
            counts,
            HopCounts {
                deliveries: 1,
                link_messages: 1,
                spurious_link_messages: 0,
                match_operations: 1 + 2,
            }
        );
        let outcome = places.hop(&[], None, LinkRule::Flooding, &mut counts);
        assert_eq!(outcome.forwards, [1, 2]);
        assert_eq!(counts.spurious_link_messages, 2);
        assert_eq!(counts.match_operations, 3 + 1);
    }
}
