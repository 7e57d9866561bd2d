//! Overlay configuration and a local N-broker overlay runner.
//!
//! [`LocalOverlay`] binds one listener per broker *before* spawning any of
//! them (so the shared address map is complete from the first instant),
//! then serves each broker on its own threads. It is the substrate of the
//! loopback integration tests, the conformance suite and `tps broker
//! bench` — including broker failure (`kill`) and rejoin (`restart`, which
//! binds a fresh address and resynchronises the consumer view from a live
//! neighbour over the wire).

use std::io;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use tps_routing::{BrokerId, BrokerTopology, ForwardingMode, TableMode};

use crate::broker::BrokerCore;
use crate::client::BrokerClient;
use crate::codec::{BrokerStats, FrameLimits};
use crate::server::{addr_map, spawn_broker, AddrMap, BrokerHandle};
use crate::transport::{Addr, Listener, Transport};

/// Configuration shared by every broker of an overlay.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// The overlay topology (brokers and links).
    pub topology: BrokerTopology,
    /// How brokers forward documents between themselves.
    pub forwarding: ForwardingMode,
    /// Run the `tps-analyze` lint pre-pass on every subscription and
    /// reject provably redundant or erroneous patterns.
    pub lint: bool,
    /// Frame limits every connection decodes under.
    pub limits: FrameLimits,
    /// Depth of each bounded outbound queue (per-connection push queues,
    /// per-link forward queues).
    pub queue_depth: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        Self {
            topology: BrokerTopology::balanced_tree(3, 2),
            forwarding: ForwardingMode::Table(TableMode::Exact),
            lint: false,
            limits: FrameLimits::default(),
            queue_depth: 1024,
        }
    }
}

/// A running local overlay: one broker per topology node, all in this
/// process, each on its own threads.
#[derive(Debug)]
pub struct LocalOverlay {
    config: OverlayConfig,
    transport: Transport,
    addrs: AddrMap,
    handles: Vec<Option<BrokerHandle>>,
    /// Set once any broker was killed: its counters restart from zero on
    /// rejoin, so the overlay-wide `sent == arrived` accounting can never
    /// balance again and [`LocalOverlay::quiesce`] falls back to counter
    /// stability alone.
    counters_reset: bool,
}

impl LocalOverlay {
    /// Bind and spawn every broker of `config.topology`.
    pub fn spawn(config: OverlayConfig, transport: Transport) -> io::Result<Self> {
        let brokers = config.topology.broker_count();
        let addrs = addr_map(brokers);
        // Bind everything first: by the time any broker serves, every
        // peer address is already in the map.
        let mut listeners = Vec::with_capacity(brokers);
        for broker in 0..brokers {
            let listener = Listener::bind(transport)?;
            addrs.write().unwrap_or_else(PoisonError::into_inner)[broker] = Some(listener.addr()?);
            listeners.push(listener);
        }
        let mut handles = Vec::with_capacity(brokers);
        for (broker, listener) in listeners.into_iter().enumerate() {
            let core = BrokerCore::new(broker, &config);
            handles.push(Some(spawn_broker(
                core,
                listener,
                AddrMap::clone(&addrs),
                config.limits,
                config.queue_depth,
            )?));
        }
        Ok(Self {
            config,
            transport,
            addrs,
            handles,
            counters_reset: false,
        })
    }

    /// Number of brokers in the overlay (live or not).
    pub fn broker_count(&self) -> usize {
        self.handles.len()
    }

    /// The overlay configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.config
    }

    /// Where `broker` currently listens (`None` while it is down).
    pub fn addr(&self, broker: BrokerId) -> Option<Addr> {
        self.addrs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(broker)
            .cloned()
            .flatten()
    }

    /// Connect a client to `broker`.
    pub fn client(&self, broker: BrokerId) -> io::Result<BrokerClient> {
        let addr = self
            .addr(broker)
            .ok_or_else(|| io::Error::other(format!("broker {broker} is down")))?;
        BrokerClient::connect(&addr, self.config.limits)
    }

    /// Poll every live broker until each reports `expected` consumers in
    /// its view and all report the same view digest — the barrier between
    /// installing subscriptions and publishing that makes zero-churn runs
    /// deterministic (the subscription flood is asynchronous). Equal counts
    /// alone cannot tell two equal-sized divergent views apart; equal
    /// digests are equal views.
    pub fn await_consumers(&self, expected: u64, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.stats()?;
            let converged = stats
                .iter()
                .all(|s| s.consumers == expected && s.view_digest == stats[0].view_digest);
            if converged {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let views: Vec<String> = stats
                    .iter()
                    .map(|s| format!("{} ({:032x})", s.consumers, s.view_digest))
                    .collect();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "consumer views did not converge on {expected} within {timeout:?}: [{}]",
                        views.join(", ")
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Poll until the overlay is quiescent — no in-flight documents: the
    /// documents sent over links equal the documents received plus the
    /// documents dropped, and three consecutive polls agree on every
    /// counter. Returns the settled per-broker stats.
    ///
    /// After a [`LocalOverlay::kill`] the exact accounting is gone for good
    /// (the rejoined broker counts from zero), so quiescence degrades to
    /// counter stability alone.
    pub fn quiesce(&self, timeout: Duration) -> io::Result<Vec<BrokerStats>> {
        let deadline = Instant::now() + timeout;
        let mut last: Option<Vec<BrokerStats>> = None;
        let mut stable = 0;
        loop {
            let stats = self.stats()?;
            let sent: u64 = stats.iter().map(|s| s.link_messages).sum();
            let arrived: u64 = stats
                .iter()
                .map(|s| s.forwards_received + s.forwards_dropped)
                .sum();
            if (self.counters_reset || sent == arrived) && last.as_ref() == Some(&stats) {
                stable += 1;
                if stable >= 2 {
                    return Ok(stats);
                }
            } else {
                stable = 0;
            }
            last = Some(stats);
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("overlay did not quiesce within {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Current counters of every live broker.
    pub fn stats(&self) -> io::Result<Vec<BrokerStats>> {
        let mut all = Vec::new();
        for (broker, handle) in self.handles.iter().enumerate() {
            if handle.is_none() {
                continue;
            }
            let stats = self
                .client(broker)?
                .stats()
                .map_err(|e| io::Error::other(e.to_string()))?;
            all.push(stats);
        }
        Ok(all)
    }

    /// Gracefully stop one broker (failure injection). Returns whether the
    /// broker was live.
    pub fn kill(&mut self, broker: BrokerId) -> bool {
        let Some(handle) = self.handles.get_mut(broker).and_then(Option::take) else {
            return false;
        };
        self.counters_reset = true;
        self.addrs.write().unwrap_or_else(PoisonError::into_inner)[broker] = None;
        let _ = handle.shutdown();
        true
    }

    /// Rejoin a killed broker: bind a *fresh* address, resynchronise the
    /// consumer view from any live neighbour over the wire, publish the
    /// new address, and serve. Peers find the new address through the
    /// shared map on their next forward.
    pub fn restart(&mut self, broker: BrokerId) -> io::Result<()> {
        if broker >= self.handles.len() {
            return Err(io::Error::other(format!("broker {broker} does not exist")));
        }
        if self.handles[broker].is_some() {
            return Ok(());
        }
        let mut core = BrokerCore::new(broker, &self.config);
        // Any live broker has the (flood-converged) global view; prefer a
        // direct neighbour, fall back to any live broker.
        let donor = self
            .config
            .topology
            .neighbours(broker)
            .iter()
            .copied()
            .chain(0..self.handles.len())
            .find(|&b| b != broker && self.handles[b].is_some());
        if let Some(donor) = donor {
            let view = self
                .client(donor)?
                .sync_state()
                .map_err(|e| io::Error::other(e.to_string()))?;
            for entry in view {
                // invariant: the dump came from a broker that accepted
                // these exact subscriptions, so replaying them cannot fail.
                core.restore(entry.subscriber, entry.broker, &entry.pattern)
                    .expect("resync replays an accepted view");
            }
        }
        let listener = Listener::bind(self.transport)?;
        let addr = listener.addr()?;
        let handle = spawn_broker(
            core,
            listener,
            AddrMap::clone(&self.addrs),
            self.config.limits,
            self.config.queue_depth,
        )?;
        self.addrs.write().unwrap_or_else(PoisonError::into_inner)[broker] = Some(addr);
        self.handles[broker] = Some(handle);
        Ok(())
    }

    /// Gracefully stop every live broker and join all their threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        for broker in 0..self.handles.len() {
            self.kill(broker);
        }
        Ok(())
    }
}
