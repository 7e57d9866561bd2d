//! `tps-net`: a live multi-broker pub/sub runtime over TCP and Unix
//! sockets.
//!
//! Where `tps-sim` replays a
//! [`tps_workload::ChurnScenario`] through an in-process event loop, this
//! crate runs the *same broker semantics* as real servers: each broker is
//! a listener plus a thread-per-connection loop speaking a hand-rolled
//! length-prefixed binary codec ([`codec`]), routing documents along a
//! configurable overlay with the [`tps_routing`] tables and forwarding
//! modes, and filtering locally with the shared matcher. A broker keeps
//! only what routing reads: the paper's synopsis and communities have
//! their readers in `tps-core`, `tps-cluster` and `tps-sim`, not here.
//! The conformance suite checks
//! that a zero-churn scenario pushed through real sockets produces
//! delivery counters **exactly** equal to the simulator and the static
//! [`tps_routing::BrokerNetwork::route_stream`] evaluation.
//!
//! # Crate map
//!
//! * [`codec`] — wire format: framing, limits, typed decode errors.
//! * [`transport`] — TCP / Unix socket abstraction.
//! * [`broker`] — [`broker::BrokerCore`], the single-threaded broker
//!   brain: the one overlay view [`tps_routing::OverlayView`] (consumers,
//!   matcher, place lists, view digest) that the simulator and the static
//!   evaluation drive too, here on the sockets' clock, plus admission
//!   checks, the lazily rebuilt table and counters.
//! * [`server`] — threads and queues around a core: accept loop,
//!   per-connection readers/writers, peer links, graceful shutdown.
//! * [`client`] — a blocking request/reply client.
//! * [`overlay`] — [`overlay::LocalOverlay`]: an N-broker overlay in one
//!   process, with failure injection (`kill`) and rejoin (`restart`).
//! * [`mod@bench`] — scenario-driven closed-loop benchmark with latency
//!   percentiles, used by `tps broker bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod broker;
pub mod client;
pub mod codec;
pub mod overlay;
pub mod server;
pub mod transport;

pub use bench::{run_bench, BenchOptions, BenchReport, LatencySummary};
pub use broker::BrokerCore;
pub use client::{BrokerClient, ClientError};
pub use codec::{
    BrokerStats, DecodeError, ErrorCode, FrameLimits, MatchedDocument, Message, PROTOCOL_VERSION,
};
pub use overlay::{LocalOverlay, OverlayConfig};
pub use server::{spawn_broker, BrokerHandle};
pub use transport::{Addr, Transport};
