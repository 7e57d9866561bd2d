//! The repository's benchmark. See `README.md` in this directory.
#![warn(missing_docs)]

pub mod analysis;
pub mod analytic;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod live;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
