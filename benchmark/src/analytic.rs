//! The in-process substrate: the data pass of `analytic_batch`, as library
//! calls with no sockets and no threads.

use std::time::{Duration, Instant};

use tps_synopsis::{DocId, IngestTarget, Synopsis, SynopsisConfig};

use crate::inputs::Inputs;
use crate::live::Timed;

/// What the ingest pass did.
#[derive(Debug)]
pub struct Ingested {
    /// Pass start and end.
    pub span: (Instant, Instant),
    /// One entry per document: `ingest_bytes_as` call → return.
    pub documents: Vec<Timed>,
    /// Raw bytes ingested.
    pub bytes: u64,
    /// Documents the scanner rejected (none, on generated inputs).
    pub rejected: u64,
}

/// Data pass: scan-ingest the pool round-robin into a `hashes(256)`
/// synopsis until `budget` is spent, starting a fresh synopsis with every
/// turn over the pool so that each pays for growing the synopsis, not only
/// for updating it.
pub fn ingest_pass(inputs: &Inputs, budget: Duration) -> Ingested {
    let from = Instant::now();
    let deadline = from + budget;
    let mut documents = Vec::new();
    let (mut bytes, mut rejected) = (0, 0);
    'turns: loop {
        let mut synopsis = Synopsis::new(SynopsisConfig::hashes(256));
        for (i, document) in inputs.documents.iter().enumerate() {
            let at = Instant::now();
            let result = synopsis.ingest_bytes_as(document, DocId(i as u64));
            let took = at.elapsed();
            documents.push(Timed { at, took });
            bytes += document.len() as u64;
            rejected += u64::from(result.is_err());
            if at + took >= deadline {
                break 'turns;
            }
        }
        std::hint::black_box(synopsis.node_count());
    }
    Ingested {
        span: (from, Instant::now()),
        documents,
        bytes,
        rejected,
    }
}
