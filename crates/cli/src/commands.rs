//! Implementations of the `tps` subcommands.
//!
//! Every command writes plain text to a caller-supplied writer, so the
//! integration tests can run commands in-process and inspect their output
//! without spawning the binary.

use std::fmt;
use std::io::Write;

use tps_analyze::{render_json_lines, render_text, WorkloadAnalyzer, WorkloadEntry};
use tps_cluster::{
    agglomerative, evaluate, kmedoids, leader, AgglomerativeConfig, Clustering, KMedoidsConfig,
    LeaderConfig, OnlineLeader, SimilarityMatrix,
};
use tps_core::{ExactEvaluator, LshConfig, PatternId, ProximityMetric, SimilarityEngine};
use tps_dtd::{writer as dtd_writer, PatternAnalyzer, ValidationMode, Validator};
use tps_pattern::TreePattern;
use tps_routing::{
    BrokerNetwork, BrokerTopology, DeliveryMetrics, ForwardingMode, SemanticOverlay,
};
use tps_synopsis::{ingest, Ingest, SynopsisConfig};
use tps_workload::{Dataset, DatasetConfig, DocGenConfig, DocumentGenerator, Dtd, XPathGenConfig};

use crate::args::{ArgsError, ParsedArgs};

/// Errors a command can produce.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ArgsError),
    /// A tree pattern could not be parsed.
    Pattern(String),
    /// A DTD could not be read or parsed.
    Dtd(String),
    /// A document stream could not be read or parsed.
    Stream(String),
    /// `tps lint` found problems (errors, or warnings under
    /// `--deny warnings`); the diagnostics were already written to the
    /// output before this error was raised.
    Lint {
        /// Number of error-severity diagnostics.
        errors: usize,
        /// Number of warning-severity diagnostics.
        warnings: usize,
    },
    /// Writing output failed.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(err) => write!(f, "{err}"),
            CliError::Pattern(msg) => write!(f, "invalid pattern: {msg}"),
            CliError::Dtd(msg) => write!(f, "DTD error: {msg}"),
            CliError::Stream(msg) => write!(f, "document stream error: {msg}"),
            CliError::Lint { errors, warnings } => {
                write!(f, "lint failed: {errors} error(s), {warnings} warning(s)")
            }
            CliError::Io(err) => write!(f, "output error: {err}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(err: ArgsError) -> Self {
        CliError::Args(err)
    }
}

impl From<std::io::Error> for CliError {
    fn from(err: std::io::Error) -> Self {
        CliError::Io(err)
    }
}

/// The usage text printed by `tps help`.
pub const USAGE: &str = "\
tps — tree-pattern similarity estimation toolkit (ICDE'07 reproduction)

USAGE:
    tps <command> [--option value ...]

COMMANDS:
    help                               Show this message
    generate     Generate an XML document workload
        --dtd media|nitf|xcbl          DTD to generate from (default media)
        --documents N                  number of documents (default 10)
        --seed S                       RNG seed (default 1)
        --stats                        print summary statistics instead of XML
    dtd          Inspect a DTD and optionally analyse patterns against it
        --dtd media|nitf|xcbl          built-in DTD (default media)
        --file PATH                    parse a DTD file instead
        --export                       print the DTD text
        --validate PATH [--strict]     validate an XML file against the DTD
        --pattern P                    analyse a pattern (repeatable)
    selectivity  Estimate pattern selectivities over a generated stream
        --dtd, --documents, --seed     workload options (as above)
        --pattern P                    pattern to estimate (repeatable, required)
        --summary counters|sets|hashes matching-set representation (default hashes)
        --capacity N                   per-node summary budget (default 1000)
    similarity   Estimate pattern similarities (M1, M2, M3)
        --pattern P --pattern Q        the two patterns (required)
        --pattern R ...                more patterns: prints the pairwise
                                       similarity matrix (see --metric)
        --metric m1|m2|m3              matrix metric (default m3)
        --threads N                    worker threads for the matrix
                                       (default 1, 0 = one per core;
                                       results are identical)
        --index [BxR]                  with 3+ patterns: evaluate only the
                                       banded-MinHash candidate pairs (bare
                                       flag = default banding, e.g. 16x1),
                                       reporting pairs with similarity >=
                                       --threshold (default 0)
        --index-seed S                 LSH permutation seed
        --dtd, --documents, --seed, --summary, --capacity   as above
    cluster      Cluster a generated subscription workload into communities
        --dtd, --documents, --seed     workload options
        --subscriptions N              number of subscriptions (default 40)
        --algorithm leader|agglomerative|kmedoids   (default agglomerative)
        --threshold T                  similarity threshold (default 0.6)
        --k K                          communities for kmedoids (default 8)
        --metric m1|m2|m3              proximity metric (default m3)
        --threads N                    worker threads for the similarity
                                       matrix (default 1)
        --index [BxR]                  run the leader algorithm incrementally
                                       through the banded-MinHash candidate
                                       index (requires --algorithm leader)
        --index-seed S                 LSH permutation seed
    lint         Statically analyse a subscription workload
        --pattern P                    pattern to analyse (repeatable)
        --patterns-file PATH           file with one pattern per line
                                       (repeatable; # comments and blank
                                       lines are skipped)
        --corpus PATH                  replay a line-delimited XML corpus
                                       through the streaming scanner and
                                       report ingest-limit violations as
                                       W005 (repeatable)
        --dtd media|nitf|xcbl|PATH     analyse under a DTD: a built-in name
                                       or a DTD file (omit for purely
                                       syntactic analysis)
        --format text|json             output format (default text)
        --deny warnings                exit non-zero on warnings too
                                       (errors always fail)
        --lenient                      skip unparsable patterns instead of
                                       failing (noted in text output)
    route        Simulate content-based routing over a broker tree
        --dtd, --documents, --seed     workload options
        --subscriptions N              number of subscriptions (default 40)
        --brokers B                    number of brokers (default 7)
        --threshold T                  community threshold (default 0.6)
        --analyze                      compact routing tables with the
                                       DTD-aware containment analysis
        --threads N                    worker threads for the similarity
                                       matrix (default 1)
        --index [BxR]                  build the overlay communities through
                                       the banded-MinHash candidate index
    simulate     Discrete-event simulation under subscription churn
        --scenario steady|churn|flash  churn preset (default churn)
        --subscriptions N              initial subscribers (default 20)
        --publications N               published documents (default 100)
        --brokers B                    number of brokers (default 7)
        --recluster P                  eager|never|periodic:N|churn:N
                                       (default eager)
        --forwarding M                 flooding|exact|containment-pruned|
                                       aggregated (default exact)
        --analyze                      compact routing tables at each
                                       rebuild (syntactic containment;
                                       delivery-identical)
        --horizon T                    virtual-time span (default 1000)
        --window W                     report window length (default 100)
        --threads N                    rebuild worker threads (default 1,
                                       0 = one per core)
        --index [BxR]                  maintain the communities incrementally
                                       through the banded-MinHash candidate
                                       index instead of rebuilding them
        --dtd, --seed, --summary, --capacity, --threshold   as above
    broker serve     Run one live broker in the foreground (Ctrl-C or the
                     wire `shutdown` verb stops it)
        --transport tcp|unix           socket family (default tcp)
        --forwarding M                 flooding|exact|containment-pruned|
                                       aggregated (default exact)
        --lint                         reject provably broken or redundant
                                       subscriptions at the wire
    broker bench     Benchmark a live local overlay under churn
        --brokers B --fanout F         overlay shape (default 3, fanout 2)
        --transport tcp|unix           socket family (default tcp)
        --forwarding M                 as above (default exact)
        --subscribers N                initial subscribers (default 12)
        --publications N               closed-loop publishes (default 100)
        --arrivals N --departures N    mid-run churn (default 4 each)
        --scenario churn|failover      failover also kills and rejoins
                                       brokers mid-stream (default churn)
        --failover                     shorthand for --scenario failover
        --seed S                       scenario seed (default 42)
    synopsis build   Build a synopsis from a stream of documents
        --input PATH|-                 line-delimited XML documents, one per
                                       line (- reads standard input);
                                       required
        --threads N                    build shards (default 1, 0 = one per
                                       core; estimates are identical)
        --summary, --capacity, --seed  representation options (as above)
        --dump                         print the synopsis structure too
";

/// Run a full command line (excluding the program name), writing the report
/// to `out`.
pub fn run<S, W>(args: impl IntoIterator<Item = S>, out: &mut W) -> Result<(), CliError>
where
    S: Into<String>,
    W: Write,
{
    let argv: Vec<String> = args.into_iter().map(Into::into).collect();
    // `broker` takes an action word (`tps broker serve|bench ...`) before
    // the usual `--key value` options.
    if argv.first().map(String::as_str) == Some("broker") {
        let parse_rest = |argv: &[String]| {
            ParsedArgs::parse(
                std::iter::once("broker".to_string()).chain(argv[2..].iter().cloned()),
            )
        };
        return match argv.get(1).map(String::as_str) {
            Some("serve") => broker_serve(&parse_rest(&argv)?, out),
            Some("bench") => broker_bench(&parse_rest(&argv)?, out),
            other => Err(CliError::Args(ArgsError::InvalidValue {
                option: "broker".to_string(),
                value: other.unwrap_or("(no action)").to_string(),
                expected: "the `serve` or `bench` action (tps broker serve | tps broker bench)"
                    .to_string(),
            })),
        };
    }
    // `synopsis` takes an action word (`tps synopsis build ...`) before the
    // usual `--key value` options.
    if argv.first().map(String::as_str) == Some("synopsis") {
        return match argv.get(1).map(String::as_str) {
            Some("build") => {
                let parsed = ParsedArgs::parse(
                    std::iter::once("synopsis".to_string()).chain(argv[2..].iter().cloned()),
                )?;
                synopsis_build(&parsed, out)
            }
            Some(other) => Err(CliError::Args(ArgsError::InvalidValue {
                option: "synopsis".to_string(),
                value: other.to_string(),
                expected: "the `build` action (tps synopsis build --input file|-)".to_string(),
            })),
            None => Err(CliError::Args(ArgsError::InvalidValue {
                option: "synopsis".to_string(),
                value: "(no action)".to_string(),
                expected: "the `build` action (tps synopsis build --input file|-)".to_string(),
            })),
        };
    }
    let parsed = ParsedArgs::parse(argv)?;
    match parsed.command.as_str() {
        "help" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        "generate" => generate(&parsed, out),
        "dtd" => dtd(&parsed, out),
        "selectivity" => selectivity(&parsed, out),
        "similarity" => similarity(&parsed, out),
        "cluster" => cluster(&parsed, out),
        "lint" => lint(&parsed, out),
        "route" => route(&parsed, out),
        "simulate" => simulate(&parsed, out),
        other => Err(CliError::Args(ArgsError::UnknownCommand(other.to_string()))),
    }
}

fn resolve_dtd(args: &ParsedArgs) -> Result<Dtd, CliError> {
    match args.get("dtd").unwrap_or("media") {
        "media" => Ok(Dtd::media()),
        "nitf" => Ok(Dtd::nitf_like()),
        "xcbl" => Ok(Dtd::xcbl_like()),
        other => Err(CliError::Args(ArgsError::InvalidValue {
            option: "dtd".to_string(),
            value: other.to_string(),
            expected: "media, nitf or xcbl".to_string(),
        })),
    }
}

fn parse_patterns(args: &ParsedArgs, minimum: usize) -> Result<Vec<TreePattern>, CliError> {
    let texts = args.get_all("pattern");
    if texts.len() < minimum {
        return Err(CliError::Args(ArgsError::MissingOption(
            "pattern".to_string(),
        )));
    }
    texts
        .into_iter()
        .map(|text| {
            TreePattern::parse(text).map_err(|err| CliError::Pattern(format!("{text}: {err}")))
        })
        .collect()
}

fn synopsis_config(args: &ParsedArgs) -> Result<SynopsisConfig, CliError> {
    let capacity = args.get_usize("capacity", 1_000)?;
    let seed = args.get_u64("seed", 1)?;
    let config = match args.get("summary").unwrap_or("hashes") {
        "counters" => SynopsisConfig::counters(),
        "sets" => SynopsisConfig::sets(capacity),
        "hashes" => SynopsisConfig::hashes(capacity),
        other => {
            return Err(CliError::Args(ArgsError::InvalidValue {
                option: "summary".to_string(),
                value: other.to_string(),
                expected: "counters, sets or hashes".to_string(),
            }))
        }
    };
    Ok(config.with_seed(seed))
}

fn generate_documents(args: &ParsedArgs, dtd: &Dtd) -> Result<Vec<tps_xml::XmlTree>, CliError> {
    let documents = args.get_usize("documents", 10)?;
    let seed = args.get_u64("seed", 1)?;
    let mut generator = DocumentGenerator::new(dtd, DocGenConfig::default().with_seed(seed));
    Ok(generator.generate_many(documents))
}

fn generate_dataset(
    args: &ParsedArgs,
    dtd: Dtd,
    subscriptions: usize,
) -> Result<Dataset, CliError> {
    let documents = args.get_usize("documents", 200)?;
    let seed = args.get_u64("seed", 1)?;
    let config = DatasetConfig {
        docgen: DocGenConfig::default().with_seed(seed),
        xpathgen: XPathGenConfig::default().with_seed(seed.wrapping_add(1)),
        ..DatasetConfig::small().with_scale(documents, subscriptions, 0)
    };
    Ok(Dataset::generate(dtd, &config))
}

/// The `--threads` worker count for parallel similarity-matrix evaluation
/// (`1` = sequential, `0` = one worker per available core; the computed
/// values are identical either way).
fn threads_from(args: &ParsedArgs) -> Result<usize, CliError> {
    Ok(match args.get_usize("threads", 1)? {
        0 => tps_core::par::available_workers(),
        threads => threads,
    })
}

/// The `--index` knob: enable the banded MinHash candidate-pair index.
///
/// The bare flag selects the default banding; a `BANDSxROWS` value (e.g.
/// `--index 16x1`) picks an explicit shape. `--index-seed S` reseeds the
/// signature permutations (the built-in seed otherwise).
fn index_from(args: &ParsedArgs) -> Result<Option<LshConfig>, CliError> {
    let base = LshConfig::default();
    let config = match args.get("index") {
        Some(value) => {
            let invalid = || {
                CliError::Args(ArgsError::InvalidValue {
                    option: "index".to_string(),
                    value: value.to_string(),
                    expected: "BANDSxROWS with both positive (e.g. 8x2)".to_string(),
                })
            };
            let (bands, rows) = value.split_once('x').ok_or_else(invalid)?;
            let bands: usize = bands.parse().map_err(|_| invalid())?;
            let rows: usize = rows.parse().map_err(|_| invalid())?;
            if bands == 0 || rows == 0 {
                return Err(invalid());
            }
            Some(LshConfig {
                bands,
                rows,
                ..base
            })
        }
        None if args.has_flag("index") => Some(base),
        None => None,
    };
    Ok(match config {
        Some(config) => Some(LshConfig {
            seed: args.get_u64("index-seed", config.seed)?,
            ..config
        }),
        None => None,
    })
}

fn metric_from(args: &ParsedArgs) -> Result<ProximityMetric, CliError> {
    match args.get("metric").unwrap_or("m3") {
        "m1" | "M1" => Ok(ProximityMetric::M1),
        "m2" | "M2" => Ok(ProximityMetric::M2),
        "m3" | "M3" => Ok(ProximityMetric::M3),
        other => Err(CliError::Args(ArgsError::InvalidValue {
            option: "metric".to_string(),
            value: other.to_string(),
            expected: "m1, m2 or m3".to_string(),
        })),
    }
}

/// `tps synopsis build --input file|-`: build a synopsis from a stream of
/// line-delimited XML documents, fanned over `--threads` build shards
/// (`tps_core::build_par`; the estimates are identical for any shard
/// count), and report its size decomposition.
fn synopsis_build<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    use tps_xml::stream::LineStream;
    let config = synopsis_config(args)?;
    let shards = threads_from(args)?;
    let input = args.require("input")?;
    let synopsis = if input == "-" {
        tps_core::build_par(config, LineStream::from_stdin(), shards)
    } else {
        let stream = LineStream::from_path(input)
            .map_err(|err| CliError::Stream(format!("{input}: {err}")))?;
        tps_core::build_par(config, stream, shards)
    }
    .map_err(|err| CliError::Stream(err.to_string()))?;
    let size = synopsis.size();
    writeln!(out, "documents: {}", synopsis.document_count())?;
    writeln!(out, "representation: {}", synopsis.kind().name())?;
    writeln!(out, "build shards: {shards}")?;
    writeln!(out, "nodes: {}", size.nodes)?;
    writeln!(out, "edges: {}", size.edges)?;
    writeln!(out, "labels: {}", size.labels)?;
    writeln!(out, "matching-set entries: {}", size.entries)?;
    writeln!(out, "total size |HS|: {}", size.total())?;
    if args.has_flag("dump") {
        write!(out, "\n{}", synopsis.dump())?;
    }
    Ok(())
}

fn generate<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let dtd = resolve_dtd(args)?;
    let documents = generate_documents(args, &dtd)?;
    if args.has_flag("stats") {
        let nodes: usize = documents.iter().map(|d| d.node_count()).sum();
        let depth = documents.iter().map(|d| d.depth()).max().unwrap_or(0);
        writeln!(
            out,
            "dtd: {} ({} elements)",
            dtd.name(),
            dtd.element_count()
        )?;
        writeln!(out, "documents: {}", documents.len())?;
        writeln!(
            out,
            "average nodes per document: {:.1}",
            nodes as f64 / documents.len().max(1) as f64
        )?;
        writeln!(out, "maximum depth: {depth}")?;
    } else {
        for document in &documents {
            writeln!(out, "{}", document.to_xml())?;
        }
    }
    Ok(())
}

fn dtd<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let schema = match args.get("file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|err| CliError::Dtd(format!("{path}: {err}")))?;
            tps_dtd::parser::parse_named(path, &text)
                .map_err(|err| CliError::Dtd(err.to_string()))?
        }
        None => dtd_writer::schema_from_workload(&resolve_dtd(args)?),
    };
    let stats = schema.stats();
    writeln!(out, "dtd: {}", schema.name())?;
    writeln!(out, "root element: {}", schema.root().unwrap_or("<none>"))?;
    writeln!(out, "elements: {}", stats.element_count)?;
    writeln!(out, "reachable elements: {}", stats.reachable_count)?;
    writeln!(out, "text elements: {}", stats.text_element_count)?;
    writeln!(out, "attributes: {}", stats.attribute_count)?;
    writeln!(out, "max fanout: {}", stats.max_fanout)?;
    writeln!(out, "average fanout: {:.2}", stats.average_fanout)?;
    if args.has_flag("export") {
        writeln!(out, "\n{}", dtd_writer::write_dtd(&schema))?;
    }
    if let Some(path) = args.get("validate") {
        let text =
            std::fs::read_to_string(path).map_err(|err| CliError::Dtd(format!("{path}: {err}")))?;
        let document = tps_xml::XmlTree::parse(&text)
            .map_err(|err| CliError::Dtd(format!("{path}: {err}")))?;
        let mode = if args.has_flag("strict") {
            ValidationMode::Strict
        } else {
            ValidationMode::Lenient
        };
        let report = Validator::new(&schema, mode).validate(&document);
        writeln!(out, "\nvalidation of {path} ({mode:?}):")?;
        if report.is_valid() {
            writeln!(
                out,
                "  valid ({} elements checked)",
                report.elements_checked()
            )?;
        } else {
            for error in report.errors() {
                writeln!(out, "  {error}")?;
            }
        }
    }
    let patterns = args.get_all("pattern");
    if !patterns.is_empty() {
        let analyzer = PatternAnalyzer::new(&schema);
        writeln!(out, "\npattern analysis:")?;
        for text in patterns {
            let pattern = TreePattern::parse(text)
                .map_err(|err| CliError::Pattern(format!("{text}: {err}")))?;
            let expansions = analyzer.expansions(&pattern);
            writeln!(
                out,
                "  {text}: satisfiable={} expansions={}{}",
                !expansions.is_empty(),
                expansions.len(),
                if expansions.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            )?;
        }
    }
    Ok(())
}

fn selectivity<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let dtd = resolve_dtd(args)?;
    let patterns = parse_patterns(args, 1)?;
    let documents = generate_documents(args, &dtd)?;
    let mut engine = SimilarityEngine::new(synopsis_config(args)?);
    engine
        .ingest(ingest::trees(&documents))
        .map_err(|err| CliError::Stream(err.to_string()))?;
    let ids = engine.register_all(&patterns);
    let estimated = engine.selectivities(&ids);
    let exact = ExactEvaluator::new(documents);
    writeln!(
        out,
        "{} documents, synopsis: {}",
        exact.document_count(),
        engine.synopsis().kind().name()
    )?;
    writeln!(out, "{:<40} {:>10} {:>10}", "pattern", "estimated", "exact")?;
    for (pattern, &est) in patterns.iter().zip(&estimated) {
        writeln!(
            out,
            "{:<40} {:>10.4} {:>10.4}",
            pattern.to_string(),
            est,
            exact.selectivity(pattern)
        )?;
    }
    Ok(())
}

fn similarity<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let dtd = resolve_dtd(args)?;
    let patterns = parse_patterns(args, 2)?;
    // Validate --threads up front so a bad value is rejected on the
    // two-pattern path too (where no matrix is computed and it is unused).
    let threads = threads_from(args)?;
    let documents = generate_documents(args, &dtd)?;
    let mut engine = SimilarityEngine::new(synopsis_config(args)?);
    engine
        .ingest(ingest::trees(&documents))
        .map_err(|err| CliError::Stream(err.to_string()))?;
    let ids = engine.register_all(&patterns);
    if patterns.len() > 2 {
        let metric = metric_from(args)?;
        if let Some(lsh) = index_from(args)? {
            // Sub-quadratic path: enumerate banded-MinHash candidate pairs
            // and evaluate the real similarity only on those.
            let threshold = args.get_f64("threshold", 0.0)?;
            let pairs = engine.similarity_candidates_with(&ids, metric, lsh, threshold);
            let possible = patterns.len() * (patterns.len() - 1) / 2;
            writeln!(
                out,
                "{} patterns over {} documents ({metric} candidate pairs, \
                 {} bands x {} rows)",
                patterns.len(),
                engine.document_count(),
                lsh.bands(),
                lsh.rows()
            )?;
            for (i, pattern) in patterns.iter().enumerate() {
                writeln!(out, "p{i} = {pattern}")?;
            }
            writeln!(
                out,
                "candidate pairs at threshold {threshold}: {} of {possible} possible",
                pairs.len()
            )?;
            for (i, j, similarity) in pairs {
                writeln!(out, "p{i} ~ p{j} {similarity:>8.4}")?;
            }
            return Ok(());
        }
        // Batch path: the full pairwise similarity matrix in one engine
        // call, fanned out over `--threads` workers when asked.
        let matrix = engine.similarity_matrix_par(&ids, metric, threads);
        writeln!(
            out,
            "{} patterns over {} documents ({metric} similarity matrix)",
            patterns.len(),
            engine.document_count()
        )?;
        for (i, pattern) in patterns.iter().enumerate() {
            writeln!(out, "p{i} = {pattern}")?;
        }
        write!(out, "{:>8}", "")?;
        for j in 0..patterns.len() {
            write!(out, " {:>8}", format!("p{j}"))?;
        }
        writeln!(out)?;
        for i in 0..patterns.len() {
            write!(out, "{:>8}", format!("p{i}"))?;
            for j in 0..patterns.len() {
                write!(out, " {:>8.4}", matrix.get(i, j))?;
            }
            writeln!(out)?;
        }
        return Ok(());
    }
    let (p, q) = (&patterns[0], &patterns[1]);
    let estimated = engine.similarities(ids[0], ids[1]);
    let exact = ExactEvaluator::new(documents);
    writeln!(out, "p = {p}")?;
    writeln!(out, "q = {q}")?;
    writeln!(out, "{:<28} {:>10} {:>10}", "metric", "estimated", "exact")?;
    for (metric, est) in ProximityMetric::all().into_iter().zip(estimated) {
        writeln!(
            out,
            "{:<28} {:>10.4} {:>10.4}",
            format!("{metric:?}"),
            est,
            exact.similarity(p, q, metric)
        )?;
    }
    Ok(())
}

fn build_engine(
    dataset: &Dataset,
    args: &ParsedArgs,
) -> Result<(Vec<TreePattern>, SimilarityEngine, Vec<PatternId>), CliError> {
    let mut engine = SimilarityEngine::new(synopsis_config(args)?);
    engine
        .ingest(ingest::trees(&dataset.documents))
        .map_err(|err| CliError::Stream(err.to_string()))?;
    let subscriptions = dataset.positive.clone();
    let ids = engine.register_all(&subscriptions);
    Ok((subscriptions, engine, ids))
}

fn cluster<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let dtd = resolve_dtd(args)?;
    let subscriptions = args.get_usize("subscriptions", 40)?;
    // Validate --threads before the expensive dataset generation.
    let threads = threads_from(args)?;
    let index = index_from(args)?;
    let dataset = generate_dataset(args, dtd, subscriptions)?;
    let metric = metric_from(args)?;
    let (patterns, engine, ids) = build_engine(&dataset, args)?;
    // The full matrix is still evaluated for the quality report; only the
    // clustering pass itself goes through the candidate index.
    let matrix = SimilarityMatrix::from_engine_par(&engine, &ids, metric, threads);
    let threshold = args.get_f64("threshold", 0.6)?;
    let algorithm = args.get("algorithm").unwrap_or("agglomerative");
    if index.is_some() && algorithm != "leader" {
        return Err(CliError::Args(ArgsError::InvalidValue {
            option: "algorithm".to_string(),
            value: algorithm.to_string(),
            expected: "leader (--index drives the incremental leader clustering)".to_string(),
        }));
    }
    let mut evaluated = 0usize;
    let clustering: Clustering = match algorithm {
        "leader" => match index {
            Some(lsh) => {
                // Incremental path: each arrival probes only the leaders it
                // shares a band with, scored with the engine similarity.
                let mut online = OnlineLeader::new(
                    lsh,
                    LeaderConfig {
                        similarity_threshold: threshold,
                        ..LeaderConfig::default()
                    },
                );
                for pattern in &patterns {
                    online.insert_with(pattern, |slot, leader| {
                        evaluated += 1;
                        engine.similarity(ids[slot as usize], ids[leader as usize], metric)
                    });
                }
                online.clustering()
            }
            None => {
                leader(
                    &matrix,
                    LeaderConfig {
                        similarity_threshold: threshold,
                        ..LeaderConfig::default()
                    },
                )
                .clustering
            }
        },
        "agglomerative" => {
            agglomerative(
                &matrix,
                AgglomerativeConfig {
                    similarity_threshold: threshold,
                    ..AgglomerativeConfig::default()
                },
            )
            .clustering
        }
        "kmedoids" => {
            kmedoids(
                &matrix,
                KMedoidsConfig {
                    k: args.get_usize("k", 8)?,
                    ..KMedoidsConfig::default()
                },
            )
            .clustering
        }
        other => {
            return Err(CliError::Args(ArgsError::InvalidValue {
                option: "algorithm".to_string(),
                value: other.to_string(),
                expected: "leader, agglomerative or kmedoids".to_string(),
            }))
        }
    };
    let quality = evaluate(&matrix, &clustering);
    writeln!(
        out,
        "{} subscriptions over {} documents ({:?} metric)",
        patterns.len(),
        dataset.documents.len(),
        matrix.metric()
    )?;
    if let Some(lsh) = index {
        writeln!(
            out,
            "candidate index: {} bands x {} rows, {evaluated} of {} pairs scored",
            lsh.bands(),
            lsh.rows(),
            patterns.len() * patterns.len().saturating_sub(1) / 2
        )?;
    }
    writeln!(out, "communities: {}", clustering.cluster_count())?;
    writeln!(out, "singletons: {}", quality.singleton_count)?;
    writeln!(
        out,
        "intra-community similarity: {:.3}",
        quality.intra_similarity
    )?;
    writeln!(
        out,
        "inter-community similarity: {:.3}",
        quality.inter_similarity
    )?;
    writeln!(out, "silhouette: {:.3}", quality.silhouette)?;
    for (id, members) in clustering.clusters().iter().enumerate() {
        writeln!(out, "community {id} ({} members):", members.len())?;
        for &member in members {
            writeln!(out, "    {}", patterns[member])?;
        }
    }
    Ok(())
}

/// Resolve `tps lint`'s `--dtd` option: a built-in workload DTD by name, a
/// DTD file by path, or `None` when the option is absent (purely syntactic
/// analysis).
fn lint_schema(args: &ParsedArgs) -> Result<Option<tps_dtd::DtdSchema>, CliError> {
    match args.get("dtd") {
        None => Ok(None),
        // The paper's exact Figure 1 DTD (not the workload generator's
        // enriched variant): Example 1.1's equivalence only holds under it.
        Some("media") => Ok(Some(tps_dtd::samples::media_schema())),
        Some("nitf") => Ok(Some(dtd_writer::schema_from_workload(&Dtd::nitf_like()))),
        Some("xcbl") => Ok(Some(dtd_writer::schema_from_workload(&Dtd::xcbl_like()))),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|err| CliError::Dtd(format!("{path}: {err}")))?;
            let schema = tps_dtd::parser::parse_named(path, &text)
                .map_err(|err| CliError::Dtd(err.to_string()))?;
            Ok(Some(schema))
        }
    }
}

/// Collect the lint workload from repeated `--pattern` options and
/// `--patterns-file` files. With `--lenient`, unparsable patterns are
/// skipped (and, in text mode, noted on the output) instead of aborting —
/// fuzz corpora legitimately contain parser-rejected inputs.
fn lint_workload<W: Write>(
    args: &ParsedArgs,
    text_format: bool,
    out: &mut W,
) -> Result<Vec<WorkloadEntry>, CliError> {
    let lenient = args.has_flag("lenient");
    let mut workload = Vec::new();
    let note = |out: &mut W, origin: &str, err: &dyn fmt::Display| -> Result<(), CliError> {
        if text_format {
            writeln!(out, "note: skipped unparsable pattern at {origin}: {err}")?;
        }
        Ok(())
    };
    for (index, source) in args.get_all("pattern").into_iter().enumerate() {
        let origin = format!("--pattern #{}", index + 1);
        match WorkloadEntry::with_origin(source, &origin) {
            Ok(entry) => workload.push(entry),
            Err(err) if lenient => note(out, &origin, &err)?,
            Err(err) => return Err(CliError::Pattern(format!("{source}: {err}"))),
        }
    }
    for path in args.get_all("patterns-file") {
        let text = std::fs::read_to_string(path)
            .map_err(|err| CliError::Stream(format!("{path}: {err}")))?;
        for (number, line) in text.lines().enumerate() {
            let source = line.trim();
            if source.is_empty() || source.starts_with('#') {
                continue;
            }
            let origin = format!("{path}:{}", number + 1);
            match WorkloadEntry::with_origin(source, &origin) {
                Ok(entry) => workload.push(entry),
                Err(err) if lenient => note(out, &origin, &err)?,
                Err(err) => return Err(CliError::Pattern(format!("{origin}: {source}: {err}"))),
            }
        }
    }
    Ok(workload)
}

/// `tps lint`: run the static subscription analysis over a workload given
/// on the command line and/or in pattern files, render the diagnostics,
/// and fail the process on errors (or on warnings under `--deny
/// warnings`).
fn lint<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(CliError::Args(ArgsError::InvalidValue {
            option: "format".to_string(),
            value: format.to_string(),
            expected: "text or json".to_string(),
        }));
    }
    let deny_warnings = match args.get("deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::Args(ArgsError::InvalidValue {
                option: "deny".to_string(),
                value: other.to_string(),
                expected: "warnings".to_string(),
            }))
        }
    };
    let schema = lint_schema(args)?;
    let workload = lint_workload(args, format == "text", out)?;
    let corpora = args.get_all("corpus");
    if workload.is_empty() && args.get_all("patterns-file").is_empty() && corpora.is_empty() {
        return Err(CliError::Args(ArgsError::MissingOption(
            "pattern".to_string(),
        )));
    }
    let mut report = WorkloadAnalyzer::new(schema.as_ref()).analyze(&workload);
    // Corpus replay: every document that the zero-copy scanner would
    // reject for a limit violation joins the report as a `W005`.
    for path in corpora {
        let bytes =
            std::fs::read(path).map_err(|err| CliError::Stream(format!("{path}: {err}")))?;
        let replay = tps_analyze::lint_corpus(&bytes, &tps_xml::ScanLimits::default());
        if format == "text" && replay.malformed > 0 {
            writeln!(
                out,
                "note: {path}: {} malformed document(s) skipped by the scanner replay",
                replay.malformed
            )?;
        }
        report
            .diagnostics
            .extend(replay.diagnostics.into_iter().map(|mut diag| {
                diag.origin = format!("{path}, {}", diag.origin);
                diag
            }));
    }
    match format {
        "json" => write!(out, "{}", render_json_lines(&report))?,
        _ => write!(out, "{}", render_text(&report))?,
    }
    if report.is_clean(deny_warnings) {
        Ok(())
    } else {
        Err(CliError::Lint {
            errors: report.error_count(),
            warnings: report.warning_count(),
        })
    }
}

fn route<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    let dtd = resolve_dtd(args)?;
    let subscriptions = args.get_usize("subscriptions", 40)?;
    let brokers = args.get_usize("brokers", 7)?.max(1);
    // Validate --threads before the expensive dataset generation.
    let threads = threads_from(args)?;
    // With --analyze, routing tables are compacted with the DTD-aware
    // containment oracle built from the workload's own DTD.
    let analyze = args.has_flag("analyze");
    let oracle = analyze.then(|| {
        tps_analyze::dtd_refinement_oracle(
            dtd_writer::schema_from_workload(&dtd),
            tps_dtd::AnalysisConfig::default(),
        )
    });
    let index = index_from(args)?;
    let dataset = generate_dataset(args, dtd, subscriptions)?;
    let metric = metric_from(args)?;
    let (patterns, engine, ids) = build_engine(&dataset, args)?;
    let matrix = SimilarityMatrix::from_engine_par(&engine, &ids, metric, threads);
    // Multi-broker simulation: consumers spread round-robin over the leaves.
    let mut network = BrokerNetwork::new(BrokerTopology::balanced_tree(brokers, 2));
    for (index, pattern) in patterns.iter().enumerate() {
        let broker = 1 + index % (brokers - 1).max(1);
        network.attach(broker % brokers, format!("c{index}"), pattern.clone());
    }
    writeln!(
        out,
        "broker network: {} brokers, {} consumers, {} documents",
        brokers,
        patterns.len(),
        dataset.documents.len()
    )?;
    writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>12} {:>10}{}",
        "forwarding",
        "messages",
        "matches/doc",
        "table nodes",
        "recall",
        if analyze { "     pruned" } else { "" }
    )?;
    for mode in ForwardingMode::all() {
        let stats = match &oracle {
            Some(oracle) => {
                network.route_stream_compacted(0, &dataset.documents, mode, &|p, q| oracle(p, q))
            }
            None => network.route_stream(0, &dataset.documents, mode),
        };
        write!(
            out,
            "{:<22} {:>10} {:>12.1} {:>12} {:>10.3}",
            mode.name(),
            stats.link_messages,
            stats.matches_per_document(),
            stats.table_nodes,
            stats.recall()
        )?;
        if analyze {
            write!(out, " {:>10}", stats.compaction.pruned_entries())?;
        }
        writeln!(out)?;
    }
    // Semantic overlay built from the similarity matrix — or, with
    // `--index`, from the candidate-driven community build that never
    // touches the full matrix.
    let threshold = args.get_f64("threshold", 0.6)?;
    let clustering = match index {
        Some(lsh) => {
            use tps_routing::{CommunityClustering, CommunityConfig};
            let communities = CommunityClustering::cluster_indexed(
                &engine,
                &ids,
                CommunityConfig {
                    metric,
                    threshold,
                    ..CommunityConfig::default()
                },
                lsh,
            );
            Clustering::from_assignment(communities.assignment(patterns.len()))
        }
        None => {
            agglomerative(
                &matrix,
                AgglomerativeConfig {
                    similarity_threshold: threshold,
                    ..AgglomerativeConfig::default()
                },
            )
            .clustering
        }
    };
    let overlay = SemanticOverlay::from_clustering(patterns, &clustering, Some(&matrix));
    let stats = overlay.route_stream(&dataset.documents);
    writeln!(
        out,
        "\nsemantic overlay ({} communities{}):",
        overlay.community_count(),
        if index.is_some() {
            ", candidate-indexed"
        } else {
            ""
        }
    )?;
    writeln!(out, "  matches/doc: {:.1}", stats.matches_per_document())?;
    writeln!(out, "  precision: {:.3}", stats.precision())?;
    writeln!(out, "  recall: {:.3}", stats.recall())?;
    Ok(())
}

/// Resolve `--forwarding` against the canonical mode list, so the parser
/// (and its error message) can never drift from `ForwardingMode::all()`.
fn resolve_forwarding(args: &ParsedArgs) -> Result<ForwardingMode, CliError> {
    let forwarding_name = args.get("forwarding").unwrap_or("exact");
    ForwardingMode::all()
        .into_iter()
        .find(|mode| mode.name() == forwarding_name)
        .ok_or_else(|| {
            CliError::Args(ArgsError::InvalidValue {
                option: "forwarding".to_string(),
                value: forwarding_name.to_string(),
                expected: ForwardingMode::all().map(|m| m.name()).join(", "),
            })
        })
}

/// Resolve `--transport` into a socket family.
fn resolve_transport(args: &ParsedArgs) -> Result<tps_net::Transport, CliError> {
    tps_net::Transport::parse(args.get("transport").unwrap_or("tcp")).map_err(|message| {
        CliError::Args(ArgsError::InvalidValue {
            option: "transport".to_string(),
            value: args.get("transport").unwrap_or_default().to_string(),
            expected: message,
        })
    })
}

/// `tps broker serve`: run one live broker in the foreground until a wire
/// `shutdown` verb arrives.
fn broker_serve<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    use tps_net::server::{addr_map, spawn_broker};
    use tps_net::transport::Listener;
    use tps_net::{BrokerCore, OverlayConfig};

    let transport = resolve_transport(args)?;
    let forwarding = resolve_forwarding(args)?;
    let config = OverlayConfig {
        topology: BrokerTopology::balanced_tree(1, 2),
        forwarding,
        lint: args.has_flag("lint"),
        ..OverlayConfig::default()
    };
    let listener = Listener::bind(transport)?;
    let addr = listener.addr()?;
    let addrs = addr_map(1);
    addrs
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)[0] = Some(addr.clone());
    let handle = spawn_broker(
        BrokerCore::new(0, &config),
        listener,
        addrs,
        config.limits,
        config.queue_depth,
    )?;
    writeln!(
        out,
        "broker 0 listening on {addr} ({} forwarding{})",
        forwarding.name(),
        if config.lint { ", linted" } else { "" }
    )?;
    writeln!(out, "send the shutdown verb to stop")?;
    out.flush()?;
    while !handle.stopped() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    handle.shutdown()?;
    writeln!(out, "shutdown: clean")?;
    Ok(())
}

/// `tps broker bench`: spawn a local overlay, drive a churn scenario
/// through it closed-loop and print the latency/throughput report.
fn broker_bench<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    use tps_net::{run_bench, BenchOptions};

    let defaults = BenchOptions::default();
    let failover = match args.get("scenario").unwrap_or("churn") {
        "churn" => args.has_flag("failover"),
        "failover" => true,
        other => {
            return Err(CliError::Args(ArgsError::InvalidValue {
                option: "scenario".to_string(),
                value: other.to_string(),
                expected: "churn or failover".to_string(),
            }))
        }
    };
    let options = BenchOptions {
        brokers: args.get_usize("brokers", defaults.brokers)?.max(1),
        fanout: args.get_usize("fanout", defaults.fanout)?.max(2),
        transport: resolve_transport(args)?,
        forwarding: resolve_forwarding(args)?,
        subscribers: args.get_usize("subscribers", defaults.subscribers)?,
        publications: args.get_usize("publications", defaults.publications)?,
        arrivals: args.get_usize("arrivals", defaults.arrivals)?,
        departures: args.get_usize("departures", defaults.departures)?,
        failover,
        seed: args.get_u64("seed", defaults.seed)?,
        ..defaults
    };
    writeln!(
        out,
        "overlay bench: {} brokers (fanout {}) over {}, {} forwarding",
        options.brokers,
        options.fanout,
        options.transport.name(),
        options.forwarding.name()
    )?;
    writeln!(
        out,
        "scenario: {} subscribers, {} publications, {} arrivals, {} departures{}",
        options.subscribers,
        options.publications,
        options.arrivals,
        options.departures,
        if options.failover { ", failover" } else { "" }
    )?;
    out.flush()?;
    let report = run_bench(&options)?;
    writeln!(out, "{report}")?;
    Ok(())
}

/// `tps simulate`: run a seeded churn scenario through the `tps-sim`
/// discrete-event simulator and print its report.
fn simulate<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<(), CliError> {
    use tps_routing::{BrokerTopology, CommunityConfig};
    use tps_sim::{ReclusterPolicy, SimConfig, Simulation};
    use tps_workload::{ChurnConfig, ChurnScenario};

    let dtd = resolve_dtd(args)?;
    let brokers = args.get_usize("brokers", 7)?.max(1);
    let subscriptions = args.get_usize("subscriptions", 20)?;
    let publications = args.get_usize("publications", 100)?;
    let horizon = args.get_u64("horizon", 1_000)?.max(1);
    let window = args.get_u64("window", 100)?.max(1);
    let seed = args.get_u64("seed", 1)?;
    let threads = threads_from(args)?;
    let threshold = args.get_f64("threshold", 0.6)?;

    let (arrivals, departures) = match args.get("scenario").unwrap_or("churn") {
        "steady" => (0, 0),
        "churn" => (subscriptions / 2, subscriptions / 2),
        "flash" => (subscriptions, subscriptions / 4),
        other => {
            return Err(CliError::Args(ArgsError::InvalidValue {
                option: "scenario".to_string(),
                value: other.to_string(),
                expected: "steady, churn or flash".to_string(),
            }))
        }
    };
    let recluster =
        ReclusterPolicy::parse(args.get("recluster").unwrap_or("eager")).map_err(|message| {
            CliError::Args(ArgsError::InvalidValue {
                option: "recluster".to_string(),
                value: args.get("recluster").unwrap_or_default().to_string(),
                expected: message,
            })
        })?;
    let forwarding = resolve_forwarding(args)?;

    let scenario = ChurnScenario::generate(
        &dtd,
        &ChurnConfig {
            brokers,
            initial_subscribers: subscriptions,
            arrivals,
            departures,
            publications,
            horizon,
            seed,
            ..ChurnConfig::default()
        },
    );
    let config = SimConfig {
        forwarding,
        recluster,
        community: CommunityConfig {
            threshold,
            ..CommunityConfig::default()
        },
        synopsis: synopsis_config(args)?,
        window,
        threads,
        analyze: args.has_flag("analyze"),
        index: index_from(args)?,
        ..SimConfig::default()
    };
    writeln!(
        out,
        "churn scenario over {} ({} brokers, {} initial subscribers, \
         {} arrivals, {} departures, {} publications, horizon {horizon})",
        dtd.name(),
        brokers,
        subscriptions,
        arrivals,
        departures,
        scenario.publication_count()
    )?;
    writeln!(
        out,
        "forwarding: {}  recluster: {}  threads: {threads}{}",
        forwarding.name(),
        recluster.label(),
        match config.index {
            Some(lsh) => format!("  index: {} bands x {} rows", lsh.bands(), lsh.rows()),
            None => String::new(),
        }
    )?;
    let report = Simulation::new(BrokerTopology::balanced_tree(brokers, 2), config).run(&scenario);
    writeln!(out, "{report}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run(args.iter().copied(), &mut out)?;
        Ok(String::from_utf8(out).expect("command output is UTF-8"))
    }

    #[test]
    fn help_prints_usage() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("USAGE"));
        assert!(output.contains("similarity"));
        let output = run_capture(&["--help"]).unwrap();
        assert!(output.contains("USAGE"));
    }

    #[test]
    fn unknown_commands_are_rejected() {
        let err = run_capture(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Args(ArgsError::UnknownCommand(_))));
    }

    #[test]
    fn generate_prints_xml_or_stats() {
        let xml = run_capture(&["generate", "--documents", "3", "--seed", "7"]).unwrap();
        assert_eq!(xml.matches("<media>").count(), 3);
        let stats =
            run_capture(&["generate", "--documents", "3", "--seed", "7", "--stats"]).unwrap();
        assert!(stats.contains("documents: 3"));
        assert!(stats.contains("average nodes per document"));
    }

    #[test]
    fn generate_rejects_unknown_dtds() {
        let err = run_capture(&["generate", "--dtd", "unknown"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn dtd_command_reports_stats_and_analysis() {
        let output = run_capture(&[
            "dtd",
            "--dtd",
            "media",
            "--pattern",
            "/media/CD",
            "--pattern",
            "/media/magazine",
        ])
        .unwrap();
        assert!(output.contains("root element: media"));
        assert!(output.contains("/media/CD: satisfiable=true"));
        assert!(output.contains("/media/magazine: satisfiable=false"));
    }

    /// `//e188` under the xCBL DTD once enumerated every DTD path to depth
    /// 8 and ran out of memory; both analysing commands now return.
    #[test]
    fn xcbl_root_descendant_analysis_returns() {
        let args = ["--dtd", "xcbl", "--pattern", "//e188"];
        let dtd = run_capture(&[&["dtd"], &args[..]].concat()).unwrap();
        assert!(dtd.contains("//e188: satisfiable=false expansions=0 (truncated)"));
        let lint = run_capture(&[&["lint"], &args[..]].concat()).unwrap();
        assert!(lint.contains("W004"), "{lint}");
    }

    #[test]
    fn dtd_command_exports_parsable_text() {
        let output = run_capture(&["dtd", "--dtd", "media", "--export"]).unwrap();
        assert!(output.contains("<!ELEMENT media"));
    }

    #[test]
    fn dtd_command_validates_xml_files() {
        let dir = std::env::temp_dir().join("tps-cli-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let valid = dir.join("valid.xml");
        std::fs::write(
            &valid,
            "<media><CD><composer><last>Mozart</last></composer></CD></media>",
        )
        .unwrap();
        let invalid = dir.join("invalid.xml");
        std::fs::write(&invalid, "<media><vinyl/></media>").unwrap();
        let ok = run_capture(&["dtd", "--validate", valid.to_str().unwrap()]).unwrap();
        assert!(ok.contains("valid ("), "{ok}");
        let bad = run_capture(&["dtd", "--validate", invalid.to_str().unwrap()]).unwrap();
        assert!(bad.contains("vinyl"), "{bad}");
        let missing = run_capture(&["dtd", "--validate", "/nonexistent/file.xml"]);
        assert!(missing.is_err());
    }

    #[test]
    fn selectivity_reports_estimated_and_exact_values() {
        let output = run_capture(&[
            "selectivity",
            "--documents",
            "40",
            "--pattern",
            "//CD",
            "--pattern",
            "//book/author",
            "--summary",
            "sets",
        ])
        .unwrap();
        assert!(output.contains("//CD"));
        assert!(output.contains("//book/author"));
        assert!(output.contains("estimated"));
    }

    #[test]
    fn selectivity_requires_a_pattern() {
        let err = run_capture(&["selectivity", "--documents", "10"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::MissingOption(option)) if option == "pattern"
        ));
    }

    #[test]
    fn similarity_reports_all_three_metrics() {
        let output = run_capture(&[
            "similarity",
            "--documents",
            "40",
            "--pattern",
            "//CD",
            "--pattern",
            "//CD/title",
        ])
        .unwrap();
        assert!(output.contains("M1"));
        assert!(output.contains("M2"));
        assert!(output.contains("M3"));
    }

    #[test]
    fn similarity_with_many_patterns_prints_the_matrix() {
        let output = run_capture(&[
            "similarity",
            "--documents",
            "40",
            "--pattern",
            "//CD",
            "--pattern",
            "//CD/title",
            "--pattern",
            "//book",
            "--metric",
            "m3",
        ])
        .unwrap();
        assert!(output.contains("similarity matrix"), "{output}");
        assert!(output.contains("p0 = //CD"));
        assert!(output.contains("p2 = //book"));
        // Unit diagonal.
        assert!(output.contains("1.0000"));
    }

    #[test]
    fn threads_option_does_not_change_the_matrix() {
        let base = &[
            "similarity",
            "--documents",
            "40",
            "--pattern",
            "//CD",
            "--pattern",
            "//CD/title",
            "--pattern",
            "//book",
        ];
        let sequential = run_capture(base).unwrap();
        let mut with_threads = base.to_vec();
        with_threads.extend_from_slice(&["--threads", "4"]);
        let parallel = run_capture(&with_threads).unwrap();
        assert_eq!(parallel, sequential);
        assert!(sequential.contains("similarity matrix"));
    }

    #[test]
    fn invalid_threads_value_is_rejected() {
        let err = run_capture(&[
            "similarity",
            "--pattern",
            "//CD",
            "--pattern",
            "//a",
            "--pattern",
            "//b",
            "--threads",
            "lots",
        ])
        .unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "threads")
        );
    }

    #[test]
    fn similarity_index_reports_candidate_pairs() {
        let output = run_capture(&[
            "similarity",
            "--documents",
            "40",
            "--pattern",
            "//CD",
            "--pattern",
            "//CD",
            "--pattern",
            "//book",
            "--index",
            "16x1",
        ])
        .unwrap();
        assert!(output.contains("candidate pairs"), "{output}");
        assert!(output.contains("16 bands x 1 rows"), "{output}");
        // Identical patterns share every signature slot, so the duplicate
        // pair is always a candidate and scores exactly 1.
        assert!(output.contains("p0 ~ p1   1.0000"), "{output}");
    }

    #[test]
    fn similarity_index_rejects_malformed_banding() {
        let err = run_capture(&[
            "similarity",
            "--pattern",
            "//CD",
            "--pattern",
            "//a",
            "--pattern",
            "//b",
            "--index",
            "8by2",
        ])
        .unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "index")
        );
    }

    #[test]
    fn invalid_patterns_are_reported_with_their_text() {
        let err = run_capture(&[
            "similarity",
            "--pattern",
            "//CD",
            "--pattern",
            "not[[a pattern",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Pattern(msg) if msg.contains("not[[a pattern")));
    }

    #[test]
    fn cluster_reports_communities_and_quality() {
        let output = run_capture(&[
            "cluster",
            "--documents",
            "60",
            "--subscriptions",
            "12",
            "--algorithm",
            "leader",
            "--threshold",
            "0.5",
        ])
        .unwrap();
        assert!(output.contains("communities:"));
        assert!(output.contains("silhouette:"));
        assert!(output.contains("community 0"));
    }

    #[test]
    fn cluster_rejects_unknown_algorithms() {
        let err = run_capture(&["cluster", "--algorithm", "magic"]).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "algorithm")
        );
    }

    #[test]
    fn cluster_index_reports_the_candidate_workload() {
        let output = run_capture(&[
            "cluster",
            "--documents",
            "60",
            "--subscriptions",
            "12",
            "--algorithm",
            "leader",
            "--threshold",
            "0.5",
            "--index",
            "16x1",
        ])
        .unwrap();
        assert!(
            output.contains("candidate index: 16 bands x 1 rows"),
            "{output}"
        );
        // Only candidate leaders are scored: never more than the full
        // pairwise workload of 12 choose 2.
        let scored: usize = output
            .lines()
            .find_map(|line| line.strip_suffix(" of 66 pairs scored"))
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|count| count.parse().ok())
            .expect("the candidate index line reports the scored pairs");
        assert!(scored <= 66, "{output}");
        assert!(output.contains("communities:"), "{output}");
        assert!(output.contains("silhouette:"), "{output}");
        assert!(output.contains("community 0"), "{output}");
    }

    #[test]
    fn cluster_index_requires_the_leader_algorithm() {
        let err = run_capture(&["cluster", "--algorithm", "agglomerative", "--index"]).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "algorithm")
        );
    }

    #[test]
    fn lint_reproduces_example_1_1_as_a_w003_group() {
        let err = run_capture(&[
            "lint",
            "--dtd",
            "media",
            "--pattern",
            "/media/CD/*/last/Mozart",
            "--pattern",
            "//composer/last/Mozart",
            "--deny",
            "warnings",
        ])
        .unwrap_err();
        // Diagnostics were rendered before the failure was raised; the
        // harness only hands back the error, so re-run without --deny to
        // inspect the output.
        assert!(
            matches!(
                err,
                CliError::Lint {
                    errors: 0,
                    warnings: 1
                }
            ),
            "{err:?}"
        );
        let output = run_capture(&[
            "lint",
            "--dtd",
            "media",
            "--pattern",
            "/media/CD/*/last/Mozart",
            "--pattern",
            "//composer/last/Mozart",
        ])
        .unwrap();
        assert!(output.contains("warning[W003]"), "{output}");
        assert!(output.contains("Example 1.1"), "{output}");
        assert!(output.contains("compaction: keep"), "{output}");
    }

    #[test]
    fn lint_flags_unsatisfiable_patterns_as_errors() {
        let err = run_capture(&["lint", "--dtd", "media", "--pattern", "//CD/Mozart"]).unwrap_err();
        assert!(matches!(err, CliError::Lint { errors: 1, .. }), "{err:?}");
    }

    #[test]
    fn lint_emits_json_lines_on_request() {
        let output = run_capture(&[
            "lint",
            "--format",
            "json",
            "--pattern",
            "//CD",
            "--pattern",
            "//CD/title",
        ])
        .unwrap();
        let last = output.lines().last().unwrap();
        assert!(last.starts_with("{\"type\":\"summary\""), "{output}");
        let err = run_capture(&["lint", "--format", "yaml", "--pattern", "//CD"]).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "format")
        );
    }

    #[test]
    fn lint_reads_pattern_files_with_line_origins() {
        let dir = std::env::temp_dir().join("tps-cli-lint-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.patterns");
        std::fs::write(&path, "# comment\n//CD\n\n//CD/title\n//CD\n").unwrap();
        let err = run_capture(&[
            "lint",
            "--patterns-file",
            path.to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .unwrap_err();
        // //CD repeats (W003) and //CD/title is covered by //CD (W002).
        assert!(matches!(err, CliError::Lint { errors: 0, .. }), "{err:?}");
        let output = run_capture(&["lint", "--patterns-file", path.to_str().unwrap()]).unwrap();
        assert!(
            output.contains(&format!("{}:4", path.to_str().unwrap())),
            "{output}"
        );
        assert!(output.contains("warning[W002]"), "{output}");
        assert!(output.contains("warning[W003]"), "{output}");
    }

    #[test]
    fn lint_corpus_replay_reports_scanner_limit_violations_as_w005() {
        let dir = std::env::temp_dir().join("tps-cli-lint-corpus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.xml");
        // 513 nested elements: one past the scanner's default depth limit.
        let mut deep = String::new();
        for _ in 0..513 {
            deep.push_str("<a>");
        }
        for _ in 0..513 {
            deep.push_str("</a>");
        }
        std::fs::write(&path, format!("<ok/>\nnot xml\n{deep}\n")).unwrap();
        let err = run_capture(&[
            "lint",
            "--corpus",
            path.to_str().unwrap(),
            "--deny",
            "warnings",
        ])
        .unwrap_err();
        assert!(
            matches!(
                err,
                CliError::Lint {
                    errors: 0,
                    warnings: 1
                }
            ),
            "{err:?}"
        );
        // The diagnostic itself (with provenance) lands on stdout before
        // the failure; re-run through the writer to inspect it.
        let mut out = Vec::new();
        let _ = run(["lint", "--corpus", path.to_str().unwrap()], &mut out);
        let output = String::from_utf8(out).unwrap();
        assert!(output.contains("warning[W005]"), "{output}");
        assert!(output.contains("corpus line 3"), "{output}");
        assert!(
            output.contains("1 malformed document(s) skipped"),
            "{output}"
        );
    }

    #[test]
    fn lint_lenient_skips_unparsable_patterns() {
        let dir = std::env::temp_dir().join("tps-cli-lint-lenient-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.patterns");
        std::fs::write(&path, "//CD\nnot[[a pattern\n").unwrap();
        let strict = run_capture(&["lint", "--patterns-file", path.to_str().unwrap()]);
        assert!(matches!(strict, Err(CliError::Pattern(_))), "{strict:?}");
        let output = run_capture(&[
            "lint",
            "--patterns-file",
            path.to_str().unwrap(),
            "--lenient",
        ])
        .unwrap();
        assert!(output.contains("skipped unparsable pattern"), "{output}");
        assert!(output.contains("analysis: 1 pattern"), "{output}");
    }

    #[test]
    fn lint_requires_some_input() {
        let err = run_capture(&["lint"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::MissingOption(option)) if option == "pattern"
        ));
    }

    #[test]
    fn route_compares_forwarding_modes_and_overlay() {
        let output = run_capture(&[
            "route",
            "--documents",
            "40",
            "--subscriptions",
            "10",
            "--brokers",
            "5",
        ])
        .unwrap();
        assert!(output.contains("flooding"));
        assert!(output.contains("containment-pruned"));
        assert!(output.contains("semantic overlay"));
        assert!(output.contains("recall"));
    }

    #[test]
    fn route_index_builds_the_overlay_from_candidates() {
        let output = run_capture(&[
            "route",
            "--documents",
            "40",
            "--subscriptions",
            "10",
            "--brokers",
            "5",
            "--index",
        ])
        .unwrap();
        assert!(output.contains("semantic overlay"), "{output}");
        assert!(output.contains("candidate-indexed"), "{output}");
        assert!(output.contains("recall:"), "{output}");
    }

    #[test]
    fn route_analyze_prunes_tables_without_losing_recall() {
        let base = [
            "route",
            "--documents",
            "40",
            "--subscriptions",
            "10",
            "--brokers",
            "5",
        ];
        let plain = run_capture(&base).unwrap();
        let mut with_analyze = base.to_vec();
        with_analyze.push("--analyze");
        let analyzed = run_capture(&with_analyze).unwrap();
        let header = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("forwarding"))
                .unwrap()
                .to_string()
        };
        assert!(header(&analyzed).ends_with("pruned"), "{analyzed}");
        assert!(header(&plain).ends_with("recall"), "{plain}");
        // Compaction is delivery-preserving: every recall column stays 1.000
        // wherever the uncompacted run achieved it.
        for (left, right) in plain.lines().zip(analyzed.lines()) {
            if left.starts_with("exact") || left.starts_with("containment-pruned") {
                let recall = left.split_whitespace().nth(4).unwrap();
                assert_eq!(right.split_whitespace().nth(4).unwrap(), recall);
            }
        }
    }

    #[test]
    fn simulate_runs_a_churn_scenario_end_to_end() {
        let output = run_capture(&[
            "simulate",
            "--subscriptions",
            "8",
            "--publications",
            "20",
            "--brokers",
            "5",
            "--recluster",
            "periodic:200",
            "--seed",
            "4",
        ])
        .unwrap();
        assert!(output.contains("churn scenario over media"), "{output}");
        assert!(output.contains("recluster: periodic:200"), "{output}");
        assert!(output.contains("published 20 documents"), "{output}");
        assert!(output.contains("link precision"), "{output}");
    }

    #[test]
    fn simulate_is_bit_identical_per_seed() {
        let args = [
            "simulate",
            "--subscriptions",
            "6",
            "--publications",
            "15",
            "--seed",
            "9",
        ];
        let first = run_capture(&args).unwrap();
        let second = run_capture(&args).unwrap();
        assert_eq!(first, second);
        let mut other_seed = args.to_vec();
        other_seed[6] = "10";
        assert_ne!(run_capture(&other_seed).unwrap(), first);
    }

    #[test]
    fn simulate_analyze_knob_reports_pruned_entries() {
        let output = run_capture(&[
            "simulate",
            "--subscriptions",
            "8",
            "--publications",
            "20",
            "--analyze",
            "--seed",
            "4",
        ])
        .unwrap();
        assert!(output.contains("entries pruned"), "{output}");
    }

    #[test]
    fn simulate_steady_scenario_has_no_churn() {
        let output = run_capture(&[
            "simulate",
            "--scenario",
            "steady",
            "--subscriptions",
            "6",
            "--publications",
            "10",
        ])
        .unwrap();
        assert!(output.contains("0 arrivals, 0 departures"), "{output}");
        assert!(
            output.contains("churn: 0 subscribes, 0 unsubscribes"),
            "{output}"
        );
    }

    #[test]
    fn simulate_rejects_bad_options() {
        let err = run_capture(&["simulate", "--scenario", "chaos"]).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "scenario")
        );
        let err = run_capture(&["simulate", "--recluster", "sometimes"]).unwrap_err();
        assert!(
            matches!(&err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "recluster"),
            "{err:?}"
        );
        let err = run_capture(&["simulate", "--forwarding", "teleport"]).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgsError::InvalidValue { option, .. }) if option == "forwarding")
        );
    }

    #[test]
    fn simulate_index_knob_is_reported_and_runs() {
        let output = run_capture(&[
            "simulate",
            "--scenario",
            "steady",
            "--subscriptions",
            "6",
            "--publications",
            "10",
            "--index",
        ])
        .unwrap();
        assert!(output.contains("index: 8 bands x 2 rows"), "{output}");
        assert!(output.contains("link precision"), "{output}");
    }

    #[test]
    fn help_mentions_the_simulate_command() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("simulate"));
        assert!(output.contains("--recluster"));
    }

    #[test]
    fn synopsis_build_reads_a_file_and_reports_sizes() {
        let dir = std::env::temp_dir().join("tps-cli-synopsis-build-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("docs.xml");
        // Generate a corpus with the CLI itself, one document per line.
        let corpus = run_capture(&["generate", "--documents", "30", "--seed", "3"]).unwrap();
        std::fs::write(&path, corpus).unwrap();
        let output = run_capture(&[
            "synopsis",
            "build",
            "--input",
            path.to_str().unwrap(),
            "--summary",
            "hashes",
            "--capacity",
            "64",
        ])
        .unwrap();
        assert!(output.contains("documents: 30"), "{output}");
        assert!(output.contains("representation: Hashes"));
        assert!(output.contains("total size |HS|:"));
    }

    #[test]
    fn synopsis_build_is_shard_count_independent() {
        let dir = std::env::temp_dir().join("tps-cli-synopsis-shards-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("docs.xml");
        let corpus = run_capture(&["generate", "--documents", "40", "--seed", "9"]).unwrap();
        std::fs::write(&path, corpus).unwrap();
        let base = ["synopsis", "build", "--input"];
        let one = run_capture(&[&base[..], &[path.to_str().unwrap(), "--threads", "1"]].concat())
            .unwrap();
        let four = run_capture(&[&base[..], &[path.to_str().unwrap(), "--threads", "4"]].concat())
            .unwrap();
        // Shard count is echoed, everything else is identical.
        assert_eq!(
            one.replace("build shards: 1", ""),
            four.replace("build shards: 4", "")
        );
        let dumped = run_capture(
            &[
                &base[..],
                &[path.to_str().unwrap(), "--dump", "--threads", "2"],
            ]
            .concat(),
        )
        .unwrap();
        assert!(dumped.contains("/."), "{dumped}");
    }

    #[test]
    fn synopsis_build_rejects_bad_inputs_and_actions() {
        let err = run_capture(&["synopsis", "build"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::MissingOption(option)) if option == "input"
        ));
        let err = run_capture(&["synopsis", "destroy"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::InvalidValue { .. })
        ));
        let err = run_capture(&["synopsis"]).unwrap_err();
        // The message must point at the missing positional action, not at a
        // fictional --build option.
        assert!(err.to_string().contains("tps synopsis build"), "{err}");
        let err =
            run_capture(&["synopsis", "build", "--input", "/nonexistent/docs.xml"]).unwrap_err();
        assert!(matches!(err, CliError::Stream(msg) if msg.contains("/nonexistent/docs.xml")));
    }

    #[test]
    fn synopsis_build_reports_parse_errors() {
        let dir = std::env::temp_dir().join("tps-cli-synopsis-parse-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.xml");
        std::fs::write(&path, "<a/>\n<oops\n").unwrap();
        let err =
            run_capture(&["synopsis", "build", "--input", path.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Stream(msg) if msg.contains("document 1")));
    }

    #[test]
    fn help_mentions_the_synopsis_command() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("synopsis build"));
        assert!(output.contains("--input"));
    }

    #[test]
    fn error_display_is_human_readable() {
        let err = CliError::Pattern("boom".into());
        assert!(err.to_string().contains("boom"));
        let err: CliError = ArgsError::MissingCommand.into();
        assert!(err.to_string().contains("subcommand"));
    }

    #[test]
    fn broker_requires_a_known_action_word() {
        for argv in [&["broker"][..], &["broker", "dance"][..]] {
            let err = run_capture(argv).unwrap_err();
            assert!(matches!(
                err,
                CliError::Args(ArgsError::InvalidValue { .. })
            ));
            assert!(err.to_string().contains("serve"), "{err}");
        }
    }

    #[test]
    fn broker_bench_rejects_bad_options() {
        let err = run_capture(&["broker", "bench", "--transport", "pigeon"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::InvalidValue { .. })
        ));
        let err = run_capture(&["broker", "bench", "--scenario", "calm"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::InvalidValue { .. })
        ));
        let err = run_capture(&["broker", "bench", "--forwarding", "psychic"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::Args(ArgsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn broker_bench_drives_a_small_live_overlay() {
        let output = run_capture(&[
            "broker",
            "bench",
            "--brokers",
            "3",
            "--subscribers",
            "4",
            "--publications",
            "5",
            "--arrivals",
            "1",
            "--departures",
            "1",
            "--transport",
            "unix",
        ])
        .unwrap();
        assert!(output.contains("overlay bench: 3 brokers"), "{output}");
        assert!(output.contains("publish latency"), "{output}");
        assert!(output.contains("shutdown: clean"), "{output}");
    }

    #[test]
    fn broker_serve_stops_on_the_wire_shutdown_verb() {
        use std::sync::{Arc, Mutex};
        use std::time::{Duration, Instant};

        // `serve` blocks until a shutdown verb arrives, so it runs on a
        // helper thread writing into a buffer both sides can read.
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut writer = buf.clone();
        let server = std::thread::spawn(move || run(["broker", "serve"], &mut writer));

        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(line) = text
                .lines()
                .find(|line| line.contains("listening on tcp://"))
            {
                let raw = line
                    .split("tcp://")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .unwrap();
                break tps_net::Addr::Tcp(raw.parse().unwrap());
            }
            assert!(Instant::now() < deadline, "no address line yet: {text:?}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut client =
            tps_net::BrokerClient::connect(&addr, tps_net::FrameLimits::default()).unwrap();
        client.shutdown_broker().unwrap();
        server.join().unwrap().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("shutdown: clean"), "{text}");
    }

    #[test]
    fn help_mentions_the_broker_command() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("broker serve"));
        assert!(output.contains("broker bench"));
        assert!(output.contains("--scenario churn|failover"));
    }
}
