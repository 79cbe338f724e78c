//! [`ScenarioSpec`]: the typed, validated description of one engine run, and the
//! schema that maps scenario TOML onto it.
//!
//! The spec is the **single front door** to the engine: every knob a scenario can
//! set flows through [`ScenarioSpec::into_engine_config`], which refuses invalid
//! combinations with a typed [`ScenarioError`] instead of clamping them — the
//! same no-silent-repair contract
//! [`EngineConfig::validate`](faultline_engine::EngineConfig::validate)
//! establishes, extended up to the file format with line-accurate diagnostics.
//!
//! # Schema
//!
//! | Section | Key | Type | Default |
//! |---|---|---|---|
//! | `[scenario]` | `name` | string | *(required)* |
//! | | `seed` | integer | `2002` |
//! | `[network]` | `nodes` | integer or `"2^k"` string | *(required)* |
//! | | `links` | integer | `⌈lg nodes⌉` |
//! | | `seed` | integer | scenario seed |
//! | | `strategy` | `"terminate"` / `"backtrack"` / `"reroute"` | `"terminate"` |
//! | | `construction` | `"incremental"` / `"ideal"` | `"incremental"` |
//! | `[workload]` | `queries_per_epoch` | integer | *(required)* |
//! | | `epochs` | integer | *(required)* |
//! | | `seed` | integer | scenario seed |
//! | | `skew` | `"uniform"` / `"zipf"` / `"hotspot-pair"` / `"flash-crowd"` / `"diurnal"` | `"uniform"` |
//! | | `zipf_exponent` | float (zipf only) | `1.0` |
//! | | `hotspots`, `bias` | integer, float (hotspot-pair only) | `8`, `0.8` |
//! | | `peak` | float (flash-crowd only) | `0.9` |
//! | | `amplitude`, `period` | float, integer (diurnal only) | `0.5`, `8` |
//! | `[churn]` | `fraction` *or* `events_per_epoch` | float / integer | *(one required)* |
//! | | `join_probability` | float | engine default (`0.5`) |
//! | | `adversarial_joins` | float | `0.0` |
//! | `[engine]` | `threads`, `cache_capacity` | integer | engine defaults |
//! | | `telemetry` | boolean | engine default |
//! | `[byzantine]` | `fraction` | float | *(required in section)* |
//! | | `seed` | integer | scenario seed `^ 0xB52A` |
//! | | `redundancy` | integer | engine default |
//! | | `strategy` | strategy string | engine default |
//! | `[failures]` | `events` | array of `"quiet"` / `"heal"` / `"region:W"` / `"partition:W"` | *(required in section)* |
//! | | `retries` | integer | engine default (`2`) |
//!
//! `[churn]`, `[engine]`, `[byzantine]`, and `[failures]` are optional sections;
//! omitting them means no churn, engine defaults, no adversary, and no failure
//! schedule respectively.

use crate::error::ScenarioError;
use crate::skew::QuerySkew;
use crate::toml::{self, Document, Entry, Section, Value};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ByzantineConfig, ChurnMix, EngineConfig, FailureEvent, FailureSchedule, InterleavedReport,
    QueryEngine,
};
use faultline_routing::FaultStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Master-seed default when a file omits `[scenario] seed` — the paper's year,
/// matching the bench's own default seed so terse files land on familiar runs.
pub const DEFAULT_SEED: u64 = 2002;

/// Salt folded into the scenario seed to derive the default byzantine sampling
/// seed — the same derivation the hard-coded byzantine bench arm uses.
pub const BYZANTINE_SEED_SALT: u64 = 0xB52A;

/// The overlay a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Grid points in the overlay (`≥ 2`).
    pub nodes: u64,
    /// Long-distance links per node; `None` keeps
    /// [`NetworkConfig::paper_default`]'s `⌈lg nodes⌉`.
    pub links: Option<usize>,
    /// Seed for the network-construction RNG.
    pub seed: u64,
    /// Dead-end handling strategy baked into the overlay's routers.
    pub strategy: FaultStrategy,
    /// Ideal sampling or the Section 5 incremental-arrival heuristic.
    pub construction: ConstructionMode,
}

/// The traffic a scenario puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Nominal queries per routing epoch (`≥ 1`; diurnal skew modulates it).
    pub queries_per_epoch: usize,
    /// Routing epochs in the run (`≥ 1`).
    pub epochs: usize,
    /// Master seed of the interleaved run (per-epoch batch seeds derive from it).
    pub seed: u64,
    /// How `(source, target)` pairs are distributed.
    pub skew: QuerySkew,
}

/// How much churn volume a scenario applies per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnVolume {
    /// Churn touching this fraction of the *current* alive population each epoch.
    Fraction(f64),
    /// A fixed number of join/leave events per epoch.
    EventsPerEpoch(usize),
}

/// The churn mix applied between routing epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Fractional or absolute event volume.
    pub volume: ChurnVolume,
    /// Probability an event is a join; `None` keeps the balanced default.
    pub join_probability: Option<f64>,
    /// Probability a joining node is conscripted into the adversary set.
    pub adversarial_joins: Option<f64>,
}

/// Engine knobs a scenario overrides; `None` fields keep
/// [`EngineConfig::default`]'s value, so an empty `[engine]` section *is* the
/// default engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineSpec {
    /// Worker threads (`0` = available parallelism).
    pub threads: Option<usize>,
    /// Per-shard route-cache capacity (`0` disables caching).
    pub cache_capacity: Option<usize>,
    /// Telemetry recording.
    pub telemetry: Option<bool>,
}

/// The adversarial lane of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineSpec {
    /// Fraction of alive nodes corrupted (`[0, 1]`).
    pub fraction: f64,
    /// Seed of the corruption sample.
    pub seed: u64,
    /// Diversified walks per lookup; `None` keeps the engine default.
    pub redundancy: Option<u32>,
    /// Strategy override for the redundant router.
    pub strategy: Option<FaultStrategy>,
}

/// The correlated-failure schedule of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSpec {
    /// The cyclic event list (`epoch i` applies `events[i % len]`).
    pub events: Vec<FailureEvent>,
    /// Per-lookup retry budget while damaged; `None` keeps the engine default.
    pub retries: Option<u32>,
}

/// A complete, validated scenario: one engine run described declaratively.
///
/// Obtain one with [`ScenarioSpec::parse`]; everything a file can express is
/// public here, so programmatic construction works too (rendering via
/// [`ScenarioSpec::render`] round-trips either way).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name — becomes the `scenarios.<name>` key in bench JSON.
    pub name: String,
    /// The master seed defaults derive from.
    pub seed: u64,
    /// The overlay.
    pub network: NetworkSpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// Churn between epochs (`None` = static membership).
    pub churn: Option<ChurnSpec>,
    /// Engine overrides.
    pub engine: EngineSpec,
    /// The adversarial lane (`None` = honest run).
    pub byzantine: Option<ByzantineSpec>,
    /// Correlated failures (`None` = no damage, no oracle accounting).
    pub failures: Option<FailureSpec>,
}

impl ScenarioSpec {
    /// Parses and schema-checks one scenario file.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`] variant except [`ScenarioError::Config`] (that one
    /// is deferred to [`ScenarioSpec::into_engine_config`], which validates the
    /// assembled engine configuration as a whole).
    pub fn parse(source: &str) -> Result<Self, ScenarioError> {
        let document = toml::parse(source)?;
        Self::from_document(&document)
    }

    fn from_document(document: &Document) -> Result<Self, ScenarioError> {
        reject_duplicate_sections(document)?;
        for section in &document.sections {
            if !KNOWN_SECTIONS.contains(&section.name.as_str()) {
                return Err(ScenarioError::UnknownSection {
                    line: section.line,
                    section: section.name.clone(),
                });
            }
            reject_duplicate_keys(section)?;
        }
        let (name, seed) = parse_scenario(document)?;
        let network = parse_network(document, seed)?;
        let workload = parse_workload(document, seed)?;
        let churn = parse_churn(document)?;
        let engine = parse_engine(document)?;
        let byzantine = parse_byzantine(document, seed)?;
        let failures = parse_failures(document)?;
        Ok(Self {
            name,
            seed,
            network,
            workload,
            churn,
            engine,
            byzantine,
            failures,
        })
    }

    /// The overlay configuration this scenario builds.
    #[must_use]
    pub fn network_config(&self) -> NetworkConfig {
        let mut config = NetworkConfig::paper_default(self.network.nodes);
        if let Some(links) = self.network.links {
            config = config.links_per_node(links);
        }
        config
            .construction(self.network.construction)
            .fault_strategy(self.network.strategy)
    }

    /// Builds the scenario's overlay from its network seed.
    #[must_use]
    pub fn build_network(&self) -> Network {
        let mut rng = StdRng::seed_from_u64(self.network.seed);
        Network::build(&self.network_config(), &mut rng)
    }

    /// The churn mix the interleaved run applies ([`ChurnMix::balanced`]`(0)` —
    /// i.e. none — when the scenario has no `[churn]` section).
    #[must_use]
    pub fn churn_mix(&self) -> ChurnMix {
        match &self.churn {
            None => ChurnMix::balanced(0),
            Some(churn) => {
                let mut mix = match churn.volume {
                    ChurnVolume::Fraction(fraction) => {
                        ChurnMix::fraction_of(self.network.nodes, fraction)
                    }
                    ChurnVolume::EventsPerEpoch(events) => ChurnMix::balanced(events),
                };
                if let Some(p) = churn.join_probability {
                    mix.join_probability = p;
                }
                if let Some(p) = churn.adversarial_joins {
                    mix = mix.adversarial_joins(p);
                }
                mix
            }
        }
    }

    /// Assembles the engine configuration — **the** validated construction path.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] when
    /// [`EngineConfig::validate_for_epochs`] rejects the assembled whole
    /// (byzantine domain, schedule length vs the run's epochs).
    pub fn into_engine_config(self) -> Result<EngineConfig, ScenarioError> {
        let mut config = EngineConfig::default();
        if let Some(threads) = self.engine.threads {
            config = config.threads(threads);
        }
        if let Some(capacity) = self.engine.cache_capacity {
            config = config.cache_capacity(capacity);
        }
        if let Some(enabled) = self.engine.telemetry {
            config = config.telemetry(enabled);
        }
        if let Some(byzantine) = &self.byzantine {
            let mut lane = ByzantineConfig::fraction(byzantine.fraction, byzantine.seed);
            if let Some(redundancy) = byzantine.redundancy {
                lane = lane.redundancy(redundancy);
            }
            if let Some(strategy) = byzantine.strategy {
                lane = lane.strategy(strategy);
            }
            config = config.byzantine(lane);
        }
        if let Some(failures) = &self.failures {
            let mut schedule = FailureSchedule::from_events(failures.events.clone());
            if let Some(retries) = failures.retries {
                schedule = schedule.retries(retries);
            }
            config = config.failures(schedule);
        }
        config.validate_for_epochs(self.workload.epochs)?;
        Ok(config)
    }

    /// Builds the overlay, assembles the engine, and runs the scenario's full
    /// churn-interleaved trajectory with its skewed workload.
    ///
    /// A `skew = "uniform"` scenario reproduces
    /// [`QueryEngine::run_interleaved`] bit for bit for the same seeds.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] when the assembled engine configuration is
    /// invalid (see [`ScenarioSpec::into_engine_config`]).
    pub fn run(&self) -> Result<InterleavedReport, ScenarioError> {
        let config = self.clone().into_engine_config()?;
        let mut network = self.build_network();
        let mut engine = QueryEngine::new(config);
        let skew = self.workload.skew;
        let report = engine.run_interleaved_with(
            &mut network,
            self.workload.epochs,
            self.workload.queries_per_epoch,
            self.churn_mix(),
            self.workload.seed,
            &mut |network, context| skew.batch(network, context),
        );
        Ok(report)
    }

    /// Renders the spec as canonical scenario TOML: every resolved value written
    /// explicitly, sections in schema order. `parse(render(spec))` reproduces
    /// the spec exactly — the golden round-trip the fixture tests pin.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", render_string(&self.name));
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "\n[network]");
        let _ = writeln!(out, "nodes = {}", self.network.nodes);
        if let Some(links) = self.network.links {
            let _ = writeln!(out, "links = {links}");
        }
        let _ = writeln!(out, "seed = {}", self.network.seed);
        let _ = writeln!(
            out,
            "strategy = \"{}\"",
            strategy_label(self.network.strategy)
        );
        let construction = match self.network.construction {
            ConstructionMode::Ideal => "ideal",
            ConstructionMode::Incremental { .. } => "incremental",
        };
        let _ = writeln!(out, "construction = \"{construction}\"");
        let _ = writeln!(out, "\n[workload]");
        let _ = writeln!(
            out,
            "queries_per_epoch = {}",
            self.workload.queries_per_epoch
        );
        let _ = writeln!(out, "epochs = {}", self.workload.epochs);
        let _ = writeln!(out, "seed = {}", self.workload.seed);
        match self.workload.skew {
            QuerySkew::Uniform => {
                let _ = writeln!(out, "skew = \"uniform\"");
            }
            QuerySkew::Zipf { exponent } => {
                let _ = writeln!(out, "skew = \"zipf\"");
                let _ = writeln!(out, "zipf_exponent = {exponent:?}");
            }
            QuerySkew::HotspotPair { hotspots, bias } => {
                let _ = writeln!(out, "skew = \"hotspot-pair\"");
                let _ = writeln!(out, "hotspots = {hotspots}");
                let _ = writeln!(out, "bias = {bias:?}");
            }
            QuerySkew::FlashCrowd { peak } => {
                let _ = writeln!(out, "skew = \"flash-crowd\"");
                let _ = writeln!(out, "peak = {peak:?}");
            }
            QuerySkew::Diurnal { amplitude, period } => {
                let _ = writeln!(out, "skew = \"diurnal\"");
                let _ = writeln!(out, "amplitude = {amplitude:?}");
                let _ = writeln!(out, "period = {period}");
            }
        }
        if let Some(churn) = &self.churn {
            let _ = writeln!(out, "\n[churn]");
            match churn.volume {
                ChurnVolume::Fraction(fraction) => {
                    let _ = writeln!(out, "fraction = {fraction:?}");
                }
                ChurnVolume::EventsPerEpoch(events) => {
                    let _ = writeln!(out, "events_per_epoch = {events}");
                }
            }
            if let Some(p) = churn.join_probability {
                let _ = writeln!(out, "join_probability = {p:?}");
            }
            if let Some(p) = churn.adversarial_joins {
                let _ = writeln!(out, "adversarial_joins = {p:?}");
            }
        }
        if self.engine != EngineSpec::default() {
            let _ = writeln!(out, "\n[engine]");
            if let Some(threads) = self.engine.threads {
                let _ = writeln!(out, "threads = {threads}");
            }
            if let Some(capacity) = self.engine.cache_capacity {
                let _ = writeln!(out, "cache_capacity = {capacity}");
            }
            if let Some(enabled) = self.engine.telemetry {
                let _ = writeln!(out, "telemetry = {enabled}");
            }
        }
        if let Some(byzantine) = &self.byzantine {
            let _ = writeln!(out, "\n[byzantine]");
            let _ = writeln!(out, "fraction = {:?}", byzantine.fraction);
            let _ = writeln!(out, "seed = {}", byzantine.seed);
            if let Some(redundancy) = byzantine.redundancy {
                let _ = writeln!(out, "redundancy = {redundancy}");
            }
            if let Some(strategy) = byzantine.strategy {
                let _ = writeln!(out, "strategy = \"{}\"", strategy_label(strategy));
            }
        }
        if let Some(failures) = &self.failures {
            let _ = writeln!(out, "\n[failures]");
            let events: Vec<String> = failures
                .events
                .iter()
                .map(|event| format!("\"{}\"", event_label(*event)))
                .collect();
            let _ = writeln!(out, "events = [{}]", events.join(", "));
            if let Some(retries) = failures.retries {
                let _ = writeln!(out, "retries = {retries}");
            }
        }
        out
    }
}

const KNOWN_SECTIONS: [&str; 7] = [
    "scenario",
    "network",
    "workload",
    "churn",
    "engine",
    "byzantine",
    "failures",
];

fn strategy_label(strategy: FaultStrategy) -> &'static str {
    match strategy {
        FaultStrategy::Terminate => "terminate",
        FaultStrategy::Backtrack { .. } => "backtrack",
        FaultStrategy::RandomReroute { .. } => "reroute",
    }
}

fn event_label(event: FailureEvent) -> String {
    match event {
        FailureEvent::Quiet => "quiet".to_owned(),
        FailureEvent::Heal => "heal".to_owned(),
        FailureEvent::Region { width } => format!("region:{width}"),
        FailureEvent::Partition { width } => format!("partition:{width}"),
    }
}

fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Schema checks shared by every section.
// ---------------------------------------------------------------------------

fn reject_duplicate_sections(document: &Document) -> Result<(), ScenarioError> {
    for (i, section) in document.sections.iter().enumerate() {
        if document.sections[..i]
            .iter()
            .any(|s| s.name == section.name)
        {
            return Err(ScenarioError::Duplicate {
                line: section.line,
                name: section.name.clone(),
            });
        }
    }
    Ok(())
}

fn reject_duplicate_keys(section: &Section) -> Result<(), ScenarioError> {
    for (i, entry) in section.entries.iter().enumerate() {
        if section.entries[..i].iter().any(|e| e.key == entry.key) {
            return Err(ScenarioError::Duplicate {
                line: entry.line,
                name: format!("{}.{}", section.name, entry.key),
            });
        }
    }
    Ok(())
}

fn reject_unknown_keys(section: &Section, known: &[&str]) -> Result<(), ScenarioError> {
    for entry in &section.entries {
        if !known.contains(&entry.key.as_str()) {
            return Err(ScenarioError::UnknownKey {
                line: entry.line,
                section: section.name.clone(),
                key: entry.key.clone(),
            });
        }
    }
    Ok(())
}

fn expect_str(entry: &Entry) -> Result<&str, ScenarioError> {
    match &entry.value {
        Value::String(s) => Ok(s),
        other => Err(mismatch(entry, "string", other)),
    }
}

fn expect_bool(entry: &Entry) -> Result<bool, ScenarioError> {
    match entry.value {
        Value::Bool(b) => Ok(b),
        ref other => Err(mismatch(entry, "boolean", other)),
    }
}

fn expect_u64(entry: &Entry) -> Result<u64, ScenarioError> {
    match entry.value {
        Value::Integer(i) if i >= 0 => Ok(i as u64),
        Value::Integer(_) => Err(invalid(entry, "must be non-negative")),
        ref other => Err(mismatch(entry, "integer", other)),
    }
}

fn expect_usize(entry: &Entry) -> Result<usize, ScenarioError> {
    expect_u64(entry).map(|v| v as usize)
}

fn expect_u32(entry: &Entry) -> Result<u32, ScenarioError> {
    let value = expect_u64(entry)?;
    u32::try_from(value).map_err(|_| invalid(entry, "does not fit in 32 bits"))
}

/// Floats also accept integer literals (`1` reads as `1.0`).
fn expect_f64(entry: &Entry) -> Result<f64, ScenarioError> {
    match entry.value {
        Value::Float(f) => Ok(f),
        Value::Integer(i) => Ok(i as f64),
        ref other => Err(mismatch(entry, "float", other)),
    }
}

fn expect_unit_fraction(entry: &Entry) -> Result<f64, ScenarioError> {
    let value = expect_f64(entry)?;
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(invalid(entry, "must lie in [0, 1]"))
    }
}

fn mismatch(entry: &Entry, expected: &'static str, found: &Value) -> ScenarioError {
    ScenarioError::TypeMismatch {
        line: entry.line,
        key: entry.key.clone(),
        expected,
        found: found.type_name(),
    }
}

fn invalid(entry: &Entry, message: &str) -> ScenarioError {
    ScenarioError::InvalidValue {
        line: entry.line,
        key: entry.key.clone(),
        message: message.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Per-section parsers.
// ---------------------------------------------------------------------------

fn parse_scenario(document: &Document) -> Result<(String, u64), ScenarioError> {
    let Some(section) = document.section("scenario") else {
        return Err(ScenarioError::MissingKey {
            section: "scenario",
            key: "name",
        });
    };
    reject_unknown_keys(section, &["name", "seed"])?;
    let name_entry = section.get("name").ok_or(ScenarioError::MissingKey {
        section: "scenario",
        key: "name",
    })?;
    let name = expect_str(name_entry)?;
    if name.is_empty() {
        return Err(invalid(name_entry, "scenario name must not be empty"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(invalid(
            name_entry,
            "scenario names use letters, digits, `_` and `-` only (they become JSON keys)",
        ));
    }
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => DEFAULT_SEED,
    };
    Ok((name.to_string(), seed))
}

fn parse_nodes(entry: &Entry) -> Result<u64, ScenarioError> {
    let nodes = match &entry.value {
        Value::Integer(_) => expect_u64(entry)?,
        Value::String(s) => {
            let Some(exponent) = s.strip_prefix("2^") else {
                return Err(invalid(entry, "string form must be \"2^k\""));
            };
            let exponent: u32 = exponent
                .parse()
                .map_err(|_| invalid(entry, "string form must be \"2^k\" with integer k"))?;
            if exponent >= 63 {
                return Err(invalid(entry, "2^k with k ≥ 63 overflows the node space"));
            }
            1u64 << exponent
        }
        other => return Err(mismatch(entry, "integer", other)),
    };
    if nodes < 2 {
        return Err(invalid(entry, "an overlay needs at least two grid points"));
    }
    Ok(nodes)
}

fn parse_strategy(entry: &Entry) -> Result<FaultStrategy, ScenarioError> {
    match expect_str(entry)? {
        "terminate" => Ok(FaultStrategy::Terminate),
        "backtrack" => Ok(FaultStrategy::paper_backtrack()),
        "reroute" => Ok(FaultStrategy::single_reroute()),
        _ => Err(invalid(
            entry,
            "must be \"terminate\", \"backtrack\", or \"reroute\"",
        )),
    }
}

fn parse_network(document: &Document, scenario_seed: u64) -> Result<NetworkSpec, ScenarioError> {
    let Some(section) = document.section("network") else {
        return Err(ScenarioError::MissingKey {
            section: "network",
            key: "nodes",
        });
    };
    reject_unknown_keys(
        section,
        &["nodes", "links", "seed", "strategy", "construction"],
    )?;
    let nodes_entry = section.get("nodes").ok_or(ScenarioError::MissingKey {
        section: "network",
        key: "nodes",
    })?;
    let nodes = parse_nodes(nodes_entry)?;
    let links = match section.get("links") {
        Some(entry) => {
            let links = expect_usize(entry)?;
            if links == 0 {
                return Err(invalid(entry, "a node needs at least one long link"));
            }
            Some(links)
        }
        None => None,
    };
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed,
    };
    let strategy = match section.get("strategy") {
        Some(entry) => parse_strategy(entry)?,
        None => FaultStrategy::Terminate,
    };
    let construction = match section.get("construction") {
        Some(entry) => match expect_str(entry)? {
            "incremental" => ConstructionMode::incremental_default(),
            "ideal" => ConstructionMode::Ideal,
            _ => return Err(invalid(entry, "must be \"incremental\" or \"ideal\"")),
        },
        None => ConstructionMode::incremental_default(),
    };
    Ok(NetworkSpec {
        nodes,
        links,
        seed,
        strategy,
        construction,
    })
}

fn parse_workload(document: &Document, scenario_seed: u64) -> Result<WorkloadSpec, ScenarioError> {
    let Some(section) = document.section("workload") else {
        return Err(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        });
    };
    reject_unknown_keys(
        section,
        &[
            "queries_per_epoch",
            "epochs",
            "seed",
            "skew",
            "zipf_exponent",
            "hotspots",
            "bias",
            "peak",
            "amplitude",
            "period",
        ],
    )?;
    let queries_entry = section
        .get("queries_per_epoch")
        .ok_or(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        })?;
    let queries_per_epoch = expect_usize(queries_entry)?;
    if queries_per_epoch == 0 {
        return Err(invalid(
            queries_entry,
            "an epoch must route at least one query",
        ));
    }
    let epochs_entry = section.get("epochs").ok_or(ScenarioError::MissingKey {
        section: "workload",
        key: "epochs",
    })?;
    let epochs = expect_usize(epochs_entry)?;
    if epochs == 0 {
        return Err(invalid(epochs_entry, "a run needs at least one epoch"));
    }
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed,
    };
    let skew_name = match section.get("skew") {
        Some(entry) => expect_str(entry)?,
        None => "uniform",
    };
    // Each skew admits exactly its own parameter keys; a parameter for a skew
    // that is not active is a hard error, not dead weight silently carried.
    let allowed: &[&str] = match skew_name {
        "uniform" => &[],
        "zipf" => &["zipf_exponent"],
        "hotspot-pair" => &["hotspots", "bias"],
        "flash-crowd" => &["peak"],
        "diurnal" => &["amplitude", "period"],
        _ => {
            let entry = section.get("skew").expect("skew key present when named");
            return Err(invalid(
                entry,
                "must be \"uniform\", \"zipf\", \"hotspot-pair\", \"flash-crowd\", or \"diurnal\"",
            ));
        }
    };
    for key in [
        "zipf_exponent",
        "hotspots",
        "bias",
        "peak",
        "amplitude",
        "period",
    ] {
        if let Some(entry) = section.get(key) {
            if !allowed.contains(&key) {
                return Err(ScenarioError::InvalidValue {
                    line: entry.line,
                    key: key.to_string(),
                    message: format!(
                        "only meaningful for a skew that uses it, not \"{skew_name}\""
                    ),
                });
            }
        }
    }
    let skew = match skew_name {
        "uniform" => QuerySkew::Uniform,
        "zipf" => {
            let exponent = match section.get("zipf_exponent") {
                Some(entry) => {
                    let exponent = expect_f64(entry)?;
                    if exponent <= 0.0 {
                        return Err(invalid(entry, "must be positive"));
                    }
                    exponent
                }
                None => 1.0,
            };
            QuerySkew::Zipf { exponent }
        }
        "hotspot-pair" => {
            let hotspots = match section.get("hotspots") {
                Some(entry) => {
                    let hotspots = expect_usize(entry)?;
                    if hotspots == 0 {
                        return Err(invalid(entry, "needs at least one hotspot"));
                    }
                    hotspots
                }
                None => 8,
            };
            let bias = match section.get("bias") {
                Some(entry) => expect_unit_fraction(entry)?,
                None => 0.8,
            };
            QuerySkew::HotspotPair { hotspots, bias }
        }
        "flash-crowd" => {
            let peak = match section.get("peak") {
                Some(entry) => expect_unit_fraction(entry)?,
                None => 0.9,
            };
            QuerySkew::FlashCrowd { peak }
        }
        "diurnal" => {
            let amplitude = match section.get("amplitude") {
                Some(entry) => expect_unit_fraction(entry)?,
                None => 0.5,
            };
            let period = match section.get("period") {
                Some(entry) => {
                    let period = expect_usize(entry)?;
                    if period == 0 {
                        return Err(invalid(entry, "a cycle needs at least one epoch"));
                    }
                    period
                }
                None => 8,
            };
            QuerySkew::Diurnal { amplitude, period }
        }
        _ => unreachable!("unknown skews rejected above"),
    };
    Ok(WorkloadSpec {
        queries_per_epoch,
        epochs,
        seed,
        skew,
    })
}

fn parse_churn(document: &Document) -> Result<Option<ChurnSpec>, ScenarioError> {
    let Some(section) = document.section("churn") else {
        return Ok(None);
    };
    reject_unknown_keys(
        section,
        &[
            "fraction",
            "events_per_epoch",
            "join_probability",
            "adversarial_joins",
        ],
    )?;
    let fraction = section.get("fraction");
    let events = section.get("events_per_epoch");
    let volume = match (fraction, events) {
        (Some(f), Some(e)) => {
            let later = if e.line > f.line { e } else { f };
            return Err(invalid(
                later,
                "give either `fraction` or `events_per_epoch`, not both",
            ));
        }
        (Some(entry), None) => ChurnVolume::Fraction(expect_unit_fraction(entry)?),
        (None, Some(entry)) => ChurnVolume::EventsPerEpoch(expect_usize(entry)?),
        (None, None) => {
            return Err(ScenarioError::MissingKey {
                section: "churn",
                key: "fraction` or `events_per_epoch",
            })
        }
    };
    let join_probability = match section.get("join_probability") {
        Some(entry) => Some(expect_unit_fraction(entry)?),
        None => None,
    };
    let adversarial_joins = match section.get("adversarial_joins") {
        Some(entry) => Some(expect_unit_fraction(entry)?),
        None => None,
    };
    Ok(Some(ChurnSpec {
        volume,
        join_probability,
        adversarial_joins,
    }))
}

fn parse_engine(document: &Document) -> Result<EngineSpec, ScenarioError> {
    let Some(section) = document.section("engine") else {
        return Ok(EngineSpec::default());
    };
    reject_unknown_keys(section, &["threads", "cache_capacity", "telemetry"])?;
    Ok(EngineSpec {
        threads: section.get("threads").map(expect_usize).transpose()?,
        cache_capacity: section
            .get("cache_capacity")
            .map(expect_usize)
            .transpose()?,
        telemetry: section.get("telemetry").map(expect_bool).transpose()?,
    })
}

fn parse_byzantine(
    document: &Document,
    scenario_seed: u64,
) -> Result<Option<ByzantineSpec>, ScenarioError> {
    let Some(section) = document.section("byzantine") else {
        return Ok(None);
    };
    reject_unknown_keys(section, &["fraction", "seed", "redundancy", "strategy"])?;
    let fraction_entry = section.get("fraction").ok_or(ScenarioError::MissingKey {
        section: "byzantine",
        key: "fraction",
    })?;
    let fraction = expect_unit_fraction(fraction_entry)?;
    let seed = match section.get("seed") {
        Some(entry) => expect_u64(entry)?,
        None => scenario_seed ^ BYZANTINE_SEED_SALT,
    };
    let redundancy = match section.get("redundancy") {
        Some(entry) => {
            let redundancy = expect_u32(entry)?;
            if redundancy == 0 {
                return Err(invalid(entry, "a lookup needs at least one walk"));
            }
            Some(redundancy)
        }
        None => None,
    };
    let strategy = section.get("strategy").map(parse_strategy).transpose()?;
    Ok(Some(ByzantineSpec {
        fraction,
        seed,
        redundancy,
        strategy,
    }))
}

fn parse_event(text: &str, entry: &Entry) -> Result<FailureEvent, ScenarioError> {
    match text {
        "quiet" => return Ok(FailureEvent::Quiet),
        "heal" => return Ok(FailureEvent::Heal),
        _ => {}
    }
    let (kind, width) = text.split_once(':').ok_or_else(|| {
        invalid(
            entry,
            "events are \"quiet\", \"heal\", \"region:W\", or \"partition:W\"",
        )
    })?;
    let width: u64 = width
        .parse()
        .map_err(|_| invalid(entry, "event width must be a positive integer"))?;
    if width == 0 {
        return Err(invalid(entry, "event width must be a positive integer"));
    }
    match kind {
        "region" => Ok(FailureEvent::Region { width }),
        "partition" => Ok(FailureEvent::Partition { width }),
        _ => Err(invalid(
            entry,
            "events are \"quiet\", \"heal\", \"region:W\", or \"partition:W\"",
        )),
    }
}

fn parse_failures(document: &Document) -> Result<Option<FailureSpec>, ScenarioError> {
    let Some(section) = document.section("failures") else {
        return Ok(None);
    };
    reject_unknown_keys(section, &["events", "retries"])?;
    let events_entry = section.get("events").ok_or(ScenarioError::MissingKey {
        section: "failures",
        key: "events",
    })?;
    let Value::Array(elements) = &events_entry.value else {
        return Err(mismatch(events_entry, "array", &events_entry.value));
    };
    let mut events = Vec::with_capacity(elements.len());
    for element in elements {
        let Value::String(text) = element else {
            return Err(mismatch(events_entry, "array of strings", element));
        };
        events.push(parse_event(text, events_entry)?);
    }
    if events.is_empty() {
        return Err(invalid(
            events_entry,
            "an empty schedule is every epoch quiet — drop the [failures] section instead",
        ));
    }
    let retries = section.get("retries").map(expect_u32).transpose()?;
    Ok(Some(FailureSpec { events, retries }))
}
