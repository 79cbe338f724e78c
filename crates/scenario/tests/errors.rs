//! Fire fixtures: one deliberately broken scenario per [`ScenarioError`]
//! variant, pinned to the exact diagnosis (variant, line, and payload). These
//! are the DSL's contract that nothing is silently repaired — every fixture
//! here once was a plausible typo.

use faultline_engine::ConfigError;
use faultline_scenario::{ScenarioError, ScenarioSpec};

/// A valid base every fixture perturbs; line numbers below refer to the
/// perturbed file, so fixtures inline their own sources.
const BASE: &str = concat!(
    "[scenario]\n",
    "name = \"base\"\n",
    "[network]\n",
    "nodes = 64\n",
    "[workload]\n",
    "queries_per_epoch = 100\n",
    "epochs = 2\n",
);

#[test]
fn base_is_valid() {
    let spec = ScenarioSpec::parse(BASE).expect("base fixture parses");
    spec.into_engine_config().expect("base fixture validates");
}

#[test]
fn fire_syntax() {
    let source = "[scenario]\nname = \"x\"\nnodes 64\n";
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::Syntax {
            line: 3,
            message: "expected `key = value` or a `[section]` header".into(),
        })
    );
}

#[test]
fn fire_unknown_section() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[netwrok]\n", // the classic transposition
        "nodes = 64\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::UnknownSection {
            line: 3,
            section: "netwrok".into(),
        })
    );
}

#[test]
fn fire_unknown_key() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n",
        "treads = 4\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::UnknownKey {
            line: 5,
            section: "network".into(),
            key: "treads".into(),
        })
    );
}

/// Asserts that an `[engine]` section whose second key sets `setting` is refused
/// with `UnknownKey` for `key` at that line: a retired key is reported, never
/// silently accepted.
fn assert_retired_engine_key(setting: &str, key: &str) {
    assert_eq!(
        ScenarioSpec::parse(&format!("{BASE}[engine]\nthreads = 2\n{setting}\n")),
        Err(ScenarioError::UnknownKey {
            line: 10,
            section: "engine".into(),
            key: key.into(),
        })
    );
}

#[test]
fn fire_retired_freeze_key() {
    // The engine freezes once per topology; there is no freeze policy to set.
    assert_retired_engine_key("freeze = \"auto\"", "freeze");
}

#[test]
fn fire_retired_frozen_key() {
    // Every lookup routes a frozen snapshot; there is no live-graph path to select.
    assert_retired_engine_key("frozen = false", "frozen");
}

#[test]
fn fire_retired_maintenance_key() {
    // Snapshots are always patched from the typed churn delta.
    assert_retired_engine_key("maintenance = \"touched-list\"", "maintenance");
}

#[test]
fn fire_retired_row_invalidation_key() {
    // Cache invalidation is always row-level.
    assert_retired_engine_key("row_invalidation = false", "row_invalidation");
}

#[test]
fn fire_duplicate_key_and_section() {
    let duplicate_key = concat!("[scenario]\n", "name = \"x\"\n", "seed = 1\n", "seed = 2\n",);
    assert_eq!(
        ScenarioSpec::parse(duplicate_key),
        Err(ScenarioError::Duplicate {
            line: 4,
            name: "scenario.seed".into(),
        })
    );
    let duplicate_section = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n",
        "[network]\n",
    );
    assert_eq!(
        ScenarioSpec::parse(duplicate_section),
        Err(ScenarioError::Duplicate {
            line: 5,
            name: "network".into(),
        })
    );
}

#[test]
fn fire_type_mismatch() {
    let source = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = true\n",
    );
    assert_eq!(
        ScenarioSpec::parse(source),
        Err(ScenarioError::TypeMismatch {
            line: 4,
            key: "nodes".into(),
            expected: "integer",
            found: "boolean",
        })
    );
}

#[test]
fn fire_missing_key() {
    // Missing key inside a present section …
    let missing_name = "[scenario]\nseed = 1\n";
    assert_eq!(
        ScenarioSpec::parse(missing_name),
        Err(ScenarioError::MissingKey {
            section: "scenario",
            key: "name",
        })
    );
    // … and a missing required section reports its first required key.
    let missing_workload = concat!(
        "[scenario]\n",
        "name = \"x\"\n",
        "[network]\n",
        "nodes = 64\n"
    );
    assert_eq!(
        ScenarioSpec::parse(missing_workload),
        Err(ScenarioError::MissingKey {
            section: "workload",
            key: "queries_per_epoch",
        })
    );
}

#[test]
fn fire_invalid_value() {
    let out_of_range = format!("{BASE}[churn]\nfraction = 1.5\n");
    assert_eq!(
        ScenarioSpec::parse(&out_of_range),
        Err(ScenarioError::InvalidValue {
            line: 9,
            key: "fraction".into(),
            message: "must lie in [0, 1]".into(),
        })
    );
    // Contradictory churn volume.
    let both_volumes = format!("{BASE}[churn]\nfraction = 0.1\nevents_per_epoch = 5\n");
    assert!(matches!(
        ScenarioSpec::parse(&both_volumes),
        Err(ScenarioError::InvalidValue { line: 10, .. })
    ));
    // Skew parameter for the wrong skew.
    let wrong_param = format!("{BASE}peak = 0.5\n");
    assert!(matches!(
        ScenarioSpec::parse(&wrong_param),
        Err(ScenarioError::InvalidValue { line: 8, ref key, .. }) if key == "peak"
    ));
}

#[test]
fn fire_retired_shards_key() {
    // The shard count is a fixed constant of the engine, not a setting.
    assert_retired_engine_key("shards = 65", "shards");
}

#[test]
fn fire_retired_max_hops_key() {
    // The hop budget is the network's router's, not an engine override.
    assert_retired_engine_key("max_hops = 200", "max_hops");
}

#[test]
fn fire_config_passthrough() {
    // Parses cleanly — the schedule-length rule is the *engine's*, surfaced
    // through `into_engine_config` as a Config error, not re-implemented in the
    // DSL. A schedule longer than the run is caught by validate_for_epochs.
    let schedule = format!("{BASE}[failures]\nevents = [\"region:8\", \"heal\", \"quiet\"]\n");
    let spec = ScenarioSpec::parse(&schedule).expect("schema-valid scenario parses");
    assert_eq!(
        spec.into_engine_config(),
        Err(ScenarioError::Config(ConfigError::ScheduleOutlivesRun {
            events: 3,
            epochs: 2,
        }))
    );
}
