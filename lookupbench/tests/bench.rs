//! The benchmark's own contract: count metrics repeat exactly, seeds matter, the
//! checker catches a tampered answer, and metric names are well formed and match
//! `BENCHMARK.json`.

use faultline_core::sim::seed_for_trial;
use faultline_core::{Network, NetworkConfig};
use faultline_engine::{EngineConfig, QueryBatch, QueryEngine};
use faultline_lookupbench::check::{check_batch, Fault};
use faultline_lookupbench::metrics::{self, END_TO_END, PER_LAYER};
use faultline_lookupbench::report;
use faultline_lookupbench::workload::{
    run_pass, Between, PassSpec, Rounds, Shape, Workload, CACHE_EPOCH_ROUNDS,
};
use faultline_lookupbench::{run, run_digest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn small(workload: Workload, seed: u64, threads: usize) -> PassSpec {
    PassSpec {
        workload,
        shape: Shape {
            lg_n: 10,
            pairs: 1_500,
        },
        seed,
        threads,
        telemetry: true,
        trace: false,
        between: Between::Check,
        setups: 1,
        // Past the first flush of `zipf-cache`'s route cache.
        rounds: Rounds::Exact(CACHE_EPOCH_ROUNDS + 2),
    }
}

/// The metrics that must repeat exactly for a seed, with their values.
fn count_metrics(spec: &PassSpec) -> (u64, Vec<(&'static str, f64)>) {
    let outcome = run(spec, true).expect("no structural fault");
    let mut counts: Vec<(&'static str, f64)> = metrics::end_to_end(&outcome.checked)
        .into_iter()
        .filter(|m| m.name.starts_with("hops_") || m.name == "messages_per_lookup")
        .map(|m| (m.name, m.value))
        .collect();
    counts.extend(
        outcome
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("engine.cache_") || m.name == "overlay.rows_patched")
            .map(|m| (m.name, m.value)),
    );
    let verdict = metrics::total_verdict(&outcome.checked.rounds);
    counts.push((
        "failed_share",
        verdict.failed() as f64 / verdict.attempted as f64,
    ));
    assert_eq!(counts.len(), 7);
    (run_digest(&outcome.checked), counts)
}

#[test]
fn count_metrics_repeat_across_runs_and_thread_counts() {
    for workload in Workload::ALL {
        let first = count_metrics(&small(workload, 7, nproc()));
        let again = count_metrics(&small(workload, 7, nproc()));
        let single = count_metrics(&small(workload, 7, 1));
        assert_eq!(first, again, "{}: two runs differ", workload.name());
        assert_eq!(
            first,
            single,
            "{}: 1 vs nproc threads differ",
            workload.name()
        );
    }
}

#[test]
fn a_second_seed_changes_the_digest() {
    for workload in Workload::ALL {
        let a = run_pass(&small(workload, 1, nproc())).expect("no structural fault");
        let b = run_pass(&small(workload, 2, nproc())).expect("no structural fault");
        assert_ne!(run_digest(&a), run_digest(&b), "{}", workload.name());
    }
}

#[test]
fn a_tampered_outcome_is_counted_wrong() {
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::build(&NetworkConfig::paper_default(1024), &mut rng);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
    let batch = QueryBatch::uniform(&net, 200, seed_for_trial(5, 0));
    let report = engine.run_batch(&net, &batch);
    let honest = check_batch(net.view(), &batch, report.outcomes(), 0, 2, 0).unwrap();
    assert_eq!(honest.wrong, 0);
    assert_eq!(honest.verified(), 200);

    let mut tampered = report.outcomes().to_vec();
    tampered[3].hops += 1;
    tampered[3].total_hops += 1;
    tampered[50].delivered = !tampered[50].delivered;
    let verdict = check_batch(net.view(), &batch, &tampered, 0, 2, 0).unwrap();
    assert_eq!(verdict.wrong, 2);
    assert_eq!(verdict.failed(), 2);
    // Hop statistics describe the recomputed walks, whatever the answers say.
    assert_eq!(verdict.hop_counts, honest.hop_counts);

    let short = &report.outcomes()[..199];
    assert_eq!(
        check_batch(net.view(), &batch, short, 0, 2, 9),
        Err(Fault::CountMismatch {
            round: 9,
            expected: 200,
            got: 199
        })
    );
    let mut swapped = report.outcomes().to_vec();
    swapped.swap(10, 11);
    assert!(matches!(
        check_batch(net.view(), &batch, &swapped, 0, 2, 0),
        Err(Fault::MissingOutcome { index: 10, .. })
    ));
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let field = |entry: &str, key: &str| -> String {
        let start = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[start..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_owned()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(well_formed(name), "bad metric name {name:?}");
        assert!(unit.len() <= 16 && !unit.is_empty(), "bad unit {unit:?}");
    }
    for workload in Workload::ALL {
        assert!(well_formed(workload.name()));
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let e2e_start = json.find("\"end_to_end\"").expect("end_to_end section");
    let layer_start = json.find("\"per_layer\"").expect("per_layer section");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&json[e2e_start..layer_start]), own(&END_TO_END));
    assert_eq!(declared(&json[layer_start..]), own(&PER_LAYER));
    let workloads_start = json.find("\"workloads\"").expect("workloads section");
    let names: Vec<String> = json[workloads_start..e2e_start]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_owned())
        .collect();
    let own_names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names, own_names);
}

#[test]
fn the_report_ends_with_the_result_line() {
    let spec = PassSpec {
        shape: Shape {
            lg_n: 10,
            pairs: 300,
        },
        seed: 4,
        rounds: Rounds::Exact(3),
        ..small(Workload::ChurnFailures, 4, nproc())
    };
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let outcome = run(&spec, trace).expect("no structural fault");
        let rendered = report::render(&spec, &outcome);
        assert!(rendered.correct);
        assert!(rendered
            .body
            .contains("provenance {\"workload\":\"churn-failures\",\"seed\":4,"));
        let result = &rendered.result;
        assert!(!result.contains('\n'));
        assert!(result.starts_with("{\"correct\":true,\"attempted\":900,\"failed\":"));
        for (name, unit) in table {
            assert!(
                result.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing from {result}"
            );
            assert!(result.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert_eq!(result.matches("\"value\":").count(), table.len());
        let spans = report::trace_json(&spec, &outcome);
        assert_eq!(spans.is_some(), trace);
        if let Some(spans) = spans {
            assert!(spans.contains("\"name\":\"construction.leave\""));
            assert!(spans.contains("\"layer\":\"failure\""));
        }
    }
}

#[test]
fn bad_flags_exit_two_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "zipf-cache", "--trace", "2"],
        &["--workload", "zipf-cache", "--rounds", "3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lookupbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
