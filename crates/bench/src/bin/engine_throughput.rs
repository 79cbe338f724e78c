//! Engine throughput benchmark binary.
//!
//! Runs batched parallel lookups (uncached, cold cache, warm cache) plus the
//! churn-interleaved phase, prints a summary, and writes `BENCH_engine.json` (or the
//! path in `ENGINE_BENCH_JSON`) for the cross-PR performance trajectory.
//!
//! Under `--quick` (the CI smoke run) it also acts as a regression gate: the run
//! fails if the frozen-kernel speedup, the SIMD-over-scalar kernel speedup (only
//! when a vector ISA actually dispatched — scalar-only hosts auto-relax), the
//! incremental snapshot-maintenance speedup, the rebuild-fallback-free fraction,
//! the adversarial throughput, the adversarial success rate, the telemetry
//! overhead ratio, the oracle-grounded survival rate or the failure-epoch
//! rebuild-free fraction falls below a floor, or the heal-recovery latency rises
//! above its ceiling (each overridable —
//! `ENGINE_SMOKE_MIN_FROZEN_SPEEDUP`, `ENGINE_SMOKE_MIN_SIMD_SPEEDUP`,
//! `ENGINE_SMOKE_MIN_PATCH_SPEEDUP`, `ENGINE_SMOKE_MIN_PATCH_REBUILD_FREE`,
//! `ENGINE_SMOKE_MIN_BYZANTINE_QPS`, `ENGINE_SMOKE_MIN_BYZANTINE_SUCCESS`,
//! `ENGINE_SMOKE_MIN_TELEMETRY_RATIO`, `ENGINE_SMOKE_MIN_SURVIVAL`,
//! `ENGINE_SMOKE_MIN_FAILURE_REBUILD_FREE`, `ENGINE_SMOKE_MAX_HEAL_RECOVERY_US` —
//! for unusual machines). All gate readings, the dispatched distance-scan ISA,
//! the snapshot compaction/rebuild
//! cadence, and the per-phase telemetry breakdown are appended to
//! `$GITHUB_STEP_SUMMARY` when that file is available, so a failing run is
//! diagnosable from the job page without opening the log.
//!
//! `--metrics PATH` additionally writes the full human-readable telemetry dump
//! (phase histograms, per-shard cache table, event-ring counts) to `PATH`.
//!
//! `--scenario PATH` (repeatable; a directory runs every `.toml` inside) runs
//! declarative scenario files through the `ScenarioSpec` front door after the fixed
//! arms. Each scenario lands as a named `scenarios.<name>` section in the same
//! JSON artifact and as a row in the step summary; a scenario that fails to parse
//! or validate terminates the run with its `file: line N:` diagnostic.

use faultline_bench::scenario_run::{self, ScenarioOutcome};
use faultline_bench::{engine_run, BenchArgs};
use faultline_engine::{MetricsSnapshot, Phase};
use std::io::Write;

/// `--quick` floor for `headline.frozen_speedup` (single-thread
/// `FrozenView::route_seeded` over the live-graph `NetworkView::route_seeded` on
/// the identical batch): below this something structural regressed, not noise.
const MIN_FROZEN_SPEEDUP: f64 = 1.5;

/// `--quick` floor for `headline.simd_speedup` (best uncached frozen-kernel
/// throughput with the dispatched vector ISA over the scalar-pinned baseline on
/// the bit-identical batch). The AVX2 distance scan has measured well above this
/// on dense rows; the floor sits low enough to absorb shared-runner noise while
/// catching the regression it exists for — the dispatch silently falling back to
/// the scalar fold, which pins the ratio at ~1.0. Only gated when a vector ISA
/// dispatched: on scalar-only hosts (or under `FAULTLINE_FORCE_SCALAR=1`) the
/// reading is a self-comparison and is skipped rather than gamed.
const MIN_SIMD_SPEEDUP: f64 = 1.15;

/// `--quick` floor for `headline.snapshot_patch_speedup`: patching O(changed · ℓ)
/// rows must beat the O(nodes + links) freeze per epoch; parity means the delta
/// layer stopped paying for itself.
const MIN_PATCH_SPEEDUP: f64 = 1.0;

/// `--quick` floor for the fraction of delta-maintenance epochs that stayed on the
/// patch path (no structural rebuild fallback). Light churn must never trip the
/// fallback: a single rebuild at smoke scale means the structural-only gating
/// regressed.
const MIN_PATCH_REBUILD_FREE: f64 = 1.0;

/// `--quick` floor for `headline.byzantine_throughput` (q/s at 15% corruption,
/// redundancy 4, uncached frozen kernel). Measured ~1.2M q/s at the smoke scale; the
/// floor sits ~8x below so slow CI machines pass while a structural regression (the
/// lane falling back to per-walk allocation, or the batch path abandoning the CSR
/// kernel) still trips it.
const MIN_BYZANTINE_QPS: f64 = 150_000.0;

/// `--quick` floor for `headline.byzantine_success_rate` (delivered fraction at 15%
/// corruption). The smoke run is fully seeded, so this reading is deterministic
/// (measured 0.6486): any drop means the redundancy machinery itself changed, not
/// the machine.
const MIN_BYZANTINE_SUCCESS: f64 = 0.55;

/// `--quick` floor for `headline.telemetry_overhead_ratio` (instrumented uncached
/// throughput, every query a real lookup, over the telemetry-disabled baseline on
/// bit-identical batches).
/// Telemetry is relaxed atomics plus one clock read per phase; it must stay within
/// 5% of free, or the instrumentation has crept onto the per-query hot path.
const MIN_TELEMETRY_RATIO: f64 = 0.95;

/// `--quick` floor for `headline.survival_rate` (worst-scenario delivered fraction
/// of oracle-survivable queries under correlated regional and partition damage).
/// The run is fully seeded, so this reading is deterministic: the oracle excludes
/// genuinely disconnected pairs from the denominator, which means anything the
/// floor catches is a *routing* failure on a provably connected pair — backtrack
/// recovery or the diversified-retry machinery regressed, not the topology.
const MIN_SURVIVAL: f64 = 0.99;

/// `--quick` floor for the fraction of failure-scenario epochs that patched the
/// snapshot without a structural rebuild fallback. Correlated damage at
/// `W = n/128` tombstones well under the `n/4` fallback threshold; a single
/// rebuild means either the width sizing or the structural-row gating regressed.
const MIN_FAILURE_REBUILD_FREE: f64 = 1.0;

/// `--quick` ceiling for `headline.heal_recovery_us` (mean wall time of a heal
/// event: delta capture, snapshot row-patching, row-level cache eviction). A heal
/// touches O(region · ℓ) rows — tens of microseconds at smoke scale, measured
/// ~2 ms at the default scale — so a generous ceiling still catches the
/// structural cliff this gate exists for: heals degrading to full rebuilds or
/// full-cache flushes, which jump this reading by orders of magnitude.
const MAX_HEAL_RECOVERY_US: f64 = 50_000.0;

fn threshold(env: &str, default: f64) -> f64 {
    match std::env::var(env) {
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("warning: {env}={raw} is not a number; gating at the default {default:.2}x");
            default
        }),
        Err(_) => default,
    }
}

/// One perf-gate reading: a headline value checked against a (possibly overridden)
/// bound — a floor the value must stay at or above, or (for latency-style
/// readings, `ceiling: true`) a ceiling it must stay at or below.
struct GateReading {
    name: &'static str,
    value: f64,
    bound: f64,
    ceiling: bool,
    env: &'static str,
}

impl GateReading {
    fn floor(name: &'static str, value: f64, default: f64, env: &'static str) -> Self {
        Self {
            name,
            value,
            bound: threshold(env, default),
            ceiling: false,
            env,
        }
    }

    fn ceiling(name: &'static str, value: f64, default: f64, env: &'static str) -> Self {
        Self {
            name,
            value,
            bound: threshold(env, default),
            ceiling: true,
            env,
        }
    }

    fn passed(&self) -> bool {
        if self.ceiling {
            self.value <= self.bound
        } else {
            self.value >= self.bound
        }
    }

    fn bound_kind(&self) -> &'static str {
        if self.ceiling {
            "ceiling"
        } else {
            "floor"
        }
    }
}

/// One row of the maintenance-cadence table: how often a trajectory compacted or
/// fell back to a rebuild (regressions here are invisible in the speedup numbers
/// until they cliff, so the summary prints them outright).
struct CadenceRow {
    label: &'static str,
    epochs: usize,
    compactions: usize,
    rebuild_fallbacks: usize,
    rows_in_place: usize,
    rows_patched: usize,
}

impl CadenceRow {
    fn of(label: &'static str, trajectory: &faultline_engine::InterleavedReport) -> Self {
        Self {
            label,
            epochs: trajectory.epochs().len(),
            compactions: trajectory.compactions(),
            rebuild_fallbacks: trajectory.rebuild_fallbacks(),
            rows_in_place: trajectory
                .epochs()
                .iter()
                .map(|e| e.snapshot.rows_in_place)
                .sum(),
            rows_patched: trajectory
                .epochs()
                .iter()
                .map(|e| e.snapshot.rows_patched)
                .sum(),
        }
    }
}

/// Appends the gate table, the compaction/rebuild cadence, and the per-phase
/// telemetry breakdown to `$GITHUB_STEP_SUMMARY` (best-effort: skipped silently
/// outside GitHub Actions, warned about if the file cannot be written).
fn write_step_summary(
    readings: &[GateReading],
    simd_line: &str,
    cadence: &[CadenceRow],
    telemetry: &MetricsSnapshot,
    scenarios: &[ScenarioOutcome],
) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut table = String::from("## Engine perf gate (`--quick`)\n\n");
    table.push_str(simd_line);
    table.push_str("\n\n| reading | value | bound | status |\n|---|---|---|---|\n");
    for r in readings {
        table.push_str(&format!(
            "| `{}` ({}) | {:.4} | {} {:.4} | {} |\n",
            r.name,
            r.env,
            r.value,
            r.bound_kind(),
            r.bound,
            if r.passed() { "✅ pass" } else { "❌ FAIL" },
        ));
    }
    table.push_str(
        "\n### Snapshot maintenance cadence\n\n| trajectory | epochs | compactions | rebuild fallbacks | rows in place / patched |\n|---|---|---|---|---|\n",
    );
    for row in cadence {
        table.push_str(&format!(
            "| {} | {} | {} | {} | {} / {} |\n",
            row.label,
            row.epochs,
            row.compactions,
            row.rebuild_fallbacks,
            row.rows_in_place,
            row.rows_patched,
        ));
    }
    table.push_str(
        "\n### Telemetry phase breakdown\n\n| phase | count | total ms | p50 µs | p99 µs |\n|---|---|---|---|---|\n",
    );
    for phase in Phase::ALL {
        let h = telemetry.phase(phase);
        table.push_str(&format!(
            "| `{}` | {} | {:.2} | {:.1} | {:.1} |\n",
            phase.name(),
            h.count(),
            h.sum() as f64 / 1e6,
            h.quantile(0.5) / 1e3,
            h.quantile(0.99) / 1e3,
        ));
    }
    if !scenarios.is_empty() {
        table.push_str(
            "\n### Scenarios\n\n| scenario | skew | nodes | epochs | queries | q/s | success | survival | rebuild fallbacks |\n|---|---|---|---|---|---|---|---|---|\n",
        );
        for outcome in scenarios {
            table.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {:.0} | {:.4} | {:.4} | {} |\n",
                outcome.spec.name,
                outcome.spec.workload.skew.label(),
                outcome.spec.network.nodes,
                outcome.spec.workload.epochs,
                outcome.report.total_queries(),
                outcome.report.routing_queries_per_sec(),
                outcome.report.overall_success_rate(),
                outcome.survival_rate(),
                outcome.report.rebuild_fallbacks(),
            ));
        }
    }
    table.push_str(&format!(
        "\nevents recorded: {} ({} dropped); max-skew shard: {}\n",
        telemetry.events().len(),
        telemetry.events_dropped(),
        telemetry.max_skew_shard().map_or_else(
            || "n/a".to_string(),
            |(shard, rate)| format!("#{shard} at {rate:.4} hit rate")
        ),
    ));
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(error) = file.write_all(table.as_bytes()) {
                eprintln!("warning: could not append to {path}: {error}");
            }
        }
        Err(error) => eprintln!("warning: could not open {path}: {error}"),
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let mut config = engine_run::EngineBenchConfig::default_scale();
    if args.quick {
        // CI smoke scale: finishes in a few seconds in release builds while still
        // exercising snapshot rebuilds, every cache phase and the churn interleave.
        config.nodes = 1 << 12;
        config.links = 12;
        config.queries = 50_000;
        config.epochs = 3;
        // At 4k nodes the default 1% maintenance churn tombstones enough rows per
        // epoch to brush the compaction threshold, where patch ≈ rebuild and the
        // gate would ride on µs-level noise; 0.2% keeps the smoke run squarely in
        // the patch-win regime the gate is meant to protect.
        config.maintenance_churn_fraction = 0.002;
    }
    config.nodes = args.nodes_or(config.nodes, 1 << 17);
    config.links = args.links_or(config.links, 17);
    config.queries = args.messages_or(config.queries as u64, 1 << 20) as usize;
    config.epochs = args.trials_or(config.epochs as u64, 10) as usize;
    config.seed = args.seed;
    // Re-derive the correlated-failure width from the (possibly overridden) node
    // count: `n / 128` keeps one failure delta well under the snapshot's `n / 4`
    // structural rebuild threshold at any scale.
    config.failure_region_width = (config.nodes / 128).max(4);

    let report = engine_run::run(&config);
    engine_run::print(&report);

    let scenarios = match scenario_run::run_all(&args.scenario) {
        Ok(outcomes) => outcomes,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    for outcome in &scenarios {
        scenario_run::print(outcome);
    }

    let json = if scenarios.is_empty() {
        report.to_json()
    } else {
        report.to_json_with_scenarios(&scenario_run::scenarios_json(&scenarios))
    };
    let path = std::env::var("ENGINE_BENCH_JSON").unwrap_or_else(|_| "BENCH_engine.json".into());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }

    if let Some(metrics_path) = &args.metrics {
        match std::fs::write(metrics_path, report.telemetry.to_string()) {
            Ok(()) => println!("wrote {metrics_path}"),
            Err(error) => {
                eprintln!("failed to write {metrics_path}: {error}");
                std::process::exit(1);
            }
        }
    }

    if args.quick {
        let mut readings = vec![GateReading::floor(
            "frozen_speedup",
            report.frozen_speedup(),
            MIN_FROZEN_SPEEDUP,
            "ENGINE_SMOKE_MIN_FROZEN_SPEEDUP",
        )];
        // The SIMD gate compares the dispatched kernel against the pinned scalar
        // fold; on hosts where detection already resolved to scalar the reading is
        // a self-comparison (~1.0 by construction), so the gate is skipped instead
        // of silently passing at a meaningless floor.
        if report.simd_isa != "scalar" {
            readings.push(GateReading::floor(
                "simd_speedup",
                report.simd_speedup(),
                MIN_SIMD_SPEEDUP,
                "ENGINE_SMOKE_MIN_SIMD_SPEEDUP",
            ));
        }
        readings.extend([
            GateReading::floor(
                "snapshot_patch_speedup",
                report.snapshot_patch_speedup(),
                MIN_PATCH_SPEEDUP,
                "ENGINE_SMOKE_MIN_PATCH_SPEEDUP",
            ),
            GateReading::floor(
                "patch_rebuild_free",
                report.patch_rebuild_free(),
                MIN_PATCH_REBUILD_FREE,
                "ENGINE_SMOKE_MIN_PATCH_REBUILD_FREE",
            ),
            GateReading::floor(
                "byzantine_throughput",
                report.byzantine_throughput(),
                MIN_BYZANTINE_QPS,
                "ENGINE_SMOKE_MIN_BYZANTINE_QPS",
            ),
            GateReading::floor(
                "byzantine_success_rate",
                report.byzantine_success_rate(),
                MIN_BYZANTINE_SUCCESS,
                "ENGINE_SMOKE_MIN_BYZANTINE_SUCCESS",
            ),
            GateReading::floor(
                "telemetry_overhead_ratio",
                report.telemetry_overhead_ratio,
                MIN_TELEMETRY_RATIO,
                "ENGINE_SMOKE_MIN_TELEMETRY_RATIO",
            ),
            GateReading::floor(
                "survival_rate",
                report.survival_rate(),
                MIN_SURVIVAL,
                "ENGINE_SMOKE_MIN_SURVIVAL",
            ),
            GateReading::floor(
                "failure_rebuild_free",
                report.failure_rebuild_free(),
                MIN_FAILURE_REBUILD_FREE,
                "ENGINE_SMOKE_MIN_FAILURE_REBUILD_FREE",
            ),
            GateReading::ceiling(
                "heal_recovery_us",
                report.heal_recovery_us(),
                MAX_HEAL_RECOVERY_US,
                "ENGINE_SMOKE_MAX_HEAL_RECOVERY_US",
            ),
        ]);
        let cadence = [
            CadenceRow::of("maintenance (delta)", &report.maintenance_patch),
            CadenceRow::of("resilience (regional)", &report.resilience_regional),
            CadenceRow::of("resilience (partition)", &report.resilience_partition),
        ];
        let simd_line = format!(
            "distance-scan kernel: `{}` ({} lanes), {:.2}x over the scalar fold on the {}-node kernel cell",
            report.simd_isa,
            report.simd_lanes,
            report.simd_speedup(),
            report.simd_kernel_nodes,
        );
        write_step_summary(
            &readings,
            &simd_line,
            &cadence,
            &report.telemetry,
            &scenarios,
        );
        let mut regressed = false;
        for reading in &readings {
            if reading.passed() {
                println!(
                    "smoke gate: {} {:.4} {} {} {:.4}",
                    reading.name,
                    reading.value,
                    if reading.ceiling { "<=" } else { ">=" },
                    reading.bound_kind(),
                    reading.bound
                );
            } else {
                regressed = true;
                eprintln!(
                    "perf regression: {} {:.4} {} the {:.4} {} (override with {})",
                    reading.name,
                    reading.value,
                    if reading.ceiling { "above" } else { "below" },
                    reading.bound,
                    reading.bound_kind(),
                    reading.env
                );
            }
        }
        if regressed {
            std::process::exit(1);
        }
        println!(
            "smoke gate passed: all {} readings at or above their floors",
            readings.len()
        );
    }
}
