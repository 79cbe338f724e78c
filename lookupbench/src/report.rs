//! What a run prints: the provenance block, each metric with its unit and sample
//! count, the checker's findings and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use crate::metrics::{self, Metric};
use crate::workload::{PassOutput, PassSpec, Workload};
use crate::{run_digest, Outcome};
use faultline_theory::ModelBounds;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every line before the result line.
    pub body: String,
    /// The result object, one line, no newline.
    pub result: String,
    /// Whether every check passed (the result's `correct`).
    pub correct: bool,
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The directory above the checkout, so `git` never reports a repository that
    // merely contains it.
    let ceiling = manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.to_path_buf(), Path::to_path_buf);
    Command::new(program)
        .args(args)
        .current_dir(manifest)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block of a pass, as one JSON object.
#[must_use]
pub fn provenance(spec: &PassSpec, pass: &PassOutput) -> String {
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"nproc\":{},\"engine_threads\":{},\"isa\":{},",
            "\"rustc\":{},\"commit\":{},\"n\":{},\"links\":{},\"pairs_per_round\":{},",
            "\"rounds\":{},\"count_rounds\":{},\"retry_budget\":{}}}"
        ),
        json_str(spec.workload.name()),
        spec.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        pass.engine_threads,
        json_str(pass.kernel),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        spec.shape.nodes(),
        spec.shape.lg_n,
        spec.shape.pairs,
        pass.rounds.len(),
        metrics::count_window(&pass.rounds).len(),
        pass.retry_budget,
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders the report of `outcome`, the run of `spec`.
#[must_use]
pub fn render(spec: &PassSpec, outcome: &Outcome) -> Report {
    let checked = &outcome.checked;
    let mut out = String::new();
    let mode = if outcome.traced.is_some() {
        "traced"
    } else {
        "untraced"
    };
    let _ = writeln!(
        out,
        "== lookupbench {} seed {} ({mode}) ==",
        spec.workload.name(),
        spec.seed
    );
    let _ = writeln!(out, "provenance {}", provenance(spec, checked));
    let _ = writeln!(out, "digest {:016x}", run_digest(checked));
    let _ = writeln!(
        out,
        "{:<34} {:>18} {:<6} {:>10}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "{:<34} {:>18.6} {:<6} {:>10}",
            m.name, m.value, m.unit, m.samples
        );
    }

    let window = metrics::total_verdict(metrics::count_window(&checked.rounds));
    let _ = writeln!(
        out,
        "round_ms_p90 {:.4} ms over {} rounds (not gated)",
        metrics::round_ms(&checked.rounds, 0.9),
        checked.rounds.len()
    );
    let _ = writeln!(
        out,
        "answered_lookups_per_s {:.1} over {} rounds (wrong answers included, not gated)",
        metrics::answered_per_s(&checked.rounds),
        checked.rounds.len()
    );
    let _ = writeln!(
        out,
        "failed_share {:.6} (count window: {} of {} lookups failed: {} wrong answers, {} survivable but undelivered; cached answers correct: {} of {})",
        window.failed() as f64 / window.attempted.max(1) as f64,
        window.failed(),
        window.attempted,
        window.wrong,
        window.undelivered_survivable,
        window.cached_correct,
        window.cached,
    );
    let setups: Vec<String> = checked.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let _ = writeln!(out, "setup_s samples: {}", setups.join(" "));
    let rejected: u64 = checked.rounds.iter().map(|r| r.counts.churn_rejected).sum();
    if rejected > 0 {
        let _ = writeln!(out, "churn events the maintainer rejected: {rejected}");
    }
    let mut correct = true;
    if spec.workload == Workload::UniformPaper {
        let e2e = metrics::end_to_end(checked);
        let hops_mean = e2e
            .iter()
            .find(|m| m.name == "hops_mean")
            .map_or(0.0, |m| m.value);
        let nodes = spec.shape.nodes();
        let bound = ModelBounds::upper_multi_link(nodes, f64::from(spec.shape.lg_n));
        correct = hops_mean <= bound;
        let _ = writeln!(
            out,
            "paper guard: hops_mean {hops_mean:.4} vs Theorem 13 bound upper_multi_link({nodes}, {}) = {bound:.4}: {}",
            spec.shape.lg_n,
            if correct { "ok" } else { "EXCEEDED" }
        );
    }
    if let Some(traced) = &outcome.traced {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>16} {:>16}",
            "layer", "calls", "total_ms", "self_ms"
        );
        for row in traced.tracer.layer_table() {
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>16.3} {:>16.3}",
                row.layer,
                row.calls,
                row.total_ns as f64 * 1e-6,
                row.self_ns as f64 * 1e-6
            );
        }
    }
    // Over the count window, like the count metrics, so the figures repeat
    // exactly for a seed whatever the machine's speed.
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        window.attempted,
        window.failed(),
        metrics_json(&outcome.metrics)
    );
    Report {
        body: out,
        result,
        correct,
    }
}

/// Where a traced run of `spec` writes its spans: `out/` next to this package's
/// manifest.
#[must_use]
pub fn trace_path(spec: &PassSpec) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.json",
            spec.workload.name(),
            spec.seed
        ))
}

/// The traced pass's spans and layer table with the provenance and metrics, as
/// one JSON object; `None` on an untraced run.
#[must_use]
pub fn trace_json(spec: &PassSpec, outcome: &Outcome) -> Option<String> {
    outcome.traced.as_ref().map(|traced| {
        traced.tracer.to_json(&format!(
            "\"provenance\":{},\"metrics\":{}",
            provenance(spec, &outcome.checked),
            metrics_json(&outcome.metrics)
        ))
    })
}
