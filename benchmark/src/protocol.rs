//! The run protocol: set up once, run child slices cut into half-second
//! blocks, report the best block.
//!
//! Interference on a shared box arrives in spells of half a second to
//! minutes, during which everything takes 1.4 times as long. A median over a
//! run sits in one mode or the other; the best of many short blocks is the
//! undisturbed speed as long as one block of the run is left alone. Run
//! alone, `bench-run` takes five short slices per workload, interleaved with
//! the other workloads' slices, so that a long spell is spread over all of
//! them; when the driver runs one workload per command there is nothing to
//! interleave with and the run is one longer slice.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::setup::{self, Reference};
use crate::slice::{self, SliceArgs, SliceResult, Timings};
use crate::stats;
use crate::workload::{Workload, SMOKE_STORE_BUNDLES, STORE_BUNDLES};

/// One end-to-end metric: name, unit, direction, regression bound.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics, each defined on every workload.
pub const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "op_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "op_tail_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "disk_bytes_per_bundle",
        unit: "B",
        higher_is_better: false,
        bound: 0.05,
    },
];

/// Block length, seconds. Measured on this box: the host drops to two
/// thirds of its speed for spells of half a second to minutes, and the
/// shorter the blocks, the likelier one of them falls between two spells.
/// Half a second still holds ≈ 300 requests of `shard2_cold`, enough for a
/// p99, and ≈ 22 of `serve_keepalive`; an op of the three other workloads
/// outlasts it (or nearly: `live_tail`) and is a block of its own.
pub const BLOCK_SECONDS: f64 = 0.5;

/// What to run and how long.
pub struct Plan {
    /// The workloads of a round, in order.
    pub workloads: Vec<Workload>,
    /// Rounds; every workload runs one slice per round.
    pub rounds: u64,
    /// One slice length for every workload, seconds; `None` gives each
    /// workload its own [`Workload::slice_seconds`].
    pub uniform_slice_seconds: Option<f64>,
    /// Times set-up is repeated (the fastest is reported; the last is used).
    pub setup_repeats: u64,
    /// Bundles in the generated store.
    pub store_bundles: u64,
    /// The seed of every input.
    pub seed: u64,
}

impl Plan {
    /// The full run: five workloads, five interleaved rounds.
    pub fn full(seed: u64) -> Plan {
        Plan {
            workloads: Workload::ALL.to_vec(),
            rounds: 5,
            uniform_slice_seconds: None,
            setup_repeats: 1,
            store_bundles: STORE_BUNDLES,
            seed,
        }
    }

    /// The reviewer's smoke run: one round of 0.5 s slices on small stores.
    pub fn smoke(seed: u64) -> Plan {
        Plan {
            rounds: 1,
            uniform_slice_seconds: Some(0.5),
            store_bundles: SMOKE_STORE_BUNDLES,
            ..Plan::full(seed)
        }
    }

    /// One workload measured for `seconds` in all: one slice, set-up three
    /// times. More children would each spend a start-up and a
    /// warm-up op, and the ops of `collect_1d` and `analyze_250k` take over a
    /// second.
    pub fn single(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan {
            workloads: vec![workload],
            rounds: 1,
            uniform_slice_seconds: Some(seconds),
            setup_repeats: 3,
            ..Plan::full(seed)
        }
    }

    fn seconds(&self, workload: Workload) -> f64 {
        self.uniform_slice_seconds
            .unwrap_or_else(|| workload.slice_seconds())
    }
}

/// Everything measured on one workload.
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// What set-up built.
    pub reference: Reference,
    /// Parent set-up time of each repeat, seconds.
    pub setup_s: Vec<f64>,
    /// One result per round.
    pub rounds: Vec<SliceResult>,
}

impl WorkloadRun {
    /// The values behind `metric`: one per block of every round for the
    /// three timings, one per round for memory, one per set-up for set-up
    /// (the parent's part of it), and a single value for disk bytes.
    pub fn round_values(&self, metric: &str) -> Vec<f64> {
        let per_block = |f: fn(&Timings) -> f64| {
            self.rounds
                .iter()
                .flat_map(|r| r.blocks.iter().map(f))
                .collect()
        };
        match metric {
            "work_per_s" => per_block(|b| b.work_per_s),
            "op_p50_ms" => per_block(|b| b.op_p50_ms),
            "op_tail_ms" => per_block(|b| b.op_tail_ms),
            "peak_rss_mb" => self.rounds.iter().map(|r| r.peak_rss_mb).collect(),
            "setup_s" => self.setup_s.clone(),
            _ => vec![self.reference.disk_bytes_per_bundle()],
        }
    }

    /// The reported value of `metric`: the best block for the three timings
    /// (after [`Workload::lucky_blocks`]), the maximum for memory, and for
    /// set-up the fastest of the parent's set-ups plus the median child
    /// start-up. The fastest and not the median for the reason the timings
    /// take the best block: set-ups run in the host's fast mode or its slow
    /// one, and the median of three is in either (measured over two sets of
    /// ten runs with a change of phase between them: the sets' medians moved
    /// by 24 % on `analyze_250k` with the median of three, 14 % with the
    /// fastest).
    pub fn value(&self, metric: &str) -> f64 {
        match metric {
            "setup_s" => {
                let startups: Vec<f64> = self.rounds.iter().map(|r| r.startup_s).collect();
                stats::best_after(&self.setup_s, false, 0) + stats::median(&startups)
            }
            "work_per_s" | "op_p50_ms" | "op_tail_ms" => {
                let blocks = self.round_values(metric);
                let lucky = self.workload.lucky_blocks(blocks.len());
                stats::best_after(&blocks, metric == "work_per_s", lucky)
            }
            "peak_rss_mb" => self.round_values(metric).into_iter().fold(0.0, f64::max),
            _ => self.reference.disk_bytes_per_bundle(),
        }
    }

    /// Ops attempted over all rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Ops failed over all rounds.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `<out>/tmp/<pid>`.
    pub fn create(out: &Path) -> io::Result<Scratch> {
        let dir = out.join("tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set `workload` up under `dir` `repeats` times, timing each; the last
/// build stays for the slices.
pub fn timed_set_up(
    workload: Workload,
    dir: &Path,
    seed: u64,
    store_bundles: u64,
    repeats: u64,
) -> io::Result<(Reference, Vec<f64>)> {
    let mut times = Vec::new();
    let mut reference = None;
    for _ in 0..repeats.max(1) {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        reference = Some(setup::set_up(workload, dir, seed, store_bundles)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((reference.expect("at least one repeat"), times))
}

/// Run `plan`: set every workload up, then the interleaved rounds, each
/// slice a fresh child of this executable. Scratch goes under `out`.
pub fn run(plan: &Plan, out: &Path) -> io::Result<Vec<WorkloadRun>> {
    let scratch = Scratch::create(out)?;
    let mut runs = Vec::new();
    for &workload in &plan.workloads {
        let dir = scratch.path().join(workload.name());
        let (reference, setup_s) = timed_set_up(
            workload,
            &dir,
            plan.seed,
            plan.store_bundles,
            plan.setup_repeats,
        )?;
        eprintln!(
            "set up {:<16} {:>6.2} s  input_fingerprint {}",
            workload.name(),
            stats::best_after(&setup_s, false, 0),
            reference.input_fingerprint
        );
        runs.push(WorkloadRun {
            workload,
            reference,
            setup_s,
            rounds: Vec::new(),
        });
    }
    for round in 0..plan.rounds {
        for run in &mut runs {
            let result = slice::run_slice_in_child(&SliceArgs {
                workload: run.workload,
                dir: scratch.path().join(run.workload.name()),
                round,
                seconds: plan.seconds(run.workload),
                block_seconds: BLOCK_SECONDS,
                spans: None,
            })?;
            eprintln!(
                "round {round} {:<16} {:>9.1} {}/s  p50 {:>9.3} ms  tail {:>9.3} ms  {} ops, {} failed",
                run.workload.name(),
                result.whole.work_per_s,
                run.workload.work_unit(),
                result.whole.op_p50_ms,
                result.whole.op_tail_ms,
                result.attempted,
                result.failed
            );
            if let Some(error) = &result.first_error {
                eprintln!("  first failure: {error}");
            }
            run.rounds.push(result);
        }
    }
    Ok(runs)
}

/// Print every cell by name with its unit and the per-round values.
pub fn print_cells(runs: &[WorkloadRun]) {
    for run in runs {
        println!(
            "{}: {} rounds, {} blocks, {} ops attempted, {} failed, unit of work: {}, input_fingerprint {}",
            run.workload.name(),
            run.rounds.len(),
            run.round_values("op_p50_ms").len(),
            run.attempted(),
            run.failed(),
            run.workload.work_unit(),
            run.reference.input_fingerprint
        );
        for metric in &END_TO_END {
            let rounds: Vec<String> = run
                .round_values(metric.name)
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect();
            println!(
                "  {}/{:<22} {:>14.4} {:<4} blocks [{}]",
                run.workload.name(),
                metric.name,
                run.value(metric.name),
                metric.unit,
                rounds.join(" ")
            );
        }
        let samples: Vec<String> = run
            .rounds
            .iter()
            .flat_map(|r| r.blocks.iter().map(|b| b.samples.to_string()))
            .collect();
        println!("  latency samples per block [{}]", samples.join(" "));
    }
}

/// The machine-readable form of a run, `benchmark/out/run.json`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// The seed.
    pub seed: u64,
    /// Cores the box reports.
    pub cores: u64,
    /// One entry per workload.
    pub workloads: Vec<WorkloadReport>,
}

/// One workload of a [`RunReport`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// What `work_per_s` counts.
    pub work_unit: String,
    /// Fingerprint of the inputs.
    pub input_fingerprint: String,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Reported value per metric.
    pub metrics: BTreeMap<String, f64>,
    /// Per-round values per metric.
    pub rounds: BTreeMap<String, Vec<f64>>,
}

/// Summarize `runs` for `run.json` and the A/A comparison.
pub fn report(seed: u64, runs: &[WorkloadRun]) -> RunReport {
    RunReport {
        seed,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workloads: runs
            .iter()
            .map(|run| WorkloadReport {
                name: run.workload.name().into(),
                work_unit: run.workload.work_unit().into(),
                input_fingerprint: run.reference.input_fingerprint.clone(),
                attempted: run.attempted(),
                failed: run.failed(),
                metrics: END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), run.value(m.name)))
                    .collect(),
                rounds: END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), run.round_values(m.name)))
                    .collect(),
            })
            .collect(),
    }
}

/// Write `report` as JSON to `path`.
pub fn write_report(report: &RunReport, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(
        path,
        serde_json::to_string(report).map_err(io::Error::other)? + "\n",
    )
}

/// Compare two runs of the same code cell by cell against the bounds.
/// Returns the table and whether every cell is inside its bound.
pub fn compare(a: &RunReport, b: &RunReport) -> (String, bool) {
    let mut table = format!(
        "{:<40} {:>14} {:>14} {:>9} {:>7}\n",
        "workload/metric", "run A", "run B", "diff", "bound"
    );
    let mut all_inside = true;
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for metric in &END_TO_END {
            let (va, vb) = (wa.metrics[metric.name], wb.metrics[metric.name]);
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let inside = diff <= metric.bound;
            all_inside &= inside;
            table += &format!(
                "{:<40} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}\n",
                format!("{}/{}", wa.name, metric.name),
                va,
                vb,
                diff * 100.0,
                metric.bound * 100.0,
                if inside { "" } else { "  OUTSIDE" }
            );
        }
        if wa.input_fingerprint != wb.input_fingerprint {
            all_inside = false;
            table += &format!("{}: input fingerprints differ\n", wa.name);
        }
    }
    (table, all_inside)
}

/// The one-line result the driver reads: `correct`, `attempted`, `failed`
/// and `metrics` (name → value and unit), values with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        cells.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(work_per_s: f64, op_p50_ms: f64, startup_s: f64, peak_rss_mb: f64) -> SliceResult {
        let whole = Timings {
            window_s: 2.0,
            work_per_s,
            samples: 10,
            op_p50_ms,
            op_tail_ms: op_p50_ms * 2.0,
        };
        SliceResult {
            startup_s,
            attempted: 10,
            failed: 0,
            blocks: vec![whole.clone()],
            whole,
            peak_rss_mb,
            cpu_ms_per_op: 1.0,
            first_error: None,
        }
    }

    fn run_of(rounds: Vec<SliceResult>) -> WorkloadRun {
        run_on(Workload::Analyze250k, rounds)
    }

    fn run_on(workload: Workload, rounds: Vec<SliceResult>) -> WorkloadRun {
        WorkloadRun {
            workload,
            reference: Reference {
                seed: 1,
                bundles: 1_000,
                disk_bytes: 117_250,
                input_fingerprint: "00".into(),
                planted: 20,
                collect: None,
            },
            setup_s: vec![2.0, 1.0, 4.0],
            rounds,
        }
    }

    #[test]
    fn reported_values_follow_the_protocol() {
        let rounds = vec![
            round(100.0, 9.0, 0.10, 50.0),
            round(60.0, 15.0, 0.30, 58.0),
            round(99.0, 9.5, 0.20, 51.0),
            round(61.0, 14.0, 0.20, 50.5),
            round(62.0, 13.0, 0.25, 50.0),
        ];
        // Ops that differ by key: the best block is set aside as lucky.
        let run = run_on(Workload::Shard2Cold, rounds.clone());
        assert_eq!(run.value("work_per_s"), 99.0);
        assert_eq!(run.value("op_p50_ms"), 9.5);
        assert_eq!(run.value("op_tail_ms"), 19.0);
        // Identical ops: the best block.
        let run = run_of(rounds);
        assert_eq!(run.value("work_per_s"), 100.0);
        assert_eq!(run.value("op_p50_ms"), 9.0);
        assert_eq!(run.value("op_tail_ms"), 18.0);
        assert_eq!(run.value("peak_rss_mb"), 58.0);
        assert_eq!(run.value("setup_s"), 1.0 + 0.20);
        assert_eq!(run.value("disk_bytes_per_bundle"), 117.25);
        assert_eq!(run.round_values("op_p50_ms").len(), 5);
        assert_eq!(run.round_values("setup_s"), [2.0, 1.0, 4.0]);
        assert_eq!((run.attempted(), run.failed()), (50, 0));
    }

    #[test]
    fn comparison_flags_a_cell_outside_its_bound() {
        let a = report(1, &[run_of(vec![round(100.0, 10.0, 0.1, 50.0)])]);
        let mut b = a.clone();
        assert!(compare(&a, &b).1);
        let bound = END_TO_END[2].bound;
        b.workloads[0]
            .metrics
            .insert("op_p50_ms".into(), 10.0 * (1.0 + 0.9 * bound));
        assert!(compare(&a, &b).1, "nine tenths of the bound is inside it");
        b.workloads[0]
            .metrics
            .insert("op_p50_ms".into(), 10.0 * (1.0 + 1.1 * bound));
        let (table, inside) = compare(&a, &b);
        assert!(!inside && table.contains("OUTSIDE"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[("op_p50_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }
}
