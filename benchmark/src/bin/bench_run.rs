//! `bench-run`: the end-to-end benchmark, tracing off.
//!
//! - no arguments: five workloads in five interleaved rounds, every cell
//!   printed by name with its unit, `benchmark/out/run.json` written;
//! - `--aa`: two complete runs compared cell by cell against the bounds;
//! - `--smoke`: one round of 0.5 s slices on 20 k-bundle stores;
//! - `--workload W --seed N --seconds S --trace 0`: one workload, one slice
//!   of S seconds cut into half-second blocks, the form `benchmark/run.sh`
//!   passes on; the last line printed is the result;
//! - `--slice …`: one slice, the child the runs above spawn.

use std::path::Path;
use std::process::ExitCode;

use sandwich_benchmark::cli::{number_of, value_of, DEFAULT_SEED, OUT};
use sandwich_benchmark::protocol::{self, Plan, END_TO_END};
use sandwich_benchmark::slice;
use sandwich_benchmark::workload::Workload;

fn run_and_report(plan: &Plan, json: &str) -> Result<protocol::RunReport, String> {
    let runs = protocol::run(plan, Path::new(OUT)).map_err(|e| e.to_string())?;
    protocol::print_cells(&runs);
    let report = protocol::report(plan.seed, &runs);
    let path = Path::new(OUT).join(json);
    protocol::write_report(&report, &path).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    let failed: u64 = report.workloads.iter().map(|w| w.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} ops failed their check"));
    }
    Ok(report)
}

fn single(workload: Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let plan = Plan::single(workload, seed, seconds);
    let runs = protocol::run(&plan, Path::new(OUT)).map_err(|e| e.to_string())?;
    protocol::print_cells(&runs);
    let run = &runs[0];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, run.value(m.name), m.unit))
        .collect();
    println!(
        "{}",
        protocol::result_line(run.failed() == 0, run.attempted(), run.failed(), &metrics)
    );
    match run.failed() {
        0 => Ok(()),
        failed => Err(format!("{failed} ops failed their check")),
    }
}

fn main_inner(args: &[String]) -> Result<(), String> {
    if let Some(at) = args.iter().position(|a| a == "--slice") {
        return slice::slice_main(&args[at + 1..]);
    }
    let seed = number_of(args, "--seed", DEFAULT_SEED)?;
    if let Some(name) = value_of(args, "--workload") {
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let seconds = number_of(args, "--seconds", 10.0)?;
        if value_of(args, "--trace").is_some_and(|t| t != "0") {
            return Err(
                "bench-run measures with tracing off; use bench-trace for --trace 1".into(),
            );
        }
        return single(workload, seed, seconds);
    }
    if args.iter().any(|a| a == "--smoke") {
        return run_and_report(&Plan::smoke(seed), "smoke.json").map(drop);
    }
    if args.iter().any(|a| a == "--aa") {
        let a = run_and_report(&Plan::full(seed), "run_a.json")?;
        let b = run_and_report(&Plan::full(seed), "run_b.json")?;
        let (table, inside) = protocol::compare(&a, &b);
        print!("{table}");
        return if inside {
            println!("A/A: every cell inside its bound");
            Ok(())
        } else {
            Err("A/A: at least one cell outside its bound".into())
        };
    }
    run_and_report(&Plan::full(seed), "run.json").map(drop)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("bench-run: {error}");
            ExitCode::FAILURE
        }
    }
}
