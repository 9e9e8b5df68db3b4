//! `sweepbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, per metric, a line with its name,
//! value, unit and provenance, then as the last line of standard output
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics when untraced, the per-layer metrics when traced).
//! The run's seconds are split over `PROCESSES` child processes
//! (`--part <k>`, each printing one line for the parent to pool).
//! `--workload all` runs every workload in turn. `--manifest` prints the
//! `BENCHMARK.json` this build declares.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use sweepbench::manifest::Manifest;
use sweepbench::{
    catalog, check_declared, host, merge, result_line, Ctx, Outcome, Report, Value, PROCESSES,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sweepbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         sweepbench --manifest",
        catalog::WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    part: Option<usize>,
}

fn parse(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        part: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().ok()?,
            "--seconds" => parsed.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--part" => parsed.part = Some(value.parse().ok().filter(|k| *k < PROCESSES)?),
            _ => return None,
        }
    }
    let known = parsed.workload == "all"
        || catalog::WORKLOADS
            .iter()
            .any(|(w, _)| *w == parsed.workload);
    known.then_some(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--manifest"] {
        print!("{}", Manifest::from_catalog().to_json());
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(&raw) else {
        return usage();
    };
    match (args.part, args.workload.as_str()) {
        (Some(k), _) => run_part(&args, k),
        (None, "all") => run_all(&raw),
        (None, _) => run_parent(&args),
    }
}

/// One child process: set up, run the timed passes, print one part line.
fn run_part(args: &Args, k: usize) -> ExitCode {
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("sweepbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        probe: args.trace && k == PROCESSES - 1,
        threads: host::nproc(),
        scratch,
    };
    let mut outcome = match sweepbench::run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    outcome.peak_rss_mb = host::peak_rss_mb();
    if ctx.probe {
        let spans = ctx.scratch.with_extension("spans.jsonl");
        match std::fs::write(&spans, outcome.tracer.to_json_lines()) {
            Ok(()) => outcome
                .notes
                .push(format!("spans written to {}", spans.display())),
            Err(e) => eprintln!("sweepbench: cannot write spans: {e}"),
        }
    }
    println!("{}", outcome.to_part_line());
    ExitCode::SUCCESS
}

/// Runs the [`PROCESSES`] parts of a run one after another, pools them
/// and prints the report and the result line.
fn run_parent(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut parts = Vec::with_capacity(PROCESSES);
    let mut lost = Vec::new();
    for k in 0..PROCESSES {
        let child = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--part", &k.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let part = match child {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .ok_or_else(|| "printed nothing".to_string())
                .and_then(Outcome::from_part_line),
            Ok(out) => Err(format!("exited with {}", out.status)),
            Err(e) => Err(format!("did not start: {e}")),
        };
        match part {
            Ok(p) => parts.push(p),
            Err(e) => lost.push(format!("process {k} {e}")),
        }
    }
    let mut report = merge(&parts, args.trace);
    report.failures.op("processes", lost);
    let (values, declared): (&mut Vec<Value>, &[_]) = if args.trace {
        (&mut report.per_layer, &catalog::PER_LAYER)
    } else {
        (&mut report.end_to_end, &catalog::END_TO_END)
    };
    let declared_check = check_declared(values, declared);
    report.failures.op(
        "declared metrics",
        declared_check.err().into_iter().collect(),
    );
    print_report(args, &report);
    println!("{}", result_line(&report, args.trace));
    ExitCode::SUCCESS
}

/// Human-readable lines: inputs, every metric with unit and provenance,
/// and failures.
fn print_report(args: &Args, report: &Report) {
    println!(
        "sweepbench {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    for note in &report.notes {
        println!("  # {note}");
    }
    let line = |v: &Value| {
        println!(
            "  {:<40} {:>14.6} {:<13} {}",
            v.name, v.value, v.unit, v.note
        )
    };
    if args.trace {
        report.per_layer.iter().for_each(line);
    } else {
        report.end_to_end.iter().for_each(line);
        report.detail.iter().for_each(line);
    }
    let f = &report.failures;
    line(&Value::new(
        "fail_frac",
        f.fail_frac(),
        "ratio",
        format!("{} of {} operations failed", f.failed(), f.attempted()),
    ));
    for reason in f.reasons() {
        println!("  FAILED {reason}");
    }
}

/// Runs every workload in turn, each as its own run.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    for (name, _) in catalog::WORKLOADS {
        let mut args = raw.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above");
        args[at + 1] = name.to_string();
        match Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("sweepbench: {name} failed: {other:?}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
