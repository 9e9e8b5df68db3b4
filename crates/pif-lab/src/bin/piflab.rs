//! `piflab` — the sweep-orchestration CLI.
//!
//! ```text
//! piflab list
//! piflab run <spec>... [--all] [--smoke] [--scale tiny|quick|paper]
//!            [--threads N] [--out PATH] [--out-dir DIR] [--quiet]
//!            [--cache] [--cache-dir DIR] [--profile]
//! piflab check <report.json> <baseline.json> [--tol X]
//! piflab diff <a.json> <b.json>
//! piflab serve [--addr HOST:PORT] [--threads N] [--workers N]
//!              [--queue-depth N] [--deadline-ms N]
//!              [--cache-dir DIR] [--no-cache]
//! piflab submit <spec>... [--addr HOST:PORT] [--smoke]
//!               [--scale tiny|quick|paper] [--out PATH] [--out-dir DIR]
//!               [--deadline-ms N] [--retries N] [--retry-base-ms N]
//!               [--quiet]
//! piflab stats [--addr HOST:PORT]
//! piflab metrics [--addr HOST:PORT] [--format prometheus|json]
//! piflab cache stats|clear [--cache-dir DIR]
//! ```
//!
//! `run` executes committed figure specs (see `piflab list`) and writes
//! one `pif-lab-sweep/v1` JSON report per spec. `check` compares a fresh
//! report against a committed golden baseline with per-metric tolerances
//! and exits non-zero on any violation — this is the CI gate that turns
//! every figure into a regression test. `--smoke` is the CI profile:
//! tiny scale, deterministic, seconds per spec.
//!
//! `serve` runs `pifd`, the long-lived sweep daemon: a bounded job queue
//! over the same `run_spec` path, fronted by the line-delimited JSON
//! protocol of `pif_lab::protocol`, with a persistent content-addressed
//! result cache. `submit` is its client: reports come back byte-identical
//! to a local `run` of the same spec and scale. Transient failures —
//! refused connections, sockets dying mid-exchange, retryable daemon
//! error frames — are retried with exponential backoff and jitter
//! (`--retries`, `--retry-base-ms`); every terminal failure prints one
//! structured `piflab submit: <category>: ...` line. `stats` and `metrics`
//! query a running daemon's counters and its full `pif_obs` exposition.
//! `cache` inspects or clears the on-disk store.
//!
//! `run --profile` writes one `pif-lab-profile/v1` timing sidecar per
//! report at `<report>.profile.json` — next to the report, never inside
//! it, so report bytes stay identical with profiling on or off.
//!
//! Exit codes are uniform across subcommands: `0` success, `1` runtime
//! failure (I/O, check violations, daemon errors), `2` usage errors —
//! including naming a spec the registry does not know.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pif_lab::json::Json;
use pif_lab::protocol::{Request, Response};
use pif_lab::service::{LatencySummary, MetricsFormat, Service, ServiceConfig};
use pif_lab::{
    protocol, registry, report, run_spec_profiled, run_spec_stats, ResultCache, RunOptions, Scale,
    SweepReport,
};
use pif_types::hash::{mix64, SPLITMIX_GAMMA};

/// One dispatch-table row: verb, usage line, handler.
type Command = (&'static str, &'static str, fn(&[String]) -> ExitCode);

/// The dispatch table: one row per subcommand, shared by `main` and
/// `usage`, so a new verb cannot be added without a usage line.
const COMMANDS: &[Command] = &[
    ("list", "list the committed sweep specs", cmd_list),
    ("run", "run specs locally and write JSON reports", cmd_run),
    (
        "check",
        "compare a report against a golden baseline",
        cmd_check,
    ),
    ("diff", "diff two reports cell by cell", cmd_diff),
    ("serve", "run the pifd sweep daemon", cmd_serve),
    ("submit", "submit specs to a running daemon", cmd_submit),
    ("stats", "print a running daemon's counters", cmd_stats),
    ("metrics", "scrape a running daemon's metrics", cmd_metrics),
    ("cache", "inspect or clear the result cache", cmd_cache),
];

fn usage() -> ExitCode {
    eprintln!("usage: piflab <command> [args]\n\ncommands:");
    for (name, help, _) in COMMANDS {
        eprintln!("  {name:<8} {help}");
    }
    eprintln!(
        "\nrun/submit: <spec>... [--all] [--smoke] [--scale tiny|quick|paper] \
         [--out PATH] [--out-dir DIR] [--quiet]\n\
         run also: [--threads N] [--cache] [--cache-dir DIR] [--profile]\n\
         submit also: [--addr HOST:PORT] [--deadline-ms N] [--retries N] [--retry-base-ms N]\n\
         check: <report.json> <baseline.json> [--tol X]\n\
         serve: [--addr HOST:PORT] [--threads N] [--workers N] [--queue-depth N]\n\
                [--deadline-ms N] [--cache-dir DIR] [--no-cache]\n\
         stats: [--addr HOST:PORT]\n\
         metrics: [--addr HOST:PORT] [--format prometheus|json]\n\
         cache: stats|clear [--cache-dir DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match COMMANDS.iter().find(|(name, _, _)| name == cmd) {
        Some((_, _, run)) => run(&args[1..]),
        None => usage(),
    }
}

fn cmd_list(_args: &[String]) -> ExitCode {
    println!("{:<14} {:>5} {:<22} TITLE", "SPEC", "CELLS", "AXIS");
    for spec in registry::all_specs() {
        println!(
            "{:<14} {:>5} {:<22} {}",
            spec.name,
            spec.grid_len(),
            format!("{} x{}", spec.axis.name(), spec.axis.len()),
            spec.title
        );
    }
    ExitCode::SUCCESS
}

/// Parses `tiny|quick|paper`.
fn parse_scale_name(name: &str) -> Option<Scale> {
    match name {
        "tiny" => Some(Scale::tiny()),
        "quick" => Some(Scale::quick()),
        "paper" => Some(Scale::paper()),
        _ => None,
    }
}

/// The scale a run/submit uses when `--scale` is absent: tiny under
/// `--smoke`, else the `PIF_SCALE` environment default.
fn effective_scale(explicit: Option<Scale>, smoke: bool) -> Scale {
    explicit.unwrap_or_else(|| {
        if smoke {
            Scale::tiny()
        } else {
            Scale::from_env()
        }
    })
}

/// Resolves a spec name, or produces the unknown-spec error message with
/// the registry's candidate list.
fn resolve_spec(name: &str) -> Result<pif_lab::SweepSpec, String> {
    registry::spec(name).ok_or_else(|| {
        let candidates: Vec<&str> = registry::all_specs().iter().map(|s| s.name).collect();
        format!(
            "unknown spec {name:?}; known specs: {}",
            candidates.join(", ")
        )
    })
}

#[derive(Debug, PartialEq)]
struct RunArgs {
    specs: Vec<String>,
    smoke: bool,
    scale: Option<Scale>,
    threads: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    quiet: bool,
    cache_dir: Option<PathBuf>,
    profile: bool,
}

/// Parses `piflab run` arguments. Errors are usage errors (exit 2).
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut opts = RunArgs {
        specs: Vec::new(),
        smoke: false,
        scale: None,
        threads: pif_lab::default_threads(),
        out: None,
        out_dir: PathBuf::from("target/piflab"),
        quiet: false,
        cache_dir: None,
        profile: false,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--smoke" => opts.smoke = true,
            "--quiet" => opts.quiet = true,
            "--profile" => opts.profile = true,
            "--cache" => {
                opts.cache_dir.get_or_insert_with(ResultCache::default_dir);
            }
            "--cache-dir" => match it.next() {
                Some(p) => opts.cache_dir = Some(PathBuf::from(p)),
                None => return Err("--cache-dir needs a directory".into()),
            },
            "--scale" => match it.next().map(String::as_str).and_then(parse_scale_name) {
                Some(s) => opts.scale = Some(s),
                None => return Err("--scale needs tiny|quick|paper".into()),
            },
            "--threads" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.threads = n,
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return Err("--out needs a path".into()),
            },
            "--out-dir" => match it.next() {
                Some(p) => opts.out_dir = PathBuf::from(p),
                None => return Err("--out-dir needs a directory".into()),
            },
            name if !name.starts_with('-') => opts.specs.push(name.to_string()),
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if all {
        opts.specs = registry::all_specs()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
    }
    if opts.specs.is_empty() {
        return Err("name at least one spec, or pass --all (see `piflab list`)".into());
    }
    if opts.out.is_some() && opts.specs.len() != 1 {
        return Err("--out only applies to a single spec; use --out-dir for several".into());
    }
    Ok(opts)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let opts = match parse_run_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("piflab run: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = effective_scale(opts.scale, opts.smoke);
    let cache = match &opts.cache_dir {
        Some(dir) => match ResultCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("piflab run: cannot open cache at {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    for name in &opts.specs {
        let spec = match resolve_spec(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("piflab run: {e}");
                return ExitCode::from(2);
            }
        };
        if !opts.quiet {
            eprintln!(
                "piflab: {} — {} cells x {} instrs on {} threads",
                spec.name,
                spec.grid_len(),
                scale.instructions,
                opts.threads
            );
        }
        let mut run_opts = RunOptions::new()
            .scale(scale)
            .threads(opts.threads)
            .smoke(opts.smoke);
        if let Some(c) = &cache {
            run_opts = run_opts.cache(c);
        }
        let (report, stats, profile) = if opts.profile {
            let (report, stats, profile) = run_spec_profiled(&spec, &run_opts);
            (report, stats, Some(profile))
        } else {
            let (report, stats) = run_spec_stats(&spec, &run_opts);
            (report, stats, None)
        };
        if cache.is_some() && !opts.quiet {
            eprintln!(
                "piflab: {} — {} cells cached, {} executed",
                spec.name, stats.cached_cells, stats.executed_cells
            );
        }
        let path = out_path(&opts.out, &opts.out_dir, name);
        match write_validated_report(&report, &path) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("piflab: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(profile) = profile {
            // The sidecar sits next to the report, never inside it: the
            // report bytes above are identical with or without --profile.
            let sidecar = path.with_extension("profile.json");
            if let Err(e) = write_report_bytes(&profile.to_json(), &sidecar) {
                eprintln!("piflab: {e}");
                return ExitCode::FAILURE;
            }
            if !opts.quiet {
                eprintln!(
                    "piflab: {} — {} us simulated across {} cells, profile at {}",
                    spec.name,
                    profile.total_exec_us(),
                    profile.cells.len(),
                    sidecar.display()
                );
            }
        }
        if !opts.quiet {
            print_summary(&report);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn out_path(out: &Option<PathBuf>, out_dir: &Path, spec: &str) -> PathBuf {
    out.clone()
        .unwrap_or_else(|| out_dir.join(format!("{spec}.json")))
}

/// Serializes, re-parses, schema-validates, and only then writes: an
/// invalid report never lands on disk (shared by `run` and `submit`).
fn write_validated_report(report: &SweepReport, path: &Path) -> Result<(), String> {
    let json = report
        .to_json()
        .map_err(|e| format!("refusing to emit report for {}: {e}", report.spec))?;
    validate_report_bytes(&json, &report.spec)?;
    write_report_bytes(&json, path)
}

/// The validation half of the write path, on raw bytes (submit receives
/// bytes from the daemon and must not re-serialize them).
fn validate_report_bytes(json: &str, spec: &str) -> Result<(), String> {
    let reparsed =
        Json::parse(json).map_err(|e| format!("emitted invalid JSON for {spec}: {e}"))?;
    report::validate_report(&reparsed)
        .map_err(|e| format!("emitted schema-invalid report for {spec}: {e}"))
}

fn write_report_bytes(json: &str, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A compact per-cell stdout summary (the pretty per-figure tables live
/// in the `pif-experiments` binaries; this is the orchestrator's view).
fn print_summary(report: &SweepReport) {
    const HEADLINE: [&str; 6] = [
        "miss_coverage",
        "predictor_coverage",
        "uipc",
        "uipc_speedup_vs_none",
        "retire_sep",
        "footprint_mb",
    ];
    for cell in &report.cells {
        let mut line = format!(
            "  [{:>3}] {:<12} {:<14} {:<20}",
            cell.index,
            cell.workload,
            cell.prefetcher.unwrap_or("-"),
            cell.point
        );
        let mut shown = 0;
        for name in HEADLINE {
            if let Some(v) = cell.metric(name) {
                line.push_str(&format!(" {name}={v:.4}"));
                shown += 1;
            }
        }
        if shown == 0 {
            line.push_str(&format!(" metrics={}", cell.metrics.len()));
        }
        println!("{line}");
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tol = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tol = Some(t),
                _ => {
                    eprintln!("--tol needs a non-negative number");
                    return ExitCode::from(2);
                }
            },
            p if !p.starts_with('-') => paths.push(p.to_string()),
            _ => return usage(),
        }
    }
    let [new_path, base_path] = paths.as_slice() else {
        return usage();
    };
    let (new, base) = match (load(new_path), load(base_path)) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("piflab check: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report::check_reports(&new, &base, tol) {
        Ok(summary) => {
            println!(
                "check passed: {} cells, {} metrics within tolerance (max rel delta {:.3e})",
                summary.cells, summary.metrics, summary.max_rel_delta
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            eprintln!(
                "piflab check: {} violation(s) against {base_path}:",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        return usage();
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("piflab diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::diff_reports(&a, &b));
    ExitCode::SUCCESS
}

/// Default daemon address (loopback only: pifd has no authentication).
const DEFAULT_ADDR: &str = "127.0.0.1:7421";

/// Set by SIGTERM/SIGINT (and by a protocol `shutdown` request); the
/// serve loop polls it and drains gracefully.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Hand-rolled: no signal crate in-tree. An atomic store is
    // async-signal-safe; the serve loop does the actual teardown.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

#[derive(Debug, PartialEq)]
struct ServeArgs {
    addr: String,
    threads: usize,
    workers: usize,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    cache_dir: Option<PathBuf>,
}

/// Parses `piflab serve` arguments. The daemon caches by default (that
/// is its reason to exist); `--no-cache` opts out.
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut opts = ServeArgs {
        addr: DEFAULT_ADDR.to_string(),
        threads: pif_lab::default_threads(),
        workers: 1,
        queue_depth: 16,
        deadline_ms: None,
        cache_dir: Some(ResultCache::default_dir()),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => opts.addr = a.clone(),
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--threads" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.threads = n,
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--workers" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.workers = n,
                _ => return Err("--workers needs a positive integer".into()),
            },
            "--queue-depth" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.queue_depth = n,
                _ => return Err("--queue-depth needs a positive integer".into()),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => opts.deadline_ms = Some(ms),
                _ => return Err("--deadline-ms needs a positive integer".into()),
            },
            "--cache-dir" => match it.next() {
                Some(p) => opts.cache_dir = Some(PathBuf::from(p)),
                None => return Err("--cache-dir needs a directory".into()),
            },
            "--no-cache" => opts.cache_dir = None,
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(opts)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let opts = match parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("piflab serve: {e}");
            return ExitCode::from(2);
        }
    };
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("piflab serve: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| opts.addr.clone());
    let cache_desc = opts
        .cache_dir
        .as_ref()
        .map(|d| d.display().to_string())
        .unwrap_or_else(|| "disabled".to_string());
    let service = Service::start(ServiceConfig {
        queue_depth: opts.queue_depth,
        threads: opts.threads,
        workers: opts.workers,
        default_deadline: opts.deadline_ms.map(Duration::from_millis),
        cache_dir: opts.cache_dir,
    });
    install_signal_handlers();
    // One parseable line on stdout so scripts (and CI) can wait for
    // readiness and discover an ephemeral --addr :0 port.
    println!(
        "pifd: listening on {addr} (workers {}, threads {}, queue {}, cache {cache_desc})",
        opts.workers, opts.threads, opts.queue_depth
    );
    let _ = std::io::stdout().flush();
    if let Err(e) = protocol::serve(listener, &service, &SHUTDOWN) {
        eprintln!("pifd: serve failed: {e}");
        service.shutdown();
        return ExitCode::FAILURE;
    }
    let stats = service.shutdown();
    println!(
        "pifd: drained, {} submitted / {} completed (max queue {}, exec {} us, \
         mean wait {:.1} us, {} stolen, {} deadline-exceeded, {} restarts, \
         {} quarantined)",
        stats.submitted,
        stats.completed,
        stats.max_queue_depth,
        stats.exec.total_us,
        stats.queue_wait.mean_us(),
        stats.stolen_jobs,
        stats.deadline_exceeded,
        stats.worker_restarts,
        stats.quarantined
    );
    ExitCode::SUCCESS
}

#[derive(Debug, PartialEq)]
struct SubmitArgs {
    specs: Vec<String>,
    addr: String,
    smoke: bool,
    scale: Option<Scale>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    quiet: bool,
    deadline_ms: Option<u64>,
    retries: u32,
    retry_base_ms: u64,
}

/// Parses `piflab submit` arguments.
fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut opts = SubmitArgs {
        specs: Vec::new(),
        addr: DEFAULT_ADDR.to_string(),
        smoke: false,
        scale: None,
        out: None,
        out_dir: PathBuf::from("target/piflab"),
        quiet: false,
        deadline_ms: None,
        retries: 3,
        retry_base_ms: 200,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--quiet" => opts.quiet = true,
            "--addr" => match it.next() {
                Some(a) => opts.addr = a.clone(),
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--scale" => match it.next().map(String::as_str).and_then(parse_scale_name) {
                Some(s) => opts.scale = Some(s),
                None => return Err("--scale needs tiny|quick|paper".into()),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return Err("--out needs a path".into()),
            },
            "--out-dir" => match it.next() {
                Some(p) => opts.out_dir = PathBuf::from(p),
                None => return Err("--out-dir needs a directory".into()),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => opts.deadline_ms = Some(ms),
                _ => return Err("--deadline-ms needs a positive integer".into()),
            },
            "--retries" => match it.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(n) => opts.retries = n,
                None => return Err("--retries needs a non-negative integer".into()),
            },
            "--retry-base-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => opts.retry_base_ms = ms,
                _ => return Err("--retry-base-ms needs a positive integer".into()),
            },
            name if !name.starts_with('-') => opts.specs.push(name.to_string()),
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if opts.specs.is_empty() {
        return Err("name at least one spec (see `piflab list`)".into());
    }
    if opts.out.is_some() && opts.specs.len() != 1 {
        return Err("--out only applies to a single spec; use --out-dir for several".into());
    }
    Ok(opts)
}

/// One terminal `piflab submit` failure: every way the exchange can
/// die, each with a stable category token (the first word of the
/// printed line) so scripts and tests can dispatch on it.
#[derive(Debug)]
enum SubmitFailure {
    /// TCP connect was refused/reset on every attempt.
    Connect { addr: String, error: String },
    /// The socket died mid-exchange on every attempt.
    Io { error: String },
    /// The daemon answered with bytes that are not a `piflab/1` frame.
    BadFrame { error: String },
    /// The daemon answered with a typed error frame (terminal, or still
    /// failing after the retry budget).
    Daemon {
        kind: String,
        message: String,
        candidates: Vec<String>,
    },
    /// The daemon's report failed client-side schema validation.
    BadReport { spec: String, error: String },
    /// Writing the validated report to disk failed.
    WriteOut { error: String },
}

impl SubmitFailure {
    /// Usage-class failures (the request itself can never succeed) exit
    /// 2, matching `piflab run`'s unknown-spec behavior; everything else
    /// is a runtime failure, exit 1.
    fn exit_code(&self) -> ExitCode {
        match self {
            SubmitFailure::Daemon { kind, .. }
                if kind == "unknown_spec" || kind == "bad_request" =>
            {
                ExitCode::from(2)
            }
            _ => ExitCode::FAILURE,
        }
    }
}

impl std::fmt::Display for SubmitFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitFailure::Connect { addr, error } => write!(
                f,
                "connect: cannot reach {addr} (is `piflab serve` running?): {error}"
            ),
            SubmitFailure::Io { error } => write!(f, "io: {error}"),
            SubmitFailure::BadFrame { error } => write!(f, "bad-frame: {error}"),
            SubmitFailure::Daemon { kind, message, .. } => write!(f, "daemon [{kind}]: {message}"),
            SubmitFailure::BadReport { spec, error } => {
                write!(f, "bad-report: daemon sent bad report for {spec}: {error}")
            }
            SubmitFailure::WriteOut { error } => write!(f, "write: {error}"),
        }
    }
}

/// Whether one attempt's failure is worth another connection. Connect
/// and mid-exchange I/O failures are transient by assumption; daemon
/// error frames say so themselves (`"retryable"`); a frame that does
/// not even parse suggests a version mismatch, which retrying cannot
/// fix.
fn attempt_is_retryable(failure: &SubmitFailure, frame_retryable: bool) -> bool {
    match failure {
        SubmitFailure::Connect { .. } | SubmitFailure::Io { .. } => true,
        SubmitFailure::Daemon { .. } => frame_retryable,
        _ => false,
    }
}

/// Exponential backoff with deterministic jitter: attempt `n` sleeps a
/// duration drawn from `[base·2ⁿ/2, base·2ⁿ]`, the draw seeded by
/// (seed, attempt) so tests are reproducible.
fn backoff_delay(base_ms: u64, attempt: u32, seed: u64) -> Duration {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(10));
    // The SplitMix64 stream seeded by `seed`, at position `attempt`.
    let z = mix64(seed.wrapping_add(u64::from(attempt).wrapping_mul(SPLITMIX_GAMMA)));
    let half = exp / 2;
    Duration::from_millis(half + z % (half.max(1) + 1))
}

/// One connect + one request/response exchange, no retries.
fn exchange_once(addr: &str, request: &Request) -> Result<Response, SubmitFailure> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| SubmitFailure::Connect {
        addr: addr.to_string(),
        error: e.to_string(),
    })?;
    let io = |e: std::io::Error| SubmitFailure::Io {
        error: e.to_string(),
    };
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(request.to_line().as_bytes())
        .and_then(|()| writer.flush())
        .map_err(io)?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(SubmitFailure::Io {
            error: "daemon closed the connection before replying".to_string(),
        }),
        Ok(_) => Response::parse(&line).map_err(|error| SubmitFailure::BadFrame { error }),
        Err(e) => Err(io(e)),
    }
}

/// Sends `request` with up to `retries` reconnect-and-resend attempts
/// after the first, backing off exponentially between attempts.
fn submit_with_retry(
    addr: &str,
    request: &Request,
    retries: u32,
    base_ms: u64,
    quiet: bool,
) -> Result<Response, SubmitFailure> {
    let seed = u64::from(std::process::id());
    let mut attempt = 0u32;
    loop {
        let (failure, frame_retryable) = match exchange_once(addr, request) {
            Ok(Response::Error {
                kind,
                retryable,
                message,
                candidates,
                ..
            }) => (
                SubmitFailure::Daemon {
                    kind,
                    message,
                    candidates,
                },
                retryable,
            ),
            Ok(response) => return Ok(response),
            Err(failure) => (failure, false),
        };
        if attempt >= retries || !attempt_is_retryable(&failure, frame_retryable) {
            return Err(failure);
        }
        let delay = backoff_delay(base_ms, attempt, seed);
        if !quiet {
            eprintln!(
                "piflab submit: attempt {} failed ({failure}); retrying in {} ms",
                attempt + 1,
                delay.as_millis()
            );
        }
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// Submits one spec and writes the validated report. Split from
/// `cmd_submit` so the error paths are unit-testable without a daemon.
fn submit_one(opts: &SubmitArgs, id: u64, name: &str, scale: Scale) -> Result<(), SubmitFailure> {
    let request = Request::Submit {
        id,
        spec: name.to_string(),
        scale,
        smoke: opts.smoke,
        deadline_ms: opts.deadline_ms,
    };
    let response = submit_with_retry(
        &opts.addr,
        &request,
        opts.retries,
        opts.retry_base_ms,
        opts.quiet,
    )?;
    match response {
        Response::Report {
            spec,
            cached_cells,
            executed_cells,
            json,
            ..
        } => {
            // Same gate as a local run: the daemon's bytes must parse
            // and validate before they land on disk — and they are
            // written verbatim, preserving byte identity with `run`.
            validate_report_bytes(&json, &spec).map_err(|error| SubmitFailure::BadReport {
                spec: spec.clone(),
                error,
            })?;
            let path = out_path(&opts.out, &opts.out_dir, name);
            write_report_bytes(&json, &path).map_err(|error| SubmitFailure::WriteOut { error })?;
            if !opts.quiet {
                eprintln!(
                    "piflab submit: {spec} — {cached_cells} cells cached, {executed_cells} executed"
                );
            }
            println!("wrote {}", path.display());
            Ok(())
        }
        other => Err(SubmitFailure::BadFrame {
            error: format!("unexpected response {other:?}"),
        }),
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let opts = match parse_submit_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("piflab submit: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = effective_scale(opts.scale, opts.smoke);
    for (i, name) in opts.specs.iter().enumerate() {
        if let Err(failure) = submit_one(&opts, i as u64 + 1, name, scale) {
            eprintln!("piflab submit: {failure}");
            if let SubmitFailure::Daemon { candidates, .. } = &failure {
                if !candidates.is_empty() {
                    eprintln!("  known specs: {}", candidates.join(", "));
                }
            }
            return failure.exit_code();
        }
    }
    ExitCode::SUCCESS
}

/// Sends one request to a daemon and reads one response.
fn request_once(addr: &str, request: &Request) -> Result<Response, String> {
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr} (is `piflab serve` running?): {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(request.to_line().as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => Response::parse(&line),
        Err(e) => Err(e.to_string()),
    }
}

/// Parses the `[--addr HOST:PORT]`-only argument form shared by `stats`
/// and `metrics` (the latter also takes `--format`).
fn parse_addr_args(cmd: &str, args: &[String]) -> Result<(String, Option<String>), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut format = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--format" if cmd == "metrics" => match it.next() {
                Some(f) => format = Some(f.clone()),
                None => return Err("--format needs prometheus|json".into()),
            },
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((addr, format))
}

fn print_latency(label: &str, l: &LatencySummary) {
    println!(
        "  {label}: {} jobs, mean {:.1} us, max {} us",
        l.count,
        l.mean_us(),
        l.max_us
    );
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let (addr, _) = match parse_addr_args("stats", args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("piflab stats: {e}");
            return ExitCode::from(2);
        }
    };
    match request_once(&addr, &Request::Stats) {
        Ok(Response::Stats {
            submitted,
            completed,
            max_queue_depth,
            queue_wait,
            exec,
            stolen_jobs,
            deadline_exceeded,
            worker_restarts,
            quarantined,
            cache,
        }) => {
            println!(
                "pifd at {addr}: {submitted} submitted, {completed} completed \
                 (max queue {max_queue_depth})"
            );
            print_latency("queue wait", &queue_wait);
            print_latency("exec", &exec);
            println!("  stolen jobs: {stolen_jobs}");
            println!(
                "  failures: {deadline_exceeded} deadline-exceeded, \
                 {worker_restarts} worker restarts, {quarantined} quarantined"
            );
            match cache {
                Some(c) => println!(
                    "  cache: {} hits, {} misses ({} corrupt, {} quarantined)",
                    c.hits, c.misses, c.corrupt, c.quarantined
                ),
                None => println!("  cache: disabled"),
            }
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("piflab stats: unexpected response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("piflab stats: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_metrics(args: &[String]) -> ExitCode {
    let (addr, format) = match parse_addr_args("metrics", args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("piflab metrics: {e}");
            return ExitCode::from(2);
        }
    };
    let format = match format.as_deref() {
        None | Some("prometheus") => MetricsFormat::Prometheus,
        Some("json") => MetricsFormat::Json,
        Some(other) => {
            eprintln!("piflab metrics: unknown format {other:?} (want prometheus|json)");
            return ExitCode::from(2);
        }
    };
    match request_once(&addr, &Request::Metrics { format }) {
        Ok(Response::Metrics { format, body }) => {
            // Validate the exposition client-side before printing, the
            // same way `submit` validates report bytes.
            let valid = match format {
                MetricsFormat::Prometheus => pif_obs::validate_prometheus(&body),
                MetricsFormat::Json => Json::parse(&body).map(|_| ()),
            };
            if let Err(e) = valid {
                eprintln!("piflab metrics: daemon sent invalid exposition: {e}");
                return ExitCode::FAILURE;
            }
            print!("{body}");
            if !body.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("piflab metrics: unexpected response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("piflab metrics: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_cache(args: &[String]) -> ExitCode {
    let mut verb = None;
    let mut dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => match it.next() {
                Some(p) => dir = Some(PathBuf::from(p)),
                None => {
                    eprintln!("piflab cache: --cache-dir needs a directory");
                    return ExitCode::from(2);
                }
            },
            v @ ("stats" | "clear") if verb.is_none() => verb = Some(v.to_string()),
            other => {
                eprintln!("piflab cache: expected stats|clear, got {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(verb) = verb else {
        eprintln!("piflab cache: expected stats|clear");
        return ExitCode::from(2);
    };
    let dir = dir.unwrap_or_else(ResultCache::default_dir);
    let cache = match ResultCache::open(&dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("piflab cache: cannot open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let result = match verb.as_str() {
        "stats" => cache.verify_entries().map(|(valid, corrupt)| {
            println!(
                "{} entries ({valid} valid, {corrupt} corrupt) under {}",
                valid + corrupt,
                cache.root().display()
            )
        }),
        _ => cache
            .clear()
            .map(|n| println!("removed {n} entries under {}", cache.root().display())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("piflab cache {verb}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn run_args_parse_flags_and_specs() {
        let opts = parse_run_args(&s(&[
            "fig10",
            "--smoke",
            "--threads",
            "3",
            "--out",
            "r.json",
            "--cache-dir",
            "/tmp/c",
        ]))
        .unwrap();
        assert_eq!(opts.specs, vec!["fig10"]);
        assert!(opts.smoke);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.out, Some(PathBuf::from("r.json")));
        assert_eq!(opts.cache_dir, Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn run_args_reject_bad_input() {
        assert!(parse_run_args(&s(&[])).is_err(), "no specs");
        assert!(parse_run_args(&s(&["fig10", "--threads", "0"])).is_err());
        assert!(parse_run_args(&s(&["fig10", "--scale", "huge"])).is_err());
        assert!(parse_run_args(&s(&["fig10", "--wat"])).is_err());
        assert!(
            parse_run_args(&s(&["fig2", "fig3", "--out", "one.json"])).is_err(),
            "--out with several specs"
        );
    }

    #[test]
    fn run_args_all_expands_registry() {
        let opts = parse_run_args(&s(&["--all", "--smoke"])).unwrap();
        assert_eq!(opts.specs.len(), registry::all_specs().len());
    }

    #[test]
    fn profile_flag_parses() {
        let opts = parse_run_args(&s(&["fig10", "--profile"])).unwrap();
        assert!(opts.profile);
        assert!(!parse_run_args(&s(&["fig10"])).unwrap().profile);
    }

    #[test]
    fn addr_args_parse_for_stats_and_metrics() {
        let (addr, format) = parse_addr_args("stats", &[]).unwrap();
        assert_eq!(addr, DEFAULT_ADDR);
        assert_eq!(format, None);
        let (addr, format) = parse_addr_args(
            "metrics",
            &s(&["--addr", "127.0.0.1:9", "--format", "json"]),
        )
        .unwrap();
        assert_eq!(addr, "127.0.0.1:9");
        assert_eq!(format.as_deref(), Some("json"));
        assert!(
            parse_addr_args("stats", &s(&["--format", "json"])).is_err(),
            "stats takes no --format"
        );
        assert!(parse_addr_args("metrics", &s(&["--wat"])).is_err());
    }

    #[test]
    fn cache_flag_defaults_the_directory() {
        let opts = parse_run_args(&s(&["fig10", "--cache"])).unwrap();
        assert_eq!(opts.cache_dir, Some(ResultCache::default_dir()));
        let no_cache = parse_run_args(&s(&["fig10"])).unwrap();
        assert_eq!(no_cache.cache_dir, None);
    }

    #[test]
    fn serve_args_defaults_and_overrides() {
        let d = parse_serve_args(&[]).unwrap();
        assert_eq!(d.addr, DEFAULT_ADDR);
        assert_eq!(d.queue_depth, 16);
        assert_eq!(d.cache_dir, Some(ResultCache::default_dir()));
        assert_eq!(d.workers, 1);
        assert_eq!(d.deadline_ms, None);
        let o = parse_serve_args(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--queue-depth",
            "4",
            "--workers",
            "3",
            "--deadline-ms",
            "30000",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.queue_depth, 4);
        assert_eq!(o.workers, 3);
        assert_eq!(o.deadline_ms, Some(30_000));
        assert_eq!(o.cache_dir, None);
        assert!(parse_serve_args(&s(&["--queue-depth", "0"])).is_err());
        assert!(parse_serve_args(&s(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&s(&["--deadline-ms", "no"])).is_err());
    }

    #[test]
    fn submit_args_parse() {
        let o = parse_submit_args(&s(&["fig10", "--addr", "127.0.0.1:9", "--smoke"])).unwrap();
        assert_eq!(o.specs, vec!["fig10"]);
        assert_eq!(o.addr, "127.0.0.1:9");
        assert!(o.smoke);
        assert_eq!((o.retries, o.retry_base_ms, o.deadline_ms), (3, 200, None));
        let o = parse_submit_args(&s(&[
            "fig10",
            "--retries",
            "0",
            "--retry-base-ms",
            "5",
            "--deadline-ms",
            "1000",
        ]))
        .unwrap();
        assert_eq!(
            (o.retries, o.retry_base_ms, o.deadline_ms),
            (0, 5, Some(1000))
        );
        assert!(parse_submit_args(&s(&["--smoke"])).is_err(), "no specs");
        assert!(parse_submit_args(&s(&["fig10", "--retry-base-ms", "0"])).is_err());
    }

    fn tiny_submit() -> Request {
        Request::Submit {
            id: 1,
            spec: "fig10".to_string(),
            scale: Scale::tiny(),
            smoke: true,
            deadline_ms: None,
        }
    }

    #[test]
    fn refused_connection_is_a_structured_connect_failure() {
        // Bind a listener to reserve a port, then drop it: connecting to
        // the now-closed port is refused (or reset) deterministically.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let failure = submit_with_retry(&addr, &tiny_submit(), 1, 1, true).unwrap_err();
        match &failure {
            SubmitFailure::Connect { addr: a, .. } => assert_eq!(a, &addr),
            other => panic!("expected connect failure, got {other:?}"),
        }
        assert_eq!(failure.exit_code(), ExitCode::FAILURE);
        let printed = failure.to_string();
        assert!(printed.starts_with("connect: "), "{printed}");
        assert!(printed.contains(&addr), "{printed}");
    }

    #[test]
    fn daemon_closing_mid_exchange_is_a_structured_io_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept and immediately drop every connection: the client sees
        // EOF (or reset) mid-exchange on the first attempt and each of
        // its retries.
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(3) {
                drop(stream);
            }
        });
        let failure = submit_with_retry(&addr, &tiny_submit(), 2, 1, true).unwrap_err();
        server.join().unwrap();
        assert!(
            matches!(failure, SubmitFailure::Io { .. }),
            "expected io failure, got {failure:?}"
        );
        assert_eq!(failure.exit_code(), ExitCode::FAILURE);
        assert!(failure.to_string().starts_with("io: "), "{failure}");
    }

    #[test]
    fn exit_codes_split_usage_failures_from_runtime_failures() {
        let usage = SubmitFailure::Daemon {
            kind: "unknown_spec".to_string(),
            message: "unknown spec \"nope\"".to_string(),
            candidates: vec!["fig10".to_string()],
        };
        assert_eq!(usage.exit_code(), ExitCode::from(2));
        let runtime = SubmitFailure::Daemon {
            kind: "failed".to_string(),
            message: "sweep died".to_string(),
            candidates: Vec::new(),
        };
        assert_eq!(runtime.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    fn retry_policy_and_backoff_are_deterministic() {
        let io = SubmitFailure::Io {
            error: "reset".to_string(),
        };
        assert!(attempt_is_retryable(&io, false));
        let bad_frame = SubmitFailure::BadFrame {
            error: "not json".to_string(),
        };
        assert!(!attempt_is_retryable(&bad_frame, false));
        let daemon = SubmitFailure::Daemon {
            kind: "deadline_exceeded".to_string(),
            message: "m".to_string(),
            candidates: Vec::new(),
        };
        assert!(attempt_is_retryable(&daemon, true));
        assert!(!attempt_is_retryable(&daemon, false));
        for attempt in 0..4 {
            let d = backoff_delay(100, attempt, 7);
            assert_eq!(d, backoff_delay(100, attempt, 7), "same seed, same delay");
            let exp = 100u64 << attempt;
            let ms = d.as_millis() as u64;
            assert!(ms >= exp / 2 && ms <= exp, "attempt {attempt}: {ms} ms");
        }
    }

    #[test]
    fn unknown_spec_error_lists_candidates() {
        let err = resolve_spec("not-a-spec").unwrap_err();
        assert!(err.contains("unknown spec"), "{err}");
        for spec in registry::all_specs() {
            assert!(err.contains(spec.name), "missing candidate {}", spec.name);
        }
        assert!(resolve_spec("fig10").is_ok());
    }

    #[test]
    fn scale_names_resolve() {
        assert_eq!(parse_scale_name("tiny"), Some(Scale::tiny()));
        assert_eq!(parse_scale_name("paper"), Some(Scale::paper()));
        assert_eq!(parse_scale_name("big"), None);
        assert_eq!(effective_scale(None, true), Scale::tiny());
        assert_eq!(effective_scale(Some(Scale::quick()), true), Scale::quick());
    }
}
