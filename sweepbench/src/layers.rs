//! Per-layer probes of a traced run.
//!
//! Every probe calls a public function of one layer on the workload's
//! own inputs inside a [`Tracer`] span, so each layer's rate comes from
//! the benchmark's code and the program under test stays uninstrumented.
//! Layers are named after the crates they time: `workloads`, `trace`,
//! `sim`, `core`, `baselines` and `lab`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use pif_baselines::{NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::analysis::{analyze_regions, PifAnalyzer};
use pif_core::{HistoryBuffer, IndexTable, Pif, PifConfig, SabPool, SpatialCompactor};
use pif_lab::cache::{cell_fingerprint, CacheKey, ResultCache};
use pif_lab::protocol::{Request, Response};
use pif_lab::service::{Service, ServiceConfig, SweepJob};
use pif_lab::{run_spec, run_spec_profiled, RunOptions, Scale, SweepSpec};
use pif_sim::frontend::FrontEnd;
use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::{SamplingPlan, WarmStrategy};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunReport};
use pif_trace::{TraceReader, TraceWriter};
use pif_types::{RegionGeometry, RetiredInstr, SpatialRegionRecord};
use pif_workloads::WorkloadProfile;

use crate::stats::{median, Checks, Failures};
use crate::tracer::Tracer;
use crate::{Ctx, Value};

/// One generated workload input: a profile, its length and its
/// execution seed.
#[derive(Debug, Clone)]
pub struct Input {
    /// The workload generator.
    pub profile: WorkloadProfile,
    /// Instructions to generate.
    pub instructions: usize,
    /// Execution seed offset.
    pub seed: u64,
}

/// The six synthetic workloads at `scale`, generated with `seed`.
pub fn inputs(scale: Scale, seed: u64) -> Vec<Input> {
    scale
        .workloads()
        .into_iter()
        .map(|profile| Input {
            profile,
            instructions: scale.instructions,
            seed,
        })
        .collect()
}

/// Positions sought per input by the seek probe.
const SEEKS: u64 = 64;

/// Times each protocol frame is parsed by the parse probe.
const PARSE_REPS: u64 = 20;

/// The sampling plan of the replay and fan-out paths: 16 seeded-random
/// windows of 10K measured instructions, each independently warmed by
/// 20K + 20K instructions, so windows fan out on the pool.
pub fn sampling_plan(seed: u64) -> SamplingPlan {
    SamplingPlan::random(16, seed, 20_000, 10_000).with_warm_strategy(WarmStrategy::PerWindow {
        extra_warmup_instrs: 20_000,
    })
}

/// How many records `source` yields and whether they equal `expected`
/// one for one — a cheap comparison, so a timed drain stays a drain.
pub fn drain_matches(
    source: impl IntoIterator<Item = RetiredInstr>,
    expected: &[RetiredInstr],
) -> (u64, bool) {
    let (mut n, mut same) = (0, true);
    for (i, got) in source.into_iter().enumerate() {
        same &= expected.get(i) == Some(&got);
        n += 1;
    }
    (n, same && n == expected.len() as u64)
}

/// Encodes `instrs` to a v2 trace file at `path`; returns the file's
/// size in bytes.
///
/// # Errors
///
/// I/O errors from the file or the writer.
pub fn encode(path: &Path, name: &str, instrs: &[RetiredInstr]) -> std::io::Result<u64> {
    let mut w = TraceWriter::new(BufWriter::new(File::create(path)?), name)?;
    w.extend(instrs.iter().copied())?;
    w.finish()?.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// Runs the engine over the decoded records of the trace file at `path`.
///
/// # Errors
///
/// Open and decode errors.
pub fn replay_file<P: Prefetcher>(
    engine: &Engine,
    path: &Path,
    prefetcher: P,
    warmup: usize,
) -> Result<RunReport, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut reader = TraceReader::open(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut source = reader.instrs_mut();
    let report = engine.run(
        source.by_ref(),
        prefetcher,
        pif_sim::RunOptions::new().warmup(warmup),
    );
    match source.take_error() {
        Some(e) => Err(format!("decode {}: {e}", path.display())),
        None => Ok(report),
    }
}

/// Simulated cycle and event sums over the probe's engine runs.
#[derive(Debug, Default)]
struct SimSums {
    instructions: u64,
    base_cycles: u64,
    mispredict_cycles: u64,
    frontend_instructions: u64,
    none_misses: u64,
    stall: [u64; 5],
    stall_instructions: [u64; 5],
    pif_useful: u64,
    pif_issued: u64,
    tifs_useful: u64,
    tifs_issued: u64,
    pif_coverage: Vec<f64>,
    index_hit_rate: Vec<f64>,
    encoded_bytes: u64,
    encoded_instrs: u64,
}

/// Prefetchers of the engine probe, in [`SimSums::stall`] order.
const ENGINE_PROBES: [&str; 5] = ["none", "next-line", "tifs-unbounded", "pif", "perfect"];

/// Times every layer below `lab` on `inputs` (plus the sampled fan-out,
/// which reads the encoded files), adding one operation per input to
/// `failures` for the decode, seek and stream checks.
pub fn probe(
    ctx: &Ctx,
    inputs: &[Input],
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Vec<Value> {
    let engine_cfg = EngineConfig::paper_default();
    let engine = Engine::new(engine_cfg);
    let fig10_pif = pif_lab::registry::fig10().pif_base;
    let mut sums = SimSums::default();
    let pool = pif_lab::Pool::new(ctx.threads);
    for input in inputs {
        let mut checks = Checks::default();
        let n = input.instructions;
        let warmup = (n as f64 * 0.3) as usize;
        let name = input.profile.name().to_string();
        let trace = tracer.span("workloads.generate", n as u64, |_| {
            input.profile.generate_with_execution_seed(n, input.seed)
        });
        let instrs = trace.instrs();
        let streamed = tracer.span("workloads.stream_drain", n as u64, |_| {
            drain_matches(
                input.profile.stream_with_execution_seed(n, input.seed),
                instrs,
            )
        });
        checks.expect(streamed.1, || {
            format!("{name}: streamed and generated traces differ")
        });
        tracer.span("trace.hash", n as u64, |_| {
            pif_trace::content_hash(instrs.iter().copied())
        });

        let path = ctx.scratch.join(format!("probe-{name}.pift"));
        let encoded = tracer.span("trace.encode", n as u64, |_| encode(&path, &name, instrs));
        if let Some(bytes) = checks.ok(encoded.map_err(|e| format!("encode {name}: {e}"))) {
            sums.encoded_bytes += bytes;
            sums.encoded_instrs += n as u64;
        }
        let decoded = tracer.span("trace.decode", n as u64, |_| -> Result<_, String> {
            let file = File::open(&path).map_err(|e| e.to_string())?;
            let mut reader = TraceReader::open(BufReader::new(file)).map_err(|e| e.to_string())?;
            let mut source = reader.instrs_mut();
            let (_, same) = drain_matches(source.by_ref(), instrs);
            source.take_error().map_or(Ok(same), |e| Err(e.to_string()))
        });
        checks.expect(decoded == Ok(true), || {
            format!("{name}: decoded trace differs from the encoded one: {decoded:?}")
        });
        checks.ok(seek_probe(&path, instrs, tracer));

        tracer.span("sim.frontend", n as u64, |_| {
            FrontEnd::run_trace(engine_cfg.frontend, instrs).1
        });
        let run = |t: &mut Tracer, span: &'static str, p: &dyn Fn(&Engine) -> RunReport| {
            t.span(span, n as u64, |_| p(&engine))
        };
        let opts = || pif_sim::RunOptions::new().warmup(warmup);
        let src = || instrs.iter().copied();
        let reports = [
            run(tracer, "sim.engine_none", &|e| {
                e.run(src(), NoPrefetcher, opts())
            }),
            run(tracer, "baselines.engine_nextline", &|e| {
                e.run(src(), NextLinePrefetcher::aggressive(), opts())
            }),
            run(tracer, "baselines.engine_tifs", &|e| {
                e.run(src(), Tifs::unbounded(), opts())
            }),
            run(tracer, "core.engine_pif", &|e| {
                e.run(src(), Pif::new(fig10_pif), opts())
            }),
            run(tracer, "sim.engine_perfect", &|e| {
                e.run(src(), PerfectICache, opts())
            }),
        ];
        let none = &reports[0];
        sums.instructions += none.timing.instructions;
        sums.base_cycles += none.timing.base_cycles;
        sums.mispredict_cycles += none.timing.mispredict_cycles;
        sums.frontend_instructions += none.frontend.instructions;
        sums.none_misses += none.fetch.demand_misses;
        for (i, r) in reports.iter().enumerate() {
            sums.stall[i] += r.timing.fetch_stall_cycles;
            sums.stall_instructions[i] += r.timing.instructions;
        }
        sums.tifs_useful += reports[2].prefetch.useful;
        sums.tifs_issued += reports[2].prefetch.issued;
        sums.pif_useful += reports[3].prefetch.useful;
        sums.pif_issued += reports[3].prefetch.issued;
        sums.pif_coverage.push(reports[3].miss_coverage());

        sums.index_hit_rate
            .push(pif_structures_probe(instrs, tracer));
        tracer.span("core.analyze", n as u64, |_| {
            PifAnalyzer::new(PifConfig::paper_default(), engine_cfg.icache).analyze(instrs, warmup)
        });
        tracer.span("core.regions", n as u64, |_| {
            analyze_regions(
                instrs,
                RegionGeometry::new(8, 23).expect("fig3 probe geometry"),
            )
        });

        let plan = sampling_plan(input.seed);
        let simulated: u64 = plan.windows(n as u64).iter().map(|w| w.len()).sum();
        let sampled = tracer.span("lab.sampled_fanout", simulated, |_| {
            pif_lab::sampled::sample_trace_file_parallel(
                &engine_cfg,
                &plan,
                &path,
                |_| Pif::new(fig10_pif),
                &pool,
            )
        });
        checks.ok(sampled.map_err(|e| format!("{name}: sampled fan-out: {e}")));
        let _ = std::fs::remove_file(&path);
        failures.op(&format!("layer probe {name}"), checks.into_errors());
    }

    let per_instr = |num: u64, den: u64| num as f64 / den as f64;
    let mut out = vec![
        Value::new(
            "workloads.generate_s",
            tracer.total("workloads.generate").0,
            "s",
            "host",
        ),
        Value::new(
            "workloads.stream_drain_s",
            tracer.total("workloads.stream_drain").0,
            "s",
            "host",
        ),
        Value::new(
            "trace.encode_minstr_per_s",
            tracer.mega_rate("trace.encode"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "trace.decode_minstr_per_s",
            tracer.mega_rate("trace.decode"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "trace.seek_us",
            tracer.per_work("trace.seek", 1e6),
            "us",
            "host",
        ),
        Value::new(
            "trace.bytes_per_instr",
            per_instr(sums.encoded_bytes, sums.encoded_instrs),
            "B/instr",
            "v2 file size",
        ),
        Value::new(
            "trace.hash_minstr_per_s",
            tracer.mega_rate("trace.hash"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "sim.frontend_minstr_per_s",
            tracer.mega_rate("sim.frontend"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "sim.engine_none_minstr_per_s",
            tracer.mega_rate("sim.engine_none"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "sim.engine_perfect_minstr_per_s",
            tracer.mega_rate("sim.engine_perfect"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "sim.base_cpi",
            per_instr(sums.base_cycles, sums.instructions),
            "cycles/instr",
            "simulated",
        ),
    ];
    for (i, p) in ENGINE_PROBES.iter().enumerate() {
        out.push(Value::new(
            &format!("sim.fetch_stall_cpi.{p}"),
            per_instr(sums.stall[i], sums.stall_instructions[i]),
            "cycles/instr",
            "simulated",
        ));
    }
    out.extend([
        Value::new(
            "sim.mispredict_cpi",
            per_instr(sums.mispredict_cycles, sums.instructions),
            "cycles/instr",
            "simulated",
        ),
        Value::new(
            "sim.l1i_misses_per_kinstr",
            1000.0 * per_instr(sums.none_misses, sums.frontend_instructions),
            "misses/kinstr",
            "simulated, no prefetcher",
        ),
        Value::new(
            "core.engine_pif_minstr_per_s",
            tracer.mega_rate("core.engine_pif"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "core.history_append_ns",
            tracer.per_work("core.history_append", 1e9),
            "ns",
            "host",
        ),
        Value::new(
            "core.index_lookup_ns",
            tracer.per_work("core.index_lookup", 1e9),
            "ns",
            "host",
        ),
        Value::new(
            "core.sab_advance_ns",
            tracer.per_work("core.sab_advance", 1e9),
            "ns",
            "host",
        ),
        Value::new(
            "core.analyze_minstr_per_s",
            tracer.mega_rate("core.analyze"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "core.regions_minstr_per_s",
            tracer.mega_rate("core.regions"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "core.index_hit_rate",
            median(&sums.index_hit_rate),
            "ratio",
            "simulated",
        ),
        Value::new(
            "core.pif_prefetch_accuracy",
            per_instr(sums.pif_useful, sums.pif_issued),
            "ratio",
            "simulated",
        ),
        Value::new(
            "core.pif_miss_coverage",
            median(&sums.pif_coverage),
            "ratio",
            "simulated",
        ),
        Value::new(
            "baselines.engine_tifs_minstr_per_s",
            tracer.mega_rate("baselines.engine_tifs"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "baselines.engine_nextline_minstr_per_s",
            tracer.mega_rate("baselines.engine_nextline"),
            "Minstr/s",
            "host",
        ),
        Value::new(
            "baselines.tifs_prefetch_accuracy",
            per_instr(sums.tifs_useful, sums.tifs_issued),
            "ratio",
            "simulated",
        ),
        Value::new(
            "lab.sampled_fanout_minstr_per_s",
            tracer.mega_rate("lab.sampled_fanout"),
            "Minstr/s",
            "host",
        ),
    ]);
    out
}

/// Seeks to [`SEEKS`] spread-out records, timing each `seek_to_record`
/// and checking the record read there.
fn seek_probe(path: &Path, instrs: &[RetiredInstr], tracer: &mut Tracer) -> Result<(), String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut reader = TraceReader::open_indexed(BufReader::new(file)).map_err(|e| e.to_string())?;
    let n = instrs.len() as u64;
    for k in 0..SEEKS {
        // A stride coprime to SEEKS visits the file out of order.
        let pos = (k * 37 % SEEKS) * n / SEEKS + k;
        tracer
            .span("trace.seek", 1, |_| reader.seek_to_record(pos))
            .map_err(|e| format!("seek to {pos}: {e}"))?;
        let got = reader.instrs_mut().next();
        if got != Some(instrs[pos as usize]) {
            return Err(format!("seek to {pos} read {got:?}"));
        }
    }
    Ok(())
}

/// Times PIF's history, index and SAB structures on the workload's own
/// spatial-region stream; returns the index hit rate of a
/// lookup-then-insert pass (the fraction of triggers whose last
/// occurrence the index still holds).
fn pif_structures_probe(instrs: &[RetiredInstr], tracer: &mut Tracer) -> f64 {
    let cfg = PifConfig::paper_default();
    let geometry = cfg.geometry;
    // Fetch-block stream and the region records it compacts into; each
    // record remembers the block index that closed it.
    let mut blocks = Vec::new();
    for i in instrs {
        let b = i.pc.block();
        if blocks.last() != Some(&b) {
            blocks.push(b);
        }
    }
    let mut compactor = SpatialCompactor::new(geometry);
    let mut records: Vec<(SpatialRegionRecord, usize)> = Vec::new();
    for (j, &b) in blocks.iter().enumerate() {
        if let Some(r) = compactor.observe(b, true) {
            records.push((r.record, j));
        }
    }
    let kept = records.len().min(cfg.history_capacity);
    let mut history = HistoryBuffer::new(cfg.history_capacity);
    tracer.span("core.history_append", kept as u64, |_| {
        for (r, _) in &records[..kept] {
            history.append(*r, true);
        }
    });

    let mut index =
        IndexTable::new(cfg.index_entries, cfg.index_ways).expect("paper index geometry");
    for (pos, (r, _)) in records.iter().enumerate() {
        index.lookup(r.trigger);
        index.insert(r.trigger, pos as u64);
    }
    let hit_rate = index.hit_rate();
    tracer.span("core.index_lookup", records.len() as u64, |_| {
        let mut found = 0u64;
        for (r, _) in &records {
            found += u64::from(index.lookup(r.trigger).is_some());
        }
        found
    });

    // One stream replaying the history while fetch walks the blocks that
    // produced it: the steady-state "stream follows fetch" path.
    let mut pool = SabPool::new(cfg.sab_count, cfg.sab_window);
    let mut out = Vec::new();
    pool.allocate(0, 0, 0, geometry, &history, &mut out);
    let end = records.get(kept.saturating_sub(1)).map_or(0, |(_, j)| *j);
    tracer.span("core.sab_advance", end as u64, |_| {
        let mut matched = 0u64;
        for &b in &blocks[..end] {
            matched += u64::from(pool.advance(0, b, geometry, &history, &mut out));
        }
        matched
    });
    hit_rate
}

/// Times the `lab` layer on the workload's sweeps: a profiled run, a
/// single-thread determinism run, a cold-then-warm pass through a
/// cached [`Service`], direct cache stores and lookups, and protocol
/// parsing. Every report must equal its reference bytes.
pub fn probe_lab(
    ctx: &Ctx,
    specs: &[SweepSpec],
    scale: Scale,
    references: &[String],
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Vec<Value> {
    let opts = RunOptions::new().scale(scale).threads(ctx.threads);
    let mut exec_ms = Vec::new();
    let (mut busy_us, mut capacity_us, mut stolen) = (0.0, 0.0, 0u64);
    for (spec, reference) in specs.iter().zip(references) {
        let cells = spec.grid_len() as u64;
        let t0 = std::time::Instant::now();
        let (report, stats, profile) = tracer.span("lab.run_spec_profiled", cells, |_| {
            run_spec_profiled(spec, &opts)
        });
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        busy_us += profile.total_exec_us() as f64;
        capacity_us += wall_us * ctx.threads as f64;
        stolen += stats.stolen_jobs;
        exec_ms.extend(profile.cells.iter().map(|c| c.exec_us as f64 / 1e3));
        let mut checks = Checks::default();
        same_report(&mut checks, &report, reference, "profiled run");
        let single = tracer.span("lab.run_spec_single_thread", cells, |_| {
            run_spec(spec, &opts.clone().threads(1))
        });
        same_report(&mut checks, &single, reference, "--threads 1 run");
        failures.op(
            &format!("lab determinism {}", spec.name),
            checks.into_errors(),
        );
    }

    let (cached, executed, queue_ms, exec_service_ms) =
        service_probe(ctx, specs, scale, references, tracer, failures);
    cache_probe(ctx, specs, scale, tracer, failures);
    protocol_probe(specs, scale, references, tracer, failures);

    vec![
        Value::new(
            "lab.cell_exec_ms_p50",
            median(&exec_ms),
            "ms",
            "host, profiled cells",
        ),
        Value::new(
            "lab.cell_exec_ms_max",
            exec_ms.iter().copied().fold(0.0, f64::max),
            "ms",
            "host, profiled cells",
        ),
        Value::new(
            "lab.pool_busy_frac",
            busy_us / capacity_us,
            "ratio",
            "sum exec / (wall x threads)",
        ),
        Value::new("lab.stolen_jobs", stolen as f64, "count", "profiled runs"),
        Value::new(
            "lab.cache_lookup_us",
            tracer.per_work("lab.cache_lookup", 1e6),
            "us",
            "host",
        ),
        Value::new(
            "lab.cache_store_us",
            tracer.per_work("lab.cache_store", 1e6),
            "us",
            "host",
        ),
        Value::new(
            "lab.cached_cells",
            cached as f64,
            "count",
            "warm service submits",
        ),
        Value::new(
            "lab.executed_cells",
            executed as f64,
            "count",
            "warm service submits",
        ),
        Value::new(
            "lab.queue_wait_ms",
            queue_ms,
            "ms",
            "host, warm submits, Service::stats",
        ),
        Value::new(
            "lab.service_exec_ms",
            exec_service_ms,
            "ms",
            "host, warm submits, Service::stats",
        ),
        Value::new(
            "lab.protocol_parse_us",
            tracer.per_work("lab.protocol_parse", 1e6),
            "us",
            "host",
        ),
    ]
}

/// Fails `checks` unless `report` serializes, validates and equals
/// `reference` byte for byte.
pub fn same_report(
    checks: &mut Checks,
    report: &pif_lab::SweepReport,
    reference: &str,
    what: &str,
) {
    if let Some(json) = checks.ok(report.to_json()) {
        checks.ok(validate(&json));
        checks.expect(json == reference, || {
            format!("{what}: {} report differs from the reference", report.spec)
        });
    }
}

/// Parses and validates a report document.
///
/// # Errors
///
/// Malformed JSON or a schema violation.
pub fn validate(json: &str) -> Result<pif_lab::json::Json, String> {
    let j = pif_lab::json::Json::parse(json)?;
    pif_lab::report::validate_report(&j)?;
    Ok(j)
}

/// Cold then warm submits of every spec through a cached [`Service`];
/// returns the warm submits' cached and executed cells and their mean
/// queue wait and execution time in ms.
fn service_probe(
    ctx: &Ctx,
    specs: &[SweepSpec],
    scale: Scale,
    references: &[String],
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> (usize, usize, f64, f64) {
    let service = Service::start(ServiceConfig {
        threads: ctx.threads,
        cache_dir: Some(ctx.scratch.join("lab-service-cache")),
        ..ServiceConfig::default()
    });
    let mut submit_all = |tracer: &mut Tracer, warm: bool| {
        let (mut cached, mut executed) = (0, 0);
        for (spec, reference) in specs.iter().zip(references) {
            let mut checks = Checks::default();
            let outcome = tracer.span("lab.service_submit", 1, |_| {
                service
                    .submit(SweepJob::new(spec.clone(), scale))
                    .and_then(|h| h.wait())
                    .map_err(|e| e.to_string())
            });
            if let Some(o) = checks.ok(outcome) {
                same_report(&mut checks, &o.report, reference, "service");
                if warm {
                    checks.expect(o.executed_cells == 0, || {
                        format!("warm {} simulated {} cells", spec.name, o.executed_cells)
                    });
                }
                cached += o.cached_cells;
                executed += o.executed_cells;
            }
            let phase = if warm { "warm" } else { "cold" };
            failures.op(
                &format!("service {phase} {}", spec.name),
                checks.into_errors(),
            );
        }
        (cached, executed)
    };
    submit_all(tracer, false);
    let before = service.stats();
    let (cached, executed) = submit_all(tracer, true);
    let after = service.stats();
    service.shutdown();
    let mean_ms = |b: pif_lab::LatencySummary, a: pif_lab::LatencySummary| {
        (a.total_us - b.total_us) as f64 / (a.count - b.count).max(1) as f64 / 1e3
    };
    (
        cached,
        executed,
        mean_ms(before.queue_wait, after.queue_wait),
        mean_ms(before.exec, after.exec),
    )
}

/// Stores every cell of each spec's fresh run in an empty
/// [`ResultCache`] under its real key, then looks each one up, timing
/// both calls.
fn cache_probe(
    ctx: &Ctx,
    specs: &[SweepSpec],
    scale: Scale,
    tracer: &mut Tracer,
    failures: &mut Failures,
) {
    let cache = match ResultCache::open(ctx.scratch.join("lab-direct-cache")) {
        Ok(c) => c,
        Err(e) => return failures.op("cache probe", vec![format!("open cache: {e}")]),
    };
    let profiles = scale.workloads();
    for spec in specs {
        let mut checks = Checks::default();
        let report = run_spec(spec, &RunOptions::new().scale(scale).threads(ctx.threads));
        let names = spec.workload_names();
        let hashes: Vec<u64> = names
            .iter()
            .map(|n| {
                let p = profiles
                    .iter()
                    .find(|p| p.name() == n)
                    .expect("registry workload");
                pif_trace::content_hash(
                    p.stream_with_execution_seed(scale.instructions, spec.seed_offset),
                )
            })
            .collect();
        for coord in spec.jobs() {
            let key = CacheKey {
                trace_hash: hashes[coord.workload],
                config_fp: cell_fingerprint(spec, &scale, &names[coord.workload], coord),
            };
            let metrics = &report.cells[coord.index].metrics;
            let stored = tracer.span("lab.cache_store", 1, |_| cache.store(&key, metrics));
            checks.ok(stored);
            let found = tracer.span("lab.cache_lookup", 1, |_| cache.lookup(&key));
            checks.expect(found.as_ref() == Some(metrics), || {
                format!(
                    "{} cell {}: lookup returned {found:?}",
                    spec.name, coord.index
                )
            });
        }
        failures.op(&format!("cache probe {}", spec.name), checks.into_errors());
    }
}

/// Parses each spec's submit frame and report frame [`PARSE_REPS`]
/// times, checking that both round-trip.
fn protocol_probe(
    specs: &[SweepSpec],
    scale: Scale,
    references: &[String],
    tracer: &mut Tracer,
    failures: &mut Failures,
) {
    for (spec, reference) in specs.iter().zip(references) {
        let request = Request::Submit {
            id: 1,
            spec: spec.name.to_string(),
            scale,
            smoke: false,
            deadline_ms: None,
        };
        let response = Response::Report {
            request_id: 1,
            spec: spec.name.to_string(),
            cached_cells: 0,
            executed_cells: spec.grid_len() as u64,
            json: reference.clone(),
        };
        let (req_line, resp_line) = (request.to_line(), response.to_line());
        let mut checks = Checks::default();
        for _ in 0..PARSE_REPS {
            let parsed = tracer.span("lab.protocol_parse", 2, |_| {
                (Request::parse(&req_line), Response::parse(&resp_line))
            });
            checks.expect(
                parsed == (Ok(request.clone()), Ok(response.clone())),
                || format!("{} frames do not round-trip", spec.name),
            );
        }
        failures.op(
            &format!("protocol probe {}", spec.name),
            checks.into_errors(),
        );
    }
}
