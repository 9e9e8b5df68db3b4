//! `pifd-warm`: the daemon path — protocol, service queue and result
//! cache — answering a closed-loop client from a warm cache.
//!
//! `pif_lab::protocol::serve` runs in-process on a loopback listener
//! with a `ResultCache` in a fresh directory. One client connection
//! submits the mix `fig10`, `fig9-history`, `table1` and waits for each
//! report before sending the next request. The set-up fills the cache
//! cold (every cell simulated and stored); the timed rounds replay the
//! mix from the cache. pifd's protocol names registry specs only, so
//! this workload always runs the registry seed (`seed_offset` 0).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pif_lab::protocol::{serve, Request, Response};
use pif_lab::registry;
use pif_lab::service::{Service, ServiceConfig};
use pif_lab::Scale;

use crate::layers;
use crate::stats::Checks;
use crate::{timed_passes, timed_setup, Ctx, Outcome};

/// The closed-loop request mix, in submission order.
pub const MIX: [&str; 3] = ["fig10", "fig9-history", "table1"];

/// Instructions per synthetic workload: half the sweep scale, so a run
/// completes enough rounds for a tail percentile of submit latency.
pub const PIFD_INSTRUCTIONS: usize = 500_000;

/// The daemon's run scale (full footprint, like the sweeps).
pub fn pifd_scale() -> Scale {
    Scale {
        instructions: PIFD_INSTRUCTIONS,
        ..crate::sweep_scale()
    }
}

/// How long the client waits for one response before counting a
/// timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// An in-process daemon and one client connection to it.
struct Daemon {
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Daemon {
    /// Starts a cached service and its listener, and connects.
    fn start(ctx: &Ctx, cache_dir: std::path::PathBuf) -> std::io::Result<Daemon> {
        let service = Arc::new(Service::start(ServiceConfig {
            threads: ctx.threads,
            cache_dir: Some(cache_dir),
            ..ServiceConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let (service, shutdown) = (Arc::clone(&service), Arc::clone(&shutdown));
            std::thread::spawn(move || serve(listener, &service, &shutdown))
        };
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        writer.set_nodelay(true)?;
        Ok(Daemon {
            service,
            shutdown,
            server,
            reader: BufReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
        })
    }

    /// Sends one request frame and reads the response frame.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.writer
            .write_all(request.to_line().as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Response::parse(&line),
            Err(e) => Err(format!("no response ({e})")),
        }
    }

    /// Submits `spec` and returns its report frame's bytes and executed
    /// cell count; an error frame, a timeout or a foreign frame is an
    /// error.
    fn submit(&mut self, spec: &str, scale: Scale) -> Result<(String, u64), String> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::Submit {
            id,
            spec: spec.to_string(),
            scale,
            smoke: false,
            deadline_ms: None,
        };
        match self.call(&request)? {
            Response::Report {
                request_id,
                json,
                executed_cells,
                ..
            } if request_id == id => Ok((json, executed_cells)),
            other => Err(format!("{spec}: unexpected response {other:?}")),
        }
    }

    /// Asks the daemon to shut down, then stops the listener and drains
    /// the service.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.call(&Request::Shutdown);
        self.shutdown.store(true, Ordering::SeqCst);
        let served = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("serve: {e}"))?;
        drop((self.reader, self.writer));
        Arc::try_unwrap(self.service)
            .map_err(|_| "service still shared after serve returned".to_string())?
            .shutdown();
        match reply? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scale = pifd_scale();
    out.notes.push(format!(
        "one closed-loop client, mix {} at {} instructions, footprint {}; registry seed \
         (seed_offset 0; the protocol names registry specs only, so --seed does not apply); \
         {} pool threads",
        MIX.join(" + "),
        scale.instructions,
        scale.footprint,
        ctx.threads
    ));

    // Set-up: a fresh daemon on an empty cache, filled cold.
    out.pass_name = "round".into();
    let mut checks = Checks::default();
    let (setup_s, started) = timed_setup(|| {
        let mut daemon = Daemon::start(ctx, ctx.scratch.join("pifd-cache"))
            .map_err(|e| format!("start daemon: {e}"))?;
        let cold = MIX
            .iter()
            .map(|spec| daemon.submit(spec, scale))
            .collect::<Result<Vec<_>, String>>();
        Ok::<_, String>((daemon, cold))
    });
    out.setup_s = setup_s;
    let Some((mut daemon, cold)) = checks.ok(started) else {
        out.failures.op("set-up", checks.into_errors());
        return out;
    };
    let Some(cold) = checks.ok(cold) else {
        checks.ok(daemon.stop());
        out.failures.op("set-up", checks.into_errors());
        return out;
    };
    let cold: Vec<String> = cold.into_iter().map(|(json, _)| json).collect();
    for json in &cold {
        checks.ok(layers::validate(json));
    }
    out.identity = crate::identity(cold.iter().map(|c| c.as_bytes()));
    out.failures.op("set-up", checks.into_errors());

    let mut failures = std::mem::take(&mut out.failures);
    let (tracer, latencies) = (&mut out.tracer, &mut out.latencies);
    out.passes = timed_passes(ctx, |traced| {
        tracer.pause(!traced);
        for (spec, cold) in MIX.iter().zip(&cold) {
            let mut checks = Checks::default();
            let t0 = Instant::now();
            let reply = tracer.span("lab.submit", 1, |_| daemon.submit(spec, scale));
            latencies.push(t0.elapsed().as_secs_f64());
            if let Some((json, executed)) = checks.ok(reply) {
                checks.expect(&json == cold, || {
                    format!("warm {spec} report differs from the cold one")
                });
                checks.expect(executed == 0, || {
                    format!("warm {spec} simulated {executed} cells")
                });
            }
            failures.op(&format!("submit {spec}"), checks.into_errors());
        }
    });
    tracer.pause(false);
    out.failures = failures;

    let mut checks = Checks::default();
    checks.ok(daemon.stop());
    out.failures.op("shutdown", checks.into_errors());

    if ctx.probe {
        let specs = [
            registry::fig10(),
            registry::fig9_history(),
            registry::table1(),
        ];
        let inputs = layers::inputs(scale, 0);
        let mut failures = std::mem::take(&mut out.failures);
        let mut layer = layers::probe(ctx, &inputs, &mut out.tracer, &mut failures);
        layer.extend(layers::probe_lab(
            ctx,
            &specs,
            scale,
            &cold,
            &mut out.tracer,
            &mut failures,
        ));
        out.failures = failures;
        out.per_layer.extend(layer);
    }
    out
}
