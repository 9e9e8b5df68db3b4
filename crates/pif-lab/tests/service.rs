//! End-to-end exercise of the `pifd` building blocks in-process: a real
//! TCP listener speaking `piflab/1`, a bounded-queue [`Service`], and
//! clients submitting sweeps concurrently. The CI smoke shard and the
//! soak test drive the same path through the `piflab` binary; this test
//! keeps the library layer honest without spawning processes.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pif_lab::json::Json;
use pif_lab::protocol::{serve, Request, Response, MAX_FRAME_BYTES};
use pif_lab::report::validate_report;
use pif_lab::service::{Service, ServiceConfig};
use pif_lab::{registry, run_spec, RunOptions, Scale};

fn exchange(stream: &TcpStream, request: &Request) -> Response {
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(request.to_line().as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    Response::parse(&line).unwrap()
}

#[test]
fn daemon_round_trip_over_tcp() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 4,
        threads: 2,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());

        // Three concurrent clients: ping, then submit, then check bytes.
        let mut clients = Vec::new();
        for _ in 0..3 {
            clients.push(s.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
                let response = exchange(
                    &stream,
                    &Request::Submit {
                        id: 7,
                        spec: "table1".to_string(),
                        scale: Scale::tiny(),
                        smoke: true,
                        deadline_ms: None,
                    },
                );
                let Response::Report {
                    request_id,
                    spec,
                    json,
                    ..
                } = response
                else {
                    panic!("expected report, got {response:?}");
                };
                assert_eq!(request_id, 7, "submit id must echo back");
                assert_eq!(spec, "table1");
                json
            }));
        }
        let reports: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        // Every client got valid, identical bytes — and they match a
        // direct local run of the same job.
        let direct = run_spec(
            &registry::table1(),
            &RunOptions::new().scale(Scale::tiny()).smoke(true),
        )
        .to_json()
        .unwrap();
        for json in &reports {
            validate_report(&Json::parse(json).unwrap()).unwrap();
            assert_eq!(json, &direct, "daemon bytes must equal local run");
        }

        // Unknown specs come back as errors with the candidate list, and
        // the connection stays usable.
        let stream = TcpStream::connect(addr).unwrap();
        let response = exchange(
            &stream,
            &Request::Submit {
                id: 9,
                spec: "not-a-spec".to_string(),
                scale: Scale::tiny(),
                smoke: true,
                deadline_ms: None,
            },
        );
        let Response::Error {
            kind,
            retryable,
            request_id,
            message,
            candidates,
        } = response
        else {
            panic!("expected error, got {response:?}");
        };
        assert_eq!(kind, "unknown_spec");
        assert!(!retryable, "an unknown spec can never succeed on retry");
        assert_eq!(request_id, 9, "error frames must echo the submit id");
        assert!(message.contains("unknown spec"), "{message}");
        assert_eq!(candidates.len(), registry::all_specs().len());

        match exchange(&stream, &Request::Stats) {
            Response::Stats {
                submitted,
                completed,
                ..
            } => {
                assert_eq!(submitted, 3);
                assert_eq!(completed, 3);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // A protocol shutdown stops the serve loop.
        assert_eq!(
            exchange(&stream, &Request::Shutdown),
            Response::ShuttingDown
        );
        server.join().unwrap();
    });

    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn malformed_frames_get_errors_not_disconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        for bad in ["not json at all\n", "{\"cmd\": \"ping\"}\n"] {
            writer.write_all(bad.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match Response::parse(&line).unwrap() {
                Response::Error {
                    kind, retryable, ..
                } => {
                    assert_eq!(kind, "bad_request");
                    assert!(!retryable);
                }
                other => panic!("expected error for {bad:?}, got {other:?}"),
            }
        }
        // A frame that is not UTF-8 is a bad request, not a dropped
        // connection.
        writer.write_all(b"\xff\xfe\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            matches!(Response::parse(&line).unwrap(), Response::Error { kind, .. } if kind == "bad_request"),
            "{line}"
        );
        // Still alive afterwards.
        assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
        assert_eq!(
            exchange(&stream, &Request::Shutdown),
            Response::ShuttingDown
        );
        server.join().unwrap();
    });
    service.shutdown();
}

/// A frame longer than `MAX_FRAME_BYTES` gets a typed `bad_request` and
/// its connection is closed, without the daemon buffering the rest; a
/// frame of exactly the cap is still served, and so are other
/// connections.
#[test]
fn oversize_frames_close_only_their_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        // Stop the daemon whatever the checks find, so a failed check
        // fails the test instead of leaving `serve` running forever.
        let checked = std::panic::catch_unwind(|| check_frame_cap(addr));
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap();
        if let Err(panic) = checked {
            std::panic::resume_unwind(panic);
        }
    });
    service.shutdown();
}

fn check_frame_cap(addr: SocketAddr) {
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        // A daemon that never answers fails the check, not the suite.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };

    // A ping padded to exactly the cap is a legal frame.
    let at_cap = connect();
    let ping = Request::Ping.to_line();
    let ping = ping.trim_end();
    let padded = format!("{ping}{}\n", " ".repeat(MAX_FRAME_BYTES - ping.len()));
    assert_eq!(padded.len(), MAX_FRAME_BYTES + 1);
    (&at_cap).write_all(padded.as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(&at_cap).read_line(&mut line).unwrap();
    assert_eq!(Response::parse(&line).unwrap(), Response::Pong);

    // 128 KiB with no newline: one error frame, then EOF. The daemon
    // stops reading at the cap, so the tail of the write may fail.
    let oversize = connect();
    let _ = (&oversize).write_all(&vec![b'x'; 128 * 1024]);
    let mut reader = BufReader::new(&oversize);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::parse(&line).unwrap() {
        Response::Error {
            kind,
            retryable,
            request_id,
            message,
            ..
        } => {
            assert_eq!(kind, "bad_request");
            assert!(!retryable);
            assert_eq!(request_id, 0);
            assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "EOF after the error"
    );

    // The daemon still serves: both a fresh connection and the one that
    // sent the frame at the cap.
    assert_eq!(exchange(&connect(), &Request::Ping), Response::Pong);
    assert_eq!(exchange(&at_cap, &Request::Ping), Response::Pong);
}
