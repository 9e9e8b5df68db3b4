//! End-to-end tests of the trace subsystem: golden byte fixtures for
//! cross-version compatibility, out-of-core simulation through
//! `Engine::run`, and the v2 compression target.
//!
//! The golden fixtures pin the *byte layouts* of both format versions; if
//! either codec changes its on-disk format, these tests fail before any
//! archived trace out in the world stops decoding. The fixture bytes are
//! reproduced by `cargo run -p pif-trace --example dump_golden`.

use std::io::{BufReader, BufWriter};

use pif_repro::prelude::*;
use pif_repro::trace::{scan_info, TraceDecodeError};
use pif_repro::workloads::io::{decode_trace, encode_trace};
use pif_repro::workloads::Trace;
use pif_types::{BranchInfo, BranchKind};

fn golden_instrs() -> Vec<RetiredInstr> {
    vec![
        RetiredInstr::simple(Address::new(0x40_0000), TrapLevel::Tl0),
        RetiredInstr::branch(
            Address::new(0x40_0004),
            TrapLevel::Tl0,
            BranchInfo {
                kind: BranchKind::Call,
                taken: true,
                taken_target: Address::new(0x40_1000),
                fall_through: Address::new(0x40_0008),
            },
        ),
        RetiredInstr::simple(Address::new(0x40_1000), TrapLevel::Tl1),
    ]
}

/// The v1 encoding of [`golden_instrs`], laid out by hand from the spec:
/// magic, version 1, name, u64 count, then 10- or 28-byte records.
fn golden_v1_bytes() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(b"PIFT");
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&6u32.to_le_bytes());
    b.extend_from_slice(b"golden");
    b.extend_from_slice(&3u64.to_le_bytes());
    // Record 1: simple @ 0x40_0000, TL0.
    b.extend_from_slice(&0x40_0000u64.to_le_bytes());
    b.extend_from_slice(&[0, 0]);
    // Record 2: taken call @ 0x40_0004 → 0x40_1000, fall 0x40_0008.
    b.extend_from_slice(&0x40_0004u64.to_le_bytes());
    b.extend_from_slice(&[0, 1, 2, 1]);
    b.extend_from_slice(&0x40_1000u64.to_le_bytes());
    b.extend_from_slice(&0x40_0008u64.to_le_bytes());
    // Record 3: simple @ 0x40_1000, TL1.
    b.extend_from_slice(&0x40_1000u64.to_le_bytes());
    b.extend_from_slice(&[1, 0]);
    b
}

/// The v2 encoding of [`golden_instrs`]: one chunk of three
/// delta/varint records plus the terminator.
const GOLDEN_V2_BYTES: &[u8] = &[
    0x50, 0x49, 0x46, 0x54, // magic "PIFT"
    0x02, 0x00, 0x00, 0x00, // version 2
    0x06, 0x00, 0x00, 0x00, // name length
    0x67, 0x6f, 0x6c, 0x64, 0x65, 0x6e, // "golden"
    0x03, 0x00, 0x00, 0x00, // chunk: 3 records
    0x0c, 0x00, 0x00, 0x00, // chunk: 12 payload bytes
    0x00, 0x80, 0x80, 0x80, 0x04, // simple, Δpc = +0x40_0000
    0xd4, 0x08, 0xf8, 0x3f, // taken call, Δpc = +4, Δtarget, implicit fall
    0x01, 0xf8, 0x3f, // simple TL1, Δpc
    0x00, 0x00, 0x00, 0x00, // terminator marker
    0x08, 0x00, 0x00, 0x00, // terminator payload length
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // total = 3
];

#[test]
fn golden_v1_fixture_still_decodes_everywhere() {
    let bytes = golden_v1_bytes();
    let expected = Trace::new("golden", golden_instrs());

    // The legacy slice decoder.
    assert_eq!(decode_trace(&bytes).unwrap(), expected);
    // The v1 encoder still produces exactly this layout.
    assert_eq!(encode_trace(&expected), bytes);
    // The new streaming reader handles v1 transparently.
    let (name, instrs) = pif_repro::trace::decode(&bytes).unwrap();
    assert_eq!(name, "golden");
    assert_eq!(instrs, golden_instrs());
    let mut reader = TraceReader::open(bytes.as_slice()).unwrap();
    assert_eq!(reader.version(), 1);
    assert_eq!(reader.declared_count(), Some(3));
    assert_eq!(
        reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap(),
        golden_instrs()
    );
}

#[test]
fn golden_v2_fixture_is_byte_stable() {
    assert_eq!(
        pif_repro::trace::encode_v2("golden", &golden_instrs()),
        GOLDEN_V2_BYTES,
        "v2 byte layout changed — archived traces would stop decoding"
    );
    let (name, instrs) = pif_repro::trace::decode(GOLDEN_V2_BYTES).unwrap();
    assert_eq!(name, "golden");
    assert_eq!(instrs, golden_instrs());
    let info = scan_info(GOLDEN_V2_BYTES).unwrap();
    assert_eq!((info.records, info.chunks), (3, 1));
    assert_eq!(info.bytes, GOLDEN_V2_BYTES.len() as u64);
}

#[test]
fn generated_v1_traces_decode_via_streaming_reader() {
    let trace = WorkloadProfile::dss_qry17().scaled(0.05).generate(20_000);
    let v1 = encode_trace(&trace);
    let mut source = TraceReader::open(v1.as_slice()).unwrap().instrs();
    let streamed: Vec<_> = source.by_ref().collect();
    assert!(source.error().is_none());
    assert_eq!(streamed.as_slice(), trace.instrs());
}

#[test]
fn v2_is_at_least_2x_smaller_than_v1_on_oltp_db2() {
    let trace = WorkloadProfile::oltp_db2().scaled(0.2).generate(100_000);
    let v1 = encode_trace(&trace);
    let v2 = pif_repro::trace::encode_v2(trace.name(), trace.instrs());
    assert!(
        v2.len() * 2 <= v1.len(),
        "v2 {} bytes vs v1 {} bytes ({:.2}x)",
        v2.len(),
        v1.len(),
        v1.len() as f64 / v2.len() as f64
    );
}

/// Record a workload to disk streaming, then simulate it out of core:
/// generator → TraceWriter → file → TraceReader → Engine::run,
/// with no full `Vec<RetiredInstr>` on either side of the disk.
#[test]
fn record_to_disk_then_simulate_out_of_core() {
    let instructions = 120_000;
    let profile = WorkloadProfile::oltp_db2().scaled(0.1);
    let path = std::env::temp_dir().join(format!("pif-trace-e2e-{}.pift", std::process::id()));

    // Record: stream the generator straight into the compressed writer.
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(BufWriter::new(file), profile.name()).unwrap();
    let mut io_err = None;
    profile.generate_into(instructions, |instr| {
        if io_err.is_none() {
            io_err = writer.push(&instr).err();
        }
    });
    assert!(io_err.is_none(), "{io_err:?}");
    assert_eq!(writer.records_written(), instructions as u64);
    writer.finish().unwrap();

    // Replay from disk, one chunk at a time.
    let file = std::fs::File::open(&path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let engine = Engine::new(EngineConfig::paper_default());
    let from_disk = engine.run(
        &mut source,
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert!(source.error().is_none());

    // Reference: the fully materialized path.
    let reference = engine.run(
        profile.generate(instructions).instrs().iter().copied(),
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert_eq!(from_disk.fetch, reference.fetch);
    assert_eq!(from_disk.timing, reference.timing);
    assert_eq!(from_disk.frontend, reference.frontend);

    std::fs::remove_file(&path).ok();
}

/// The acceptance-scale run: a 10M-instruction OLTP-DB2 trace recorded
/// to disk and simulated via `Engine::run` without materializing it.
/// Ignored by default (minutes of work); run with `cargo test -q
/// --test trace_subsystem -- --ignored`.
#[test]
#[ignore = "acceptance-scale (10M instructions); run explicitly"]
fn ten_million_instruction_oltp_trace_out_of_core() {
    let instructions = 10_000_000;
    let profile = WorkloadProfile::oltp_db2();
    let path = std::env::temp_dir().join(format!("pif-trace-10m-{}.pift", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(BufWriter::new(file), profile.name()).unwrap();
    let mut io_err = None;
    profile.generate_into(instructions, |instr| {
        if io_err.is_none() {
            io_err = writer.push(&instr).err();
        }
    });
    assert!(io_err.is_none(), "{io_err:?}");
    writer.finish().unwrap();

    let bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        bytes < instructions as u64 * 13 / 2,
        "{bytes} bytes is not ≥2x smaller than a v1 encoding"
    );

    let file = std::fs::File::open(&path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let report = Engine::new(EngineConfig::paper_default()).run(
        &mut source,
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert!(source.error().is_none());
    assert_eq!(report.frontend.instructions, instructions as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_cmp_sources_streams_per_core_without_materializing() {
    use pif_repro::sim::multicore::{run_cmp, run_cmp_sources};
    let profile = WorkloadProfile::web_apache().scaled(0.05);
    let config = EngineConfig::paper_default();
    let streamed = run_cmp_sources(
        &config,
        4,
        1_000,
        |core| profile.stream_with_execution_seed(15_000, core as u64),
        |_| NoPrefetcher,
    );
    let materialized = run_cmp(
        &config,
        4,
        1_000,
        |core| {
            profile
                .generate_with_execution_seed(15_000, core as u64)
                .instrs()
                .to_vec()
        },
        |_| NoPrefetcher,
    );
    assert_eq!(streamed.per_core.len(), 4);
    for (a, b) in streamed.per_core.iter().zip(&materialized.per_core) {
        assert_eq!(a.fetch, b.fetch);
        assert_eq!(a.timing, b.timing);
    }
}

#[test]
fn v1_to_v2_conversion_preserves_records() {
    let trace = WorkloadProfile::web_zeus().scaled(0.05).generate(10_000);
    let v1 = encode_trace(&trace);

    // Stream-convert exactly as `tracectl convert` does.
    let mut reader = TraceReader::open(v1.as_slice()).unwrap();
    let mut writer = TraceWriter::new(Vec::new(), reader.name()).unwrap();
    for result in reader.by_ref() {
        writer.push(&result.unwrap()).unwrap();
    }
    let v2 = writer.finish().unwrap();

    let (name, instrs) = pif_repro::trace::decode(&v2).unwrap();
    assert_eq!(name, trace.name());
    assert_eq!(instrs.as_slice(), trace.instrs());
    assert!(v2.len() * 2 < v1.len(), "conversion should shrink the file");
}

#[test]
fn corrupt_files_error_cleanly_not_loudly() {
    // An empty file, a bad magic, and an absurd v1 count all yield typed
    // errors (comparable without matches! boilerplate).
    assert!(pif_repro::trace::decode(&[]).is_err());
    assert_eq!(
        TraceReader::open(&b"XXXX\x01\x00\x00\x00"[..]).err(),
        Some(TraceDecodeError::BadMagic)
    );
    let mut absurd = Vec::new();
    absurd.extend_from_slice(b"PIFT");
    absurd.extend_from_slice(&1u32.to_le_bytes());
    absurd.extend_from_slice(&0u32.to_le_bytes());
    absurd.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(
        decode_trace(&absurd).err(),
        Some(TraceDecodeError::Corrupt("record count exceeds payload"))
    );
}
