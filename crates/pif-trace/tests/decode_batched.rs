//! Differential proptests: the batched chunk decode behind
//! [`TraceReader`] must equal a record-at-a-time reference decode built
//! directly on `decode_record` — over arbitrary chunk contents, realistic
//! streams whose fields mostly fit one varint byte, corrupted payloads,
//! the v1 fallback, and truncated files — and every way of draining a
//! reader must serve the same records and report the same errors.
//!
//! The reference walks the container byte-for-byte per the crate-level
//! format spec and decodes each record individually, i.e. exactly what
//! the reader did before chunks were batch-decoded into a flat scratch.

use pif_trace::codec::{decode_chunk, decode_record, encode_record};
use pif_trace::{content_hash, TraceDecodeError, TraceReader, TraceWriter, MAGIC, VERSION_V1};
use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};
use proptest::prelude::*;

fn kind_of(k: u8) -> BranchKind {
    match k {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Call,
        3 => BranchKind::IndirectCall,
        _ => BranchKind::Return,
    }
}

fn instr_strategy() -> impl Strategy<Value = RetiredInstr> {
    (
        any::<u64>(),
        0usize..TrapLevel::COUNT,
        proptest::option::of((0u8..5, any::<bool>(), any::<u64>(), any::<u64>())),
    )
        .prop_map(|(pc, tl, branch)| RetiredInstr {
            pc: Address::new(pc),
            trap_level: TrapLevel::from_index(tl),
            branch: branch.map(|(k, taken, target, fall)| BranchInfo {
                kind: kind_of(k),
                taken,
                taken_target: Address::new(target),
                fall_through: Address::new(fall),
            }),
        })
}

/// Delta from the previous PC for a realistic stream: +4 for most
/// instructions, zigzag values straddling the one-byte varint limit
/// (zigzag 124..=131, around 127/128), or a short jump either way.
fn realistic_delta(pick: u32, near: i64) -> i64 {
    const EDGE: [i64; 8] = [62, 63, 64, 65, -63, -64, -65, -66];
    match pick {
        0..=74 => 4,
        75..=89 => EDGE[near.rem_euclid(8) as usize],
        _ => near,
    }
}

/// Streams shaped like real code: mostly sequential PCs, deltas at the
/// one-/two-byte varint edge, and branches with short offsets (so their
/// target and explicit fall-through varints also straddle that edge).
/// `instr_strategy` draws arbitrary `u64` PCs, whose deltas are almost
/// all multi-byte and so miss the decoder's one-byte path.
fn realistic_stream() -> impl Strategy<Value = Vec<RetiredInstr>> {
    proptest::collection::vec(
        (
            (0u32..100, -70i64..70),
            (0u32..100, 0u8..5, any::<bool>()),
            (-70i64..70, -70i64..70),
            0u32..100,
        ),
        0..400,
    )
    .prop_map(|steps| {
        let mut pc = 0x40_0000u64;
        steps
            .into_iter()
            .map(
                |((pick, near), (branchy, kind, taken), (target, fall), tl)| {
                    pc = pc.wrapping_add(realistic_delta(pick, near) as u64);
                    let branch = (branchy < 20).then(|| BranchInfo {
                        kind: kind_of(kind),
                        taken,
                        taken_target: Address::new(pc.wrapping_add(target as u64)),
                        // Mostly the implicit pc + 4; sometimes explicit.
                        fall_through: Address::new(if branchy < 5 {
                            pc.wrapping_add(fall as u64)
                        } else {
                            pc.wrapping_add(4)
                        }),
                    });
                    RetiredInstr {
                        pc: Address::new(pc),
                        trap_level: TrapLevel::from_index(usize::from(tl < 10)),
                        branch,
                    }
                },
            )
            .collect()
    })
}

/// One chunk payload holding `instrs`, as the writer encodes it.
fn encode_payload(instrs: &[RetiredInstr]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut prev = 0u64;
    for i in instrs {
        encode_record(&mut payload, i, &mut prev);
    }
    payload
}

/// Record-at-a-time reference for one chunk payload: `decode_record`
/// `records` times from a zeroed delta base, then the trailing-bytes
/// check.
fn reference_chunk(payload: &[u8], records: u32) -> Result<Vec<RetiredInstr>, TraceDecodeError> {
    let mut data = payload;
    let mut prev_pc = 0u64;
    let mut out = Vec::new();
    for _ in 0..records {
        out.push(decode_record(&mut data, &mut prev_pc)?);
    }
    if !data.is_empty() {
        return Err(TraceDecodeError::Corrupt("trailing chunk bytes"));
    }
    Ok(out)
}

fn encode(instrs: &[RetiredInstr], chunk: u32) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_records(Vec::new(), "diff", chunk).unwrap();
    w.extend(instrs.iter().copied()).unwrap();
    w.finish().unwrap()
}

/// Hand-rolled v1 encoder, layout from the crate-level format spec (the
/// production v1 writer lives in `pif_workloads`, outside this crate).
fn encode_v1(instrs: &[RetiredInstr]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&VERSION_V1.to_le_bytes());
    b.extend_from_slice(&2u32.to_le_bytes());
    b.extend_from_slice(b"v1");
    b.extend_from_slice(&(instrs.len() as u64).to_le_bytes());
    for i in instrs {
        b.extend_from_slice(&i.pc.raw().to_le_bytes());
        b.push(i.trap_level.index() as u8);
        match i.branch {
            None => b.push(0),
            Some(info) => {
                b.push(1);
                b.push(match info.kind {
                    BranchKind::Conditional => 0,
                    BranchKind::Direct => 1,
                    BranchKind::Call => 2,
                    BranchKind::IndirectCall => 3,
                    BranchKind::Return => 4,
                });
                b.push(info.taken as u8);
                b.extend_from_slice(&info.taken_target.raw().to_le_bytes());
                b.extend_from_slice(&info.fall_through.raw().to_le_bytes());
            }
        }
    }
    b
}

fn read_u32(data: &mut &[u8]) -> Result<u32, ()> {
    let (head, rest) = data.split_at_checked(4).ok_or(())?;
    *data = rest;
    Ok(u32::from_le_bytes(head.try_into().unwrap()))
}

/// Record-at-a-time reference decode of a v2 file: walks the container
/// structure by hand and decodes every record individually with
/// `decode_record`. Returns the records decoded before the first error
/// and whether the file decoded cleanly to a verified terminator.
fn reference_decode_v2(bytes: &[u8]) -> (Vec<RetiredInstr>, bool) {
    let mut out = Vec::new();
    let mut data = bytes;
    // Container header: magic, version, name.
    let Some((magic, rest)) = data.split_at_checked(4) else {
        return (out, false);
    };
    assert_eq!(magic, MAGIC);
    data = rest;
    let Ok(version) = read_u32(&mut data) else {
        return (out, false);
    };
    assert_eq!(version, 2);
    let Ok(name_len) = read_u32(&mut data) else {
        return (out, false);
    };
    let Some((_, rest)) = data.split_at_checked(name_len as usize) else {
        return (out, false);
    };
    data = rest;
    loop {
        let Ok(records) = read_u32(&mut data) else {
            return (out, false);
        };
        let Ok(payload_len) = read_u32(&mut data) else {
            return (out, false);
        };
        if records == 0 {
            // Terminator: verify the declared total.
            let Some((total, _)) = data.split_at_checked(8) else {
                return (out, false);
            };
            let clean = payload_len == 8
                && u64::from_le_bytes(total.try_into().unwrap()) == out.len() as u64;
            return (out, clean);
        }
        let Some((mut payload, rest)) = data.split_at_checked(payload_len as usize) else {
            return (out, false);
        };
        data = rest;
        let mut prev_pc = 0u64;
        for _ in 0..records {
            match decode_record(&mut payload, &mut prev_pc) {
                Ok(instr) => out.push(instr),
                Err(_) => return (out, false),
            }
        }
        if !payload.is_empty() {
            return (out, false);
        }
    }
}

/// Streams a reader to the end, returning the yielded prefix and the
/// error that stopped it, if any.
fn stream(bytes: &[u8]) -> (Vec<RetiredInstr>, Option<TraceDecodeError>) {
    let mut reader = match TraceReader::open(bytes) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut out = Vec::new();
    let mut err = None;
    for r in reader.by_ref() {
        match r {
            Ok(i) => out.push(i),
            Err(e) => err = Some(e),
        }
    }
    (out, err)
}

proptest! {
    /// Valid v2 files, arbitrary and realistic: the batched streaming
    /// decode equals the record-at-a-time reference equals the original
    /// records.
    #[test]
    fn batched_equals_record_at_a_time_on_valid_files(
        arbitrary in proptest::collection::vec(instr_strategy(), 0..300),
        realistic in realistic_stream(),
        chunk in 1u32..96,
    ) {
        for instrs in [arbitrary, realistic] {
            let bytes = encode(&instrs, chunk);
            let (reference, clean) = reference_decode_v2(&bytes);
            prop_assert!(clean);
            prop_assert_eq!(&reference, &instrs);
            let (batched, err) = stream(&bytes);
            prop_assert!(err.is_none(), "clean file decodes cleanly: {err:?}");
            prop_assert_eq!(&batched, &reference);
        }
    }

    /// The batch primitive itself equals a `decode_record` loop over one
    /// chunk payload (shared `decode_chunk` is also what `seek_to_record`
    /// uses, so this pins the seek path too).
    #[test]
    fn decode_chunk_equals_decode_record_loop(
        arbitrary in proptest::collection::vec(instr_strategy(), 0..200),
        realistic in realistic_stream(),
    ) {
        for instrs in [arbitrary, realistic] {
            let payload = encode_payload(&instrs);
            let mut batched = Vec::new();
            decode_chunk(&payload, instrs.len() as u32, &mut batched).unwrap();
            prop_assert_eq!(&batched, &instrs);
            // A short count must flag the leftover bytes, like the
            // reader's old per-record bookkeeping did.
            if !instrs.is_empty() {
                let short = decode_chunk(&payload, instrs.len() as u32 - 1, &mut batched);
                prop_assert_eq!(
                    short,
                    Err(TraceDecodeError::Corrupt("trailing chunk bytes"))
                );
            }
        }
    }

    /// Truncated v2 files: both paths detect the damage, and the batched
    /// reader's yielded prefix is a (chunk-aligned) prefix of the
    /// reference's — batching may withhold records of the damaged chunk,
    /// but can never invent or reorder them.
    #[test]
    fn truncation_agrees_with_the_reference(
        instrs in proptest::collection::vec(instr_strategy(), 1..150),
        chunk in 1u32..48,
        cut_seed in 0usize..4096,
    ) {
        let bytes = encode(&instrs, chunk);
        let cut = cut_seed % bytes.len();
        let (reference, clean) = reference_decode_v2(&bytes[..cut]);
        prop_assert!(!clean, "a strict prefix never verifies its terminator");
        let (batched, err) = stream(&bytes[..cut]);
        prop_assert!(err.is_some(), "truncation at {cut} must surface an error");
        prop_assert!(batched.len() <= reference.len());
        prop_assert_eq!(&batched[..], &reference[..batched.len()]);
        prop_assert_eq!(&batched[..], &instrs[..batched.len()]);
    }

    /// v1 fallback: unchunked fixed-width records take the
    /// record-at-a-time path and still decode exactly.
    #[test]
    fn v1_fallback_decodes_exactly(
        instrs in proptest::collection::vec(instr_strategy(), 0..150),
        cut_seed in 0usize..4096,
    ) {
        let bytes = encode_v1(&instrs);
        let (full, err) = stream(&bytes);
        prop_assert!(err.is_none());
        prop_assert_eq!(&full, &instrs);
        // Truncated v1 yields a prefix plus an error (unless the cut
        // only removed zero records, impossible here: v1 has no
        // terminator, the header count is the contract).
        let cut = cut_seed % bytes.len();
        let (prefix, err) = stream(&bytes[..cut]);
        prop_assert!(err.is_some() || (cut == 0 && instrs.is_empty()));
        prop_assert!(prefix.len() <= instrs.len());
        prop_assert_eq!(&prefix[..], &instrs[..prefix.len()]);
    }

    /// Corrupted payloads (flipped bytes, a truncated tail, a wrong
    /// record count): the chunk kernel returns exactly the reference's
    /// records, or exactly the reference's error.
    #[test]
    fn corrupted_payloads_match_the_reference(
        instrs in realistic_stream(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in proptest::option::of(any::<usize>()),
        count_skew in 0u32..3,
    ) {
        let mut payload = encode_payload(&instrs);
        if !payload.is_empty() {
            let len = payload.len();
            for &(at, mask) in &flips {
                payload[at % len] ^= mask;
            }
        }
        if let Some(cut) = cut {
            payload.truncate(cut % (payload.len() + 1));
        }
        // One fewer, the same, or one more record than were encoded.
        let records = (instrs.len() as u32 + count_skew).saturating_sub(1);
        let reference = reference_chunk(&payload, records);
        let mut batched = Vec::new();
        let result = decode_chunk(&payload, records, &mut batched).map(|()| batched);
        prop_assert_eq!(result, reference);
    }

    /// Every way of draining a reader serves the same records: bare
    /// iteration, `instrs()`, `instrs_mut()` and `content_hash()`.
    #[test]
    fn serve_paths_agree(
        instrs in realistic_stream(),
        chunk in 1u32..96,
    ) {
        let bytes = encode(&instrs, chunk);
        let bare: Vec<RetiredInstr> = TraceReader::open(bytes.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&bare, &instrs);
        let mut owned = TraceReader::open(bytes.as_slice()).unwrap().instrs();
        let via_instrs: Vec<_> = owned.by_ref().collect();
        prop_assert!(owned.error().is_none());
        prop_assert_eq!(&via_instrs, &instrs);
        let mut reader = TraceReader::open(bytes.as_slice()).unwrap();
        let mut borrowed = reader.instrs_mut();
        let via_instrs_mut: Vec<_> = borrowed.by_ref().collect();
        prop_assert!(borrowed.error().is_none());
        prop_assert_eq!(&via_instrs_mut, &instrs);
        let hash = TraceReader::open(bytes.as_slice()).unwrap().content_hash();
        prop_assert_eq!(hash, Ok(content_hash(instrs.iter().copied())));
    }

    /// A terminator whose total is off by one is caught after every
    /// record was served by the fast path, whichever way the reader is
    /// drained: the count of records read is kept on that path.
    #[test]
    fn off_by_one_terminator_is_caught_after_a_fast_drain(
        instrs in realistic_stream(),
        chunk in 1u32..96,
        over in any::<bool>(),
    ) {
        let n = instrs.len() as u64;
        let mut bytes = encode(&instrs, chunk);
        let len = bytes.len();
        // One too many or one too few (modulo 2^64 for an empty trace).
        let total = if over { n + 1 } else { n.wrapping_sub(1) };
        bytes[len - 8..].copy_from_slice(&total.to_le_bytes());
        let mismatch = TraceDecodeError::Corrupt("record count mismatch");

        let (bare, err) = stream(&bytes);
        prop_assert_eq!(&bare, &instrs);
        prop_assert_eq!(err.as_ref(), Some(&mismatch));

        let mut owned = TraceReader::open(bytes.as_slice()).unwrap().instrs();
        prop_assert_eq!(owned.by_ref().count() as u64, n);
        prop_assert_eq!(owned.error(), Some(&mismatch));

        let mut reader = TraceReader::open(bytes.as_slice()).unwrap();
        let mut borrowed = reader.instrs_mut();
        prop_assert_eq!(borrowed.by_ref().count() as u64, n);
        prop_assert_eq!(borrowed.error(), Some(&mismatch));

        let hash = TraceReader::open(bytes.as_slice()).unwrap().content_hash();
        prop_assert_eq!(hash, Err(mismatch));
    }
}
