//! Property tests for `pifd`'s input boundary: `Request::parse` must
//! never panic, whatever bytes arrive, and every `submit` scale it lets
//! through must be one a sweep can run.

use pif_lab::protocol::{Request, MAX_WIRE_INSTRUCTIONS, PROTO};
use pif_lab::Scale;
use proptest::prelude::*;

/// Asserts the bounds `parse_scale` promises for an accepted scale.
fn assert_runnable(scale: &Scale) {
    assert!(
        (1..=MAX_WIRE_INSTRUCTIONS).contains(&scale.instructions),
        "{scale:?}"
    );
    assert!(scale.footprint > 0.0 && scale.footprint <= 1.0, "{scale:?}");
    assert!((0.0..1.0).contains(&scale.warmup_fraction), "{scale:?}");
}

fn check(line: &str) {
    if let Ok(Request::Submit { scale, .. }) = Request::parse(line) {
        assert_runnable(&scale);
    }
}

/// A scale field as a client might send it: half the time a value
/// `valid` draws from the field's accepted range, otherwise raw bit
/// patterns (NaN, infinities, subnormals, huge and negative values), the
/// edges of each range, fractions and whole numbers.
fn wire_f64(valid: fn(u64) -> f64) -> impl Strategy<Value = f64> {
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    (any::<u64>(), 0u8..16).prop_map(move |(bits, pick)| match pick {
        0..=7 => valid(bits),
        8 | 9 => f64::from_bits(bits),
        10 => unit(bits),
        11 => -((bits % 1000) as f64),
        12 => [0.0, 1.0, -0.0, 0.5, 1e18, 12e6 + 0.25][(bits % 6) as usize],
        13 => MAX_WIRE_INSTRUCTIONS as f64 + [-1.0, 0.0, 1.0, 0.5][(bits % 4) as usize],
        14 => 1.0 + f64::EPSILON * (bits % 3) as f64,
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(bits % 3) as usize],
    })
}

fn submit_frame(instructions: f64, footprint: f64, warmup_fraction: f64) -> String {
    format!(
        "{{\"proto\": \"{PROTO}\", \"cmd\": \"submit\", \"spec\": \"table1\", \
         \"scale\": {{\"instructions\": {instructions:?}, \"footprint\": {footprint:?}, \
         \"warmup_fraction\": {warmup_fraction:?}}}}}"
    )
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&data));
    }

    #[test]
    fn mutated_submit_frames_never_panic(
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
    ) {
        let mut frame = Request::Submit {
            id: 3,
            spec: "fig10".to_string(),
            scale: Scale::tiny(),
            smoke: true,
            deadline_ms: Some(1000),
        }
        .to_line()
        .into_bytes();
        for (at, byte) in edits {
            let at = (at % frame.len() as u64) as usize;
            frame[at] = byte;
        }
        check(&String::from_utf8_lossy(&frame));
    }

    #[test]
    fn accepted_scales_are_runnable(
        instructions in wire_f64(|b| (1 + b % MAX_WIRE_INSTRUCTIONS as u64) as f64),
        footprint in wire_f64(|b| ((b >> 11) + 1) as f64 / (1u64 << 53) as f64),
        warmup_fraction in wire_f64(|b| (b >> 11) as f64 / (1u64 << 53) as f64),
    ) {
        let line = submit_frame(instructions, footprint, warmup_fraction);
        let accepted = matches!(Request::parse(&line), Ok(Request::Submit { .. }));
        let in_range = instructions.fract() == 0.0
            && (1.0..=MAX_WIRE_INSTRUCTIONS as f64).contains(&instructions)
            && footprint > 0.0
            && footprint <= 1.0
            && (0.0..1.0).contains(&warmup_fraction);
        prop_assert_eq!(accepted, in_range, "{}", line);
        check(&line);
    }
}
