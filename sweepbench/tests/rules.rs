//! The benchmark's own rules: metric-name grammar, the tail-percentile
//! rule, failure accounting and the result line.

use sweepbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use sweepbench::host::CALIBRATION_REF_S;
use sweepbench::manifest::{valid_name, valid_unit};
use sweepbench::stats::{median, tail, Checks, Failures};
use sweepbench::{check_declared, merge, result_line, Outcome, Passes, Report, Value};

#[test]
fn declared_names_and_units_follow_the_grammar() {
    for (name, why) in WORKLOADS {
        assert!(valid_name(name), "workload {name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "metric {}", m.name);
        assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
    }
}

#[test]
fn grammar_rejects_what_it_should() {
    for bad in [
        "",
        "_lead",
        ".lead",
        "-lead",
        "has space",
        "slash/y",
        "ünï",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted as a name");
    }
    for good in [
        "a",
        "9lives",
        "sim.fetch_stall_cpi.next-line",
        &"x".repeat(64),
    ] {
        assert!(valid_name(good), "{good:?} rejected as a name");
    }
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad:?} accepted as a unit");
    }
    for good in ["ms", "1/s", "%", "Minstr/s", "cycles/instr", "B/instr"] {
        assert!(valid_unit(good), "{good:?} rejected as a unit");
    }
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // Below 40 samples even p75 leaves fewer than ten beyond it.
    assert_eq!(tail(&samples(39)), None);
    assert_eq!(tail(&samples(40)), Some((75.0, 30.0)));
    // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
    assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
    assert_eq!(tail(&samples(199)), Some((90.0, 180.0)));
    assert_eq!(tail(&samples(200)), Some((95.0, 190.0)));
    assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
    assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
    // Order of the input does not matter.
    let mut shuffled = samples(100);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
}

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn fail_frac_counts_failed_operations_not_failed_checks() {
    let mut f = Failures::default();
    assert_eq!(f.fail_frac(), 0.0);
    f.op("ok", vec![]);
    let mut checks = Checks::default();
    checks.expect(false, || "first".into());
    checks.expect(true, || "never".into());
    assert_eq!(checks.ok::<u8>(Err("second".into())), None);
    assert_eq!(checks.ok::<u8>(Ok(7)), Some(7));
    f.op("two failed checks", checks.into_errors());
    f.op("ok again", vec![]);
    f.op("one failed check", vec!["third".into()]);
    assert_eq!(f.attempted(), 4);
    assert_eq!(f.failed(), 2);
    assert_eq!(f.fail_frac(), 0.5);
    assert_eq!(
        f.reasons(),
        [
            "two failed checks: first; second",
            "one failed check: third"
        ]
    );
}

fn values(names: &[&str]) -> Vec<Value> {
    names.iter().map(|n| Value::new(n, 1.5, "s", "")).collect()
}

#[test]
fn declared_metrics_are_reordered_and_checked() {
    let mut v = values(&["cpu_s", "setup_s", "wall_s"]);
    v.push(Value::new("peak_rss_mb", 12.0, "MB", ""));
    check_declared(&mut v, &END_TO_END).unwrap();
    let names: Vec<&str> = v.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(names, ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]);

    let mut missing = values(&["setup_s", "wall_s", "cpu_s"]);
    assert!(check_declared(&mut missing, &END_TO_END).is_err());
    let mut extra = values(&["setup_s", "wall_s", "cpu_s", "bogus"]);
    extra.push(Value::new("peak_rss_mb", 12.0, "MB", ""));
    assert!(check_declared(&mut extra, &END_TO_END).is_err());
    let mut wrong_unit = values(&["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]);
    assert!(check_declared(&mut wrong_unit, &END_TO_END).is_err());
    let mut nan = values(&["setup_s", "wall_s", "cpu_s"]);
    nan.push(Value::new("peak_rss_mb", f64::NAN, "MB", ""));
    assert!(check_declared(&mut nan, &END_TO_END).is_err());
}

#[test]
fn result_line_has_exactly_the_required_keys() {
    let mut report = Report::default();
    report.failures.op("fine", vec![]);
    report.failures.op("broken", vec!["why".into()]);
    report.end_to_end = vec![Value::new("setup_s", 0.8127, "s", "")];
    let line = result_line(&report, false);
    let j = pif_lab::json::Json::parse(&line).unwrap();
    let keys: Vec<&str> = j
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(j.get("attempted").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(j.get("failed").and_then(|v| v.as_f64()), Some(1.0));
    let setup = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8127));
    assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
}

fn part(setup_s: f64, wall: &[f64], latencies: &[f64], identity: u64) -> Outcome {
    let mut o = Outcome {
        setup_s,
        passes: Passes {
            wall: wall.to_vec(),
            cpu: wall.iter().map(|w| 2.0 * w).collect(),
            traced: vec![false; wall.len()],
            calib: vec![CALIBRATION_REF_S; wall.len() + 1],
        },
        pass_name: "pass".into(),
        latencies: latencies.to_vec(),
        identity,
        detail: vec![Value::new("pif_speedup_geomean", 1.25, "x", "simulated")],
        notes: vec!["inputs".into()],
        peak_rss_mb: 100.0 + setup_s,
        ..Outcome::default()
    };
    o.failures.op("set-up", vec![]);
    o
}

#[test]
fn part_lines_round_trip() {
    let mut p = part(0.5, &[1.0, 1.5], &[0.25], 0xfeed_beef_0123_4567);
    p.failures.op("pass", vec!["bad \"quote\"".into()]);
    p.per_layer = vec![Value::new("trace.seek_us", 12.5, "us", "host")];
    let back = Outcome::from_part_line(&p.to_part_line()).unwrap();
    assert_eq!(back.setup_s, p.setup_s);
    assert_eq!(back.passes, p.passes);
    assert_eq!(back.latencies, p.latencies);
    assert_eq!(back.identity, p.identity);
    assert_eq!(back.detail, p.detail);
    assert_eq!(back.per_layer, p.per_layer);
    assert_eq!(back.notes, p.notes);
    assert_eq!(back.peak_rss_mb, p.peak_rss_mb);
    assert_eq!(back.failures.attempted(), 2);
    assert_eq!(back.failures.reasons(), ["pass: bad \"quote\""]);
}

#[test]
fn merge_pools_passes_and_checks_identity_across_processes() {
    let latencies: Vec<f64> = (1..=40).map(|i| i as f64 / 1000.0).collect();
    let parts = [
        part(1.0, &[1.0, 2.0], &latencies[..20], 7),
        part(3.0, &[3.0, 4.0, 5.0], &latencies[20..], 7),
        part(2.0, &[6.0], &[], 7),
    ];
    let r = merge(&parts, false);
    let get = |n: &str| {
        r.end_to_end
            .iter()
            .chain(&r.detail)
            .find(|v| v.name == n)
            .unwrap()
            .value
    };
    assert_eq!(get("setup_s"), 2.0);
    assert_eq!(get("wall_s"), 3.5);
    assert_eq!(get("cpu_s"), 7.0);
    assert_eq!(get("peak_rss_mb"), 102.0);
    assert_eq!(get("pif_speedup_geomean"), 1.25);
    assert_eq!(get("submit_p50_ms"), 20.5);
    assert_eq!(get("submit_tail_ms"), 30.0);
    // Three set-ups plus the cross-process check, none failed.
    assert_eq!((r.failures.attempted(), r.failures.failed()), (4, 0));

    let mut odd = parts.map(|p| Outcome::from_part_line(&p.to_part_line()).unwrap());
    odd[2].identity = 8;
    let r = merge(&odd, false);
    assert_eq!(r.failures.failed(), 1, "{:?}", r.failures.reasons());
    assert!(r.failures.reasons()[0].starts_with("cross-process identity: process 2"));
}

#[test]
fn merge_scales_host_times_by_each_process_calibration() {
    let mut slow = part(4.0, &[2.0, 4.0, 6.0], &[], 7);
    // This process's cores ran at half the reference speed.
    slow.passes.calib = vec![2.0 * CALIBRATION_REF_S; 4];
    let parts = [part(2.0, &[1.0, 2.0, 3.0], &[], 7), slow];
    let r = merge(&parts, false);
    let get = |n: &str| {
        r.end_to_end
            .iter()
            .chain(&r.detail)
            .find(|v| v.name == n)
            .unwrap()
            .value
    };
    // Scaled, both processes measured the same work.
    assert_eq!(get("wall_s"), 2.0);
    assert_eq!(get("cpu_s"), 4.0);
    assert_eq!(get("setup_s"), 2.0);
    assert_eq!(get("host_wall_s"), 2.5);
    assert_eq!(get("host_cpu_s"), 5.0);
    assert_eq!(get("host_setup_s"), 3.0);
    assert_eq!(get("host_slowdown"), 1.5);
}
