//! `BENCHMARK.json` round-trips through its parser and matches the
//! catalog the benchmark emits metrics from.

use std::path::PathBuf;

use sweepbench::manifest::Manifest;

fn committed() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn committed_manifest_round_trips_byte_for_byte() {
    let text = committed();
    let manifest = Manifest::parse(&text).unwrap();
    manifest.validate().unwrap();
    assert_eq!(
        manifest.to_json(),
        text,
        "BENCHMARK.json is not in canonical form"
    );
    assert_eq!(Manifest::parse(&manifest.to_json()).unwrap(), manifest);
}

#[test]
fn committed_manifest_matches_the_catalog() {
    assert_eq!(
        Manifest::parse(&committed()).unwrap(),
        Manifest::from_catalog(),
        "regenerate with `sweepbench --manifest > BENCHMARK.json`"
    );
}

#[test]
fn parser_and_validator_reject_format_violations() {
    let good = Manifest::from_catalog().to_json();
    let extra_key = good.replacen("\"run_seconds\"", "\"extra\": 1, \"run_seconds\"", 1);
    assert!(Manifest::parse(&extra_key).is_err());
    let missing_bound = good.replacen(", \"bound\": 0.25", "", 1);
    assert!(Manifest::parse(&missing_bound).is_err());

    let mut m = Manifest::from_catalog();
    m.end_to_end[1].bound = Some(0.3);
    assert!(m.validate().is_err(), "bound above 0.25");
    let mut m = Manifest::from_catalog();
    m.end_to_end.retain(|e| e.name != "setup_s");
    assert!(m.validate().is_err(), "setup_s is required");
    let mut m = Manifest::from_catalog();
    m.per_layer[0].name = m.end_to_end[0].name.clone();
    assert!(m.validate().is_err(), "duplicate name");
    let mut m = Manifest::from_catalog();
    m.command.push("/abs/path".into());
    assert!(m.validate().is_err(), "absolute path in command");
    let mut m = Manifest::from_catalog();
    m.paths = vec!["../outside".into()];
    assert!(m.validate().is_err(), "path leaving the repo");
    let mut m = Manifest::from_catalog();
    m.workloads.truncate(1);
    assert!(m.validate().is_err(), "one workload");
}
