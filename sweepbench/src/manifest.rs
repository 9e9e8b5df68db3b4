//! `BENCHMARK.json`: the benchmark's manifest, its parser, its
//! validator and its canonical emitter.

use pif_lab::json::{escape, Json};

use crate::catalog::{self, Better, MetricDecl};

/// One declared metric as the manifest spells it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit token.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl From<&MetricDecl> for Metric {
    fn from(d: &MetricDecl) -> Self {
        Metric {
            name: d.name.to_string(),
            unit: d.unit.to_string(),
            better: d.better,
            bound: d.bound,
        }
    }
}

/// The parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Program and arguments that run the benchmark.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    /// Bounded end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Unbounded per-layer metrics.
    pub per_layer: Vec<Metric>,
}

/// Whether `name` follows the metric/workload name grammar: 1 to 64 of
/// ASCII letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` follows the unit grammar: 1 to 16 of ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(path: &str) -> bool {
    !path.is_empty()
        && path.len() <= 200
        && !path.starts_with('/')
        && path.split('/').all(|seg| seg != "..")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

impl Manifest {
    /// The manifest built from [`crate::catalog`].
    pub fn from_catalog() -> Manifest {
        Manifest {
            command: catalog::COMMAND.iter().map(|s| s.to_string()).collect(),
            paths: catalog::PATHS.iter().map(|s| s.to_string()).collect(),
            run_seconds: catalog::RUN_SECONDS,
            workloads: catalog::WORKLOADS
                .iter()
                .map(|(n, w)| (n.to_string(), w.to_string()))
                .collect(),
            end_to_end: catalog::END_TO_END.iter().map(Metric::from).collect(),
            per_layer: catalog::PER_LAYER.iter().map(Metric::from).collect(),
        }
    }

    /// Parses a manifest document (without validating its limits; see
    /// [`Manifest::validate`]).
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or extra key, or an ill-typed value.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let j = Json::parse(text)?;
        exact_keys(
            &j,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        )?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            arr(&j, key)?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{key}: not a string"))
                })
                .collect()
        };
        let run_seconds = j
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or("run_seconds: not a whole number")? as u64;
        let workloads = arr(&j, "workloads")?
            .iter()
            .map(|w| {
                exact_keys(w, &["name", "why"])?;
                Ok((string(w, "name")?, string(w, "why")?))
            })
            .collect::<Result<_, String>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            arr(&j, key)?
                .iter()
                .map(|m| {
                    let keys: &[&str] = if bounded {
                        &["name", "unit", "better", "bound"]
                    } else {
                        &["name", "unit", "better"]
                    };
                    exact_keys(m, keys)?;
                    let better = string(m, "better")?;
                    Ok(Metric {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        better: Better::parse(&better)
                            .ok_or(format!("{key}: better is {better:?}"))?,
                        bound: if bounded {
                            Some(
                                m.get("bound")
                                    .and_then(Json::as_f64)
                                    .ok_or("bound: not a number")?,
                            )
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Manifest {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Checks every limit the manifest format sets.
    ///
    /// # Errors
    ///
    /// The first violated limit.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        check(
            !self.command.is_empty() && self.command.len() <= 32,
            "command: 1 to 32 strings",
        )?;
        for arg in &self.command {
            check(
                arg.chars().count() <= 200,
                "command: argument over 200 characters",
            )?;
            check(!arg.starts_with('/'), "command: absolute path")?;
            check(
                !arg.split('/').any(|s| s == ".."),
                "command: path leaves the repo",
            )?;
        }
        check(
            (1..=16).contains(&self.paths.len()),
            "paths: 1 to 16 directories",
        )?;
        for p in &self.paths {
            check(valid_path(p), "paths: invalid directory")?;
        }
        check((1..=60).contains(&self.run_seconds), "run_seconds: 1 to 60")?;
        check((2..=8).contains(&self.workloads.len()), "workloads: 2 to 8")?;
        check(
            (1..=16).contains(&self.end_to_end.len()),
            "end_to_end: 1 to 16 metrics",
        )?;
        check(
            (1..=128).contains(&self.per_layer.len()),
            "per_layer: 1 to 128 metrics",
        )?;
        let mut names: Vec<&str> = Vec::new();
        for (name, why) in &self.workloads {
            check(valid_name(name), "workloads: invalid name")?;
            check(
                !why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'),
                "workloads: why must be one line of at most 200 characters",
            )?;
            names.push(name);
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            check(valid_name(&m.name), "metric: invalid name")?;
            check(valid_unit(&m.unit), "metric: invalid unit")?;
            names.push(&m.name);
        }
        for m in &self.end_to_end {
            let bound = m.bound.unwrap_or(-1.0);
            check(
                (0.0..=0.25).contains(&bound),
                "end_to_end: bound outside 0..=0.25",
            )?;
        }
        let setup = self.end_to_end.iter().find(|m| m.name == "setup_s");
        check(
            setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower),
            "end_to_end: setup_s (s, lower) is required",
        )?;
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        check(sorted.len() == names.len(), "names must be unique")?;
        check(self.to_json().len() <= 64 * 1024, "manifest over 64 KiB")?;
        Ok(())
    }

    /// The canonical document: two-space indented, one metric per line.
    pub fn to_json(&self) -> String {
        let quoted = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let metric = |m: &Metric| {
            let bound = m
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                escape(&m.name),
                escape(&m.unit),
                m.better.token()
            )
        };
        let block = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
        let workloads = self
            .workloads
            .iter()
            .map(|(n, w)| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    escape(n),
                    escape(w)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            quoted(&self.command),
            quoted(&self.paths),
            self.run_seconds,
            workloads,
            block(&self.end_to_end),
            block(&self.per_layer)
        )
    }
}

fn exact_keys(j: &Json, keys: &[&str]) -> Result<(), String> {
    let fields = j.as_obj().ok_or("expected an object")?;
    let mut got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("keys {got:?}, expected {want:?}"))
    }
}

fn arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("{key}: not an array"))
}

fn string(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("{key}: not a string"))
}
