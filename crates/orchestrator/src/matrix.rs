//! Declarative sweep matrices: TOML in, `Vec<RunSpec>` out.
//!
//! A matrix file names the cross-product of configurations ×
//! mechanisms × seeds, one metrics bin width and an optional fault
//! schedule applied to every run:
//!
//! ```toml
//! [matrix]
//! name = "paper-figures"
//! mechanisms = ["1Q", "VOQsw", "FBICM", "ITh", "CCFIT"]
//! seeds = [1]
//! metrics_bin_ns = 100000.0
//!
//! [[matrix.config]]
//! kind = "config1/case1" # ConfigId::kind() strings
//! scale = 1.0
//!
//! [[matrix.config]]
//! kind = "config3/case4"
//! hotspots = 4
//! duration_ms = 4.0
//!
//! [[matrix.event]]       # optional fault schedule (cycles)
//! kind = "link_down"
//! at = 120000
//! switch = 0
//! port = 4
//! policy = "fail-stop"
//!
//! [matrix.workload]      # optional sized-flow workload; replaces each
//! kind = "incast"        # config's traffic pattern (see parse_workload)
//! senders = 4
//! bytes = 65536
//! ```

use ccfit::engine::ids::{PortId, SwitchId};
use ccfit::faults::{FaultPolicy, FaultSchedule};
use ccfit::traffic::parse_trace;
use ccfit::{ConfigId, Mechanism, Workload};
use serde::Value;

use crate::spec::RunSpec;
use crate::toml;

/// A resolved sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMatrix {
    /// Matrix name (labels progress output).
    pub name: String,
    /// Configurations to sweep.
    pub configs: Vec<ConfigId>,
    /// Mechanisms to sweep.
    pub mechanisms: Vec<Mechanism>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Metrics bin width shared by every run.
    pub metrics_bin_ns: f64,
    /// Fault schedule applied to every run (empty = fault-free).
    pub faults: Option<FaultSchedule>,
    /// Sized-flow workload applied to every run (`[matrix.workload]`);
    /// replaces each config's traffic pattern.
    pub workload: Option<Workload>,
}

impl ExperimentMatrix {
    /// Parse a TOML matrix file (see the module docs for the format).
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let doc = toml::parse(text)?;
        let m = doc
            .get("matrix")
            .ok_or("missing [matrix] table".to_string())?;
        if let Value::Object(pairs) = m {
            if let Some((key, _)) = pairs
                .iter()
                .find(|(k, _)| !MATRIX_KEYS.contains(&k.as_str()))
            {
                let at =
                    matrix_key_line(text, key).map_or(String::new(), |n| format!("line {n}: "));
                return Err(format!(
                    "{at}unknown key `{key}` in [matrix]; known: {}",
                    MATRIX_KEYS.join(", ")
                ));
            }
        }
        let name = get_str(m, "name")?;
        let mechanisms = get_array(m, "mechanisms")?
            .iter()
            .map(|v| {
                let s = as_str(v, "mechanisms entry")?;
                Mechanism::parse(s).ok_or_else(|| {
                    let known: Vec<&str> = Mechanism::all().iter().map(|m| m.name()).collect();
                    format!("unknown mechanism {s:?}; known: {}", known.join(", "))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = get_array(m, "seeds")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("bad seed {v:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics_bin_ns = m
            .get("metrics_bin_ns")
            .and_then(Value::as_f64)
            .ok_or("missing or non-numeric matrix.metrics_bin_ns".to_string())?;
        let configs = match m.get("config") {
            Some(Value::Array(tables)) => tables
                .iter()
                .map(parse_config)
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => {
                return Err(format!(
                    "matrix.config must be [[matrix.config]] tables, found {other:?}"
                ))
            }
            None => return Err("no [[matrix.config]] tables".to_string()),
        };
        let faults = match m.get("event") {
            Some(Value::Array(tables)) => Some(parse_events(tables)?),
            Some(other) => {
                return Err(format!(
                    "matrix.event must be [[matrix.event]] tables, found {other:?}"
                ))
            }
            None => None,
        };
        let workload = match m.get("workload") {
            Some(w) => Some(parse_workload(w)?),
            None => None,
        };
        if mechanisms.is_empty() || seeds.is_empty() || configs.is_empty() {
            return Err("matrix resolves to zero runs".to_string());
        }
        Ok(ExperimentMatrix {
            name,
            configs,
            mechanisms,
            seeds,
            metrics_bin_ns,
            faults,
            workload,
        })
    }

    /// The full cross-product, in config-major, mechanism-middle,
    /// seed-minor order.
    pub fn resolve(&self) -> Vec<RunSpec> {
        let mut specs =
            Vec::with_capacity(self.configs.len() * self.mechanisms.len() * self.seeds.len());
        for config in &self.configs {
            for mech in &self.mechanisms {
                for &seed in &self.seeds {
                    let mut spec =
                        RunSpec::new(config.clone(), mech.clone(), seed, self.metrics_bin_ns);
                    if let Some(f) = &self.faults {
                        spec = spec.with_faults(f.clone());
                    }
                    if let Some(w) = &self.workload {
                        spec = spec.with_workload(w.clone());
                    }
                    specs.push(spec);
                }
            }
        }
        specs
    }
}

/// Every key `[matrix]` may hold. Anything else is a typo that would
/// otherwise drop a fault schedule or workload without a word and cache
/// the wrong experiment under a valid key.
const MATRIX_KEYS: [&str; 7] = [
    "name",
    "mechanisms",
    "seeds",
    "metrics_bin_ns",
    "config",
    "event",
    "workload",
];

/// 1-based line where `key` enters the `[matrix]` table: its `key = …`
/// line under `[matrix]`, or a `[matrix.key]` / `[[matrix.key]]` header.
fn matrix_key_line(text: &str, key: &str) -> Option<usize> {
    let mut in_matrix = false;
    let found = text.lines().position(|raw| {
        let line = raw.trim();
        if let Some(header) = line.strip_prefix('[') {
            let path = header.trim_start_matches('[');
            let mut segs = path.split(']').next().unwrap_or(path).split('.');
            let under_matrix = segs.next().map(str::trim) == Some("matrix");
            let sub = segs.next().map(str::trim);
            in_matrix = under_matrix && sub.is_none();
            under_matrix && sub == Some(key)
        } else {
            in_matrix && line.split_once('=').is_some_and(|(k, _)| k.trim() == key)
        }
    });
    found.map(|i| i + 1)
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("{what} must be a string, found {other:?}")),
    }
}

fn get_str(table: &Value, key: &str) -> Result<String, String> {
    table
        .get(key)
        .ok_or_else(|| format!("missing `{key}`"))
        .and_then(|v| as_str(v, key).map(str::to_string))
}

fn get_array<'a>(table: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match table.get(key) {
        Some(Value::Array(items)) => Ok(items),
        Some(other) => Err(format!("`{key}` must be an array, found {other:?}")),
        None => Err(format!("missing `{key}`")),
    }
}

fn req_u64(table: &Value, key: &str, what: &str) -> Result<u64, String> {
    table
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer `{key}`"))
}

fn req_f64(table: &Value, key: &str, what: &str) -> Result<f64, String> {
    table
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: missing or non-numeric `{key}`"))
}

fn opt_f64_or(table: &Value, key: &str, default: f64) -> Result<f64, String> {
    match table.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("`{key}` must be numeric")),
    }
}

/// One `[[matrix.config]]` table → [`ConfigId`], keyed by `kind` using
/// the [`ConfigId::kind`] strings.
fn parse_config(table: &Value) -> Result<ConfigId, String> {
    let kind = get_str(table, "kind")?;
    let what = format!("[[matrix.config]] kind={kind}");
    match kind.as_str() {
        "config1/case1" => Ok(ConfigId::Config1Case1 {
            scale: opt_f64_or(table, "scale", 1.0)?,
        }),
        "config2/case2" => Ok(ConfigId::Config2Case2 {
            scale: opt_f64_or(table, "scale", 1.0)?,
        }),
        "config2/case3" => Ok(ConfigId::Config2Case3 {
            scale: opt_f64_or(table, "scale", 1.0)?,
        }),
        "config3/case4" => Ok(ConfigId::Config3Case4 {
            hotspots: req_u64(table, "hotspots", &what)? as usize,
            duration_ms: opt_f64_or(table, "duration_ms", 4.0)?,
            scale: opt_f64_or(table, "scale", 1.0)?,
        }),
        "uniform-tree" => Ok(ConfigId::UniformTree {
            ary: req_u64(table, "ary", &what)? as usize,
            levels: req_u64(table, "levels", &what)? as usize,
            load: req_f64(table, "load", &what)?,
            duration_ns: req_f64(table, "duration_ns", &what)?,
        }),
        "uniform-mesh" => Ok(ConfigId::UniformMesh {
            width: req_u64(table, "width", &what)? as usize,
            height: req_u64(table, "height", &what)? as usize,
            load: req_f64(table, "load", &what)?,
            duration_ns: req_f64(table, "duration_ns", &what)?,
        }),
        other => Err(format!(
            "unknown config kind {other:?}; known: config1/case1, config2/case2, \
             config2/case3, config3/case4, uniform-tree, uniform-mesh"
        )),
    }
}

/// The `[matrix.workload]` table → [`Workload`], keyed by `kind`.
/// `kind = "trace"` reads and parses `file` at matrix-parse time, so
/// the resolved specs embed the trace content (and hash it).
fn parse_workload(table: &Value) -> Result<Workload, String> {
    let kind = get_str(table, "kind")?;
    let what = format!("[matrix.workload] kind={kind}");
    match kind.as_str() {
        "incast" => Ok(Workload::Incast {
            senders: req_u64(table, "senders", &what)? as usize,
            bytes: req_u64(table, "bytes", &what)?,
        }),
        "all-to-all" => Ok(Workload::AllToAll {
            bytes: req_u64(table, "bytes", &what)?,
        }),
        "permutation-shift" => Ok(Workload::PermutationShift {
            shift: req_u64(table, "shift", &what)? as usize,
            bytes: req_u64(table, "bytes", &what)?,
        }),
        "mpi-phase-bursts" => Ok(Workload::MpiPhaseBursts {
            phases: req_u64(table, "phases", &what)? as usize,
            bytes: req_u64(table, "bytes", &what)?,
            gap_ns: req_f64(table, "gap_ns", &what)?,
        }),
        "trace" => {
            let file = get_str(table, "file")?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{what}: cannot read {file:?}: {e}"))?;
            let flows = parse_trace(&text).map_err(|e| format!("{what}: {file}: {e}"))?;
            Ok(Workload::Trace { flows })
        }
        other => Err(format!(
            "unknown workload kind {other:?}; known: incast, all-to-all, \
             permutation-shift, mpi-phase-bursts, trace"
        )),
    }
}

/// `[[matrix.event]]` tables → one [`FaultSchedule`].
fn parse_events(tables: &[Value]) -> Result<FaultSchedule, String> {
    let mut schedule = FaultSchedule::new();
    for table in tables {
        let kind = get_str(table, "kind")?;
        let what = format!("[[matrix.event]] kind={kind}");
        let at = req_u64(table, "at", &what)?;
        let switch = SwitchId(req_u64(table, "switch", &what)? as u32);
        let policy = match table.get("policy") {
            None => FaultPolicy::FailStop,
            Some(v) => match as_str(v, "policy")? {
                "fail-stop" => FaultPolicy::FailStop,
                "graceful" => FaultPolicy::Graceful,
                other => return Err(format!("{what}: unknown policy {other:?}")),
            },
        };
        match kind.as_str() {
            "link_down" => {
                schedule.link_down(
                    at,
                    switch,
                    PortId(req_u64(table, "port", &what)? as u16),
                    policy,
                );
            }
            "link_up" => {
                schedule.link_up(at, switch, PortId(req_u64(table, "port", &what)? as u16));
            }
            "switch_down" => {
                schedule.switch_down(at, switch, policy);
            }
            "switch_up" => {
                schedule.switch_up(at, switch);
            }
            other => {
                return Err(format!(
                "unknown event kind {other:?}; known: link_down, link_up, switch_down, switch_up"
            ))
            }
        }
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
[matrix]
name = "demo"
mechanisms = ["1Q", "CCFIT"]
seeds = [1, 2]
metrics_bin_ns = 100000.0

[[matrix.config]]
kind = "config1/case1"
scale = 0.5

[[matrix.config]]
kind = "uniform-tree"
ary = 2
levels = 3
load = 0.6
duration_ns = 600000.0
"#;

    #[test]
    fn parses_and_resolves_the_cross_product() {
        let matrix = ExperimentMatrix::from_toml_str(DOC).unwrap();
        assert_eq!(matrix.name, "demo");
        let specs = matrix.resolve();
        assert_eq!(specs.len(), 2 * 2 * 2);
        // config-major, mechanism-middle, seed-minor.
        assert_eq!(specs[0].config, ConfigId::Config1Case1 { scale: 0.5 });
        assert_eq!(specs[0].mechanism.name(), "1Q");
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[1].seed, 2);
        assert_eq!(specs[2].mechanism.name(), "CCFIT");
        assert!(matches!(specs[4].config, ConfigId::UniformTree { .. }));
        // All keys distinct.
        let mut keys: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }

    #[test]
    fn unknown_matrix_keys_are_rejected_with_their_line() {
        // The table PR 23 removed, two misspelt sub-tables that would
        // silently drop a fault schedule / a workload, and a misspelt
        // plain key (the `seed` under `[[matrix.config]]` must not be
        // mistaken for it).
        for (key, line, doc) in [
            (
                "engine",
                "[matrix.engine]",
                format!("{DOC}\n[matrix.engine]\nthreads = 2\n"),
            ),
            (
                "events",
                "[[matrix.events]] # typo",
                format!("{DOC}\n[[matrix.events]] # typo\nkind = \"link_down\"\n"),
            ),
            (
                "workloads",
                "[matrix.workloads]",
                format!("{DOC}\n[matrix.workloads]\nkind = \"incast\"\n"),
            ),
            (
                "seed",
                "seed = [1]",
                format!("{DOC}seed = 3\n").replace("seeds = [1, 2]", "seed = [1]"),
            ),
        ] {
            let err = ExperimentMatrix::from_toml_str(&doc).unwrap_err();
            let n = doc.lines().position(|l| l == line).unwrap() + 1;
            assert_eq!(
                err,
                format!(
                    "line {n}: unknown key `{key}` in [matrix]; known: name, mechanisms, \
                     seeds, metrics_bin_ns, config, event, workload"
                )
            );
        }
    }

    /// `matrices/paper.toml` has no other parse check in tier-1 (the
    /// benchmark's own tests parse `benchmark/matrices/`).
    #[test]
    fn committed_matrices_use_only_known_keys() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../matrices");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            ExperimentMatrix::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }

    #[test]
    fn events_build_a_schedule() {
        let doc = format!(
            "{DOC}\n[[matrix.event]]\nkind = \"link_down\"\nat = 120000\nswitch = 0\nport = 4\n\
             policy = \"graceful\"\n\n[[matrix.event]]\nkind = \"link_up\"\nat = 220000\n\
             switch = 0\nport = 4\n"
        );
        let matrix = ExperimentMatrix::from_toml_str(&doc).unwrap();
        let mut expected = FaultSchedule::new();
        expected
            .link_down(120000, SwitchId(0), PortId(4), FaultPolicy::Graceful)
            .link_up(220000, SwitchId(0), PortId(4));
        assert_eq!(matrix.faults, Some(expected));
        assert!(matrix.resolve().iter().all(|s| s.faults.is_some()));
    }

    #[test]
    fn workload_table_applies_to_every_spec() {
        let doc =
            format!("{DOC}\n[matrix.workload]\nkind = \"incast\"\nsenders = 4\nbytes = 65536\n");
        let matrix = ExperimentMatrix::from_toml_str(&doc).unwrap();
        assert_eq!(
            matrix.workload,
            Some(Workload::Incast {
                senders: 4,
                bytes: 65536
            })
        );
        let specs = matrix.resolve();
        assert!(specs.iter().all(|s| s.workload.is_some()));
        assert!(specs[0].label().contains("incast-4x65536B"));
        // The workload changes the cache key relative to a bare matrix.
        let bare = ExperimentMatrix::from_toml_str(DOC).unwrap().resolve();
        assert_ne!(specs[0].cache_key(), bare[0].cache_key());
    }

    #[test]
    fn trace_workload_embeds_file_content() {
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/incast4.trace");
        let doc = format!("{DOC}\n[matrix.workload]\nkind = \"trace\"\nfile = \"{trace}\"\n");
        let matrix = ExperimentMatrix::from_toml_str(&doc).unwrap();
        match matrix.workload.as_ref().unwrap() {
            Workload::Trace { flows } => {
                assert_eq!(flows.len(), 4);
                assert!(flows.iter().all(|f| f.dst.0 == 0));
            }
            other => panic!("expected trace workload, got {other:?}"),
        }

        let missing =
            format!("{DOC}\n[matrix.workload]\nkind = \"trace\"\nfile = \"/nonexistent.trace\"\n");
        let err = ExperimentMatrix::from_toml_str(&missing).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        for (mutation, needle) in [
            ("mechanisms = [\"1Q\", \"CCFIT\"]", "unknown mechanism"),
            ("kind = \"config1/case1\"", "unknown config kind"),
            ("metrics_bin_ns = 100000.0", "metrics_bin_ns"),
        ] {
            let broken = match mutation {
                m if m.starts_with("mechanisms") => DOC.replace(m, "mechanisms = [\"NOPE\"]"),
                m if m.starts_with("kind") => DOC.replace(m, "kind = \"nope\""),
                m => DOC.replace(m, ""),
            };
            let err = ExperimentMatrix::from_toml_str(&broken).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }
}
