//! Declarative sweep matrices: TOML in, `Vec<RunSpec>` out.
//!
//! A matrix file names the cross-product of configurations ×
//! mechanisms × seeds, one metrics bin width, the BECN transport and an
//! optional fault schedule and workload applied to every run:
//!
//! ```toml
//! [matrix]
//! name = "paper-figures"
//! mechanisms = ["1Q", "VOQsw", "FBICM", "ITh", "CCFIT"]
//! seeds = [1]
//! metrics_bin_ns = 100000.0
//! becn_transport = "out-of-band" # optional; "in-band" by default
//!
//! [[matrix.mechanism]]   # optional, after `mechanisms`: a registry
//! name = "CCFIT"         # mechanism with parameter fields overridden
//! num_cfqs = 1           # by serde name; an enum-valued field is a
//! [matrix.mechanism.cct_profile.Exponential] # sub-table
//! period = 8
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
//!
//! [matrix.workload]      # optional sized-flow workload; replaces each
//! kind = "incast"        # config's traffic pattern (see parse_workload)
//! senders = 4
//! bytes = 65536
//! ```
//!
//! A key no table knows is an error with its line, in every table:
//! a typo would otherwise run the default under a valid cache key.

use ccfit::engine::ids::{PortId, SwitchId};
use ccfit::engine::units::Cycle;
use ccfit::faults::{FaultError, FaultSchedule, NetworkEvent};
use ccfit::traffic::parse_trace;
use ccfit::{BecnTransport, ConfigId, Mechanism, SimConfig, Workload};
use serde::{Deserialize, Serialize, Value};

use crate::spec::RunSpec;
use crate::toml;

/// A resolved sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMatrix {
    /// Matrix name (labels progress output).
    pub name: String,
    /// Configurations to sweep.
    pub configs: Vec<ConfigId>,
    /// Mechanisms to sweep, parameters included.
    pub mechanisms: Vec<Mechanism>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Metrics bin width shared by every run.
    pub metrics_bin_ns: f64,
    /// BECN transport shared by every run.
    pub becn_transport: BecnTransport,
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
        let at = |key: &str| at_key(text, &["matrix"], 0, key);
        reject_unknown_keys(m, &MATRIX_KEYS, "[matrix]", at)?;
        let name = get_str(m, "name")?;
        let mut mechanisms = get_array(m, "mechanisms")?
            .iter()
            .map(|v| {
                registry(as_str(v, "mechanisms entry")?)
                    .map_err(|e| format!("{}{e}", at("mechanisms")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (i, table) in get_array(m, "mechanism")?.iter().enumerate() {
            let at = |key: &str| at_key(text, &["matrix", "mechanism"], i, key);
            mechanisms.push(parse_mechanism(table, at)?);
        }
        let seeds = get_array(m, "seeds")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("bad seed {v:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics_bin_ns = m
            .get("metrics_bin_ns")
            .and_then(Value::as_f64)
            .ok_or("missing or non-numeric matrix.metrics_bin_ns".to_string())?;
        let cfg = SimConfig {
            metrics_bin_ns,
            ..SimConfig::default()
        };
        cfg.check().map_err(|e| format!("{}{e}", at(e.key)))?;
        let becn = m.get("becn_transport").map(|v| as_str(v, "becn_transport"));
        let becn_transport = match becn.transpose()? {
            None | Some("in-band") => BecnTransport::InBand,
            Some("out-of-band") => BecnTransport::OutOfBand,
            Some(other) => {
                let known = "known: in-band, out-of-band";
                let at = at("becn_transport");
                return Err(format!("{at}unknown becn_transport {other:?}; {known}"));
            }
        };
        let configs = (get_array(m, "config")?.iter().enumerate())
            .map(|(i, table)| {
                let at = |key: &str| at_key(text, &["matrix", "config"], i, key);
                let config = parse_config(table, at)?;
                config.check().map_err(|e| {
                    format!("{}[[matrix.config]] kind={}: {e}", at(e.key), config.kind())
                })?;
                Ok(config)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let events = (get_array(m, "event")?.iter().enumerate())
            .map(|(j, table)| parse_event(table, |key| at_key(text, &["matrix", "event"], j, key)))
            .collect::<Result<Vec<_>, _>>()?;
        let workload = (m.get("workload"))
            .map(|table| parse_workload(table, |key| at_key(text, &["matrix", "workload"], 0, key)))
            .transpose()?;
        if mechanisms.is_empty() || seeds.is_empty() || configs.is_empty() {
            return Err("matrix resolves to zero runs".to_string());
        }
        // The events and the workload must fit every config's network.
        if !events.is_empty() || workload.is_some() {
            for config in &configs {
                let network = config.resolve().topology;
                for (j, &(at, event)) in events.iter().enumerate() {
                    let mut one = FaultSchedule::new();
                    one.push(at, event);
                    one.validate(&network).map_err(|e| {
                        let key = match e {
                            FaultError::UnknownSwitch(_) => "switch",
                            _ => "port",
                        };
                        let at = at_key(text, &["matrix", "event"], j, key);
                        format!("{at}[[matrix.event]]: {e} in {}", config.label())
                    })?;
                }
                if let Some(w) = &workload {
                    w.check(network.num_nodes()).map_err(|e| {
                        let at = at_key(text, &["matrix", "workload"], 0, e.key);
                        format!(
                            "{at}[matrix.workload] {}: {e} in {}",
                            w.name(),
                            config.label()
                        )
                    })?;
                }
            }
        }
        let faults = (!events.is_empty()).then(|| {
            let mut schedule = FaultSchedule::new();
            for (at, event) in events {
                schedule.push(at, event);
            }
            schedule
        });
        Ok(ExperimentMatrix {
            name,
            configs,
            mechanisms,
            seeds,
            metrics_bin_ns,
            becn_transport,
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
                    spec.becn_transport = self.becn_transport;
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
const MATRIX_KEYS: [&str; 9] = [
    "name",
    "mechanisms",
    "mechanism",
    "seeds",
    "metrics_bin_ns",
    "becn_transport",
    "config",
    "event",
    "workload",
];

/// `Err` naming the first key of `table` that is not in `known`, with
/// its line (`at(key)`); `what` names the table.
fn reject_unknown_keys(
    table: &Value,
    known: &[&str],
    what: &str,
    at: impl Fn(&str) -> String,
) -> Result<(), String> {
    let Value::Object(pairs) = table else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((key, _)) => Err(format!(
            "{}unknown key `{key}` in {what}; known: {}",
            at(key),
            known.join(", ")
        )),
    }
}

/// `"line N: "` for where `key` enters the `nth` table at `path` (`[path]`
/// or the `nth` `[[path]]`): its `key = …` line or a `[path.key…]` /
/// `[[path.key…]]` header inside that table; empty if not found.
fn at_key(text: &str, path: &[&str], nth: usize, key: &str) -> String {
    let mut seen = 0; // headers naming exactly `path` so far
    let mut in_body = false;
    let found = text.lines().position(|raw| {
        let line = raw.trim();
        if let Some(header) = line.strip_prefix('[') {
            let inner = header.trim_start_matches('[');
            let name = inner.split(']').next().unwrap_or(inner);
            let segs: Vec<&str> = name.split('.').map(str::trim).collect();
            seen += usize::from(segs == path);
            in_body = seen == nth + 1 && segs == path;
            let inside = segs.len() > path.len() && segs[..path.len()] == *path;
            seen == nth + 1 && inside && segs[path.len()] == key
        } else {
            in_body && line.split_once('=').is_some_and(|(k, _)| k.trim() == key)
        }
    });
    found.map_or(String::new(), |i| format!("line {}: ", i + 1))
}

/// A registry mechanism by display name, with default parameters.
fn registry(name: &str) -> Result<Mechanism, String> {
    Mechanism::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Mechanism::all().iter().map(|m| m.name()).collect();
        format!("unknown mechanism {name:?}; known: {}", known.join(", "))
    })
}

/// One `[[matrix.mechanism]]` table → the registry mechanism `name`
/// with each other key overriding the parameter field of that serde
/// name. The registry default goes out through [`Serialize`] and is
/// read back as a [`Value`], the overrides are merged into it, and the
/// result comes back through [`Deserialize`] — so no field has a parser
/// of its own, and a field added to a parameter struct is a matrix key
/// at once. `at(key)` is the `"line N: "` prefix of an error about
/// `key`.
fn parse_mechanism(table: &Value, at: impl Fn(&str) -> String) -> Result<Mechanism, String> {
    let name = get_str(table, "name").map_err(|e| format!("[[matrix.mechanism]]: {e}"))?;
    let mut value = as_value(&registry(&name).map_err(|e| format!("{}{e}", at("name")))?);
    let Value::Object(keys) = table else {
        unreachable!("a [[matrix.mechanism]] element is a table")
    };
    for (key, v) in keys.iter().filter(|(k, _)| k != "name") {
        let mut fields = param_fields(&mut value);
        let Some(field) = fields.iter_mut().find(|f| f.0 == *key) else {
            let known: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
            let known = format!("known: [{}]", known.join(", "));
            return Err(format!(
                "{}unknown field `{key}` for {name}; {known}",
                at(key)
            ));
        };
        field.1 = v.clone();
        retype::<Mechanism>(&value).map_err(|e| format!("{}{name}: {}", at(key), e.0))?;
    }
    let mech: Mechanism = retype(&value).expect("checked after every override");
    mech.validate()
        .map_err(|e| format!("{}{name}: {e}", at("name")))?;
    Ok(mech)
}

/// The parameter fields of a serialized [`Mechanism`]: the named fields
/// of its variant's payload (the payload itself, or each element of a
/// multi-field variant's array), in declaration order. A unit variant
/// serializes as a bare string and has none.
fn param_fields(mech: &mut Value) -> Vec<&mut (String, Value)> {
    let Value::Object(variant) = mech else {
        return Vec::new();
    };
    let mut fields = Vec::new();
    for (_, payload) in variant {
        let tables: Vec<&mut Value> = match payload {
            Value::Array(items) => items.iter_mut().collect(),
            other => vec![other],
        };
        for table in tables {
            if let Value::Object(pairs) = table {
                fields.extend(pairs.iter_mut());
            }
        }
    }
    fields
}

/// `mech`'s name followed by each `field=value` in which it differs from
/// its registry default — what its `[[matrix.mechanism]]` table says,
/// e.g. `CCFIT num_cfqs=1 out_cam_lines=2`.
pub(crate) fn mechanism_label(mech: &Mechanism) -> String {
    let default = registry(mech.name()).expect("every mechanism is registered");
    let (mut ours, mut base) = (as_value(mech), as_value(&default));
    let mut label = mech.name().to_string();
    for (field, _) in (param_fields(&mut ours).into_iter())
        .zip(param_fields(&mut base))
        .filter(|(a, b)| a != b)
    {
        let value = serde_json::to_string(&field.1).expect("a Value always serializes");
        label += &format!(" {}={value}", field.0);
    }
    label
}

/// `mech` as a tree whose fields can be edited.
fn as_value(mech: &Mechanism) -> Value {
    retype(mech).expect("a mechanism's JSON reads back as a Value")
}

/// `x` written as JSON and read back as a `T`: how a mechanism becomes
/// a [`Value`], and an edited tree a mechanism again.
fn retype<T: Deserialize>(x: &impl Serialize) -> Result<T, serde_json::Error> {
    serde_json::from_str(&serde_json::to_string(x)?)
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

/// The array (or `[[table]]` list) at `key`; empty when absent.
fn get_array<'a>(table: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match table.get(key) {
        Some(Value::Array(items)) => Ok(items),
        Some(other) => Err(format!("`{key}` must be an array, found {other:?}")),
        None => Ok(&[]),
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
/// the [`ConfigId::kind`] strings. `at(key)` is the `"line N: "` prefix
/// of an error about `key`.
fn parse_config(table: &Value, at: impl Fn(&str) -> String) -> Result<ConfigId, String> {
    let kind = get_str(table, "kind")?;
    let what = format!("[[matrix.config]] kind={kind}");
    let scale = || opt_f64_or(table, "scale", 1.0);
    let (config, keys): (_, &[&str]) = match kind.as_str() {
        "config1/case1" => (
            ConfigId::Config1Case1 { scale: scale()? },
            &["kind", "scale"],
        ),
        "config2/case2" => (
            ConfigId::Config2Case2 { scale: scale()? },
            &["kind", "scale"],
        ),
        "config2/case3" => (
            ConfigId::Config2Case3 { scale: scale()? },
            &["kind", "scale"],
        ),
        "config3/case4" => (
            ConfigId::Config3Case4 {
                hotspots: req_u64(table, "hotspots", &what)? as usize,
                duration_ms: opt_f64_or(table, "duration_ms", 4.0)?,
                scale: scale()?,
            },
            &["kind", "hotspots", "duration_ms", "scale"],
        ),
        "uniform-tree" => (
            ConfigId::UniformTree {
                ary: req_u64(table, "ary", &what)? as usize,
                levels: req_u64(table, "levels", &what)? as usize,
                load: req_f64(table, "load", &what)?,
                duration_ns: req_f64(table, "duration_ns", &what)?,
            },
            &["kind", "ary", "levels", "load", "duration_ns"],
        ),
        other => {
            return Err(format!(
                "{}unknown config kind {other:?}; known: config1/case1, config2/case2, \
                 config2/case3, config3/case4, uniform-tree",
                at("kind")
            ))
        }
    };
    reject_unknown_keys(table, keys, &what, at)?;
    Ok(config)
}

/// The `[matrix.workload]` table → [`Workload`], keyed by `kind`.
/// `kind = "trace"` reads and parses `file` at matrix-parse time, so
/// the resolved specs embed the trace content (and hash it). `at(key)`
/// is the `"line N: "` prefix of an error about `key`.
fn parse_workload(table: &Value, at: impl Fn(&str) -> String) -> Result<Workload, String> {
    let kind = get_str(table, "kind")?;
    let what = format!("[matrix.workload] kind={kind}");
    let bytes = || req_u64(table, "bytes", &what);
    let (workload, keys): (_, &[&str]) = match kind.as_str() {
        "incast" => (
            Workload::Incast {
                senders: req_u64(table, "senders", &what)? as usize,
                bytes: bytes()?,
            },
            &["kind", "senders", "bytes"],
        ),
        "all-to-all" => (Workload::AllToAll { bytes: bytes()? }, &["kind", "bytes"]),
        "permutation-shift" => (
            Workload::PermutationShift {
                shift: req_u64(table, "shift", &what)? as usize,
                bytes: bytes()?,
            },
            &["kind", "shift", "bytes"],
        ),
        "mpi-phase-bursts" => (
            Workload::MpiPhaseBursts {
                phases: req_u64(table, "phases", &what)? as usize,
                bytes: bytes()?,
                gap_ns: req_f64(table, "gap_ns", &what)?,
            },
            &["kind", "phases", "bytes", "gap_ns"],
        ),
        "trace" => {
            let file = get_str(table, "file")?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{what}: cannot read {file:?}: {e}"))?;
            let flows = parse_trace(&text).map_err(|e| format!("{what}: {file}: {e}"))?;
            (Workload::Trace { flows }, &["kind", "file"])
        }
        other => {
            return Err(format!(
                "unknown workload kind {other:?}; known: incast, all-to-all, \
                 permutation-shift, mpi-phase-bursts, trace"
            ))
        }
    };
    reject_unknown_keys(table, keys, &what, at)?;
    Ok(workload)
}

/// One `[[matrix.event]]` table → the event and the cycle it fires at.
/// `line(key)` is the `"line N: "` prefix of an error about `key`.
fn parse_event(
    table: &Value,
    line: impl Fn(&str) -> String,
) -> Result<(Cycle, NetworkEvent), String> {
    let kind = get_str(table, "kind")?;
    let what = format!("[[matrix.event]] kind={kind}");
    let at = req_u64(table, "at", &what)?;
    let switch = SwitchId(req_u64(table, "switch", &what)? as u32);
    let port = || req_u64(table, "port", &what).map(|p| PortId(p as u16));
    let (event, keys): (_, &[&str]) = match kind.as_str() {
        "link_down" => (
            NetworkEvent::LinkDown {
                switch,
                port: port()?,
            },
            &["kind", "at", "switch", "port"],
        ),
        "link_up" => (
            NetworkEvent::LinkUp {
                switch,
                port: port()?,
            },
            &["kind", "at", "switch", "port"],
        ),
        "switch_down" => (
            NetworkEvent::SwitchDown { switch },
            &["kind", "at", "switch"],
        ),
        "switch_up" => (NetworkEvent::SwitchUp { switch }, &["kind", "at", "switch"]),
        other => {
            return Err(format!(
                "unknown event kind {other:?}; known: link_down, link_up, switch_down, switch_up"
            ))
        }
    };
    reject_unknown_keys(table, keys, &what, line)?;
    Ok((at, event))
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
                     mechanism, seeds, metrics_bin_ns, becn_transport, config, event, workload"
                )
            );
        }
    }

    #[test]
    fn unknown_keys_in_nested_tables_are_rejected_with_their_line() {
        // A misspelt parameter would run its default under a valid cache
        // key; a key one kind has is unknown to a kind without it. `#!`
        // marks the line the error must name.
        let event = "\n[[matrix.event]]\nkind = \"link_down\"\nat = 1\nswitch = 0\nport = 3\n";
        let workload = "\n[matrix.workload]\nkind = \"incast\"\nsenders = 2\nbytes = 64\n";
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/incast4.trace");
        for (key, table, doc) in [
            (
                "scal",
                "[[matrix.config]] kind=config1/case1; known: kind, scale",
                DOC.replace("scale = 0.5", "scal = 0.1 #!"),
            ),
            (
                "hotspots",
                "[[matrix.config]] kind=uniform-tree; known: kind, ary, levels, load, duration_ns",
                DOC.replace("levels = 3", "levels = 3\nhotspots = 4 #!"),
            ),
            (
                "policy",
                "[[matrix.event]] kind=link_down; known: kind, at, switch, port",
                format!("{DOC}{event}policy = \"fail-stop\" #!\n"),
            ),
            (
                "port",
                "[[matrix.event]] kind=switch_down; known: kind, at, switch",
                // The second event table, so its line is not the first's.
                format!(
                    "{DOC}{event}\n[[matrix.event]]\nkind = \"switch_down\"\nat = 1\n\
                     switch = 0\nport = 3 #!\n"
                ),
            ),
            (
                "sender",
                "[matrix.workload] kind=incast; known: kind, senders, bytes",
                format!("{DOC}{workload}sender = 3 #!\n"),
            ),
            (
                "bytes",
                "[matrix.workload] kind=trace; known: kind, file",
                format!(
                    "{DOC}\n[matrix.workload]\nkind = \"trace\"\nfile = \"{trace}\"\n\
                     bytes = 1 #!\n"
                ),
            ),
        ] {
            let err = ExperimentMatrix::from_toml_str(&doc).unwrap_err();
            let n = doc.lines().position(|l| l.ends_with("#!")).unwrap() + 1;
            assert_eq!(err, format!("line {n}: unknown key `{key}` in {table}"));
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
        // Port 3 of switch 0 is a trunk in both of `DOC`'s networks.
        let doc = format!(
            "{DOC}\n[[matrix.event]]\nkind = \"link_down\"\nat = 120000\nswitch = 0\nport = 3\n\n\
             [[matrix.event]]\nkind = \"link_up\"\nat = 220000\n\
             switch = 0\nport = 3\n"
        );
        let matrix = ExperimentMatrix::from_toml_str(&doc).unwrap();
        let mut expected = FaultSchedule::new();
        expected
            .link_down(120000, SwitchId(0), PortId(3))
            .link_up(220000, SwitchId(0), PortId(3));
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

    /// `DOC` with its mechanism axis replaced by `tables`.
    fn with_mechanism_tables(tables: &str) -> String {
        DOC.replace("mechanisms = [\"1Q\", \"CCFIT\"]\n", "") + tables
    }

    #[test]
    fn registry_names_without_overrides_resolve_to_the_registry() {
        let tables: String = (Mechanism::all().iter())
            .map(|m| format!("\n[[matrix.mechanism]]\nname = \"{}\"\n", m.name()))
            .collect();
        let matrix = ExperimentMatrix::from_toml_str(&with_mechanism_tables(&tables)).unwrap();
        assert_eq!(matrix.mechanisms, Mechanism::all());
        for m in &matrix.mechanisms {
            assert_eq!(mechanism_label(m), m.name());
        }
    }

    /// The ablation matrices pin the isolation / throttling overrides
    /// (`tests/matrices.rs`); these are the other parameter structs.
    #[test]
    fn overrides_reach_the_named_fields_of_any_parameter_struct() {
        let tables = "\n[[matrix.mechanism]]\nname = \"HPCC\"\neta = 0.9\n\n\
                      [[matrix.mechanism]]\nname = \"DCQCN\"\nkmin_mtus = 2\npmax = 0.5\n\n\
                      [[matrix.mechanism]]\nname = \"VOQnet\"\nper_queue_flits = 32\n";
        let matrix = ExperimentMatrix::from_toml_str(&with_mechanism_tables(tables)).unwrap();
        assert_eq!(matrix.mechanisms[0].hpcc_params().unwrap().eta, 0.9);
        // Each differs from its registry default in exactly those fields.
        let labels: Vec<String> = matrix.mechanisms.iter().map(mechanism_label).collect();
        let want = [
            "HPCC eta=0.9",
            "DCQCN kmin_mtus=2 pmax=0.5",
            "VOQnet per_queue_flits=32",
        ];
        assert_eq!(labels, want);
    }

    #[test]
    fn bad_overrides_fail_with_their_line() {
        // `#!` marks the line the error must name.
        for (table, needle) in [
            (
                "name = \"CCFIT\"\nnope = 1 #!",
                "unknown field `nope` for CCFIT; known: [num_cfqs",
            ),
            (
                "name = \"FBICM\"\nmarking_rate = 0.5 #!",
                "unknown field `marking_rate` for FBICM",
            ),
            (
                "name = \"CCFIT\"\nnum_cfqs = \"two\" #!",
                "expected unsigned integer",
            ),
            (
                "name = \"FBICM\" #!\ngo_mtus = 12",
                "FBICM: Go threshold must be below Stop",
            ),
        ] {
            // A valid table first, so the failing one is the second.
            let doc = with_mechanism_tables(&format!(
                "\n[[matrix.mechanism]]\nname = \"ITh\"\nmarking_rate = 0.5\n\n\
                 [[matrix.mechanism]]\n{table}\n"
            ));
            let err = ExperimentMatrix::from_toml_str(&doc).unwrap_err();
            let n = doc.lines().position(|l| l.ends_with("#!")).unwrap() + 1;
            assert!(err.starts_with(&format!("line {n}: ")), "{err}");
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn becn_transport_applies_to_every_spec() {
        use BecnTransport::{InBand, OutOfBand};
        let with = |v: &str| DOC.replace("seeds", &format!("becn_transport = \"{v}\"\nseeds"));
        let transports = |doc: &str| {
            let specs = ExperimentMatrix::from_toml_str(doc).unwrap().resolve();
            specs.iter().map(|s| s.becn_transport).collect::<Vec<_>>()
        };
        assert_eq!(transports(&with("out-of-band")), [OutOfBand; 8]);
        assert_eq!(transports(DOC), [InBand; 8]);
        let err = ExperimentMatrix::from_toml_str(&with("sideways")).unwrap_err();
        let want = "line 5: unknown becn_transport \"sideways\"; known: in-band, out-of-band";
        assert_eq!(err, want);
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
