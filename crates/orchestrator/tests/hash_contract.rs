//! The cache-key contract (DESIGN.md §13): pinned golden hashes for the
//! paper configurations, the "any field change changes the key"
//! guarantee, and the lossless spec ⇄ canonical-bytes roundtrip that
//! byte-identical caching rests on.

use ccfit::engine::ids::{NodeId, PortId, SwitchId};
use ccfit::traffic::incast;
use ccfit::{BecnTransport, ConfigId, FaultSchedule, Mechanism, SizedFlow, Workload};
use ccfit_orchestrator::{
    Cache, CacheEntry, ExperimentMatrix, RunSpec, ENGINE_SALT, SCHEMA_VERSION,
};
use proptest::prelude::*;

const BIN_NS: f64 = 100_000.0;

fn paper_spec(config: ConfigId) -> RunSpec {
    RunSpec::new(config, Mechanism::ccfit(), 1, BIN_NS)
}

/// Golden pins for the three paper configurations. These keys are
/// load-bearing: they change exactly when the canonical serialization,
/// a default mechanism parameter, or [`ENGINE_SALT`] changes — any of
/// which invalidates every cached result, which is what the salt bump
/// in `ENGINE_SALT` is *for*. If this test fails, either revert the
/// accidental encoding change or bump the salt and re-pin.
#[test]
fn golden_cache_keys_for_paper_configs() {
    let pins = [
        (
            ConfigId::config1_case1(),
            "a84055e29a52a48b09c65dab5ef9739240c167c1b36ea598788a42feffaf9c1c",
        ),
        (
            ConfigId::config2_case2(),
            "a61a71a14df9ff1cc7981f5effe99072dcfcd6de1ec6d14c243b86d9975ebc21",
        ),
        (
            ConfigId::config3_case4(1),
            "76989de27291c7a650d9ed342836e20dae14867fac7f5d234c147be9600e355f",
        ),
    ];
    for (config, want) in pins {
        let spec = paper_spec(config.clone());
        assert_eq!(
            spec.cache_key(),
            want,
            "pinned cache key changed for {} — canonical encoding or defaults \
             moved without an ENGINE_SALT bump (salt is {ENGINE_SALT:?})",
            config.label(),
        );
    }
}

/// The canonical serialization must expose exactly the fields the hash
/// is documented to cover — adding a `RunSpec` field without extending
/// the field-flip test below fails here first.
#[test]
fn canonical_bytes_cover_exactly_the_documented_fields() {
    let spec = paper_spec(ConfigId::config1_case1());
    let v: serde_json::Value = serde_json::from_str(&spec.canonical_bytes()).unwrap();
    let keys: Vec<&str> = match &v {
        serde_json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("canonical form is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "schema",
            "config",
            "mechanism",
            "seed",
            "metrics_bin_ns",
            "faults",
            "workload"
        ],
        "RunSpec gained/lost/reordered fields — update the hash contract \
         tests and consider an ENGINE_SALT bump"
    );
}

/// Flipping any single field of a spec must change its cache key, and
/// every mutant must differ from every other (no hash aliasing between
/// the axes the matrix sweeps).
#[test]
fn every_field_flip_changes_the_cache_key() {
    let base = paper_spec(ConfigId::config1_case1());
    let mut faulty = FaultSchedule::new();
    faulty.link_down(100, SwitchId(0), PortId(1));

    let mut schema_flip = base.clone();
    schema_flip.schema = SCHEMA_VERSION + 1;

    let mutants: Vec<(&str, RunSpec)> = vec![
        ("schema", schema_flip),
        ("config (kind)", paper_spec(ConfigId::config2_case2())),
        (
            "config (param)",
            paper_spec(ConfigId::Config1Case1 { scale: 0.5 }),
        ),
        (
            "mechanism",
            RunSpec::new(ConfigId::config1_case1(), Mechanism::OneQ, 1, BIN_NS),
        ),
        (
            "seed",
            RunSpec::new(ConfigId::config1_case1(), Mechanism::ccfit(), 2, BIN_NS),
        ),
        (
            "metrics_bin_ns",
            RunSpec::new(
                ConfigId::config1_case1(),
                Mechanism::ccfit(),
                1,
                2.0 * BIN_NS,
            ),
        ),
        ("faults", base.clone().with_faults(faulty)),
        (
            "workload (preset)",
            base.clone().with_workload(incast(2, 4096)),
        ),
        (
            "workload (param)",
            base.clone().with_workload(incast(2, 8192)),
        ),
        ("becn_transport", {
            let mut s = base.clone();
            s.becn_transport = BecnTransport::OutOfBand;
            s
        }),
        (
            "workload (trace content)",
            base.clone().with_workload(Workload::Trace {
                flows: vec![SizedFlow::new(0, NodeId(1), NodeId(0), 4096, 0.0)],
            }),
        ),
    ];

    let base_key = base.cache_key();
    let mut keys = vec![base_key.clone()];
    for (field, mutant) in &mutants {
        let key = mutant.cache_key();
        assert_ne!(
            key, base_key,
            "changing `{field}` did not change the cache key"
        );
        keys.push(key);
    }
    let mut dedup = keys.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), keys.len(), "two distinct specs share a key");
}

/// Draw any `ConfigId` variant from primitive draws (the vendored
/// proptest has no boxed heterogeneous `prop_oneof`, so one tuple of
/// primitives feeds a variant selector).
fn config_strategy() -> impl Strategy<Value = ConfigId> {
    (
        0usize..5,
        0.01f64..4.0,
        2usize..6,
        0.01f64..1.0,
        1e3f64..1e6,
    )
        .prop_map(|(pick, scale, dim, load, duration_ns)| match pick {
            0 => ConfigId::Config1Case1 { scale },
            1 => ConfigId::Config2Case2 { scale },
            2 => ConfigId::Config2Case3 { scale },
            3 => ConfigId::Config3Case4 {
                hotspots: dim,
                duration_ms: scale * 2.0,
                scale: load,
            },
            _ => ConfigId::UniformTree {
                ary: dim,
                levels: 3,
                load,
                duration_ns,
            },
        })
}

/// A committed cache entry — `matrices/smoke.toml`'s CCFIT seed-1 run,
/// as an earlier build stored it — reads into a [`CacheEntry`] and
/// writes back to the same bytes (compact), its spec still hashes to
/// its file name, and the cache serves it as a hit: caches filled
/// before a change to the JSON codec stay valid after it.
#[test]
fn a_committed_cache_entry_round_trips_and_hits() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let key = "b846960be3eac2933c2aa57e85632b6f3763a8094f75f9b79b4b9903a890ca8c";
    let text = std::fs::read_to_string(format!("{dir}/{key}.json")).unwrap();
    let entry: CacheEntry = serde_json::from_str(&text).unwrap();
    assert!(
        serde_json::to_string(&entry).unwrap() == text,
        "the entry does not re-render byte for byte"
    );
    assert_eq!(
        (entry.salt.as_str(), entry.key.as_str()),
        (ENGINE_SALT, key)
    );
    assert_eq!(entry.spec.cache_key(), key);
    let smoke = include_str!("../../../matrices/smoke.toml");
    let specs = ExperimentMatrix::from_toml_str(smoke).unwrap().resolve();
    assert!(
        specs.contains(&entry.spec),
        "smoke.toml still makes this run"
    );
    assert_eq!(Cache::new(dir).load(key, &entry.spec), Some(entry.report));
}

proptest! {
    /// spec → canonical bytes → spec is lossless (floats included: the
    /// canonical form uses shortest-round-trip rendering), and the
    /// re-parsed spec re-serializes to the *same bytes*, so its cache
    /// key is stable across a store/load cycle.
    #[test]
    fn canonical_roundtrip_is_lossless(
        config in config_strategy(),
        mech_idx in 0usize..64,
        seed in any::<u64>(),
        bin in 1e2f64..1e7,
        wl in 0usize..4,
        wl_bytes in 1u64..1_000_000,
        out_of_band in any::<bool>(),
    ) {
        let all = Mechanism::all();
        let mech = all[mech_idx % all.len()].clone();
        let mut spec = RunSpec::new(config, mech, seed, bin);
        spec = match wl {
            0 => spec, // no workload
            1 => spec.with_workload(incast(3, wl_bytes)),
            2 => spec.with_workload(ccfit::traffic::permutation_shift(1, wl_bytes)),
            _ => spec.with_workload(Workload::Trace {
                flows: vec![SizedFlow::new(0, NodeId(2), NodeId(0), wl_bytes, 10.5)],
            }),
        };
        if out_of_band {
            spec.becn_transport = BecnTransport::OutOfBand;
        }
        let bytes = spec.canonical_bytes();
        let back: RunSpec = serde_json::from_str(&bytes).expect("canonical bytes parse");
        prop_assert_eq!(&back, &spec, "roundtrip changed the spec");
        prop_assert_eq!(back.canonical_bytes(), bytes, "re-serialization is not stable");
        prop_assert_eq!(back.cache_key(), spec.cache_key());
    }
}
