//! Content-addressed result cache: `results/cache/<sha256>.json`.
//!
//! Every entry is a self-describing [`CacheEntry`] — salt, key, the
//! full spec and the report — so loads can *verify* instead of trust:
//! a hit requires the stored salt to equal [`ENGINE_SALT`], the stored
//! key to equal the requested key and the stored spec to equal the
//! requested spec (a belt-and-braces guard against hash collisions and
//! hand-edited files). Anything that fails to parse or verify is
//! logged to stderr and treated as a miss; the subsequent store
//! overwrites it. `gc` prunes what no load can hit: stale salts,
//! orphans whose spec no longer hashes to their key, and corrupt
//! entries. Writes go through a tempfile in the cache directory
//! followed by an atomic rename, so an interrupted sweep can leave a
//! stray `*.tmp*` file but never a torn `<key>.json`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ccfit_metrics::SimReport;
use serde::{Deserialize, Serialize};

use crate::spec::{RunSpec, ENGINE_SALT};

/// Default cache location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// The on-disk format of one cached run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Engine salt the entry was minted under.
    pub salt: String,
    /// The entry's own cache key (must match its filename stem).
    pub key: String,
    /// The spec that produced the report.
    pub spec: RunSpec,
    /// The frozen simulation report.
    pub report: SimReport,
}

/// A result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    enabled: bool,
}

/// What `gc` did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Entries a load can still hit: their salt matches
    /// [`ENGINE_SALT`] and their spec hashes to their key and file name.
    pub kept: usize,
    /// Entries removed because no load can hit them: a stale salt, or a
    /// spec that no longer hashes to the stored key or the file name
    /// (an orphan left by a spec type that changed shape under the same
    /// salt).
    pub stale: usize,
    /// Unparseable entries and leftover tempfiles removed.
    pub corrupt: usize,
}

impl Cache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Cache {
            dir: dir.into(),
            enabled: true,
        }
    }

    /// The default on-disk cache (`results/cache`).
    pub fn default_dir() -> Self {
        Cache::new(DEFAULT_CACHE_DIR)
    }

    /// A cache that never hits and never stores (`--no-cache`).
    pub fn disabled() -> Self {
        Cache {
            dir: PathBuf::new(),
            enabled: false,
        }
    }

    /// Whether lookups/stores do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Look up `spec` under `key`. Returns the cached report on a
    /// verified hit; corrupt, stale or mismatched entries are reported
    /// to stderr and treated as a miss.
    pub fn load(&self, key: &str, spec: &RunSpec) -> Option<SimReport> {
        if !self.enabled {
            return None;
        }
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!("cache: unreadable {} ({e}); re-running", path.display());
                return None;
            }
        };
        let entry: CacheEntry = match serde_json::from_str(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cache: corrupt entry {} ({e}); re-running", path.display());
                return None;
            }
        };
        if entry.salt != ENGINE_SALT {
            eprintln!(
                "cache: stale salt {:?} (want {ENGINE_SALT:?}) in {}; re-running",
                entry.salt,
                path.display()
            );
            return None;
        }
        if entry.key != key || &entry.spec != spec {
            eprintln!(
                "cache: entry {} does not match the requested spec; re-running",
                path.display()
            );
            return None;
        }
        Some(entry.report)
    }

    /// Store a run atomically (tempfile + rename). Errors are reported
    /// to stderr but never fatal — a failed store just means a future
    /// miss.
    pub fn store(&self, key: &str, spec: &RunSpec, report: &SimReport) {
        if !self.enabled {
            return;
        }
        let entry = CacheEntry {
            salt: ENGINE_SALT.to_string(),
            key: key.to_string(),
            spec: spec.clone(),
            report: report.clone(),
        };
        if let Err(e) = self.store_entry(key, &entry) {
            eprintln!("cache: failed to store {key}: {e}");
        }
    }

    fn store_entry(&self, key: &str, entry: &CacheEntry) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let json = serde_json::to_string(entry).expect("CacheEntry serializes infallibly");
        // The tempfile lives in the cache directory so the rename stays
        // within one filesystem (atomic on POSIX); `n` keeps two of the
        // runner's threads that store the same key apart.
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let tmp = self.dir.join(format!(".{key}.tmp.{pid}.{n}"));
        std::fs::write(&tmp, json)?;
        let result = std::fs::rename(&tmp, self.entry_path(key));
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    /// Prune entries no load can hit — a salt other than
    /// [`ENGINE_SALT`], or a spec whose re-derived key differs from the
    /// stored key or the file stem — unparseable entries and abandoned
    /// tempfiles.
    pub fn gc(&self) -> std::io::Result<GcStats> {
        let mut stats = GcStats::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(stats),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.ends_with(".json") {
                // Abandoned `.<key>.tmp.<pid>.<n>` from an interrupted sweep.
                if name.contains(".tmp.") {
                    std::fs::remove_file(&path)?;
                    stats.corrupt += 1;
                }
                continue;
            }
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| serde_json::from_str::<CacheEntry>(&t).ok());
            let Some(e) = parsed else {
                std::fs::remove_file(&path)?;
                stats.corrupt += 1;
                continue;
            };
            let stem = &name[..name.len() - ".json".len()];
            if e.salt == ENGINE_SALT && e.key == stem && e.spec.cache_key() == e.key {
                stats.kept += 1;
            } else {
                std::fs::remove_file(&path)?;
                stats.stale += 1;
            }
        }
        Ok(stats)
    }
}

/// Shared `--no-cache` / `--cache-dir <dir>` CLI parsing, so
/// `ccfit-sweep run` and `ccfit-sweep gc` spell caching the same way.
pub fn cache_from_args(args: &[String]) -> Cache {
    if args.iter().any(|a| a == "--no-cache") {
        return Cache::disabled();
    }
    let dir = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    Cache::new(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit::{ConfigId, Mechanism};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccfit-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_spec() -> RunSpec {
        RunSpec::new(
            ConfigId::Config1Case1 { scale: 0.01 },
            Mechanism::OneQ,
            1,
            10_000.0,
        )
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let cache = Cache::new(&dir);
        let spec = small_spec();
        let key = spec.cache_key();
        assert_eq!(cache.load(&key, &spec), None);
        let report = spec.execute();
        cache.store(&key, &spec, &report);
        assert_eq!(cache.load(&key, &spec).as_ref(), Some(&report));
        // No stray tempfiles.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                !e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .unwrap()
                    .ends_with(".json")
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_misses_not_panics() {
        let dir = tmpdir("corrupt");
        let cache = Cache::new(&dir);
        let spec = small_spec();
        let key = spec.cache_key();
        std::fs::create_dir_all(&dir).unwrap();
        // Truncated JSON.
        std::fs::write(dir.join(format!("{key}.json")), "{\"salt\": \"ccf").unwrap();
        assert_eq!(cache.load(&key, &spec), None);
        // Valid JSON, wrong shape.
        std::fs::write(dir.join(format!("{key}.json")), "[1,2,3]").unwrap();
        assert_eq!(cache.load(&key, &spec), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_salt_is_a_miss_and_gc_prunes_it() {
        let dir = tmpdir("salt");
        let cache = Cache::new(&dir);
        let spec = small_spec();
        let key = spec.cache_key();
        let report = spec.execute();
        cache.store(&key, &spec, &report);
        // Forge a stale-salt sibling entry.
        let forged_key = "0".repeat(64);
        let entry = CacheEntry {
            salt: "ccfit-engine/v0-ancient".into(),
            key: forged_key.clone(),
            spec: spec.clone(),
            report: report.clone(),
        };
        cache.store_entry(&forged_key, &entry).unwrap();
        assert_eq!(cache.load(&forged_key, &spec), None);
        // And a corrupt one plus an abandoned tempfile.
        std::fs::write(dir.join(format!("{}.json", "1".repeat(64))), "not json").unwrap();
        std::fs::write(dir.join(".deadbeef.tmp.12345"), "partial").unwrap();
        // Current-salt entries whose specs name a since-deleted mechanism
        // or network no longer parse: gc counts them corrupt.
        let good = std::fs::read_to_string(dir.join(format!("{key}.json"))).unwrap();
        let deleted = [
            ("2", "\"OneQ\"", "{\"Dbbm\":{\"num_queues\":4}}"),
            (
                "3",
                "{\"Config1Case1\":{\"scale\":0.01}}",
                "{\"UniformMesh\":{\"width\":4,\"height\":4,\"load\":0.5,\"duration_ns\":600000.0}}",
            ),
        ];
        for (digit, from, to) in deleted {
            assert!(good.contains(from), "{from} not in {good}");
            let path = dir.join(format!("{}.json", digit.repeat(64)));
            std::fs::write(path, good.replacen(from, to, 1)).unwrap();
        }
        // An orphan: a current-salt entry whose stored spec changed (here
        // its seed) but kept its old key and file name, so no spec hashes
        // to where it lies.
        let moved = RunSpec {
            seed: 2,
            ..spec.clone()
        };
        let moved_key = moved.cache_key();
        let orphan = CacheEntry {
            salt: ENGINE_SALT.to_string(),
            key: moved_key.clone(),
            spec: RunSpec {
                seed: 3,
                ..spec.clone()
            },
            report: report.clone(),
        };
        cache.store_entry(&moved_key, &orphan).unwrap();
        assert_eq!(cache.load(&moved_key, &moved), None);
        // An entry as written before the report lost its `gauges` block:
        // the unknown field is ignored, so it still parses, hits and stays.
        let older = RunSpec {
            seed: 4,
            ..spec.clone()
        };
        let older_key = older.cache_key();
        cache.store(&older_key, &older, &report);
        let path = cache.entry_path(&older_key);
        let text = std::fs::read_to_string(&path).unwrap();
        let field = r#","reception_capacity_bytes_per_ns""#;
        assert!(text.contains(field), "{field} not in {text}");
        let gauges = r#","gauges":{"cfqs_allocated":{"bin_ns":20000.0,"bins":[0.0,1.0]},"cfqs_allocated_samples":{"bin_ns":20000.0,"bins":[4.0,4.0]}}"#;
        std::fs::write(&path, text.replacen(field, &format!("{gauges}{field}"), 1)).unwrap();
        assert_eq!(cache.load(&older_key, &older).as_ref(), Some(&report));
        let stats = cache.gc().unwrap();
        assert_eq!(
            stats,
            GcStats {
                kept: 2,
                stale: 2,
                corrupt: 4
            }
        );
        // The good entries survived.
        assert_eq!(cache.load(&key, &spec).as_ref(), Some(&report));
        assert_eq!(cache.load(&older_key, &older).as_ref(), Some(&report));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Threads of one process that store the same key (a matrix that
    /// names one run twice, `seeds = [1, 1]`) each write their own
    /// tempfile, so every rename finds its file and the entry is whole.
    /// A stress test: the barrier starts each round's four stores
    /// together; with one tempfile name per process most rounds lose a
    /// rename to `NotFound`.
    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let dir = tmpdir("concurrent");
        let cache = Cache::new(&dir);
        let spec = small_spec();
        let key = spec.cache_key();
        let report = spec.execute();
        let entry = CacheEntry {
            salt: ENGINE_SALT.to_string(),
            key: key.clone(),
            spec: spec.clone(),
            report: report.clone(),
        };
        let round = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        round.wait();
                        cache.store_entry(&key, &entry).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.load(&key, &spec).as_ref(), Some(&report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = Cache::disabled();
        let spec = small_spec();
        let key = spec.cache_key();
        let report = spec.execute();
        cache.store(&key, &spec, &report);
        assert_eq!(cache.load(&key, &spec), None);
    }

    #[test]
    fn cli_parsing() {
        let to_args = |s: &[&str]| -> Vec<String> { s.iter().map(|x| x.to_string()).collect() };
        assert!(!cache_from_args(&to_args(&["x", "--no-cache"])).is_enabled());
        let c = cache_from_args(&to_args(&["x", "--cache-dir", "/tmp/q"]));
        assert!(c.is_enabled());
        assert_eq!(c.dir(), Path::new("/tmp/q"));
        assert_eq!(
            cache_from_args(&to_args(&["x"])).dir(),
            Path::new(DEFAULT_CACHE_DIR)
        );
    }
}
