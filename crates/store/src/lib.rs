//! # gef-store
//!
//! Crash-safe, content-addressed artifact store for GEF models and
//! derived artifacts: trained forests (binary `GFB1` + LightGBM-style
//! text, side by side) and cached explanations keyed by
//! `(model digest, config digest)`. Every artifact is addressed by
//! the 64-bit content digest the flight-recorder/provenance layer
//! already stamps on it (`Forest::content_digest`,
//! `GefConfig::content_digest`), so a name is never trusted — bytes
//! are re-verified against their address on **every** load.
//!
//! ## Durability contract
//!
//! * **Atomic publish** — artifacts are staged in `tmp/`, fsynced, and
//!   `rename(2)`d into place; readers never observe a half-written
//!   file under its final name. A crash mid-publish leaves only a
//!   stale temp file; failed publishes remove their own staging file
//!   and [`Store::open`] sweeps whatever a crash left in `tmp/`.
//! * **Verified loads** — binary artifacts carry per-section FNV
//!   checksums and a whole-file trailer ([`gef_forest::codec`]); after
//!   decode the forest's content digest must equal the address. Text
//!   artifacts are verified by a digest recompute, cached explanations
//!   by a checksummed envelope, and refs must hold a 16-hex digest.
//! * **Quarantine, never a panic** — a torn, truncated, or bit-flipped
//!   artifact is moved to `quarantine/` with a `.why.json` side-car
//!   (cause, detail, replayable fault schedule) and a
//!   [`Kind::Store`] recorder note; the load then *recovers* through
//!   the text fallback (re-publishing the binary form, self-healing)
//!   or returns a typed [`StoreError`]. Corrupt bytes are never
//!   served.
//! * **Bounded MRU cache** — decoded forests are cached up to
//!   `GEF_STORE_CACHE_MB` ([`cache::MruCache`]) with hit/miss/evict
//!   counters surfaced through `GET /models` in gef-serve.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   forests/<digest16>.gfb       binary model (primary cold-load path)
//!   forests/<digest16>.txt       LightGBM-style text (fallback + interchange)
//!   explanations/<model16>-<config16>.json   explanation JSON in a GEFE envelope
//!   refs/<name>                  human name -> digest16 (atomic replace)
//!   quarantine/                  corrupt artifacts + .why.json side-cars
//!   tmp/                         publish staging (crash debris, swept at open)
//! ```
//!
//! ## Fault injection
//!
//! Four disk-fault sites run through the `gef_trace::fault` registry
//! (compiled to constant `false` without the `fault-injection`
//! feature): [`TORN_WRITE`], [`BIT_FLIP`], [`ENOSPC`] at publish and
//! [`TRUNCATE`] at read. The `xp_store` harness sweeps seeded
//! schedules over all four and asserts the contract above holds with
//! zero violations.
//!
//! [`Kind::Store`]: gef_trace::recorder::Kind::Store

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;

pub use cache::{CacheStats, MruCache};

use gef_forest::{codec, io as forest_io, Forest};
use gef_trace::hash::{fnv1a_bytes, to_hex};
use gef_trace::recorder::{self, Kind};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Publish-time fault: the staged file receives only half its bytes
/// (and no fsync) before the rename — a torn artifact under its final
/// name, exactly what a crash between write and flush produces.
pub const TORN_WRITE: &str = "store.torn_write";
/// Publish-time fault: one bit of the staged payload is flipped —
/// silent media corruption.
pub const BIT_FLIP: &str = "store.bit_flip";
/// Read-time fault: the read buffer is cut to half its length — a
/// truncated artifact (lost tail).
pub const TRUNCATE: &str = "store.truncate";
/// Publish-time fault: the write fails with an injected out-of-space
/// error; nothing reaches the final name.
pub const ENOSPC: &str = "store.enospc";

/// Envelope magic for cached explanations.
const ENVELOPE_MAGIC: &[u8; 4] = b"GEFE";
const ENVELOPE_VERSION: u32 = 1;

/// Typed store failure. Every variant is a *contained* outcome: the
/// offending artifact (if any) has already been quarantined, nothing
/// corrupt was returned, and the caller can fall back to re-fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No artifact exists at the requested address.
    NotFound {
        /// What was looked up (address or ref name).
        what: String,
    },
    /// A filesystem operation failed (includes injected ENOSPC).
    Io {
        /// The operation (`"write"`, `"read"`, `"rename"`, …).
        op: &'static str,
        /// OS-level detail.
        detail: String,
    },
    /// Every on-disk copy of the artifact failed verification; all
    /// corrupt copies are now in `quarantine/`.
    Corrupt {
        /// Address of the artifact.
        artifact: String,
        /// What the last verification attempt saw.
        detail: String,
    },
    /// A ref name outside `[A-Za-z0-9._-]{1,64}` (or starting with a
    /// dot) was rejected before touching the filesystem.
    InvalidName {
        /// The offending name.
        name: String,
    },
}

impl StoreError {
    /// Stable snake_case cause label for incident dumps and telemetry.
    pub fn cause_label(&self) -> &'static str {
        match self {
            StoreError::NotFound { .. } => "store_not_found",
            StoreError::Io { .. } => "store_io",
            StoreError::Corrupt { .. } => "store_corrupt",
            StoreError::InvalidName { .. } => "store_invalid_name",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound { what } => write!(f, "artifact not found: {what}"),
            StoreError::Io { op, detail } => write!(f, "store {op} failed: {detail}"),
            StoreError::Corrupt { artifact, detail } => {
                write!(f, "artifact {artifact} corrupt (quarantined): {detail}")
            }
            StoreError::InvalidName { name } => write!(f, "invalid ref name: {name:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Where a successful forest load came from — surfaced in `/models`
/// and the `xp_store` report so recovery paths are observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// Served from the MRU cache (already verified at insert).
    Cache,
    /// Decoded and digest-verified from the binary `GFB1` artifact.
    Binary,
    /// Binary copy was missing or quarantined; recovered from the text
    /// artifact (which then re-published a fresh binary — self-heal).
    TextFallback,
}

impl LoadSource {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            LoadSource::Cache => "cache",
            LoadSource::Binary => "binary",
            LoadSource::TextFallback => "text_fallback",
        }
    }
}

/// A digest-verified forest plus the path that produced it.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The verified model.
    pub forest: Arc<Forest>,
    /// Which load path served it.
    pub source: LoadSource,
}

/// The content-addressed artifact store. Cheap to share behind an
/// `Arc`; all methods take `&self`.
pub struct Store {
    root: PathBuf,
    cache: MruCache,
    tmp_seq: AtomicU64,
}

/// Default cache budget when `GEF_STORE_CACHE_MB` is unset.
pub const DEFAULT_CACHE_MB: u64 = 64;

fn io_err(op: &'static str, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        detail: e.to_string(),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`, with the
    /// cache budget from `GEF_STORE_CACHE_MB` (default
    /// [`DEFAULT_CACHE_MB`]; 0 disables caching).
    pub fn open(root: impl AsRef<Path>) -> Result<Store> {
        let mb = gef_trace::env::u64_var_or("GEF_STORE_CACHE_MB", DEFAULT_CACHE_MB);
        Store::open_with_cache(root, mb.saturating_mul(1024 * 1024))
    }

    /// Open with an explicit cache byte budget (harness/test entry).
    pub fn open_with_cache(root: impl AsRef<Path>, cache_bytes: u64) -> Result<Store> {
        let root = root.as_ref().to_path_buf();
        for sub in ["forests", "explanations", "refs", "quarantine", "tmp"] {
            fs::create_dir_all(root.join(sub)).map_err(|e| io_err("mkdir", &e))?;
        }
        // Sweep publish-staging debris left by crashes mid-publish:
        // anything still under tmp/ was never renamed into place and
        // can only accumulate otherwise.
        if let Ok(rd) = fs::read_dir(root.join("tmp")) {
            let mut swept = 0u64;
            for entry in rd.flatten() {
                if fs::remove_file(entry.path()).is_ok() {
                    swept += 1;
                }
            }
            if swept > 0 {
                recorder::note(Kind::Store, "store.tmp_swept", &format!("{swept} file(s)"));
            }
        }
        Ok(Store {
            root,
            cache: MruCache::new(cache_bytes),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cache effectiveness snapshot (for `GET /models` and harnesses).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ------------------------------------------------------------------
    // Atomic publish plumbing
    // ------------------------------------------------------------------

    /// Write `bytes` to `final_path` atomically: stage under `tmp/`,
    /// fsync, rename. The three publish-time fault sites act here.
    fn write_atomic(&self, final_path: &Path, bytes: &[u8]) -> Result<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let stem = final_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        let tmp = self.root.join("tmp").join(format!("{stem}.{seq}.tmp"));

        if gef_trace::fault::fires(ENOSPC) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io {
                op: "write",
                detail: "injected ENOSPC: no space left on device".to_string(),
            });
        }

        let mut data = std::borrow::Cow::Borrowed(bytes);
        if gef_trace::fault::fires(BIT_FLIP) && !bytes.is_empty() {
            let mut owned = bytes.to_vec();
            let pos = owned.len() / 3;
            owned[pos] ^= 0x08;
            data = std::borrow::Cow::Owned(owned);
        }
        let torn = gef_trace::fault::fires(TORN_WRITE);
        let write_len = if torn { data.len() / 2 } else { data.len() };

        let staged = (|| {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &e))?;
            f.write_all(&data[..write_len])
                .map_err(|e| io_err("write", &e))?;
            if !torn {
                // A torn write models a crash before the flush completed.
                f.sync_all().map_err(|e| io_err("fsync", &e))?;
            }
            drop(f);
            fs::rename(&tmp, final_path).map_err(|e| io_err("rename", &e))
        })();
        if let Err(e) = staged {
            // Don't leave staging debris behind on a failed publish
            // (ENOSPC, permission trouble): tmp/ growth must stay
            // bounded. Crash debris is swept at the next open.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Make the rename itself durable; failure here only widens the
        // crash window, it cannot corrupt, so best-effort.
        if let Some(dir) = final_path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read an artifact; the [`TRUNCATE`] read-fault acts here.
    fn read_artifact(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(mut bytes) => {
                if gef_trace::fault::fires(TRUNCATE) {
                    bytes.truncate(bytes.len() / 2);
                }
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &e)),
        }
    }

    // ------------------------------------------------------------------
    // Quarantine
    // ------------------------------------------------------------------

    /// Move a failed artifact into `quarantine/`, write its `.why.json`
    /// side-car (cause, detail, replayable fault schedule), and leave a
    /// recorder note. Never fails the caller: quarantine is best-effort
    /// containment on a path that is already erroring.
    fn quarantine(&self, path: &Path, cause: &str, detail: &str) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "artifact".to_string());
        let qdir = self.root.join("quarantine");
        let mut dest = qdir.join(&name);
        let mut n = 1;
        while dest.exists() {
            dest = qdir.join(format!("{name}.{n}"));
            n += 1;
        }
        if fs::rename(path, &dest).is_err() {
            // Cross-device or permission trouble: fall back to
            // copy+remove so the corrupt bytes still leave the hot path.
            if fs::copy(path, &dest).is_ok() {
                let _ = fs::remove_file(path);
            }
        }

        let mut w = gef_trace::json::JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.value_str("gef-store/quarantine/v1");
        w.key("cause");
        w.value_str(cause);
        w.key("detail");
        w.value_str(detail);
        w.key("artifact");
        w.value_str(&name);
        w.key("quarantined_as");
        w.value_str(
            &dest
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        );
        w.key("ts_unix_ms");
        w.value_u64(unix_ms());
        w.key("replay_faults");
        w.value_str(&gef_trace::fault::armed_spec());
        w.end_object();
        let side_car = qdir.join(format!(
            "{}.why.json",
            dest.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        ));
        let _ = fs::write(side_car, w.finish());

        gef_trace::global().add("store.quarantined", 1);
        recorder::note(Kind::Store, "store.quarantine", &format!("{name}: {cause}"));
    }

    /// Names of quarantined artifacts (side-cars excluded), sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Ok(rd) = fs::read_dir(self.root.join("quarantine")) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.ends_with(".why.json") {
                    out.push(name);
                }
            }
        }
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Forests
    // ------------------------------------------------------------------

    fn binary_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("forests")
            .join(format!("{}.gfb", to_hex(digest)))
    }

    fn text_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("forests")
            .join(format!("{}.txt", to_hex(digest)))
    }

    /// Publish a forest under its content digest: binary `GFB1` first
    /// (the cold-load path), then the text form (fallback +
    /// interchange). Each file lands atomically; a crash between the
    /// two leaves a loadable binary and no text, which the load path
    /// tolerates. Returns the digest (the artifact's address).
    pub fn publish_forest(&self, forest: &Forest) -> Result<u64> {
        let digest = forest.content_digest();
        self.write_atomic(&self.binary_path(digest), &codec::to_binary(forest))?;
        self.write_atomic(
            &self.text_path(digest),
            forest_io::to_text(forest).as_bytes(),
        )?;
        gef_trace::global().add("store.publish", 1);
        Ok(digest)
    }

    /// Load a forest by content digest, verified end to end.
    ///
    /// Path: MRU cache → binary artifact (checksums + digest check) →
    /// text artifact (parse + digest check, then re-publish the binary
    /// — self-heal). Any copy that fails verification is quarantined
    /// with a side-car; only if *every* copy fails does this return
    /// [`StoreError::Corrupt`] (or [`StoreError::NotFound`] when no
    /// copy exists at all). Corrupt bytes are never returned.
    pub fn load_forest(&self, digest: u64) -> Result<Loaded> {
        if let Some(forest) = self.cache.get(digest) {
            return Ok(Loaded {
                forest,
                source: LoadSource::Cache,
            });
        }

        let hex = to_hex(digest);
        let bin_path = self.binary_path(digest);
        let mut last_detail: Option<String> = None;
        let mut saw_copy = false;

        if let Some(bytes) = self.read_artifact(&bin_path)? {
            saw_copy = true;
            match codec::from_binary(&bytes) {
                Ok(forest) if forest.content_digest() == digest => {
                    let forest = Arc::new(forest);
                    self.cache
                        .insert(digest, Arc::clone(&forest), bytes.len() as u64);
                    return Ok(Loaded {
                        forest,
                        source: LoadSource::Binary,
                    });
                }
                Ok(forest) => {
                    let detail = format!(
                        "digest mismatch: decoded {} at address {hex}",
                        to_hex(forest.content_digest())
                    );
                    self.quarantine(&bin_path, "digest_mismatch", &detail);
                    last_detail = Some(detail);
                }
                Err(e) => {
                    let detail = e.to_string();
                    self.quarantine(&bin_path, "binary_decode", &detail);
                    last_detail = Some(detail);
                }
            }
        }

        // Fallback: the text artifact.
        let txt_path = self.text_path(digest);
        if let Some(bytes) = self.read_artifact(&txt_path)? {
            saw_copy = true;
            let parsed = std::str::from_utf8(&bytes)
                .map_err(|e| format!("not UTF-8: {e}"))
                .and_then(|s| forest_io::from_text(s).map_err(|e| e.to_string()));
            match parsed {
                Ok(forest) if forest.content_digest() == digest => {
                    // Self-heal: re-publish the binary form so the next
                    // cold load is fast again. Best-effort — publish
                    // faults may corrupt it again; the next load will
                    // re-quarantine.
                    let bin = codec::to_binary(&forest);
                    let bin_len = bin.len() as u64;
                    let _ = self.write_atomic(&bin_path, &bin);
                    recorder::note(Kind::Store, "store.self_heal", &hex);
                    gef_trace::global().add("store.text_fallback", 1);
                    let forest = Arc::new(forest);
                    // Cache capacity is accounted in binary-artifact
                    // bytes regardless of which path loaded the forest.
                    self.cache.insert(digest, Arc::clone(&forest), bin_len);
                    return Ok(Loaded {
                        forest,
                        source: LoadSource::TextFallback,
                    });
                }
                Ok(forest) => {
                    let detail = format!(
                        "digest mismatch: parsed {} at address {hex}",
                        to_hex(forest.content_digest())
                    );
                    self.quarantine(&txt_path, "digest_mismatch", &detail);
                    last_detail = Some(detail);
                }
                Err(detail) => {
                    self.quarantine(&txt_path, "text_parse", &detail);
                    last_detail = Some(detail);
                }
            }
        }

        if saw_copy {
            Err(StoreError::Corrupt {
                artifact: hex,
                detail: last_detail.unwrap_or_else(|| "all copies failed verification".into()),
            })
        } else {
            Err(StoreError::NotFound { what: hex })
        }
    }

    // ------------------------------------------------------------------
    // Refs (human names)
    // ------------------------------------------------------------------

    /// The file of ref `name`, once the name is checked.
    fn ref_path(&self, name: &str) -> Result<PathBuf> {
        if !valid_name(name) {
            return Err(StoreError::InvalidName {
                name: name.to_string(),
            });
        }
        Ok(self.root.join("refs").join(name))
    }

    /// Point `name` at a forest digest (atomic replace).
    pub fn tag(&self, name: &str, digest: u64) -> Result<()> {
        self.write_atomic(&self.ref_path(name)?, to_hex(digest).as_bytes())
    }

    /// Read ref `name`: a valid name whose file holds exactly 16 hex
    /// digits. A malformed ref is reported as [`StoreError::Corrupt`]
    /// but left in place; [`Store::resolve`] quarantines it.
    fn read_ref(&self, name: &str) -> Result<u64> {
        let Some(bytes) = self.read_artifact(&self.ref_path(name)?)? else {
            return Err(StoreError::NotFound {
                what: format!("ref {name}"),
            });
        };
        let text = String::from_utf8_lossy(&bytes);
        let hex = text.trim();
        match u64::from_str_radix(hex, 16) {
            Ok(d) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(d),
            _ => Err(StoreError::Corrupt {
                artifact: format!("ref {name}"),
                detail: format!("ref does not hold a 16-hex digest: {hex:?}"),
            }),
        }
    }

    /// Resolve a ref name to its digest. A malformed ref is quarantined.
    pub fn resolve(&self, name: &str) -> Result<u64> {
        let read = self.read_ref(name);
        if let Err(StoreError::Corrupt { detail, .. }) = &read {
            self.quarantine(&self.root.join("refs").join(name), "ref_malformed", detail);
        }
        read
    }

    /// Resolve and load in one step.
    pub fn load_named(&self, name: &str) -> Result<Loaded> {
        let digest = self.resolve(name)?;
        self.load_forest(digest)
    }

    /// All `(name, digest)` refs, name-sorted. Every ref that
    /// [`Store::resolve`] would reject is skipped here (and surfaced
    /// when resolved individually).
    pub fn refs(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        if let Ok(rd) = fs::read_dir(self.root.join("refs")) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Ok(d) = self.read_ref(&name) {
                    out.push((name, d));
                }
            }
        }
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Cached explanations (GEFE envelope)
    // ------------------------------------------------------------------

    fn seal(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(ENVELOPE_MAGIC);
        out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_bytes(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn unseal(bytes: &[u8]) -> std::result::Result<Vec<u8>, String> {
        if bytes.len() < 24 {
            return Err(format!("envelope truncated: {} bytes", bytes.len()));
        }
        if &bytes[..4] != ENVELOPE_MAGIC {
            return Err("bad envelope magic".to_string());
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != ENVELOPE_VERSION {
            return Err(format!("unsupported envelope version {version}"));
        }
        let len = u64::from_le_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
        ]) as usize;
        let sum = u64::from_le_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
        ]);
        let payload = &bytes[24..];
        if payload.len() != len {
            return Err(format!(
                "payload length mismatch: header says {len}, found {}",
                payload.len()
            ));
        }
        if fnv1a_bytes(payload) != sum {
            return Err("payload checksum mismatch".to_string());
        }
        Ok(payload.to_vec())
    }

    fn get_sealed(&self, path: &Path, what: &str) -> Result<Option<Vec<u8>>> {
        let Some(bytes) = self.read_artifact(path)? else {
            return Ok(None);
        };
        match Store::unseal(&bytes) {
            Ok(payload) => Ok(Some(payload)),
            Err(detail) => {
                self.quarantine(path, "envelope", &detail);
                Err(StoreError::Corrupt {
                    artifact: what.to_string(),
                    detail,
                })
            }
        }
    }

    fn explanation_path(&self, model: u64, config: u64) -> PathBuf {
        self.root
            .join("explanations")
            .join(format!("{}-{}.json", to_hex(model), to_hex(config)))
    }

    /// Cache an explanation payload (JSON bytes) keyed by
    /// `(model digest, config digest)`.
    pub fn put_explanation(&self, model: u64, config: u64, payload: &[u8]) -> Result<()> {
        self.write_atomic(&self.explanation_path(model, config), &Store::seal(payload))
    }

    /// Fetch a cached explanation. `Ok(None)` when absent; corruption
    /// quarantines the artifact and returns [`StoreError::Corrupt`]
    /// (callers recompute — a cache must never fail a run).
    pub fn get_explanation(&self, model: u64, config: u64) -> Result<Option<Vec<u8>>> {
        let path = self.explanation_path(model, config);
        let what = format!("explanation {}-{}", to_hex(model), to_hex(config));
        self.get_sealed(&path, &what)
    }

    /// Quarantine a cached explanation whose *payload* failed
    /// caller-side validation (JSON parse, provenance-digest mismatch)
    /// even though its envelope checksum held. Best-effort, like all
    /// quarantining: the caller is already recomputing.
    pub fn quarantine_explanation(&self, model: u64, config: u64, cause: &str, detail: &str) {
        let path = self.explanation_path(model, config);
        if path.exists() {
            self.quarantine(&path, cause, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gef_forest::{GbdtParams, GbdtTrainer};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gef-store-test-{tag}-{}-{}",
            std::process::id(),
            unix_ms()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn train() -> Forest {
        let xs: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i % 13) as f64 / 13.0, (i % 5) as f64 / 5.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1]).collect();
        GbdtTrainer::new(GbdtParams {
            num_trees: 5,
            num_leaves: 4,
            min_data_in_leaf: 5,
            ..Default::default()
        })
        .fit(&xs, &ys)
        .unwrap()
    }

    #[test]
    fn publish_then_load_verifies_and_caches() {
        let dir = tmpdir("roundtrip");
        let store = Store::open_with_cache(&dir, 1 << 20).unwrap();
        let forest = train();
        let digest = store.publish_forest(&forest).unwrap();
        let first = store.load_forest(digest).unwrap();
        assert_eq!(first.source, LoadSource::Binary);
        assert_eq!(first.forest.content_digest(), digest);
        let second = store.load_forest(digest).unwrap();
        assert_eq!(second.source, LoadSource::Cache);
        assert_eq!(store.cache_stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_binary_falls_back_to_text_and_self_heals() {
        let dir = tmpdir("heal");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        let digest = store.publish_forest(&train()).unwrap();
        // Flip a byte mid-file: the checksum must catch it.
        let bin = store.binary_path(digest);
        let mut bytes = fs::read(&bin).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&bin, &bytes).unwrap();

        let loaded = store.load_forest(digest).unwrap();
        assert_eq!(loaded.source, LoadSource::TextFallback);
        assert_eq!(loaded.forest.content_digest(), digest);
        // The corrupt binary is quarantined with a side-car…
        let q = store.quarantined();
        assert_eq!(q.len(), 1, "{q:?}");
        assert!(q[0].ends_with(".gfb"));
        assert!(dir
            .join("quarantine")
            .join(format!("{}.why.json", q[0]))
            .exists());
        // …and the self-healed binary serves the next load directly.
        let again = store.load_forest(digest).unwrap();
        assert_eq!(again.source, LoadSource::Binary);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_copies_corrupt_is_typed_with_both_quarantined() {
        let dir = tmpdir("corrupt2");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        let digest = store.publish_forest(&train()).unwrap();
        fs::write(store.binary_path(digest), b"garbage").unwrap();
        fs::write(store.text_path(digest), b"also garbage").unwrap();
        let err = store.load_forest(digest).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        assert_eq!(err.cause_label(), "store_corrupt");
        assert_eq!(store.quarantined().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_artifact_is_not_found() {
        let dir = tmpdir("missing");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        let err = store.load_forest(0xdead_beef).unwrap_err();
        assert!(matches!(err, StoreError::NotFound { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refs_round_trip_and_reject_bad_names() {
        let dir = tmpdir("refs");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        let digest = store.publish_forest(&train()).unwrap();
        store.tag("paper-forest", digest).unwrap();
        assert_eq!(store.resolve("paper-forest").unwrap(), digest);
        assert_eq!(store.refs(), vec![("paper-forest".to_string(), digest)]);
        assert_eq!(
            store
                .load_named("paper-forest")
                .unwrap()
                .forest
                .content_digest(),
            digest
        );
        for bad in ["", ".hidden", "a/b", "name with space", &"x".repeat(65)] {
            assert!(matches!(
                store.tag(bad, digest),
                Err(StoreError::InvalidName { .. })
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_ref_is_quarantined() {
        let dir = tmpdir("badref");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        store.tag("good", 7).unwrap();
        let refs = dir.join("refs");
        // Not hex, valid hex of the wrong length, a signed number, and a
        // file whose name no ref can have: `refs` lists none of them.
        fs::write(refs.join("broken"), b"not-a-digest").unwrap();
        fs::write(refs.join("short"), b"abc").unwrap();
        fs::write(refs.join("signed"), b"+123456789abcdef").unwrap();
        fs::write(refs.join(".hidden"), to_hex(7)).unwrap();
        assert_eq!(store.refs(), vec![("good".to_string(), 7)]);
        for name in ["broken", "short", "signed"] {
            let err = store.resolve(name).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{name}: {err:?}");
        }
        assert!(matches!(
            store.resolve(".hidden"),
            Err(StoreError::InvalidName { .. })
        ));
        assert_eq!(store.quarantined(), vec!["broken", "short", "signed"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explanation_envelope_round_trips_and_detects_corruption() {
        let dir = tmpdir("expl");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        assert_eq!(store.get_explanation(1, 2).unwrap(), None);
        let payload = br#"{"terms":[1.0,2.0]}"#;
        store.put_explanation(1, 2, payload).unwrap();
        assert_eq!(store.get_explanation(1, 2).unwrap().unwrap(), payload);
        // Corrupt one payload byte inside the envelope.
        let path = store.explanation_path(1, 2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let err = store.get_explanation(1, 2).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert_eq!(store.quarantined().len(), 1);
        // Quarantined means gone from the hot path: next get is a miss.
        assert_eq!(store.get_explanation(1, 2).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_debris_in_tmp_never_surfaces_and_is_swept_at_open() {
        let dir = tmpdir("debris");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        // Simulated crash mid-publish: a stale temp file only.
        let debris = dir.join("tmp").join("x.gfb.0.tmp");
        fs::write(&debris, b"half").unwrap();
        assert!(matches!(
            store.load_forest(1).unwrap_err(),
            StoreError::NotFound { .. }
        ));
        // Reopening the store sweeps the debris: tmp/ growth is
        // bounded across crash loops.
        let _reopened = Store::open_with_cache(&dir, 0).unwrap();
        assert!(!debris.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_publish_leaves_no_tmp_debris() {
        let dir = tmpdir("nodebris");
        let store = Store::open_with_cache(&dir, 0).unwrap();
        // Rename onto a path whose parent is a *file*: create/write
        // succeed, rename fails — the staged tmp file must be cleaned.
        fs::write(dir.join("blocker"), b"").unwrap();
        let err = store
            .write_atomic(&dir.join("blocker").join("x"), b"payload")
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Io { op: "rename", .. }),
            "{err:?}"
        );
        let leftover: Vec<_> = fs::read_dir(dir.join("tmp"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert!(leftover.is_empty(), "{leftover:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
