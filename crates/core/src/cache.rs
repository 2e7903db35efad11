//! Content-addressed trace and feature cache.
//!
//! Collecting one profiling trace means simulating an entire training run —
//! tens of thousands of scheduler slices — yet the result is a pure function
//! of its inputs: the GPU configuration, the victim's model and training
//! loop, the spy/slow-down/sampling configuration and the CUPTI session
//! shape. This module memoizes [`crate::trace::collect_trace`] on a stable
//! 64-bit key over exactly those inputs, and memoizes the derived
//! [`crate::dataset::counter_features`] matrices on the content of the
//! sample stream they came from.
//!
//! Three modes, selected by the `LEAKY_DNN_CACHE` environment variable:
//!
//! * `off` — every collection simulates from scratch (the pre-cache
//!   behaviour);
//! * `mem` (default) — traces are memoized for the lifetime of the process;
//! * `disk` — additionally persisted under `target/leaky-dnn-cache/`
//!   (override the directory with `LEAKY_DNN_CACHE_DIR`), so repeated bench
//!   and experiment runs skip collection entirely.
//!
//! Because the simulator is deterministic, a cache hit is *bitwise*
//! identical to a fresh collection — the disk codec round-trips every `f64`
//! through its bit pattern rather than decimal text, and
//! `tests/determinism.rs` asserts `off` vs `disk` end-to-end report
//! equality. Keys mix in schema/extractor version constants, so changing
//! either the trace layout or the feature definition invalidates old
//! entries instead of replaying them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use cupti_sim::CuptiSample;
use dnn_sim::TrainingSession;
use gpu_sim::{ContextId, CounterId, CounterValues, GpuConfig, KernelRecord};
use serde::{Serialize, Value};

use crate::dataset::counter_features;
use crate::trace::{CollectionConfig, RawTrace};

/// Bump when the [`RawTrace`] layout or collection semantics change.
pub const TRACE_SCHEMA_VERSION: u32 = 1;
/// Bump when [`counter_features`] changes (it is baked into cached feature
/// matrices).
pub const EXTRACTOR_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// mode
// ---------------------------------------------------------------------------

/// Cache behaviour, from `LEAKY_DNN_CACHE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Always recollect.
    Off,
    /// Memoize in-process.
    Mem,
    /// Memoize in-process and persist to disk.
    Disk,
}

impl CacheMode {
    /// Reads the mode from the environment (`off` / `mem` / `disk`,
    /// case-insensitive). Unset or unrecognized values mean [`CacheMode::Mem`].
    pub fn from_env() -> Self {
        match std::env::var("LEAKY_DNN_CACHE") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "0" | "none" => CacheMode::Off,
                "disk" => CacheMode::Disk,
                _ => CacheMode::Mem,
            },
            Err(_) => CacheMode::Mem,
        }
    }
}

fn cache_dir() -> PathBuf {
    match std::env::var("LEAKY_DNN_CACHE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("leaky-dnn-cache"),
    }
}

// ---------------------------------------------------------------------------
// keys: FNV-1a over a canonical serialization
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64-bit hasher. FNV is not cryptographic; it is stable
/// across platforms and Rust versions (unlike `DefaultHasher`), which is what
/// an on-disk cache key needs.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        KeyHasher {
            state: Self::OFFSET,
        }
    }

    /// Mixes raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Mixes a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `f64` by bit pattern (so `-0.0` and `0.0` differ, as do any
    /// two values the simulation could distinguish).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a serde value tree, canonically: every node is tagged so
    /// different shapes with equal leaves cannot collide.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_u64(0),
            Value::Bool(b) => {
                self.write_u64(1);
                self.write_u64(*b as u64);
            }
            Value::Number(n) => {
                self.write_u64(2);
                self.write_f64(*n);
            }
            Value::String(s) => {
                self.write_u64(3);
                self.write_str(s);
            }
            Value::Array(items) => {
                self.write_u64(4);
                self.write_u64(items.len() as u64);
                for item in items {
                    self.write_value(item);
                }
            }
            Value::Object(fields) => {
                self.write_u64(5);
                self.write_u64(fields.len() as u64);
                for (k, item) in fields {
                    self.write_str(k);
                    self.write_value(item);
                }
            }
        }
    }

    /// Mixes any serializable structure via its canonical value tree.
    pub fn write_serialize<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.write_value(&v.to_json_value());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

/// The content address of one collection run: every input that shapes the
/// resulting [`RawTrace`]. `gpu_config` must be the *effective* configuration
/// (after the collection seed is folded in, as `collect_trace` does).
pub fn trace_key(
    session: &TrainingSession,
    collection: &CollectionConfig,
    gpu_config: &GpuConfig,
    cupti_fingerprint: &str,
) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("leaky-dnn-trace");
    h.write_u64(TRACE_SCHEMA_VERSION as u64);
    h.write_serialize(session.model());
    h.write_serialize(session.config());
    h.write_serialize(collection);
    h.write_serialize(gpu_config);
    h.write_str(cupti_fingerprint);
    h.finish()
}

// ---------------------------------------------------------------------------
// in-memory stores
// ---------------------------------------------------------------------------

fn trace_store() -> &'static Mutex<HashMap<u64, Arc<RawTrace>>> {
    static STORE: OnceLock<Mutex<HashMap<u64, Arc<RawTrace>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

type FeatureMatrix = Arc<Vec<Vec<f32>>>;

fn feature_store() -> &'static Mutex<HashMap<u64, FeatureMatrix>> {
    static STORE: OnceLock<Mutex<HashMap<u64, FeatureMatrix>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every memoized trace and feature matrix (tests and long-lived
/// processes that want cold-start timings).
pub fn clear_memory() {
    trace_store().lock().expect("trace cache poisoned").clear();
    feature_store()
        .lock()
        .expect("feature cache poisoned")
        .clear();
}

/// Number of traces currently memoized (diagnostics).
pub fn memoized_traces() -> usize {
    trace_store().lock().expect("trace cache poisoned").len()
}

/// Returns the trace for `key`, collecting it with `collect` on a miss.
///
/// On [`CacheMode::Off`] this is a passthrough. On a miss both `mem` and
/// `disk` insert the collected trace into the process-wide map; `disk` also
/// persists it. Concurrent misses on the same key may collect twice — the
/// simulator is deterministic, so both produce identical bytes and either
/// may win the insert.
pub fn trace_for(key: u64, collect: impl FnOnce() -> RawTrace) -> RawTrace {
    let mode = CacheMode::from_env();
    if mode == CacheMode::Off {
        return collect();
    }
    if let Some(hit) = trace_store()
        .lock()
        .expect("trace cache poisoned")
        .get(&key)
        .cloned()
    {
        return (*hit).clone();
    }
    if mode == CacheMode::Disk {
        if let Some(trace) = disk_read(key) {
            let arc = Arc::new(trace);
            trace_store()
                .lock()
                .expect("trace cache poisoned")
                .insert(key, Arc::clone(&arc));
            return (*arc).clone();
        }
    }
    let trace = collect();
    let arc = Arc::new(trace);
    trace_store()
        .lock()
        .expect("trace cache poisoned")
        .insert(key, Arc::clone(&arc));
    if mode == CacheMode::Disk {
        disk_write(key, &arc);
    }
    (*arc).clone()
}

/// The feature matrix of a trace's sample stream ([`counter_features`] per
/// sample), memoized on the content of the samples plus
/// [`EXTRACTOR_VERSION`]. Two traces with bitwise-equal sample streams (e.g.
/// a cached and a fresh collection of the same run) share one matrix.
pub fn counter_feature_matrix(raw: &RawTrace) -> FeatureMatrix {
    counter_feature_matrix_in(CacheMode::from_env(), raw)
}

/// [`counter_feature_matrix`] under an explicit `mode`: `Off` computes a
/// fresh matrix, `Mem` and `Disk` share the in-process memo.
fn counter_feature_matrix_in(mode: CacheMode, raw: &RawTrace) -> FeatureMatrix {
    let compute = || -> FeatureMatrix {
        Arc::new(
            raw.samples
                .iter()
                .map(|s| counter_features(&s.to_features()))
                .collect(),
        )
    };
    if mode == CacheMode::Off {
        return compute();
    }
    let mut h = KeyHasher::new();
    h.write_str("leaky-dnn-features");
    h.write_u64(EXTRACTOR_VERSION as u64);
    h.write_u64(raw.samples.len() as u64);
    for s in &raw.samples {
        h.write_f64(s.start_us);
        h.write_f64(s.end_us);
        for v in s.counters.as_array() {
            h.write_f64(v);
        }
    }
    let key = h.finish();
    if let Some(hit) = feature_store()
        .lock()
        .expect("feature cache poisoned")
        .get(&key)
        .cloned()
    {
        return hit;
    }
    let matrix = compute();
    feature_store()
        .lock()
        .expect("feature cache poisoned")
        .insert(key, Arc::clone(&matrix));
    matrix
}

// ---------------------------------------------------------------------------
// disk codec
// ---------------------------------------------------------------------------
//
// The vendored serde stand-in can serialize but not deserialize, so the
// on-disk format is a small hand-written line codec. Every f64 travels as
// its 16-hex-digit bit pattern (bitwise-exact round trip, including -0.0 and
// subnormals); strings travel hex-encoded so names never fight the
// whitespace framing.

fn hex_str(s: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(2 * s.len());
    for b in s.as_bytes() {
        write!(out, "{:02x}", b).expect("write to string");
    }
    out
}

fn unhex_str(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        bytes.push(u8::from_str_radix(s.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encodes a trace (with its key, for integrity checking) into the cache
/// file format.
pub fn encode_trace(key: u64, trace: &RawTrace) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "leaky-dnn-trace v{}", TRACE_SCHEMA_VERSION).expect("write to string");
    writeln!(out, "key {:016x}", key).expect("write to string");
    // CollectionConfig is re-derivable from the key's inputs, but carrying it
    // keeps RawTrace self-contained; SpyKernelKind travels by name.
    writeln!(
        out,
        "collection {} {} {} {:016x}",
        trace.collection.spy_kernel.name(),
        trace.collection.slowdown.kernels,
        f64_hex(trace.collection.poll_period_us),
        trace.collection.seed,
    )
    .expect("write to string");
    writeln!(
        out,
        "mean_iteration_us {}",
        f64_hex(trace.mean_iteration_us)
    )
    .expect("write to string");
    writeln!(out, "samples {}", trace.samples.len()).expect("write to string");
    for s in &trace.samples {
        write!(out, "{} {}", f64_hex(s.start_us), f64_hex(s.end_us)).expect("write to string");
        for v in s.counters.as_array() {
            write!(out, " {}", f64_hex(v)).expect("write to string");
        }
        out.push('\n');
    }
    writeln!(out, "victim_log {}", trace.victim_log.len()).expect("write to string");
    for r in &trace.victim_log {
        writeln!(
            out,
            "{} {} {} {} {}",
            r.ctx.index(),
            f64_hex(r.start_us),
            f64_hex(r.end_us),
            hex_str(&r.name),
            r.op_tag.as_deref().map_or_else(|| "-".to_owned(), hex_str),
        )
        .expect("write to string");
    }
    out
}

/// Decodes a cache file produced by [`encode_trace`], checking the embedded
/// key against `expect_key`. Any mismatch or corruption yields `None` (a
/// cache miss, never an error).
pub fn decode_trace(text: &str, expect_key: u64) -> Option<RawTrace> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("leaky-dnn-trace v{}", TRACE_SCHEMA_VERSION) {
        return None;
    }
    let key_line = lines.next()?.strip_prefix("key ")?;
    if u64::from_str_radix(key_line, 16).ok()? != expect_key {
        return None;
    }
    let mut coll = lines.next()?.strip_prefix("collection ")?.split(' ');
    let spy_kernel = {
        let name = coll.next()?;
        *crate::spy::SpyKernelKind::ALL
            .iter()
            .find(|k| k.name() == name)?
    };
    let slowdown = crate::slowdown::SlowdownConfig {
        kernels: coll.next()?.parse().ok()?,
    };
    let poll_period_us = unhex_f64(coll.next()?)?;
    let seed = u64::from_str_radix(coll.next()?, 16).ok()?;
    let collection = CollectionConfig {
        spy_kernel,
        slowdown,
        poll_period_us,
        seed,
    };
    let mean_iteration_us = unhex_f64(lines.next()?.strip_prefix("mean_iteration_us ")?)?;

    let n_samples: usize = lines.next()?.strip_prefix("samples ")?.parse().ok()?;
    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let mut parts = lines.next()?.split(' ');
        let start_us = unhex_f64(parts.next()?)?;
        let end_us = unhex_f64(parts.next()?)?;
        let mut counters = CounterValues::zero();
        for id in CounterId::ALL {
            counters.add_to(id, unhex_f64(parts.next()?)?);
        }
        if parts.next().is_some() {
            return None;
        }
        samples.push(CuptiSample {
            start_us,
            end_us,
            counters,
        });
    }

    let n_records: usize = lines.next()?.strip_prefix("victim_log ")?.parse().ok()?;
    let mut victim_log = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        let mut parts = lines.next()?.split(' ');
        let ctx = ContextId::from_index(parts.next()?.parse().ok()?);
        let start_us = unhex_f64(parts.next()?)?;
        let end_us = unhex_f64(parts.next()?)?;
        let name: Arc<str> = unhex_str(parts.next()?)?.into();
        let op_tag: Option<Arc<str>> = match parts.next()? {
            "-" => None,
            tag => Some(unhex_str(tag)?.into()),
        };
        if parts.next().is_some() {
            return None;
        }
        victim_log.push(KernelRecord {
            ctx,
            name,
            op_tag,
            start_us,
            end_us,
        });
    }
    if lines.next().is_some() {
        return None;
    }

    Some(RawTrace {
        samples,
        victim_log,
        collection,
        mean_iteration_us,
    })
}

fn disk_path(key: u64) -> PathBuf {
    cache_dir().join(format!("trace-{:016x}.txt", key))
}

fn disk_read(key: u64) -> Option<RawTrace> {
    let text = std::fs::read_to_string(disk_path(key)).ok()?;
    decode_trace(&text, key)
}

fn disk_write(key: u64, trace: &RawTrace) {
    // Persistence is best-effort: an unwritable directory degrades to `mem`
    // behaviour rather than failing the collection. Write through a
    // temporary file so concurrent processes never observe a torn entry.
    let dir = cache_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let tmp = dir.join(format!("trace-{:016x}.tmp-{}", key, std::process::id()));
    if std::fs::write(&tmp, encode_trace(key, trace)).is_ok() {
        let _ = std::fs::rename(&tmp, disk_path(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::collect_trace;
    use dnn_sim::{TrainingConfig, TrainingSession};

    fn tiny_session() -> TrainingSession {
        TrainingSession::new(crate::trace::tests::tiny_model(), TrainingConfig::new(4, 2))
    }

    fn tiny_trace() -> RawTrace {
        let cfg = CollectionConfig {
            slowdown: crate::slowdown::SlowdownConfig { kernels: 2 },
            ..CollectionConfig::paper()
        };
        collect_trace(&tiny_session(), &cfg, &GpuConfig::gtx_1080_ti())
    }

    fn assert_traces_bitwise_equal(a: &RawTrace, b: &RawTrace) {
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
            for (u, v) in x.counters.as_array().iter().zip(y.counters.as_array()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(a.victim_log, b.victim_log);
        assert_eq!(a.collection, b.collection);
        assert_eq!(a.mean_iteration_us.to_bits(), b.mean_iteration_us.to_bits());
    }

    #[test]
    fn disk_codec_round_trips_bitwise() {
        let mut trace = tiny_trace();
        // Exercise the awkward encodings explicitly.
        trace.mean_iteration_us = -0.0;
        trace.samples[0].start_us = f64::from_bits(0x0000_0000_0000_0001); // subnormal
        let encoded = encode_trace(42, &trace);
        let decoded = decode_trace(&encoded, 42).expect("decodes");
        assert_traces_bitwise_equal(&trace, &decoded);
        // Re-encoding the decoded trace is byte-identical (fixed point).
        assert_eq!(encode_trace(42, &decoded), encoded);
    }

    #[test]
    fn decode_rejects_key_mismatch_and_corruption() {
        let trace = tiny_trace();
        let encoded = encode_trace(7, &trace);
        assert!(decode_trace(&encoded, 7).is_some());
        assert!(decode_trace(&encoded, 8).is_none(), "wrong key must miss");
        let truncated = &encoded[..encoded.len() / 2];
        assert!(decode_trace(truncated, 7).is_none());
        let wrong_version = encoded.replacen(&format!("v{}", TRACE_SCHEMA_VERSION), "v999", 1);
        assert!(decode_trace(&wrong_version, 7).is_none());
    }

    #[test]
    fn key_changes_with_every_component() {
        let session = tiny_session();
        let collection = CollectionConfig::paper();
        let gpu = GpuConfig::gtx_1080_ti();
        let fp = "cupti-v1";
        let base = trace_key(&session, &collection, &gpu, fp);
        assert_eq!(
            base,
            trace_key(&session, &collection, &gpu, fp),
            "key must be stable"
        );

        let other_seed = collection.with_seed(collection.seed ^ 1);
        assert_ne!(base, trace_key(&session, &other_seed, &gpu, fp));

        let other_spy = CollectionConfig {
            spy_kernel: crate::spy::SpyKernelKind::MatMul,
            ..collection
        };
        assert_ne!(base, trace_key(&session, &other_spy, &gpu, fp));

        let mut other_gpu = gpu.clone();
        other_gpu.time_slice_us *= 2.0;
        assert_ne!(base, trace_key(&session, &collection, &other_gpu, fp));

        let other_model = TrainingSession::new(
            dnn_sim::zoo::tested_mlp(),
            dnn_sim::TrainingConfig::new(4, 2),
        );
        assert_ne!(base, trace_key(&other_model, &collection, &gpu, fp));

        let mut other_batch_cfg = session.config().clone();
        other_batch_cfg.batch += 1;
        let other_batch = TrainingSession::new(session.model().clone(), other_batch_cfg);
        assert_ne!(base, trace_key(&other_batch, &collection, &gpu, fp));

        assert_ne!(base, trace_key(&session, &collection, &gpu, "cupti-v2"));
    }

    #[test]
    fn feature_matrix_matches_direct_computation_and_is_shared() {
        let trace = tiny_trace();
        let direct: Vec<Vec<f32>> = trace
            .samples
            .iter()
            .map(|s| counter_features(&s.to_features()))
            .collect();
        // The memo mode is pinned here, not read from `LEAKY_DNN_CACHE`, so
        // the sharing assertion holds whatever the environment says.
        let cached = counter_feature_matrix_in(CacheMode::Mem, &trace);
        assert_eq!(*cached, direct);
        // A bitwise-equal trace (e.g. a fresh collection of the same run)
        // shares the same matrix allocation.
        let again = counter_feature_matrix_in(CacheMode::Mem, &trace.clone());
        assert!(Arc::ptr_eq(&cached, &again));
        // With the memo off the matrix is equal but freshly computed.
        let fresh = counter_feature_matrix_in(CacheMode::Off, &trace);
        assert_eq!(*fresh, direct);
        assert!(!Arc::ptr_eq(&cached, &fresh));
    }

    #[test]
    fn fnv_vectors() {
        // Reference FNV-1a 64 digests, so the on-disk key space is pinned.
        let digest = |s: &str| {
            let mut h = KeyHasher::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }
}
