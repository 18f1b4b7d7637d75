//! The concurrent serving substrate: Arc-published [`EngineSnapshot`]s,
//! the sharded [`PredictionCache`], typed [`InferenceRequest`]s, and the
//! atomic [`ServeStats`] counters.
//!
//! The training side of the engine mutates weights in place, so it is
//! inherently exclusive (`&mut self`). Serving is the opposite: ROADMAP
//! item 3's "heavy traffic" goal needs *many* callers reading *one* trained
//! model at once. This module separates the two worlds:
//!
//! - [`EngineSnapshot`] — an immutable, `Sync` view of everything a
//!   prediction needs (weights, encoding, boundary operator, cache). All
//!   `predict*` methods take `&self`; any number of threads can call them
//!   on one shared `Arc<EngineSnapshot>` simultaneously, and the results
//!   are bitwise identical to the exclusive path (the network runs the
//!   same kernels through [`mgd_nn::Workspace`]-backed `&self` inference).
//! - [`SnapshotCell`] — the ArcSwap-style publication point. The engine
//!   `store`s a fresh snapshot after every weight change (train,
//!   `load_weights`, `model_mut`); serving threads `load` the current
//!   `Arc` (a short read-lock + refcount bump) and then run entirely
//!   lock-free on it. In-flight requests keep the old snapshot alive until
//!   they finish — hot-swap never blocks or torments a reader.
//! - [`PredictionCache`] — N independent LRU shards selected by a
//!   deterministic hash of the [`CacheKey`], so concurrent cache probes
//!   stop serializing on one lock. Per-shard hit/miss/eviction counters
//!   feed honest hit-rate reporting.
//! - [`InferenceRequest`] — the typed request surface: a raw coefficient
//!   field ([`InferenceRequest::Coeff`]) or a parameter vector
//!   ([`InferenceRequest::Omega`]) rasterized server-side. Engine, queue
//!   (`mgd_serve`), and cache keying all speak this one type.
//! - [`SharedServeStats`] / [`ServeStats`] — engine-lifetime serving
//!   counters as atomics, shared across snapshot generations so a republish
//!   never loses counts.

use crate::error::{MgdError, MgdResult};
use crate::loss::FemLoss;
use mgd_dist::{
    assemble_planes, carve_planes, launch_with, Comm, SlabLayout, SlabPartition, SlabPool,
    ThreadComm,
};
use mgd_fem::hierarchy::HierarchyOptions;
use mgd_field::{
    stack_fields_with, tensorize, Anisotropy, DiffusivityModel, FieldError, InputEncoding,
};
use mgd_hybrid::{
    solve_certified, CertifiedSolution, CertifyOptions, ErasedHierarchy, ErasedSystem, StallPolicy,
    StrategyKind, Surrogate,
};
use mgd_nn::{InferModel, Model, PrepackStats, SlabModel, SlabOpts, Workspace};
use mgd_tensor::{Element, Precision, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// A typed inference request: what a serving caller wants solved.
///
/// Replaces the old stringly `predict_omega(&[f64])` surface — the engine,
/// the `mgd_serve` micro-batching queue, and the cache all key off this one
/// enum, so a request means the same thing at every layer.
#[derive(Clone, Debug, PartialEq)]
pub enum InferenceRequest {
    /// A raw coefficient field ν shaped like the engine's resolution.
    Coeff(Tensor),
    /// A diffusivity parameter vector ω, rasterized server-side at the
    /// engine's resolution (cached under the ω bits themselves, so repeat
    /// ω queries skip rasterization entirely).
    Omega(Vec<f64>),
}

impl InferenceRequest {
    /// Wraps a coefficient field.
    pub fn coeff(field: Tensor) -> Self {
        InferenceRequest::Coeff(field)
    }

    /// Wraps a parameter vector.
    pub fn omega(omega: impl Into<Vec<f64>>) -> Self {
        InferenceRequest::Omega(omega.into())
    }

    fn view(&self) -> ReqView<'_> {
        match self {
            InferenceRequest::Coeff(t) => ReqView::Coeff(t),
            InferenceRequest::Omega(o) => ReqView::Omega(o),
        }
    }
}

/// Borrowed view of a request — lets `predict_batch(&[Tensor])` share the
/// serving core without cloning every field into an owned request.
enum ReqView<'a> {
    Coeff(&'a Tensor),
    Omega(&'a [f64]),
}

/// Cache key of one inference request.
///
/// Every key carries the snapshot's *physics fingerprint*
/// ([`crate::loss::FemLoss::fingerprint`]: operator ⊕ boundary ⊕ forcing)
/// alongside the request payload, so identical coefficient fields queried
/// under different operators or boundary data can never alias one cache
/// entry — even if a cache outlives a physics change.
///
/// `Coeff` bodies quantize every ν value to ~1e-9 absolute resolution, so
/// bitwise jitter below solver precision still hits; the full quantized
/// field is the key (no hash-collision false positives). `Omega` bodies are
/// the (finite, `-0.0`-normalized) parameter bits — ω requests are cached
/// without rasterizing first.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Physics fingerprint of the snapshot that minted the key.
    physics: u64,
    body: KeyBody,
}

/// Request payload of a [`CacheKey`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum KeyBody {
    /// Quantized coefficient field.
    Coeff(Vec<u128>),
    /// Bit patterns of the ω vector.
    Omega(Vec<u64>),
}

impl CacheKey {
    /// Keys a (finite — callers reject NaN/∞ first) coefficient field
    /// under the given physics fingerprint.
    ///
    /// The quantization stays in the float domain: `round(v·1e9)` is an
    /// exact integer-valued f64 whose bit pattern is the key element.
    /// An earlier `as i64` cast saturated everything ≥ ~9.2e9 to `i64::MAX`
    /// (distinct huge coefficients collided onto one entry) and collapsed
    /// NaN to 0 (a NaN field cache-hit an all-zero field). Adding `0.0`
    /// normalizes `-0.0` to `+0.0` so sub-resolution jitter around zero
    /// still maps to one key. When `v·1e9` itself overflows f64
    /// (|v| ≳ 1.8e299) the raw bit pattern is used instead, tagged into a
    /// disjoint keyspace so it can never alias a quantized value.
    pub fn coeff(field: &Tensor, physics: u64) -> CacheKey {
        CacheKey {
            physics,
            body: KeyBody::Coeff(
                field
                    .as_slice()
                    .iter()
                    .map(|&v| {
                        let q = (v * 1e9).round() + 0.0;
                        if q.is_finite() {
                            u128::from(q.to_bits())
                        } else {
                            (1u128 << 64) | u128::from(v.to_bits())
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Keys a (finite) ω parameter vector by exact bit pattern
    /// (`-0.0`-normalized) under the given physics fingerprint.
    pub fn omega(omega: &[f64], physics: u64) -> CacheKey {
        CacheKey {
            physics,
            body: KeyBody::Omega(omega.iter().map(|&v| (v + 0.0).to_bits()).collect()),
        }
    }

    fn of(req: &ReqView<'_>, physics: u64) -> CacheKey {
        match req {
            ReqView::Coeff(t) => CacheKey::coeff(t, physics),
            ReqView::Omega(o) => CacheKey::omega(o, physics),
        }
    }

    /// Deterministic shard index in `0..shards` (FNV-1a over the physics
    /// fingerprint and the key bytes, with a variant tag so a Coeff key can
    /// never collide with an Omega key of the same bytes). Deterministic —
    /// independent of process, run, and the std `HashMap` hasher — so shard
    /// placement is reproducible and testable.
    pub fn shard(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: u64, bytes: &[u8]) -> u64 {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
        }
        let mut h = eat(OFFSET, &self.physics.to_le_bytes());
        match &self.body {
            KeyBody::Coeff(q) => {
                h = eat(h, &[0]);
                for v in q {
                    h = eat(h, &v.to_le_bytes());
                }
            }
            KeyBody::Omega(q) => {
                h = eat(h, &[1]);
                for v in q {
                    h = eat(h, &v.to_le_bytes());
                }
            }
        }
        // FNV-1a's multiply only propagates entropy upward, so the raw low
        // bits are badly mixed (every f64 bit pattern with trailing zero
        // bytes lands in one bucket); xor-fold the high half down first.
        h ^= h >> 32;
        (h % shards as u64) as usize
    }
}

/// Engine-lifetime serving counters, all atomic.
///
/// One `Arc<SharedServeStats>` is shared by the engine and every snapshot
/// generation it publishes, so counts accumulate across hot-swaps and are
/// safe to bump from any number of serving threads. (The old `ServeStats`
/// fields were plain `u64`s mutated on the single-threaded path — under
/// concurrent serving they would race and under-count.)
#[derive(Debug, Default)]
pub struct SharedServeStats {
    forward_passes: AtomicU64,
    predicted_fields: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    workspace_pool_hits: AtomicU64,
    workspace_pool_misses: AtomicU64,
    slab_pool_hits: AtomicU64,
    slab_pool_misses: AtomicU64,
    rank_spawns: AtomicU64,
    slab_activation_peak_elems: AtomicU64,
}

impl SharedServeStats {
    /// A consistent-enough copy of the counters (each loaded atomically).
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            forward_passes: self.forward_passes.load(Ordering::Relaxed),
            predicted_fields: self.predicted_fields.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            workspace_pool_hits: self.workspace_pool_hits.load(Ordering::Relaxed),
            workspace_pool_misses: self.workspace_pool_misses.load(Ordering::Relaxed),
            slab_pool_hits: self.slab_pool_hits.load(Ordering::Relaxed),
            slab_pool_misses: self.slab_pool_misses.load(Ordering::Relaxed),
            rank_spawns: self.rank_spawns.load(Ordering::Relaxed),
            slab_activation_peak_elems: self.slab_activation_peak_elems.load(Ordering::Relaxed),
            prepack_builds: 0,
            prepack_reuses: 0,
        }
    }
}

/// Serving statistics of a `SolverEngine` (a point-in-time copy of
/// [`SharedServeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batched forward passes executed (a `predict_batch` call contributes
    /// at most one, regardless of batch size).
    pub forward_passes: u64,
    /// Individual fields answered from the network.
    pub predicted_fields: u64,
    /// Individual fields answered from the cache.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Entries evicted to make room.
    pub cache_evictions: u64,
    /// Forward passes that reused a pooled inference workspace.
    pub workspace_pool_hits: u64,
    /// Forward passes that had to allocate a fresh workspace (the pool was
    /// empty — cold start or more concurrent predictions than ever before).
    pub workspace_pool_misses: u64,
    /// Spatial forwards that reused a persistent rank pool (no thread
    /// spawns, warm per-rank workspaces, prepacked weight panels).
    pub slab_pool_hits: u64,
    /// Spatial forwards that had to spawn a fresh rank pool (only more
    /// concurrent spatial predictions than ever before — one pool is
    /// spawned eagerly when the snapshot is published).
    pub slab_pool_misses: u64,
    /// Rank threads spawned for spatial serving: the persistent pools'
    /// workers plus the per-request ranks of the replica fallback.
    pub rank_spawns: u64,
    /// Largest live-activation element count one rank of a pooled spatial
    /// forward held: the max over the ranks' workspace meters
    /// ([`mgd_nn::Workspace::measured_peak_elems`]), the measured
    /// counterpart of [`mgd_nn::activation_peak_elems_opts`].
    pub slab_activation_peak_elems: u64,
    /// Weight-panel packs built by the snapshot's slab model (its one-time
    /// prepack). Unlike the other fields this belongs to one snapshot.
    pub prepack_builds: u64,
    /// Slab-model inference calls that reused the prepacked panels (per
    /// snapshot, like `prepack_builds`).
    pub prepack_reuses: u64,
}

/// Point-in-time statistics of one cache shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Probes answered by this shard.
    pub hits: u64,
    /// Probes that missed in this shard.
    pub misses: u64,
    /// Entries this shard evicted.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries this shard holds.
    pub capacity: usize,
}

/// A cached prediction, stored at the precision the snapshot serves at.
///
/// Under [`Precision::F64`] entries are the f64 outputs themselves (shared,
/// never copied). Under `F32`/`Mixed` the forward pass ran in f32, so the
/// f64 output is exactly representable in f32 (boundary values 0/1
/// included) — storing the f32 image halves cache residency at megavoxel
/// resolutions with **zero** rounding loss. Promotion back to f64
/// allocates on hit, which is still far cheaper than a forward pass.
#[derive(Clone, Debug)]
pub enum CachedField {
    /// Full-precision entry (the `Precision::F64` serving path).
    F64(Arc<Tensor>),
    /// Half-residency entry (the `Precision::F32`/`Mixed` serving paths).
    F32(Arc<Tensor<f32>>),
}

impl CachedField {
    /// The cached prediction as an f64 tensor (shared for `F64` entries,
    /// promoted — one allocation — for `F32` entries).
    pub fn to_f64(&self) -> Arc<Tensor> {
        match self {
            CachedField::F64(t) => Arc::clone(t),
            CachedField::F32(t) => Arc::new(t.cast::<f64>()),
        }
    }
}

impl From<Arc<Tensor>> for CachedField {
    fn from(t: Arc<Tensor>) -> Self {
        CachedField::F64(t)
    }
}

/// One ordered-LRU shard core (exclusive behind its shard mutex).
///
/// `by_stamp` keeps keys sorted by their last-use clock stamp, so eviction
/// pops the least recently used entry in O(log n). Outputs are stored and
/// returned as [`CachedField`]s holding `Arc`s — a hit hands out a
/// reference-counted pointer instead of deep-cloning the tensor, which at
/// megavoxel resolutions used to copy ~57 MB per hit on the serving hot
/// path.
struct LruCore {
    capacity: usize,
    entries: HashMap<Arc<CacheKey>, CacheSlot>,
    /// Last-use stamp → key. Stamps come from a strictly increasing clock,
    /// so they are unique and the first entry is always the LRU.
    by_stamp: BTreeMap<u64, Arc<CacheKey>>,
    clock: u64,
}

struct CacheSlot {
    out: CachedField,
    stamp: u64,
}

impl LruCore {
    fn new(capacity: usize) -> Self {
        LruCore {
            capacity,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
            clock: 0,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<CachedField> {
        self.clock += 1;
        let clock = self.clock;
        let (key_arc, slot) = self.entries.get_key_value(key)?;
        let old = slot.stamp;
        let key_arc = Arc::clone(key_arc);
        let out = slot.out.clone();
        self.by_stamp.remove(&old);
        self.by_stamp.insert(clock, Arc::clone(&key_arc));
        self.entries.get_mut(&key_arc).expect("slot exists").stamp = clock;
        Some(out)
    }

    /// Inserts (or refreshes) an entry; returns whether an eviction
    /// happened.
    fn insert(&mut self, key: CacheKey, value: CachedField) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.entries.get_mut(&key) {
            // Refresh an existing entry in place; `by_stamp` hands back the
            // shared key Arc, so one hash lookup suffices.
            let old = std::mem::replace(&mut slot.stamp, clock);
            slot.out = value;
            let key_arc = self.by_stamp.remove(&old).expect("stamped entry");
            self.by_stamp.insert(clock, key_arc);
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.capacity {
            // Evict the least recently used entry: the smallest stamp.
            if let Some((_, lru_key)) = self.by_stamp.pop_first() {
                self.entries.remove(&*lru_key);
                evicted = true;
            }
        }
        let key_arc = Arc::new(key);
        self.by_stamp.insert(clock, Arc::clone(&key_arc));
        self.entries.insert(
            key_arc,
            CacheSlot {
                out: value,
                stamp: clock,
            },
        );
        evicted
    }

    fn len(&self) -> usize {
        debug_assert_eq!(self.entries.len(), self.by_stamp.len());
        self.entries.len()
    }
}

struct CacheShard {
    lru: Mutex<LruCore>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The serving-side prediction cache: N independent ordered-LRU shards
/// selected by [`CacheKey::shard`].
///
/// A single-mutex cache serializes every concurrent `predict` on one lock;
/// sharding spreads unrelated keys over independent locks, so probes only
/// contend when they actually touch the same shard. Shard count 1 recovers
/// the exact global-LRU semantics of the old cache (and is what tiny
/// capacities fall back to — see [`PredictionCache::auto_shards`]).
pub struct PredictionCache {
    shards: Vec<CacheShard>,
    stats: Arc<SharedServeStats>,
}

impl PredictionCache {
    /// Builds a cache of `capacity` total entries over `shards` shards
    /// (clamped so every shard holds at least one entry; `shards == 0`
    /// means [`PredictionCache::auto_shards`]). Capacity 0 disables
    /// caching. `stats` receives the aggregate hit/miss/eviction counts.
    pub fn new(capacity: usize, shards: usize, stats: Arc<SharedServeStats>) -> Self {
        let shards = if shards == 0 {
            Self::auto_shards(capacity)
        } else {
            shards.clamp(1, capacity.max(1))
        };
        let (base, rem) = (capacity / shards, capacity % shards);
        let shards = (0..shards)
            .map(|i| {
                let cap = base + usize::from(i < rem);
                CacheShard {
                    lru: Mutex::new(LruCore::new(cap)),
                    capacity: cap,
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                }
            })
            .collect();
        PredictionCache { shards, stats }
    }

    /// Default shard count for a given capacity: one shard per 8 entries,
    /// at most 8, at least 1 — tiny caches keep a single shard so their
    /// eviction order is the exact global LRU order callers of small
    /// caches (and the engine's own tests) rely on.
    pub fn auto_shards(capacity: usize) -> usize {
        (capacity / 8).clamp(1, 8)
    }

    fn shard_of(&self, key: &CacheKey) -> &CacheShard {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Looks up a key, refreshing its LRU position and counting the
    /// hit/miss on both the shard and the shared stats.
    pub fn get(&self, key: &CacheKey) -> Option<CachedField> {
        let shard = self.shard_of(key);
        let out = shard.lru.lock().expect("cache shard poisoned").get(key);
        match &out {
            Some(_) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Inserts (or refreshes) an entry, counting any eviction it causes.
    pub fn insert(&self, key: CacheKey, value: impl Into<CachedField>) {
        let value = value.into();
        let shard = self.shard_of(&key);
        let evicted = shard
            .lru
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
        if evicted {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lru.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of independent shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard statistics (hits, misses, evictions, occupancy).
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| CacheShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                len: s.lru.lock().expect("cache shard poisoned").len(),
                capacity: s.capacity,
            })
            .collect()
    }
}

/// Serving configuration of an engine (queue + cache shape), set through
/// the `SolverEngineBuilder` knobs and consumed by `mgd_serve`'s queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Admission-control bound: requests beyond this many waiting in the
    /// queue are rejected with [`MgdError::QueueFull`].
    pub queue_depth: usize,
    /// Largest micro-batch the queue coalesces into one forward pass.
    pub max_batch: usize,
    /// How long the queue waits for more requests to coalesce after the
    /// first arrival (the deadline half of the size/deadline policy).
    pub batch_window: Duration,
    /// Total prediction-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count; 0 selects [`PredictionCache::auto_shards`].
    pub cache_shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_depth: 256,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            cache_capacity: 64,
            cache_shards: 0,
        }
    }
}

/// The model inside a snapshot.
enum SnapshotModel {
    /// A `Sync` read-only view ([`Model::share`]) — predictions run truly
    /// lock-free and concurrently.
    Shared(Arc<dyn InferModel>),
    /// A `Sync` f32 view ([`Model::share_f32`]) — the `Precision::F32` /
    /// `Precision::Mixed` serving path: inputs are demoted once at the
    /// batch boundary, the whole forward runs through the f32 SIMD
    /// kernels, and the output is promoted back to f64 (exactly).
    SharedF32(Arc<dyn InferModel<f32>>),
    /// Fallback for injected architectures without a `&self` inference
    /// path: an exclusive replica; concurrent predictions serialize on its
    /// mutex but still need no `&mut` engine.
    Exclusive(Mutex<Box<dyn Model>>),
}

/// Per-rank persistent state inside a slab pool: warm inference
/// workspaces that survive across requests (and across layers within a
/// request), at both serving precisions.
#[derive(Default)]
struct RankState {
    ws: Workspace,
    ws32: Workspace<f32>,
}

/// The shared slab-inference weights of a spatial snapshot, at the
/// precision the snapshot serves at.
enum SlabWeights {
    F64(Arc<dyn SlabModel>),
    F32(Arc<dyn SlabModel<f32>>),
}

impl SlabWeights {
    fn spatial_align(&self) -> usize {
        match self {
            SlabWeights::F64(m) => m.spatial_align(),
            SlabWeights::F32(m) => m.spatial_align(),
        }
    }
}

/// Slab-decomposed serving state of a snapshot (spatial parallelism).
///
/// The fast path shares one prepacked [`SlabModel`] across all ranks of a
/// persistent [`SlabPool`] — no per-request thread spawns, no per-rank
/// model replicas, no request-wide mutex (concurrent spatial predictions
/// each acquire their own pool, `WorkspacePool`-style). Architectures
/// without a `&self` slab path fall back to mutex-guarded exclusive
/// replicas driven through `launch_with`.
struct SpatialServe {
    ranks: usize,
    /// Data-parallel serving lanes (`Parallelism::Grid(d, p)` composes
    /// `d` lanes × `p` slab ranks): batches split across this many
    /// concurrent slab forwards.
    lanes: usize,
    opts: SlabOpts,
    /// Shared prepacked weights; `None` for injected architectures
    /// without [`Model::share_slab`].
    weights: Option<SlabWeights>,
    /// Persistent rank pools, one per concurrent spatial forward
    /// (acquire/release like the workspace pool). Empty on the fallback
    /// path.
    pools: Mutex<Vec<SlabPool<RankState>>>,
    /// Fallback replicas (exclusive `predict_slab`); empty on the fast
    /// path.
    replicas: Mutex<Vec<Box<dyn Model>>>,
}

impl SpatialServe {
    /// Spawns a persistent rank pool (its threads counted on `stats`).
    fn new_pool(&self, stats: &SharedServeStats) -> SlabPool<RankState> {
        let pool = SlabPool::new((0..self.ranks).map(|_| RankState::default()).collect());
        stats
            .rank_spawns
            .fetch_add(pool.rank_spawns(), Ordering::Relaxed);
        pool
    }

    /// Pops a persistent rank pool, or spawns a fresh one if every pool is
    /// currently serving (counted on `stats`).
    fn acquire_pool(&self, stats: &SharedServeStats) -> SlabPool<RankState> {
        let pooled = self.pools.lock().expect("slab pools poisoned").pop();
        match pooled {
            Some(p) => {
                stats.slab_pool_hits.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                stats.slab_pool_misses.fetch_add(1, Ordering::Relaxed);
                self.new_pool(stats)
            }
        }
    }

    fn release_pool(&self, pool: SlabPool<RankState>) {
        self.pools.lock().expect("slab pools poisoned").push(pool);
    }
}

/// A snapshot-owned pool of inference workspaces.
///
/// Replaces the old `thread_local!` scratch: per-thread storage pinned one
/// workspace (potentially tens of MB of patch buffers at megavoxel
/// resolutions) to *every* thread that ever predicted, for as long as the
/// thread lived — short-lived serving threads leaked warm buffers, and the
/// engine had no way to observe or bound the residency. Pooling ties the
/// scratch to the snapshot instead: `acquire` pops a warm workspace (or
/// allocates on first use), `release` returns it, and the pool dies with
/// the snapshot. Steady-state occupancy equals the peak number of
/// *concurrent* forward passes, not the historical thread count, and the
/// hit/miss counters in [`ServeStats`] make reuse observable.
struct WorkspacePool<E: Element = f64> {
    slots: Mutex<Vec<Workspace<E>>>,
}

impl<E: Element> WorkspacePool<E> {
    fn new() -> Self {
        WorkspacePool {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled workspace, or allocates a fresh one if every pooled
    /// workspace is currently in use (counted on `stats`).
    fn acquire(&self, stats: &SharedServeStats) -> Workspace<E> {
        let pooled = self.slots.lock().expect("workspace pool poisoned").pop();
        match pooled {
            Some(ws) => {
                stats.workspace_pool_hits.fetch_add(1, Ordering::Relaxed);
                ws
            }
            None => {
                stats.workspace_pool_misses.fetch_add(1, Ordering::Relaxed);
                Workspace::new()
            }
        }
    }

    /// Returns a workspace (with its warm buffers) to the pool.
    fn release(&self, ws: Workspace<E>) {
        self.slots.lock().expect("workspace pool poisoned").push(ws);
    }
}

/// An immutable, Arc-published view of a trained engine: everything a
/// prediction needs, readable from any number of threads at once.
///
/// Snapshots are created by the engine (initially at `build()`, then after
/// every weight change) and published through a [`SnapshotCell`]. All
/// methods take `&self`; outputs are bitwise identical to the exclusive
/// `&mut` path at any concurrency level. See the module docs for the
/// lifecycle.
pub struct EngineSnapshot {
    version: u64,
    resolution: Vec<usize>,
    /// Expected dims of a `Coeff` request: `resolution` for scalar
    /// operators, `[ncomp, resolution...]` (component-major tensor planes)
    /// for tensor operators.
    coeff_dims: Vec<usize>,
    three_d: bool,
    encoding: InputEncoding,
    diffusivity: DiffusivityModel,
    /// Scalar→tensor expansion ω requests rasterize through when the
    /// physics is anisotropic.
    aniso: Option<Anisotropy>,
    loss: Arc<FemLoss>,
    model: SnapshotModel,
    spatial: Option<SpatialServe>,
    cache: PredictionCache,
    stats: Arc<SharedServeStats>,
    hybrid_strategy: StrategyKind,
    certify_tol: f64,
    stall: StallPolicy,
    precision: Precision,
    ws_pool: WorkspacePool,
    ws_pool32: WorkspacePool<f32>,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("version", &self.version)
            .field("resolution", &self.resolution)
            .field(
                "shared_model",
                &matches!(
                    self.model,
                    SnapshotModel::Shared(_) | SnapshotModel::SharedF32(_)
                ),
            )
            .field("precision", &self.precision)
            .field("spatial_ranks", &self.spatial.as_ref().map(|s| s.ranks))
            .field("cache_len", &self.cache.len())
            .finish_non_exhaustive()
    }
}

/// [`Surrogate`] view of a snapshot: network inference as a solver
/// component. Guesses are served through [`EngineSnapshot::predict`] (so
/// they hit the prediction cache) and only at the snapshot's native
/// resolution — the hybrid hierarchy's coarse levels are odd-sized
/// (`(n+1)/2` nodes per axis), which the U-Net's pooling stages cannot
/// process, so coarse-level requests report unavailable and the certified
/// driver demotes gracefully.
struct SnapshotSurrogate<'a> {
    snap: &'a EngineSnapshot,
}

impl Surrogate for SnapshotSurrogate<'_> {
    fn guess(&self, dims: &[usize], nu: &[f64]) -> Option<Vec<f64>> {
        if dims != &self.snap.resolution[..] {
            return None;
        }
        // The hybrid system hands over the operator's full coefficient
        // block (`ncomp · vol` values, component-major) — exactly the
        // `coeff_dims` shape the predict surface validates against.
        let vol: usize = dims.iter().product();
        if nu.len() != self.snap.loss.ncomp() * vol {
            return None;
        }
        let coeff = Tensor::from_vec(self.snap.coeff_dims.clone(), nu.to_vec());
        let u = self.snap.predict(&coeff).ok()?;
        Some(u.as_slice().to_vec())
    }
}

/// Everything the engine hands over when it publishes a snapshot.
pub(crate) struct SnapshotConfig<'a> {
    pub version: u64,
    pub model: &'a dyn Model,
    pub spatial_ranks: usize,
    pub spatial_lanes: usize,
    pub spatial_opts: SlabOpts,
    pub resolution: Vec<usize>,
    pub three_d: bool,
    pub encoding: InputEncoding,
    pub diffusivity: DiffusivityModel,
    pub aniso: Option<Anisotropy>,
    pub loss: Arc<FemLoss>,
    pub cache_capacity: usize,
    pub cache_shards: usize,
    pub stats: Arc<SharedServeStats>,
    pub hybrid_strategy: StrategyKind,
    pub certify_tol: f64,
    pub stall: StallPolicy,
    pub precision: Precision,
}

impl EngineSnapshot {
    pub(crate) fn build(cfg: SnapshotConfig<'_>) -> EngineSnapshot {
        // F32/Mixed serving wants the f32 weight view; builder validation
        // guarantees it exists, but a missing view degrades to the f64
        // paths rather than panicking (republish after a weight swap).
        let model = match cfg.precision {
            Precision::F32 | Precision::Mixed => {
                cfg.model.share_f32().map(SnapshotModel::SharedF32)
            }
            Precision::F64 => None,
        }
        .or_else(|| cfg.model.share().map(SnapshotModel::Shared))
        .unwrap_or_else(|| SnapshotModel::Exclusive(Mutex::new(cfg.model.clone_model())));
        let spatial = (cfg.spatial_ranks > 1).then(|| {
            // F32/Mixed serving prefers the f32 slab view (satisfying the
            // precision policy end to end); a model exposing neither slab
            // view degrades to exclusive replicas.
            let weights = match cfg.precision {
                Precision::F32 | Precision::Mixed => {
                    cfg.model.share_slab_f32().map(SlabWeights::F32)
                }
                Precision::F64 => None,
            }
            .or_else(|| cfg.model.share_slab().map(SlabWeights::F64));
            let replicas = if weights.is_none() {
                (0..cfg.spatial_ranks)
                    .map(|_| cfg.model.clone_model())
                    .collect()
            } else {
                Vec::new()
            };
            let sp = SpatialServe {
                ranks: cfg.spatial_ranks,
                lanes: cfg.spatial_lanes.max(1),
                opts: cfg.spatial_opts.clone(),
                weights,
                pools: Mutex::new(Vec::new()),
                replicas: Mutex::new(replicas),
            };
            if sp.weights.is_some() {
                // Spawn the persistent rank fleet once at publish time so
                // the first predict is already a pool hit.
                let pool = sp.new_pool(&cfg.stats);
                sp.pools.lock().expect("slab pools poisoned").push(pool);
            }
            sp
        });
        let ncomp = cfg.loss.ncomp();
        let coeff_dims = if ncomp == 1 {
            cfg.resolution.clone()
        } else {
            let mut d = Vec::with_capacity(cfg.resolution.len() + 1);
            d.push(ncomp);
            d.extend_from_slice(&cfg.resolution);
            d
        };
        EngineSnapshot {
            version: cfg.version,
            resolution: cfg.resolution,
            coeff_dims,
            three_d: cfg.three_d,
            encoding: cfg.encoding,
            diffusivity: cfg.diffusivity,
            aniso: cfg.aniso,
            loss: cfg.loss,
            model,
            spatial,
            cache: PredictionCache::new(
                cfg.cache_capacity,
                cfg.cache_shards,
                Arc::clone(&cfg.stats),
            ),
            stats: cfg.stats,
            hybrid_strategy: cfg.hybrid_strategy,
            certify_tol: cfg.certify_tol,
            stall: cfg.stall,
            precision: cfg.precision,
            ws_pool: WorkspacePool::new(),
            ws_pool32: WorkspacePool::new(),
        }
    }

    /// Monotonic publish version (0 = the initial snapshot); each weight
    /// change publishes a higher version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The spatial resolution predictions are shaped as.
    pub fn resolution(&self) -> &[usize] {
        &self.resolution
    }

    /// Expected dims of a coefficient-field request: the spatial
    /// resolution for scalar operators, `[ncomp, spatial...]`
    /// (component-major symmetric tensor planes) for tensor operators.
    pub fn coeff_dims(&self) -> &[usize] {
        &self.coeff_dims
    }

    /// Fingerprint of the physics (operator ⊕ boundary ⊕ forcing) this
    /// snapshot serves — folded into every prediction-cache key.
    pub fn loss_fingerprint(&self) -> u64 {
        self.loss.fingerprint()
    }

    /// Rasterizes one ω vector at the serving resolution, expanding
    /// scalars to component-major tensor planes when the snapshot's
    /// physics is anisotropic.
    fn rasterize(&self, omega: &[f64]) -> Tensor {
        let scalar = self.diffusivity.rasterize(omega, &self.resolution);
        match self.aniso {
            None => scalar,
            Some(a) => tensorize(&scalar, a, &self.resolution),
        }
    }

    /// Whether predictions on this snapshot run lock-free (a shared
    /// [`InferModel`] view) or serialize on an exclusive replica.
    pub fn is_lock_free(&self) -> bool {
        self.spatial.is_none()
            && matches!(
                self.model,
                SnapshotModel::Shared(_) | SnapshotModel::SharedF32(_)
            )
    }

    /// The numeric policy this snapshot serves at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Entries currently held by this snapshot's cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Per-shard cache statistics of this snapshot.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Engine-lifetime serving counters (shared across snapshot
    /// generations).
    ///
    /// The prepack fields are this snapshot's own: its slab model's panel
    /// packs and reuses.
    pub fn stats(&self) -> ServeStats {
        let prepack = match self.spatial.as_ref().and_then(|sp| sp.weights.as_ref()) {
            Some(SlabWeights::F64(m)) => m.prepack_stats(),
            Some(SlabWeights::F32(m)) => m.prepack_stats(),
            None => PrepackStats::default(),
        };
        ServeStats {
            prepack_builds: prepack.builds,
            prepack_reuses: prepack.reuses,
            ..self.stats.snapshot()
        }
    }

    /// Predicts the solution field for one raw coefficient field ν shaped
    /// like [`Self::resolution`]. Boundary values are imposed exactly.
    /// Callable concurrently from any number of threads.
    pub fn predict(&self, coeff: &Tensor) -> MgdResult<Arc<Tensor>> {
        Ok(self
            .predict_views(&[ReqView::Coeff(coeff)])?
            .pop()
            .expect("one output"))
    }

    /// Predicts solution fields for N coefficient fields in **one** network
    /// forward pass (cache hits excluded).
    pub fn predict_batch(&self, coeffs: &[Tensor]) -> MgdResult<Vec<Arc<Tensor>>> {
        let views: Vec<ReqView<'_>> = coeffs.iter().map(ReqView::Coeff).collect();
        self.predict_views(&views)
    }

    /// Predicts the solution for one typed request.
    pub fn predict_request(&self, req: &InferenceRequest) -> MgdResult<Arc<Tensor>> {
        Ok(self
            .predict_views(&[req.view()])?
            .pop()
            .expect("one output"))
    }

    /// Predicts solutions for N typed requests in one forward pass (cache
    /// hits excluded) — the entry point the micro-batching queue feeds.
    pub fn predict_requests(&self, reqs: &[InferenceRequest]) -> MgdResult<Vec<Arc<Tensor>>> {
        let views: Vec<ReqView<'_>> = reqs.iter().map(InferenceRequest::view).collect();
        self.predict_views(&views)
    }

    /// The learned strategy certified solves on this snapshot start from.
    pub fn hybrid_strategy(&self) -> StrategyKind {
        self.hybrid_strategy
    }

    /// The default certified-solve tolerance this snapshot was built with
    /// (used by serving paths that carry no explicit tolerance).
    pub fn certify_tol(&self) -> f64 {
        self.certify_tol
    }

    /// Solves one request to a **certified** relative residual tolerance.
    ///
    /// Unlike [`Self::predict`] — one forward pass, no error bound — this
    /// assembles the true FEM operator `K(ν)` for the request's
    /// coefficient field and runs the configured `mgd_hybrid` strategy
    /// (network inference seeding or correcting an MG-PCG iteration) under
    /// the certified driver: the true residual `‖rhs − K u‖` is recomputed
    /// from scratch after every outer step, and the solve demotes to pure
    /// FEM multigrid whenever the learned component stalls, is unavailable,
    /// or emits non-finite values. The returned [`CertifiedSolution`]
    /// always carries the recomputed residual norm of the returned field.
    ///
    /// Callable concurrently from any number of threads, like the whole
    /// snapshot surface. Network predictions made inside the solve go
    /// through [`Self::predict`] and therefore hit the prediction cache.
    pub fn solve_certified(
        &self,
        req: &InferenceRequest,
        tol: f64,
    ) -> MgdResult<CertifiedSolution> {
        if !(tol.is_finite() && tol > 0.0) {
            return Err(MgdError::InvalidConfig(format!(
                "certified-solve tol must be finite and positive (got {tol})"
            )));
        }
        self.validate(0, &req.view())?;
        let nu: Vec<f64> = match req {
            InferenceRequest::Coeff(c) => c.as_slice().to_vec(),
            InferenceRequest::Omega(o) => self.rasterize(o).as_slice().to_vec(),
        };
        // Assemble the operator the snapshot was trained for — certified
        // residuals are measured against the *same* physics (operator,
        // boundary data, forcing) the loss discretizes.
        let sys = ErasedSystem::with_operator(
            &self.resolution,
            self.loss.op(),
            &nu,
            &self.loss.boundary_spec(),
        )?;
        let rhs = match self.loss.forcing() {
            None => None,
            Some(f) => Some(sys.load_vector(f)?),
        };
        let hier = ErasedHierarchy::build_with_precision(
            &sys,
            HierarchyOptions::default(),
            self.precision,
        )?;
        let surrogate = SnapshotSurrogate { snap: self };
        let opts = CertifyOptions {
            tol,
            stall: self.stall,
            ..Default::default()
        };
        Ok(solve_certified(
            &sys,
            &hier,
            &surrogate,
            self.hybrid_strategy,
            rhs.as_deref(),
            &opts,
        ))
    }

    /// Validates one request view; `i` is its batch slot for error
    /// reporting.
    fn validate(&self, i: usize, req: &ReqView<'_>) -> MgdResult<()> {
        match req {
            ReqView::Coeff(c) => {
                if c.dims() != &self.coeff_dims[..] {
                    return Err(MgdError::ShapeMismatch {
                        expected: self.coeff_dims.clone(),
                        got: c.dims().to_vec(),
                    });
                }
                // Reject NaN/∞ *before* keying: quantization cannot
                // represent them faithfully (a NaN coefficient must never
                // alias a valid field's cache entry), and the network would
                // only propagate the poison anyway.
                if c.has_non_finite() {
                    let bad = c
                        .as_slice()
                        .iter()
                        .copied()
                        .find(|v| !v.is_finite())
                        .unwrap_or(f64::NAN);
                    return Err(MgdError::NonFiniteInput {
                        index: i,
                        value: bad,
                    });
                }
            }
            ReqView::Omega(o) => {
                if o.len() != self.diffusivity.num_modes() {
                    return Err(MgdError::Field(FieldError::OmegaDimMismatch {
                        got: o.len(),
                        expected: self.diffusivity.num_modes(),
                    }));
                }
                if let Some(&bad) = o.iter().find(|v| !v.is_finite()) {
                    return Err(MgdError::NonFiniteInput {
                        index: i,
                        value: bad,
                    });
                }
            }
        }
        Ok(())
    }

    /// The serving core: validate → probe cache → dedup misses → one
    /// forward over the unique misses → impose BCs → fill + cache.
    fn predict_views(&self, reqs: &[ReqView<'_>]) -> MgdResult<Vec<Arc<Tensor>>> {
        if reqs.is_empty() {
            return Err(MgdError::Field(FieldError::Empty));
        }
        for (i, req) in reqs.iter().enumerate() {
            self.validate(i, req)?;
        }
        let physics = self.loss.fingerprint();
        let keys: Vec<CacheKey> = reqs.iter().map(|r| CacheKey::of(r, physics)).collect();
        let mut outputs: Vec<Option<Arc<Tensor>>> = Vec::with_capacity(reqs.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.cache.get(key) {
                Some(hit) => outputs.push(Some(hit.to_f64())),
                None => {
                    outputs.push(None);
                    miss_idx.push(i);
                }
            }
        }
        if !miss_idx.is_empty() {
            // Deduplicate identical requests inside the batch: solve each
            // distinct field once.
            let mut unique: Vec<usize> = Vec::new();
            for &i in &miss_idx {
                if !unique.iter().any(|&u| keys[u] == keys[i]) {
                    unique.push(i);
                }
            }
            let ncomp = self.loss.ncomp();
            let encoded: Vec<Tensor> = unique
                .iter()
                .map(|&i| match &reqs[i] {
                    ReqView::Coeff(c) => self.encoding.encode_coeff(c, ncomp),
                    ReqView::Omega(o) => self.encoding.encode_coeff(&self.rasterize(o), ncomp),
                })
                .collect();
            let x = stack_fields_with(&encoded, self.resolution.len()).map_err(MgdError::Field)?;
            let mut u = self.forward(&x)?;
            self.loss.apply_bc_batch(&mut u);
            self.stats.forward_passes.fetch_add(1, Ordering::Relaxed);
            self.stats
                .predicted_fields
                .fetch_add(unique.len() as u64, Ordering::Relaxed);
            let vol: usize = self.resolution.iter().product();
            let solved: Vec<Arc<Tensor>> = unique
                .iter()
                .enumerate()
                .map(|(slot, _)| {
                    Arc::new(Tensor::from_vec(
                        self.resolution.clone(),
                        u.as_slice()[slot * vol..(slot + 1) * vol].to_vec(),
                    ))
                })
                .collect();
            for (field, &i) in solved.iter().zip(&unique) {
                let value = match self.precision {
                    Precision::F64 => CachedField::F64(Arc::clone(field)),
                    // The output came through an f32 forward, so the f32
                    // image is lossless and halves the entry's residency.
                    Precision::F32 | Precision::Mixed => {
                        CachedField::F32(Arc::new(field.cast::<f32>()))
                    }
                };
                self.cache.insert(keys[i].clone(), value);
            }
            // Fill every miss (including intra-batch duplicates) from the
            // solved set, not the cache — caching may be disabled.
            for &i in &miss_idx {
                let slot = unique
                    .iter()
                    .position(|&u| keys[u] == keys[i])
                    .expect("every miss has a unique representative");
                outputs[i] = Some(Arc::clone(&solved[slot]));
            }
        }
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("all slots filled"))
            .collect())
    }

    /// One batched network forward: lock-free through the shared
    /// [`InferModel`] view, through the exclusive replica otherwise, or —
    /// under spatial parallelism — slab-decomposed with halo exchange.
    fn forward(&self, x: &Tensor) -> MgdResult<Tensor> {
        if let Some(sp) = &self.spatial {
            return self.forward_spatial(x, sp);
        }
        match &self.model {
            SnapshotModel::Shared(m) => {
                let mut ws = self.ws_pool.acquire(&self.stats);
                let out = m.infer(x, &mut ws);
                self.ws_pool.release(ws);
                Ok(out)
            }
            SnapshotModel::SharedF32(m) => {
                // One demotion at the batch boundary, one (exact) promotion
                // on the way out — everything in between runs the f32 SIMD
                // microkernels.
                let x32 = x.cast::<f32>();
                let mut ws = self.ws_pool32.acquire(&self.stats);
                let out = m.infer(&x32, &mut ws);
                self.ws_pool32.release(ws);
                Ok(out.cast::<f64>())
            }
            SnapshotModel::Exclusive(m) => Ok(m.lock().expect("model replica poisoned").predict(x)),
        }
    }

    /// Slab-decomposed forward over `sp.ranks` in-process ranks with halo
    /// exchange; bitwise identical (f64) / rounding-equivalent (f32) to
    /// the serial forward at the same precision. Batches larger than one
    /// split across `sp.lanes` concurrent slab forwards
    /// (`Parallelism::Grid`), each lane acquiring its own persistent rank
    /// pool.
    fn forward_spatial(&self, x: &Tensor, sp: &SpatialServe) -> MgdResult<Tensor> {
        if sp.weights.is_none() {
            return self.forward_spatial_replicas(x, sp);
        }
        let dims = x.dims();
        let batch = dims[0];
        let lanes = sp.lanes.min(batch).max(1);
        if lanes <= 1 {
            return self.forward_spatial_lane(x, sp);
        }
        // Grid mode: contiguous batch chunks, one concurrent lane each.
        let sample_vol: usize = dims[1..].iter().product();
        let xs = x.as_slice();
        let (base, rem) = (batch / lanes, batch % lanes);
        let mut chunks: Vec<Tensor> = Vec::with_capacity(lanes);
        let mut start = 0usize;
        for lane in 0..lanes {
            let n = base + usize::from(lane < rem);
            let mut cdims = dims.to_vec();
            cdims[0] = n;
            chunks.push(Tensor::from_vec(
                cdims,
                xs[start * sample_vol..(start + n) * sample_vol].to_vec(),
            ));
            start += n;
        }
        let outs: Vec<MgdResult<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| s.spawn(move || self.forward_spatial_lane(chunk, sp)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("spatial lane panicked"))
                .collect()
        });
        let mut out_dims = dims.to_vec();
        out_dims[1] = 1; // single-channel network output
        let mut data: Vec<f64> =
            Vec::with_capacity(batch * out_dims[2..].iter().product::<usize>());
        for out in outs {
            data.extend_from_slice(out?.as_slice());
        }
        Ok(Tensor::from_vec(out_dims, data))
    }

    /// One slab forward through a persistent rank pool and the shared
    /// prepacked weights.
    fn forward_spatial_lane(&self, x: &Tensor, sp: &SpatialServe) -> MgdResult<Tensor> {
        let weights = sp.weights.as_ref().expect("fast path needs shared weights");
        let p = sp.ranks;
        let align = weights.spatial_align().max(1);
        let part = SlabPartition::aligned(self.resolution[0], p, align)
            .map_err(|e| MgdError::InvalidConfig(format!("spatial predict: {e}")))?;
        let dims = x.dims().to_vec();
        let batch = dims[0];
        // [B, C, D, H, W] viewed as [pre, split, post] along z (3D) /
        // y (2D); the coefficient channels (C > 1 for tensor operators)
        // sit slower than the split axis, so they fold into `pre`.
        let layout = if self.three_d {
            SlabLayout {
                pre: batch * dims[1],
                split: dims[2],
                post: dims[3] * dims[4],
            }
        } else {
            SlabLayout {
                pre: batch * dims[1],
                split: dims[3],
                post: dims[4],
            }
        };
        // The network output is single-channel regardless of how many
        // coefficient components went in.
        let mut out_dims = dims.clone();
        out_dims[1] = 1;
        let three_d = self.three_d;
        let opts = sp.opts.clone();
        let mut pool = sp.acquire_pool(&self.stats);
        let out = match weights {
            SlabWeights::F64(m) => {
                let m = Arc::clone(m);
                let x = Arc::new(x.clone());
                let (part, dims2) = (part.clone(), dims.clone());
                let slabs = pool.run(move |comm: &ThreadComm, state: &mut RankState| {
                    let slab = carve_rank_slab(&x, &part, &layout, &dims2, three_d, comm.rank());
                    let out = m.infer_slab(&slab, comm, &mut state.ws, &opts).into_vec();
                    (out, state.ws.measured_peak_elems())
                });
                Tensor::from_vec(out_dims, self.assemble_metered(slabs, batch, layout.post))
            }
            SlabWeights::F32(m) => {
                // One demotion at the batch boundary, one promotion on the
                // way out — the slabs themselves run the f32 kernels.
                let m = Arc::clone(m);
                let x32 = Arc::new(x.cast::<f32>());
                let (part, dims2) = (part.clone(), dims.clone());
                let slabs = pool.run(move |comm: &ThreadComm, state: &mut RankState| {
                    let slab = carve_rank_slab(&x32, &part, &layout, &dims2, three_d, comm.rank());
                    let out = m.infer_slab(&slab, comm, &mut state.ws32, &opts).into_vec();
                    (out, state.ws32.measured_peak_elems())
                });
                Tensor::<f32>::from_vec(out_dims, self.assemble_metered(slabs, batch, layout.post))
                    .cast::<f64>()
            }
        };
        sp.release_pool(pool);
        Ok(out)
    }

    /// Stitches rank-ordered slab outputs, recording the ranks' largest
    /// metered activation peak on the serving stats.
    fn assemble_metered<E: Copy + Default>(
        &self,
        slabs: Vec<(Vec<E>, usize)>,
        batch: usize,
        post: usize,
    ) -> Vec<E> {
        let peak = slabs.iter().map(|(_, p)| *p).max().unwrap_or(0);
        self.stats
            .slab_activation_peak_elems
            .fetch_max(peak as u64, Ordering::Relaxed);
        let slabs: Vec<Vec<E>> = slabs.into_iter().map(|(s, _)| s).collect();
        assemble_planes(&slabs, batch, post)
    }

    /// Fallback spatial forward for injected architectures without a
    /// `&self` slab path: mutex-guarded exclusive replicas, fresh ranks
    /// per request.
    fn forward_spatial_replicas(&self, x: &Tensor, sp: &SpatialServe) -> MgdResult<Tensor> {
        let mut replicas = sp.replicas.lock().expect("spatial replicas poisoned");
        let p = sp.ranks;
        let align = replicas[0].spatial_align();
        let part = SlabPartition::aligned(self.resolution[0], p, align.max(1))
            .map_err(|e| MgdError::InvalidConfig(format!("spatial predict: {e}")))?;
        let dims = x.dims();
        let batch = dims[0];
        let layout = if self.three_d {
            SlabLayout {
                pre: batch * dims[1],
                split: dims[2],
                post: dims[3] * dims[4],
            }
        } else {
            SlabLayout {
                pre: batch * dims[1],
                split: dims[3],
                post: dims[4],
            }
        };
        let jobs: Vec<(Box<dyn Model>, Tensor)> = std::mem::take(&mut *replicas)
            .into_iter()
            .enumerate()
            .map(|(r, replica)| {
                let owned = part.owned_planes(r);
                let data = carve_planes(x.as_slice(), &layout, owned.start, owned.end);
                let sdims = if self.three_d {
                    vec![batch, dims[1], owned.len(), dims[3], dims[4]]
                } else {
                    vec![batch, dims[1], 1, owned.len(), dims[4]]
                };
                (replica, Tensor::from_vec(sdims, data))
            })
            .collect();
        self.stats
            .rank_spawns
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let results = launch_with(jobs, |comm, (mut replica, slab)| {
            let out = replica.predict_slab(&slab, &comm);
            (replica, out)
        });
        let mut slabs = Vec::with_capacity(p);
        for (replica, out) in results {
            replicas.push(replica);
            slabs.push(
                out.ok_or_else(|| {
                    MgdError::InvalidConfig(
                        "model stopped supporting slab-decomposed inference".into(),
                    )
                })?
                .into_vec(),
            );
        }
        let mut out_dims = dims.to_vec();
        out_dims[1] = 1; // single-channel network output
        Ok(Tensor::from_vec(
            out_dims,
            assemble_planes(&slabs, batch, layout.post),
        ))
    }
}

/// Carves rank `r`'s owned slab of the (shared) full input field.
fn carve_rank_slab<E: Element>(
    x: &Tensor<E>,
    part: &SlabPartition,
    layout: &SlabLayout,
    dims: &[usize],
    three_d: bool,
    r: usize,
) -> Tensor<E> {
    let owned = part.owned_planes(r);
    let data = carve_planes(x.as_slice(), layout, owned.start, owned.end);
    let sdims = if three_d {
        vec![dims[0], dims[1], owned.len(), dims[3], dims[4]]
    } else {
        vec![dims[0], dims[1], 1, owned.len(), dims[4]]
    };
    Tensor::from_vec(sdims, data)
}

/// The ArcSwap-style publication point connecting the training side to the
/// serving side.
///
/// The engine `store`s a new `Arc<EngineSnapshot>` after every weight
/// change; serving threads `load` the current one (a short read-lock to
/// bump the refcount) and then predict lock-free on it for as long as they
/// like. A swap never invalidates in-flight work — readers of the old
/// snapshot finish on the old weights, and the old snapshot is freed when
/// its last reader drops it.
pub struct SnapshotCell {
    slot: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `snapshot`.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        SnapshotCell {
            slot: RwLock::new(snapshot),
        }
    }

    /// The currently published snapshot.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot cell poisoned"))
    }

    /// Atomically publishes a new snapshot; subsequent `load`s see it.
    pub fn store(&self, snapshot: Arc<EngineSnapshot>) {
        *self.slot.write().expect("snapshot cell poisoned") = snapshot;
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("current", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_field(v: f64) -> Arc<Tensor> {
        Arc::new(Tensor::full([2, 2], v))
    }

    fn key_of(v: f64) -> CacheKey {
        CacheKey::coeff(&Tensor::full([2, 2], v), 0)
    }

    #[test]
    fn cache_key_does_not_saturate_on_huge_values() {
        // The old `(v * 1e9).round() as i64` saturated every value beyond
        // ~9.2e9 to i64::MAX, so distinct huge coefficient fields collided
        // onto one cache entry. The float-domain key keeps them apart.
        let a = Tensor::from_vec([2, 2], vec![1.0e10, 1.0, 1.0, 1.0]);
        let b = Tensor::from_vec([2, 2], vec![2.0e10, 1.0, 1.0, 1.0]);
        assert_ne!(
            CacheKey::coeff(&a, 0),
            CacheKey::coeff(&b, 0),
            "values past the old i64 saturation point must keep distinct keys"
        );
        // Sub-resolution jitter still lands on the same key (the cache's
        // reason to exist), including across the ±0.0 boundary.
        let c = Tensor::from_vec([2, 2], vec![1.0e10, 1.0 + 1e-12, 1.0, 1.0]);
        assert_eq!(CacheKey::coeff(&a, 0), CacheKey::coeff(&c, 0));
        let z_pos = Tensor::from_vec([1, 2], vec![0.0, 1.0]);
        let z_neg = Tensor::from_vec([1, 2], vec![-1e-12, 1.0]);
        assert_eq!(CacheKey::coeff(&z_pos, 0), CacheKey::coeff(&z_neg, 0));
        // Even past f64's own v*1e9 overflow point (~1.8e299) distinct
        // values keep distinct keys, and the tagged fallback keyspace
        // cannot alias a quantized value with the same bit pattern.
        let h1 = Tensor::from_vec([1, 2], vec![1.0e300, 1.0]);
        let h2 = Tensor::from_vec([1, 2], vec![2.0e300, 1.0]);
        assert_ne!(CacheKey::coeff(&h1, 0), CacheKey::coeff(&h2, 0));
        let overflow = Tensor::from_vec([1, 1], vec![1.0e300]);
        let quantized_twin = Tensor::from_vec([1, 1], vec![1.0e300 / 1e9]);
        assert_ne!(
            CacheKey::coeff(&overflow, 0),
            CacheKey::coeff(&quantized_twin, 0),
            "tagged fallback must not alias round(v*1e9) of a smaller value"
        );
    }

    #[test]
    fn omega_keys_normalize_negative_zero_and_stay_typed() {
        assert_eq!(
            CacheKey::omega(&[0.0, 1.0], 0),
            CacheKey::omega(&[-0.0, 1.0], 0)
        );
        assert_ne!(CacheKey::omega(&[1.0], 0), CacheKey::omega(&[2.0], 0));
        // An Omega key can never alias a Coeff key (different variants).
        let t = Tensor::from_vec([1, 1], vec![1.0]);
        assert_ne!(CacheKey::coeff(&t, 0), CacheKey::omega(&[1.0], 0));
    }

    #[test]
    fn physics_fingerprint_keeps_identical_fields_apart() {
        use crate::loss::LossSpec;
        use mgd_fem::PdeOperator;
        // The same coefficient payload under different physics must mint
        // different keys — the satellite guarantee that a cache can never
        // serve a Poisson solution to an anisotropic query (or a query
        // under different boundary data).
        let poisson = FemLoss::new(&[8, 8]).unwrap();
        let aniso = FemLoss::with_spec(
            &[8, 8],
            &LossSpec {
                op: PdeOperator::AnisoDiffusion,
                ..LossSpec::default()
            },
        )
        .unwrap();
        let all_faces = FemLoss::with_spec(
            &[8, 8],
            &LossSpec {
                boundary: mgd_fem::BoundarySpec::AllFaces { value: 0.0 },
                ..LossSpec::default()
            },
        )
        .unwrap();
        assert_ne!(poisson.fingerprint(), aniso.fingerprint());
        assert_ne!(poisson.fingerprint(), all_faces.fingerprint());
        let t = Tensor::full([2, 2], 1.5);
        assert_ne!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, aniso.fingerprint())
        );
        assert_ne!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, all_faces.fingerprint())
        );
        assert_ne!(
            CacheKey::omega(&[1.0], poisson.fingerprint()),
            CacheKey::omega(&[1.0], aniso.fingerprint())
        );
        // Same physics → same key (the fingerprint is deterministic).
        let poisson2 = FemLoss::new(&[8, 8]).unwrap();
        assert_eq!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, poisson2.fingerprint())
        );
    }

    #[test]
    fn shard_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for v in 0..32 {
                let k = key_of(v as f64);
                let s = k.shard(shards);
                assert!(s < shards);
                assert_eq!(s, k.shard(shards), "deterministic");
            }
        }
    }

    #[test]
    fn single_shard_cache_is_exact_lru() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(2, 1, Arc::clone(&stats));
        cache.insert(key_of(0.0), arc_field(0.0));
        cache.insert(key_of(1.0), arc_field(1.0));
        assert!(cache.get(&key_of(0.0)).is_some()); // refresh 0
        cache.insert(key_of(2.0), arc_field(2.0)); // evicts 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key_of(1.0)).is_none(), "1 was the LRU");
        assert!(cache.get(&key_of(0.0)).is_some());
        assert!(cache.get(&key_of(2.0)).is_some());
        let s = stats.snapshot();
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn sharded_cache_spreads_keys_and_counts_per_shard() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(64, 8, Arc::clone(&stats));
        assert_eq!(cache.num_shards(), 8);
        for v in 0..32 {
            cache.insert(key_of(v as f64), arc_field(v as f64));
        }
        assert_eq!(cache.len(), 32);
        // Keys spread over more than one shard (FNV would have to collide
        // 32 distinct fields into one bucket otherwise).
        let occupied = cache.shard_stats().iter().filter(|s| s.len > 0).count();
        assert!(occupied > 1, "all 32 keys landed in one shard");
        // Hits count on the right shard.
        assert!(cache.get(&key_of(3.0)).is_some());
        assert!(cache.get(&key_of(999.0)).is_none());
        let shard_hits: u64 = cache.shard_stats().iter().map(|s| s.hits).sum();
        let shard_misses: u64 = cache.shard_stats().iter().map(|s| s.misses).sum();
        assert_eq!(shard_hits, 1);
        assert_eq!(shard_misses, 1);
        assert_eq!(stats.snapshot().cache_hits, 1);
        assert_eq!(stats.snapshot().cache_misses, 1);
        // Total shard capacity equals the requested capacity.
        let total: usize = cache.shard_stats().iter().map(|s| s.capacity).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(0, 0, stats);
        cache.insert(key_of(1.0), arc_field(1.0));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key_of(1.0)).is_none());
    }

    #[test]
    fn auto_shards_scale_with_capacity() {
        assert_eq!(PredictionCache::auto_shards(0), 1);
        assert_eq!(PredictionCache::auto_shards(2), 1);
        assert_eq!(PredictionCache::auto_shards(64), 8);
        assert_eq!(PredictionCache::auto_shards(10_000), 8);
        // More shards than entries degrades to one entry per shard, never
        // to zero-capacity shards that would silently drop inserts.
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(4, 16, stats);
        assert_eq!(cache.num_shards(), 4);
        assert!(cache.shard_stats().iter().all(|s| s.capacity == 1));
    }

    #[test]
    fn concurrent_cache_access_is_safe() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = Arc::new(PredictionCache::new(64, 8, Arc::clone(&stats)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..100 {
                        let v = ((t * 100 + i) % 40) as f64;
                        if cache.get(&key_of(v)).is_none() {
                            cache.insert(key_of(v), arc_field(v));
                        }
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, 400, "every probe counted");
        assert!(cache.len() <= 64);
    }
}
