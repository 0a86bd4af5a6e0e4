//! First-party serving telemetry: lock-free latency histograms,
//! per-stage span accounting, per-structure query-dimension heatmaps,
//! and a bounded slow-request ring.
//!
//! Everything here is plain `std` — no network, no serialization — so
//! the serving layer can record on its hot path with nothing but atomic
//! adds, and the protocol layer renders snapshots into the
//! `metrics`/`trace` responses separately.
//!
//! # Recording model
//!
//! * **Histograms** ([`LatencyHistogram`]) are log-linear in the
//!   HdrHistogram family: 2 sub-buckets per octave across the full
//!   `u64` nanosecond range (128 buckets total), every bucket an
//!   `AtomicU64`. Recording is two relaxed atomic adds plus an atomic
//!   max — safe from any number of threads, wait-free, and never
//!   allocating. A [`HistogramSnapshot`] is mergeable, so per-lane
//!   histograms roll up into whole-server percentiles.
//! * **Lanes** separate *who recorded*: lane 0 is the inline lane (the
//!   stdin pump and any other unbound caller, such as
//!   `Server::handle_line`), and lanes `1..=shards` belong to the TCP
//!   shard event loops. A thread binds its lane once ([`Telemetry::bind_lane`]) and every
//!   later record on that thread lands there — no lookup, no contention
//!   between lanes.
//! * **Stages** ([`Stage`]) split one request's wall time along the
//!   serving path: `recv → parse → dispatch → index/cache → render →
//!   write`. `recv`/`write` are per-socket-drain spans measured
//!   by the shard event loops; the rest are per-request.
//! * **Per-structure records** keep, under one name-keyed map, the
//!   tally of answered vectors and the dimension heat grid. The tally is
//!   counted whatever the telemetry knob says (`stats` reports it); the
//!   grid ([`StructureHeat`]) exists only while telemetry is on. It
//!   buckets each answered dimension vector axis-wise against the
//!   structure's designer bounds on a fixed [`HEAT_BINS`]-bin grid — the
//!   observed query-dimension distribution that traffic-adaptive
//!   refinement reads. Recording one vector is one read-locked name
//!   lookup plus atomic adds; the write lock is taken only the first
//!   time a name is seen.
//! * **The slow ring** ([`SlowRing`]) keeps the N worst requests by
//!   total time with their full stage breakdown, behind an atomic floor
//!   so the common (fast) request never takes its lock.
//!
//! # Consistency model
//!
//! Counters and buckets are monotonic and individually atomic; a
//! snapshot taken mid-traffic is a valid histogram but not a globally
//! atomic cut (a request recording concurrently may appear in one stage
//! and not yet in another). Percentiles report the **upper bound** of
//! the bucket holding the requested rank, so a reported p99 is an "at
//! most" figure with ≤ half-octave (≈41%) resolution error, never an
//! underestimate of the bucket's true range.

use crate::lock_recover;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Instant;

/// Number of per-request pipeline stages ([`Stage`] variants).
pub const STAGE_COUNT: usize = 7;

/// Histogram bucket count: values 0–3 exactly, then 2 sub-buckets per
/// octave up to `u64::MAX` (4 + 62 octaves × 2).
pub const HISTOGRAM_BUCKETS: usize = 128;

/// Fixed per-axis bin count of a [`StructureHeat`] dimension grid.
pub const HEAT_BINS: usize = 8;

/// One stage of the request path. `Recv`/`Write` are measured by the
/// shard event loops around socket reads/writes (per drain, spanning
/// however many requests a readiness event carried); `Parse` by
/// admission; `Dispatch` wraps one request's handling, with `Index`,
/// `Cache` and `Render` as its interior spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Socket read syscalls (shard event loops only).
    Recv = 0,
    /// Request-line parsing (`parse_envelope`).
    Parse = 1,
    /// One request's whole dispatch (contains index/cache/render).
    Dispatch = 2,
    /// Compiled-index query / placement materialization.
    Index = 3,
    /// Answer-cache lookup.
    Cache = 4,
    /// Response rendering (JSON line or binary frame encoding).
    Render = 5,
    /// Socket write syscalls (shard event loops only).
    Write = 6,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Recv,
        Stage::Parse,
        Stage::Dispatch,
        Stage::Index,
        Stage::Cache,
        Stage::Render,
        Stage::Write,
    ];

    /// The stage's wire spelling in `metrics`/`trace` responses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Parse => "parse",
            Stage::Dispatch => "dispatch",
            Stage::Index => "index",
            Stage::Cache => "cache",
            Stage::Render => "render",
            Stage::Write => "write",
        }
    }
}

/// Bucket index for a recorded value: exact below 4, then
/// `4 + (msb - 2) * 2 + next_bit` — two buckets per octave.
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 2 here
    4 + (msb - 2) * 2 + ((v >> (msb - 1)) & 1) as usize
}

/// Inclusive upper bound of bucket `i` (what percentiles report).
fn bucket_bound(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let octave = (i - 4) / 2;
    let sub = ((i - 4) % 2) as u64;
    let msb = octave + 2;
    let width = 1u64 << (msb - 1);
    (1u64 << msb) + sub * width + (width - 1)
}

/// A lock-free log-linear latency histogram (nanosecond domain): ~2
/// buckets per octave across the whole `u64` range, every bucket an
/// `AtomicU64`. Recording is wait-free; snapshots are mergeable and
/// answer p50/p99/p999 as bucket upper bounds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (three relaxed atomic operations; callable from
    /// any number of threads concurrently).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Not a globally atomic cut under concurrent
    /// recording (see the module docs), but every bucket value is a
    /// value that was truly stored, and the snapshot's derived count is
    /// internally consistent (computed from the copied buckets).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`LatencyHistogram`]: mergeable, queryable for
/// percentiles, cheap to pass around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Recorded sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucket-rounded).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another snapshot in. Merging is commutative and
    /// associative: per-lane histograms roll up in any order to the
    /// same whole-server distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `p` (0 < p <= 1) as the inclusive upper
    /// bound of the bucket holding that rank — an "at most" figure with
    /// half-octave resolution, never below the true value's bucket.
    /// Returns 0 on an empty snapshot.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, in value
    /// order — the compact wire form of the distribution.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_bound(i), n))
            .collect()
    }
}

/// Per-request stage durations, accumulated on the stack while one
/// request is dispatched, then recorded into the thread's lane in one
/// go. Plain data — nothing here is shared.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTrace {
    ns: [u64; STAGE_COUNT],
}

impl StageTrace {
    /// Adds `ns` to one stage's span.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.ns[stage as usize] += ns;
    }

    /// One stage's accumulated span.
    #[must_use]
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// The request's total wall time: parse + dispatch (index/cache/
    /// render are interior to dispatch and not re-added).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.get(Stage::Parse) + self.get(Stage::Dispatch)
    }
}

/// One lane's per-stage histograms (see the module docs for the lane
/// model).
#[derive(Debug)]
pub struct LaneStats {
    stages: [LatencyHistogram; STAGE_COUNT],
}

impl LaneStats {
    fn new() -> Self {
        Self {
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// One stage's histogram.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }
}

/// One worst-request record: what the request was and where its time
/// went, stage by stage.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The request kind as spelled on the wire.
    pub kind: &'static str,
    /// The addressed structure, when the request had one.
    pub structure: Option<String>,
    /// The pipelining tag, when the request carried one.
    pub req: Option<u64>,
    /// Total request time (parse + dispatch).
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed by [`Stage`].
    pub stages: [u64; STAGE_COUNT],
    /// Milliseconds since the server started, at record time.
    pub at_ms: u64,
}

/// A bounded ring of the N slowest requests seen since the last drain.
/// An atomic floor (the minimum total among the kept entries, once
/// full) lets the hot path skip the lock for every request faster than
/// the current worst set — the common case by construction.
#[derive(Debug)]
pub struct SlowRing {
    capacity: usize,
    floor: AtomicU64,
    entries: Mutex<Vec<TraceEntry>>,
}

impl SlowRing {
    /// A ring keeping the `capacity` worst requests.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// How many entries the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a request with this total would currently enter the ring:
    /// one relaxed load, no lock. A cheap pre-check for callers that
    /// would otherwise build a [`TraceEntry`] just to have [`offer`]
    /// discard it — a yes is a hint (`offer` re-checks under the lock),
    /// a no is final for this total.
    ///
    /// [`offer`]: SlowRing::offer
    #[must_use]
    pub fn admits(&self, total_ns: u64) -> bool {
        self.capacity > 0 && total_ns > self.floor.load(Ordering::Relaxed)
    }

    /// Offers one request record; it is kept only while it ranks among
    /// the `capacity` worst. Requests at or below the floor return
    /// without taking the lock.
    pub fn offer(&self, entry: TraceEntry) {
        if !self.admits(entry.total_ns) {
            return;
        }
        let mut entries = lock_recover(&self.entries);
        if entries.len() >= self.capacity {
            // Evict the current minimum, then re-derive the floor.
            let (min_idx, min_total) = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.total_ns))
                .min_by_key(|&(_, t)| t)
                .expect("ring at capacity is non-empty");
            if entry.total_ns <= min_total {
                return; // raced below the floor; keep the incumbent
            }
            entries.swap_remove(min_idx);
        }
        entries.push(entry);
        if entries.len() >= self.capacity {
            let new_floor = entries
                .iter()
                .map(|e| e.total_ns)
                .min()
                .expect("ring at capacity is non-empty");
            self.floor.store(new_floor, Ordering::Relaxed);
        }
    }

    /// Takes every kept entry, worst first, and resets the ring.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEntry> {
        let mut entries = std::mem::take(&mut *lock_recover(&self.entries));
        self.floor.store(0, Ordering::Relaxed);
        entries.sort_by_key(|entry| std::cmp::Reverse(entry.total_ns));
        entries
    }
}

/// Axis-wise dimension histogram for one structure: each block's `w`
/// and `h` query values are bucketed on a fixed [`HEAT_BINS`]-bin grid
/// spanning the designer bounds (out-of-bounds values clamp to the edge
/// bins). Purely additive atomics — recorded from every dispatch path,
/// including cache hits.
#[derive(Debug)]
pub struct StructureHeat {
    /// Per block: `(w_lo, w_hi, h_lo, h_hi)` designer bounds.
    bounds: Vec<(i64, i64, i64, i64)>,
    /// `blocks * 2 * HEAT_BINS` counters: block-major, `w` bins then
    /// `h` bins.
    bins: Vec<AtomicU64>,
    total: AtomicU64,
}

/// One axis bin: `(v - lo) * HEAT_BINS / span`, clamped into the grid.
fn heat_bin(v: i64, lo: i64, hi: i64) -> usize {
    if hi <= lo {
        return 0;
    }
    let span = i128::from(hi) - i128::from(lo) + 1;
    let offset = i128::from(v) - i128::from(lo);
    let bin = offset * HEAT_BINS as i128 / span;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let clamped = bin.clamp(0, HEAT_BINS as i128 - 1) as usize;
    clamped
}

impl StructureHeat {
    /// A zeroed grid over `bounds` (one `(w_lo, w_hi, h_lo, h_hi)` per
    /// block).
    #[must_use]
    pub fn new(bounds: Vec<(i64, i64, i64, i64)>) -> Self {
        let bins = (0..bounds.len() * 2 * HEAT_BINS)
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            bounds,
            bins,
            total: AtomicU64::new(0),
        }
    }

    /// Number of blocks the grid covers.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.bounds.len()
    }

    /// Records one queried dimension vector. Vectors whose arity does
    /// not match the grid are ignored (the server has already refused
    /// them with a typed error).
    pub fn record(&self, dims: &[(i64, i64)]) {
        if dims.len() != self.bounds.len() {
            return;
        }
        for (i, (&(w, h), &(w_lo, w_hi, h_lo, h_hi))) in dims.iter().zip(&self.bounds).enumerate() {
            let base = i * 2 * HEAT_BINS;
            self.bins[base + heat_bin(w, w_lo, w_hi)].fetch_add(1, Ordering::Relaxed);
            self.bins[base + HEAT_BINS + heat_bin(h, h_lo, h_hi)].fetch_add(1, Ordering::Relaxed);
        }
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the grid.
    #[must_use]
    pub fn snapshot(&self) -> HeatSnapshot {
        let blocks = (0..self.bounds.len())
            .map(|i| {
                let base = i * 2 * HEAT_BINS;
                let w = std::array::from_fn(|b| self.bins[base + b].load(Ordering::Relaxed));
                let h = std::array::from_fn(|b| {
                    self.bins[base + HEAT_BINS + b].load(Ordering::Relaxed)
                });
                (w, h)
            })
            .collect();
        HeatSnapshot {
            total: self.total.load(Ordering::Relaxed),
            blocks,
        }
    }
}

/// A frozen copy of one [`StructureHeat`] grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatSnapshot {
    /// Vectors recorded in total.
    pub total: u64,
    /// Per block: the `w`-axis bins, then the `h`-axis bins.
    pub blocks: Vec<([u64; HEAT_BINS], [u64; HEAT_BINS])>,
}

/// One structure's entry in the [`Telemetry`] record map: the tally of
/// answered vectors (always counted) and, only while telemetry is on,
/// their dimension heat grid.
#[derive(Debug)]
struct StructureRecord {
    vectors: AtomicU64,
    heat: Option<StructureHeat>,
}

impl StructureRecord {
    fn record<V: AsRef<[(i64, i64)]>>(&self, vectors: &[V]) {
        self.vectors
            .fetch_add(vectors.len() as u64, Ordering::Relaxed);
        if let Some(heat) = &self.heat {
            for dims in vectors {
                heat.record(dims.as_ref());
            }
        }
    }
}

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(0) };
}

/// The server-wide telemetry hub: per-lane per-stage histograms, the
/// per-structure records (tallies and heat grids), and the slow-request
/// ring. One instance per [`Server`](crate::Server), shared by every
/// serving thread.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// Lane 0 = inline; `1..=shards` = shard event loops.
    lanes: Vec<LaneStats>,
    // BTreeMap, not HashMap: the keys are a handful of short structure
    // names, and 3-4 string compares beat SipHashing the name on every
    // answered vector.
    structures: RwLock<BTreeMap<String, StructureRecord>>,
    slow: SlowRing,
    started: Instant,
}

impl Telemetry {
    /// A telemetry hub for `shards` shard lanes (plus the inline lane).
    /// With `enabled` false every recording call but the per-structure
    /// tally is a cheap no-op and `metrics` reports `"enabled":false`.
    #[must_use]
    pub fn new(shards: usize, enabled: bool, slow_capacity: usize) -> Self {
        let lanes = (0..1 + shards).map(|_| LaneStats::new()).collect();
        Self {
            enabled,
            lanes,
            structures: RwLock::new(BTreeMap::new()),
            slow: SlowRing::new(slow_capacity),
            started: Instant::now(),
        }
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Milliseconds since this hub (its server) started.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Binds the calling thread to `lane` for every later record on
    /// this thread. Shard loops bind `1 + shard_index`; unbound threads
    /// record on the inline lane 0.
    pub fn bind_lane(&self, lane: usize) {
        LANE.with(|l| l.set(lane));
    }

    /// The calling thread's lane, clamped into range.
    fn current_lane(&self) -> &LaneStats {
        let lane = LANE.with(Cell::get).min(self.lanes.len() - 1);
        &self.lanes[lane]
    }

    /// Human-readable lane name, stable across runs.
    #[must_use]
    pub fn lane_name(&self, lane: usize) -> String {
        if lane == 0 {
            "inline".to_owned()
        } else {
            format!("shard-{}", lane - 1)
        }
    }

    /// How many lanes exist (inline + shards).
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// One lane's stats, for snapshotting.
    #[must_use]
    pub fn lane(&self, lane: usize) -> &LaneStats {
        &self.lanes[lane]
    }

    /// Records one span into the calling thread's lane.
    pub fn record(&self, stage: Stage, ns: u64) {
        if !self.enabled {
            return;
        }
        self.current_lane().stage(stage).record(ns);
    }

    /// Records a completed request's stage spans into the calling
    /// thread's lane: `Dispatch` always (it is the request's presence in
    /// the latency distribution), interior stages only where time was
    /// actually spent. `Parse` is recorded at admission (on the
    /// admitting thread) and deliberately skipped here.
    pub fn record_completion(&self, trace: &StageTrace) {
        if !self.enabled {
            return;
        }
        let lane = self.current_lane();
        lane.stage(Stage::Dispatch)
            .record(trace.get(Stage::Dispatch));
        for stage in [Stage::Index, Stage::Cache, Stage::Render] {
            let ns = trace.get(stage);
            if ns > 0 {
                lane.stage(stage).record(ns);
            }
        }
    }

    /// Offers a completed request to the slow ring. The common (fast)
    /// request fails the floor pre-check and skips the entry build —
    /// including its stage-array copy and uptime clock read — entirely.
    pub fn observe_slow(
        &self,
        kind: &'static str,
        structure: Option<String>,
        req: Option<u64>,
        trace: &StageTrace,
    ) {
        if !self.enabled {
            return;
        }
        let total_ns = trace.total_ns();
        if !self.slow.admits(total_ns) {
            return;
        }
        self.slow.offer(TraceEntry {
            kind,
            structure,
            req,
            total_ns,
            stages: std::array::from_fn(|i| trace.get(Stage::ALL[i])),
            at_ms: self.uptime_ms(),
        });
    }

    /// The slow ring (drained by the `trace` request).
    #[must_use]
    pub fn slow_ring(&self) -> &SlowRing {
        &self.slow
    }

    /// Counts `vectors` answered for `structure` and, with telemetry on,
    /// bins each into the structure's heat grid. The record is created on
    /// first sight, its grid from `bounds` (not called with telemetry
    /// off). Records are keyed by name and survive registry reloads, so
    /// tallies and the observed distribution accumulate across
    /// hot-swaps.
    pub fn record_vectors<V: AsRef<[(i64, i64)]>>(
        &self,
        structure: &str,
        vectors: &[V],
        bounds: impl FnOnce() -> Vec<(i64, i64, i64, i64)>,
    ) {
        if let Some(record) = self
            .structures
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(structure)
        {
            return record.record(vectors);
        }
        let mut map = self
            .structures
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(structure.to_owned())
            .or_insert_with(|| StructureRecord {
                vectors: AtomicU64::new(0),
                heat: self.enabled.then(|| StructureHeat::new(bounds())),
            })
            .record(vectors);
    }

    /// Every structure's answered-vector tally, in name order — recorded
    /// with telemetry on or off.
    #[must_use]
    pub fn tallies(&self) -> BTreeMap<String, u64> {
        self.structures
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, record)| (name.clone(), record.vectors.load(Ordering::Relaxed)))
            .collect()
    }

    /// Every structure's heat grid, frozen, in name order; empty while
    /// telemetry is off.
    #[must_use]
    pub fn heat_snapshot(&self) -> BTreeMap<String, HeatSnapshot> {
        self.structures
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter_map(|(name, record)| Some((name.clone(), record.heat.as_ref()?.snapshot())))
            .collect()
    }

    /// One stage's distribution merged across every lane — the
    /// whole-server histogram the `metrics` response reports per stage.
    #[must_use]
    pub fn merged_stage(&self, stage: Stage) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for lane in &self.lanes {
            merged.merge(&lane.stage(stage).snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic PRNG (xorshift64*), so the percentile
    /// battery needs no external crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        // Every value lands in a bucket whose bound is >= the value,
        // and the previous bucket's bound is < the value.
        let samples = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            15,
            16,
            17,
            1_000,
            1_000_000,
            1_000_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &samples {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS, "index in range for {v}");
            assert!(bucket_bound(i) >= v, "bound({i}) covers {v}");
            if i > 0 {
                assert!(bucket_bound(i - 1) < v, "bucket {i} is tight for {v}");
            }
        }
        // Bounds are strictly increasing: the bucket order is the value
        // order, which is what percentile extraction relies on.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn concurrent_recording_matches_single_thread_totals() {
        let concurrent = LatencyHistogram::new();
        let reference = LatencyHistogram::new();
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let concurrent = &concurrent;
                scope.spawn(move || {
                    let mut rng = XorShift(0x9E37_79B9 + t);
                    for _ in 0..per_thread {
                        concurrent.record(rng.next() % 1_000_000_000);
                    }
                });
            }
        });
        for t in 0..8u64 {
            let mut rng = XorShift(0x9E37_79B9 + t);
            for _ in 0..per_thread {
                reference.record(rng.next() % 1_000_000_000);
            }
        }
        assert_eq!(
            concurrent.snapshot(),
            reference.snapshot(),
            "8-thread recording must lose nothing vs the same stream single-threaded"
        );
        assert_eq!(concurrent.snapshot().count(), 8 * per_thread);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = XorShift(42);
        let parts: Vec<HistogramSnapshot> = (0..3)
            .map(|_| {
                let h = LatencyHistogram::new();
                for _ in 0..500 {
                    h.record(rng.next() % 10_000_000);
                }
                h.snapshot()
            })
            .collect();
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        let mut ab_c = a.clone();
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let mut ba = b.clone();
        ba.merge(a);
        let mut ab = a.clone();
        ab.merge(b);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab_c.count(), a.count() + b.count() + c.count());
    }

    #[test]
    fn percentiles_match_a_sorted_reference_on_random_samples() {
        let mut rng = XorShift(0x00C0_FFEE);
        let hist = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            // Mix magnitudes so every octave regime is exercised.
            let v = match rng.next() % 4 {
                0 => rng.next() % 100,
                1 => rng.next() % 100_000,
                2 => rng.next() % 100_000_000,
                _ => rng.next() % 100_000_000_000,
            };
            samples.push(v);
            hist.record(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 10_000);
        assert_eq!(snap.max(), *samples.last().unwrap());
        for &p in &[0.5, 0.9, 0.99, 0.999, 1.0] {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let reference = samples[rank - 1];
            let got = snap.percentile(p);
            // Exact contract: the reported value is the upper bound of
            // the bucket holding the reference rank...
            assert_eq!(
                got,
                bucket_bound(bucket_index(reference)),
                "p{p}: reference {reference}"
            );
            // ...which bounds the relative error at half an octave.
            assert!(got >= reference);
            assert!(
                got - reference <= reference / 2 + 1,
                "p{p}: {got} vs reference {reference} exceeds half-octave error"
            );
        }
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.percentile(0.999), 0);
        assert_eq!(snap.count(), 0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn heat_grid_buckets_and_clamps() {
        // One block with w in [10, 17] (8 values -> one per bin) and h
        // in [0, 79] (10 values per bin).
        let heat = StructureHeat::new(vec![(10, 17, 0, 79)]);
        for w in 10..=17 {
            heat.record(&[(w, 40)]);
        }
        let snap = heat.snapshot();
        assert_eq!(snap.total, 8);
        assert_eq!(snap.blocks[0].0, [1; HEAT_BINS], "w spreads one per bin");
        assert_eq!(snap.blocks[0].1[4], 8, "h=40 is bin 4 of [0,79]");
        // Out-of-bounds values clamp to the edge bins instead of
        // vanishing: the grid records observed traffic, legal or not.
        heat.record(&[(-100, 1_000_000)]);
        let snap = heat.snapshot();
        assert_eq!(snap.blocks[0].0[0], 2, "low w clamps to bin 0");
        assert_eq!(
            snap.blocks[0].1[HEAT_BINS - 1],
            1,
            "high h clamps to last bin"
        );
        // Arity mismatches are ignored, not miscounted.
        heat.record(&[(1, 1), (2, 2)]);
        assert_eq!(heat.snapshot().total, 9);
    }

    #[test]
    fn slow_ring_keeps_the_worst_and_drains_sorted() {
        let ring = SlowRing::new(4);
        let entry = |total: u64| TraceEntry {
            kind: "query",
            structure: None,
            req: None,
            total_ns: total,
            stages: [0; STAGE_COUNT],
            at_ms: 0,
        };
        for total in [10, 50, 30, 20, 40, 5, 60] {
            ring.offer(entry(total));
        }
        let drained = ring.drain();
        let totals: Vec<u64> = drained.iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![60, 50, 40, 30], "4 worst, worst first");
        // Drain resets: the ring accepts fast requests again.
        ring.offer(entry(1));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn structure_records_sum_exactly_across_threads() {
        let telemetry = Telemetry::new(1, true, 8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let telemetry = &telemetry;
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        telemetry.record_vectors("alpha", &[[(0, 0)]], || vec![(0, 1, 0, 1)]);
                    }
                    telemetry.record_vectors("beta", &[[(1, 1)]; 5], || vec![(0, 1, 0, 1)]);
                });
            }
        });
        let tallies = telemetry.tallies();
        assert_eq!(tallies.get("alpha"), Some(&8_000));
        assert_eq!(tallies.get("beta"), Some(&40));
        assert_eq!(tallies.len(), 2);
        let heat = telemetry.heat_snapshot();
        assert_eq!(
            heat["alpha"].total, 8_000,
            "the grid counts what the tally counts"
        );
        assert_eq!(heat["beta"].total, 40);
    }

    /// A thread panicking while holding the record map's lock poisons
    /// it, and both recording and reading recover its data.
    #[test]
    fn structure_records_recover_from_a_poisoned_lock() {
        let telemetry = Telemetry::new(1, true, 8);
        telemetry.record_vectors("alpha", &[[(0, 0)]], || vec![(0, 1, 0, 1)]);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = telemetry.structures.write().unwrap();
            panic!("die while holding the record lock");
        }));
        assert!(telemetry.structures.is_poisoned());
        telemetry.record_vectors("alpha", &[[(1, 1)]; 2], || vec![(0, 1, 0, 1)]);
        assert_eq!(telemetry.tallies().get("alpha"), Some(&3));
        assert_eq!(telemetry.heat_snapshot()["alpha"].total, 3);
    }

    #[test]
    fn lanes_separate_and_merge() {
        let telemetry = Telemetry::new(3, true, 8);
        assert_eq!(telemetry.lane_count(), 4);
        assert_eq!(telemetry.lane_name(0), "inline");
        assert_eq!(telemetry.lane_name(2), "shard-1");
        telemetry.record(Stage::Dispatch, 100);
        let t = &telemetry;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                t.bind_lane(3); // shard-2
                t.record(Stage::Dispatch, 1_000);
                t.record(Stage::Dispatch, 2_000);
            });
        });
        assert_eq!(
            telemetry.lane(0).stage(Stage::Dispatch).snapshot().count(),
            1
        );
        assert_eq!(
            telemetry.lane(3).stage(Stage::Dispatch).snapshot().count(),
            2
        );
        let merged = telemetry.merged_stage(Stage::Dispatch);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 3_100);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let telemetry = Telemetry::new(1, false, 8);
        telemetry.record(Stage::Dispatch, 100);
        let mut trace = StageTrace::default();
        trace.add(Stage::Dispatch, 1_000_000);
        telemetry.record_completion(&trace);
        telemetry.observe_slow("query", None, None, &trace);
        telemetry.record_vectors("s", &[[(0, 0)]], || {
            unreachable!("no heat grid may be built while telemetry is off")
        });
        assert_eq!(telemetry.merged_stage(Stage::Dispatch).count(), 0);
        assert!(telemetry.slow_ring().drain().is_empty());
        assert!(telemetry.heat_snapshot().is_empty());
        // The tally alone is kept: `stats` reports it either way.
        assert_eq!(telemetry.tallies().get("s"), Some(&1));
    }
}
