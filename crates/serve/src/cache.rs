//! A sharded LRU answer cache for the serving hot path.
//!
//! The paper's workloads are repetitive by nature: a synthesis loop
//! hammers the same sizing neighborhood thousands of times (the
//! hot-spot streams `serve_bench` and `loadgen` measure). The
//! [`AnswerCache`] short-circuits that repetition at the protocol layer:
//! entries are keyed by `(request class, structure name, dimension
//! vector)` and the stored value is the **fully rendered response
//! line** the uncached path produced — a hit replays those bytes
//! verbatim, so cached answers are not merely bit-identical to the
//! uncached path, they are byte-identical by construction: the cache
//! never computes or re-renders anything.
//!
//! Caching rendered lines (rather than placement ids) is what makes the
//! cache pay for itself: the compiled query index answers in ~150ns, so
//! no `(structure, dims)`-keyed lookup can beat *it* — but a hit also
//! skips building and serializing the response object, and for
//! `instantiate` it skips materializing the placement and the whole
//! coordinate render, which measure in microseconds.
//!
//! Design:
//!
//! * **Sharded**: the key hash picks one of N independently locked
//!   shards, so concurrent connections rarely contend on the same mutex.
//! * **LRU per shard**: each shard is a slab-backed intrusive list +
//!   hash index; hits are O(1), eviction drops the least recently used
//!   entry of the full shard.
//! * **Generation-guarded inserts**: a lookup miss captures the cache
//!   generation; the later insert is dropped if an invalidation happened
//!   in between. Combined with all-or-nothing [`AnswerCache::invalidate_all`]
//!   on registry hot-reload, a stale answer can never outlive the swap:
//!   either the insert lands before the clear (and is cleared), or the
//!   generation check rejects it.
//! * **Counted**: hits and misses are tallied per shard *under the shard
//!   lock*, so each shard's `(hits, misses)` pair is a coherent cut and
//!   the hit-rate `stats` reports can never be computed from a torn
//!   pair; evictions and invalidations are plain atomic counters. See
//!   `PROTOCOL.md` § "Telemetry consistency model".
//!
//! A capacity of 0 disables the cache entirely (every lookup reports
//! [`CacheLookup::Disabled`]); the server then serves straight from the
//! compiled index, which is what `loadgen --cache-entries 0` uses as the
//! uncached baseline.

use crate::lock_recover;
use mps_geom::{Coord, Dims};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Slab sentinel: "no node".
const NIL: usize = usize::MAX;

/// One cached answer: the owned key plus the intrusive LRU links. The
/// value is the rendered (untagged) response line.
#[derive(Debug)]
struct Node {
    class: CacheClass,
    structure: Box<str>,
    dims: Box<[(Coord, Coord)]>,
    line: Box<str>,
    prev: usize,
    next: usize,
}

/// One independently locked cache shard: a slab of nodes threaded into
/// an LRU list, indexed by the full 64-bit key hash (collisions on the
/// hash are resolved by comparing the stored key, so answers can never
/// cross keys).
#[derive(Debug, Default)]
struct Shard {
    /// Full key hash → slab indices of nodes with that hash.
    index: HashMap<u64, Vec<usize>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used node, `NIL` when empty.
    head: usize,
    /// Least recently used node (the eviction victim), `NIL` when empty.
    tail: usize,
    len: usize,
    /// Hit/miss tallies live *inside* the shard (incremented under its
    /// lock, read under its lock by `stats`), so the pair is always a
    /// coherent cut of this shard's history — a hit-rate computed from
    /// it can never mix a post-lookup hit with a pre-lookup miss count.
    hits: u64,
    misses: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            ..Self::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Finds the node for `(class, structure, dims)` under `hash`,
    /// promotes it to most recently used, and returns its stored line.
    fn get(
        &mut self,
        hash: u64,
        class: CacheClass,
        structure: &str,
        dims: &[(Coord, Coord)],
    ) -> GetOutcome {
        let Some(slots) = self.index.get(&hash) else {
            return GetOutcome::Miss;
        };
        let Some(&i) = slots.iter().find(|&&i| {
            let node = &self.nodes[i];
            node.class == class && &*node.structure == structure && &*node.dims == dims
        }) else {
            return GetOutcome::Miss;
        };
        self.unlink(i);
        self.push_front(i);
        GetOutcome::Hit(self.nodes[i].line.to_string())
    }

    /// Inserts (or refreshes) an answer, evicting the least recently
    /// used entry when the shard is at `capacity`. Returns how many
    /// entries were evicted (0 or 1).
    fn insert(
        &mut self,
        capacity: usize,
        hash: u64,
        class: CacheClass,
        structure: &str,
        dims: &[(Coord, Coord)],
        line: &str,
    ) -> u64 {
        // A racing thread may have inserted the same key first; refresh
        // in place rather than storing a duplicate.
        if let GetOutcome::Hit(_) = self.get(hash, class, structure, dims) {
            self.nodes[self.head].line = line.into();
            return 0;
        }
        let mut evicted = 0;
        if self.len >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            let victim_hash = {
                let node = &self.nodes[victim];
                key_hash(node.class, &node.structure, &node.dims)
            };
            if let Some(slots) = self.index.get_mut(&victim_hash) {
                slots.retain(|&s| s != victim);
                if slots.is_empty() {
                    self.index.remove(&victim_hash);
                }
            }
            self.free.push(victim);
            self.len -= 1;
            evicted = 1;
        }
        let node = Node {
            class,
            structure: structure.into(),
            dims: dims.into(),
            line: line.into(),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.entry(hash).or_default().push(i);
        self.push_front(i);
        self.len += 1;
        evicted
    }

    fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

enum GetOutcome {
    Hit(String),
    Miss,
}

/// Which request kind a cache entry answers. A `query` and an
/// `instantiate` over the same `(structure, dims)` are distinct entries
/// (their response lines differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheClass {
    /// A `query` response line.
    Query,
    /// An `instantiate` response line.
    Instantiate,
}

/// The outcome of [`AnswerCache::lookup`].
#[derive(Debug)]
pub enum CacheLookup {
    /// The cache is disabled (capacity 0); compute without inserting.
    Disabled,
    /// The rendered response line was cached — replay it verbatim,
    /// byte-identical to the path that stored it.
    Hit(String),
    /// Not cached: compute and render, then hand the token to
    /// [`AnswerCache::insert`] so the store is dropped if an
    /// invalidation raced in between.
    Miss(MissToken),
}

/// Proof of a lookup miss, carrying the cache generation observed at
/// miss time. [`AnswerCache::insert`] refuses the store when the
/// generation moved (an invalidation happened), so answers computed
/// against a pre-reload snapshot can never survive the reload.
#[derive(Debug, Clone, Copy)]
pub struct MissToken {
    generation: u64,
}

/// A point-in-time copy of the cache counters, surfaced through the
/// server's `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache. Summed from per-shard tallies
    /// read under each shard's lock (coherent with `misses` per shard).
    pub hits: u64,
    /// Lookups that had to compute. Same coherence as `hits`.
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// All-or-nothing invalidations (registry hot-reloads).
    pub invalidations: u64,
    /// Entries currently stored, summed over all shards.
    pub entries: usize,
    /// Configured total capacity (0 = disabled).
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
}

/// The sharded LRU answer cache. See the module docs for the design.
///
/// All methods are `&self`; the cache is shared by every connection
/// thread of a [`Server`](crate::Server).
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    capacity: usize,
    generation: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

fn key_hash(class: CacheClass, structure: &str, dims: &[(Coord, Coord)]) -> u64 {
    let mut hasher = DefaultHasher::new();
    class.hash(&mut hasher);
    structure.hash(&mut hasher);
    dims.hash(&mut hasher);
    hasher.finish()
}

impl AnswerCache {
    /// Creates a cache holding up to `capacity` answers across `shards`
    /// shards (both clamped sensibly; `capacity` 0 disables the cache).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = if capacity == 0 {
            0
        } else {
            shards.clamp(1, capacity)
        };
        let per_shard_capacity = if shard_count == 0 {
            0
        } else {
            capacity.div_ceil(shard_count)
        };
        Self {
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
            capacity,
            generation: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether lookups can ever hit (capacity > 0).
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        // The index hash map re-hashes the full key hash, so reusing the
        // low bits for shard selection costs no index quality.
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Looks up the cached response line for `(class, structure, dims)`,
    /// counting the hit or miss.
    #[must_use]
    pub fn lookup(&self, class: CacheClass, structure: &str, dims: &Dims) -> CacheLookup {
        if !self.enabled() {
            return CacheLookup::Disabled;
        }
        let generation = self.generation.load(Ordering::Acquire);
        let hash = key_hash(class, structure, dims);
        // The tally happens inside the lock scope so this shard's
        // (hits, misses) pair stays coherent — see the module docs.
        let mut shard = lock_recover(self.shard(hash));
        match shard.get(hash, class, structure, dims) {
            GetOutcome::Hit(line) => {
                shard.hits += 1;
                CacheLookup::Hit(line)
            }
            GetOutcome::Miss => {
                shard.misses += 1;
                CacheLookup::Miss(MissToken { generation })
            }
        }
    }

    /// Stores a rendered response line under the key it was computed
    /// for. The store is dropped when an invalidation happened since the
    /// miss (the token's generation no longer matches) — see the module
    /// docs for why that makes stale answers impossible.
    pub fn insert(
        &self,
        token: MissToken,
        class: CacheClass,
        structure: &str,
        dims: &Dims,
        line: &str,
    ) {
        if !self.enabled() {
            return;
        }
        let hash = key_hash(class, structure, dims);
        let mut shard = lock_recover(self.shard(hash));
        // Checked under the shard lock: if the generation is still the
        // token's, a concurrent invalidation has not yet cleared this
        // shard — its clear is ordered after our unlock and will remove
        // this entry. If the generation moved, the clear may already be
        // done, so the store must be dropped.
        if self.generation.load(Ordering::Acquire) != token.generation {
            return;
        }
        let evicted = shard.insert(self.per_shard_capacity, hash, class, structure, dims, line);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops every cached answer, all-or-nothing — the registry
    /// hot-reload hook. Bumps the generation first so in-flight inserts
    /// computed against the old snapshot can never land afterwards.
    pub fn invalidate_all(&self) {
        if !self.enabled() {
            return;
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        for shard in &self.shards {
            lock_recover(shard).clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Each shard's hit/miss pair
    /// and entry count are read together under that shard's lock, so the
    /// totals are a merge of per-shard-coherent cuts: monotonic between
    /// two reads, and never a torn pair within one shard.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut hits = 0;
        let mut misses = 0;
        let mut entries = 0;
        for shard in &self.shards {
            let shard = lock_recover(shard);
            hits += shard.hits;
            misses += shard.misses;
            entries += shard.len;
        }
        CacheStats {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::dims;

    const Q: CacheClass = CacheClass::Query;

    fn probe(cache: &AnswerCache, name: &str, d: &Dims) -> CacheLookup {
        cache.lookup(Q, name, d)
    }

    /// Regression: the shard locks used `.expect("cache shard
    /// poisoned")`, so one panic while a shard was held turned every
    /// later lookup/insert/stats touching that shard into a panic of
    /// its own — a single crashing request disabled the cache (and,
    /// through the serving layer, whole connections) permanently.
    #[test]
    fn a_poisoned_shard_keeps_serving() {
        let cache = AnswerCache::new(8, 1);
        let d = dims![(10, 20)];
        let CacheLookup::Miss(token) = probe(&cache, "a", &d) else {
            panic!("fresh cache must miss");
        };
        cache.insert(token, Q, "a", &d, "answer-line");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.shards[0].lock().unwrap();
            panic!("die while holding the only shard");
        }));
        assert!(cache.shards[0].is_poisoned());
        match probe(&cache, "a", &d) {
            CacheLookup::Hit(line) => assert_eq!(line, "answer-line"),
            other => panic!("a poisoned shard must still answer: {other:?}"),
        }
        assert_eq!(cache.stats().entries, 1);
        cache.invalidate_all();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn miss_insert_hit_roundtrip() {
        let cache = AnswerCache::new(8, 2);
        let d = dims![(10, 20), (30, 40)];
        let CacheLookup::Miss(token) = probe(&cache, "a", &d) else {
            panic!("fresh cache must miss");
        };
        cache.insert(token, Q, "a", &d, r#"{"ok":true,"id":7}"#);
        match probe(&cache, "a", &d) {
            CacheLookup::Hit(line) => assert_eq!(line, r#"{"ok":true,"id":7}"#),
            other => panic!("expected hit, got {other:?}"),
        }
        // A different structure under the same dims is a different key...
        assert!(matches!(probe(&cache, "b", &d), CacheLookup::Miss(_)));
        // ... and so is a different request class over the same key.
        let CacheLookup::Miss(t_inst) = cache.lookup(CacheClass::Instantiate, "a", &d) else {
            panic!("class is part of the key");
        };
        cache.insert(t_inst, CacheClass::Instantiate, "a", &d, "coords-line");
        match cache.lookup(CacheClass::Instantiate, "a", &d) {
            CacheLookup::Hit(line) => assert_eq!(line, "coords-line"),
            other => panic!("expected hit, got {other:?}"),
        }
        match probe(&cache, "a", &d) {
            CacheLookup::Hit(line) => {
                assert_eq!(line, r#"{"ok":true,"id":7}"#, "classes never cross")
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard of capacity 2 makes eviction order observable.
        let cache = AnswerCache::new(2, 1);
        let (da, db, dc) = (dims![(1, 1)], dims![(2, 2)], dims![(3, 3)]);
        for (d, line) in [(&da, "a"), (&db, "b")] {
            let CacheLookup::Miss(t) = probe(&cache, "s", d) else {
                panic!()
            };
            cache.insert(t, Q, "s", d, line);
        }
        // Touch `da` so `db` is the LRU victim.
        assert!(matches!(probe(&cache, "s", &da), CacheLookup::Hit(_)));
        let CacheLookup::Miss(t) = probe(&cache, "s", &dc) else {
            panic!()
        };
        cache.insert(t, Q, "s", &dc, "c");
        assert!(matches!(probe(&cache, "s", &da), CacheLookup::Hit(_)));
        assert!(matches!(probe(&cache, "s", &dc), CacheLookup::Hit(_)));
        assert!(
            matches!(probe(&cache, "s", &db), CacheLookup::Miss(_)),
            "db was least recently used and must have been evicted"
        );
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn invalidation_clears_and_blocks_stale_inserts() {
        let cache = AnswerCache::new(16, 4);
        let d = dims![(5, 5)];
        let CacheLookup::Miss(stale) = probe(&cache, "s", &d) else {
            panic!()
        };
        cache.insert(stale, Q, "s", &d, "pre-reload");
        cache.invalidate_all();
        assert_eq!(cache.stats().entries, 0, "invalidation is all-or-nothing");
        // An insert whose miss predates the invalidation must be dropped:
        // it may have been computed against the pre-reload registry.
        cache.insert(stale, Q, "s", &d, "pre-reload");
        assert!(matches!(probe(&cache, "s", &d), CacheLookup::Miss(_)));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = AnswerCache::new(0, 8);
        assert!(!cache.enabled());
        let d = dims![(9, 9)];
        assert!(matches!(probe(&cache, "s", &d), CacheLookup::Disabled));
        cache.invalidate_all();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.capacity, 0);
    }

    #[test]
    fn sharding_spreads_and_counts_sum() {
        // Roomy per-shard capacity: 48 keys spread over 8 shards must
        // all survive (a 64-entry cache could overflow one shard).
        let cache = AnswerCache::new(256, 8);
        for k in 0..48i64 {
            let d = dims![(k + 1, 2 * k + 1)];
            let CacheLookup::Miss(t) = probe(&cache, "s", &d) else {
                panic!("distinct keys must miss")
            };
            cache.insert(t, Q, "s", &d, &format!("line-{k}"));
        }
        for k in 0..48i64 {
            let d = dims![(k + 1, 2 * k + 1)];
            match probe(&cache, "s", &d) {
                CacheLookup::Hit(line) => assert_eq!(line, format!("line-{k}")),
                other => panic!("key {k} lost: {other:?}"),
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 48);
        assert_eq!(stats.hits, 48);
        assert_eq!(stats.shards, 8);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache = std::sync::Arc::new(AnswerCache::new(128, 4));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for round in 0..200i64 {
                        let k = (round * 7 + t) % 40;
                        let d = dims![(k + 1, k + 2)];
                        match cache.lookup(Q, "s", &d) {
                            // The invariant under contention: a hit must
                            // replay exactly what was stored for the key.
                            CacheLookup::Hit(line) => {
                                assert_eq!(line, format!("line-{k}"))
                            }
                            CacheLookup::Miss(token) => {
                                cache.insert(token, Q, "s", &d, &format!("line-{k}"));
                            }
                            CacheLookup::Disabled => unreachable!(),
                        }
                        if round % 50 == 0 && t == 0 {
                            cache.invalidate_all();
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits + stats.misses == 800);
        assert!(stats.invalidations >= 4);
    }
}
