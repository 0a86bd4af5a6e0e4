//! High-throughput query serving over persisted multi-placement
//! structures.
//!
//! The paper's economics are *generate once, query many* (Fig. 1): the
//! expensive nested-annealing generation runs offline; synthesis loops
//! then instantiate placements in microseconds. This crate is the "many"
//! side, the serving subsystem:
//!
//! * [`CompiledIndex`] — a structure's interval rows compiled once into
//!   flat sorted arrays plus per-segment candidate bitsets, **zero heap
//!   allocation per query** through a [`QueryScratch`], bit-identical to
//!   [`mps_core::MultiPlacementStructure::query`] (cross-checked on every
//!   load). Its [`IndexPlan`], picked per structure at load time by
//!   [`IndexPlan::choose`], only changes the row layout: v1 binary-searches
//!   each row and `AND`s the full bitset width; v2 adds an eyros-style
//!   pivot tree with center entries per row and `AND`s only the live
//!   words, so lookup cost stays near-flat as region count grows.
//! * [`StructureRegistry`] — the set of persisted `mps-v1` artifacts a
//!   server answers for, loaded from a directory and hot-swapped behind
//!   an `Arc`: readers take lock-free snapshots; a reload swaps the whole
//!   set atomically while in-flight queries finish on the old one.
//! * [`AnswerCache`] — a sharded LRU answer cache keyed by
//!   `(structure, Dims)` in front of the compiled plans: hits replay the
//!   exact stored answer (bit-identical by construction), a registry
//!   hot-reload invalidates all-or-nothing, and hit/miss/eviction
//!   counters surface through `stats`.
//! * [`Server`] + the `mps-serve` binary — a line-delimited JSON protocol
//!   (`query`, `batch_query`, `instantiate`, `reload`, `stats`,
//!   `list_structures`) over stdin/stdout and localhost TCP, one pump
//!   per transport. Stdin is answered sequentially, in request order.
//!   TCP connections are owned by a fixed pool of shared-nothing shard
//!   event loops (one per core by default) instead of one thread each,
//!   so tens of thousands of idle or bursty clients cost no stacks and
//!   no context-switch storms; there, request ids + pipelining keep
//!   many requests in flight per connection. Every request is answered
//!   on the thread that read it, so a large batch or a `refine` run
//!   holds its shard until it is done. Both pumps share one admit →
//!   answer → write path and one line framing. Malformed input of any
//!   kind is answered with a typed error line; the server never dies on
//!   input — a panicking handler costs one `internal` error response,
//!   never a poisoned lock. The full wire contract is specified in
//!   `crates/serve/PROTOCOL.md`.
//!
//! # Quickstart
//!
//! ```sh
//! cargo run --release -p mps-bench --bin table2 -- --effort 0.3 --save out/structures
//! cargo run --release -p mps-serve -- out/structures
//! # then, per line on stdin:
//! # {"kind":"query","structure":"circ02","dims":[[30,40],[25,25],[25,25],[60,20],[40,40],[40,40]]}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod compiled;
pub mod frame;
mod protocol;
mod refine;
mod registry;
mod server;
mod shard;
mod telemetry;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning. Every mutex in this crate
/// guards data that is valid at any interleaving (monotonic counters,
/// fully rendered response lines, an LRU map), so a panic on one
/// serving thread must cost that one request — not,
/// via a poisoned `.expect`, every other connection that ever touches
/// the lock again.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use cache::{AnswerCache, CacheClass, CacheLookup, CacheStats, MissToken};
pub use compiled::{CompiledIndex, IndexPlan, QueryScratch};
pub use protocol::{
    error_response, parse_envelope, parse_request, tagged_error_response, Envelope, EnvelopeError,
    ErrorKind, Request, RequestError, REQUEST_KINDS,
};
pub use registry::{ReloadReport, ServeError, ServedStructure, StructureRegistry};
pub use server::{Server, ServerConfig};
pub use telemetry::{
    HeatSnapshot, HistogramSnapshot, LaneStats, LatencyHistogram, SlowRing, Stage, StageTrace,
    StructureHeat, Telemetry, TraceEntry, HEAT_BINS, HISTOGRAM_BUCKETS, STAGE_COUNT,
};
