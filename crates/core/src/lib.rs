//! # alchemist-core
//!
//! The Alchemist dependence-distance profiler (CGO 2009), reproduced.
//!
//! Given a mini-C program (see `alchemist-lang`/`alchemist-vm` for the
//! execution substrate that stands in for Valgrind), Alchemist profiles —
//! in a single run and for **every** construct (procedure, loop iteration,
//! conditional) — the RAW, WAR and WAW dependences between the construct
//! and its *continuation*, together with their time-ordered distances
//! `Tdep`. A construct whose duration `Tdur` is smaller than every RAW
//! distance can be spawned as a future and joined before the first
//! conflicting read; WAR/WAW violations pinpoint where privatization is
//! needed.
//!
//! The implementation follows the paper's structure:
//!
//! * [`index`] — the execution-indexing stack and tree (Fig. 4/5),
//! * [`pool`] — the bounded construct pool with lazy retirement (Table I),
//! * [`shadow`] — online dependence detection over shadow memory,
//! * [`profile`] — the per-construct profile and the bottom-up update walk
//!   (Table II),
//! * [`partial`] — mergeable partial profiles (the order-independent
//!   multi-run merge algebra behind `.alcp` artifacts),
//! * [`profiler`] — the event sink gluing the above to the VM,
//! * [`report`] — ranked-candidate reports (Fig. 2/3/6, Tables III/IV),
//! * [`shard`] — address-sharded parallel replay of recorded event streams,
//! * [`oracle`] — a brute-force reference profiler used to validate the
//!   online algorithm in tests.
//!
//! ## Quick start
//!
//! ```
//! use alchemist_core::profile_source;
//!
//! let outcome = profile_source(
//!     "int g;
//!      void work() { g += 1; }
//!      int main() { work(); work(); return g; }",
//!     vec![],
//! ).unwrap();
//! let text = outcome.report().render(10);
//! assert!(text.contains("Method main"));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod construct;
pub mod fxhash;
pub mod index;
pub mod oracle;
pub mod partial;
pub mod pool;
pub mod profile;
pub mod profiler;
pub mod report;
pub mod runner;
pub mod shadow;
pub mod shard;
pub mod stats;

pub use aggregate::{input_dependent_edges, merge_profiles, profile_many};
pub use construct::{ConstructId, ConstructKind, DepKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{IndexStack, StackEntry};
pub use partial::PartialProfile;
pub use pool::{ConstructPool, Node, NodeId, NodeRef, PoolStats};
pub use profile::{ConstructProfile, DepProfile, EdgeKey, EdgeStat};
pub use profiler::{AlchemistProfiler, IndexMode, ProfileConfig};
pub use report::{ConstructReport, EdgeReport, Fig6Point, ProfileReport};
pub use runner::{profile_batches, profile_events, profile_module, profile_source, ProfileOutcome};
pub use shadow::{ShadowStats, INLINE_READERS, PAGE_SHIFT, PAGE_WORDS};
pub use shard::{
    merge_shard_profiles, partition_batch, profile_batches_par_spec, run_sharded_batched,
    shard_batch_counts_spec, ShardError, ShardSpec, ShardTuning, CANDIDATE_SHIFTS,
    MAX_SHARD_IMBALANCE, SHARD_FLUSH_EVENTS,
};
pub use stats::{constructs_to_csv, edges_to_csv, DistanceHistogram};
