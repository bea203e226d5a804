//! `mqa-cache` — sharded, concurrency-safe caches for the MQA workspace.
//!
//! Two cooperating layers, both built on one Clock (second-chance LRU
//! approximation) core:
//!
//! 1. **Page cache** ([`PageCache`]): a presence cache over Starling's
//!    4 KiB page ids, shared by every worker of the concurrent
//!    `QueryEngine`. The paged index consults it before charging the
//!    simulated `DeviceProfile` read latency (`mqa-graph`'s Starling
//!    module), so repeated queries over hot graph neighbourhoods pay the
//!    device cost once — results stay
//!    bit-identical because only the *timing* of a page read changes,
//!    never the search decisions.
//! 2. **Result cache** ([`ResultCache`]): a turn-level value cache keyed
//!    on a query [`Fingerprint`] (text, image descriptor, weight
//!    override, `k`/`ef`, configuration). A generation counter makes
//!    [`ResultCache::invalidate_all`] O(1): re-learning session weights
//!    bumps the generation and every stale entry becomes unreachable.
//!
//! Concurrency discipline (checked by `mqa-xtask conc`): each shard owns
//! exactly one `Mutex` around its Clock core, acquired only through
//! [`lock_ignore_poison`]; no shard guard is ever held across another
//! lock acquisition, an observability call, or a blocking operation.
//! Metrics are recorded on handles cached at construction time, after
//! the shard guard has been dropped.

pub mod clock;
pub mod fingerprint;
pub mod page;
pub mod result;

pub use clock::{CacheShard, ClockCore, ProbeCore, Touch};
pub use fingerprint::Fingerprint;
pub use page::PageCache;
pub use result::ResultCache;

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering from poisoning: cache state is a performance
/// hint (presence bits and cloned values), so data written before a
/// panic elsewhere is still safe to serve — at worst a stale entry is
/// re-fetched.
pub fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
