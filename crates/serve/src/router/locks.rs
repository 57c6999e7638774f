//! The router's three locks, behind the only nestings the router may use.
//!
//! A read holds `reads` shared for its whole fan-out. A publication takes
//! `publish`, drains `reads` exclusively before it stages, and records its
//! counters under `pipeline`. A `/stats` scrape takes `pipeline` alone. The
//! fields are private to this module, so the only nestings it offers are
//! `publish → reads` and `publish → pipeline`: nothing takes `reads`
//! exclusively or `publish` except [`RouterLocks::publication`], and
//! nothing writes `pipeline` except [`Publication::record`]. One wrong
//! order still compiles: a publication started under a read guard
//! deadlocks its own thread on the drain.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use super::PipelineStats;

#[derive(Default)]
pub(super) struct RouterLocks {
    /// Held shared by every read for its whole fan-out, and taken
    /// exclusively by a publication before it stages (which releases the
    /// epoch before the served one on every shard): no read can still be
    /// pinned to that epoch once the exclusive guard is granted.
    reads: RwLock<()>,
    /// Serialises whole-fleet publications so two publishers cannot
    /// interleave shard swaps (which could strand shards on permanently
    /// different versions).
    publish: Mutex<()>,
    /// Publication-path counters, `None` until the first successful
    /// publish. A lock of its own, so a `/stats` scrape never waits for a
    /// publication to finish.
    pipeline: Mutex<Option<PipelineStats>>,
}

impl RouterLocks {
    /// The guard a read holds for its whole fan-out.
    pub(super) fn read(&self) -> RwLockReadGuard<'_, ()> {
        // Poisoning guards nothing here: the lock protects no data.
        self.reads.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The publication counters as of now.
    pub(super) fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Starts a publication: waits for any other to finish, then for every
    /// read in flight.
    pub(super) fn publication(&self) -> Publication<'_> {
        let serial = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        drop(self.reads.write().unwrap_or_else(|e| e.into_inner()));
        Publication {
            _serial: serial,
            pipeline: &self.pipeline,
        }
    }
}

/// A publication in progress. It holds the publish lock until it is
/// recorded or, when the publication failed, dropped.
#[must_use = "dropping a publication releases the publish lock"]
pub(super) struct Publication<'a> {
    _serial: MutexGuard<'a, ()>,
    pipeline: &'a Mutex<Option<PipelineStats>>,
}

impl Publication<'_> {
    /// Ends a successful publication: `update` moves the counters, then
    /// the publish lock is released.
    pub(super) fn record(self, update: impl FnOnce(&mut PipelineStats)) {
        let mut stats = self.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        update(stats.get_or_insert_with(PipelineStats::default));
    }
}
