//! The per-replica circuit breaker a [`ShardRouter`](crate::ShardRouter)
//! keeps for each transport of a [`ReplicaSet`](crate::ReplicaSet).
//!
//! Every change of the state word goes through one method,
//! `ReplicaBreaker::transition`, which bumps the counter of the state it
//! enters: open counts a trip, half-open a probe, closed a re-admission.
//! The fields are private to this module, so no other code can flip the
//! state without the count that `RouterStats`, `/stats` and `/metrics`
//! report.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Breaker state: traffic flows normally.
const STATE_CLOSED: u8 = 0;
/// Breaker state: the replica is ejected from routing until its cooldown
/// elapses (then a single probe may half-open it).
const STATE_OPEN: u8 = 1;
/// Breaker state: one probe request is in flight; its outcome closes or
/// re-opens the breaker.
const STATE_HALF_OPEN: u8 = 2;

/// Consecutive transport failures that trip a replica's breaker.
pub const FAILURE_THRESHOLD: u32 = 3;
/// How long a tripped replica sits out before a single request (or health
/// probe) may half-open its breaker. (Shortened under test so the
/// half-open probe does not cost a second.)
pub(crate) const COOLDOWN: Duration = Duration::from_millis(if cfg!(test) { 250 } else { 1000 });

/// One replica's circuit breaker: [`FAILURE_THRESHOLD`] consecutive
/// transport failures trip it `STATE_CLOSED` → `STATE_OPEN`; after a
/// one-second cooldown a single request
/// half-opens it (`STATE_HALF_OPEN`) as the probe whose outcome closes
/// or re-trips it. Success from *any* path (traffic, a health probe via
/// the `/healthz` seam) re-admits immediately.
///
/// All state is atomics — no locks — so breaker checks on the fan-out hot
/// path never contend, and every transition bumps a counter (trips,
/// re-admissions, probes) surfaced through `/stats` and `/metrics`.
#[derive(Debug)]
pub struct ReplicaBreaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// When the breaker last opened, in µs since `birth` (an `Instant`
    /// cannot live in an atomic).
    opened_at_us: AtomicU64,
    birth: Instant,
    trips: AtomicU64,
    readmits: AtomicU64,
    probes: AtomicU64,
}

impl ReplicaBreaker {
    /// A closed breaker.
    pub(crate) fn new() -> Self {
        ReplicaBreaker {
            state: AtomicU8::new(STATE_CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_us: AtomicU64::new(0),
            birth: Instant::now(),
            trips: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// The only writer of the state word: moves it to `to` — from `from`
    /// only, when given — and, when the state changed, counts the
    /// transition on the counter of the state entered. Returns whether it
    /// changed.
    fn transition(&self, from: Option<u8>, to: u8) -> bool {
        let changed = match from {
            Some(from) => self
                .state
                .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            None => self.state.swap(to, Ordering::AcqRel) != to,
        };
        if changed {
            let counter = match to {
                STATE_OPEN => &self.trips,
                STATE_HALF_OPEN => &self.probes,
                _ => &self.readmits,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// Whether routing currently admits this replica: closed or half-open,
    /// or open with the cooldown elapsed — in which case the breaker
    /// transitions to half-open and this call admits the probe request.
    pub fn admit(&self) -> bool {
        if self.state.load(Ordering::Acquire) != STATE_OPEN {
            return true;
        }
        let opened = Duration::from_micros(self.opened_at_us.load(Ordering::Acquire));
        if self.birth.elapsed().saturating_sub(opened) < COOLDOWN {
            return false;
        }
        // Losing the race means another request became the probe; it is
        // already on its way, so this one stays away until its outcome.
        self.transition(Some(STATE_OPEN), STATE_HALF_OPEN)
    }

    /// Whether the breaker is not open (ignoring cooldown) — the
    /// admission flag reported in stats, with no side effects.
    pub fn is_admitted(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_OPEN
    }

    /// Records a successful exchange with the replica: resets the failure
    /// run and closes the breaker, counting a re-admission when it was
    /// open or half-open.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.transition(None, STATE_CLOSED);
    }

    /// Records a transport failure against the replica; trips the breaker
    /// once the consecutive-failure run reaches the threshold (a half-open
    /// probe failure re-trips immediately). An already open breaker only
    /// refreshes its cooldown clock, so a dead replica is probed once per
    /// cooldown, not hammered.
    pub fn record_failure(&self) {
        let run = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let was = self.state.load(Ordering::Acquire);
        if run >= FAILURE_THRESHOLD || was == STATE_HALF_OPEN {
            self.opened_at_us
                .store(self.birth.elapsed().as_micros() as u64, Ordering::Release);
            if was != STATE_OPEN {
                self.transition(None, STATE_OPEN);
            }
        }
    }

    /// Lifetime trip count.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Lifetime re-admission count (open/half-open → closed).
    pub fn readmits(&self) -> u64 {
        self.readmits.load(Ordering::Relaxed)
    }

    /// Lifetime half-open probe count.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}
