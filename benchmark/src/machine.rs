//! How fast the machine is right now, and durations corrected for it.
//!
//! The sandbox is a 2-vCPU guest beside other tenants: the same work takes
//! up to 1.6× longer for stretches of seconds to minutes, and a latency or
//! a throughput moves with it. Ten runs of one commit then spread wider
//! than any bound worth gating on. So every measured segment of an untraced
//! run sits between two **probes**: three fixed kernels of the benchmark's
//! own — a dependent integer chain (compute), a pointer chase over 32 MiB
//! (memory latency) and a token bounced between two threads pinned to the
//! two vCPUs (thread hand-off) — whose times, over their reference times on
//! the quiet sandbox, say how slow the machine is at that moment (see
//! [`Slowdown`] for which ratios correct what). A duration measured in the
//! segment is divided by the mean slowdown of the probes on its two sides:
//! it is reported as it would have read at reference speed. The probes run
//! no code of the program under test, so a faster program still reads
//! faster; the uncorrected figures are reported beside the corrected ones.

use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats;

/// Steps of each kernel per probe, taken in [`CHUNKS`] chunks whose median
/// counts, so that a stall of a few milliseconds does not read as a slow
/// machine.
const COMPUTE_STEPS: u64 = 10_000_000;
const CHASE_LOADS: usize = 200_000;
const ROUND_TRIPS: usize = 300;
const CHUNKS: usize = 5;
/// The chase walks one cycle through this many `u32` slots (32 MiB: beyond
/// the 4 MiB L2 of a vCPU, in the L3 and the memory that the host's other
/// tenants contend for).
const CHASE_SLOTS: usize = 8 << 20;
/// Time per step, load and round trip on the sandbox with nothing else
/// running, sized at the commit that added the benchmark. Only ratios to
/// them are used, so another machine shifts every corrected figure by one
/// constant factor.
const REF_COMPUTE_NS: f64 = 2.12;
const REF_CHASE_NS: f64 = 115.0;
const REF_ROUND_TRIP_US: f64 = 36.0;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

/// A wall time as measured and as it would have read at reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Seconds {
    pub raw: f64,
    pub corrected: f64,
}

impl std::ops::AddAssign for Seconds {
    fn add_assign(&mut self, other: Seconds) {
        self.raw += other.raw;
        self.corrected += other.corrected;
    }
}

/// What one probe read: each kernel's time over its reference time
/// (1.0 = the quiet sandbox).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    pub compute: f64,
    pub memory: f64,
    pub handoff: f64,
}

impl Slowdown {
    /// The slowdown of single-threaded, compute-heavy work — a training
    /// sweep, a set-up step, a tick + publish pair: the geometric mean of
    /// the compute and memory ratios. Over 30 runs the logarithm of a
    /// sweep's time moved 1.0 times as much as this one's.
    pub fn training(self) -> f64 {
        (self.compute * self.memory).sqrt()
    }

    /// The slowdown of served requests — two dozen threads on two vCPUs,
    /// every hop a wake-up and every fold-in a walk over an 80 MB snapshot:
    /// the geometric mean of the memory and hand-off ratios. Of the rules
    /// tried over 30 runs in a busy stretch it left the narrowest spreads
    /// (`README.md` has the table).
    pub fn serving(self) -> f64 {
        (self.memory * self.handoff).sqrt()
    }

    fn mean(self, other: Slowdown) -> Slowdown {
        Slowdown {
            compute: (self.compute + other.compute) / 2.0,
            memory: (self.memory + other.memory) / 2.0,
            handoff: (self.handoff + other.handoff) / 2.0,
        }
    }
}

extern "C" {
    /// `sched_setaffinity(2)` of the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to `cpu`. Unpinned, the two threads of the
/// hand-off kernel share a vCPU or not as the scheduler pleases, and a round
/// trip reads 3.5 µs or 36 µs; where pinning fails (one CPU, a restricted
/// mask) the kernel still runs and the ratio only scales.
fn pin_to(cpu: usize) {
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 names the calling thread, and `mask` is a live `u64`
    // whose size is the `cpusetsize` passed; the call reads it and keeps
    // no pointer. Its failure is harmless and ignored.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// The hand-off kernel: two threads, one pinned to vCPU 0 and one to
/// vCPU 1, that bounce a token through two rendezvous channels — every leg
/// a futex wake of a sleeping thread on the other vCPU, which is what a
/// request pays at each hop between the server's threads.
#[derive(Debug)]
struct HandoffPair {
    /// How many round trips to time; dropped to end both threads.
    go: Option<SyncSender<usize>>,
    /// Microseconds per round trip of the batch just timed.
    timed: Receiver<f64>,
    threads: Vec<JoinHandle<()>>,
}

impl HandoffPair {
    fn start() -> HandoffPair {
        let (go, go_rx) = sync_channel::<usize>(1);
        let (timed_tx, timed) = sync_channel::<f64>(1);
        let (ping_tx, ping_rx) = sync_channel::<()>(1);
        let (pong_tx, pong_rx) = sync_channel::<()>(1);
        let echo = std::thread::spawn(move || {
            pin_to(1);
            while ping_rx.recv().is_ok() && pong_tx.send(()).is_ok() {}
        });
        let timer = std::thread::spawn(move || {
            pin_to(0);
            while let Ok(round_trips) = go_rx.recv() {
                let start = Instant::now();
                for _ in 0..round_trips {
                    if ping_tx.send(()).is_err() || pong_rx.recv().is_err() {
                        return;
                    }
                }
                let us = start.elapsed().as_secs_f64() * 1e6 / round_trips as f64;
                if timed_tx.send(us).is_err() {
                    return;
                }
            }
        });
        HandoffPair {
            go: Some(go),
            timed,
            threads: vec![timer, echo],
        }
    }

    fn round_trip_us(&self, round_trips: usize) -> f64 {
        let go = self.go.as_ref().expect("the sender lives until drop");
        go.send(round_trips)
            .expect("the hand-off threads run until the pair is dropped");
        self.timed
            .recv()
            .expect("the hand-off threads run until the pair is dropped")
    }
}

impl Drop for HandoffPair {
    fn drop(&mut self) {
        // The timer thread ends when `go` closes and takes the echo
        // thread's channel with it.
        self.go = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The probe kernels and everything they have read so far.
#[derive(Debug)]
pub struct Machine {
    chain: Vec<u32>,
    at: u32,
    pair: HandoffPair,
    /// The latest probe: when it ended and what it read.
    last: (Instant, Slowdown),
    readings: Vec<Slowdown>,
}

impl Machine {
    /// Builds the chase cycle, starts the hand-off threads and takes one
    /// probe that is thrown away (its memory kernel runs on freshly written
    /// pages and reads fast).
    pub fn new() -> Machine {
        // Sattolo's shuffle: one cycle through every slot.
        let mut chain: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_SLOTS).rev() {
            state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            chain.swap(i, (state >> 33) as usize % i);
        }
        let mut machine = Machine {
            chain,
            at: 0,
            pair: HandoffPair::start(),
            last: (
                Instant::now(),
                Slowdown {
                    compute: 1.0,
                    memory: 1.0,
                    handoff: 1.0,
                },
            ),
            readings: Vec::new(),
        };
        machine.probe();
        machine.readings.clear();
        machine
    }

    /// Runs the three kernels (≈ 55 ms) and returns their times over the
    /// reference times.
    fn probe(&mut self) -> Slowdown {
        let mut compute_ns = Vec::with_capacity(CHUNKS);
        let mut chase_ns = Vec::with_capacity(CHUNKS);
        let mut round_trip_us = Vec::with_capacity(CHUNKS);
        for _ in 0..CHUNKS {
            let steps = COMPUTE_STEPS / CHUNKS as u64;
            let start = Instant::now();
            let mut x = u64::from(self.at) | 1;
            for _ in 0..steps {
                x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                x ^= x >> 29;
            }
            black_box(x);
            compute_ns.push(start.elapsed().as_secs_f64() * 1e9 / steps as f64);

            let loads = CHASE_LOADS / CHUNKS;
            let start = Instant::now();
            let mut at = self.at;
            for _ in 0..loads {
                at = self.chain[at as usize];
            }
            self.at = black_box(at);
            chase_ns.push(start.elapsed().as_secs_f64() * 1e9 / loads as f64);

            round_trip_us.push(self.pair.round_trip_us(ROUND_TRIPS / CHUNKS));
        }
        let slowdown = Slowdown {
            compute: stats::median(&compute_ns) / REF_COMPUTE_NS,
            memory: stats::median(&chase_ns) / REF_CHASE_NS,
            handoff: stats::median(&round_trip_us) / REF_ROUND_TRIP_US,
        };
        self.last = (Instant::now(), slowdown);
        self.readings.push(slowdown);
        slowdown
    }

    /// Runs `work` between two probes and returns its result with the
    /// slowdown its durations are to be divided by. The probe that closed
    /// the previous segment opens this one when no time has passed since.
    pub fn around<R>(&mut self, work: impl FnOnce() -> R) -> (R, Slowdown) {
        let (ended, reading) = self.last;
        let before = if ended.elapsed().as_millis() < 20 && !self.readings.is_empty() {
            reading
        } else {
            self.probe()
        };
        let result = work();
        let after = self.probe();
        (result, before.mean(after))
    }

    /// [`Machine::around`] for single-threaded work that is one duration:
    /// returns the result and the work's wall time, as measured and
    /// corrected by [`Slowdown::training`].
    pub fn timed<R>(&mut self, work: impl FnOnce() -> R) -> (R, Seconds) {
        let ((result, raw), slowdown) = self.around(|| {
            let start = Instant::now();
            let result = work();
            (result, start.elapsed().as_secs_f64())
        });
        (
            result,
            Seconds {
                raw,
                corrected: raw / slowdown.training(),
            },
        )
    }

    /// Medians of every ratio read so far.
    pub fn median_slowdown(&self) -> Slowdown {
        let median_of = |pick: fn(&Slowdown) -> f64| {
            stats::median(&self.readings.iter().map(pick).collect::<Vec<_>>())
        };
        Slowdown {
            compute: median_of(|s| s.compute),
            memory: median_of(|s| s.memory),
            handoff: median_of(|s| s.handoff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rule_is_the_geometric_mean_of_its_two_ratios() {
        let slow = Slowdown {
            compute: 1.5,
            memory: 2.0,
            handoff: 4.5,
        };
        assert!((slow.training() - 3f64.sqrt()).abs() < 1e-12);
        assert!((slow.serving() - 3.0).abs() < 1e-12);
        let quiet = Slowdown {
            compute: 1.0,
            memory: 1.0,
            handoff: 1.0,
        };
        assert_eq!(quiet.training(), 1.0);
        assert_eq!(quiet.serving(), 1.0);
        let between = quiet.mean(slow);
        assert_eq!(
            (between.compute, between.memory, between.handoff),
            (1.25, 1.5, 2.75)
        );
    }

    #[test]
    fn around_brackets_work_with_probes_and_reuses_the_closing_one() {
        let mut machine = Machine::new();
        assert!(machine.readings.is_empty());
        let (value, slowdown) = machine.around(|| 7);
        assert_eq!(value, 7);
        assert!(slowdown.training().is_finite() && slowdown.serving() > 0.0);
        assert_eq!(machine.readings.len(), 2);
        // Back to back: the closing probe of the first opens the second.
        let ((), seconds) = machine.timed(|| ());
        assert_eq!(machine.readings.len(), 3);
        assert!(seconds.raw >= 0.0 && seconds.corrected >= 0.0);
        assert!(machine.median_slowdown().handoff > 0.0);
    }
}
