//! Global-memory and cache modelling.
//!
//! GPUs move global memory in long cache lines (128 bytes), which is one of
//! the two architectural facts (besides warp width) that drive SaberLDA's
//! data-layout decisions (§3.1.3): a warp that touches a whole row of the
//! document–topic matrix uses every byte of the lines it pulls, while random
//! single-element accesses waste most of each line. The [`MemoryTracker`]
//! reproduces that accounting, together with a small LRU set-associative L2
//! model used to estimate the hit rates reported in Table 4.

use crate::counters::KernelStats;

/// Global-memory cache-line size in bytes (NVIDIA L2 line).
pub(crate) const CACHE_LINE_BYTES: u64 = 128;

/// A set-associative LRU cache model over 128-byte lines.
///
/// One flat tag array holds every set: set `s` owns
/// `tags[s * associativity..][..associativity]`, least recently used first,
/// ways nothing has filled yet holding a sentinel at the front.
#[derive(Debug, Clone)]
pub(crate) struct L2Cache {
    n_sets: usize,
    associativity: usize,
    tags: Vec<u64>,
}

/// Tag of a way that holds no line; line numbers are addresses ÷ 128.
const EMPTY_WAY: u64 = u64::MAX;

impl L2Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one line or
    /// `associativity == 0`.
    pub fn new(capacity_bytes: u64, associativity: usize) -> Self {
        assert!(
            capacity_bytes >= CACHE_LINE_BYTES,
            "cache smaller than a line"
        );
        assert!(associativity > 0, "associativity must be positive");
        let n_lines = (capacity_bytes / CACHE_LINE_BYTES) as usize;
        let n_sets = (n_lines / associativity).max(1);
        L2Cache {
            n_sets,
            associativity,
            tags: vec![EMPTY_WAY; n_sets * associativity],
        }
    }

    /// Accesses the line containing `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / CACHE_LINE_BYTES;
        // A division per access adds up: power-of-two set counts take a mask.
        let set = if self.n_sets.is_power_of_two() {
            (line as usize) & (self.n_sets - 1)
        } else {
            (line as usize) % self.n_sets
        };
        let ways = &mut self.tags[set * self.associativity..][..self.associativity];
        // Probe from the most recently used end; the touched tag moves to
        // the back, and a miss takes the least recently used way's place.
        let found = ways.iter().rposition(|&tag| tag == line);
        let vacated = found.unwrap_or(0);
        ways.copy_within(vacated + 1.., vacated);
        ways[self.associativity - 1] = line;
        found.is_some()
    }
}

/// Tracks the memory traffic of a simulated kernel.
///
/// Kernels report *logical* accesses (address + length); the tracker rounds
/// them to cache-line granularity, runs them through the L2 model and
/// accumulates a [`KernelStats`].
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    l2: L2Cache,
    stats: KernelStats,
    enabled: bool,
}

impl MemoryTracker {
    /// Creates a tracker with an L2 cache of `l2_capacity_bytes`.
    pub fn new(l2_capacity_bytes: u64) -> Self {
        MemoryTracker {
            l2: L2Cache::new(l2_capacity_bytes.max(CACHE_LINE_BYTES), 16),
            stats: KernelStats::default(),
            enabled: true,
        }
    }

    /// The null object, for a caller that must pass a tracker and will not
    /// read it: records nothing, and no access reaches the L2 model.
    pub fn disabled() -> Self {
        MemoryTracker {
            enabled: false,
            ..MemoryTracker::new(CACHE_LINE_BYTES)
        }
    }

    /// `false` for [`MemoryTracker::disabled`]: skip a pass that only feeds it.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn count(&mut self, add: impl FnOnce(&mut KernelStats)) {
        if self.enabled {
            add(&mut self.stats);
        }
    }

    /// Records a global-memory read of `bytes` bytes starting at `addr`.
    /// The address space is logical — each data structure picks a distinct
    /// base offset so that cache behaviour between structures is realistic.
    pub fn global_read(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 || !self.enabled {
            return;
        }
        let first_line = addr / CACHE_LINE_BYTES;
        let last_line = (addr + bytes - 1) / CACHE_LINE_BYTES;
        let mut hits = 0u64;
        for line in first_line..=last_line {
            hits += u64::from(self.l2.access(line * CACHE_LINE_BYTES));
        }
        let lines = last_line - first_line + 1;
        self.stats.global_transactions += lines;
        self.stats.l2_hit_bytes += hits * CACHE_LINE_BYTES;
        self.stats.global_read_bytes += (lines - hits) * CACHE_LINE_BYTES;
    }

    /// Records the same read `times` times in a row. The first goes through
    /// the L2 model; if it spans no more lines than the cache has sets, each
    /// of its lines is then the most recently used of a set of its own, so
    /// every repeat hits on every line and reorders nothing: the repeats are
    /// counted, not simulated.
    pub fn global_read_repeated(&mut self, addr: u64, bytes: u64, times: u64) {
        if bytes == 0 || times == 0 || !self.enabled {
            return;
        }
        self.global_read(addr, bytes);
        let lines = (addr + bytes - 1) / CACHE_LINE_BYTES - addr / CACHE_LINE_BYTES + 1;
        if lines > self.l2.n_sets as u64 {
            (1..times).for_each(|_| self.global_read(addr, bytes));
        } else {
            let hit_lines = (times - 1) * lines;
            self.stats.global_transactions += hit_lines;
            self.stats.l2_hit_bytes += hit_lines * CACHE_LINE_BYTES;
        }
    }

    /// Records a global-memory write of `bytes` bytes starting at `addr`
    /// (write-through accounting: every written line reaches DRAM).
    pub fn global_write(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 || !self.enabled {
            return;
        }
        let first_line = addr / CACHE_LINE_BYTES;
        let last_line = (addr + bytes - 1) / CACHE_LINE_BYTES;
        for line in first_line..=last_line {
            self.l2.access(line * CACHE_LINE_BYTES);
        }
        let lines = last_line - first_line + 1;
        self.stats.global_transactions += lines;
        self.stats.global_write_bytes += lines * CACHE_LINE_BYTES;
    }

    /// Records a shared-memory read.
    pub fn shared_read(&mut self, bytes: u64) {
        self.count(|stats| stats.shared_read_bytes += bytes);
    }

    /// Records a shared-memory write.
    pub fn shared_write(&mut self, bytes: u64) {
        self.count(|stats| stats.shared_write_bytes += bytes);
    }

    /// Records an atomic add to global memory (`atomicAdd` on `B`), which
    /// costs one read-modify-write transaction.
    pub fn atomic_add(&mut self, addr: u64, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.stats.atomic_adds += 1;
        self.global_read(addr, bytes);
        self.stats.global_write_bytes += bytes;
    }

    /// Adds `count` warp instructions.
    pub fn instructions(&mut self, count: u64) {
        self.count(|stats| stats.warp_instructions += count);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Takes the accumulated statistics, resetting them but keeping cache
    /// contents warm.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

/// Logical base addresses for the data structures of an LDA iteration, spaced
/// far apart so their cache sets do not alias artificially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Base of the token list.
    pub token_list: u64,
    /// Base of the document–topic CSR matrix.
    pub doc_topic: u64,
    /// Base of the word–topic count matrix `B`.
    pub word_topic: u64,
    /// Base of the word–topic probability matrix `B̂`.
    pub word_topic_prob: u64,
    /// Base of the per-word sampling-tree arena.
    pub trees: u64,
}

impl Default for AddressMap {
    fn default() -> Self {
        AddressMap {
            token_list: 0,
            doc_topic: 1 << 34,
            word_topic: 1 << 35,
            word_topic_prob: 3 << 34,
            trees: 1 << 36,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The model this module used before the flat tag array: one heap `Vec`
    /// of tags per set, most recently used last. Kept as the oracle the flat
    /// [`L2Cache`] must reproduce hit for hit.
    struct OracleL2 {
        n_sets: usize,
        associativity: usize,
        sets: Vec<Vec<u64>>,
    }

    impl OracleL2 {
        fn new(capacity_bytes: u64, associativity: usize) -> Self {
            let n_lines = (capacity_bytes / CACHE_LINE_BYTES) as usize;
            let n_sets = (n_lines / associativity).max(1);
            OracleL2 {
                n_sets,
                associativity,
                sets: vec![Vec::new(); n_sets],
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / CACHE_LINE_BYTES;
            let set = &mut self.sets[(line as usize) % self.n_sets];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set.remove(pos);
                set.push(line);
                true
            } else {
                if set.len() >= self.associativity {
                    set.remove(0);
                }
                set.push(line);
                false
            }
        }

        fn reset(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }
    }

    /// [`MemoryTracker`]'s line-by-line accounting as it was written over
    /// the oracle cache.
    struct OracleTracker {
        l2: OracleL2,
        stats: KernelStats,
    }

    impl OracleTracker {
        fn global_read(&mut self, addr: u64, bytes: u64) {
            if bytes == 0 {
                return;
            }
            for line in addr / CACHE_LINE_BYTES..=(addr + bytes - 1) / CACHE_LINE_BYTES {
                self.stats.global_transactions += 1;
                if self.l2.access(line * CACHE_LINE_BYTES) {
                    self.stats.l2_hit_bytes += CACHE_LINE_BYTES;
                } else {
                    self.stats.global_read_bytes += CACHE_LINE_BYTES;
                }
            }
        }

        fn global_write(&mut self, addr: u64, bytes: u64) {
            if bytes == 0 {
                return;
            }
            for line in addr / CACHE_LINE_BYTES..=(addr + bytes - 1) / CACHE_LINE_BYTES {
                self.stats.global_transactions += 1;
                self.l2.access(line * CACHE_LINE_BYTES);
                self.stats.global_write_bytes += CACHE_LINE_BYTES;
            }
        }

        fn atomic_add(&mut self, addr: u64, bytes: u64) {
            self.stats.atomic_adds += 1;
            self.global_read(addr, bytes);
            self.stats.global_write_bytes += bytes;
        }
    }

    /// Decodes one random word into an address: a small hot set, lines that
    /// alias into one cache set, or anywhere in a 1 MiB window.
    fn decode_addr(raw: u64, n_sets: u64) -> u64 {
        let payload = raw >> 8;
        match raw & 3 {
            0 | 1 => (payload % 12) * CACHE_LINE_BYTES + payload % CACHE_LINE_BYTES,
            2 => (payload % 40) * n_sets * CACHE_LINE_BYTES,
            _ => payload % (1 << 20),
        }
    }

    proptest! {
        #[test]
        fn flat_cache_replays_the_oracle_hit_for_hit(
            raw in proptest::collection::vec(any::<u64>(), 1..600),
            capacity_lines in 1u64..80,
            associativity in 1usize..20,
        ) {
            // `capacity_lines < associativity` is a cache below one full set.
            let capacity = capacity_lines * CACHE_LINE_BYTES;
            let mut flat = L2Cache::new(capacity, associativity);
            let mut oracle = OracleL2::new(capacity, associativity);
            for (i, &word) in raw.iter().enumerate() {
                if word & 0xff == 0xff {
                    flat = L2Cache::new(capacity, associativity);
                    oracle.reset();
                    continue;
                }
                let addr = decode_addr(word, oracle.n_sets as u64);
                let expected = oracle.access(addr);
                prop_assert_eq!((i, addr, flat.access(addr)), (i, addr, expected));
            }
        }

        #[test]
        fn tracker_counters_match_the_line_by_line_oracle(
            raw in proptest::collection::vec(any::<u64>(), 1..300),
            capacity_lines in 1u64..200,
            four_kib in any::<bool>(),
        ) {
            // 4 KiB is two 16-way sets: most rows span more lines than that.
            let capacity = if four_kib { 4096 } else { capacity_lines * CACHE_LINE_BYTES };
            let mut tracker = MemoryTracker::new(capacity);
            let mut oracle = OracleTracker {
                l2: OracleL2::new(capacity.max(CACHE_LINE_BYTES), 16),
                stats: KernelStats::default(),
            };
            let n_sets = oracle.l2.n_sets as u64;
            for &word in &raw {
                let addr = decode_addr(word, n_sets);
                // Up to 13 lines: the span of one document row at K_d ≈ 190.
                let bytes = (word >> 40) % 1600;
                match (word >> 2) & 7 {
                    // A read repeated 0 to 11 times is that many reads. Every
                    // other one is line-aligned and spans 1, exactly `n_sets`
                    // or `n_sets + 1` lines (the edge of the counted path), or
                    // as many as the cache holds and one more (where repeats
                    // stop hitting, so counting them as hits would show).
                    3 | 4 => {
                        let sizes = [1, n_sets, n_sets + 1, 16 * n_sets, 16 * n_sets + 1];
                        let lines = sizes[(word >> 12) as usize % sizes.len()];
                        let (addr, bytes) = match word & (1 << 11) {
                            0 => (addr, bytes),
                            _ => (addr / CACHE_LINE_BYTES * CACHE_LINE_BYTES, lines * CACHE_LINE_BYTES),
                        };
                        let times = (word >> 56) % 12;
                        tracker.global_read_repeated(addr, bytes, times);
                        (0..times).for_each(|_| oracle.global_read(addr, bytes));
                    }
                    0 => {
                        tracker.global_write(addr, bytes);
                        oracle.global_write(addr, bytes);
                    }
                    1 => {
                        tracker.atomic_add(addr, 4);
                        oracle.atomic_add(addr, 4);
                    }
                    2 if word & 0xf00 == 0 => {
                        tracker = MemoryTracker::new(capacity);
                        oracle.l2.reset();
                        oracle.stats = KernelStats::default();
                    }
                    _ => {
                        tracker.global_read(addr, bytes);
                        oracle.global_read(addr, bytes);
                    }
                }
                prop_assert_eq!(tracker.stats(), &oracle.stats);
            }
        }
    }

    #[test]
    fn cache_hits_on_repeated_access() {
        let mut c = L2Cache::new(4096, 4);
        assert!(!c.access(0));
        assert!(c.access(64)); // same 128-byte line
        assert!(!c.access(128));
        assert!(c.access(0));
    }

    #[test]
    fn cache_evicts_lru() {
        // 2 lines capacity, associativity 2 → a single set.
        let mut c = L2Cache::new(256, 2);
        c.access(0);
        c.access(128);
        c.access(256); // evicts line 0
        assert!(!c.access(0), "line 0 should have been evicted");
        assert!(c.access(256));
    }

    #[test]
    fn tracker_rounds_to_cache_lines() {
        let mut t = MemoryTracker::new(1 << 20);
        t.global_read(0, 4);
        assert_eq!(t.stats().global_read_bytes, CACHE_LINE_BYTES);
        // A 256-byte read spanning a line boundary touches 3 lines.
        t.global_read(100, 256);
        assert_eq!(t.stats().global_transactions, 4);
    }

    #[test]
    fn tracker_reports_l2_hits_separately() {
        let mut t = MemoryTracker::new(1 << 20);
        t.global_read(0, 128);
        t.global_read(0, 128);
        assert_eq!(t.stats().global_read_bytes, 128);
        assert_eq!(t.stats().l2_hit_bytes, 128);
    }

    #[test]
    fn writes_and_atomics_accumulate() {
        let mut t = MemoryTracker::new(1 << 20);
        t.global_write(0, 4);
        t.atomic_add(4096, 4);
        assert_eq!(t.stats().atomic_adds, 1);
        assert!(t.stats().global_write_bytes >= 128 + 4);
        t.shared_read(64);
        t.shared_write(32);
        assert_eq!(t.stats().shared_bytes(), 96);
    }

    #[test]
    fn reset_and_take() {
        let mut t = MemoryTracker::new(1 << 20);
        t.global_read(0, 1);
        t.instructions(10);
        let s = t.take_stats();
        assert_eq!(s.warp_instructions, 10);
        assert_eq!(t.stats().warp_instructions, 0);
        // Taking keeps the cache warm: the same line hits.
        t.global_read(0, 1);
        assert_eq!(t.stats().l2_hit_bytes, CACHE_LINE_BYTES);
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut t = MemoryTracker::disabled();
        assert!(!t.is_enabled() && MemoryTracker::new(1 << 20).is_enabled());
        t.global_read(0, 256);
        t.global_read_repeated(0, 256, 3);
        t.global_write(512, 4);
        t.atomic_add(4096, 4);
        t.shared_read(64);
        t.shared_write(32);
        t.instructions(10);
        assert_eq!(t.stats(), &KernelStats::default());
        assert!(t.l2.tags.iter().all(|&tag| tag == EMPTY_WAY));
        assert_eq!(t.take_stats(), KernelStats::default());
    }

    #[test]
    fn zero_byte_accesses_are_ignored() {
        let mut t = MemoryTracker::new(1 << 20);
        t.global_read(0, 0);
        t.global_write(0, 0);
        assert_eq!(t.stats().global_transactions, 0);
    }

    #[test]
    fn address_map_bases_are_distinct() {
        let m = AddressMap::default();
        let bases = [
            m.token_list,
            m.doc_topic,
            m.word_topic,
            m.word_topic_prob,
            m.trees,
        ];
        for i in 0..bases.len() {
            for j in 0..i {
                assert_ne!(bases[i], bases[j]);
            }
        }
    }
}
