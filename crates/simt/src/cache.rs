//! Set-associative LRU cache model.
//!
//! Used for both the per-SM read-only (texture) cache — the §III-D4
//! optimization — and the per-SM slice of the device L2. Tracks the hit/miss
//! statistics reported in Table II. The model is a plain tag array: no MSHRs
//! or sector states; one probe per line-sized transaction.

/// Hit/miss counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
}

impl CacheStats {
    #[inline]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    pub fn merge(&mut self, other: CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Each set keeps its ways in recency order, most recent first: a hit
/// rotates the way to the front and a miss evicts the last way. That is
/// the hit/miss sequence of stamp-based true LRU without the stamps.
#[derive(Clone, Debug)]
pub struct Cache {
    /// `tags[set * ways ..][..ways]`, most recently used first;
    /// `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// `sets − 1`; the set count is a power of two.
    set_mask: u64,
    ways: usize,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with the given associativity and
    /// line size. Capacity must be a multiple of `ways * line_bytes`; the
    /// set count is rounded down to a power of two (hardware-style index
    /// extraction).
    pub fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two());
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes).max(ways);
        // Round the set count *down* to a power of two (hardware index bits).
        let raw_sets = (lines / ways).max(1);
        let sets = 1u32 << (31 - raw_sets.leading_zeros());
        Cache {
            tags: vec![u64::MAX; (sets * ways) as usize],
            set_mask: sets as u64 - 1,
            ways: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// Probe the line containing `addr`; fill on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        match slots.iter().position(|&t| t == line) {
            Some(w) => {
                slots[..=w].rotate_right(1);
                self.stats.hits += 1;
                true
            }
            None => {
                // Miss: the last way is the least recently used.
                slots.rotate_right(1);
                slots[0] = line;
                false
            }
        }
    }

    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of sets (for tests).
    pub fn num_sets(&self) -> u32 {
        (self.set_mask + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;

    /// The stamp-based true-LRU cache the recency-ordered sets replaced,
    /// kept as the oracle: a monotone stamp per access, the victim is the
    /// way with the oldest stamp (invalid ways carry stamp 0 and go first).
    struct StampLru {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        sets: u32,
        ways: u32,
        line_shift: u32,
        tick: u64,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
            let lines = (capacity_bytes / line_bytes).max(ways);
            let raw_sets = (lines / ways).max(1);
            let sets = 1u32 << (31 - raw_sets.leading_zeros());
            StampLru {
                tags: vec![u64::MAX; (sets * ways) as usize],
                stamps: vec![0; (sets * ways) as usize],
                sets,
                ways,
                line_shift: line_bytes.trailing_zeros(),
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let line = addr >> self.line_shift;
            let set = (line % self.sets as u64) as u32;
            let base = (set * self.ways) as usize;
            let ways = self.ways as usize;
            let slots = &mut self.tags[base..base + ways];
            if let Some(w) = slots.iter().position(|&t| t == line) {
                self.stamps[base + w] = self.tick;
                self.stats.hits += 1;
                return true;
            }
            let victim = (0..ways)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("ways >= 1");
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.tick;
            false
        }
    }

    #[test]
    fn recency_order_matches_stamp_lru() {
        // (capacity, ways): direct-mapped, an 8-way texture cache whose raw
        // set count (96 KB / 32 B / 8 = 384) rounds down to 256, a 16-way
        // L2 slice, and a 16-way cache with only two sets.
        let shapes = [(4 * 1024, 1), (96 * 1024, 8), (8 * 1024, 16), (1024, 16)];
        for (capacity, ways) in shapes {
            for case in 0..8 {
                let mut rng = Lcg::for_case(case);
                let mut fast = Cache::new(capacity, ways, 32);
                let mut oracle = StampLru::new(capacity, ways, 32);
                assert_eq!(fast.num_sets(), oracle.sets);
                // A working set up to 4x the capacity: re-touches of recent
                // addresses, a hot region, and cold far-away lines.
                let hot = 4 * capacity as u64;
                let mut recent = [0u64; 16];
                for i in 0..20_000 {
                    let addr = match rng.below(4) {
                        0 => recent[rng.below(16) as usize] + rng.below(32),
                        1 | 2 => rng.below(hot),
                        _ => rng.next(),
                    };
                    recent[i % 16] = addr;
                    let want = oracle.access(addr);
                    assert_eq!(
                        fast.access(addr),
                        want,
                        "{capacity} B x {ways} ways, case {case}, access {i}"
                    );
                }
                assert_eq!(fast.stats(), oracle.stats);
            }
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 4, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same line
        assert!(!c.access(32)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 sets? Force a single set: capacity = ways * line -> sets = 1.
        let mut c = Cache::new(2 * 32, 2, 32);
        assert_eq!(c.num_sets(), 1);
        c.access(0); // A
        c.access(64); // B (same set, way 2)
        c.access(0); // A again: A is MRU
        c.access(128); // C evicts B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(64), "B was evicted");
    }

    #[test]
    fn capacity_bound_working_set_always_hits_after_warmup() {
        let mut c = Cache::new(4096, 4, 32);
        let lines: Vec<u64> = (0..64).map(|i| i * 32).collect(); // 2 KiB
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..4 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut c = Cache::new(1024, 4, 32); // 32 lines
        let lines: Vec<u64> = (0..256).map(|i| i * 32).collect(); // 8 KiB
        for _ in 0..3 {
            for &a in &lines {
                c.access(a);
            }
        }
        assert!(c.stats().hit_rate() < 0.1, "rate {}", c.stats().hit_rate());
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 7,
        };
        a.merge(CacheStats {
            accesses: 10,
            hits: 1,
        });
        assert_eq!(a.accesses, 20);
        assert_eq!(a.hits, 8);
        assert_eq!(a.misses(), 12);
        assert!((a.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
