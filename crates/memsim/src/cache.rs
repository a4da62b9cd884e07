//! Set-associative cache model.
//!
//! The simulator tracks *presence* of cache lines (tags only, no data — data
//! lives in [`crate::PhysMem`]) with true LRU replacement. This is enough to
//! decide, for every memory reference a walk performs, at which level of the
//! hierarchy it hits, which is what determines the latencies the paper
//! measures.

use crate::addr::{PhysAddr, LINE_SHIFT};

/// Configuration of a single cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set). `1` = direct mapped.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_size: u64,
    /// Latency of a hit at this level, in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_size`, or the set count is not a power of two).
    pub fn sets(&self) -> usize {
        let sets = self.capacity / (self.ways as u64 * self.line_size);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

/// Per-cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`, or 0 if no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Publishes the counters into `reg` under `prefix` (as
    /// `<prefix>.hits` and `<prefix>.misses`).
    pub fn export(&self, reg: &mut hpmp_trace::MetricsRegistry, prefix: &str) {
        let ids = CacheStatsIds::wire(reg, prefix);
        self.store(reg, &ids);
    }

    /// Publishes the counters through handles wired by
    /// [`CacheStatsIds::wire`].
    pub fn store(&self, reg: &mut hpmp_trace::MetricsRegistry, ids: &CacheStatsIds) {
        reg.store(ids.hits, self.hits);
        reg.store(ids.misses, self.misses);
    }
}

/// Interned counter handles for publishing [`CacheStats`] repeatedly
/// without re-formatting names.
#[derive(Clone, Copy, Debug)]
pub struct CacheStatsIds {
    hits: hpmp_trace::CounterId,
    misses: hpmp_trace::CounterId,
}

impl CacheStatsIds {
    /// Intern the counter names under `prefix` once.
    pub fn wire(reg: &mut hpmp_trace::MetricsRegistry, prefix: &str) -> CacheStatsIds {
        CacheStatsIds {
            hits: reg.counter(format!("{prefix}.hits")),
            misses: reg.counter(format!("{prefix}.misses")),
        }
    }
}

/// One way of a set. An empty way holds [`INVALID_TAG`], which no address
/// maps to, and LRU stamp 0, which no access stamps: a tag compare alone
/// finds hits, and the least stamp picks an empty way before any valid one.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    /// Higher = more recently used.
    lru: u64,
}

/// Tag of an empty way. Tags are the line address shifted right by at
/// least one bit (see [`Cache::new`]), so none reaches `u64::MAX`.
const INVALID_TAG: u64 = u64::MAX;

const EMPTY_WAY: Way = Way {
    tag: INVALID_TAG,
    lru: 0,
};

/// A set-associative, true-LRU, tags-only cache.
///
/// The ways live in one flat `sets × ways` array that is allocated on the
/// first [`Cache::access`] and emptied again by [`Cache::invalidate_all`].
/// A cache that holds no line therefore costs nothing to build, clone or
/// drop — the common case for the model checker's forked states, which
/// never issue a memory reference.
///
/// ```
/// use hpmp_memsim::{Cache, CacheConfig, PhysAddr};
/// let mut c = Cache::new(CacheConfig {
///     capacity: 4096, ways: 2, line_size: 64, hit_latency: 2,
/// });
/// let a = PhysAddr::new(0x1000);
/// assert!(!c.access(a)); // cold miss, line filled
/// assert!(c.access(a));  // now hits
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Set `s` occupies `ways[s * config.ways..][..config.ways]`; empty
    /// while no way holds a line.
    ways: Vec<Way>,
    set_mask: u64,
    line_shift: u32,
    /// `line_shift` plus the number of set-index bits.
    tag_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry. No storage is allocated
    /// until the first access.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]),
    /// or if a one-byte line meets a single set, which would leave no
    /// address bit out of the tag.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways >= 1, "cache needs at least one way");
        let sets = config.sets();
        let line_shift = config.line_size.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        assert!(tag_shift > 0, "a tag must drop at least one address bit");
        Cache {
            config,
            ways: Vec::new(),
            set_mask: sets as u64 - 1,
            line_shift,
            tag_shift,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up `addr`, filling the line on a miss (allocate-on-miss).
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        if self.ways.is_empty() {
            let lines = (self.set_mask as usize + 1) * self.config.ways;
            self.ways.resize(lines, EMPTY_WAY);
        }
        let (set, tag) = self.index(addr);
        self.clock += 1;
        let clock = self.clock;
        let n = self.config.ways;
        let ways = &mut self.ways[set * n..][..n];
        // One pass finds the hit or, failing that, the first
        // least-recently-used way (so the first empty way when the set has
        // one).
        let (mut victim, mut least) = (0, u64::MAX);
        for (i, way) in ways.iter().enumerate() {
            if way.tag == tag {
                ways[i].lru = clock;
                self.stats.hits += 1;
                return true;
            }
            let older = way.lru < least;
            victim = if older { i } else { victim };
            least = if older { way.lru } else { least };
        }
        self.stats.misses += 1;
        ways[victim] = Way { tag, lru: clock };
        false
    }

    /// Checks whether `addr` is present without touching LRU state or stats.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        let n = self.config.ways;
        self.ways
            .get(set * n..(set + 1) * n)
            .is_some_and(|ways| ways.iter().any(|w| w.tag == tag))
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: PhysAddr) {
        let (set, tag) = self.index(addr);
        let n = self.config.ways;
        if let Some(ways) = self.ways.get_mut(set * n..(set + 1) * n) {
            for way in ways.iter_mut().filter(|w| w.tag == tag) {
                *way = EMPTY_WAY;
            }
        }
    }

    /// Invalidates the entire cache (e.g. on a simulated flush). The
    /// storage is kept for the next access to refill.
    pub fn invalidate_all(&mut self) {
        self.ways.clear();
    }

    /// Hit/miss counters accumulated since construction (or the last
    /// [`Cache::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the hit/miss counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        (
            ((addr.raw() >> self.line_shift) & self.set_mask) as usize,
            addr.raw() >> self.tag_shift,
        )
    }
}

/// Returns the number of distinct cache lines touched by the byte range
/// `[addr, addr + len)` — useful for modelling multi-line objects.
pub fn lines_spanned(addr: PhysAddr, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = addr.raw() >> LINE_SHIFT;
    let last = (addr.raw() + len - 1) >> LINE_SHIFT;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256B.
        Cache::new(CacheConfig {
            capacity: 256,
            ways: 2,
            line_size: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr::new(0x40);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn same_line_shares_entry() {
        let mut c = tiny();
        assert!(!c.access(PhysAddr::new(0x100)));
        assert!(c.access(PhysAddr::new(0x13f))); // same 64B line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: 0x000, 0x080, 0x100 (stride = sets*line = 128).
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x080));
        c.access(PhysAddr::new(0x000)); // refresh 0x000
        c.access(PhysAddr::new(0x100)); // evicts 0x080
        assert!(c.probe(PhysAddr::new(0x000)));
        assert!(!c.probe(PhysAddr::new(0x080)));
        assert!(c.probe(PhysAddr::new(0x100)));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x000));
        let stats = c.stats();
        assert!(c.probe(PhysAddr::new(0x000)));
        assert!(!c.probe(PhysAddr::new(0x080)));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn invalidate_single_and_all() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x040));
        c.invalidate(PhysAddr::new(0x000));
        assert!(!c.probe(PhysAddr::new(0x000)));
        assert!(c.probe(PhysAddr::new(0x040)));
        c.invalidate_all();
        assert!(!c.probe(PhysAddr::new(0x040)));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            capacity: 128,
            ways: 1,
            line_size: 64,
            hit_latency: 1,
        });
        c.access(PhysAddr::new(0x000));
        c.access(PhysAddr::new(0x080)); // maps to same set, evicts
        assert!(!c.probe(PhysAddr::new(0x000)));
    }

    #[test]
    fn spanned_lines() {
        assert_eq!(lines_spanned(PhysAddr::new(0x00), 0), 0);
        assert_eq!(lines_spanned(PhysAddr::new(0x00), 1), 1);
        assert_eq!(lines_spanned(PhysAddr::new(0x3f), 2), 2);
        assert_eq!(lines_spanned(PhysAddr::new(0x00), 129), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            capacity: 192,
            ways: 1,
            line_size: 64,
            hit_latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least one address bit")]
    fn untagged_geometry_panics() {
        Cache::new(CacheConfig {
            capacity: 4,
            ways: 4,
            line_size: 1,
            hit_latency: 1,
        });
    }

    /// The per-set `Vec` true-LRU store the flat store replaced, kept as
    /// the reference the flat store must match access for access.
    struct RefCache {
        sets: Vec<Vec<RefWay>>,
        set_mask: u64,
        line_shift: u32,
        clock: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy, Default)]
    struct RefWay {
        valid: bool,
        tag: u64,
        lru: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> RefCache {
            let sets = config.sets();
            RefCache {
                sets: vec![vec![RefWay::default(); config.ways]; sets],
                set_mask: sets as u64 - 1,
                line_shift: config.line_size.trailing_zeros(),
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: PhysAddr) -> bool {
            let (set, tag) = self.index(addr);
            self.clock += 1;
            let clock = self.clock;
            let ways = &mut self.sets[set];
            if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.lru = clock;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
                .expect("cache has at least one way");
            *victim = RefWay {
                valid: true,
                tag,
                lru: clock,
            };
            false
        }

        fn probe(&self, addr: PhysAddr) -> bool {
            let (set, tag) = self.index(addr);
            self.sets[set].iter().any(|w| w.valid && w.tag == tag)
        }

        fn invalidate(&mut self, addr: PhysAddr) {
            let (set, tag) = self.index(addr);
            for way in &mut self.sets[set] {
                if way.valid && way.tag == tag {
                    way.valid = false;
                }
            }
        }

        fn invalidate_all(&mut self) {
            for set in &mut self.sets {
                for way in set {
                    way.valid = false;
                }
            }
        }

        fn index(&self, addr: PhysAddr) -> (usize, u64) {
            let line = addr.raw() >> self.line_shift;
            (
                (line & self.set_mask) as usize,
                line >> self.set_mask.count_ones(),
            )
        }
    }

    /// An address in one of the first four sets with one of `2 * ways + 2`
    /// tags, so sets overflow and evict; one draw in eight is anywhere in
    /// a 64 GiB range.
    fn draw_addr(rng: &mut crate::SplitMix64, config: &CacheConfig) -> PhysAddr {
        if rng.gen_range(0..8) == 0 {
            return PhysAddr::new(rng.gen_range(0..1 << 36));
        }
        let sets = config.sets() as u64;
        let set = rng.gen_range(0..sets.min(4));
        let tag = rng.gen_range(0..2 * config.ways as u64 + 2);
        let offset = rng.gen_range(0..config.line_size);
        PhysAddr::new((tag * sets + set) * config.line_size + offset)
    }

    #[test]
    fn flat_store_matches_per_set_reference() {
        let rocket = crate::MemSystemConfig::rocket();
        let geometries = [
            CacheConfig {
                capacity: 512,
                ways: 1,
                line_size: 64,
                hit_latency: 1,
            },
            CacheConfig {
                capacity: 1024,
                ways: 2,
                line_size: 32,
                hit_latency: 1,
            },
            rocket.l1,
            rocket.l2,
            rocket.llc,
        ];
        let mut rng = crate::SplitMix64::seed_from_u64(0xf1a7);
        for config in geometries {
            let mut flat = Cache::new(config);
            let mut reference = RefCache::new(config);
            for step in 0..20_000 {
                let addr = draw_addr(&mut rng, &config);
                let ctx = format!("{config:?} step {step} at {addr:?}");
                match rng.gen_range(0..100) {
                    0..=69 => assert_eq!(flat.access(addr), reference.access(addr), "{ctx}"),
                    70..=89 => assert_eq!(flat.probe(addr), reference.probe(addr), "{ctx}"),
                    90..=98 => {
                        flat.invalidate(addr);
                        reference.invalidate(addr);
                    }
                    _ => {
                        flat.invalidate_all();
                        reference.invalidate_all();
                    }
                }
                assert_eq!(flat.stats(), reference.stats, "{ctx}");
            }
            assert!(flat.stats().hits > 0 && flat.stats().misses > 0);
        }
    }

    #[test]
    fn forks_do_not_share_state() {
        let config = crate::MemSystemConfig::rocket().l1;
        let addrs: Vec<PhysAddr> = (0..64u64)
            .map(|i| PhysAddr::new(0x8000_0000 + i * 0x440))
            .collect();

        // Lookups and invalidations that find no store allocate none.
        let mut untouched = Cache::new(config);
        assert!(!untouched.probe(addrs[0]));
        untouched.invalidate(addrs[0]);
        untouched.invalidate_all();
        let mut fork = untouched.clone();
        for &a in &addrs {
            fork.access(a);
        }
        assert!(addrs.iter().all(|&a| !untouched.probe(a)));
        assert_eq!(untouched.stats(), CacheStats::default());
        assert_eq!(untouched.ways.capacity(), 0);

        let mut warm = Cache::new(config);
        for &a in &addrs[..32] {
            warm.access(a);
        }
        let present: Vec<bool> = addrs.iter().map(|&a| warm.probe(a)).collect();
        let stats = warm.stats();
        let mut fork = warm.clone();
        fork.invalidate(addrs[0]);
        for &a in &addrs[32..] {
            fork.access(a);
        }
        assert_ne!(
            addrs.iter().map(|&a| fork.probe(a)).collect::<Vec<_>>(),
            present
        );
        fork.invalidate_all();
        assert_eq!(
            addrs.iter().map(|&a| warm.probe(a)).collect::<Vec<_>>(),
            present
        );
        assert_eq!(warm.stats(), stats);
        assert!(warm.access(addrs[0]), "the original keeps its lines");
    }
}
