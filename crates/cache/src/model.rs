//! The set-associative cache model (struct-of-arrays hot-path
//! implementation).
//!
//! Every probe in the simulator's inner loop lands here. The previous
//! packed layout (dirty bit folded into the tag word) made every probe
//! pay a mask before the compare and every hit an unconditional
//! read-modify-write store to refresh the dirty bit — a host-sampler
//! split of the kernel's wall time (recorded in CHANGES.md with the
//! change that introduced this layout) put ~99% of it in exactly that
//! arithmetic. The slots are now split into parallel arrays:
//!
//! ```text
//! tags[i]:  raw line address, or u64::MAX for an empty slot (the
//!           sentinel is outside the legal line range `line < 2^63 - 1`,
//!           so the probe needs no valid bit and no mask — a hit is a
//!           bare `tags[i] == line` compare)
//! dirty[i]: 0 or 1, touched only by writes and coherence operations
//! ```
//!
//! Set lookup uses a mask when the set count is a power of two and a
//! precomputed reciprocal multiply-shift otherwise (the paper's 1.25 MB
//! 4-way L2 has 5120 sets — no hardware divide on the probe path).
//! Direct-mapped and 2-way sets — the L1s and several of the paper's L2
//! points — skip the general LRU rotate entirely; the ≥4-way scan
//! compares the whole set unconditionally so the compiler can vectorize
//! the tag compare.
//!
//! Semantics are bit-identical to the retained seed implementation
//! ([`crate::ReferenceCache`]); `tests/sweep_identity.rs` proves it on a
//! million-operation randomized stream per geometry, and the `micro`
//! bench fails if this kernel ever times slower than the reference.
//! Simulator speed itself is measured by `perfbench/` (see its
//! README.md).

use csim_config::CacheGeometry;

use crate::stats::CacheStats;

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The line was present (LRU updated; on a write the line is now
    /// dirty).
    Hit,
    /// The line was absent. The caller services the miss and then calls
    /// [`Cache::insert`].
    Miss,
}

impl Outcome {
    /// Returns `true` on [`Outcome::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// A line pushed out of the cache by [`Cache::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: u64,
    /// Whether the victim held modified data (requires a writeback).
    pub dirty: bool,
}

/// Upper bound (exclusive) on legal line addresses: `2^63 - 1`. Keeps the
/// empty sentinel unambiguous and the reciprocal set index exact (the
/// multiply-shift below is proven for dividends under `2^63`).
const TAG_MASK: u64 = !(1 << 63);
/// Sentinel tag for an empty slot — outside the legal line-address range
/// (`line < TAG_MASK`), so `tags[i] == line` can never match an empty slot
/// and the probe needs no valid bit.
const EMPTY_SLOT: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with true LRU
/// replacement.
///
/// Operates on line addresses. Within each set, slots are kept in MRU→LRU
/// order; a hit rotates the slot to the front, an insertion evicts the last
/// slot when the set is full.
///
/// The number of sets need not be a power of two (indexing divides by a
/// precomputed reciprocal), so fractional-megabyte caches such as the
/// 1.25 MB L2 of the paper's Figure 12 are supported; power-of-two set
/// counts take a mask fast path.
///
/// Line addresses must be below `2^63 - 1` (the all-ones word is the
/// empty-tag sentinel, and the reciprocal set index is exact only below
/// `2^63`). The simulator's address map stays far below that; the bound
/// is debug-asserted.
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    n_sets: usize,
    assoc: usize,
    /// `n_sets - 1` when the set count is a power of two; unused otherwise.
    set_mask: u64,
    /// Whether `set_mask` is valid (power-of-two set count).
    pow2: bool,
    /// Round-up reciprocal of `n_sets` for the non-pow2 set index:
    /// `floor(2^(64+sh) / n_sets) + 1`. Zero (unused) when `pow2`.
    recip_m: u64,
    /// `floor(log2(n_sets))` — the post-multiply shift paired with
    /// `recip_m`.
    recip_sh: u32,
    /// Line-address tags, `n_sets * assoc` long, MRU-first within each
    /// set; [`EMPTY_SLOT`] marks a free slot.
    tags: Vec<u64>,
    /// Dirty flags (0/1), parallel to `tags`. Split out so the probe's
    /// tag compare carries no state bits and read hits store nothing.
    dirty: Vec<u8>,
    /// Live count of valid lines, maintained by insert/invalidate so
    /// [`Cache::occupancy`] is O(1) instead of an O(capacity) scan.
    valid_count: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Example
    ///
    /// ```
    /// use csim_cache::Cache;
    /// use csim_config::CacheGeometry;
    /// let c = Cache::new(CacheGeometry::new(64 << 10, 2, 64)?);
    /// assert_eq!(c.geometry().sets(), 512);
    /// # Ok::<(), csim_config::ConfigError>(())
    /// ```
    pub fn new(geometry: CacheGeometry) -> Self {
        let n_sets = geometry.sets() as usize;
        let assoc = geometry.assoc() as usize;
        let pow2 = n_sets.is_power_of_two();
        let (recip_m, recip_sh) = if pow2 {
            (0, 0)
        } else {
            // Round-up reciprocal (Granlund–Montgomery): with
            // sh = floor(log2 d) and m = floor(2^(64+sh) / d) + 1,
            // floor((line * m) >> (64 + sh)) == line / d exactly for all
            // line < 2^63 (the error term e·line/2^(64+sh) with
            // e = m·d - 2^(64+sh) <= d stays below 1 on that domain).
            // m fits in u64 because d is not a power of two, so
            // d >= 2^sh + 1 and m <= 2^(64+sh)/(2^sh+1) + 1 < 2^64.
            let d = n_sets as u64;
            let sh = 63 - d.leading_zeros();
            let m = ((1u128 << (64 + sh)) / u128::from(d) + 1) as u64;
            (m, sh)
        };
        Cache {
            geometry,
            n_sets,
            assoc,
            set_mask: n_sets as u64 - 1,
            pow2,
            recip_m,
            recip_sh,
            tags: vec![EMPTY_SLOT; n_sets * assoc],
            dirty: vec![0; n_sets * assoc],
            valid_count: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (e.g. at the end of warmup) without touching
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// First slot index of the set the line maps to. Power-of-two set
    /// counts use a mask; others (e.g. the 1.25 MB L2's 5120 sets) use the
    /// precomputed reciprocal — a widening multiply and two shifts instead
    /// of a hardware divide on every probe. The branch is perfectly
    /// predicted — it goes the same way for the lifetime of a cache
    /// instance.
    #[inline(always)]
    fn set_start(&self, line: u64) -> usize {
        let set = if self.pow2 {
            (line & self.set_mask) as usize
        } else {
            let q = ((u128::from(line) * u128::from(self.recip_m)) >> 64) as u64 >> self.recip_sh;
            (line - q * self.n_sets as u64) as usize
        };
        set * self.assoc
    }

    /// Looks a line up and updates LRU state. On a write hit the line
    /// becomes dirty. On a miss nothing is allocated — service the miss and
    /// call [`Cache::insert`].
    // analyze: hot
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn access(&mut self, line: u64, write: bool) -> Outcome {
        debug_assert!(line < TAG_MASK, "line {line:#x} exceeds the legal tag range");
        let start = self.set_start(line);
        match self.assoc {
            // Direct-mapped: one bare compare; a read hit stores nothing
            // (the packed layout's unconditional dirty-refresh store was
            // the single largest probe cost).
            1 => {
                if self.tags[start] == line {
                    if write {
                        self.dirty[start] = 1;
                    }
                    self.stats.record_hit(write);
                    return Outcome::Hit;
                }
            }
            // 2-way: the rotate is a swap (or a no-op on an MRU hit).
            2 => {
                if self.tags[start] == line {
                    if write {
                        self.dirty[start] = 1;
                    }
                    self.stats.record_hit(write);
                    return Outcome::Hit;
                }
                if self.tags[start + 1] == line {
                    self.tags[start + 1] = self.tags[start];
                    self.tags[start] = line;
                    let d = self.dirty[start + 1] | u8::from(write);
                    self.dirty[start + 1] = self.dirty[start];
                    self.dirty[start] = d;
                    self.stats.record_hit(write);
                    return Outcome::Hit;
                }
            }
            _ => {
                // Scan the whole set unconditionally: at most one slot can
                // match, so last-match == the match, and the branch-free
                // body lets the compiler vectorize the tag compare.
                let set = &self.tags[start..start + self.assoc];
                let mut hit = usize::MAX;
                for (i, &t) in set.iter().enumerate() {
                    if t == line {
                        hit = i;
                    }
                }
                if hit != usize::MAX {
                    let d = self.dirty[start + hit] | u8::from(write);
                    // Rotate both arrays to the MRU position.
                    self.tags.copy_within(start..start + hit, start + 1);
                    self.dirty.copy_within(start..start + hit, start + 1);
                    self.tags[start] = line;
                    self.dirty[start] = d;
                    self.stats.record_hit(write);
                    return Outcome::Hit;
                }
            }
        }
        self.stats.record_miss(write);
        Outcome::Miss
    }

    /// `access(line, true)` fused with the pre-store `is_dirty(line)`
    /// read: probes once and also returns whether the line was already
    /// dirty *before* this store marked it. Counters, LRU movement and
    /// the final dirty state are exactly those of the unfused pair
    /// (`is_dirty` mutates nothing); on a miss the second component is
    /// `false`, as `is_dirty` reports for an absent line. The simulator
    /// uses this for the uniprocessor store-ownership shortcut, where
    /// the separate `is_dirty` probe was a measurable second walk of the
    /// set.
    // analyze: hot
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn access_store_was_dirty(&mut self, line: u64) -> (Outcome, bool) {
        debug_assert!(line < TAG_MASK, "line {line:#x} exceeds the legal tag range");
        let start = self.set_start(line);
        match self.assoc {
            1 => {
                if self.tags[start] == line {
                    let was = self.dirty[start] != 0;
                    self.dirty[start] = 1;
                    self.stats.record_hit(true);
                    return (Outcome::Hit, was);
                }
            }
            2 => {
                if self.tags[start] == line {
                    let was = self.dirty[start] != 0;
                    self.dirty[start] = 1;
                    self.stats.record_hit(true);
                    return (Outcome::Hit, was);
                }
                if self.tags[start + 1] == line {
                    let was = self.dirty[start + 1] != 0;
                    self.tags[start + 1] = self.tags[start];
                    self.tags[start] = line;
                    self.dirty[start + 1] = self.dirty[start];
                    self.dirty[start] = 1;
                    self.stats.record_hit(true);
                    return (Outcome::Hit, was);
                }
            }
            _ => {
                let set = &self.tags[start..start + self.assoc];
                let mut hit = usize::MAX;
                for (i, &t) in set.iter().enumerate() {
                    if t == line {
                        hit = i;
                    }
                }
                if hit != usize::MAX {
                    let was = self.dirty[start + hit] != 0;
                    self.tags.copy_within(start..start + hit, start + 1);
                    self.dirty.copy_within(start..start + hit, start + 1);
                    self.tags[start] = line;
                    self.dirty[start] = 1;
                    self.stats.record_hit(true);
                    return (Outcome::Hit, was);
                }
            }
        }
        self.stats.record_miss(true);
        (Outcome::Miss, false)
    }

    /// Records a read hit without probing the set.
    ///
    /// Contract: the caller must already know the line is resident at the
    /// MRU position of its set, so a real `access(line, false)` would hit
    /// and change nothing but the hit counters (an MRU hit rotates
    /// nothing, and a read leaves the dirty bit alone). The simulator
    /// uses this for back-to-back instruction fetches of one line, which
    /// dominate the fetch stream; the counters advance exactly as the
    /// full probe would advance them.
    // analyze: hot
    #[inline]
    pub fn record_repeat_read_hit(&mut self) {
        self.stats.record_hit(false);
    }

    /// Records `n` read hits without probing the set — the batched form
    /// of [`Cache::record_repeat_read_hit`], under the same contract,
    /// for a run of back-to-back fetches of one resident line. Counters
    /// are integers, so one `+= n` equals `n` single hits exactly.
    // analyze: hot
    #[inline]
    pub fn record_repeat_read_hits(&mut self, n: u64) {
        self.stats.record_hits(n);
    }

    /// Checks for presence without touching LRU state or statistics.
    // analyze: hot
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let start = self.set_start(line);
        // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
        self.tags[start..start + self.assoc].contains(&line)
    }

    /// Whether the line is present and modified. `false` when absent.
    // analyze: hot
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn is_dirty(&self, line: u64) -> bool {
        let start = self.set_start(line);
        match self.tags[start..start + self.assoc].iter().position(|&t| t == line) {
            Some(i) => self.dirty[start + i] != 0,
            None => false,
        }
    }

    /// Installs a line at the MRU position, evicting the LRU slot if the
    /// set is full. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present — the caller
    /// must only insert after a miss.
    // analyze: hot
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(line < TAG_MASK, "line {line:#x} exceeds the legal tag range");
        debug_assert!(!self.contains(line), "inserting line {line:#x} that is already cached");
        let start = self.set_start(line);
        if self.assoc == 1 {
            let victim_tag = self.tags[start];
            let victim_dirty = self.dirty[start];
            self.tags[start] = line;
            self.dirty[start] = u8::from(dirty);
            return self.account_insert(victim_tag, victim_dirty);
        }
        // Prefer an invalid slot; otherwise evict LRU (last). Valid slots
        // always precede empty ones (invalidate compacts), so `position`
        // finds the frontmost free slot.
        let victim_idx = self.tags[start..start + self.assoc]
            .iter()
            .position(|&t| t == EMPTY_SLOT)
            .unwrap_or(self.assoc - 1);
        let victim_tag = self.tags[start + victim_idx];
        let victim_dirty = self.dirty[start + victim_idx];
        self.tags.copy_within(start..start + victim_idx, start + 1);
        self.dirty.copy_within(start..start + victim_idx, start + 1);
        self.tags[start] = line;
        self.dirty[start] = u8::from(dirty);
        self.account_insert(victim_tag, victim_dirty)
    }

    /// Shared insert bookkeeping: stats, live occupancy count, and the
    /// evicted-line report.
    #[inline]
    fn account_insert(&mut self, victim_tag: u64, victim_dirty: u8) -> Option<Evicted> {
        if victim_tag != EMPTY_SLOT {
            let dirty = victim_dirty != 0;
            self.stats.record_eviction(dirty);
            Some(Evicted { line: victim_tag, dirty })
        } else {
            self.valid_count += 1;
            None
        }
    }

    /// Removes a line. Returns `Some(dirty)` when it was present.
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let start = self.set_start(line);
        let end = start + self.assoc;
        for i in start..end {
            if self.tags[i] == line {
                let dirty = self.dirty[i] != 0;
                // Compact: shift later (less recent) slots up, free the LRU end.
                self.tags.copy_within(i + 1..end, i);
                self.dirty.copy_within(i + 1..end, i);
                self.tags[end - 1] = EMPTY_SLOT;
                self.dirty[end - 1] = 0;
                self.valid_count -= 1;
                self.stats.record_invalidation();
                return Some(dirty);
            }
        }
        None
    }

    /// Clears the dirty bit of a present line (coherence downgrade M→S).
    /// Returns `true` when the line was present.
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn clean(&mut self, line: u64) -> bool {
        let start = self.set_start(line);
        for i in start..start + self.assoc {
            if self.tags[i] == line {
                self.dirty[i] = 0;
                return true;
            }
        }
        false
    }

    /// Marks a present line dirty without an access (used when ownership is
    /// granted after an upgrade). Returns `true` when the line was present.
    #[inline]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, and tags/dirty hold n_sets*assoc entries from construction, so every probe in the set window is in bounds
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let start = self.set_start(line);
        for i in start..start + self.assoc {
            if self.tags[i] == line {
                self.dirty[i] = 1;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently cached. O(1): the count is
    /// maintained live by [`Cache::insert`] / [`Cache::invalidate`]; debug
    /// builds assert it against a full scan.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.valid_count,
            self.tags.iter().filter(|&&t| t != EMPTY_SLOT).count(),
            "live valid_count diverged from the tag array"
        );
        self.valid_count
    }

    /// Iterates over all resident line addresses (MRU-first within each
    /// set; for tests and reporting).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().copied().filter(|&t| t != EMPTY_SLOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, assoc: u32) -> Cache {
        Cache::new(CacheGeometry::new(size, assoc, 64).unwrap())
    }

    /// Two lines that map to the same set of `c`.
    fn conflicting_pair(c: &Cache) -> (u64, u64) {
        let sets = c.geometry().sets();
        (7, 7 + sets)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4096, 2);
        assert_eq!(c.access(1, false), Outcome::Miss);
        assert!(c.insert(1, false).is_none());
        assert_eq!(c.access(1, false), Outcome::Hit);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = cache(4096, 2);
        c.insert(1, false);
        assert!(!c.is_dirty(1));
        c.access(1, true);
        assert!(c.is_dirty(1));
    }

    #[test]
    fn insert_dirty_is_dirty() {
        let mut c = cache(4096, 2);
        c.insert(9, true);
        assert!(c.is_dirty(9));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.insert(a, false);
        let v = c.insert(b, false).expect("direct-mapped conflict must evict");
        assert_eq!(v.line, a);
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (3, 3 + sets, 3 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a, false), Outcome::Hit);
        let v = c.insert(d, false).unwrap();
        assert_eq!(v.line, b, "LRU line must be evicted");
        assert!(c.contains(a));
        assert!(c.contains(d));
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.insert(a, false);
        c.access(a, true); // dirty it
        let v = c.insert(b, false).unwrap();
        assert_eq!(v, Evicted { line: a, dirty: true });
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = cache(4096, 2);
        c.insert(5, true);
        assert_eq!(c.invalidate(5), Some(true));
        assert!(!c.contains(5));
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn invalidate_frees_slot_for_reuse() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (1, 1 + sets, 1 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false);
        c.invalidate(a);
        // Set now has a free slot: inserting `d` must not evict `b`.
        assert!(c.insert(d, false).is_none());
        assert!(c.contains(b) && c.contains(d));
    }

    #[test]
    fn clean_downgrades_dirty_line() {
        let mut c = cache(4096, 2);
        c.insert(5, true);
        assert!(c.clean(5));
        assert!(!c.is_dirty(5));
        assert!(c.contains(5));
        assert!(!c.clean(1234), "cleaning an absent line reports false");
    }

    #[test]
    fn mark_dirty_upgrades_clean_line() {
        let mut c = cache(4096, 2);
        c.insert(5, false);
        assert!(c.mark_dirty(5));
        assert!(c.is_dirty(5));
        assert!(!c.mark_dirty(77));
    }

    #[test]
    fn contains_does_not_disturb_lru() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (2, 2 + sets, 2 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false); // MRU = b, LRU = a
        assert!(c.contains(a)); // must NOT promote a
        let v = c.insert(d, false).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = cache(4096, 2);
        assert_eq!(c.occupancy(), 0);
        c.insert(1, false);
        c.insert(2, false);
        assert_eq!(c.occupancy(), 2);
        c.invalidate(1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn occupancy_live_count_tracks_evictions() {
        // Evictions replace a line, so occupancy must not grow past capacity.
        let mut c = cache(4096, 1);
        let sets = c.geometry().sets();
        for k in 0..3 {
            c.insert(7 + k * sets, k == 1);
        }
        assert_eq!(c.occupancy(), 1);
        c.invalidate(7 + 2 * sets);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn non_power_of_two_set_count_wraps_by_modulo() {
        // 1.25 MB 4-way => 5120 sets.
        let mut c = cache(5 << 18, 4);
        assert_eq!(c.geometry().sets(), 5120);
        let line = 5120 * 3 + 17; // maps to set 17
        c.insert(line, false);
        assert!(c.contains(line));
        assert_eq!(c.access(line, false), Outcome::Hit);
    }

    #[test]
    fn reciprocal_set_index_matches_modulo() {
        // The strength-reduced non-pow2 set index must equal the plain
        // modulo for every geometry the sweep can construct, across the
        // whole debug-asserted line domain (spot-checked at the extremes).
        for &(size, assoc) in &[(5u64 << 18, 4u32), (5 << 18, 2), (3 << 16, 1), (7 << 20, 8)] {
            let c = cache(size, assoc);
            let n_sets = c.geometry().sets();
            if n_sets.is_power_of_two() {
                continue;
            }
            let check = |line: u64| {
                let expect = (line % n_sets) as usize * c.assoc;
                assert_eq!(c.set_start(line), expect, "sets={n_sets} line={line}");
            };
            for line in 0..3 * n_sets {
                check(line);
            }
            for k in 0..10_000u64 {
                check(TAG_MASK - 1 - k);
                check(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (TAG_MASK - 1));
            }
        }
    }

    #[test]
    fn large_line_addresses_pack_round_trip() {
        // A line address near the top of the legal range must survive
        // insert/evict intact alongside its dirty flag.
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let big = (1u64 << 58) + 17; // multiple of nothing special; maps by modulo/mask
        c.insert(big, true);
        assert!(c.contains(big));
        assert!(c.is_dirty(big));
        let conflict_a = big + sets;
        let conflict_b = big + 2 * sets;
        c.insert(conflict_a, false);
        let v = c.insert(conflict_b, false).unwrap();
        assert_eq!(v, Evicted { line: big, dirty: true });
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.access(a, false);
        c.insert(a, false);
        c.access(a, true);
        c.access(b, false);
        c.insert(b, false); // evicts dirty a
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.dirty_evictions, 1);
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn full_associative_set_keeps_working_set() {
        let mut c = cache(8 * 64, 8); // one 8-way set
        for l in 0..8u64 {
            assert_eq!(c.access(l, false), Outcome::Miss);
            c.insert(l, false);
        }
        for l in 0..8u64 {
            assert_eq!(c.access(l, false), Outcome::Hit, "line {l} should still be resident");
        }
        // Ninth line evicts the LRU, which after the hit sweep is line 0.
        let v = c.insert(8, false).unwrap();
        assert_eq!(v.line, 0);
    }
}
