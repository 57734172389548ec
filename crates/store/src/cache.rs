//! Bounded page cache with clock (second-chance) eviction and dirty
//! write-back.
//!
//! The cache is the memory half of the storage engine: at most
//! `capacity` page frames are resident; faulting a page that is not
//! resident loads it from the [`PageFile`], evicting the first
//! not-recently-referenced frame the clock hand finds (writing it back
//! first if dirty). Eviction order is **deterministic** for a fixed
//! access schedule: the hand starts at frame 0, every fault advances it
//! by the same rule, and nothing in the policy depends on time or thread
//! identity. (Concurrent accessors of one table — the lookahead prefetch
//! racing the dense compute — interleave their *schedules*
//! nondeterministically, which may shift hit/miss counts, but every
//! access goes through this one coherent cache, so row values are exact
//! regardless. See `StoredTable`'s docs.)

use crate::error::StorageError;
use crate::pagefile::PageFile;
use lazydp_obs::CacheCounters;

/// Frame page id meaning "belongs to no page": set when an eviction's
/// replacement load fails after the old mapping was already removed.
/// Can never collide with a real id — tables address pages `0..pages`.
const ORPHAN_PAGE: usize = usize::MAX;

/// Page-table entry meaning "not resident".
const NOT_RESIDENT: u32 = u32::MAX;

/// One resident page.
#[derive(Debug)]
struct Frame {
    page: usize,
    data: Vec<f32>,
    dirty: bool,
    /// Second-chance bit: set on every access, cleared when the clock
    /// hand sweeps past.
    referenced: bool,
}

/// A bounded set of page frames with clock eviction.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    page_elems: usize,
    frames: Vec<Frame>,
    /// The page table: `table[page]` is the frame slot holding `page`,
    /// or [`NOT_RESIDENT`]. Dense and indexed by page id — residency is
    /// consulted on every row access, and an array load costs nothing
    /// where a hash did — at 4 bytes per page of the table, grown to the
    /// highest page id ever resident.
    table: Vec<u32>,
    hand: usize,
    /// Per-instance counters, mirrored into the `lazydp_obs` registry
    /// (`store.*` metrics) on every record.
    counters: CacheCounters,
}

impl PageCache {
    /// Creates an empty cache of at most `capacity` pages of
    /// `page_elems` elements each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `page_elems == 0`.
    #[must_use]
    pub fn new(capacity: usize, page_elems: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one page");
        assert!(page_elems > 0, "pages must be non-empty");
        Self {
            capacity,
            page_elems,
            frames: Vec::new(),
            table: Vec::new(),
            hand: 0,
            counters: CacheCounters::new(),
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// The per-instance counters so far (test-only: production readers
    /// go through the `lazydp_obs` registry snapshot — rule O1).
    #[cfg(test)]
    #[must_use]
    pub fn stats(&self) -> lazydp_obs::CacheView {
        self.counters.obs_read()
    }

    /// The frame slot holding `page`, if it is resident.
    fn slot_of(&self, page: usize) -> Option<usize> {
        match self.table.get(page) {
            Some(&slot) if slot != NOT_RESIDENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Faults `page` in (loading from `file` on a miss, evicting via the
    /// clock if full) and returns its frame slot, for
    /// [`frame`](Self::frame) / [`frame_mut`](Self::frame_mut). The
    /// slot holds `page` until the next fault on this cache. The frame's
    /// reference bit is set.
    ///
    /// Counters move only once the I/O they count has succeeded, so a
    /// miss that bounded retry had to re-issue is still one miss and one
    /// page of `bytes_loaded`; `evictions` counts pages that lost
    /// residency (recycling an orphan frame is not one).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the load or an eviction write-back.
    pub fn touch(&mut self, page: usize, file: &mut PageFile) -> Result<usize, StorageError> {
        if let Some(slot) = self.slot_of(page) {
            self.counters.record_hit();
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        let slot = if self.frames.len() < self.capacity {
            let mut data = vec![0.0f32; self.page_elems];
            file.read_page(page, &mut data)?;
            self.frames.push(Frame {
                page,
                data,
                dirty: false,
                referenced: true,
            });
            self.frames.len() - 1
        } else {
            let slot = self.evict_slot();
            if self.frames[slot].dirty {
                // Clean *before* the fallible load below: were the frame
                // to stay dirty as an orphan, it would eventually write
                // stale bytes over a newer copy of the evicted page.
                self.write_back(slot, file)?;
            }
            let frame = &mut self.frames[slot];
            if frame.page != ORPHAN_PAGE {
                self.table[frame.page] = NOT_RESIDENT;
                self.counters.record_eviction();
            }
            // The old mapping is gone, so until the load succeeds the
            // frame's bytes belong to no page. Poison its id: if it kept
            // the evicted one and that page were later faulted into
            // another frame, recycling this orphan would unmap the
            // *live* frame — stranding its dirty updates and silently
            // resurrecting the stale file copy.
            frame.page = ORPHAN_PAGE;
            frame.referenced = false;
            file.read_page(page, &mut frame.data)?;
            frame.page = page;
            frame.referenced = true;
            slot
        };
        self.counters.record_miss(file.page_bytes());
        if page >= self.table.len() {
            self.table.resize(page + 1, NOT_RESIDENT);
        }
        self.table[page] = u32::try_from(slot)
            .ok()
            .filter(|&s| s != NOT_RESIDENT)
            .expect("fewer than u32::MAX frames");
        Ok(slot)
    }

    /// Clock sweep: advance the hand, clearing reference bits, until a
    /// frame without its second chance is found. Terminates because each
    /// cleared bit can only delay a frame by one full revolution.
    fn evict_slot(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[slot].referenced {
                self.frames[slot].referenced = false;
            } else {
                return slot;
            }
        }
    }

    /// Writes the dirty frame in `slot` back to `file` and marks it
    /// clean; the traffic is counted (as spill bytes) once it landed.
    fn write_back(&mut self, slot: usize, file: &mut PageFile) -> Result<(), StorageError> {
        let frame = &mut self.frames[slot];
        file.write_page(frame.page, &frame.data)?;
        frame.dirty = false;
        self.counters.record_write_back(file.page_bytes());
        Ok(())
    }

    /// The page held in `slot`, as returned by [`touch`](Self::touch).
    #[must_use]
    pub fn frame(&self, slot: usize) -> &[f32] {
        &self.frames[slot].data
    }

    /// Like [`frame`](Self::frame), mutably; marks the frame dirty.
    pub fn frame_mut(&mut self, slot: usize) -> &mut [f32] {
        let frame = &mut self.frames[slot];
        frame.dirty = true;
        &mut frame.data
    }

    /// Takes every frame's second chance away. The next `capacity`
    /// distinct pages faulted then all stay resident, unless a fault
    /// fails and is retried: for the clock hand to come back round to
    /// one of them, every other frame would have to be referenced, that
    /// is, hold a page faulted since. A failed fault stops the hand
    /// without filling a frame, so retries can revolve it.
    pub fn clear_references(&mut self) {
        for frame in &mut self.frames {
            frame.referenced = false;
        }
    }

    /// The frames of `pages`, in page order, each marked dirty — or
    /// `None` unless every one of them is resident. Lends several frames
    /// at once, so a sweep can share a run of pages out to threads.
    pub fn frames_mut(&mut self, pages: std::ops::Range<usize>) -> Option<Vec<&mut [f32]>> {
        let slots: Vec<usize> = pages
            .map(|page| self.slot_of(page))
            .collect::<Option<_>>()?;
        let mut frames: Vec<Option<&mut Frame>> = self.frames.iter_mut().map(Some).collect();
        let lend = |slot: usize| {
            let frame = frames[slot].take().expect("a page has one frame");
            frame.dirty = true;
            &mut frame.data[..]
        };
        Some(slots.into_iter().map(lend).collect())
    }

    /// Runs `f` on the resident copy of `page`.
    ///
    /// # Errors
    ///
    /// Propagates fault I/O errors.
    pub fn with_page<R>(
        &mut self,
        page: usize,
        file: &mut PageFile,
        f: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, StorageError> {
        let slot = self.touch(page, file)?;
        Ok(f(self.frame(slot)))
    }

    /// Runs `f` on the resident copy of `page` mutably and marks the
    /// frame dirty.
    ///
    /// # Errors
    ///
    /// Propagates fault I/O errors.
    pub fn with_page_mut<R>(
        &mut self,
        page: usize,
        file: &mut PageFile,
        f: impl FnOnce(&mut [f32]) -> R,
    ) -> Result<R, StorageError> {
        let slot = self.touch(page, file)?;
        Ok(f(self.frame_mut(slot)))
    }

    /// The resident copy of `page`, if any, setting its reference bit.
    /// Never faults and records no hit.
    pub fn peek(&mut self, page: usize) -> Option<&[f32]> {
        let slot = self.slot_of(page)?;
        self.frames[slot].referenced = true;
        Some(&self.frames[slot].data)
    }

    /// Writes every dirty frame back to `file` (frames stay resident and
    /// become clean). Write-back traffic is counted as spill bytes.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors.
    pub fn flush(&mut self, file: &mut PageFile) -> Result<(), StorageError> {
        for slot in 0..self.frames.len() {
            if self.frames[slot].dirty {
                self.write_back(slot, file)?;
            }
        }
        Ok(())
    }

    /// The resident frames as `(page, data)` pairs, in an unspecified
    /// order. Frame data is authoritative — it is at least as new as
    /// the file's copy — which is what the degradation path needs to
    /// rebuild a bitwise-identical resident table when the spill device
    /// dies.
    pub fn resident_pages(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.frames
            .iter()
            .filter(|fr| fr.page != ORPHAN_PAGE)
            .map(|fr| (fr.page, fr.data.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pages: usize, elems: usize) -> PageFile {
        PageFile::create(&std::env::temp_dir(), pages, elems).expect("page file")
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut f = file(4, 2);
        let mut c = PageCache::new(2, 2);
        c.touch(0, &mut f).unwrap();
        c.touch(1, &mut f).unwrap();
        c.touch(0, &mut f).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.bytes_loaded, 2 * 2 * 4);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn writes_survive_eviction_round_trips() {
        let mut f = file(3, 2);
        let mut c = PageCache::new(1, 2); // pathological 1-page cache
        c.with_page_mut(0, &mut f, |p| p.copy_from_slice(&[1.0, 2.0]))
            .unwrap();
        c.with_page_mut(1, &mut f, |p| p.copy_from_slice(&[3.0, 4.0]))
            .unwrap();
        c.with_page_mut(2, &mut f, |p| p.copy_from_slice(&[5.0, 6.0]))
            .unwrap();
        // Pages 0 and 1 were evicted dirty; fault them back.
        let got0 = c.with_page(0, &mut f, <[f32]>::to_vec).unwrap();
        assert_eq!(got0, vec![1.0, 2.0]);
        let got1 = c.with_page(1, &mut f, <[f32]>::to_vec).unwrap();
        assert_eq!(got1, vec![3.0, 4.0]);
        let s = c.stats();
        assert_eq!(s.write_backs, 3, "each dirty page written back once");
        assert_eq!(s.bytes_spilled, 3 * 2 * 4);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut f = file(4, 1);
        let mut c = PageCache::new(2, 1);
        c.touch(0, &mut f).unwrap(); // frames: [0*, _]
        c.touch(1, &mut f).unwrap(); // frames: [0*, 1*]
        c.touch(0, &mut f).unwrap(); // hit; 0 referenced again
                                     // Fault 2: hand clears 0's bit, clears 1's bit, wraps, evicts 0?
                                     // No — second chance: hand at 0 finds referenced → clear, hand
                                     // at 1 finds referenced → clear, hand back at 0 finds clear →
                                     // evict 0. Then touching 1 must still hit (it stayed resident).
        c.touch(2, &mut f).unwrap();
        let before = c.stats().misses;
        c.touch(1, &mut f).unwrap();
        assert_eq!(c.stats().misses, before, "page 1 kept its frame");
    }

    #[test]
    fn failed_replacement_load_orphans_the_frame_without_aliasing() {
        use lazydp_fault::{FaultKind, FaultPlan, Site};
        let mut f = lazydp_fault::scoped(
            FaultPlan::new(1).rule(Site::PageRead, 2, FaultKind::Transient),
            || file(4, 1),
        );
        let mut c = PageCache::new(2, 1);
        c.with_page_mut(0, &mut f, |p| p[0] = 10.0).unwrap(); // read #0
        c.touch(1, &mut f).unwrap(); // read #1, cache full
                                     // Fail the next load (read #2): page 0 is evicted (written
                                     // back) and its map entry removed before the replacement read
                                     // errors — the frame must become a true orphan, not keep id 0.
        assert!(c.touch(2, &mut f).is_err(), "injected load must surface");
        let live: Vec<usize> = c.resident_pages().map(|(p, _)| p).collect();
        assert_eq!(live, vec![1], "the orphan frame must not be reported");
        // Page 0 comes back into the *other* frame and is updated...
        c.with_page_mut(0, &mut f, |p| p[0] = 20.0).unwrap();
        // ...then the orphan slot is recycled. Before the orphan id was
        // poisoned, this eviction did `map.remove(&0)` — unmapping the
        // LIVE page-0 frame and stranding its dirty update, so later
        // reads resurrected the stale file copy.
        c.touch(3, &mut f).unwrap();
        assert_eq!(
            c.peek(0).map(<[f32]>::to_vec),
            Some(vec![20.0]),
            "recycling the orphan must not unmap the live remapping"
        );
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        // Same schedule → same counters, run twice from scratch.
        let run = || {
            let mut f = file(8, 1);
            let mut c = PageCache::new(3, 1);
            for &p in &[0usize, 1, 2, 3, 0, 4, 1, 5, 6, 2, 0, 7, 3] {
                c.touch(p, &mut f).unwrap();
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flush_writes_dirty_frames_once() {
        let mut f = file(2, 2);
        let mut c = PageCache::new(2, 2);
        c.with_page_mut(0, &mut f, |p| p[0] = 9.0).unwrap();
        c.flush(&mut f).unwrap();
        c.flush(&mut f).unwrap(); // clean now: no extra traffic
        assert_eq!(c.stats().write_backs, 1);
        // The file really holds the value.
        let mut buf = [0.0f32; 2];
        f.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 9.0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut f = file(10, 1);
        let mut c = PageCache::new(4, 1);
        for p in 0..10 {
            c.touch(p, &mut f).unwrap();
        }
        assert_eq!(c.resident(), 4);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn a_retried_fault_is_counted_once() {
        use lazydp_fault::{FaultKind, FaultPlan, Site};
        // Eight distinct pages through three frames: every access is a
        // miss whatever the eviction order, every page is dirtied once
        // and so written back once (five evictions + the final flush).
        let run = |plan: FaultPlan| {
            let mut f = lazydp_fault::scoped(plan, || file(8, 2));
            let mut c = PageCache::new(3, 2);
            for p in 0..8 {
                lazydp_fault::with_retry(|| c.with_page_mut(p, &mut f, |d| d[0] = p as f32 + 1.0))
                    .unwrap();
            }
            lazydp_fault::with_retry(|| c.flush(&mut f)).unwrap();
            let mut buf = [0.0f32; 2];
            for p in 0..8 {
                f.read_page(p, &mut buf).unwrap();
                assert_eq!(buf, [p as f32 + 1.0, 0.0], "page {p}");
            }
            c.stats()
        };
        let clean = run(FaultPlan::new(0));
        // One failed load while the cache still grows (its 2nd), one
        // into an evicted frame (its 6th), one failed write-back.
        let faulted = run(FaultPlan::new(0)
            .rule(Site::PageRead, 1, FaultKind::Transient)
            .rule(Site::PageRead, 5, FaultKind::Transient)
            .rule(Site::PageWrite, 2, FaultKind::Transient));
        assert_eq!((clean.hits, clean.misses, clean.write_backs), (0, 8, 8));
        assert_eq!(
            (faulted.hits, faulted.misses, faulted.bytes_loaded),
            (clean.hits, clean.misses, clean.bytes_loaded),
            "a re-issued load is still one miss and one page of traffic"
        );
        assert_eq!(
            (faulted.write_backs, faulted.bytes_spilled),
            (clean.write_backs, clean.bytes_spilled),
            "a re-issued write-back is still one write-back"
        );
    }

    /// Page size of the differential below.
    const ELEMS: usize = 3;

    /// Reference model of the cache for the differential below: the same
    /// clock policy over plain vectors, residency by linear scan, page
    /// contents in a `BTreeMap`.
    struct Model {
        capacity: usize,
        /// `(page, referenced, dirty)`; `page == ORPHAN_PAGE` is an
        /// orphan.
        frames: Vec<(usize, bool, bool)>,
        hand: usize,
        values: std::collections::BTreeMap<usize, Vec<f32>>,
        reads: u64,
        failing_reads: Vec<u64>,
        orphaned: usize,
        stats: lazydp_obs::CacheView,
    }

    impl Model {
        /// Mirrors `PageCache::touch`; `false` = the load was failed by
        /// the plan.
        fn touch(&mut self, page: usize, page_bytes: u64) -> bool {
            if let Some(fr) = self.frames.iter_mut().find(|fr| fr.0 == page) {
                fr.1 = true;
                self.stats.hits += 1;
                return true;
            }
            let load_ok = !self.failing_reads.contains(&self.reads);
            if self.frames.len() < self.capacity {
                self.reads += 1;
                if !load_ok {
                    return false;
                }
                self.frames.push((page, true, false));
            } else {
                let slot = loop {
                    let slot = self.hand;
                    self.hand = (self.hand + 1) % self.frames.len();
                    if self.frames[slot].1 {
                        self.frames[slot].1 = false;
                    } else {
                        break slot;
                    }
                };
                let (evicted, _, dirty) = self.frames[slot];
                if dirty {
                    self.stats.write_backs += 1;
                    self.stats.bytes_spilled += page_bytes;
                }
                if evicted != ORPHAN_PAGE {
                    self.stats.evictions += 1;
                }
                self.reads += 1;
                if !load_ok {
                    self.frames[slot] = (ORPHAN_PAGE, false, false);
                    self.orphaned += 1;
                    return false;
                }
                self.frames[slot] = (page, true, false);
            }
            self.stats.misses += 1;
            self.stats.bytes_loaded += page_bytes;
            true
        }

        /// What `page` holds (never-written pages read as zeros).
        fn content(&self, page: usize) -> Vec<f32> {
            self.values.get(&page).cloned().unwrap_or(vec![0.0; ELEMS])
        }

        fn resident(&self) -> Vec<usize> {
            let mut pages: Vec<usize> = self
                .frames
                .iter()
                .map(|fr| fr.0)
                .filter(|&p| p != ORPHAN_PAGE)
                .collect();
            pages.sort_unstable();
            pages
        }
    }

    #[test]
    fn a_run_no_longer_than_the_cache_stays_resident_once_references_are_cleared() {
        use lazydp_rng::{Prng, Xoshiro256PlusPlus};
        for seed in 0..200u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let (capacity, pages) = (1 + pick(6), 16);
            let mut f = file(pages, 2);
            let mut c = PageCache::new(capacity, 2);
            // Any history: hits leave frames referenced wherever the
            // hand stands.
            for _ in 0..pick(40) {
                c.touch(pick(pages), &mut f).unwrap();
            }
            let first = pick(pages);
            let run = first..(first + 1 + pick(capacity)).min(pages);
            c.clear_references();
            for page in run.clone() {
                c.touch(page, &mut f).unwrap();
            }
            let frames = c.frames_mut(run.clone()).expect("the run is resident");
            assert_eq!(frames.len(), run.len(), "seed {seed}");
        }
        // Without the clearing, a run's hit can be its next miss's
        // victim: a run of pages 0 and 2 after pages 0 and 1.
        let mut f = file(3, 2);
        let mut c = PageCache::new(2, 2);
        for page in [0, 1, 0, 2] {
            c.touch(page, &mut f).unwrap();
        }
        assert!(c.frames_mut(0..1).is_none(), "page 0 was evicted");
    }

    #[test]
    fn random_schedules_match_the_reference_model() {
        use lazydp_fault::{FaultKind, FaultPlan, Site};
        use lazydp_rng::{Prng, Xoshiro256PlusPlus};
        // Mostly a dozen hot ids, now and then one far above anything
        // mapped before (the page table must grow, not index out of
        // bounds), in a file large enough to hold them all.
        const FAR: [usize; 3] = [1_000, 4_097, 70_000];
        let mut orphaned = 0;
        for seed in 0..24u64 {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let mut pick = |n: u64| (rng.next_u64() % n) as usize;
            let capacity = 1 + pick(5);
            // Three loads fail somewhere in the schedule: an early one
            // meets the still-growing cache, later ones orphan an
            // evicted frame.
            let failing_reads: Vec<u64> = (0..3).map(|_| pick(150) as u64).collect();
            let mut plan = FaultPlan::new(seed);
            for &n in &failing_reads {
                plan = plan.rule(Site::PageRead, n, FaultKind::Transient);
            }
            let mut f = lazydp_fault::scoped(plan, || file(FAR[2] + 1, ELEMS));
            let page_bytes = f.page_bytes();
            let mut c = PageCache::new(capacity, ELEMS);
            let mut m = Model {
                capacity,
                frames: Vec::new(),
                hand: 0,
                values: std::collections::BTreeMap::new(),
                reads: 0,
                failing_reads,
                orphaned: 0,
                stats: lazydp_obs::CacheView::default(),
            };
            for step in 0..400 {
                let page = if pick(16) == 0 {
                    FAR[pick(3)]
                } else {
                    pick(12)
                };
                let ctx = format!("seed {seed} step {step} page {page}");
                match pick(8) {
                    0 => {
                        c.flush(&mut f).unwrap();
                        for fr in &mut m.frames {
                            if fr.2 {
                                fr.2 = false;
                                m.stats.write_backs += 1;
                                m.stats.bytes_spilled += page_bytes;
                            }
                        }
                    }
                    1 => {
                        // `peek` never faults, but does set the bit.
                        let content = m.content(page);
                        let want = m.frames.iter_mut().find(|fr| fr.0 == page).map(|fr| {
                            fr.1 = true;
                            content
                        });
                        assert_eq!(c.peek(page).map(<[f32]>::to_vec), want, "{ctx}");
                    }
                    2 | 3 => {
                        let ok = m.touch(page, page_bytes);
                        assert_eq!(c.touch(page, &mut f).is_ok(), ok, "{ctx}");
                    }
                    4 | 5 => {
                        let ok = m.touch(page, page_bytes);
                        let want = m.content(page);
                        match c.with_page(page, &mut f, <[f32]>::to_vec) {
                            Ok(got) => assert!(ok && got == want, "{ctx}: {got:?} vs {want:?}"),
                            Err(e) => assert!(!ok, "{ctx}: {e}"),
                        }
                    }
                    _ => {
                        let (k, v) = (pick(ELEMS as u64), step as f32);
                        let ok = m.touch(page, page_bytes);
                        let res = c.with_page_mut(page, &mut f, |d| d[k] = v);
                        assert_eq!(res.is_ok(), ok, "{ctx}");
                        if ok {
                            m.values.entry(page).or_insert(vec![0.0; ELEMS])[k] = v;
                            let fr = m.frames.iter_mut().find(|fr| fr.0 == page);
                            fr.expect("just touched").2 = true;
                        }
                    }
                }
                assert_eq!(c.stats(), m.stats, "{ctx}");
                let mut got: Vec<(usize, Vec<f32>)> =
                    c.resident_pages().map(|(p, d)| (p, d.to_vec())).collect();
                got.sort_by_key(|(p, _)| *p);
                let want: Vec<(usize, Vec<f32>)> = m
                    .resident()
                    .into_iter()
                    .map(|p| (p, m.content(p)))
                    .collect();
                assert_eq!(got, want, "{ctx}");
            }
            // What reached the file is the model's content too (the file
            // keeps its plan, so a failing read ordinal may still lie
            // ahead: retry past it).
            c.flush(&mut f).unwrap();
            let mut buf = [0.0f32; ELEMS];
            for (&page, want) in &m.values {
                lazydp_fault::with_retry(|| f.read_page(page, &mut buf)).unwrap();
                assert_eq!(&buf[..], &want[..], "seed {seed}: file copy of page {page}");
            }
            orphaned += m.orphaned;
        }
        assert!(orphaned >= 24, "the schedules must reach the orphan case");
    }
}
