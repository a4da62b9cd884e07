//! Sparse backing store for simulated physical memory.
//!
//! The simulator needs real storage for structures that hardware actually
//! walks: page tables (read by the PTW) and PMP Tables (read by the PMPTW).
//! [`PhysMem`] is a sparse, page-granular store of 64-bit words; untouched
//! pages read as zero, matching DRAM scrubbed at boot.
//!
//! Storage is a two-level flat page directory indexed by page frame number
//! (PFN): the top level is a `Vec` of chunk pointers, each chunk covering
//! [`CHUNK_PAGES`] consecutive frames. A read is a bounds check plus two
//! pointer hops — no hashing anywhere on the per-access path.

use crate::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};

/// Number of 64-bit words per 4 KiB page.
const WORDS_PER_PAGE: usize = (PAGE_SIZE / 8) as usize;

/// log2 of the number of pages covered by one directory chunk.
const CHUNK_SHIFT: u32 = 11;

/// Pages per directory chunk (8 MiB of simulated memory per chunk).
const CHUNK_PAGES: usize = 1 << CHUNK_SHIFT;

/// Highest supported physical address bit. The directory grows with the
/// highest frame ever written, so a stray huge address would otherwise
/// balloon the top level; 1 TiB is far above anything the fixtures map
/// while keeping the worst-case top level around 1 MiB of pointers.
const MAX_PHYS_BITS: u32 = 40;

/// Highest valid PFN (exclusive).
const MAX_PFN: u64 = 1 << (MAX_PHYS_BITS - PAGE_SHIFT);

type Page = Box<[u64; WORDS_PER_PAGE]>;

/// One top-level directory slot: backing for [`CHUNK_PAGES`] frames.
#[derive(Clone)]
struct Chunk {
    slots: [Option<Page>; CHUNK_PAGES],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            slots: std::array::from_fn(|_| None),
        })
    }
}

/// Sparse word-addressable physical memory.
///
/// ```
/// use hpmp_memsim::{PhysAddr, PhysMem};
/// let mut mem = PhysMem::new();
/// mem.write_u64(PhysAddr::new(0x8000_0008), 42);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000_0008)), 42);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000_0000)), 0); // untouched => 0
/// ```
#[derive(Clone, Default)]
pub struct PhysMem {
    dir: Vec<Option<Box<Chunk>>>,
    resident: usize,
}

impl PhysMem {
    /// Creates an empty (all-zero) physical memory.
    pub fn new() -> PhysMem {
        PhysMem::default()
    }

    /// Reads the naturally-aligned 64-bit word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned; hardware would raise a
    /// misaligned-access exception, which the walkers never do.
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        assert!(addr.is_aligned(8), "misaligned u64 read at {addr}");
        let pfn = addr.page_number();
        match self
            .dir
            .get((pfn >> CHUNK_SHIFT) as usize)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.slots[(pfn & (CHUNK_PAGES as u64 - 1)) as usize].as_ref())
        {
            Some(page) => page[Self::word_index(addr)],
            None => 0,
        }
    }

    /// Writes the naturally-aligned 64-bit word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or lies beyond the simulated
    /// physical address space (1 TiB).
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        assert!(addr.is_aligned(8), "misaligned u64 write at {addr}");
        let page = self.page_mut(addr.page_number());
        page[Self::word_index(addr)] = value;
    }

    fn page_mut(&mut self, pfn: u64) -> &mut [u64; WORDS_PER_PAGE] {
        assert!(
            pfn < MAX_PFN,
            "write beyond the {MAX_PHYS_BITS}-bit simulated physical address space"
        );
        let hi = (pfn >> CHUNK_SHIFT) as usize;
        let lo = (pfn & (CHUNK_PAGES as u64 - 1)) as usize;
        if hi >= self.dir.len() {
            self.dir.resize_with(hi + 1, || None);
        }
        let chunk = self.dir[hi].get_or_insert_with(Chunk::new);
        if chunk.slots[lo].is_none() {
            chunk.slots[lo] = Some(Box::new([0u64; WORDS_PER_PAGE]));
            self.resident += 1;
        }
        chunk.slots[lo].as_mut().unwrap()
    }

    /// Zeroes an entire 4 KiB page.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned.
    pub fn zero_page(&mut self, base: PhysAddr) {
        assert!(base.is_aligned(PAGE_SIZE), "zero_page of unaligned {base}");
        let pfn = base.page_number();
        let hi = (pfn >> CHUNK_SHIFT) as usize;
        let lo = (pfn & (CHUNK_PAGES as u64 - 1)) as usize;
        if let Some(Some(chunk)) = self.dir.get_mut(hi) {
            if chunk.slots[lo].take().is_some() {
                self.resident -= 1;
            }
        }
    }

    /// Copies one 4 KiB page within this memory, from `src` to `dst` (both
    /// page aligned). An unbacked source zeroes the destination.
    ///
    /// # Panics
    ///
    /// Panics if either address is not page aligned.
    pub fn copy_page_within(&mut self, src: PhysAddr, dst: PhysAddr) {
        assert!(src.is_aligned(PAGE_SIZE), "copy_page_within from {src}");
        assert!(dst.is_aligned(PAGE_SIZE), "copy_page_within to {dst}");
        let src_pfn = src.page_number();
        let hi = (src_pfn >> CHUNK_SHIFT) as usize;
        let lo = (src_pfn & (CHUNK_PAGES as u64 - 1)) as usize;
        let words = self
            .dir
            .get(hi)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.slots[lo].as_ref())
            .map(|page| **page);
        match words {
            Some(words) => *self.page_mut(dst.page_number()) = words,
            None => self.zero_page(dst),
        }
    }

    /// Number of distinct pages that have been written.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Total bytes of simulated memory currently backed by host storage.
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * PAGE_SIZE
    }

    #[inline]
    fn word_index(addr: PhysAddr) -> usize {
        ((addr.raw() & (PAGE_SIZE - 1)) >> 3) as usize
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("resident_pages", &self.resident)
            .finish()
    }
}

/// A bump allocator handing out page frames from a physical range, with a
/// LIFO recycling list so released frames are reused before the bump
/// cursor advances — long-lived churn (domain tables built and torn down
/// thousands of times) stays inside a bounded footprint.
///
/// This is *not* the OS page allocator (which lives in `hpmp-penglai`); it is
/// a low-level frame source used when constructing test fixtures and the
/// monitor's own private pools.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    base: PhysAddr,
    next: PhysAddr,
    end: PhysAddr,
    /// Frames handed back via [`FrameAllocator::release`], reused LIFO so
    /// allocation order stays deterministic.
    released: Vec<PhysAddr>,
}

impl FrameAllocator {
    /// Creates an allocator over `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned or `len` is not a multiple of the
    /// page size.
    pub fn new(base: PhysAddr, len: u64) -> FrameAllocator {
        assert!(base.is_aligned(PAGE_SIZE), "unaligned allocator base");
        assert!(
            len.is_multiple_of(PAGE_SIZE),
            "allocator length not page-multiple"
        );
        FrameAllocator {
            base,
            next: base,
            end: base + len,
            released: Vec::new(),
        }
    }

    /// Allocates one 4 KiB frame, or `None` when exhausted. Recycled
    /// frames are handed out (most recently released first) before the
    /// bump cursor advances.
    pub fn alloc(&mut self) -> Option<PhysAddr> {
        if let Some(frame) = self.released.pop() {
            return Some(frame);
        }
        if self.next >= self.end {
            return None;
        }
        let frame = self.next;
        self.next += PAGE_SIZE;
        Some(frame)
    }

    /// Feeds the allocator's logical state (bump cursor and recycled-frame
    /// stack) into a state fingerprint. Two allocators hashing equal will
    /// hand out identical frame sequences forever.
    pub fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u64(self.base.raw());
        h.write_u64(self.next.raw());
        h.write_u64(self.end.raw());
        h.write_usize(self.released.len());
        for frame in &self.released {
            h.write_u64(frame.raw());
        }
    }

    /// Returns a frame to the allocator for reuse. The caller is
    /// responsible for scrubbing its contents first (a recycled table
    /// frame full of stale pmptes would otherwise decode as live grants).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is unaligned or was never part of this
    /// allocator's range.
    pub fn release(&mut self, frame: PhysAddr) {
        assert!(frame.is_aligned(PAGE_SIZE), "release of unaligned {frame}");
        assert!(
            frame >= self.base && frame < self.next,
            "release of foreign frame {frame}"
        );
        self.released.push(frame);
    }

    /// Allocates `n` physically contiguous frames, returning the base.
    pub fn alloc_contiguous(&mut self, n: u64) -> Option<PhysAddr> {
        let bytes = n.checked_mul(PAGE_SIZE)?;
        if self.next.raw().checked_add(bytes)? > self.end.raw() {
            return None;
        }
        let base = self.next;
        self.next += bytes;
        Some(base)
    }

    /// Number of frames still available (untouched plus recycled).
    pub fn remaining(&self) -> u64 {
        ((self.end.raw() - self.next.raw()) >> PAGE_SHIFT) + self.released.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_and_default_zero() {
        let mut mem = PhysMem::new();
        let a = PhysAddr::new(0x8000_1000);
        assert_eq!(mem.read_u64(a), 0);
        mem.write_u64(a, 0xdead_beef);
        assert_eq!(mem.read_u64(a), 0xdead_beef);
        assert_eq!(mem.read_u64(a + 8), 0);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x1000), 1);
        mem.write_u64(PhysAddr::new(0x2000), 2);
        assert_eq!(mem.resident_pages(), 2);
        mem.zero_page(PhysAddr::new(0x1000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2000)), 2);
    }

    #[test]
    fn pages_span_directory_chunks() {
        let mut mem = PhysMem::new();
        // Two frames in different top-level chunks.
        let lo = PhysAddr::new(0x8000_0000);
        let hi = PhysAddr::new(0x8000_0000 + (CHUNK_PAGES as u64 + 3) * PAGE_SIZE);
        mem.write_u64(lo, 7);
        mem.write_u64(hi, 9);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.read_u64(lo), 7);
        assert_eq!(mem.read_u64(hi), 9);
        mem.zero_page(hi);
        assert_eq!(mem.read_u64(hi), 0);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn rewriting_a_page_does_not_double_count() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x3000), 1);
        mem.write_u64(PhysAddr::new(0x3008), 2);
        assert_eq!(mem.resident_pages(), 1);
        mem.zero_page(PhysAddr::new(0x3000));
        mem.zero_page(PhysAddr::new(0x3000)); // double-zero is fine
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn reads_beyond_the_directory_are_zero() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(PhysAddr::new((MAX_PFN - 1) << PAGE_SHIFT)), 0);
    }

    #[test]
    #[should_panic(expected = "simulated physical address space")]
    fn writes_beyond_the_address_space_panic() {
        PhysMem::new().write_u64(PhysAddr::new(MAX_PFN << PAGE_SHIFT), 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_read_panics() {
        PhysMem::new().read_u64(PhysAddr::new(0x1004 + 1));
    }

    #[test]
    fn frame_allocator_bump() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 3 * PAGE_SIZE);
        assert_eq!(fa.remaining(), 3);
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_0000)));
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_1000)));
        assert_eq!(fa.alloc(), Some(PhysAddr::new(0x8000_2000)));
        assert_eq!(fa.alloc(), None);
    }

    #[test]
    fn frame_allocator_recycles_released_frames() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 2 * PAGE_SIZE);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_eq!(fa.alloc(), None);
        fa.release(a);
        fa.release(b);
        assert_eq!(fa.remaining(), 2);
        // LIFO: the most recently released frame comes back first.
        assert_eq!(fa.alloc(), Some(b));
        assert_eq!(fa.alloc(), Some(a));
        assert_eq!(fa.alloc(), None);
    }

    #[test]
    #[should_panic(expected = "foreign frame")]
    fn frame_allocator_rejects_foreign_release() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 2 * PAGE_SIZE);
        fa.release(PhysAddr::new(0x9000_0000));
    }

    #[test]
    fn copy_page_within_moves_bytes_and_zeroes_from_unbacked_source() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x1000), 0x11);
        mem.write_u64(PhysAddr::new(0x1ff8), 0x22);
        mem.copy_page_within(PhysAddr::new(0x1000), PhysAddr::new(0x4000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x4000)), 0x11);
        assert_eq!(mem.read_u64(PhysAddr::new(0x4ff8)), 0x22);
        // Unbacked source zeroes the destination.
        mem.copy_page_within(PhysAddr::new(0x7000), PhysAddr::new(0x4000));
        assert_eq!(mem.read_u64(PhysAddr::new(0x4000)), 0);
    }

    #[test]
    fn frame_allocator_contiguous() {
        let mut fa = FrameAllocator::new(PhysAddr::new(0x8000_0000), 4 * PAGE_SIZE);
        let base = fa.alloc_contiguous(3).unwrap();
        assert_eq!(base, PhysAddr::new(0x8000_0000));
        assert_eq!(fa.remaining(), 1);
        assert!(fa.alloc_contiguous(2).is_none());
        assert!(fa.alloc_contiguous(1).is_some());
    }
}
