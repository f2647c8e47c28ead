//! The host-side backing store of a memory reachable through memory
//! endpoints: a DRAM module or one PE's SPM.
//!
//! The store is paged. A page is allocated on its first write; a read of a
//! page that was never written (or was zeroed since) yields zeros and
//! allocates nothing. A platform therefore costs the host only what its
//! run touches, not the gigabytes it configures. The paging is invisible
//! to the model: no simulated cycle passes here. [`Dtu::rdma`] and
//! `Kernel::charge_page_move` charge the time of the transfers that end
//! up in this store.
//!
//! [`Dtu::rdma`]: crate::Dtu

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Bytes per page of a [`Memory`].
pub const PAGE_SIZE: usize = 4096;

type Page = Box<[u8; PAGE_SIZE]>;

/// A zero-initialised memory of a fixed size, allocated page by page as it
/// is written.
///
/// # Examples
///
/// ```
/// use m3_dtu::Memory;
///
/// let mem = Memory::new(1 << 20);
/// let mut buf = [1u8; 4];
/// mem.read(4094, &mut buf);
/// assert_eq!(buf, [0; 4]);
/// assert_eq!(mem.pages_allocated(), 0);
///
/// mem.write(4094, &[1, 2, 3, 4]); // crosses a page boundary
/// mem.read(4094, &mut buf);
/// assert_eq!(buf, [1, 2, 3, 4]);
/// assert_eq!(mem.pages_allocated(), 2);
/// ```
pub struct Memory {
    len: usize,
    pages: RefCell<Pages>,
}

#[derive(Default)]
struct Pages {
    /// Indexed by page number and grown only up to the highest page ever
    /// written, so an untouched memory has no table at all.
    table: Vec<Option<Page>>,
    /// The `Some` entries of `table`.
    allocated: usize,
}

impl Pages {
    fn get(&self, page: usize) -> Option<&Page> {
        self.table.get(page)?.as_ref()
    }

    /// The entry of `page`, growing the table to reach it.
    fn slot(&mut self, page: usize) -> &mut Option<Page> {
        if page >= self.table.len() {
            self.table.resize_with(page + 1, || None);
        }
        &mut self.table[page]
    }

    fn get_or_alloc(&mut self, page: usize) -> &mut Page {
        if self.table.get(page).is_none_or(Option::is_none) {
            self.allocated += 1;
        }
        self.slot(page)
            .get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Puts `page` (or its absence) at page number `at`.
    fn set(&mut self, at: usize, page: Option<Page>) {
        match page {
            Some(page) => {
                if self.slot(at).replace(page).is_none() {
                    self.allocated += 1;
                }
            }
            None => self.release(at),
        }
    }

    fn release(&mut self, page: usize) {
        if let Some(slot) = self.table.get_mut(page) {
            if slot.take().is_some() {
                self.allocated -= 1;
            }
        }
    }
}

/// The pieces of the byte range `[offset, offset + len)`, one per page it
/// touches: the page number, the range within the page, and the range
/// within the `len` bytes.
fn pieces(offset: usize, len: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = offset + done;
        let in_page = at % PAGE_SIZE;
        let n = (PAGE_SIZE - in_page).min(len - done);
        let piece = (at / PAGE_SIZE, in_page..in_page + n, done..done + n);
        done += n;
        Some(piece)
    })
}

impl Memory {
    /// A memory of `len` zero bytes. Allocates no page.
    pub fn new(len: usize) -> Memory {
        Memory {
            len,
            pages: RefCell::new(Pages::default()),
        }
    }

    /// The configured size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has a size of zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently allocated on the host.
    pub fn pages_allocated(&self) -> usize {
        self.pages.borrow().allocated
    }

    fn check(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "[{offset}, +{len}) is beyond a memory of {} bytes",
            self.len
        );
    }

    /// Copies the bytes at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range lies beyond [`Memory::len`].
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        self.check(offset, buf.len());
        let pages = self.pages.borrow();
        for (page, src, dst) in pieces(offset, buf.len()) {
            match pages.get(page) {
                Some(page) => buf[dst].copy_from_slice(&page[src]),
                None => buf[dst].fill(0),
            }
        }
    }

    /// Copies `data` to `offset`, allocating the pages it lands in.
    ///
    /// # Panics
    ///
    /// Panics if the range lies beyond [`Memory::len`].
    // m3lint: allow(cycle-accounting): host backing store; Dtu::rdma and Kernel::charge_page_move charge the transfer
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.check(offset, data.len());
        let mut pages = self.pages.borrow_mut();
        for (page, dst, src) in pieces(offset, data.len()) {
            pages.get_or_alloc(page)[dst].copy_from_slice(&data[src]);
        }
    }

    /// Zeroes `len` bytes at `offset`. Every whole page in the range is
    /// released.
    ///
    /// # Panics
    ///
    /// Panics if the range lies beyond [`Memory::len`].
    // m3lint: allow(cycle-accounting): host backing store; Dtu::rdma and Kernel::charge_page_move charge the transfer
    pub fn zero(&self, offset: usize, len: usize) {
        self.check(offset, len);
        let mut pages = self.pages.borrow_mut();
        for (page, range, _) in pieces(offset, len) {
            if range.len() == PAGE_SIZE {
                pages.release(page);
            } else if let Some(Some(page)) = pages.table.get_mut(page) {
                page[range].fill(0);
            }
        }
    }

    /// Copies `len` bytes from `src` to `dst`, like [`slice::copy_within`]:
    /// the ranges may overlap. When all three are page-aligned, pages are
    /// cloned (or released, where the source page is unallocated) instead
    /// of copied byte by byte.
    ///
    /// # Panics
    ///
    /// Panics if either range lies beyond [`Memory::len`].
    // m3lint: allow(cycle-accounting): host backing store; Dtu::rdma and Kernel::charge_page_move charge the transfer
    pub fn copy_within(&self, src: usize, dst: usize, len: usize) {
        self.check(src, len);
        self.check(dst, len);
        if !(src | dst | len).is_multiple_of(PAGE_SIZE) {
            let mut buf = vec![0; len];
            self.read(src, &mut buf);
            self.write(dst, &buf);
            return;
        }
        let (src, dst, count) = (src / PAGE_SIZE, dst / PAGE_SIZE, len / PAGE_SIZE);
        let mut pages = self.pages.borrow_mut();
        let mut copy = |i: usize| {
            let page = pages.get(src + i).cloned();
            pages.set(dst + i, page);
        };
        // Like `memmove`: walk away from the overlap.
        if dst > src {
            (0..count).rev().for_each(&mut copy);
        } else {
            (0..count).for_each(&mut copy);
        }
    }

    /// Sanitizer (`--features m3-dtu/sanitize`): no page is allocated
    /// beyond [`Memory::len`], and no more pages than fit in it. Constant
    /// time, so it can run after every DTU operation.
    #[cfg(feature = "sanitize")]
    pub(crate) fn sanitize(&self, pe: usize) {
        let pages = self.pages.borrow();
        let limit = self.len.div_ceil(PAGE_SIZE);
        assert!(
            pages.table.len() <= limit,
            "sanitize: memory at PE{pe} has a page table of {} pages for {} bytes",
            pages.table.len(),
            self.len
        );
        assert!(
            pages.allocated <= limit,
            "sanitize: memory at PE{pe} has {} pages allocated for {} bytes",
            pages.allocated,
            self.len
        );
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("len", &self.len)
            .field("pages_allocated", &self.pages_allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense store this type replaced, as the reference.
    fn dense(mem: &Memory) -> Vec<u8> {
        let mut all = vec![0; mem.len()];
        mem.read(0, &mut all);
        all
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn reading_untouched_memory_yields_zeros_and_allocates_nothing() {
        let mem = Memory::new(64 << 20);
        let mut buf = vec![0xff; 3 * PAGE_SIZE + 17];
        mem.read(5 * PAGE_SIZE - 9, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.pages_allocated(), 0);
        assert_eq!(mem.pages.borrow().table.len(), 0);
        assert_eq!(mem.len(), 64 << 20);
    }

    #[test]
    fn a_write_across_a_page_boundary_reads_back_exactly() {
        let mem = Memory::new(4 * PAGE_SIZE);
        let data = pattern(PAGE_SIZE + 10, 7);
        mem.write(PAGE_SIZE - 5, &data);
        assert_eq!(mem.pages_allocated(), 3);
        let mut back = vec![0; data.len()];
        mem.read(PAGE_SIZE - 5, &mut back);
        assert_eq!(back, data);
        let mut reference = vec![0; 4 * PAGE_SIZE];
        reference[PAGE_SIZE - 5..2 * PAGE_SIZE + 5].copy_from_slice(&data);
        assert_eq!(dense(&mem), reference);
    }

    #[test]
    fn page_copies_and_zeroing_match_the_dense_store() {
        let len = 8 * PAGE_SIZE;
        let mem = Memory::new(len);
        let mut reference = vec![0; len];
        // Pages 0, 1 and 3 hold data; 2 and 4.. are untouched.
        for (at, seed) in [(0, 1), (PAGE_SIZE, 2), (3 * PAGE_SIZE + 100, 3)] {
            let data = pattern(PAGE_SIZE - 100 * usize::from(seed == 3), seed);
            mem.write(at, &data);
            reference[at..at + data.len()].copy_from_slice(&data);
        }
        // (src, dst, len) copies, then (offset, len) zeroings.
        let copies = [
            (0, 4 * PAGE_SIZE, 2 * PAGE_SIZE),
            (2 * PAGE_SIZE, 0, 2 * PAGE_SIZE),
            // Overlapping, in both directions.
            (3 * PAGE_SIZE, 4 * PAGE_SIZE, 3 * PAGE_SIZE),
            (4 * PAGE_SIZE, 3 * PAGE_SIZE, 2 * PAGE_SIZE),
            // Unaligned: the byte-wise fallback.
            (3 * PAGE_SIZE + 7, 10, PAGE_SIZE + 3),
        ];
        for (src, dst, n) in copies {
            mem.copy_within(src, dst, n);
            reference.copy_within(src..src + n, dst);
            assert_eq!(dense(&mem), reference, "after copy {src} -> {dst}, {n}");
        }
        for (at, n) in [(5 * PAGE_SIZE, PAGE_SIZE), (PAGE_SIZE - 20, PAGE_SIZE + 40)] {
            mem.zero(at, n);
            reference[at..at + n].fill(0);
            assert_eq!(dense(&mem), reference, "after zeroing {at}, {n}");
        }
        let allocated = mem.pages_allocated();
        mem.zero(0, len);
        assert_eq!(dense(&mem), vec![0; len]);
        assert_eq!(mem.pages_allocated(), 0, "was {allocated}");
    }

    #[test]
    fn copying_an_untouched_page_releases_the_destination() {
        let mem = Memory::new(2 * PAGE_SIZE);
        mem.write(PAGE_SIZE, &[1; PAGE_SIZE]);
        mem.copy_within(0, PAGE_SIZE, PAGE_SIZE);
        assert_eq!(mem.pages_allocated(), 0);
        assert_eq!(dense(&mem), vec![0; 2 * PAGE_SIZE]);
    }

    #[test]
    #[should_panic(expected = "beyond a memory of 4096 bytes")]
    fn an_access_past_the_end_panics() {
        Memory::new(PAGE_SIZE).write(PAGE_SIZE - 1, &[0, 0]);
    }
}
