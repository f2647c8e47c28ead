//! The kernel's DRAM allocator.
//!
//! "The kernel is responsible for managing the memories in the system. That
//! is, it decides which application can use which parts of which memories"
//! (§4.5.4). This is a first-fit free-list allocator with coalescing —
//! simple, deterministic, and adequate for the region granularity M3 deals
//! in (file extents, pipe buffers, application heaps).

use m3_base::error::{Code, Error, Result};

/// A first-fit free-list allocator over a contiguous memory range.
///
/// # Examples
///
/// ```
/// use m3_kernel::mem::MemAlloc;
///
/// let mut alloc = MemAlloc::new(0, 1024);
/// let a = alloc.alloc(256).unwrap();
/// let b = alloc.alloc(256).unwrap();
/// assert_ne!(a, b);
/// alloc.free(a, 256);
/// alloc.free(b, 256);
/// assert_eq!(alloc.free_bytes(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct MemAlloc {
    /// Free regions as (offset, size), sorted by offset, non-adjacent.
    free: Vec<(u64, u64)>,
}

impl MemAlloc {
    /// Creates an allocator over `[base, base + size)`.
    pub fn new(base: u64, size: u64) -> MemAlloc {
        MemAlloc {
            free: if size > 0 {
                vec![(base, size)]
            } else {
                Vec::new()
            },
        }
    }

    /// Allocates `size` bytes, first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`Code::OutOfMem`] if no free region is large enough, and
    /// [`Code::InvArgs`] for zero-sized requests.
    pub fn alloc(&mut self, size: u64) -> Result<u64> {
        if size == 0 {
            return Err(Error::new(Code::InvArgs).with_msg("zero-sized allocation"));
        }
        for i in 0..self.free.len() {
            let (off, len) = self.free[i];
            if len >= size {
                if len == size {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + size, len - size);
                }
                return Ok(off);
            }
        }
        Err(Error::new(Code::OutOfMem).with_msg(format!("no region of {size} bytes")))
    }

    /// Returns `[offset, offset + size)` to the allocator, coalescing with
    /// adjacent free regions.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps a free region (double free).
    pub fn free(&mut self, offset: u64, size: u64) {
        if size == 0 {
            return;
        }
        let pos = self.free.partition_point(|&(off, _)| off < offset);
        // Check overlap with neighbours.
        if pos > 0 {
            let (poff, plen) = self.free[pos - 1];
            assert!(poff + plen <= offset, "double free at {offset:#x}");
        }
        if pos < self.free.len() {
            let (noff, _) = self.free[pos];
            assert!(offset + size <= noff, "double free at {offset:#x}");
        }
        self.free.insert(pos, (offset, size));
        // Coalesce with the next region.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        // Coalesce with the previous region.
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }

    /// Total bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Number of free fragments (diagnostics; 1 means unfragmented).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_allocates_lowest() {
        let mut a = MemAlloc::new(0, 1000);
        assert_eq!(a.alloc(100).unwrap(), 0);
        assert_eq!(a.alloc(100).unwrap(), 100);
    }

    #[test]
    fn exhaustion_is_out_of_mem() {
        let mut a = MemAlloc::new(0, 100);
        a.alloc(100).unwrap();
        assert_eq!(a.alloc(1).unwrap_err().code(), Code::OutOfMem);
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut a = MemAlloc::new(0, 100);
        assert_eq!(a.alloc(0).unwrap_err().code(), Code::InvArgs);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = MemAlloc::new(0, 300);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        let z = a.alloc(100).unwrap();
        a.free(x, 100);
        a.free(z, 100);
        assert_eq!(a.fragments(), 2);
        a.free(y, 100);
        assert_eq!(a.fragments(), 1);
        assert_eq!(a.free_bytes(), 300);
        // The whole range is allocatable again.
        assert_eq!(a.alloc(300).unwrap(), 0);
    }

    #[test]
    fn fills_gap_with_first_fit() {
        let mut a = MemAlloc::new(0, 300);
        let x = a.alloc(100).unwrap();
        let _y = a.alloc(100).unwrap();
        a.free(x, 100);
        // A 50-byte request fits the freed hole at 0.
        assert_eq!(a.alloc(50).unwrap(), 0);
        // A 100-byte request does not fit the remaining 50-byte hole; it
        // goes to the tail region at 200.
        assert_eq!(a.alloc(100).unwrap(), 200);
    }

    #[test]
    fn base_offset_respected() {
        let mut a = MemAlloc::new(4096, 1000);
        assert_eq!(a.alloc(10).unwrap(), 4096);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = MemAlloc::new(0, 100);
        let x = a.alloc(50).unwrap();
        a.free(x, 50);
        a.free(x, 50);
    }

    #[test]
    fn stress_alloc_free_conserves_bytes() {
        let mut a = MemAlloc::new(0, 1 << 16);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut rng = m3_base::rand::Rng::new(1234);
        for _ in 0..2000 {
            if rng.next_below(2) == 0 || live.is_empty() {
                let size = rng.next_range(1, 512);
                if let Ok(off) = a.alloc(size) {
                    live.push((off, size));
                }
            } else {
                let idx = rng.next_below(live.len() as u64) as usize;
                let (off, size) = live.swap_remove(idx);
                a.free(off, size);
            }
            let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
            assert_eq!(a.free_bytes() + live_bytes, 1 << 16);
        }
        for (off, size) in live.drain(..) {
            a.free(off, size);
        }
        assert_eq!(a.free_bytes(), 1 << 16);
        assert_eq!(a.fragments(), 1, "everything coalesced back");
    }
}
