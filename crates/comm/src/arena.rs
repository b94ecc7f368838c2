//! The shared arena — our `ARMCI_Malloc`.
//!
//! ARMCI's collective allocator returns, to every process, the addresses
//! of *all* processes' segments, so that intra-node peers can load/store
//! each other's data directly. Here the "segments" are ranges of one
//! large `f64` allocation shared by all rank threads.
//!
//! ## Safety discipline
//!
//! Rust cannot statically check cross-thread aliasing through a shared
//! arena, so the discipline is the matrix-multiplication contract the
//! paper relies on (and that tests enforce dynamically in debug builds):
//!
//! * operand matrices (A, B) are **read-only** during an operation;
//! * each C block is written **only by its owner** ("owner computes");
//! * operations are separated by barriers.
//!
//! Debug builds wire every access through an epoch checker
//! ([`AccessChecker`]) that counts concurrent readers/writers per
//! region and panics on a read/write or write/write overlap — a tiny
//! race detector for the discipline itself.

use srumma_dense::{MatMut, MatRef};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// A shared, fixed-size `f64` arena accessible from every rank thread.
///
/// Every view is rebuilt from one raw base pointer: the arena either
/// owns its storage ([`SharedArena::new`], one region per block, packed
/// back to back) or borrows a caller's row-major matrix
/// ([`SharedArena::adopt`]), where each region is a strided window of
/// that matrix and regions share rows.
pub struct SharedArena {
    /// Element 0 of the storage.
    base: NonNull<f64>,
    /// Total length in elements.
    len: usize,
    /// Who owns the storage, and how blocks sit in it.
    storage: Storage,
    /// One reader/writer counter per region (region granularity is
    /// chosen by the allocator: one region per rank block).
    checkers: Vec<AccessChecker>,
    /// Region table: `(offset, len)` per region id.
    regions: Vec<(usize, usize)>,
}

// SAFETY: the arena hands out element access only through guards.
// Mutable views cover exactly one block's `rows × cols` elements, never
// the gaps between rows that adopted regions share with their
// neighbours, and a write guard is exclusive per region (its checker
// goes to -1, panicking if a reader or writer is live), so two threads
// never hold overlapping `&mut` rows. Blocks of distinct regions are
// disjoint element sets. Read guards only exist while no writer holds
// their region. The one read view that spans row gaps
// (`ReadGuard::mat`) covers only its own elements on owned arenas; on
// adopted ones the gaps are read-only storage (no writer can exist) or,
// by the contract of `adopt`, not written while the view lives. The
// checker's atomics (acquire/release) order a writer's stores before
// the next reader's loads; the operation barriers order the rest.
unsafe impl Sync for SharedArena {}
// SAFETY: the arena is plain memory plus atomics; moving it to another
// thread moves no thread-bound state. Freeing owned storage on drop is
// fine from any thread.
unsafe impl Send for SharedArena {}

/// Where an arena's elements live.
enum Storage {
    /// Allocated by [`SharedArena::new`] and freed on drop; each block
    /// is packed at the start of its region (`ld` = its width).
    Owned,
    /// A caller's row-major matrix of row pitch `ld`; each region is a
    /// strided window of it. Read-only storage refuses write guards.
    Adopted { ld: usize, writable: bool },
}

impl SharedArena {
    /// Collectively allocate an arena with the given region layout
    /// (`regions[i] = length of region i`, in elements). Regions are
    /// laid out contiguously. Returns the arena and each region's
    /// starting offset.
    pub fn new(region_lens: &[usize]) -> (Arc<Self>, Vec<usize>) {
        let total: usize = region_lens.iter().sum();
        let mut offsets = Vec::with_capacity(region_lens.len());
        let mut acc = 0;
        for &len in region_lens {
            offsets.push(acc);
            acc += len;
        }
        let regions = offsets
            .iter()
            .zip(region_lens)
            .map(|(&o, &l)| (o, l))
            .collect();
        let storage: Box<[f64]> = vec![0.0; total].into_boxed_slice();
        // Released again, as a box of the same length, in `Drop`.
        let base = NonNull::new(Box::into_raw(storage) as *mut f64).expect("box is non-null");
        let arena = Arc::new(SharedArena {
            base,
            len: total,
            storage: Storage::Owned,
            checkers: region_lens.iter().map(|_| AccessChecker::new()).collect(),
            regions,
        });
        (arena, offsets)
    }

    /// Borrow a caller's row-major storage of `len` elements and row
    /// pitch `ld` as an arena whose region `i` is the strided window
    /// `regions[i] = (offset, span)`. A read-only arena (`writable =
    /// false`) panics on any write guard.
    ///
    /// # Safety
    /// `base .. base + len` must stay valid for as long as the arena
    /// lives. While it lives, a writable arena's storage must be
    /// accessed by nothing but the arena, and a read-only arena's
    /// storage must not be written by anyone. Every region's span must
    /// lie inside the storage. A read view ([`ReadGuard::mat`]) spans
    /// the gaps between its block's rows, so on a writable arena it
    /// must not be live while another region is being written.
    pub unsafe fn adopt(
        base: NonNull<f64>,
        len: usize,
        ld: usize,
        regions: Vec<(usize, usize)>,
        writable: bool,
    ) -> Arc<Self> {
        assert!(
            regions.iter().all(|&(off, span)| off + span <= len),
            "adopted region outside the storage"
        );
        Arc::new(SharedArena {
            base,
            len,
            storage: Storage::Adopted { ld, writable },
            checkers: regions.iter().map(|_| AccessChecker::new()).collect(),
            regions,
        })
    }

    /// Total length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of regions.
    pub fn nregions(&self) -> usize {
        self.regions.len()
    }

    /// `(offset, len)` of region `id`.
    pub fn region(&self, id: usize) -> (usize, usize) {
        self.regions[id]
    }

    /// Pointer to element `(0, 0)` of the `rows × cols` block held by
    /// region `id`, and its leading dimension.
    ///
    /// # Panics
    /// Panics if the block does not fit in the region.
    fn block(&self, id: usize, rows: usize, cols: usize) -> (*mut f64, usize) {
        let (off, len) = self.regions[id];
        let ld = match self.storage {
            Storage::Owned => cols,
            Storage::Adopted { ld, .. } => ld,
        };
        assert!(ld >= cols, "block of width {cols} exceeds row pitch {ld}");
        let span = if rows == 0 || cols == 0 {
            0
        } else {
            (rows - 1) * ld + cols
        };
        assert!(
            span <= len,
            "{rows}x{cols} block (ld {ld}) overflows region {id} of {len} elements"
        );
        // SAFETY: `off + len <= self.len` (by construction for owned
        // arenas, checked by `adopt`), so the offset stays inside the
        // storage or one past its end.
        (unsafe { self.base.as_ptr().add(off) }, ld)
    }

    /// RAII-guarded read access to region `id`'s `rows × cols` block.
    pub fn read_guard(&self, id: usize, rows: usize, cols: usize) -> ReadGuard<'_> {
        let (ptr, ld) = self.block(id, rows, cols);
        self.checkers[id].begin_read();
        ReadGuard {
            arena: self,
            id,
            ptr,
            rows,
            cols,
            ld,
        }
    }

    /// RAII-guarded exclusive write access to region `id`'s
    /// `rows × cols` block.
    ///
    /// # Panics
    /// Panics on a read-only arena.
    pub fn write_guard(&self, id: usize, rows: usize, cols: usize) -> WriteGuard<'_> {
        assert!(
            self.writable(),
            "arena discipline violation: write to read-only region {id}"
        );
        let (ptr, ld) = self.block(id, rows, cols);
        self.checkers[id].begin_write();
        WriteGuard {
            arena: self,
            id,
            ptr,
            rows,
            cols,
            ld,
        }
    }

    /// Whether blocks may be written.
    fn writable(&self) -> bool {
        !matches!(
            self.storage,
            Storage::Adopted {
                writable: false,
                ..
            }
        )
    }

    /// Whether any region is under write (debug check for read views
    /// that span shared rows).
    fn any_writer(&self) -> bool {
        self.checkers
            .iter()
            .any(|c| c.state.load(Ordering::Acquire) < 0)
    }
}

impl Drop for SharedArena {
    fn drop(&mut self) {
        if let Storage::Owned = self.storage {
            let storage = std::ptr::slice_from_raw_parts_mut(self.base.as_ptr(), self.len);
            // SAFETY: `base` and `len` came from `Box::into_raw` of a
            // boxed slice of exactly this length in `new`, and no guard
            // outlives the arena (guards borrow it).
            drop(unsafe { Box::from_raw(storage) });
        }
    }
}

/// Debug-build access conflict detector: a counter that is positive
/// while readers hold the region and `-1` while a writer does.
pub struct AccessChecker {
    state: AtomicI32,
}

impl AccessChecker {
    fn new() -> Self {
        AccessChecker {
            state: AtomicI32::new(0),
        }
    }

    fn begin_read(&self) {
        let prev = self.state.fetch_add(1, Ordering::AcqRel);
        assert!(
            prev >= 0,
            "arena discipline violation: read of a region under write"
        );
    }

    fn end_read(&self) {
        self.state.fetch_sub(1, Ordering::AcqRel);
    }

    fn begin_write(&self) {
        let prev = self
            .state
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            prev.is_ok(),
            "arena discipline violation: write of a region under access"
        );
    }

    fn end_write(&self) {
        self.state.store(0, Ordering::Release);
    }
}

/// Guard proving read access to one region's block.
pub struct ReadGuard<'a> {
    arena: &'a SharedArena,
    id: usize,
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
}

// SAFETY: the guard is a shared claim on its block's elements, like a
// `&[f64]` to them, so it may move to and be shared between threads.
unsafe impl Send for ReadGuard<'_> {}
// SAFETY: as above.
unsafe impl Sync for ReadGuard<'_> {}

impl ReadGuard<'_> {
    /// Row `i` of the block: exactly its `cols` elements.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range");
        // SAFETY: row `i`'s elements belong to this block, and the read
        // count keeps writers of the region out while the guard lives.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols) }
    }

    /// The whole block as one slice, if it is stored without gaps.
    pub fn packed(&self) -> Option<&[f64]> {
        (self.ld == self.cols || self.rows <= 1).then(|| {
            // SAFETY: a gapless block is exactly these elements, all its
            // own; the read count keeps writers out.
            unsafe { std::slice::from_raw_parts(self.ptr, self.rows * self.cols) }
        })
    }

    /// The block as a strided view. Its slice spans the gaps between
    /// rows, which on adopted storage belong to neighbouring blocks.
    pub fn mat(&self) -> MatRef<'_> {
        if self.rows == 0 || self.cols == 0 {
            return MatRef::new(self.rows, self.cols, self.ld, &[]);
        }
        debug_assert!(
            !(self.arena.writable() && self.ld != self.cols && self.arena.any_writer()),
            "arena discipline violation: strided read view while a block is written"
        );
        let span = (self.rows - 1) * self.ld + self.cols;
        // SAFETY: the span lies inside the region (checked when the guard
        // was made). Our own block is kept writer-free by the read count;
        // the gap elements are either ours (packed storage), read-only
        // (adopted operands), or not written while the view lives (the
        // contract of `SharedArena::adopt` for writable storage).
        MatRef::new(self.rows, self.cols, self.ld, unsafe {
            std::slice::from_raw_parts(self.ptr, span)
        })
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.arena.checkers[self.id].end_read();
    }
}

/// Guard proving exclusive write access to one region's block.
pub struct WriteGuard<'a> {
    arena: &'a SharedArena,
    id: usize,
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
}

// SAFETY: the guard is an exclusive claim on its block's elements (like
// a `&mut [f64]` to them), so it may move to another thread — the
// executor re-runs a dead rank's machine, C guard included, elsewhere.
unsafe impl Send for WriteGuard<'_> {}
// SAFETY: a shared `&WriteGuard` exposes no element access at all.
unsafe impl Sync for WriteGuard<'_> {}

impl WriteGuard<'_> {
    /// The block as a mutable strided view (row slices only).
    pub fn mat_mut(&mut self) -> MatMut<'_> {
        // SAFETY: the block's elements lie inside the region (checked
        // when the guard was made) and the write state makes this guard
        // their only accessor; `&mut self` ties the view to it. The view
        // never touches the gaps between rows.
        unsafe { MatMut::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.arena.checkers[self.id].end_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        let (arena, offsets) = SharedArena::new(&[3, 5, 2]);
        assert_eq!(offsets, vec![0, 3, 8]);
        assert_eq!(arena.len(), 10);
        assert_eq!(arena.nregions(), 3);
        assert_eq!(arena.region(1), (3, 5));
    }

    #[test]
    fn writes_are_visible_to_reads() {
        let (arena, _) = SharedArena::new(&[4, 4]);
        {
            let mut w = arena.write_guard(0, 2, 2);
            let mut v = w.mat_mut();
            v.row_mut(0).copy_from_slice(&[1.0, 2.0]);
            v.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        }
        let r = arena.read_guard(0, 2, 2);
        assert_eq!(r.packed().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.row(1), &[3.0, 4.0]);
        assert_eq!(r.mat().at(1, 0), 3.0);
    }

    #[test]
    fn concurrent_reads_are_fine() {
        let (arena, _) = SharedArena::new(&[4]);
        let r1 = arena.read_guard(0, 1, 4);
        let r2 = arena.read_guard(0, 1, 4);
        assert_eq!(r1.row(0).len(), 4);
        assert_eq!(r2.row(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn write_under_read_is_caught() {
        let (arena, _) = SharedArena::new(&[4]);
        let _r = arena.read_guard(0, 1, 4);
        let _w = arena.write_guard(0, 1, 4);
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn read_under_write_is_caught() {
        let (arena, _) = SharedArena::new(&[4]);
        let _w = arena.write_guard(0, 1, 4);
        let _r = arena.read_guard(0, 1, 4);
    }

    #[test]
    #[should_panic(expected = "overflows region")]
    fn block_larger_than_its_region_is_refused() {
        let (arena, _) = SharedArena::new(&[4, 4]);
        let _r = arena.read_guard(0, 2, 3);
    }

    #[test]
    fn distinct_regions_do_not_conflict() {
        let (arena, _) = SharedArena::new(&[4, 4]);
        let _w0 = arena.write_guard(0, 2, 2);
        let _w1 = arena.write_guard(1, 2, 2);
        let (_, len) = arena.region(1);
        assert_eq!(len, 4);
    }

    #[test]
    fn cross_thread_visibility() {
        let (arena, _) = SharedArena::new(&[8]);
        std::thread::scope(|s| {
            let a = Arc::clone(&arena);
            s.spawn(move || {
                let mut w = a.write_guard(0, 1, 8);
                for (i, v) in w.mat_mut().row_mut(0).iter_mut().enumerate() {
                    *v = i as f64;
                }
            })
            .join()
            .unwrap();
        });
        let r = arena.read_guard(0, 1, 8);
        assert_eq!(r.row(0)[7], 7.0);
    }

    #[test]
    fn empty_arena() {
        let (arena, offsets) = SharedArena::new(&[]);
        assert!(arena.is_empty());
        assert!(offsets.is_empty());
    }

    /// Two column halves of a 3 x 4 caller matrix, written concurrently
    /// by two threads through adopted strided regions.
    #[test]
    fn adopted_column_blocks_are_written_in_place() {
        let mut storage = vec![0.0; 12];
        let base = NonNull::new(storage.as_mut_ptr()).unwrap();
        // SAFETY: `storage` outlives the arena (dropped at the end of the
        // test) and is not touched until the arena is gone.
        let arena = unsafe { SharedArena::adopt(base, 12, 4, vec![(0, 10), (2, 10)], true) };
        std::thread::scope(|s| {
            for id in 0..2 {
                let a = Arc::clone(&arena);
                s.spawn(move || {
                    let mut w = a.write_guard(id, 3, 2);
                    let mut v = w.mat_mut();
                    for i in 0..3 {
                        for j in 0..2 {
                            *v.at_mut(i, j) = (i * 4 + id * 2 + j) as f64;
                        }
                    }
                });
            }
        });
        {
            let r = arena.read_guard(1, 3, 2);
            assert!(r.packed().is_none());
            assert_eq!(r.row(2), &[10.0, 11.0]);
            assert_eq!(r.mat().at(1, 1), 7.0);
        }
        drop(arena);
        assert_eq!(storage, (0..12).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "read-only region")]
    fn read_only_adopted_storage_refuses_writes() {
        let storage = [1.0; 4];
        let base = NonNull::new(storage.as_ptr() as *mut f64).unwrap();
        // SAFETY: `storage` outlives the arena and nobody writes it.
        let arena = unsafe { SharedArena::adopt(base, 4, 2, vec![(0, 4)], false) };
        let _w = arena.write_guard(0, 2, 2);
    }
}
