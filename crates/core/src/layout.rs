//! Distributed storage layouts for the four transpose cases.
//!
//! All matrices share the C matrix's `p × q` process grid. A and B are
//! stored in their *stored* orientation, gridded so that every block a
//! task needs is a **whole stored block of one rank** — the property
//! that keeps one-sided gets single contiguous transfers:
//!
//! | case | stored A | A grid | logical block `op(A)_{i,l}` lives at |
//! |------|----------|--------|--------------------------------------|
//! | `N`  | `m × k`  | `p × q` | rank `(i, l)` |
//! | `T`  | `k × m`  | `q × p` | rank `(l, i)` (transposed in place) |
//!
//! and symmetrically for B (`k × n` on `p × q`, or `n × k` on `q × p`).
//! The k dimension is therefore partitioned into `q` panels for A and
//! `p` panels for B; when `p ≠ q` these panels do not align, and the
//! task builder (see [`crate::taskorder`]) multiplies over the *merged*
//! segments, so every fetched block is still used whole.

use crate::options::GemmSpec;
use crate::request::PlanError;
use srumma_comm::dist::RankOrder;
use srumma_comm::DistMatrix;
use srumma_dense::{BlockMask, MatRef, Op};
use srumma_model::ProcGrid;

/// Number of k-panels of A (one per grid column).
pub fn a_kparts(grid: ProcGrid) -> usize {
    grid.q
}

/// Number of k-panels of B (one per grid row).
pub fn b_kparts(grid: ProcGrid) -> usize {
    grid.p
}

/// Stored dimensions of A for this spec.
pub fn a_stored_dims(spec: &GemmSpec) -> (usize, usize) {
    match spec.transa {
        Op::N => (spec.m, spec.k),
        Op::T => (spec.k, spec.m),
    }
}

/// Stored dimensions of B for this spec.
pub fn b_stored_dims(spec: &GemmSpec) -> (usize, usize) {
    match spec.transb {
        Op::N => (spec.k, spec.n),
        Op::T => (spec.n, spec.k),
    }
}

/// Grid for stored A (transposed cases flip the grid so logical blocks
/// stay whole).
pub fn a_grid(spec: &GemmSpec, grid: ProcGrid) -> ProcGrid {
    match spec.transa {
        Op::N => grid,
        Op::T => ProcGrid::new(grid.q, grid.p),
    }
}

/// Grid for stored B.
pub fn b_grid(spec: &GemmSpec, grid: ProcGrid) -> ProcGrid {
    match spec.transb {
        Op::N => grid,
        Op::T => ProcGrid::new(grid.q, grid.p),
    }
}

/// Create the distributed A for `spec` (real or virtual backing).
///
/// Transposed storage uses **column-major rank placement** so that the
/// rank owning the stored block `Aᵀ(la, i)` is exactly the rank that
/// owns the logical block `op(A)(i, la)` — i.e. ownership is the same
/// as in the untransposed case, each rank simply stores its block
/// transposed in place. This keeps SUMMA's row/column broadcast
/// structure valid and gives SRUMMA symmetric locality.
pub fn dist_a(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    let (r, c) = a_stored_dims(spec);
    let g = a_grid(spec, grid);
    let order = match spec.transa {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_with_order(g, r, c, order, real)
}

/// Create the distributed B for `spec` (see [`dist_a`] for the
/// placement rule).
pub fn dist_b(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    let (r, c) = b_stored_dims(spec);
    let g = b_grid(spec, grid);
    let order = match spec.transb {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_with_order(g, r, c, order, real)
}

/// Create the distributed C for `spec`.
pub fn dist_c(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    if real {
        DistMatrix::create(grid, spec.m, spec.n)
    } else {
        DistMatrix::create_virtual(grid, spec.m, spec.n)
    }
}

/// [`dist_a`] backed by regions of an existing shared arena (rank `r` →
/// region `base + stride·r`) instead of a private allocation — the
/// batched driver's one-arena-for-the-whole-stream path.
pub fn dist_a_in_arena(
    spec: &GemmSpec,
    grid: ProcGrid,
    arena: std::sync::Arc<srumma_comm::SharedArena>,
    base: usize,
    stride: usize,
) -> DistMatrix {
    let (r, c) = a_stored_dims(spec);
    let g = a_grid(spec, grid);
    let order = match spec.transa {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_in_arena(g, r, c, order, arena, base, stride)
}

/// [`dist_b`] backed by regions of an existing shared arena.
pub fn dist_b_in_arena(
    spec: &GemmSpec,
    grid: ProcGrid,
    arena: std::sync::Arc<srumma_comm::SharedArena>,
    base: usize,
    stride: usize,
) -> DistMatrix {
    let (r, c) = b_stored_dims(spec);
    let g = b_grid(spec, grid);
    let order = match spec.transb {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_in_arena(g, r, c, order, arena, base, stride)
}

/// [`dist_c`] backed by regions of an existing shared arena.
pub fn dist_c_in_arena(
    spec: &GemmSpec,
    grid: ProcGrid,
    arena: std::sync::Arc<srumma_comm::SharedArena>,
    base: usize,
    stride: usize,
) -> DistMatrix {
    DistMatrix::create_in_arena(
        grid,
        spec.m,
        spec.n,
        RankOrder::RowMajor,
        arena,
        base,
        stride,
    )
}

/// Attach a **logical** block-sparsity mask to stored A. The logical
/// mask is shaped like `op(A)`'s blocking: `p` C-row blocks × `q`
/// k-panels (the C grid). For transposed storage the stored grid is
/// flipped, so the mask is transposed to stored coordinates before
/// attachment — callers always think in logical blocks.
pub fn set_a_mask(spec: &GemmSpec, da: &mut DistMatrix, logical: BlockMask) {
    match spec.transa {
        Op::N => da.set_mask(logical),
        Op::T => da.set_mask(logical.transposed()),
    }
}

/// Attach a **logical** mask to stored B (`p` k-panels × `q` C-column
/// blocks; see [`set_a_mask`]).
pub fn set_b_mask(spec: &GemmSpec, db: &mut DistMatrix, logical: BlockMask) {
    match spec.transb {
        Op::N => db.set_mask(logical),
        Op::T => db.set_mask(logical.transposed()),
    }
}

/// Derive C's nonzero structure from the operand masks:
/// `C_ij` is nonzero iff some surviving k-segment hits it —
/// `∃ t: mask_a[i][t.la] AND mask_b[t.lb][j]` over the merged-segment
/// task list. On a square grid (where A's and B's k-panels coincide)
/// this reduces to the boolean product [`BlockMask::matmul`]; the
/// merged-segment form is the general `p ≠ q` version.
///
/// The derived mask is *diagnostic* — correctness comes from task
/// pruning plus the unconditional β pre-pass, which scales every C
/// block (masked or not) even on ranks whose whole k-row vanished.
pub fn derive_c_mask(
    k: usize,
    grid: ProcGrid,
    mask_a: &BlockMask,
    mask_b: &BlockMask,
) -> BlockMask {
    assert_eq!(
        (mask_a.rows(), mask_a.cols()),
        (grid.p, a_kparts(grid)),
        "A mask must be p x q (C-row blocks x A k-panels)"
    );
    assert_eq!(
        (mask_b.rows(), mask_b.cols()),
        (b_kparts(grid), grid.q),
        "B mask must be p x q (B k-panels x C-column blocks)"
    );
    let tasks = crate::taskorder::build_tasks(k.max(1), a_kparts(grid), b_kparts(grid));
    BlockMask::from_fn(grid.p, grid.q, |i, j| {
        tasks
            .iter()
            .any(|t| mask_a.get(i, t.la) && mask_b.get(t.lb, j))
    })
}

/// Rank owning logical block `op(A)_{i, la}` (C-row `i`, k-panel `la`).
///
/// Thanks to the column-major placement of transposed storage this is
/// the *same rank* for both transpose cases: rank `(i, la)` of the C
/// grid, which always sits in C-grid row `i` (as SUMMA's row broadcast
/// requires).
pub fn a_owner(spec: &GemmSpec, grid: ProcGrid, i: usize, la: usize) -> usize {
    let _ = spec;
    grid.rank_at(i, la)
}

/// Rank owning logical block `op(B)_{lb, j}` (k-panel `lb`, C-col `j`);
/// always rank `(lb, j)` of the C grid (in C-grid column `j`).
pub fn b_owner(spec: &GemmSpec, grid: ProcGrid, lb: usize, j: usize) -> usize {
    let _ = spec;
    grid.rank_at(lb, j)
}

/// Sub-view of a *stored* A block for the k-segment
/// `[rel0, rel0 + seg)` (relative to the block's k-panel), together
/// with the transpose flag to hand to dgemm. `view` must be the whole
/// stored block of `a_owner(spec, grid, i, la)`.
pub fn a_seg_view<'a>(
    spec: &GemmSpec,
    view: MatRef<'a>,
    rel0: usize,
    seg: usize,
) -> (MatRef<'a>, Op) {
    match spec.transa {
        // Stored block is (m_i × k_la): take columns.
        Op::N => (view.block(0, rel0, view.rows(), seg), Op::N),
        // Stored block is (k_la × m_i): take rows, multiply transposed.
        Op::T => (view.block(rel0, 0, seg, view.cols()), Op::T),
    }
}

/// Sub-view of a *stored* B block for the k-segment, with its dgemm op.
pub fn b_seg_view<'a>(
    spec: &GemmSpec,
    view: MatRef<'a>,
    rel0: usize,
    seg: usize,
) -> (MatRef<'a>, Op) {
    match spec.transb {
        // Stored block is (k_lb × n_j): take rows.
        Op::N => (view.block(rel0, 0, seg, view.cols()), Op::N),
        // Stored block is (n_j × k_lb): take columns, transposed.
        Op::T => (view.block(0, rel0, view.rows(), seg), Op::T),
    }
}

/// Check that `a` is the logical `m × k` operand and `b` the `k × n`
/// one (the convention of [`scatter_operands`]).
pub fn check_operands(
    spec: &GemmSpec,
    a: &srumma_dense::Matrix,
    b: &srumma_dense::Matrix,
) -> Result<(), PlanError> {
    for (operand, mat, want) in [('A', a, (spec.m, spec.k)), ('B', b, (spec.k, spec.n))] {
        let got = (mat.rows(), mat.cols());
        if got != want {
            return Err(PlanError::OperandShape { operand, got, want });
        }
    }
    Ok(())
}

/// Scatter logical matrices into their stored distributions: `a` is the
/// logical `m × k` operand (untransposed), and likewise `b` (`k × n`).
/// Handles the storage transposition for the `T` cases.
pub fn scatter_operands(
    spec: &GemmSpec,
    dist_a: &DistMatrix,
    dist_b: &DistMatrix,
    a: &srumma_dense::Matrix,
    b: &srumma_dense::Matrix,
) {
    if let Err(e) = check_operands(spec, a, b) {
        panic!("{e}");
    }
    match spec.transa {
        Op::N => dist_a.scatter(a),
        Op::T => dist_a.scatter(&a.transposed()),
    }
    match spec.transb {
        Op::N => dist_b.scatter(b),
        Op::T => dist_b.scatter(&b.transposed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_comm::dist::{chunk_len, chunk_start};
    use srumma_dense::Matrix;

    fn specs() -> Vec<GemmSpec> {
        let mut v = vec![];
        for ta in [Op::N, Op::T] {
            for tb in [Op::N, Op::T] {
                v.push(GemmSpec::new(ta, tb, 9, 7, 11));
            }
        }
        v
    }

    #[test]
    fn stored_dims_match_orientation() {
        let s = GemmSpec::new(Op::T, Op::T, 9, 7, 11);
        assert_eq!(a_stored_dims(&s), (11, 9));
        assert_eq!(b_stored_dims(&s), (7, 11));
    }

    #[test]
    fn owners_cover_every_block_once() {
        let grid = ProcGrid::new(2, 3);
        for spec in specs() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..grid.p {
                for la in 0..a_kparts(grid) {
                    seen.insert(a_owner(&spec, grid, i, la));
                }
            }
            assert_eq!(seen.len(), grid.nranks(), "{spec:?}: A blocks");
            let mut seen = std::collections::HashSet::new();
            for lb in 0..b_kparts(grid) {
                for j in 0..grid.q {
                    seen.insert(b_owner(&spec, grid, lb, j));
                }
            }
            assert_eq!(seen.len(), grid.nranks(), "{spec:?}: B blocks");
        }
    }

    #[test]
    fn a_block_contains_logical_elements_all_cases() {
        let grid = ProcGrid::new(2, 3);
        // Logical A is m x k.
        let (m, k) = (9, 11);
        let logical = Matrix::from_fn(m, k, |i, j| (i * 100 + j) as f64);
        for spec in specs().into_iter().filter(|s| (s.m, s.k) == (m, k)) {
            let da = dist_a(&spec, grid, true);
            let db = dist_b(&spec, grid, true);
            let logical_b = Matrix::zeros(spec.k, spec.n);
            scatter_operands(&spec, &da, &db, &logical, &logical_b);
            // Check logical block (i=1, la=2): rows chunk(m, p, 1),
            // k-cols chunk(k, q, 2).
            let (i, la) = (1, 2);
            let owner = a_owner(&spec, grid, i, la);
            let blk = da.read_block(owner);
            let view = blk.mat().unwrap();
            let (seg_view, op) = a_seg_view(&spec, view, 0, chunk_len(k, grid.q, la));
            let r0 = chunk_start(m, grid.p, i);
            let k0 = chunk_start(k, grid.q, la);
            // Element (0, 0) of the logical block:
            let logical_val = logical[(r0, k0)];
            let got = match op {
                Op::N => seg_view.at(0, 0),
                Op::T => seg_view.at(0, 0), // (k, m) storage: (0,0) is same corner
            };
            assert_eq!(got, logical_val, "{:?}", spec.transa);
        }
    }

    #[test]
    fn seg_views_slice_the_k_range() {
        let grid = ProcGrid::new(2, 2);
        let spec = GemmSpec::new(Op::N, Op::N, 8, 8, 8);
        let da = dist_a(&spec, grid, true);
        let logical = Matrix::from_fn(8, 8, |i, j| (i * 10 + j) as f64);
        da.scatter(&logical);
        // Block (0, 1): rows 0..4, k 4..8. Segment rel0=1, seg=2 → k 5..7.
        let owner = a_owner(&spec, grid, 0, 1);
        let blk = da.read_block(owner);
        let (v, op) = a_seg_view(&spec, blk.mat().unwrap(), 1, 2);
        assert_eq!(op, Op::N);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), logical[(0, 5)]);
        assert_eq!(v.at(3, 1), logical[(3, 6)]);
    }

    #[test]
    fn logical_masks_land_on_logical_owners_all_cases() {
        // Whatever the storage transposition, the rank that owns
        // logical block op(A)(i, la) must see exactly mask[i][la].
        let grid = ProcGrid::new(2, 3);
        let mask_a = BlockMask::from_fn(grid.p, a_kparts(grid), |i, la| (i + la) % 2 == 0);
        let mask_b = BlockMask::from_fn(b_kparts(grid), grid.q, |lb, j| (lb * 3 + j) % 2 == 1);
        for spec in specs() {
            let mut da = dist_a(&spec, grid, false);
            let mut db = dist_b(&spec, grid, false);
            set_a_mask(&spec, &mut da, mask_a.clone());
            set_b_mask(&spec, &mut db, mask_b.clone());
            for i in 0..grid.p {
                for la in 0..a_kparts(grid) {
                    let owner = a_owner(&spec, grid, i, la);
                    assert_eq!(
                        da.block_nonzero(owner),
                        mask_a.get(i, la),
                        "{spec:?} A ({i},{la})"
                    );
                }
            }
            for lb in 0..b_kparts(grid) {
                for j in 0..grid.q {
                    let owner = b_owner(&spec, grid, lb, j);
                    assert_eq!(
                        db.block_nonzero(owner),
                        mask_b.get(lb, j),
                        "{spec:?} B ({lb},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn derived_c_mask_is_boolean_product_on_square_grids() {
        let grid = ProcGrid::new(3, 3);
        let ma = BlockMask::from_fn(3, 3, |i, l| i == l);
        let mb = BlockMask::from_fn(3, 3, |l, j| l == 0 && j < 2);
        let derived = derive_c_mask(30, grid, &ma, &mb);
        assert_eq!(derived, ma.matmul(&mb));
        // Empty operand structure derives an empty C.
        let none = derive_c_mask(30, grid, &BlockMask::empty(3, 3), &mb);
        assert_eq!(none.nnz(), 0);
    }

    #[test]
    fn derived_c_mask_uses_merged_segments_on_nonsquare_grids() {
        // p=2, q=3: A has 3 k-panels, B has 2. A segment straddling
        // both partitions links A panel la with B panel lb.
        let grid = ProcGrid::new(2, 3);
        let ma = BlockMask::from_fn(2, 3, |_, la| la == 2); // only A k-panel 2
        let mb = BlockMask::from_fn(2, 3, |lb, _| lb == 1); // only B k-panel 1
                                                            // k=6: A panels cover k 0..2,2..4,4..6; B panels 0..3,3..6.
                                                            // Segment 4..6 has la=2, lb=1 → every C block survives.
        let c = derive_c_mask(6, grid, &ma, &mb);
        assert!(c.is_full());
        // But A k-panel 0 (k 0..2) only overlaps B panel 0 → nothing.
        let ma0 = BlockMask::from_fn(2, 3, |_, la| la == 0);
        let c0 = derive_c_mask(6, grid, &ma0, &mb);
        assert_eq!(c0.nnz(), 0);
    }

    #[test]
    fn transposed_b_seg_view() {
        let grid = ProcGrid::new(2, 2);
        let spec = GemmSpec::new(Op::N, Op::T, 4, 6, 8);
        let db = dist_b(&spec, grid, true);
        let logical_b = Matrix::from_fn(8, 6, |i, j| (i * 10 + j) as f64); // k x n
        let da = dist_a(&spec, grid, true);
        let logical_a = Matrix::zeros(4, 8);
        scatter_operands(&spec, &da, &db, &logical_a, &logical_b);
        // op(B)_{lb=1, j=0}: k rows chunk(8, p=2, 1) = 4..8, cols chunk(6, q=2, 0) = 0..3.
        let owner = b_owner(&spec, grid, 1, 0);
        let blk = db.read_block(owner);
        let (v, op) = b_seg_view(&spec, blk.mat().unwrap(), 1, 2); // k 5..7
        assert_eq!(op, Op::T);
        // Stored B is n x k (6 x 8): block (j=0, lb=1) is rows 0..3, cols 4..8.
        // Segment: cols rel 1..3 of that block = logical k 5..7.
        // op view is (n_j x seg) = (3 x 2), transposed in dgemm.
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        // v.at(col_in_nj, seg_idx) is stored B[nj, k] = logical B[k, nj].
        assert_eq!(v.at(2, 1), logical_b[(6, 2)]);
    }
}
