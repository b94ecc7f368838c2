//! One-call shorthands, each a single [`Multiply`] request, plus the
//! serial references every backend is checked against:
//!
//! * [`multiply_threads`] / [`multiply_exec`] — real data on host
//!   threads or the work-stealing executor;
//! * [`measure_modeled`] / [`measure_gflops`] — virtual (shape-only)
//!   matrices at paper scale under the simulator.

use crate::api::Algorithm;
use crate::layout::{set_a_mask, set_b_mask};
use crate::options::GemmSpec;
use crate::request::{Backend, Multiply};
use crate::srumma::SrummaReport;
use srumma_comm::ExecRunResult;
use srumma_dense::{BlockMask, Matrix};
use srumma_model::{Machine, ProcGrid};
use srumma_sim::RunStats;
use srumma_trace::TraceEvent;

/// Pick the process grid for `nranks` (most-square factorization —
/// the ScaLAPACK default and the paper's analysis assumption).
pub fn default_grid(nranks: usize) -> ProcGrid {
    ProcGrid::near_square(nranks)
}

/// Run `alg` on virtual matrices at paper scale; returns run statistics
/// (timings, bytes, overlap) only.
pub fn measure_modeled(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
) -> RunStats {
    Multiply::modeled(*alg, *spec)
        .run(nranks, &Backend::Sim(machine))
        .map(|out| out.stats)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// A run that kept its event timeline: the statistics plus the raw
/// per-rank trace events (virtual-time under the simulator, wall-clock
/// on threads), ready for `srumma_trace::chrome_trace_json` /
/// `ascii_gantt` / `bench_report_json`.
#[derive(Debug)]
pub struct TracedRun {
    /// Derived per-rank and aggregate metrics.
    pub stats: RunStats,
    /// Merged event timeline, sorted by start time.
    pub trace: Vec<TraceEvent>,
}

/// GFLOP/s of a modeled run (the unit of the paper's figures).
pub fn measure_gflops(machine: &Machine, nranks: usize, alg: &Algorithm, spec: &GemmSpec) -> f64 {
    measure_modeled(machine, nranks, alg, spec).gflops(spec.flops())
}

/// Run `alg` on real data with real host threads (one shared-memory
/// domain — the Altix configuration on today's hardware). Returns
/// `(C, wall seconds)`.
pub fn multiply_threads(
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, f64) {
    Multiply::new(*alg, *spec, a, b)
        .run(nranks, &Backend::threads())
        .map(|out| (out.c.expect("real operands gather C"), out.wall_seconds))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Run `alg` on real data on the **work-stealing executor**: `nranks`
/// logical ranks multiplexed onto `workers` worker threads. SRUMMA
/// ranks run as polled state machines ([`crate::srumma::SrummaRankTask`]
/// — zero OS threads per rank); SUMMA and Cannon run their unmodified
/// blocking code on loan-gated threads. Returns the numeric result and
/// the full run result — `stats.exec` carries the steal-rate/occupancy
/// counters; `outputs` holds each rank's SRUMMA report (`None` for
/// SUMMA and Cannon).
pub fn multiply_exec(
    nranks: usize,
    workers: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, ExecRunResult<Option<SrummaReport>>) {
    Multiply::new(*alg, *spec, a, b)
        .run(nranks, &Backend::exec(workers))
        .map(|out| {
            let outputs = if out.reports.is_empty() {
                vec![None; nranks]
            } else {
                out.reports.into_iter().map(Some).collect()
            };
            let run = ExecRunResult {
                outputs,
                wall_seconds: out.wall_seconds,
                trace: out.trace,
                stats: out.stats,
            };
            (out.c.expect("real operands gather C"), run)
        })
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Logical block masks for a sparse multiply. `a` is `grid.p × kparts`
/// over the logical `m × k` operand, `b` is `kparts × grid.q` over the
/// logical `k × n` operand ([`crate::layout::set_a_mask`] resolves the
/// transpose to stored coordinates). `None` means dense.
#[derive(Clone, Debug, Default)]
pub struct SparseMasks {
    /// Logical mask for A, or `None` for a dense operand.
    pub a: Option<BlockMask>,
    /// Logical mask for B, or `None` for a dense operand.
    pub b: Option<BlockMask>,
}

impl SparseMasks {
    /// Mask both operands.
    pub fn new(a: BlockMask, b: BlockMask) -> Self {
        Self {
            a: Some(a),
            b: Some(b),
        }
    }

    /// Mask only A (B dense).
    pub fn a_only(a: BlockMask) -> Self {
        Self {
            a: Some(a),
            b: None,
        }
    }

    /// Mask only B (A dense).
    pub fn b_only(b: BlockMask) -> Self {
        Self {
            a: None,
            b: Some(b),
        }
    }

    pub(crate) fn apply(
        &self,
        spec: &GemmSpec,
        da: &mut srumma_comm::DistMatrix,
        db: &mut srumma_comm::DistMatrix,
    ) {
        if let Some(m) = &self.a {
            set_a_mask(spec, da, m.clone());
        }
        if let Some(m) = &self.b {
            set_b_mask(spec, db, m.clone());
        }
    }
}

/// The serial reference for a block-sparse multiply: zero out the
/// masked blocks of the logical operands, then run the dense serial
/// kernel. Matches the pruned parallel paths exactly — a pruned task
/// is one whose A or B block is numerically zero here, so its
/// contribution to `C` is zero.
pub fn sparse_serial_reference(
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> Matrix {
    let am = masks.a.as_ref().map(|m| m.masked_copy(a));
    let bm = masks.b.as_ref().map(|m| m.masked_copy(b));
    serial_reference(spec, am.as_ref().unwrap_or(a), bm.as_ref().unwrap_or(b))
}

/// The serial reference result for verification. `a` and `b` are the
/// *logical* operands (`m × k` and `k × n`, transposition already
/// resolved — the same convention as
/// [`crate::layout::scatter_operands`]), so the reference is simply
/// `A·B` computed by the serial kernel.
pub fn serial_reference(spec: &GemmSpec, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (spec.m, spec.k));
    assert_eq!((b.rows(), b.cols()), (spec.k, spec.n));
    let mut c = Matrix::zeros(spec.m, spec.n);
    srumma_dense::dgemm(
        srumma_dense::Op::N,
        srumma_dense::Op::N,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    c
}
