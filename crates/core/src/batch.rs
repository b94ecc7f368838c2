//! Batched multi-GEMM driver: one worker pool and no synchronization
//! across a stream of multiplies.
//!
//! SRUMMA's per-multiply fixed costs — operand distribution, rank
//! spawn, and the open/close barrier pair — are negligible for one
//! large product but dominate a *stream* of small-to-medium tiles (the
//! chemistry-style workloads behind task-based SUMMA descendants).
//! This module runs a whole [`BatchSpec`] with those costs paid once
//! or not at all:
//!
//! * **in place** — every entry's distributions adopt the caller's A
//!   and B (read-only) and the entry's freshly allocated output C
//!   ([`DistMatrix::adopt`], DESIGN.md §17 "Operand ownership"), so no
//!   operand is staged and no C block is extracted;
//! * **one worker pool** — [`multiply_batch_exec`] keeps a single
//!   `ExecComm` executor (and each rank's gemm workspace and
//!   [`MachineScratch`]) alive across every entry, so
//!   `ws_grow_count() ≤ 1` holds for the whole stream;
//! * **no fences** — operands are immutable and each C block has one
//!   writer, its owner, so a rank starts entry `e+1` the moment it
//!   finishes its part of entry `e`, whatever its peers are doing. The
//!   outputs are handed back once every rank has finished.
//!
//! Per rank, with `n` entries:
//!
//! ```text
//! for e in 0..n:
//!     copy c0's block into my C block (if c0 is given)
//!     build the machine (β pre-pass), run my tasks, keep the scratch
//! ```
//!
//! The executor runs this loop as one [`BatchRankTask`] per rank that
//! yields every few machine steps and never parks; threads and the
//! simulator run it straight through, which is what makes the
//! three-backend correctness matrix possible.

use crate::driver::{default_grid, TracedRun};
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{MachineScratch, SrummaMachine, SrummaReport};
use crate::tune::{TunerCell, TunerStep};
use srumma_comm::{
    exec_run_tasks, sim_run, thread_run, Comm, DistMatrix, ExecComm, RankTask, SimOptions, Step,
};
use srumma_dense::{BlockMask, Matrix, Op};
use srumma_model::Machine;
use srumma_trace::{BatchStats, EntryRankSample, EntryStats};
use std::ptr::NonNull;

/// One multiply of a batch: a spec, its logical operands (`a` is
/// `m × k`, `b` is `k × n`, whatever the spec's ops — the run reads
/// them where they lie), an optional initial C (`m × n`, scaled by
/// `spec.beta`) and an optional per-entry options override.
#[derive(Clone)]
pub struct BatchEntry {
    /// The multiply.
    pub spec: GemmSpec,
    /// Logical `m × k` A.
    pub a: Matrix,
    /// Logical `k × n` B.
    pub b: Matrix,
    /// Initial C for `β`-accumulation (zeros when absent).
    pub c0: Option<Matrix>,
    /// Per-entry override of the batch's default options.
    pub opts: Option<SrummaOptions>,
    /// Logical block-sparsity mask of A (`p` C-row blocks × `q`
    /// k-panels of the run grid). Masked blocks are declared zero:
    /// their gets and gemm segments are skipped entirely.
    pub mask_a: Option<BlockMask>,
    /// Logical mask of B (`p` k-panels × `q` C-column blocks).
    pub mask_b: Option<BlockMask>,
}

impl BatchEntry {
    /// An entry with zero initial C and the batch's default options.
    pub fn new(spec: GemmSpec, a: Matrix, b: Matrix) -> Self {
        assert_eq!((a.rows(), a.cols()), (spec.m, spec.k), "A must be m x k");
        assert_eq!((b.rows(), b.cols()), (spec.k, spec.n), "B must be k x n");
        BatchEntry {
            spec,
            a,
            b,
            c0: None,
            opts: None,
            mask_a: None,
            mask_b: None,
        }
    }

    /// Accumulate onto `c0` (scaled by `spec.beta`).
    pub fn with_c0(mut self, c0: Matrix) -> Self {
        assert_eq!((c0.rows(), c0.cols()), (self.spec.m, self.spec.n));
        self.c0 = Some(c0);
        self
    }

    /// Override the batch's default SRUMMA options for this entry.
    pub fn with_opts(mut self, opts: SrummaOptions) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Declare block-sparsity structure for the operands (either mask
    /// may be `None` ≡ dense). Masks are **logical**: shaped by the run
    /// grid's blocking (`p × q`), with A's columns and B's rows indexing
    /// k-panels, whatever the spec's ops. Whatever data sits inside a
    /// masked block is ignored.
    pub fn with_masks(mut self, mask_a: Option<BlockMask>, mask_b: Option<BlockMask>) -> Self {
        self.mask_a = mask_a;
        self.mask_b = mask_b;
        self
    }
}

/// A stream of multiplies to run on one worker pool.
#[derive(Clone)]
pub struct BatchSpec {
    /// The entries, executed in order (results are order-stable).
    pub entries: Vec<BatchEntry>,
    /// Default options for entries without an override.
    pub opts: SrummaOptions,
}

impl Default for BatchSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchSpec {
    /// An empty batch with default options.
    pub fn new() -> Self {
        BatchSpec {
            entries: Vec::new(),
            opts: SrummaOptions::default(),
        }
    }

    /// Set the default options for all entries.
    pub fn with_opts(mut self, opts: SrummaOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Append an entry.
    pub fn push(&mut self, entry: BatchEntry) {
        self.entries.push(entry);
    }

    /// Effective options of entry `e`.
    pub fn entry_opts(&self, e: usize) -> SrummaOptions {
        self.entries[e].opts.unwrap_or(self.opts)
    }

    /// Total useful flops of the stream.
    pub fn flops(&self) -> f64 {
        self.entries.iter().map(|e| e.spec.flops()).sum()
    }
}

/// One entry's distributions, adopted in place.
struct EntryPlan {
    /// The run spec: the caller's with both operands stored `N`, since
    /// the adopted A and B are the logical `m × k` and `k × n`
    /// matrices (dgemm packs the same values, C keeps every bit).
    spec: GemmSpec,
    opts: SrummaOptions,
    da: DistMatrix,
    db: DistMatrix,
    dc: DistMatrix,
}

/// Allocate every entry's output, adopt the operands and outputs as
/// distributions over `nranks` ranks, hand the plans to `run` (which
/// returns each rank's results, the run's wall seconds and an extra),
/// then release the distributions and hand back the outputs.
fn run_in_place<R>(
    batch: &BatchSpec,
    nranks: usize,
    run: impl FnOnce(&[EntryPlan]) -> (Vec<BatchRankOut>, f64, R),
) -> (BatchResult, R) {
    let grid = default_grid(nranks);
    let mut outputs: Vec<Matrix> = batch
        .entries
        .iter()
        .map(|e| Matrix::zeros(e.spec.m, e.spec.n))
        .collect();
    // Clamp explicit cache blocks to the stream's high-water shape,
    // once for the whole batch: per-rank workspaces then size for what
    // the largest entry can touch instead of a profile's paper-scale
    // maxima, while every entry still sees the *same* gemm config, so
    // configure_gemm stays idempotent and grow-at-most-once holds.
    // (`min(block, dim)` never changes the tiling of a call whose dims
    // fit the clamp — bitwise-neutral; see `GemmConfig::clamped_to`.)
    let (hm, hk, hn) = batch.entries.iter().fold((0, 0, 0), |(m, k, n), e| {
        (m.max(e.spec.m), k.max(e.spec.k), n.max(e.spec.n))
    });
    let plans: Vec<EntryPlan> = batch
        .entries
        .iter()
        .zip(outputs.iter_mut())
        .enumerate()
        .map(|(e, (entry, out))| {
            let spec = GemmSpec {
                transa: Op::N,
                transb: Op::N,
                ..entry.spec
            };
            let (m, n, k) = (spec.m, spec.n, spec.k);
            let a_base = NonNull::from(entry.a.as_slice()).cast();
            let b_base = NonNull::from(entry.b.as_slice()).cast();
            let c_base = NonNull::from(out.as_mut_slice()).cast();
            // SAFETY: `batch` is borrowed shared for this whole call,
            // so the entry's A stays valid and nothing writes it while
            // the plan lives; it is adopted read-only.
            let mut da = unsafe { DistMatrix::adopt(grid, m, k, a_base, false) };
            // SAFETY: as for A — B is part of the shared-borrowed
            // `batch`, alive and unwritten for this call, read-only.
            let mut db = unsafe { DistMatrix::adopt(grid, k, n, b_base, false) };
            // SAFETY: the output is owned by this function and neither
            // read nor written here until `plans` is dropped below:
            // during the run each block is written only through its
            // owner's write guard, and no rank outlives `run`. Moving
            // `outputs` afterwards does not move the element buffers.
            let dc = unsafe { DistMatrix::adopt(grid, m, n, c_base, true) };
            // The masks are logical, and so is the run spec.
            if let Some(mask) = &entry.mask_a {
                crate::layout::set_a_mask(&spec, &mut da, mask.clone());
            }
            if let Some(mask) = &entry.mask_b {
                crate::layout::set_b_mask(&spec, &mut db, mask.clone());
            }
            EntryPlan {
                spec,
                opts: batch.entry_opts(e).clamp_gemm_to(hm, hk, hn),
                da,
                db,
                dc,
            }
        })
        .collect();
    let (rank_outs, wall_s, extra) = run(&plans);
    drop(plans); // releases every output before it is handed back
    (assemble_batch(batch, outputs, rank_outs, wall_s), extra)
}

/// One rank's results for the whole stream.
#[derive(Default)]
pub struct BatchRankOut {
    /// Per-entry SRUMMA reports (tasks, fetched/direct blocks).
    pub reports: Vec<SrummaReport>,
    /// Per-entry timing samples for the [`BatchStats`] rollup.
    pub samples: Vec<EntryRankSample>,
    /// Final gemm-workspace grow count — the grow-at-most-once
    /// regression asserts this stays `≤ 1` across the whole batch.
    pub ws_grow_count: u64,
}

impl BatchRankOut {
    fn new(n: usize) -> Self {
        BatchRankOut {
            reports: Vec::with_capacity(n),
            samples: vec![EntryRankSample::default(); n],
            ws_grow_count: 0,
        }
    }

    /// Start entry `e` on this rank: copy `c0`'s block into its own C
    /// block, then build the machine, whose β pre-pass scales it. A
    /// fresh output is zero, so an entry without `c0` needs no copy.
    fn begin_entry<'p, C: Comm>(
        &mut self,
        comm: &mut C,
        batch: &BatchSpec,
        plan: &'p EntryPlan,
        e: usize,
        tuner: Option<&TunerCell>,
        scratch: MachineScratch,
    ) -> SrummaMachine<'p> {
        let rank = comm.rank();
        let t0 = comm.now();
        if let Some(c0) = &batch.entries[e].c0 {
            let (r0, col0) = plan.dc.block_origin(rank);
            let mut w = plan.dc.write_block(rank);
            if let Some(mut dst) = w.mat_mut() {
                dst.copy_from(c0.block(r0, col0, dst.rows(), dst.cols()));
            }
        }
        let t1 = comm.now();
        // The machine copies the options at construction, so the tuned
        // prefetch depth is applied through a stack-local copy.
        let mut eopts = plan.opts;
        if let Some(t) = tuner {
            if eopts.double_buffer {
                eopts.prefetch_depth = t.setting_for(e);
            }
        }
        let machine = SrummaMachine::new_reusing(
            comm, &plan.spec, &plan.da, &plan.db, &plan.dc, &eopts, scratch,
        );
        let s = &mut self.samples[e];
        s.t_start = t0;
        s.stage_s = t1 - t0;
        s.compute_s = comm.now() - t1;
        machine
    }

    /// Finish entry `e`: release the machine (and its C write guard)
    /// and record the report and timings.
    fn end_entry<C: Comm>(
        &mut self,
        comm: &mut C,
        machine: SrummaMachine<'_>,
        e: usize,
        tuner: Option<&TunerCell>,
    ) -> MachineScratch {
        let t0 = comm.now();
        let (report, scratch) = machine.into_scratch();
        let s = &mut self.samples[e];
        s.tasks_run = report.tasks as u64;
        s.tasks_masked = report.masked_tasks as u64;
        s.flops_skipped = report.skipped_flops;
        s.t_end = comm.now();
        s.compute_s += s.t_end - t0;
        if let Some(t) = tuner {
            t.record(e, s.compute_s);
        }
        self.reports.push(report);
        scratch
    }
}

/// The batch program on a blocking backend (threads, simulator): the
/// same per-entry loop as [`BatchRankTask`], run straight through.
fn run_rank_blocking<C: Comm>(
    comm: &mut C,
    batch: &BatchSpec,
    plans: &[EntryPlan],
    tuner: Option<&TunerCell>,
) -> BatchRankOut {
    let mut out = BatchRankOut::new(plans.len());
    let mut scratch = MachineScratch::default();
    for (e, plan) in plans.iter().enumerate() {
        let mut machine = out.begin_entry(comm, batch, plan, e, tuner, scratch);
        let t0 = comm.now();
        while machine.step(comm) {}
        out.samples[e].compute_s += comm.now() - t0;
        scratch = out.end_entry(comm, machine, e, tuner);
    }
    out.ws_grow_count = comm.ws_grow_count();
    out
}

/// The whole batch as **one** schedulable rank task on the
/// work-stealing executor. It never waits on a peer, so it never
/// parks: it yields every [`Self::STRIDE`] machine steps and between
/// entries, letting the worker run other ranks' work.
pub struct BatchRankTask<'a> {
    comm: ExecComm,
    batch: &'a BatchSpec,
    plans: &'a [EntryPlan],
    tuner: Option<&'a TunerCell>,
    /// The entry to run next, or running now when `machine` is set.
    e: usize,
    machine: Option<SrummaMachine<'a>>,
    scratch: MachineScratch,
    out: BatchRankOut,
}

impl<'a> BatchRankTask<'a> {
    /// Machine steps per poll — same amortization/interleaving tradeoff
    /// as [`crate::srumma::SrummaRankTask`].
    const STRIDE: usize = 8;

    fn new(
        comm: ExecComm,
        batch: &'a BatchSpec,
        plans: &'a [EntryPlan],
        tuner: Option<&'a TunerCell>,
    ) -> Self {
        BatchRankTask {
            comm,
            batch,
            plans,
            tuner,
            e: 0,
            machine: None,
            scratch: MachineScratch::default(),
            out: BatchRankOut::new(plans.len()),
        }
    }
}

impl RankTask for BatchRankTask<'_> {
    type Out = BatchRankOut;

    fn step(&mut self) -> Step<BatchRankOut> {
        let e = self.e;
        if e == self.plans.len() {
            self.out.ws_grow_count = self.comm.ws_grow_count();
            return Step::Done(std::mem::take(&mut self.out));
        }
        let (plans, tuner) = (self.plans, self.tuner);
        if self.machine.is_none() {
            let scratch = std::mem::take(&mut self.scratch);
            let m = self
                .out
                .begin_entry(&mut self.comm, self.batch, &plans[e], e, tuner, scratch);
            self.machine = Some(m);
        }
        let machine = self.machine.as_mut().expect("machine built above");
        let t0 = self.comm.now();
        let mut more = machine.has_work();
        for _ in 0..Self::STRIDE {
            if !more {
                break;
            }
            more = machine.step(&mut self.comm);
        }
        self.out.samples[e].compute_s += self.comm.now() - t0;
        if !more {
            let machine = self.machine.take().expect("machine exists");
            self.scratch = self.out.end_entry(&mut self.comm, machine, e, tuner);
            self.e += 1;
        }
        Step::Yield
    }

    fn take_trace(&mut self) -> (Vec<srumma_trace::TraceEvent>, srumma_trace::Counters) {
        self.comm.recorder().take()
    }
}

/// Results of a batched run.
pub struct BatchResult {
    /// Per-entry numeric results, in batch order.
    pub outputs: Vec<Matrix>,
    /// Per-entry SRUMMA reports summed across ranks.
    pub reports: Vec<SrummaReport>,
    /// Per-rank gemm-workspace grow counts (each must stay `≤ 1`).
    pub ws_grow_counts: Vec<u64>,
    /// The per-entry / whole-stream metrics rollup.
    pub stats: BatchStats,
}

fn entry_label(spec: &GemmSpec) -> String {
    format!("{} {}x{}x{}", spec.case_label(), spec.m, spec.n, spec.k)
}

fn assemble_batch(
    batch: &BatchSpec,
    outputs: Vec<Matrix>,
    rank_outs: Vec<BatchRankOut>,
    wall_s: f64,
) -> BatchResult {
    let n = batch.entries.len();
    let mut reports = vec![SrummaReport::default(); n];
    let mut entries = Vec::with_capacity(n);
    for (e, entry) in batch.entries.iter().enumerate() {
        let mut samples = Vec::with_capacity(rank_outs.len());
        for ro in &rank_outs {
            samples.push(ro.samples[e]);
            reports[e].tasks += ro.reports[e].tasks;
            reports[e].fetched_blocks += ro.reports[e].fetched_blocks;
            reports[e].direct_blocks += ro.reports[e].direct_blocks;
            reports[e].masked_tasks += ro.reports[e].masked_tasks;
            reports[e].skipped_flops += ro.reports[e].skipped_flops;
        }
        entries.push(EntryStats {
            index: e,
            label: entry_label(&entry.spec),
            flops: entry.spec.flops(),
            samples,
        });
    }
    BatchResult {
        outputs,
        reports,
        ws_grow_counts: rank_outs.iter().map(|ro| ro.ws_grow_count).collect(),
        stats: BatchStats::from_entries(entries, wall_s),
    }
}

/// The shared tuner state for one run, when the batch's default
/// options enable it (`SrummaOptions::with_tuner`). The climb starts
/// from the options' own depth.
fn make_tuner_cell(batch: &BatchSpec, nranks: usize) -> Option<TunerCell> {
    batch.opts.tuner.map(|cfg| {
        let flops: Vec<f64> = batch.entries.iter().map(|e| e.spec.flops()).collect();
        TunerCell::new(cfg, nranks, flops, batch.opts.effective_depth().max(1))
    })
}

fn empty_result() -> BatchResult {
    BatchResult {
        outputs: Vec::new(),
        reports: Vec::new(),
        ws_grow_counts: Vec::new(),
        stats: BatchStats::from_entries(Vec::new(), 0.0),
    }
}

/// Run the batch on real host threads (one thread per rank). The
/// correctness baseline for the executor path — the same in-place
/// distributions and the same per-entry loop.
pub fn multiply_batch(batch: &BatchSpec, nranks: usize) -> BatchResult {
    if batch.entries.is_empty() {
        return empty_result();
    }
    let tuner = make_tuner_cell(batch, nranks);
    run_in_place(batch, nranks, |plans| {
        let res = thread_run(nranks, |comm| {
            run_rank_blocking(comm, batch, plans, tuner.as_ref())
        });
        (res.outputs, res.wall_seconds, ())
    })
    .0
}

/// Run the batch under the virtual-time simulator (real data, modeled
/// time) — the third leg of the correctness matrix.
pub fn multiply_batch_sim(batch: &BatchSpec, machine: &Machine, nranks: usize) -> BatchResult {
    if batch.entries.is_empty() {
        return empty_result();
    }
    let opts = SimOptions::new(machine.clone(), nranks);
    let tuner = make_tuner_cell(batch, nranks);
    run_in_place(batch, nranks, |plans| {
        let res = sim_run(&opts, |comm| {
            run_rank_blocking(comm, batch, plans, tuner.as_ref())
        });
        (res.outputs, res.stats.makespan, ())
    })
    .0
}

/// Run the batch on the work-stealing executor: `nranks` logical ranks
/// on `workers` worker threads, **one** pool for the whole stream, and
/// no barrier or fence between entries — a rank moves on to its next
/// entry as soon as it has finished its part of the current one.
pub fn multiply_batch_exec(batch: &BatchSpec, nranks: usize, workers: usize) -> BatchResult {
    let tuner = make_tuner_cell(batch, nranks);
    multiply_batch_exec_inner(batch, nranks, workers, false, tuner.as_ref()).0
}

/// [`multiply_batch_exec`], additionally returning the online tuner's
/// per-entry trajectory (empty when the batch options leave the tuner
/// off). The numeric outputs are bitwise identical to
/// [`multiply_batch_exec`] with the tuner off — the tuned prefetch
/// depth changes fetch scheduling only.
pub fn multiply_batch_exec_tuned(
    batch: &BatchSpec,
    nranks: usize,
    workers: usize,
) -> (BatchResult, Vec<TunerStep>) {
    let tuner = make_tuner_cell(batch, nranks);
    let res = multiply_batch_exec_inner(batch, nranks, workers, false, tuner.as_ref()).0;
    (res, tuner.map(|t| t.steps()).unwrap_or_default())
}

/// [`multiply_batch_exec`] with wall-clock event tracing on: returns
/// the batch result plus the merged scheduler/kernel timeline and
/// executor statistics.
pub fn multiply_batch_traced(
    batch: &BatchSpec,
    nranks: usize,
    workers: usize,
) -> (BatchResult, TracedRun) {
    let tuner = make_tuner_cell(batch, nranks);
    let (res, traced) = multiply_batch_exec_inner(batch, nranks, workers, true, tuner.as_ref());
    (res, traced.expect("traced run requested"))
}

fn multiply_batch_exec_inner(
    batch: &BatchSpec,
    nranks: usize,
    workers: usize,
    trace: bool,
    tuner: Option<&TunerCell>,
) -> (BatchResult, Option<TracedRun>) {
    if batch.entries.is_empty() {
        return (empty_result(), None);
    }
    run_in_place(batch, nranks, |plans| {
        let res = exec_run_tasks(nranks, workers, trace, |comm| {
            Box::new(BatchRankTask::new(comm, batch, plans, tuner))
        });
        let traced = trace.then_some(TracedRun {
            stats: res.stats,
            trace: res.trace,
        });
        (res.outputs, res.wall_seconds, traced)
    })
}

/// Serial reference for every entry: `C_e = α·A_e·B_e + β·C0_e` (zeros
/// when `c0` is absent) — operands logical, exactly as the batch reads
/// them. Entries with block-sparsity masks multiply the **masked
/// copies** (masked blocks zeroed), enforcing the semantics that data
/// inside a masked block is ignored.
pub fn batch_serial_reference(batch: &BatchSpec) -> Vec<Matrix> {
    batch
        .entries
        .iter()
        .map(|e| {
            let mut c = match &e.c0 {
                Some(c0) => c0.clone(),
                None => Matrix::zeros(e.spec.m, e.spec.n),
            };
            c.as_mut().scale(e.spec.beta);
            if e.spec.k > 0 {
                let am = e.mask_a.as_ref().map(|m| m.masked_copy(&e.a));
                let bm = e.mask_b.as_ref().map(|m| m.masked_copy(&e.b));
                srumma_dense::dgemm(
                    Op::N,
                    Op::N,
                    e.spec.alpha,
                    am.as_ref().unwrap_or(&e.a).as_ref(),
                    bm.as_ref().unwrap_or(&e.b).as_ref(),
                    1.0,
                    c.as_mut(),
                );
            }
            c
        })
        .collect()
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// The debug access checker guards the blocks a batch adopts: a
    /// write under a live read of an entry's output block is caught.
    #[test]
    #[should_panic(expected = "discipline violation")]
    fn checker_catches_a_write_under_read_on_an_adopted_batch_block() {
        let mut batch = BatchSpec::new();
        let spec = GemmSpec::new(Op::T, Op::N, 6, 5, 4);
        batch.push(BatchEntry::new(
            spec,
            Matrix::random(6, 4, 1),
            Matrix::random(4, 5, 2),
        ));
        run_in_place(&batch, 2, |plans| {
            let dc = &plans[0].dc;
            let _read = dc.read_block(1);
            dc.scale_block(1, 0.0);
            (Vec::new(), 0.0, ())
        });
    }
}
