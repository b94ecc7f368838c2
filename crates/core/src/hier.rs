//! Hierarchical SRUMMA: two-level node-group decomposition.
//!
//! Flat SRUMMA lets every rank fetch every remote panel it needs, so on
//! a cluster of `w`-way SMP nodes the same A panel crosses the network
//! up to `w` times — once per groupmate sharing the grid row. The
//! hierarchical schedule partitions the ranks into **node groups** (the
//! SMP domains of the run [`Topology`]) and splits each multiply into
//! two levels:
//!
//! 1. **staging** — for every off-node panel demanded by *two or more*
//!    members of a group, one member (the *elected fetcher*, chosen by
//!    the fixed rule [`elected_fetcher`]) gets the panel over the
//!    network once and lands it in the group's staging matrix; a fence
//!    plus one barrier makes the staged panels visible group-wide;
//! 2. **compute** — the ordinary SRUMMA task loop runs unchanged,
//!    except that fetches of staged panels are redirected to the
//!    staging matrix (see [`SrummaMachine::with_hier`]); the staging
//!    matrices carry [`CostMap::Staged`], whose `cost_rank` is the
//!    *same* election formula, so the redirected gets price and
//!    classify as intra-node copies.
//!
//! Panels demanded by only one member are **not** staged — staging them
//! would add an intra-node hop without saving any network traffic — so
//! a degenerate group (one rank per node, or one node spanning the
//! whole machine) makes the hierarchical schedule collapse to flat
//! SRUMMA exactly.
//!
//! With row-major grids and block node placement (the launcher
//! convention throughout this repo), a node's `w ≤ q` ranks share a
//! grid row: every off-node A panel is shared `w` ways (staged — its
//! network traffic divides by `w`) while B panels are private (left
//! flat), so total inter-node bytes strictly decrease whenever any
//! off-node A traffic exists. Wider nodes (`w > q`) additionally share
//! B panels across rows and stage those too.

use crate::layout::{dist_a, dist_b};
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{SrummaMachine, SrummaReport};
use srumma_comm::{Comm, CostMap, DistMatrix, ExecComm, RankTask, Step};
use srumma_model::{ProcGrid, Topology};

/// Members of `members` (a contiguous global-rank range) whose C-grid
/// row is `row` — the demand multiplicity of an A panel stored in that
/// grid row. O(1): a contiguous rank range meets a grid row (also a
/// contiguous range) in an interval.
pub fn members_in_row(grid: ProcGrid, members: std::ops::Range<usize>, row: usize) -> usize {
    let lo = members.start.max(row * grid.q);
    let hi = members.end.min((row + 1) * grid.q);
    hi.saturating_sub(lo)
}

/// Members of `members` whose C-grid column is `col` — the demand
/// multiplicity of a B panel stored in that grid column. O(1): counts
/// ranks `≡ col (mod q)` in the range.
pub fn members_in_col(grid: ProcGrid, members: std::ops::Range<usize>, col: usize) -> usize {
    debug_assert!(col < grid.q);
    let count = |n: usize| (n + grid.q - 1 - col) / grid.q;
    count(members.end) - count(members.start)
}

/// The member of `node`'s group elected to fetch `slot`'s panel. This
/// **must** equal [`CostMap::Staged`]`::cost_rank(slot)` — the staging
/// pass and the backends' cost classification share this one rule.
pub fn elected_fetcher(topo: Topology, node: usize, slot: usize) -> usize {
    let members = topo.ranks_on_node(node);
    members.start + slot % members.len()
}

/// The staging duties of global rank `me`: the off-node A and B slots
/// it was elected to fetch whose panels are demanded by at least two of
/// its groupmates. Returned as `(a_slots, b_slots)`.
///
/// `base` is the first global rank of the slot window (`0` for a flat
/// machine-wide run; a replica team's base when the hierarchy runs
/// inside a [`crate::repl`] team): slot `s` is owned by global rank
/// `base + s`, and grid coordinates are window-local. Node groups must
/// not straddle the window boundary (`base` and the window size are
/// multiples of the node width — guaranteed by replication
/// admissibility).
pub fn staging_duties(
    grid: ProcGrid,
    topo: Topology,
    me: usize,
    base: usize,
) -> (Vec<usize>, Vec<usize>) {
    let members = topo.ranks_on_node(topo.node_of(me));
    let w = members.len();
    // Window-local view of my node group, for grid arithmetic.
    let local = (members.start - base)..(members.end - base);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    // Elected slots are exactly `me − members.start (mod w)`.
    let mut slot = me - members.start;
    while slot < grid.nranks() {
        if !topo.same_domain(me, base + slot) {
            if members_in_row(grid, local.clone(), slot / grid.q) >= 2 {
                a.push(slot);
            }
            if members_in_col(grid, local.clone(), slot % grid.q) >= 2 {
                b.push(slot);
            }
        }
        slot += w;
    }
    (a, b)
}

/// One rank's view of its group's staging matrices, attached to a
/// [`SrummaMachine`] via [`SrummaMachine::with_hier`]. The redirect
/// predicate must match [`staging_duties`] exactly: off-node owner,
/// demanded by ≥ 2 group members.
#[derive(Clone, Copy)]
pub struct HierStages<'a> {
    /// My group's staging copy of A ([`CostMap::Staged`]).
    pub sa: &'a DistMatrix,
    /// My group's staging copy of B.
    pub sb: &'a DistMatrix,
    /// The run topology (groups = SMP domains), in global ranks.
    pub topo: Topology,
    /// The C process grid (slot → window-local grid coordinates).
    pub grid: ProcGrid,
    /// This rank's global id.
    pub me: usize,
    /// First global rank of the slot window (see [`staging_duties`]).
    pub base: usize,
}

impl<'a> HierStages<'a> {
    /// My node group as window-local ranks, for grid arithmetic.
    fn members(&self) -> std::ops::Range<usize> {
        let m = self.topo.ranks_on_node(self.topo.node_of(self.me));
        (m.start - self.base)..(m.end - self.base)
    }

    /// Whether an A fetch of slot `owner` is served by the staging
    /// matrix.
    pub fn redirect_a(&self, owner: usize) -> bool {
        !self.topo.same_domain(self.me, self.base + owner)
            && members_in_row(self.grid, self.members(), owner / self.grid.q) >= 2
    }

    /// Whether a B fetch of slot `owner` is served by the staging
    /// matrix.
    pub fn redirect_b(&self, owner: usize) -> bool {
        !self.topo.same_domain(self.me, self.base + owner)
            && members_in_col(self.grid, self.members(), owner % self.grid.q) >= 2
    }

    /// The matrix an A fetch of `owner`'s panel should read.
    pub fn a_mat(&self, flat: &'a DistMatrix, owner: usize) -> &'a DistMatrix {
        if self.redirect_a(owner) {
            self.sa
        } else {
            flat
        }
    }

    /// The matrix a B fetch of `owner`'s panel should read.
    pub fn b_mat(&self, flat: &'a DistMatrix, owner: usize) -> &'a DistMatrix {
        if self.redirect_b(owner) {
            self.sb
        } else {
            flat
        }
    }
}

/// The per-group staging matrices for one multiply: one A + B pair per
/// node, shaped exactly like the operands (same grid, dims, placement
/// order and backing kind) and carrying [`CostMap::Staged`] so every
/// backend prices reads of slot `s` against the elected fetcher.
/// Created collectively before launching rank code, like the operands.
pub struct HierStageSet {
    topo: Topology,
    base: usize,
    window: usize,
    first_node: usize,
    sa: Vec<DistMatrix>,
    sb: Vec<DistMatrix>,
}

impl HierStageSet {
    /// Staging matrices for every group of `topo`. `real` must match
    /// the operands' backing (virtual stages carry timing only).
    pub fn create(spec: &GemmSpec, grid: ProcGrid, topo: Topology, real: bool) -> Self {
        Self::create_window(spec, grid, topo, 0, real)
    }

    /// Staging matrices for the groups inside the rank window
    /// `[base, base + grid.nranks())` of `topo` — the window a replica
    /// team occupies. The window must cover whole node groups.
    pub fn create_window(
        spec: &GemmSpec,
        grid: ProcGrid,
        topo: Topology,
        base: usize,
        real: bool,
    ) -> Self {
        let window = grid.nranks();
        let w = topo.ranks_per_node();
        assert!(
            base.is_multiple_of(w) && window.is_multiple_of(w),
            "window [{base}, {}) must cover whole node groups of width {w}",
            base + window
        );
        let first_node = topo.node_of(base);
        let nodes = window / w;
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for node in first_node..first_node + nodes {
            let mut a = dist_a(spec, grid, real);
            a.set_cost_map(CostMap::Staged { topo, node });
            let mut b = dist_b(spec, grid, real);
            b.set_cost_map(CostMap::Staged { topo, node });
            sa.push(a);
            sb.push(b);
        }
        HierStageSet {
            topo,
            base,
            window,
            first_node,
            sa,
            sb,
        }
    }

    /// The run topology the set was built for.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// First global rank of the window.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Global rank `rank`'s group's `(stage_a, stage_b)` pair.
    pub fn stages_for(&self, rank: usize) -> (&DistMatrix, &DistMatrix) {
        let g = self.topo.node_of(rank) - self.first_node;
        (&self.sa[g], &self.sb[g])
    }
}

/// Per-rank summary of a hierarchical multiply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierReport {
    /// The compute phase's ordinary SRUMMA report.
    pub report: SrummaReport,
    /// Panels this rank fetched over the network on its group's behalf.
    pub staged_panels: usize,
}

/// Run this rank's staging duties: overlap the elected network gets,
/// land each panel in the group's staging matrix, and fence so the puts
/// are complete at their targets. The caller must still barrier before
/// any groupmate reads the staged panels.
#[allow(clippy::too_many_arguments)]
fn stage_panels<C: Comm>(
    comm: &mut C,
    a: &DistMatrix,
    b: &DistMatrix,
    sa: &DistMatrix,
    sb: &DistMatrix,
    grid: ProcGrid,
    topo: Topology,
    base: usize,
) -> usize {
    let me = base + comm.rank();
    let (da, db) = staging_duties(grid, topo, me, base);
    let duties: Vec<(&DistMatrix, &DistMatrix, usize)> = da
        .iter()
        .map(|&s| (a, sa, s))
        .chain(db.iter().map(|&s| (b, sb, s)))
        .collect();
    // Issue every elected get before waiting on any: the network
    // transfers overlap (this is the fetcher's own prefetch pipeline).
    let mut bufs: Vec<Vec<f64>> = vec![Vec::new(); duties.len()];
    let handles: Vec<_> = duties
        .iter()
        .zip(&mut bufs)
        .map(|(&(src, _, slot), buf)| comm.nbget(src, slot, buf))
        .collect();
    for (h, (&(_, stage, slot), buf)) in handles.into_iter().zip(duties.iter().zip(&bufs)) {
        comm.wait(h);
        comm.put(stage, slot, buf);
    }
    comm.fence();
    duties.len()
}

/// Run hierarchical SRUMMA: `C ← α·op(A)·op(B) + β·C` on this rank's C
/// block, staging shared off-node panels through the group's staging
/// matrices first. All ranks must call this collectively with the same
/// arguments; `stages` must have been created for the communicator's
/// topology.
pub fn srumma_hier<C: Comm>(
    comm: &mut C,
    spec: &GemmSpec,
    a: &DistMatrix,
    b: &DistMatrix,
    c: &DistMatrix,
    opts: &SrummaOptions,
    stages: &HierStageSet,
) -> HierReport {
    let topo = stages.topo;
    let base = stages.base;
    assert_eq!(
        comm.nranks(),
        stages.window,
        "stage set was built for a different rank window"
    );
    let me = base + comm.rank();
    let grid = c.grid();
    let (sa, sb) = stages.stages_for(me);
    let staged_panels = stage_panels(comm, a, b, sa, sb, grid, topo, base);
    comm.barrier();
    let opts = opts.clamp_gemm_to(spec.m, spec.k, spec.n);
    let mut machine = SrummaMachine::new(comm, spec, a, b, c, &opts).with_hier(HierStages {
        sa,
        sb,
        topo,
        grid,
        me,
        base,
    });
    while machine.step(comm) {}
    let report = machine.finish();
    comm.barrier();
    HierReport {
        report,
        staged_panels,
    }
}

/// One hierarchical SRUMMA rank as a schedulable state machine for the
/// work-stealing executor: staging runs on the first poll, the staging
/// barrier and the closing barrier are park points, and the compute
/// phase is polled [`HierRankTask::STRIDE`] tasks at a time — the same
/// shape as [`crate::srumma::SrummaRankTask`] with a staging prologue.
pub struct HierRankTask<'a> {
    comm: ExecComm,
    spec: &'a GemmSpec,
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    c: &'a DistMatrix,
    opts: SrummaOptions,
    stages: &'a HierStageSet,
    machine: Option<SrummaMachine<'a>>,
    staged_panels: usize,
    report: Option<SrummaReport>,
    phase: Phase,
}

#[derive(PartialEq, Eq)]
enum Phase {
    Stage,
    StageBarrier,
    Compute,
    CloseBarrier,
}

impl<'a> HierRankTask<'a> {
    /// Compute-phase tasks per poll (see
    /// [`crate::srumma::SrummaRankTask::STRIDE`]).
    const STRIDE: usize = 8;

    /// Wrap one rank's hierarchical multiply. All work (including
    /// staging) is deferred to the first `step`, so it runs on a
    /// worker.
    pub fn new(
        comm: ExecComm,
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
        opts: &SrummaOptions,
        stages: &'a HierStageSet,
    ) -> Self {
        HierRankTask {
            comm,
            spec,
            a,
            b,
            c,
            opts: opts.clamp_gemm_to(spec.m, spec.k, spec.n),
            stages,
            machine: None,
            staged_panels: 0,
            report: None,
            phase: Phase::Stage,
        }
    }
}

impl RankTask for HierRankTask<'_> {
    type Out = HierReport;

    fn step(&mut self) -> Step<HierReport> {
        if self.phase == Phase::Stage {
            let me = self.stages.base + self.comm.rank();
            let (sa, sb) = self.stages.stages_for(me);
            self.staged_panels = stage_panels(
                &mut self.comm,
                self.a,
                self.b,
                sa,
                sb,
                self.c.grid(),
                self.stages.topo,
                self.stages.base,
            );
            self.phase = Phase::StageBarrier;
        }
        if self.phase == Phase::StageBarrier {
            if !self.comm.barrier_try() {
                return Step::Park;
            }
            self.phase = Phase::Compute;
        }
        if self.phase == Phase::Compute {
            let machine = self.machine.get_or_insert_with(|| {
                let me = self.stages.base + self.comm.rank();
                let (sa, sb) = self.stages.stages_for(me);
                let grid = self.c.grid();
                SrummaMachine::new(
                    &mut self.comm,
                    self.spec,
                    self.a,
                    self.b,
                    self.c,
                    &self.opts,
                )
                .with_hier(HierStages {
                    sa,
                    sb,
                    topo: self.stages.topo,
                    grid,
                    me,
                    base: self.stages.base,
                })
            });
            let mut more = machine.has_work();
            for _ in 0..Self::STRIDE {
                if !more {
                    break;
                }
                more = machine.step(&mut self.comm);
            }
            if more {
                return Step::Yield;
            }
            // Release the C write guard before arriving at the barrier.
            self.report = Some(self.machine.take().expect("machine exists here").finish());
            self.phase = Phase::CloseBarrier;
        }
        if self.comm.barrier_try() {
            Step::Done(HierReport {
                report: self.report.take().expect("report set above"),
                staged_panels: self.staged_panels,
            })
        } else {
            Step::Park
        }
    }

    fn take_trace(&mut self) -> (Vec<srumma_trace::TraceEvent>, srumma_trace::Counters) {
        self.comm.recorder().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;
    use crate::driver::serial_reference;
    use crate::layout::{dist_c, scatter_operands};
    use crate::request::{Backend, Multiply};
    use crate::srumma::srumma;
    use srumma_comm::thread_run_with_topology;
    use srumma_dense::{max_abs_diff, Matrix};
    use srumma_model::Machine;

    fn threads(rpn: usize) -> Backend<'static> {
        Backend::Threads {
            ranks_per_node: Some(rpn),
        }
    }

    /// The election rule and `CostMap::Staged::cost_rank` are the same
    /// formula — if they diverge, costs lie about where staged data
    /// lives.
    #[test]
    fn election_matches_staged_cost_map() {
        for (nranks, rpn) in [(12, 3), (16, 4), (10, 4), (8, 1), (6, 6)] {
            let topo = Topology::new(nranks, rpn);
            for node in 0..topo.nnodes() {
                let cm = CostMap::Staged { topo, node };
                for slot in 0..nranks {
                    assert_eq!(
                        elected_fetcher(topo, node, slot),
                        cm.cost_rank(slot),
                        "nranks={nranks} rpn={rpn} node={node} slot={slot}"
                    );
                }
            }
        }
    }

    /// Every redirected fetch must have been staged by exactly its
    /// elected fetcher: the machine-side predicate and the staging-side
    /// duty list agree slot for slot.
    #[test]
    fn staging_covers_every_redirected_slot() {
        for (nranks, rpn) in [(16, 4), (12, 2), (12, 6), (24, 8), (9, 3)] {
            let topo = Topology::new(nranks, rpn);
            let grid = ProcGrid::near_square(nranks);
            let spec = GemmSpec::square(32);
            let stages = HierStageSet::create(&spec, grid, topo, false);
            for me in 0..nranks {
                let (sa, sb) = stages.stages_for(me);
                let h = HierStages {
                    sa,
                    sb,
                    topo,
                    grid,
                    me,
                    base: 0,
                };
                let g = topo.node_of(me);
                let members = topo.ranks_on_node(g);
                // Collect the group's duties once.
                let mut staged_a = vec![false; nranks];
                let mut staged_b = vec![false; nranks];
                for r in members.clone() {
                    let (da, db) = staging_duties(grid, topo, r, 0);
                    for s in da {
                        assert_eq!(elected_fetcher(topo, g, s), r, "A slot {s} duty holder");
                        assert!(!staged_a[s], "A slot {s} staged twice");
                        staged_a[s] = true;
                    }
                    for s in db {
                        assert_eq!(elected_fetcher(topo, g, s), r, "B slot {s} duty holder");
                        assert!(!staged_b[s], "B slot {s} staged twice");
                        staged_b[s] = true;
                    }
                }
                for slot in 0..nranks {
                    assert_eq!(
                        h.redirect_a(slot),
                        staged_a[slot],
                        "rank {me} A slot {slot} (nranks={nranks} rpn={rpn})"
                    );
                    assert_eq!(
                        h.redirect_b(slot),
                        staged_b[slot],
                        "rank {me} B slot {slot} (nranks={nranks} rpn={rpn})"
                    );
                }
            }
        }
    }

    /// Degenerate groups stage nothing: one rank per node shares no
    /// panels, and one machine-wide node has no off-node panels.
    #[test]
    fn degenerate_groups_have_no_duties() {
        let grid = ProcGrid::near_square(8);
        for topo in [Topology::flat(8), Topology::single_domain(8)] {
            for me in 0..8 {
                let (a, b) = staging_duties(grid, topo, me, 0);
                assert!(a.is_empty() && b.is_empty(), "{topo:?} rank {me}");
            }
        }
    }

    /// A flat run under the **same topology** (same SMP-first task
    /// order, hence same summation order) as a bitwise baseline for
    /// the hierarchical run: staging changes only the data path, never
    /// the values or the dgemm sequence.
    fn flat_threads_with_topology(
        nranks: usize,
        topo: Topology,
        opts: &SrummaOptions,
        spec: &GemmSpec,
        a: &Matrix,
        b: &Matrix,
    ) -> Matrix {
        let grid = crate::driver::default_grid(nranks);
        let da = dist_a(spec, grid, true);
        let db = dist_b(spec, grid, true);
        let dc = dist_c(spec, grid, true);
        scatter_operands(spec, &da, &db, a, b);
        thread_run_with_topology(nranks, topo, |comm| {
            srumma(comm, spec, &da, &db, &dc, opts);
        });
        dc.gather()
    }

    /// The hierarchical thread run computes exactly the same-topology
    /// flat result bitwise, and the true product within tolerance —
    /// across sharing widths including both degenerate ones.
    #[test]
    fn hier_threads_matches_flat_bitwise() {
        let spec = GemmSpec::new(srumma_dense::Op::N, srumma_dense::Op::T, 24, 20, 28)
            .with_scalars(1.5, 0.0);
        let a = Matrix::random(spec.m, spec.k, 41);
        let b = Matrix::random(spec.k, spec.n, 42);
        // serial_reference returns plain A·B; C starts zero, so the
        // expected result is alpha·A·B.
        let mut want = serial_reference(&spec, &a, &b);
        for i in 0..spec.m {
            for j in 0..spec.n {
                want[(i, j)] *= spec.alpha;
            }
        }
        let opts = SrummaOptions::default();
        for rpn in [1, 2, 4, 8] {
            let topo = Topology::new(8, rpn);
            let flat = flat_threads_with_topology(8, topo, &opts, &spec, &a, &b);
            let hier = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
                .hier()
                .run(8, &threads(rpn))
                .unwrap()
                .c
                .unwrap();
            assert_eq!(
                max_abs_diff(&hier, &flat),
                0.0,
                "rpn={rpn} must match same-topology flat bitwise"
            );
            assert!(max_abs_diff(&hier, &want) < 1e-10, "rpn={rpn} vs serial");
        }
    }

    /// Executor backend: same bitwise agreement, with oversubscribed
    /// workers so staging, barriers and compute interleave arbitrarily.
    #[test]
    fn hier_exec_matches_flat_bitwise() {
        let spec = GemmSpec::square(24);
        let a = Matrix::random(24, 24, 43);
        let b = Matrix::random(24, 24, 44);
        let opts = SrummaOptions::default();
        // Nodes of 2 on the 2x4 grid: each node is half a grid row, so
        // the row's other half is off-node A demand shared by both
        // members — real staging work.
        let flat = flat_threads_with_topology(8, Topology::new(8, 2), &opts, &spec, &a, &b);
        let res = Multiply::new(Algorithm::Srumma(opts), spec, &a, &b)
            .hier()
            .run(
                8,
                &Backend::Exec {
                    workers: 2,
                    ranks_per_node: Some(2),
                },
            )
            .unwrap();
        assert_eq!(max_abs_diff(res.c.as_ref().unwrap(), &flat), 0.0);
        assert!(res.staged_panels.iter().any(|&s| s > 0));
    }

    /// Simulator backend: the numeric result is right *and* the staged
    /// schedule moves strictly fewer bytes across the network.
    #[test]
    fn hier_sim_reduces_internode_bytes() {
        // Nodes of 2 on the 4x4 grid: each node is half a grid row —
        // the other half's A panels are off-node and shared by both
        // members. (Nodes of 4 would tile whole rows, leaving no shared
        // off-node demand at all.)
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(2);
            m
        };
        let spec = GemmSpec::square(32);
        let a = Matrix::random(32, 32, 45);
        let b = Matrix::random(32, 32, 46);
        let want = serial_reference(&spec, &a, &b);
        let request = Multiply::new(Algorithm::srumma_default(), spec, &a, &b);
        let flat = request.run(16, &Backend::Sim(&machine)).unwrap();
        let hier = request
            .clone()
            .hier()
            .run(16, &Backend::Sim(&machine))
            .unwrap();
        let (flat_c, hier_c) = (flat.c.unwrap(), hier.c.unwrap());
        let hier_stats = hier.stats;
        assert!(max_abs_diff(&flat_c, &want) < 1e-10);
        assert_eq!(max_abs_diff(&hier_c, &flat_c), 0.0);
        let flat_net = flat.stats.total_internode_bytes();
        let hier_net = hier_stats.total_internode_bytes();
        assert!(flat_net > 0, "flat cluster run must cross the network");
        assert!(
            hier_net < flat_net,
            "staging must reduce inter-node bytes: hier {hier_net} vs flat {flat_net}"
        );
        assert!(
            hier_stats.total_intragroup_bytes() > 0,
            "staged reads must classify as intra-group"
        );
    }

    /// Virtual-clock backend at a rank count the discrete-event
    /// simulator would struggle with: the inter-node reduction holds
    /// and both runs produce consistent BSP-recombined stats.
    #[test]
    fn hier_virtual_reduces_internode_bytes_at_scale() {
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(8);
            m
        };
        let spec = GemmSpec::square(1024);
        let virt = Backend::Virtual {
            machine: &machine,
            workers: 4,
        };
        let request = Multiply::modeled(Algorithm::srumma_default(), spec);
        let flat = request.run(256, &virt).unwrap().stats;
        let hier = request.clone().hier().run(256, &virt).unwrap().stats;
        assert!(flat.total_internode_bytes() > 0);
        assert!(
            hier.total_internode_bytes() < flat.total_internode_bytes(),
            "hier {} vs flat {}",
            hier.total_internode_bytes(),
            flat.total_internode_bytes()
        );
        assert!(hier.makespan > 0.0 && flat.makespan > 0.0);
    }
}
