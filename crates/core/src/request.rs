//! One multiply request for every backend and feature.
//!
//! The paper offers one call, `ga_dgemm`, and SRUMMA's flavours are
//! options of that call. [`Multiply`] is that call here: it names the
//! algorithm, the problem, the operands (or none, for a shape-only
//! modeled run) and the features — block-sparse masks, a fault plan,
//! hierarchical staging, c-fold replication and event tracing — and
//! [`Multiply::run`] executes it on one [`Backend`].
//!
//! `run` is the only place that validates a request, builds the
//! distributions (flat ones plus masks, or a [`ReplSet`], plus a
//! [`HierStageSet`] when staging), picks the rank body and runner, and
//! hands back C.
//!
//! On the host backends a flat run copies nothing: its distributions
//! adopt the caller's A and B and a freshly allocated C
//! ([`DistMatrix::adopt`]), every rank reads A and B in place and writes
//! its C block straight into the returned matrix. The simulator and
//! replicated runs keep private arenas, scattered from the operands and
//! gathered at the end; [`Output::staged_bytes`] reports that copy.
//!
//! Not every backend × feature combination has a driver: [`SUPPORTED`]
//! lists those that do, and every other one returns
//! [`PlanError::Unsupported`]. Invalid input returns its own
//! [`PlanError`] variant instead of panicking.

use crate::api::{parallel_gemm, Algorithm};
use crate::chaos::{ChaosRecovery, ChaosSrummaRankTask};
use crate::driver::{default_grid, SparseMasks};
use crate::hier::{srumma_hier, HierRankTask, HierStageSet};
use crate::layout::{check_operands, dist_a, dist_b, dist_c, scatter_operands};
use crate::options::{GemmSpec, ReplicationFactor, SrummaOptions};
use crate::repl::{resolve_factor, srumma_replicated, ReplSet};
use crate::srumma::{SrummaRankTask, SrummaReport};
use srumma_comm::{
    exec_run, exec_run_tasks, exec_run_tasks_with_topology, exec_run_traced,
    exec_run_with_topology, sim_run, thread_run, thread_run_traced, thread_run_with_topology,
    virtual_run, ChaosComm, Comm, DistMatrix, ExecComm, ExecRunResult, FaultPlan, FaultPlanError,
    SimOptions, ThreadComm,
};
use srumma_dense::{Matrix, Op};
use srumma_model::{Machine, Topology};
use srumma_sim::RunStats;
use srumma_trace::TraceEvent;
use std::fmt;
use std::ptr::NonNull;
use std::time::Instant;

/// Where a [`Multiply`] runs.
#[derive(Clone, Copy, Debug)]
pub enum Backend<'m> {
    /// The discrete-event simulator of `machine`, in virtual time.
    Sim(&'m Machine),
    /// The per-rank virtual-clock backend (shape-only, at up to 64k
    /// ranks): LogGP clocks multiplexed onto `workers` host threads.
    Virtual {
        machine: &'m Machine,
        workers: usize,
    },
    /// One OS thread per rank. `ranks_per_node` emulates a cluster of
    /// that many ranks per node for hierarchical and replicated runs;
    /// `None` is one shared-memory domain.
    Threads { ranks_per_node: Option<usize> },
    /// Ranks multiplexed onto `workers` work-stealing threads (`0` =
    /// auto); `ranks_per_node` as for [`Backend::Threads`].
    Exec {
        workers: usize,
        ranks_per_node: Option<usize>,
    },
}

impl Backend<'_> {
    /// Threads on one shared-memory domain.
    pub fn threads() -> Backend<'static> {
        Backend::Threads {
            ranks_per_node: None,
        }
    }

    /// The executor on one shared-memory domain.
    pub fn exec(workers: usize) -> Backend<'static> {
        Backend::Exec {
            workers,
            ranks_per_node: None,
        }
    }

    /// The backend's name in [`SUPPORTED`] and in errors.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sim(_) => "sim",
            Backend::Virtual { .. } => "virtual",
            Backend::Threads { .. } => "threads",
            Backend::Exec { .. } => "exec",
        }
    }
}

/// Which operands a supported combination accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operands {
    /// Real matrices only.
    Real,
    /// Shape-only (modeled) runs only.
    ShapeOnly,
    /// Either.
    Either,
}

/// Every backend × feature combination that has a driver, as
/// `(`[`Backend::name`]`, `[`Multiply::features`]`, operands, any
/// algorithm)`; rows whose last field is `false` run SRUMMA only.
pub const SUPPORTED: &[(&str, &str, Operands, bool)] = &[
    ("sim", "plain", Operands::Either, true),
    ("sim", "traced", Operands::ShapeOnly, true),
    ("sim", "chaos", Operands::Either, true),
    ("sim", "sparse", Operands::Real, false),
    ("sim", "sparse+chaos", Operands::Real, false),
    ("sim", "hier", Operands::Real, false),
    ("sim", "replicated", Operands::Real, false),
    ("virtual", "plain", Operands::ShapeOnly, false),
    ("virtual", "hier", Operands::ShapeOnly, false),
    ("virtual", "replicated", Operands::ShapeOnly, false),
    ("virtual", "hier+replicated", Operands::ShapeOnly, false),
    ("threads", "plain", Operands::Real, true),
    ("threads", "traced", Operands::Real, true),
    ("threads", "chaos", Operands::Real, false),
    ("threads", "sparse", Operands::Real, false),
    ("threads", "hier", Operands::Real, false),
    ("threads", "replicated", Operands::Real, false),
    ("threads", "hier+replicated", Operands::Real, false),
    ("exec", "plain", Operands::Real, true),
    ("exec", "traced", Operands::Real, true),
    ("exec", "chaos", Operands::Real, false),
    ("exec", "sparse", Operands::Real, false),
    ("exec", "hier", Operands::Real, false),
    ("exec", "replicated", Operands::Real, false),
];

/// Why a [`Multiply`] cannot run.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// A run needs at least one rank.
    NoRanks,
    /// `A` is not `m × k` or `B` is not `k × n`.
    OperandShape {
        operand: char,
        got: (usize, usize),
        want: (usize, usize),
    },
    /// The fault plan does not fit the run.
    Faults(FaultPlanError),
    /// Rank death needs the executor's re-execution machinery.
    DeathUnsupported { backend: &'static str },
    /// `ReplicationFactor::Fixed(factor)` is inadmissible
    /// ([`crate::repl::admissible_factor`]).
    InadmissibleFactor { factor: usize, nranks: usize },
    /// `ranks_per_node` is zero or does not divide the rank count.
    RanksPerNode {
        ranks_per_node: usize,
        nranks: usize,
    },
    /// The features run on SRUMMA only.
    NeedsSrumma {
        algorithm: &'static str,
        features: String,
    },
    /// The virtual backend models shapes only.
    RealOperandsOnVirtual,
    /// The host backends multiply real data.
    ShapeOnlyOnHost { backend: &'static str },
    /// The algorithm multiplies untransposed operands only.
    Transposed { algorithm: &'static str },
    /// No driver for this backend × feature combination.
    Unsupported {
        backend: &'static str,
        features: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoRanks => write!(f, "a run needs at least one rank"),
            PlanError::OperandShape { operand, got, want } => {
                let dims = if *operand == 'A' { "m x k" } else { "k x n" };
                write!(
                    f,
                    "{operand} must be {dims}: got {}x{}, spec wants {}x{}",
                    got.0, got.1, want.0, want.1
                )
            }
            PlanError::Faults(e) => e.fmt(f),
            PlanError::DeathUnsupported { backend } => write!(
                f,
                "the {backend} backend applies stragglers and spikes only; rank death \
                 needs the executor's re-execution machinery"
            ),
            PlanError::InadmissibleFactor { factor, nranks } => {
                write!(
                    f,
                    "replication factor {factor} inadmissible for {nranks} ranks"
                )
            }
            PlanError::RanksPerNode {
                ranks_per_node,
                nranks,
            } => write!(
                f,
                "{ranks_per_node} ranks per node do not tile {nranks} ranks"
            ),
            PlanError::NeedsSrumma {
                algorithm,
                features,
            } => write!(f, "{features} runs on SRUMMA only, not {algorithm}"),
            PlanError::RealOperandsOnVirtual => {
                write!(f, "the virtual backend models shapes only")
            }
            PlanError::ShapeOnlyOnHost { backend } => {
                write!(f, "the {backend} backend needs real operands")
            }
            PlanError::Transposed { algorithm } => {
                write!(f, "{algorithm} supports C = A*B only")
            }
            PlanError::Unsupported { backend, features } => {
                write!(f, "the {backend} backend has no {features} driver")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A finished multiply.
#[derive(Debug)]
pub struct Output {
    /// The product (`None` for shape-only runs).
    pub c: Option<Matrix>,
    /// Per-rank and aggregate metrics (modeled seconds on `Sim` and
    /// `Virtual`, wall-clock seconds on the host backends).
    pub stats: RunStats,
    /// Host seconds of the parallel section.
    pub wall_seconds: f64,
    /// The merged event timeline (empty unless traced).
    pub trace: Vec<TraceEvent>,
    /// Per-rank SRUMMA reports (team-local on replicated runs; empty
    /// for SUMMA and Cannon). A dead rank's report is partial.
    pub reports: Vec<SrummaReport>,
    /// Per-rank panels fetched on the node group's behalf (zero unless
    /// hierarchical).
    pub staged_panels: Vec<usize>,
    /// The resolved replication factor (1 for unreplicated runs).
    pub replication: usize,
    /// Bytes the driver copied into or out of private arenas: the
    /// operand scatter plus the C gather of simulator and replicated
    /// runs with real operands. Zero on flat host runs, which multiply
    /// the caller's matrices in place, and on shape-only runs.
    pub staged_bytes: u64,
}

/// One multiply: `C ← α·op(A)·op(B)` on C starting at zero.
#[derive(Clone, Debug)]
pub struct Multiply<'a> {
    /// The algorithm.
    pub alg: Algorithm,
    /// Shape, transposes and scalars.
    pub spec: GemmSpec,
    /// The logical `m × k` and `k × n` operands; `None` models the run
    /// on shapes only.
    pub operands: Option<(&'a Matrix, &'a Matrix)>,
    /// Block-sparsity masks (dense by default).
    pub masks: SparseMasks,
    /// Injected stragglers, spikes and rank death.
    pub faults: Option<FaultPlan>,
    /// Stage shared off-node panels through node groups
    /// ([`crate::hier`]).
    pub hier: bool,
    /// c-fold replication ([`crate::repl`]); `One` runs unreplicated.
    pub replication: ReplicationFactor,
    /// Record the event timeline.
    pub trace: bool,
}

impl<'a> Multiply<'a> {
    /// A multiply of real operands.
    pub fn new(alg: Algorithm, spec: GemmSpec, a: &'a Matrix, b: &'a Matrix) -> Self {
        Multiply {
            operands: Some((a, b)),
            ..Self::modeled(alg, spec)
        }
    }

    /// A shape-only (modeled) multiply.
    pub fn modeled(alg: Algorithm, spec: GemmSpec) -> Self {
        Multiply {
            alg,
            spec,
            operands: None,
            masks: SparseMasks::default(),
            faults: None,
            hier: false,
            replication: ReplicationFactor::One,
            trace: false,
        }
    }

    /// Prune the tasks of blocks `masks` flags zero.
    pub fn masks(mut self, masks: SparseMasks) -> Self {
        self.masks = masks;
        self
    }

    /// Inject `plan`'s faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Stage shared off-node panels through node groups.
    pub fn hier(mut self) -> Self {
        self.hier = true;
        self
    }

    /// Replicate `factor`-fold.
    pub fn replicated(mut self, factor: ReplicationFactor) -> Self {
        self.replication = factor;
        self
    }

    /// Record the event timeline.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The request's feature label, as in [`SUPPORTED`]: the features
    /// it uses joined by `+`, or `plain`.
    pub fn features(&self) -> String {
        let on = [
            (self.masks.a.is_some() || self.masks.b.is_some(), "sparse"),
            (self.faults.is_some(), "chaos"),
            (self.hier, "hier"),
            (self.replication != ReplicationFactor::One, "replicated"),
            (self.trace, "traced"),
        ];
        let names: Vec<&str> = on.iter().filter(|f| f.0).map(|f| f.1).collect();
        if names.is_empty() {
            "plain".into()
        } else {
            names.join("+")
        }
    }

    fn check(&self, nranks: usize, backend: &Backend) -> Result<(), PlanError> {
        if nranks == 0 {
            return Err(PlanError::NoRanks);
        }
        if let Some((a, b)) = self.operands {
            check_operands(&self.spec, a, b)?;
        }
        let (name, real) = (backend.name(), self.operands.is_some());
        let mut features = self.features();
        match *backend {
            Backend::Virtual { .. } if real => return Err(PlanError::RealOperandsOnVirtual),
            Backend::Threads { .. } | Backend::Exec { .. } if !real => {
                return Err(PlanError::ShapeOnlyOnHost { backend: name })
            }
            Backend::Threads {
                ranks_per_node: Some(rpn),
            }
            | Backend::Exec {
                ranks_per_node: Some(rpn),
                ..
            } => {
                if rpn == 0 || !nranks.is_multiple_of(rpn) {
                    return Err(PlanError::RanksPerNode {
                        ranks_per_node: rpn,
                        nranks,
                    });
                }
                if !self.hier && self.replication == ReplicationFactor::One {
                    features += " on emulated nodes";
                }
            }
            _ => {}
        }
        if let Some(plan) = &self.faults {
            plan.validate(nranks).map_err(PlanError::Faults)?;
            if plan.death.is_some() && matches!(backend, Backend::Sim(_) | Backend::Threads { .. })
            {
                return Err(PlanError::DeathUnsupported { backend: name });
            }
        }
        let fits = |o: Operands| o == Operands::Either || (o == Operands::Real) == real;
        match SUPPORTED
            .iter()
            .find(|r| r.0 == name && r.1 == features && fits(r.2))
        {
            None => Err(PlanError::Unsupported {
                backend: name,
                features,
            }),
            Some(r) if !r.3 && !matches!(self.alg, Algorithm::Srumma(_)) => {
                Err(PlanError::NeedsSrumma {
                    algorithm: self.alg.name(),
                    features,
                })
            }
            // Checked against the caller's spec: in-place host runs hand
            // the algorithm an untransposed one.
            Some(_)
                if matches!(self.alg, Algorithm::Cannon)
                    && (self.spec.transa, self.spec.transb) != (Op::N, Op::N) =>
            {
                Err(PlanError::Transposed {
                    algorithm: self.alg.name(),
                })
            }
            Some(_) => Ok(()),
        }
    }

    /// Run the multiply on `nranks` ranks of `backend`.
    pub fn run(&self, nranks: usize, backend: &Backend) -> Result<Output, PlanError> {
        self.check(nranks, backend)?;
        let host = matches!(backend, Backend::Threads { .. } | Backend::Exec { .. });
        // Flat host runs multiply the caller's matrices in place. Those
        // are the logical m x k and k x n operands, so the run stores
        // both untransposed whatever the caller's ops: dgemm packs the
        // same values either way, and C keeps every bit.
        let in_place = host && self.replication == ReplicationFactor::One;
        let run_spec = if in_place {
            GemmSpec {
                transa: Op::N,
                transb: Op::N,
                ..self.spec
            }
        } else {
            self.spec
        };
        let spec = &run_spec;
        // SRUMMA-only combinations read the options; the others never do.
        let opts = match self.alg {
            Algorithm::Srumma(o) => o,
            _ => SrummaOptions::default(),
        };
        let real = self.operands.is_some();
        let topo = match *backend {
            Backend::Sim(m) | Backend::Virtual { machine: m, .. } => m.topology(nranks),
            Backend::Threads { ranks_per_node } | Backend::Exec { ranks_per_node, .. } => {
                Topology::new(nranks, ranks_per_node.unwrap_or(nranks))
            }
        };
        // C of an in-place run; its distribution writes into it.
        let mut c_out = None;
        let (layout, stages) = if self.replication == ReplicationFactor::One {
            let grid = default_grid(nranks);
            let (mut a, mut b, c) = match self.operands {
                Some((am, bm)) if in_place => {
                    let (m, n, k) = (spec.m, spec.n, spec.k);
                    let a_base = NonNull::from(am.as_slice()).cast();
                    let b_base = NonNull::from(bm.as_slice()).cast();
                    let c_base = NonNull::from(c_out.insert(Matrix::zeros(m, n)).as_mut_slice());
                    // SAFETY: A and B are borrowed for all of `run`, so
                    // nothing writes them, and they are adopted read-only.
                    // C is owned by `run` and untouched until its
                    // distribution is dropped below, before `c_out` is
                    // handed back; no rank outlives the runner call.
                    unsafe {
                        (
                            DistMatrix::adopt(grid, m, k, a_base, false),
                            DistMatrix::adopt(grid, k, n, b_base, false),
                            DistMatrix::adopt(grid, m, n, c_base.cast(), true),
                        )
                    }
                }
                _ => {
                    let a = dist_a(spec, grid, real);
                    let b = dist_b(spec, grid, real);
                    if let Some((am, bm)) = self.operands {
                        scatter_operands(spec, &a, &b, am, bm);
                    }
                    (a, b, dist_c(spec, grid, real))
                }
            };
            self.masks.apply(spec, &mut a, &mut b);
            let stages = if self.hier {
                vec![HierStageSet::create(spec, grid, topo, real)]
            } else {
                Vec::new()
            };
            (Layout::Flat(Box::new(Dists { a, b, c })), stages)
        } else {
            let c = resolve_factor(self.replication, nranks, topo, spec, &opts)?;
            let set = ReplSet::create(spec, nranks, topo, c, real, self.operands);
            let stages = if self.hier {
                set.hier_stage_sets(topo, real)
            } else {
                Vec::new()
            };
            (Layout::Repl(set), stages)
        };
        let body = RankBody {
            alg: &self.alg,
            spec,
            opts: &opts,
            layout: &layout,
            stages: &stages,
            chaos: match backend {
                Backend::Threads { .. } => self.faults.as_ref(),
                _ => None,
            },
        };
        let (outputs, wall_seconds, trace, stats) = match *backend {
            Backend::Sim(machine) => {
                let mut sim = SimOptions::new(machine.clone(), nranks);
                sim.trace = self.trace;
                if let Some(plan) = &self.faults {
                    sim = sim.with_faults(plan.clone());
                }
                let t0 = Instant::now();
                let r = sim_run(&sim, |comm| body.run(comm));
                (r.outputs, t0.elapsed().as_secs_f64(), r.trace, r.stats)
            }
            Backend::Virtual { machine, workers } => {
                let r = virtual_run(machine, nranks, workers, |comm| body.run(comm));
                (r.outputs, r.wall_seconds, Vec::new(), r.stats)
            }
            Backend::Threads { .. } => {
                let rank = |comm: &mut ThreadComm| body.run(comm);
                let r = if self.hier || self.replication != ReplicationFactor::One {
                    thread_run_with_topology(nranks, topo, rank)
                } else if self.trace {
                    thread_run_traced(nranks, rank)
                } else {
                    thread_run(nranks, rank)
                };
                (r.outputs, r.wall_seconds, r.trace, r.stats)
            }
            Backend::Exec { workers: w, .. } => {
                let rank = |comm: &mut ExecComm| body.run(comm);
                let srumma = |r: SrummaReport| (Some(r), 0);
                let r = match (&layout, stages.as_slice(), &self.alg, &self.faults) {
                    (Layout::Repl(_), ..) => exec_run_with_topology(nranks, w, topo, rank),
                    (Layout::Flat(d), [st], _, _) => map_outputs(
                        exec_run_tasks_with_topology(nranks, w, false, Some(topo), |comm| {
                            Box::new(HierRankTask::new(comm, spec, &d.a, &d.b, &d.c, &opts, st))
                        }),
                        |h| (Some(h.report), h.staged_panels),
                    ),
                    (Layout::Flat(d), _, Algorithm::Srumma(_), None) => map_outputs(
                        exec_run_tasks(nranks, w, self.trace, |comm| {
                            Box::new(SrummaRankTask::new(comm, spec, &d.a, &d.b, &d.c, &opts))
                        }),
                        srumma,
                    ),
                    (Layout::Flat(d), _, Algorithm::Srumma(_), Some(plan)) => {
                        // Declared after the matrices: any unclaimed
                        // machine (borrowing them) drops with the queue
                        // first.
                        let recovery = ChaosRecovery::new();
                        let task = |comm| {
                            let (a, b, c) = (&d.a, &d.b, &d.c);
                            let plan = plan.clone();
                            ChaosSrummaRankTask::new(comm, spec, a, b, c, &opts, plan, &recovery)
                        };
                        map_outputs(
                            exec_run_tasks(nranks, w, false, |comm| Box::new(task(comm))),
                            srumma,
                        )
                    }
                    _ if self.trace => exec_run_traced(nranks, w, rank),
                    _ => exec_run(nranks, w, rank),
                };
                (r.outputs, r.wall_seconds, r.trace, r.stats)
            }
        };
        let replication = match &layout {
            Layout::Flat(_) => 1,
            Layout::Repl(set) => set.factor(),
        };
        let c = match layout {
            Layout::Flat(d) if in_place => {
                drop(d); // releases C before it is handed back
                c_out
            }
            Layout::Flat(d) => real.then(|| d.c.gather()),
            Layout::Repl(set) => real.then(|| set.gather()),
        };
        let staged_bytes = if real && !in_place {
            8 * (spec.m * spec.k + spec.k * spec.n + spec.m * spec.n) as u64
        } else {
            0
        };
        Ok(Output {
            c,
            stats,
            wall_seconds,
            trace,
            reports: outputs.iter().filter_map(|o| o.0).collect(),
            staged_panels: outputs.iter().map(|o| o.1).collect(),
            replication,
            staged_bytes,
        })
    }
}

/// The flat distributions of A, B and C.
struct Dists {
    a: DistMatrix,
    b: DistMatrix,
    c: DistMatrix,
}

/// The distributed operands of one run.
enum Layout {
    Flat(Box<Dists>),
    /// Every replica team's `k`-slice.
    Repl(ReplSet),
}

/// The blocking rank program of one run, generic over the backend.
struct RankBody<'r> {
    alg: &'r Algorithm,
    spec: &'r GemmSpec,
    opts: &'r SrummaOptions,
    layout: &'r Layout,
    /// The staging sets of a hierarchical run: one for a flat layout,
    /// one per team for a replicated one, none otherwise.
    stages: &'r [HierStageSet],
    /// Faults applied by wrapping the communicator (threads only: the
    /// simulator applies them natively, the executor in its tasks).
    chaos: Option<&'r FaultPlan>,
}

impl RankBody<'_> {
    fn run<C: Comm>(&self, comm: &mut C) -> RankOut {
        let (alg, spec, opts) = (self.alg, self.spec, self.opts);
        match (self.layout, self.stages) {
            (Layout::Flat(d), [st]) => {
                let h = srumma_hier(comm, spec, &d.a, &d.b, &d.c, opts, st);
                (Some(h.report), h.staged_panels)
            }
            (Layout::Flat(d), _) => match self.chaos {
                Some(plan) => {
                    let mut chaos = ChaosComm::new(&mut *comm, plan.clone());
                    (parallel_gemm(&mut chaos, alg, spec, &d.a, &d.b, &d.c), 0)
                }
                None => (parallel_gemm(comm, alg, spec, &d.a, &d.b, &d.c), 0),
            },
            (Layout::Repl(set), stages) => {
                (Some(srumma_replicated(comm, set, stages, opts).report), 0)
            }
        }
    }
}

/// What a rank reports, whichever driver ran it: its SRUMMA report
/// (`None` for SUMMA and Cannon) and the panels it staged.
type RankOut = (Option<SrummaReport>, usize);

fn map_outputs<T>(r: ExecRunResult<T>, f: impl FnMut(T) -> RankOut) -> ExecRunResult<RankOut> {
    ExecRunResult {
        outputs: r.outputs.into_iter().map(f).collect(),
        wall_seconds: r.wall_seconds,
        trace: r.trace,
        stats: r.stats,
    }
}
