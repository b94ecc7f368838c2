//! # srumma-comm — the communication substrate (ARMCI & MPI stand-ins)
//!
//! The paper's implementation sits on ARMCI: a collective shared-memory
//! allocator (`ARMCI_Malloc`), one-sided nonblocking get/put, and a
//! cluster-locality query that tells each process which peers it can
//! reach through plain load/store. This crate rebuilds that layer — and
//! the MPI-style two-sided operations the baselines (Cannon,
//! SUMMA/pdgemm) need — over two interchangeable backends:
//!
//! * [`SimComm`](simbackend::SimComm) — runs under the virtual-time
//!   simulator (`srumma-sim`) with costs from `srumma-model`. Data
//!   movement is *real* when matrices carry real backing (tests verify
//!   numerics end-to-end) and elided for paper-scale modeled runs.
//! * [`ThreadComm`](threadbackend::ThreadComm) — real host threads in
//!   one shared-memory domain, real memcpys, wall-clock timing: the
//!   "SGI Altix flavor" made concrete on today's hardware.
//!
//! Algorithms in `srumma-core` are generic over the [`Comm`] trait, so
//! the *same* SRUMMA/Cannon/SUMMA code runs on both backends.
//!
//! ## Module map
//!
//! * [`arena`] — the shared allocation (`ArmciHeap` stand-in) with a
//!   debug-build access checker.
//! * [`dist`] — [`dist::DistMatrix`]: 2-D block-distributed matrices
//!   over a process grid, with optional real backing.
//! * [`comm`] — the [`Comm`] trait and block handle types.
//! * [`simbackend`] / [`threadbackend`] / [`exec`] — the three
//!   implementations (virtual time, thread-per-rank, work-stealing
//!   executor).
//! * [`deque`] — the Chase–Lev work-stealing deque under the executor.
//! * [`mpi`] — two-sided collectives (broadcast, shift, allgather) built
//!   on `Comm::send`/`Comm::recv`, used by the baselines.
//! * [`fault`] — seeded fault injection ([`FaultPlan`]) and the
//!   [`ChaosComm`] decorator for wall-clock backends.

pub mod arena;
pub mod comm;
pub mod deque;
pub mod dist;
pub mod exec;
pub mod fault;
pub mod mpi;
pub mod simbackend;
pub mod subcomm;
pub mod threadbackend;
pub mod virt;

pub use arena::SharedArena;
pub use comm::{BlockMut, BlockRef, Comm, GetHandle};
pub use dist::{CostMap, DistMatrix};
pub use exec::{
    exec_run, exec_run_tasks, exec_run_tasks_with_topology, exec_run_traced,
    exec_run_with_topology, resolve_workers, ExecComm, ExecRunResult, RankTask, Step,
};
pub use fault::{ChaosComm, FaultPlan, FaultPlanError, RankDeath};
pub use simbackend::{sim_run, ComputeMode, SimComm, SimOptions};
pub use subcomm::SubComm;
pub use threadbackend::{
    thread_run, thread_run_traced, thread_run_with_topology, ThreadComm, ThreadRunResult,
};
pub use virt::{virtual_run, VirtualComm, VirtualRunResult};
