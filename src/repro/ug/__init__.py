"""UG — Ubiquity Generator framework analogue.

A generic parallelization layer for branch-and-bound *base solvers*,
implementing the Supervisor–Worker scheme of the paper's Algorithms 1–2:

* the :class:`~repro.ug.load_coordinator.LoadCoordinator` keeps a small
  pool of solver-independent subproblems (:class:`~repro.ug.para_node.ParaNode`)
  extracted from the solvers for load balancing, while the B&B trees stay
  inside the :class:`~repro.ug.para_solver.ParaSolver` workers;
* ramp-up is *normal* (grow from one solver) or *racing* (all solvers
  attack the root under different parameter settings; a winner is chosen
  and its open nodes are redistributed), including customized racing with
  application-supplied setting lists;
* *layered presolving*: the instance is presolved once at the
  LoadCoordinator and every received subproblem is presolved again inside
  its ParaSolver;
* checkpointing stores only *primitive* nodes (no ancestor in the LC) and
  restarting re-applies global presolve; checkpoint files are checksummed,
  fsynced and rotated so a crash mid-write falls back to a ``.bak`` copy;
* fault tolerance: worker messages double as heartbeats, dead solvers are
  detected and their subproblems reclaimed (graceful degradation), and a
  deterministic :class:`~repro.ug.faults.FaultPlan` can replay crash /
  message-loss / corruption scenarios bit-identically under the SimEngine.

Five interchangeable run-time engines drive the same coordinator/solver
state machines from one shared core (:mod:`repro.ug.engine_core`); the
engine → clock × transport × spawner table is in DESIGN.md §5e, and §4
argues why the virtual-time :class:`~repro.ug.engines.SimEngine` can
stand in for MPI runs on a supercomputer.

Naming follows the paper: an instantiated solver is
``ug[<base solver>, <library>]``, e.g. ``ug[SteinerJack, SimMPI]`` or
``ug[SteinerJack, MPI]`` (the ProcessEngine).
"""

from repro.ug.para_node import ParaNode
from repro.ug.para_solution import ParaSolution
from repro.ug.messages import Message, MessageTag, SeqStamper
from repro.ug.user_plugins import CIPHandle, SolverHandle, HandleStep, UserPlugins
from repro.ug.instantiation import UGSolver, UGResult, ug
from repro.ug.statistics import UGStatistics
from repro.ug.cluster import ClusterEvent, ClusterPlan, ClusterSupervisor, RankWatchdog, RestartPolicy
from repro.ug.faults import (
    CheckpointFault,
    FaultInjector,
    FaultPlan,
    FrameFault,
    MessageFault,
    SendFault,
    SolverCrash,
)

__all__ = [
    "ParaNode",
    "ParaSolution",
    "Message",
    "MessageTag",
    "SeqStamper",
    "SolverHandle",
    "CIPHandle",
    "HandleStep",
    "UserPlugins",
    "UGSolver",
    "UGResult",
    "ug",
    "UGStatistics",
    "FaultPlan",
    "FaultInjector",
    "SolverCrash",
    "MessageFault",
    "CheckpointFault",
    "SendFault",
    "FrameFault",
    "ClusterEvent",
    "ClusterPlan",
    "ClusterSupervisor",
    "RankWatchdog",
    "RestartPolicy",
]
