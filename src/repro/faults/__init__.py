"""Deterministic fault injection, reliable transport, and the
convergence oracle (see ``docs/FAULTS.md``).

Entry points:

* build or parse a :class:`FaultPlan` (:func:`parse_fault_spec`);
* install it with :meth:`repro.core.api.ExspanNetwork.install_faults`
  (or the ``faults=`` argument of ``ShardedExspanNetwork``); experiment
  runs take it from their
  :class:`~repro.experiments.trials.ExecutionEnv` (``run --faults``);
* after quiescence, compare :func:`convergence_digest` against the
  fault-free run — byte equality is the contract.
"""

from .injector import ACK_KIND, APP_KINDS, FaultInjector
from .oracle import (
    collect_convergence,
    convergence_digest,
    digest_convergence,
    node_convergence_state,
)
from .plan import (
    CrashFault,
    FaultPlan,
    FlapFault,
    LinkFault,
    StragglerFault,
    WorkerKill,
    parse_fault_spec,
)

__all__ = [
    "ACK_KIND",
    "APP_KINDS",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "CrashFault",
    "FlapFault",
    "StragglerFault",
    "WorkerKill",
    "parse_fault_spec",
    "node_convergence_state",
    "collect_convergence",
    "digest_convergence",
    "convergence_digest",
]
