"""Pluggable injection-execution backends and their registry.

A *backend* decides **how** one classified injection is executed — never
*what* the answer is.  Every backend consumes the same inputs (a
:class:`~repro.faults.campaign.CampaignContext` plus a per-worker
:class:`~repro.faults.campaign.WarmProcess`) and produces a
:class:`~repro.faults.campaign.FaultResult`; the functional pair is
differentially pinned to identical results, the cycle-level pair to each
other, so swapping backends is purely a throughput / fidelity knob:

==================  =====================================================
name                execution strategy
==================  =====================================================
``full``            re-simulate every injection from instruction zero on
                    :class:`~repro.pipeline.funcsim.FuncSim`
``golden``          fork the recorded functional golden run at the
                    nearest checkpoint before the first corrupted fetch
                    (:mod:`repro.exec.golden`)
``pipeline-golden`` the same fork-at-fault design on the cycle-level
                    :class:`~repro.pipeline.cpu.PipelineCPU`
                    (:mod:`repro.exec.pipeline_golden`) — slower than
                    the functional backends but every verdict and the
                    pristine run carry **measured cycles**, which is what
                    lets the DSE score overhead per penalty model by
                    measurement
==================  =====================================================

Backends self-describe through two small hooks the execution harness
calls: :meth:`Backend.prepare` builds the per-worker state once (e.g.
record the golden run and its checkpoints), :meth:`Backend.run_batch`
executes a batch of injections against it — a single injection is a
batch of one.  Registering a new backend is one
:func:`register_backend` call; every consumer — ``CampaignSpec``
validation, the harness workspaces, the DSE engine, the CLI ``--backend``
choices — resolves names through this registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignContext, FaultResult, WarmProcess, run_one
from repro.exec.golden import build_golden_store, run_batch_golden
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_batch_pipeline_golden,
)


class Backend:
    """One injection-execution strategy (see the module table)."""

    #: Registry key, CLI value, and the ``backend`` field of specs/headers.
    name: str = ""
    #: One-line description surfaced in ``--help`` and docs.
    description: str = ""
    #: Whether :meth:`run_batch` fills :attr:`FaultResult.cycles` with
    #: measured cycle counts (the cycle-level backends).
    measures_cycles: bool = False

    def prepare(self, context: CampaignContext, warm: WarmProcess):
        """Build the per-worker execution state for *context* once."""
        raise NotImplementedError

    def run_batch(self, state, faults) -> list[FaultResult]:
        """Execute and classify *faults* against prepared *state*.

        Results come back in input order, each independent of its batch
        company: the scaling-invariance tier pins a batch of *n* ≡ *n*
        batches of one, per element.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FullBackend(Backend):
    name = "full"
    description = "re-simulate every injection from instruction zero"

    def prepare(self, context, warm):
        return (context, warm)

    def run_batch(self, state, faults):
        context, warm = state
        return [run_one(context, fault, warm=warm) for fault in faults]


@dataclass(frozen=True)
class GoldenBackend(Backend):
    name = "golden"
    description = "fork the recorded functional golden run at the fault"

    def prepare(self, context, warm):
        return build_golden_store(context, warm)

    def run_batch(self, state, faults):
        return run_batch_golden(state, faults)


@dataclass(frozen=True)
class PipelineGoldenBackend(Backend):
    name = "pipeline-golden"
    description = "fork the cycle-level pipeline at the fault (measured cycles)"
    measures_cycles = True

    def prepare(self, context, warm):
        return build_pipeline_golden_store(context, warm)

    def run_batch(self, state, faults):
        return run_batch_pipeline_golden(state, faults)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add *backend* to the registry (name collisions are refused)."""
    if not backend.name:
        raise ConfigurationError("backend needs a non-empty name")
    if backend.name in _REGISTRY:
        raise ConfigurationError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Resolve a backend by registry name."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from: {', '.join(_REGISTRY)}"
        )
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


register_backend(FullBackend())
register_backend(GoldenBackend())
register_backend(PipelineGoldenBackend())

#: Historical alias: modules used to import the valid-name tuple from
#: :mod:`repro.exec.spec`.  Frozen at import time on purpose — the three
#: built-ins are always registered above before anyone reads it; late
#: registrations should query :func:`backend_names` instead.
BACKENDS = backend_names()
