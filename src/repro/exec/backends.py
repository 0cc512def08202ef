"""The three injection-execution backends, by name.

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

Backends self-describe through three small hooks and one constant:
:meth:`Backend.pristine_run` is the recorded run a context derives from,
:meth:`Backend.prepare` builds the per-worker state on it once,
:meth:`Backend.run_batch` executes a batch of injections against it — a
single injection is a batch of one — and :attr:`Backend.batch_size` is
how many faults one call takes when ``--batch-size`` is unset.  The
functional pair derive their context from the one :class:`FuncSim`
recording of the program (:func:`~repro.exec.golden.pristine_recording`),
made with no monitor, so every configuration reads the same pristine
run; ``pipeline-golden`` reads its own, monitored, cycle-level
recording.  Every consumer — ``CampaignSpec`` validation, the harness
workspaces, the DSE engine, the CLI ``--backend`` choices — resolves
names through :func:`get_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignContext, FaultResult, WarmProcess, run_one
from repro.exec.golden import build_golden_store, pristine_recording, run_batch_golden
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_batch_pipeline_golden,
)
from repro.pipeline.funcsim import RunResult


class Backend:
    """One injection-execution strategy (see the module table)."""

    #: CLI value, and the ``backend`` field of specs/headers.
    name: str = ""
    #: Whether :meth:`run_batch` fills :attr:`FaultResult.cycles` with
    #: measured cycle counts (the cycle-level backends).
    measures_cycles: bool = False
    #: Faults per :meth:`run_batch` call when the run does not choose;
    #: ``None`` is one shard, for kernels that share nothing across a
    #: batch.
    batch_size: int | None = None

    def pristine_run(self, config: CampaignContext) -> RunResult:
        """*config*'s pristine run, block trace included: the one
        recording per process that :meth:`prepare` builds on."""
        return pristine_recording(config).run.result

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

    def prepare(self, context, warm):
        return (context, warm)

    def run_batch(self, state, faults):
        context, warm = state
        return [run_one(context, fault, warm=warm) for fault in faults]


@dataclass(frozen=True)
class GoldenBackend(Backend):
    name = "golden"
    #: One advancer pass serves the whole batch, so the prefix replayed
    #: per fault falls as the batch grows (docs/PERFORMANCE.md has the
    #: sweep); 256 is within 8% of one call for 1000 faults, and a kill
    #: loses at most 256 faults.
    batch_size = 256

    def prepare(self, context, warm):
        return build_golden_store(context, warm)

    def run_batch(self, state, faults):
        return run_batch_golden(state, faults)


@dataclass(frozen=True)
class PipelineGoldenBackend(Backend):
    name = "pipeline-golden"
    measures_cycles = True

    def pristine_run(self, config):
        return build_pipeline_golden_store(config).result

    def prepare(self, context, warm):
        return build_pipeline_golden_store(context, warm)

    def run_batch(self, state, faults):
        return run_batch_pipeline_golden(state, faults)


_BY_NAME = {
    backend.name: backend
    for backend in (FullBackend(), GoldenBackend(), PipelineGoldenBackend())
}

#: Every backend name, in the order ``--backend`` lists them.
BACKENDS = tuple(_BY_NAME)


def get_backend(name: str) -> Backend:
    """Resolve a backend by name."""
    backend = _BY_NAME.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from: {', '.join(BACKENDS)}"
        )
    return backend
