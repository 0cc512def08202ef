"""Cycle-level golden-trace backend: fork :class:`PipelineCPU` at the fault.

:mod:`repro.exec.golden` made campaigns cheap by forking the *functional*
simulator at the first corrupted fetch.  This module applies the same
design to the cycle-level 5-stage pipeline, which buys the one thing the
functional backends cannot offer: **measured cycles**.  Every classified
injection (and the recorded pristine run) carries the pipeline's actual
cycle count — OS miss penalties, multiplier busy time, squashed fetch
slots and all — so the design-space explorer can score cycle overhead
per penalty model by *measurement* instead of the (exact, but analytic)
Table-1 accounting, and tampered runs can be costed in real cycles.

The store, its record loop, the fork planner and the transient seek are
:mod:`repro.exec.golden`'s; the campaign context derives from the
recording's ID-stage block trace, which the differential tier pins equal
to ``FuncSim``'s.  One twist the shared
:class:`~repro.exec.golden.Checkpoint` carries: the pipeline fetches
*speculatively* (a wrong-path slot is fetched, latched, and squashed), so
fetch ordinals live in fetch-sequence space rather than instruction
space, and each checkpoint keeps the number of fetch-hook invocations at
its boundary.  Delivery planning and transient ``seek`` both bisect in
that space.  Until the first transformed fetch the faulty machine
replays the pristine one cycle for cycle, so ordinals read off the
recording are exact.

``HANG`` classification cannot rely on :class:`FuncSim`'s instruction
budget: the pipeline bounds cycles, not instructions.  The kernels here
run in ``until=instruction_budget`` mode instead — a run still live at
the budget boundary is a hang by the same absolute-instruction criterion
the functional backends use, and the detail string is canonical across
backends.

``tests/exec/test_pipeline_golden.py`` pins this backend differentially
against full :class:`PipelineCPU` replay — outcome, detail, latency,
*and cycle count* — on the smoke workload set and every fault model.
"""

from __future__ import annotations

from dataclasses import replace

from repro.obs import core as obs
from repro.faults.campaign import (
    CampaignContext,
    FaultResult,
    Outcome,
    WarmProcess,
    classify_run,
    make_probe,
    split_perturbation,
)
from repro.exec.golden import (
    GoldenStore,
    kept,
    plan_fork,
    record_store,
    restore_checkpoint,
    seek_transients,
)
from repro.pipeline.cpu import PipelineCPU


def _fresh_cpu(
    context: CampaignContext, warm: WarmProcess, fetch_hook=None
) -> PipelineCPU:
    return PipelineCPU(
        context.program,
        monitor=warm.fresh_checker(context),
        fetch_hook=fetch_hook,
        inputs=context.inputs,
        decode_cache=warm.decode_cache,
    )


def build_pipeline_golden_store(
    context: CampaignContext,
    warm: WarmProcess | None = None,
    interval: int | None = None,
) -> GoldenStore:
    """Record the monitored pristine run on the cycle-level pipeline, once
    per program, inputs and monitor configuration in a process.

    Costs one monitored :class:`PipelineCPU` run plus the snapshot
    copies; every injection then forks at a checkpoint, and the run's
    measured cycle count is kept as ``golden_cycles``.
    """
    warm = warm or WarmProcess.from_context(context)
    store = kept(
        context,
        lambda: record_store(
            context, warm, interval, _fresh_cpu(context, warm), "pipeline_golden"
        ),
        interval,
        *context.monitor,
    )
    return replace(store, context=context, warm=warm)


def classify_pipeline_run(
    context: CampaignContext, fault, cpu: PipelineCPU, probe
) -> FaultResult:
    """Run a prepared, injected pipeline and classify its outcome.

    :func:`~repro.faults.campaign.classify_run` with the instruction
    budget enforced through ``run(until=...)`` (the pipeline has no
    instruction limit of its own), and every verdict carrying the
    measured cycle count at the moment it was reached.
    """
    result = classify_run(
        context, fault, cpu, probe, until=context.instruction_budget
    )
    result.cycles = cpu.cycles
    return result


def run_one_pipeline(
    context: CampaignContext, fault, warm: WarmProcess | None = None
) -> FaultResult:
    """Full cycle-level replay from boot: the reference this backend is
    pinned against (and the pipeline twin of ``run_one``)."""
    warm = warm or WarmProcess.from_context(context)
    persistents, transients = split_perturbation(fault)
    probe = make_probe(persistents, transients)
    cpu = _fresh_cpu(context, warm, probe)
    for part in persistents:
        part.apply_to_memory(cpu.state.memory)
    return classify_pipeline_run(context, fault, cpu, probe)


def run_one_pipeline_golden(store: GoldenStore, fault) -> FaultResult:
    """Classify one injection by forking the recorded pipeline at the
    fault: :func:`run_batch_pipeline_golden` on a batch of one."""
    return run_batch_pipeline_golden(store, [fault])[0]


def run_batch_pipeline_golden(store: GoldenStore, faults) -> list[FaultResult]:
    """Classify a batch of injections on one reused machine/monitor pair.

    Element for element the identical :class:`FaultResult` — outcome,
    detail, latency, and measured cycles — as :func:`run_one_pipeline`,
    while executing only the cycles after the nearest checkpoint.  Unlike
    the functional :func:`repro.exec.golden.run_batch_golden`, no prefix
    sharing is attempted: fork ordinals live in fetch-*sequence* space
    (speculative slots included), which ``run(until=instructions)``
    cannot address, so each fault forks at ``checkpoint_before(delivery)``
    — checkpoint 0 for a fork at zero.
    """
    cpu = None
    results = []
    for fault in faults:
        plan = plan_fork(store, fault)
        if plan is None:
            # The faulty run is the recorded pristine run, measured
            # cycles included.
            obs.count("pipeline_golden.benign_by_plan")
            results.append(
                FaultResult(fault, Outcome.BENIGN, "", cycles=store.golden_cycles)
            )
            continue
        persistents, transients, delivery = plan
        obs.count("pipeline_golden.fork")
        if cpu is None:
            cpu = _fresh_cpu(store.context, store.warm)
        else:
            obs.count("pipeline_golden.machine_reuse")
        checkpoint = store.checkpoint_before(delivery)
        probe = make_probe(persistents, transients)
        cpu.fetch_hook = probe
        restore_checkpoint(cpu, checkpoint)
        seek_transients(store, transients, checkpoint.fetches)
        for part in persistents:
            part.apply_to_memory(cpu.state.memory)
        results.append(classify_pipeline_run(store.context, fault, cpu, probe))
    return results
