"""Campaign-execution engine: parallel, resumable perturbation sweeps.

The paper's Section 6.3 coverage numbers come from injecting thousands of
faults per workload; this package is the substrate that makes such sweeps
— random fault campaigns, the adversarial attack sweeps of
:mod:`repro.attacks`, and the detection objectives of the design-space
explorer (:mod:`repro.dse`) — scale across CPU cores without giving up
reproducibility:

* :mod:`repro.exec.harness` — the generic execution harness:
  :class:`Job` + :class:`WorkspaceFactory` + :class:`HarnessRunner`, the
  **single** implementation of sharding, JSONL streaming, commit
  markers, kill/resume, and worker-count invariance that every sweep in
  the repo (campaigns, attack sweeps, the design-space explorer) runs
  on;
* :mod:`repro.exec.backends` — the three backends, named in
  :data:`BACKENDS`: ``full`` replay, ``golden`` fork-at-fault, and the
  cycle-measuring ``pipeline-golden``, each a batch kernel where one
  fault is a batch of one;
* :mod:`repro.exec.golden` — the one checkpoint store, record loop and
  fork planner both golden backends share, and the functional batch
  kernel; :mod:`repro.exec.pipeline_golden` holds the cycle-level one;
* :mod:`repro.exec.spec` — :class:`CampaignSpec`, the picklable campaign
  description a workspace is derived from; its ``backend`` field names a
  backend;
* :mod:`repro.exec.runner` — :class:`CampaignRunner`, the campaign
  client of the harness, and its warm
  :class:`~repro.exec.runner.Workspace`;
* :mod:`repro.exec.pool` — persistent warm worker pools, whose forked
  workers inherit the parent's workspace;
* :mod:`repro.exec.presets` — named campaign presets
  (e.g. ``exhaustive-single-bit``);
* :mod:`repro.exec.records` — :class:`FaultRecord` and the JSONL schema.

Outcome taxonomy
----------------
Every backend ends in the one classification tail,
:func:`repro.faults.campaign.classify_run`, which puts each injected
fault in exactly one :class:`~repro.faults.campaign.Outcome`:

=====================  ====================================================
outcome (JSON value)   meaning
=====================  ====================================================
``detected-cic``       the Code Integrity Checker raised a violation —
                       the paper's mechanism caught the fault
``detected-baseline``  a baseline machine check fired first: invalid
                       opcode/operand (decoder reject) or a misaligned /
                       out-of-segment access trap (§6.3: "some errors can
                       be detected by baseline microarchitecture itself")
``crashed``            some other simulator-level failure (e.g. an
                       impossible syscall number)
``hang``               the run exceeded its instruction budget
``silent-corruption``  run completed but console output or exit code
                       differ from the golden run — the dangerous case
``benign``             run completed with output identical to the golden
                       run (fault masked, or in never-executed code)
=====================  ====================================================

``detected-cic`` + ``detected-baseline`` count as coverage
(:data:`repro.faults.campaign.DETECTED`); ``silent-corruption`` is the
escape the checksum ablations try to close.

Typical use::

    from repro.exec import CampaignRunner, CampaignSpec

    spec = CampaignSpec(workload="sha", scale="tiny", iht_size=8)
    runner = CampaignRunner(spec, workers=4)
    faults = runner.campaign.random_single_bit(200, seed=42)
    result = runner.run(faults, seed=42, out="sha.jsonl", resume=True)
    print(result.summary())

or, from a shell, ``python -m repro campaign sha --scale tiny --faults 200
--workers 4 --seed 42 --out sha.jsonl --resume``.
"""

from repro.exec.backends import BACKENDS, Backend, get_backend
from repro.exec.golden import (
    GoldenStore,
    build_golden_store,
    run_batch_golden,
)
from repro.exec.harness import (
    DEFAULT_CHUNK_SIZE,
    HarnessResult,
    HarnessRunner,
    Job,
    MeasureCache,
    WorkspaceFactory,
)
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_batch_pipeline_golden,
    run_one_pipeline,
    run_one_pipeline_golden,
)
from repro.exec.pool import WarmPool, pool_stats, shutdown_pools
from repro.exec.presets import CampaignPreset, get_campaign_preset
from repro.exec.records import FaultRecord, fault_from_json, fault_to_json
from repro.exec.runner import CampaignResult, CampaignRunner, Workspace
from repro.exec.spec import CampaignSpec, shard_seed

__all__ = [
    "BACKENDS",
    "Backend",
    "CampaignPreset",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DEFAULT_CHUNK_SIZE",
    "FaultRecord",
    "GoldenStore",
    "HarnessResult",
    "HarnessRunner",
    "Job",
    "MeasureCache",
    "WarmPool",
    "Workspace",
    "WorkspaceFactory",
    "build_golden_store",
    "build_pipeline_golden_store",
    "fault_from_json",
    "fault_to_json",
    "get_backend",
    "get_campaign_preset",
    "pool_stats",
    "run_batch_golden",
    "run_batch_pipeline_golden",
    "run_one_pipeline",
    "run_one_pipeline_golden",
    "shard_seed",
    "shutdown_pools",
]
