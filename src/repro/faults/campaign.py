"""Fault campaigns: inject, run, classify.

A campaign's *golden* reference — console, exit code, executed code — is
read off the one recording of the pristine program that the backends
fork faults from (:func:`build_context`).  Each fault is then
injected into a monitored simulation and the run's outcome is classified:

=====================  ====================================================
outcome                meaning
=====================  ====================================================
``DETECTED_CIC``       the Code Integrity Checker raised a violation
``DETECTED_BASELINE``  a baseline machine check fired: the decoder rejected
                       the word (invalid opcode/operand combination) or a
                       misaligned access trapped — paper §6.3's "some errors
                       can be detected by baseline microarchitecture itself"
``CRASHED``            some other simulator-level failure
``HANG``               the run exceeded its instruction budget
``SDC``                silent data corruption: run completed, wrong output
``BENIGN``             run completed with correct output (fault masked or
                       in never-executed code)
=====================  ====================================================

The headline coverage metric counts CIC + baseline detections over faults
injected into *executed* code, matching the paper's scope ("only the errors
on the executed instructions/basic blocks can be detected").

The single-fault kernel is :func:`run_one`: it takes a
:class:`CampaignContext` (program + monitor configuration + golden
reference) and one fault, runs a monitored simulation, and classifies the
outcome.  It is the ``full`` backend and the independent oracle the
forking backends of :mod:`repro.exec` are pinned against; every backend
ends in the same :func:`classify_run` tail, so serial and pooled
campaigns on any backend are bit-for-bit comparable.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.errors import (
    BudgetExceeded,
    DecodingError,
    MemoryAccessError,
    MonitorViolation,
    SimulationError,
)
from repro.asm.program import Program
from repro.cfg.hashgen import build_fht
from repro.cic.fht import FullHashTable
from repro.cic.hashes import get_hash
from repro.faults.enumerators import (
    ExhaustiveSingleBit,
    seeded_same_column_pairs,
)
from repro.faults.models import (
    BitFlipFault,
    FetchProbe,
    make_fetch_hook,
    split_perturbation,
)
from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim
from repro.pipeline.trace import executed_addresses


class Outcome(enum.Enum):
    DETECTED_CIC = "detected-cic"
    DETECTED_BASELINE = "detected-baseline"
    CRASHED = "crashed"
    HANG = "hang"
    SDC = "silent-corruption"
    BENIGN = "benign"


#: Outcomes that count as successful detection.
DETECTED = frozenset({Outcome.DETECTED_CIC, Outcome.DETECTED_BASELINE})


@dataclass(slots=True)
class FaultResult:
    """One classified injection.

    ``fault`` is any :class:`~repro.faults.models.Perturbation` (or tuple
    of them) — a random fault model or an attack scenario.  For detected
    outcomes, ``latency`` is the number of instructions that entered the
    pipeline between the first corrupted fetch and the instruction whose
    check fired (0 = caught on the corrupted instruction itself); ``None``
    when the corruption was never delivered or never detected.
    """

    fault: object
    outcome: Outcome
    detail: str = ""
    latency: int | None = None
    #: Measured cycle count of the faulty run, when the executing backend
    #: measures cycles (the cycle-level ``pipeline-golden`` backend).
    #: ``None`` on the functional backends and for runs a raised machine
    #: check cut short; never serialized into campaign records.
    cycles: int | None = None


@dataclass(slots=True)
class CampaignReport:
    """Aggregated campaign statistics."""

    results: list[FaultResult] = field(default_factory=list)

    def counts(self) -> Counter:
        return Counter(result.outcome for result in self.results)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def detected(self) -> int:
        return sum(1 for result in self.results if result.outcome in DETECTED)

    @property
    def detection_rate(self) -> float:
        """Detections over all injected faults."""
        if not self.results:
            return 0.0
        return self.detected / self.total

    def detection_latencies(self) -> list[int]:
        """Latencies (in instructions) of every detected injection."""
        return [
            result.latency
            for result in self.results
            if result.outcome in DETECTED and result.latency is not None
        ]

    @property
    def mean_detection_latency(self) -> float | None:
        latencies = self.detection_latencies()
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def median_detection_latency(self) -> int | None:
        latencies = sorted(self.detection_latencies())
        if not latencies:
            return None
        return latencies[len(latencies) // 2]

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{self.total} faults"]
        for outcome in Outcome:
            if counts[outcome]:
                parts.append(f"{outcome.value}={counts[outcome]}")
        parts.append(f"coverage={100 * self.detection_rate:.1f}%")
        return ", ".join(parts)


@dataclass(slots=True)
class CampaignContext:
    """Everything :func:`run_one` needs to run and classify one fault.

    A context bundles the program image, the monitor configuration, and the
    golden-run reference (console, exit code, executed addresses, budget).
    It deliberately holds *no* live simulator or monitor — each injection
    loads a fresh monitored process — so a context built in any process
    from the same program and configuration classifies identically.
    """

    program: Program
    iht_size: int = 8
    hash_name: str = "xor"
    policy_name: str = "lru_half"
    inputs: list[int] | None = None
    golden_console: str = ""
    golden_exit: int = 0
    executed_addresses: tuple[int, ...] = ()
    #: Distinct executed dynamic blocks, sorted ``(start, end)`` pairs —
    #: the canonical input to block-confined fault enumerators
    #: (:mod:`repro.faults.enumerators`).  Empty for hand-built contexts
    #: that never enumerate block-confined spaces.
    executed_blocks: tuple[tuple[int, int], ...] = ()
    instruction_budget: int = 10_000
    #: Instructions the pristine run executes (0 for hand-built contexts).
    golden_instructions: int = 0
    #: OS cycle charge per IHT miss.  In-memory only (never part of the
    #: serialized :class:`~repro.exec.spec.CampaignSpec`): outcomes do not
    #: depend on it, but the cycle-measuring ``pipeline-golden`` backend
    #: and the DSE penalty axis configure the handler through it.
    miss_penalty: int = 100

    @property
    def monitor(self) -> tuple:
        """The monitor configuration: what a monitored run depends on."""
        return (self.iht_size, self.hash_name, self.policy_name, self.miss_penalty)


def build_context(
    program: Program,
    iht_size: int = 8,
    hash_name: str = "xor",
    policy_name: str = "lru_half",
    inputs: list[int] | None = None,
    instruction_budget_factor: int = 20,
    backend: str = "golden",
) -> CampaignContext:
    """Capture the golden reference from *backend*'s one recording of the
    pristine program (``Backend.pristine_run``), which its store reuses."""
    from repro.exec.backends import get_backend  # recordings live a layer up

    context = CampaignContext(
        program, iht_size, hash_name, policy_name, list(inputs) if inputs else None
    )
    golden = get_backend(backend).pristine_run(context)
    return replace(
        context,
        golden_console=golden.console,
        golden_exit=golden.exit_code,
        executed_addresses=executed_addresses(golden.block_trace),
        executed_blocks=tuple(sorted(golden.block_trace.unique_blocks())),
        instruction_budget=max(
            10_000, golden.instructions * instruction_budget_factor
        ),
        golden_instructions=golden.instructions,
    )


def same_column_pairs(
    block_trace, count: int, seed: int
) -> list[tuple[BitFlipFault, ...]]:
    """Seeded pairs of flips in one bit column of one executed block.

    The §6.3 adversarial pattern the XOR checksum provably cannot see:
    two flips in the same bit position of two words inside one monitored
    basic block.  Shared by the fault-analysis harness and the DSE
    engine's ``same-column`` adversary so both draw the identical
    deterministic pair list for a given ``(trace, count, seed)``.

    Implementation (and the exhaustive generalization of this space) lives
    in :mod:`repro.faults.enumerators`; this wrapper keeps the historical
    ``block_trace``-based signature its call sites use.
    """
    return seeded_same_column_pairs(block_trace.unique_blocks(), count, seed)


@dataclass(slots=True)
class WarmProcess:
    """Per-worker warm cache of everything injection runs can share.

    ``load_process`` per injection rebuilds the Full Hash Table — hashing
    every basic block of the program — and re-decodes every word, which is
    pure overhead after the first run: the FHT is immutable once built and
    decoding depends only on the word.  A :class:`WarmProcess` hoists both
    out of the per-fault path; only the genuinely per-run state (IHT,
    policy, handler counters, CIC registers, architected state) is rebuilt
    or restored per injection.  This is what made multi-worker campaigns
    scale: pool workers materialize one ``WarmProcess`` in their
    initializer instead of paying the FHT build for every fault.
    """

    program: Program
    fht: FullHashTable
    hash_name: str
    decode_cache: dict = field(default_factory=dict)

    @classmethod
    def from_context(cls, context: "CampaignContext") -> "WarmProcess":
        return cls(
            program=context.program,
            fht=build_fht(context.program, get_hash(context.hash_name)),
            hash_name=context.hash_name,
        )

    def fresh_checker(self, context: "CampaignContext"):
        """A cold monitor (empty IHT, zero counters) over the warm FHT."""
        return load_process(
            self.program,
            iht_size=context.iht_size,
            hash_name=self.hash_name,
            policy_name=context.policy_name,
            miss_penalty=context.miss_penalty,
            fht=self.fht,
        ).monitor


def make_probe(persistents, transients) -> FetchProbe:
    """The fetch-path probe for one injection: tampered set + transforms.

    The transient parts start over at their first fetch; a kernel that
    forks mid-run then seeks them to the fork point.
    """
    tampered: set[int] = set()
    for part in persistents:
        tampered.update(part.target_addresses())
    for part in transients:
        reset = getattr(part, "reset", None)
        if reset is not None:
            reset()
    return FetchProbe(
        tampered,
        make_fetch_hook(transients) if transients else None,
        transients=transients,
    )


def classify_run(
    context: CampaignContext, fault, simulator, probe: FetchProbe, until=None
) -> FaultResult:
    """Run a prepared, injected simulation and classify its outcome.

    The classification tail shared by every backend: the full-replay
    path below, both golden batch kernels (:mod:`repro.exec.golden`),
    and the cycle-level pipeline
    (:func:`repro.exec.pipeline_golden.classify_pipeline_run`) all end
    here, so outcome taxonomy and detection-latency semantics cannot
    drift between them.  *simulator* is a :class:`FuncSim` or a
    :class:`~repro.pipeline.cpu.PipelineCPU`; the pipeline bounds cycles,
    not instructions, so its callers pass ``until=instruction_budget``
    and a run still live there is a hang by the same criterion.
    """
    try:
        result = simulator.run(until=until)
    except MonitorViolation as error:
        return FaultResult(fault, Outcome.DETECTED_CIC, str(error), probe.latency())
    except (DecodingError, MemoryAccessError) as error:
        # Alignment/access machine checks are baseline hardware
        # detections, the same class as invalid-opcode traps.
        return FaultResult(
            fault, Outcome.DETECTED_BASELINE, str(error), probe.latency()
        )
    except BudgetExceeded:
        result = None
    except SimulationError as error:
        return FaultResult(fault, Outcome.CRASHED, str(error))
    if result is None or not result.finished:
        # Canonical detail: the budget path reports the pc it happened to
        # reach, the cycling detector the loop state it caught and the
        # pipeline its cycle ceiling, so normalizing keeps HANG records
        # identical across backends and detector settings.
        return FaultResult(
            fault,
            Outcome.HANG,
            f"instruction limit {context.instruction_budget} exceeded",
        )
    if (
        result.console == context.golden_console
        and result.exit_code == context.golden_exit
    ):
        return FaultResult(fault, Outcome.BENIGN, "")
    return FaultResult(fault, Outcome.SDC, "output differs from golden run")


def run_one(
    context: CampaignContext, fault, warm: WarmProcess | None = None
) -> FaultResult:
    """Inject one perturbation (or tuple of them) into a monitored run.

    This is the pure single-injection kernel shared by the legacy serial
    :class:`FaultCampaign` and the parallel campaign engine in
    :mod:`repro.exec`: deterministic given ``(context, fault)``, with no
    state carried between calls.  ``fault`` may be any object satisfying
    the :class:`~repro.faults.models.Perturbation` protocol — the random
    fault models of this package or the attack scenarios of
    :mod:`repro.attacks` — so fault campaigns and attack sweeps are
    interchangeable everywhere the kernel is used.

    A :class:`~repro.faults.models.FetchProbe` wraps the fetch path to
    time the first corrupted delivery, giving detected outcomes their
    detection latency in instructions.  No outcome depends on cycles, so
    nothing replays them.

    *warm* (optional) supplies a per-worker :class:`WarmProcess`, which
    skips the per-injection FHT rebuild and shares the decode cache —
    identical results, a fraction of the setup cost.  The checkpointed
    resume path that additionally skips the pre-injection instructions
    lives in :func:`repro.exec.golden.run_batch_golden`.
    """
    warm = warm or WarmProcess.from_context(context)
    persistents, transients = split_perturbation(fault)
    probe = make_probe(persistents, transients)
    simulator = FuncSim(
        context.program,
        monitor=warm.fresh_checker(context),
        fetch_hook=probe,
        inputs=context.inputs,
        max_instructions=context.instruction_budget,
        decode_cache=warm.decode_cache,
        hang_detector=context.golden_instructions,
    )
    for part in persistents:
        part.apply_to_memory(simulator.state.memory)
    return classify_run(context, fault, simulator, probe)


class FaultCampaign:
    """Run fault-injection campaigns against one program."""

    def __init__(
        self,
        program: Program,
        iht_size: int = 8,
        hash_name: str = "xor",
        policy_name: str = "lru_half",
        inputs: list[int] | None = None,
        instruction_budget_factor: int = 20,
    ):
        self.context = build_context(
            program,
            iht_size=iht_size,
            hash_name=hash_name,
            policy_name=policy_name,
            inputs=inputs,
            instruction_budget_factor=instruction_budget_factor,
        )

    @classmethod
    def from_context(cls, context: CampaignContext) -> "FaultCampaign":
        """Wrap an already-built context (skips re-running the golden run)."""
        campaign = cls.__new__(cls)
        campaign.context = context
        return campaign

    # ------------------------------------------------------------------
    # Fault generation
    # ------------------------------------------------------------------

    def random_single_bit(
        self, count: int, seed: int = 1, executed_only: bool = True
    ) -> list[BitFlipFault]:
        """Uniformly random single-bit persistent faults."""
        rng = random.Random(seed)
        pool = (
            self.context.executed_addresses
            if executed_only
            else tuple(self.context.program.text_addresses())
        )
        return [
            BitFlipFault(rng.choice(pool), (rng.randrange(32),))
            for _ in range(count)
        ]

    def random_multi_bit(
        self,
        count: int,
        flips: int,
        seed: int = 2,
        executed_only: bool = True,
        same_column: bool = False,
    ) -> list[BitFlipFault | tuple[BitFlipFault, ...]]:
        """Random *flips*-bit faults.

        With ``same_column=True`` the flips hit the same bit position of
        *flips* distinct words inside one executed basic block — the
        column-aligned pattern the XOR checksum provably cannot see.
        Multi-word faults are returned as tuples of single-word faults.
        """
        rng = random.Random(seed)
        pool = (
            self.context.executed_addresses
            if executed_only
            else tuple(self.context.program.text_addresses())
        )
        faults: list[BitFlipFault | tuple[BitFlipFault, ...]] = []
        for _ in range(count):
            if same_column:
                bit = rng.randrange(32)
                addresses = rng.sample(pool, min(flips, len(pool)))
                faults.append(
                    tuple(BitFlipFault(address, (bit,)) for address in addresses)
                )
            else:
                address = rng.choice(pool)
                bits = tuple(rng.sample(range(32), flips))
                faults.append(BitFlipFault(address, bits))
        return faults

    def exhaustive_single_bit(
        self, addresses: tuple[int, ...] | None = None
    ) -> list[BitFlipFault]:
        """Every single-bit flip over the given (default: executed) words."""
        if addresses is None:
            return ExhaustiveSingleBit().enumerate(self.context)
        return [
            BitFlipFault(address, (bit,))
            for address in addresses
            for bit in range(32)
        ]

    # ------------------------------------------------------------------
    # Execution and classification
    # ------------------------------------------------------------------

    def run_single(self, fault) -> FaultResult:
        """Inject one fault (or tuple of faults) into a monitored run."""
        return run_one(self.context, fault)

    def run_campaign(self, faults) -> CampaignReport:
        report = CampaignReport()
        for fault in faults:
            report.results.append(self.run_single(fault))
        return report
