"""Golden-trace differential replay: one checkpoint store for both simulators.

The full backend re-executes the entire workload for every injection, even
though a fault at address *A* cannot influence anything before the first
fetch of *A* — every instruction up to that point replays the pristine
("golden") run exactly.  The golden backends record the golden run **once**
per process and fork each injection at the fault instead.  This module
holds what the functional and the cycle-level backend
(:mod:`repro.exec.pipeline_golden`) share, plus the functional kernel:

1. :func:`record_store` executes the *monitored* pristine run on either
   simulator, pausing to snapshot it and the monitor (CIC registers, IHT
   rows, handler counters, policy state) on an interval that doubles as
   the run grows.  The same run records, per text address, the ordinals
   of its fetches, the text words the program reads as *data* or stores
   to, and its block trace — from which the campaign's golden reference
   is derived (:func:`~repro.faults.campaign.build_context`), so no other
   pristine run exists.  The CIC only observes the fetch stream, so the
   pristine run executes identically under every hash, IHT size,
   replacement policy and miss penalty; the monitor changes only timing,
   through OS miss handling.  :func:`pristine_recording` therefore
   records the :class:`FuncSim` run once per program and inputs in a
   process, *untimed* — no classification reads cycles — keeping a
   :class:`PristineRecording` with the fetch stream and its redirect
   points, from which the unmonitored cycles are replayed on demand;
   :func:`overlay_monitor` builds any other configuration's store from
   it without executing an instruction, by replaying only a fresh
   checker and its OS handler over that stream, each checkpoint equal to
   what an untimed :func:`record_store` would take.  No checkpoint of a
   functional store carries timing state.  The cycle-level store, whose
   timing the monitor changes cycle by cycle, is one recording per
   configuration.
2. :func:`plan_fork` plans one injection: the first fetch ordinal at
   which the perturbation can corrupt the pipeline follows directly from
   the recorded ordinals.  A perturbation that can never deliver —
   targets never fetched, never read as data — is classified ``BENIGN``
   with no simulation at all: the faulty run *is* the golden run.
3. A kernel forks the run before that ordinal, :func:`seek_transients`
   puts transient fetch counters where the golden run left them, and
   execution proceeds live through the shared
   :func:`~repro.faults.campaign.classify_run` tail.  The functional
   kernel is :func:`run_batch_golden`; a single fault is a batch of one.
   Its simulators run untimed, like the store's checkpoints they
   restore.

Soundness notes
    * Checkpoints are taken at instruction boundaries; the monitor's
      mid-block ``STA``/``RHASH`` state travels with them, so forking
      inside a basic block is exact.
    * Detection latency is a *difference* of fetch ordinals, so starting
      the probe at a checkpoint leaves it unchanged.
    * A persistent fault whose target the program reads as data — or
      stores to, overwriting the boot-time patch — could diverge before
      the first fetch; such targets (recorded in ``unsafe_words``) fork
      at zero — the full behaviour, with the warm-cache savings only.
      So do transient parts that cannot ``seek``.
    * ``HANG`` uses the same absolute instruction budget: the restored
      simulator keeps counting from the checkpoint's instruction number.

The differential tests ``tests/exec/test_golden_backend.py`` and
``tests/exec/test_batch_kernels.py`` pin ``golden ≡ full`` on outcome,
detail, and latency for every fault model and every attack class;
``tests/exec/test_monitor_overlay.py`` pins overlay stores equal to
monitored recordings, checkpoint for checkpoint.
"""

from __future__ import annotations

import pickle
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
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
from repro.isa.properties import CONTROL_FLOW
from repro.pipeline.funcsim import FuncSim, RunResult, _Scoreboard
from repro.pipeline.hazards import CycleModel
from repro.pipeline.memory import Memory
from repro.pipeline.trace import BlockTrace

#: A long recording keeps between this many and twice this many checkpoints.
DEFAULT_CHECKPOINT_COUNT = 64

#: Where the checkpoint interval starts (snapshots cost memory and copies).
MIN_CHECKPOINT_INTERVAL = 32

#: Recordings a process keeps, oldest dropped first: a sweep over every
#: workload fits, a long-lived ``repro serve`` stays bounded.
RECORDINGS_KEPT = 12


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One restore point: the simulator and the monitor, in lock step."""

    instructions: int
    #: Fetch-hook invocations at the boundary: equal to ``instructions``
    #: on :class:`FuncSim`, while the pipeline also counts the wrong-path
    #: slots it fetched and squashed.
    fetches: int
    #: A :class:`~repro.pipeline.funcsim.FuncSimSnapshot` or a
    #: :class:`~repro.pipeline.cpu.PipelineSnapshot`.
    sim: object
    checker: tuple
    handler: tuple


def _checkpoint(simulator, fetches: int) -> Checkpoint:
    sim = simulator.snapshot()
    checker = simulator.monitor
    return Checkpoint(
        sim.instructions, fetches, sim, checker.snapshot(), checker.handler.snapshot()
    )


def restore_checkpoint(simulator, checkpoint: Checkpoint) -> None:
    """Rewind (or fast-forward) *simulator* and its monitor to *checkpoint*.

    The restores are complete — every mutable field of either simulator,
    the checker, and the OS handler is covered by the snapshot protocol
    (``tests/pipeline/test_snapshot.py``) — so a simulator that just
    finished (or crashed out of) another injection is indistinguishable
    from a fresh one.
    """
    simulator.restore(checkpoint.sim)
    simulator.monitor.restore(checkpoint.checker)
    simulator.monitor.handler.restore(checkpoint.handler)


class _StreamRecorder:
    """Fetch hook for the recording run: the fetch stream, every fetched
    address and word in order."""

    __slots__ = ("addresses", "words")

    def __init__(self) -> None:
        self.addresses = array("I")
        self.words = array("I")

    def __call__(self, address: int, word: int) -> int:
        self.addresses.append(address)
        self.words.append(word)
        return word

    @property
    def fetches(self) -> int:
        return len(self.addresses)

    def fetch_ordinals(self) -> dict[int, list[int]]:
        ordinals: dict[int, list[int]] = {}
        for ordinal, address in enumerate(self.addresses, 1):
            ordinals.setdefault(address, []).append(ordinal)
        return ordinals


class _RedirectLog:
    """Redirect hook of an untimed recording: the fetch ordinal of every
    instruction that redirects fetch (a taken branch or any jump)."""

    __slots__ = ("_simulator", "ordinals")

    def __init__(self, simulator: FuncSim) -> None:
        self._simulator = simulator
        self.ordinals = array("I")

    def __call__(self) -> None:
        self.ordinals.append(self._simulator.fetch_hook.fetches)


class _ReadRecordingMemory(Memory):
    """Memory that records data accesses landing inside the text segment.

    Word-read counts in excess of the fetch count, and any half/byte
    read, identify text words the program consumes as *data* — a
    persistent fault there can act before its first fetch.  Text words
    the program *stores to* are recorded too: a store between instruction
    zero and the fork point would overwrite a patch the full backend
    applied at boot, so such targets must fork at checkpoint 0.
    """

    def __init__(self, base: Memory, text_start: int, text_end: int) -> None:
        super().__init__()
        self._pages = base._pages
        self._lo = text_start
        self._hi = text_end
        self.word_reads: dict[int, int] = {}
        self.touched_words: set[int] = set()

    def read_word(self, address: int) -> int:
        if self._lo <= address < self._hi:
            self.word_reads[address] = self.word_reads.get(address, 0) + 1
        return super().read_word(address)

    def read_half(self, address: int, signed: bool = False) -> int:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        return super().read_half(address, signed)

    def read_byte(self, address: int, signed: bool = False) -> int:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        return super().read_byte(address, signed)

    def read_bytes(self, address: int, length: int) -> bytes:
        first = max(self._lo, address & ~3)
        last = min(self._hi, address + length)
        for word in range(first, last, 4):
            self.touched_words.add(word)
        return super().read_bytes(address, length)

    def write_word(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address)
        super().write_word(address, value)

    def write_half(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        super().write_half(address, value)

    def write_byte(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        super().write_byte(address, value)


@dataclass(slots=True)
class GoldenStore:
    """Everything one worker needs to fork injections at the fault."""

    context: CampaignContext
    warm: WarmProcess
    checkpoints: list[Checkpoint]
    #: 1-based fetch ordinals at which each address was fetched — in
    #: fetch-sequence space, which on :class:`FuncSim` is instruction
    #: space.
    fetch_ordinals: dict[int, tuple[int, ...]]
    #: Text words the golden run reads as data or stores to — persistent
    #: faults on these fork at zero (full behaviour).
    unsafe_words: frozenset[int]
    golden_instructions: int
    interval: int
    #: Measured cycles of the monitored pristine run — the quantity the
    #: analytic Table-1 accounting predicts.  Only the cycle-level
    #: recording sets it.
    golden_cycles: int | None = None
    #: The recorded run: console, exit code, instruction count and block
    #: trace.  Its cycles are the recording configuration's on the
    #: pipeline and ``None`` on the untimed :class:`FuncSim`.
    result: RunResult | None = None
    #: Fetch counts of ``checkpoints``, for bisection.
    _marks: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._marks = [checkpoint.fetches for checkpoint in self.checkpoints]

    def checkpoint_before(self, ordinal: int) -> Checkpoint:
        """The latest checkpoint strictly before fetch *ordinal* fires."""
        index = bisect_right(self._marks, ordinal - 1) - 1
        return self.checkpoints[max(index, 0)]

    def fetch_counts_at(self, fetches: int, addresses) -> dict[int, int]:
        """Golden fetches of each address among the first *fetches*."""
        counts: dict[int, int] = {}
        for address in addresses:
            ordinals = self.fetch_ordinals.get(address)
            if ordinals:
                counts[address] = bisect_right(ordinals, fetches)
        return counts


def record_store(
    context: CampaignContext,
    warm: WarmProcess,
    interval: int | None,
    simulator,
    label: str,
) -> GoldenStore:
    """Record the monitored golden run of *simulator* with checkpoints.

    *simulator* is a freshly booted, monitored :class:`FuncSim` or
    :class:`~repro.pipeline.cpu.PipelineCPU`; *label* names the
    ``<label>.record`` span and the recording counters.  With no
    *interval*, every other checkpoint goes and the interval doubles
    whenever they pass twice the default count.  A *context* with a
    golden reference is checked against the run, and the simulator's
    fetch hook is left holding the fetch stream.
    """
    thinning = interval is None
    if thinning:
        interval = MIN_CHECKPOINT_INTERVAL
    if interval < 1:
        raise ConfigurationError(f"checkpoint interval must be >= 1: {interval}")
    recorder = _StreamRecorder()
    with obs.span(f"{label}.record"):
        simulator.fetch_hook = recorder
        memory = _ReadRecordingMemory(
            simulator.state.memory,
            context.program.text_start,
            context.program.text_end,
        )
        simulator.state.memory = memory
        checkpoints = [_checkpoint(simulator, 0)]
        trace = BlockTrace()
        while True:
            simulator._trace = trace  # attached only while it runs
            result = simulator.run(until=checkpoints[-1].instructions + interval)
            simulator._trace = None
            if result.finished:
                break
            checkpoint = _checkpoint(simulator, recorder.fetches)
            # Pages no instruction wrote since the last checkpoint are shared.
            pages, last = checkpoint.sim.arch.pages, checkpoints[-1].sim.arch.pages
            pages.update([(n, last[n]) for n, p in pages.items() if last.get(n) == p])
            checkpoints.append(checkpoint)
            if thinning and len(checkpoints) > 2 * DEFAULT_CHECKPOINT_COUNT:
                del checkpoints[1::2]
                interval *= 2
    if context.golden_instructions and (
        result.console != context.golden_console
        or result.exit_code != context.golden_exit
    ):
        raise ConfigurationError(
            "monitored golden run diverged from the recorded reference"
        )
    ordinals = recorder.fetch_ordinals()
    unsafe = set(memory.touched_words)
    for address, reads in memory.word_reads.items():
        if reads > len(ordinals.get(address, ())):
            unsafe.add(address)
    obs.count(f"{label}.stores_recorded")
    obs.count(f"{label}.checkpoints", len(checkpoints))
    return GoldenStore(
        context=context,
        warm=warm,
        checkpoints=checkpoints,
        fetch_ordinals={
            address: tuple(seen) for address, seen in ordinals.items()
        },
        unsafe_words=frozenset(unsafe),
        golden_instructions=result.instructions,
        interval=interval,
        # Measured by the cycle-level pipeline; FuncSim keeps no count.
        golden_cycles=getattr(simulator, "cycles", None),
        result=result,
    )


#: Recordings by :func:`kept` key, oldest first.  Each call on it is atomic;
#: threads that record one key at once each record it, equally.
_RECORDINGS: OrderedDict[tuple, object] = OrderedDict()


def kept(context: CampaignContext, record, *key):
    """The recording of *context*'s program and inputs under *key*, made
    by ``record()`` the first time this process asks for it."""
    program = context.program
    image = pickle.dumps((program.entry, program.text, program.data))
    key = (image, tuple(context.inputs or ()), *key)
    recording = _RECORDINGS.get(key)
    if recording is None:
        recording = _RECORDINGS[key] = record()
        while len(_RECORDINGS) > RECORDINGS_KEPT:
            _RECORDINGS.popitem(last=False)
    return recording


@dataclass(slots=True)
class PristineRecording:
    """The golden run of one program and its inputs, as every monitor
    configuration sees it: nothing an overlay reads here depends on the
    monitor."""

    #: The recording configuration's store; an overlay keeps its
    #: architected state, fetch ordinals and unsafe words.
    store: GoldenStore
    #: The fetch stream: per executed instruction, an index into ``ops``.
    stream: array
    #: Distinct stream entries ``(address, word, instruction, ends_block,
    #: redirected)``: a conditional branch appears once taken and once
    #: not, a word the program overwrote once per value fetched.
    ops: list[tuple]

    def unmonitored_cycles(self) -> int:
        """:class:`FuncSim`'s scoreboard replayed over the stream with no
        monitor charge: the cycles of the run with no monitor attached."""
        scoreboard = _Scoreboard(CycleModel())
        for op in self.stream:
            _address, _word, instruction, _ends, redirected = self.ops[op]
            scoreboard.issue(instruction)
            if redirected:
                scoreboard.redirect()
        return scoreboard.total_cycles()


def pristine_recording(
    context: CampaignContext,
    warm: WarmProcess | None = None,
    interval: int | None = None,
) -> PristineRecording:
    """The process's one :class:`FuncSim` recording of *context*'s program
    and inputs (at *interval*), monitored by the first to ask for it.

    Costs one monitored run, bounded by the simulator's own cap since the
    budget derives from it, the snapshot copies, and one pass that indexes
    the fetch stream.
    """

    def record() -> PristineRecording:
        caches = warm or WarmProcess.from_context(context)
        simulator = FuncSim(
            context.program,
            monitor=caches.fresh_checker(context),
            inputs=context.inputs,
            decode_cache=caches.decode_cache,
            timed=False,
        )
        # Only timing shows a taken branch to the next instruction, so
        # the untimed run notes every redirect for the cycle replay.
        redirects = _RedirectLog(simulator)
        simulator._on_redirect = redirects
        store = record_store(context, caches, interval, simulator, "golden")
        recorder = simulator.fetch_hook
        redirected = bytearray(recorder.fetches + 1)
        for ordinal in redirects.ordinals:
            redirected[ordinal] = 1
        # Number each distinct (address, word, redirected) in order of
        # first fetch; every word fetched is in the decode cache by now.
        index: dict[tuple[int, int, int], int] = {}
        stream = array(
            "I",
            (
                index.setdefault(entry, len(index))
                for entry in zip(
                    recorder.addresses, recorder.words, redirected[1:]
                )
            ),
        )
        decoded = caches.decode_cache
        ops = [
            (
                address,
                word,
                decoded[word],
                decoded[word].mnemonic in CONTROL_FLOW,
                bool(taken),
            )
            for address, word, taken in index
        ]
        return PristineRecording(store, stream, ops)

    return kept(context, record, interval)


def overlay_monitor(
    pristine: PristineRecording, context: CampaignContext, warm: WarmProcess
) -> GoldenStore:
    """*context*'s monitor configuration laid over *pristine*.

    Replays a fresh checker and its OS handler over the fetch stream, in
    the order :meth:`FuncSim.run` drives them, and checkpoints them
    beside the simulator state of every pristine checkpoint, which no
    monitor changes on an untimed run.  The stream runs to its end, so a
    monitor that would stop the pristine run raises here as it would in
    a monitored recording.
    """
    checker = warm.fresh_checker(context)
    handler = checker.handler
    fold = checker.on_instruction
    check = checker.on_block_end
    ops = pristine.ops
    stream = pristine.stream
    checkpoints: list[Checkpoint] = []
    done = 0
    with obs.span("golden.overlay"):
        for recorded in (*pristine.store.checkpoints, None):
            mark = len(stream) if recorded is None else recorded.instructions
            for op in stream[done:mark]:
                address, word, _instruction, ends_block, _redirected = ops[op]
                fold(address, word)
                if ends_block:
                    check(address)
            done = mark
            if recorded is not None:
                checkpoints.append(
                    Checkpoint(
                        mark, mark, recorded.sim, checker.snapshot(), handler.snapshot()
                    )
                )
    obs.count("golden.stores_overlaid")
    obs.count("golden.checkpoints", len(checkpoints))
    return replace(pristine.store, context=context, warm=warm, checkpoints=checkpoints)


def build_golden_store(
    context: CampaignContext,
    warm: WarmProcess | None = None,
    interval: int | None = None,
) -> GoldenStore:
    """The :class:`FuncSim` store of *context*: the checkpoints of the
    program's one recording (:func:`pristine_recording`), with *context*'s
    monitor overlaid (:func:`overlay_monitor`) unless it is the
    recording's own."""
    warm = warm or WarmProcess.from_context(context)
    pristine = pristine_recording(context, warm, interval)
    if pristine.store.context.monitor != context.monitor:
        return overlay_monitor(pristine, context, warm)
    obs.count("golden.stores_reused")
    return replace(pristine.store, context=context, warm=warm)


def plan_fork(store: GoldenStore, fault) -> tuple[tuple, tuple, int] | None:
    """Plan one injection: ``(persistents, transients, delivery)``.

    *delivery* is the first golden fetch ordinal at which any part
    corrupts the pipeline.  Until then the faulty run and the golden run
    are identical by construction, so ordinals read off the recording are
    exact for the faulty run too.  Unsafe targets and transient parts
    that cannot ``seek`` fork at zero, which is delivery ordinal 1.
    ``None`` means no part can ever deliver and no data read sees the
    corruption: the faulty run replays the golden run to completion.
    """
    persistents, transients = split_perturbation(fault)
    delivery: int | None = None
    for part in persistents:
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address)
            if ordinals and (delivery is None or ordinals[0] < delivery):
                delivery = ordinals[0]
    for part in transients:
        occurrence = getattr(part, "occurrence", 1)
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address, ())
            if len(ordinals) >= occurrence and (
                delivery is None or ordinals[occurrence - 1] < delivery
            ):
                delivery = ordinals[occurrence - 1]
    unsafe = any(
        address in store.unsafe_words
        for part in persistents
        for address in part.target_addresses()
    )
    if unsafe or (
        delivery is not None
        and not all(hasattr(part, "seek") for part in transients)
    ):
        delivery = 1
    if delivery is None:
        return None
    return persistents, transients, delivery


def seek_transients(store: GoldenStore, transients, fetches: int) -> None:
    """Put transient fetch counters where the golden run left them after
    its first *fetches* fetches.

    At the fork the faulty run is still pristine, so the recording's
    per-address fetch counts are exact for it.  A fork at zero — the only
    fork a part that cannot ``seek`` gets — keeps the counters
    :func:`~repro.faults.campaign.make_probe` reset.
    """
    if not fetches:
        return
    counts = store.fetch_counts_at(
        fetches,
        [address for part in transients for address in part.target_addresses()],
    )
    for part in transients:
        part.seek(counts)


def run_batch_golden(store: GoldenStore, faults) -> list[FaultResult]:
    """Classify a batch of injections on :class:`FuncSim`.

    Element for element the identical :class:`FaultResult` (outcome,
    detail, and detection latency) as ``run_one(store.context, fault)``
    — the differential tests pin this — but built for throughput:

    * **Prefix sharing.**  Faults are planned (:func:`plan_fork`) and
      executed in delivery order.  One *advancer* simulator replays the
      monitored pristine run forward, jumping via the nearest store
      checkpoint whenever that is ahead of its position, and parks
      exactly one instruction before each fault's first corrupted fetch
      (a :class:`FuncSim` fetch ordinal is an instruction ordinal).
      Faults delivered at the same ordinal share one micro-snapshot, and
      nearby fork points reuse the advanced prefix instead of re-running
      it from the last coarse checkpoint (the dominant cost of per-fault
      forking at small checkpoint budgets).
    * **Object reuse.**  One runner simulator and one checker serve the
      whole batch; per fault they are restored from the micro-snapshot
      (:func:`restore_checkpoint`), so per-injection allocation drops
      out of the hot loop.

    Soundness: until the delivery ordinal the faulty run *is* the golden
    run, so parking the fork at ``delivery - 1`` changes nothing the
    classification can observe; detection latency is a fetch-ordinal
    difference and is fork-point invariant.  A fork at zero (delivery 1)
    parks at instruction zero.
    """
    context = store.context
    results: list[FaultResult | None] = [None] * len(faults)
    planned: list[tuple[int, object, tuple, tuple, int]] = []
    for index, fault in enumerate(faults):
        plan = plan_fork(store, fault)
        if plan is None:
            obs.count("golden.benign_free")
            results[index] = FaultResult(fault, Outcome.BENIGN, "")
        else:
            planned.append((index, fault, *plan))
    if not planned:
        return results
    planned.sort(key=lambda plan: plan[4])

    advancer = FuncSim(
        context.program,
        monitor=store.warm.fresh_checker(context),
        max_instructions=context.instruction_budget,
        decode_cache=store.warm.decode_cache,
        timed=False,
    )
    position = -1  # the advancer's instruction count; -1 until restored
    runner = FuncSim(
        context.program,
        monitor=store.warm.fresh_checker(context),
        max_instructions=context.instruction_budget,
        decode_cache=store.warm.decode_cache,
        hang_detector=context.golden_instructions,
        timed=False,
    )

    micro: Checkpoint | None = None
    for index, fault, persistents, transients, delivery in planned:
        obs.count("golden.batch.fork")
        fork = delivery - 1
        if micro is None or micro.instructions != fork:
            checkpoint = store.checkpoint_before(delivery)
            if checkpoint.instructions > position:
                # A coarse checkpoint is ahead of the advancer: jumping
                # beats replaying, and keeps the batch no slower than
                # per-fault forking.
                restore_checkpoint(advancer, checkpoint)
                position = checkpoint.instructions
            # Prefix accounting: per-fault forking would replay from the
            # coarse checkpoint every time; the advancer replays only the
            # gap from wherever it already stands.
            replayed = fork - position
            if replayed:
                advancer.run(until=fork)
                position = fork
            obs.count("golden.batch.micro_snapshots")
            obs.count("golden.batch.prefix_replayed", replayed)
            obs.count(
                "golden.batch.prefix_saved",
                fork - checkpoint.instructions - replayed,
            )
            micro = _checkpoint(advancer, fork)
        else:
            obs.count("golden.batch.micro_reuse")
        probe = make_probe(persistents, transients)
        runner.fetch_hook = probe
        restore_checkpoint(runner, micro)
        seek_transients(store, transients, fork)
        for part in persistents:
            part.apply_to_memory(runner.state.memory)
        results[index] = classify_run(context, fault, runner, probe)
    return results
