"""Functional instruction-set simulator, timed by a scoreboard replay.

``FuncSim`` executes instructions one at a time against the architected
state and keeps no timing.  :func:`replay_cycles` replays the 5-stage
pipeline's timing exactly over what a run executed: :func:`run_timed`
feeds it a live run, :meth:`repro.exec.golden.PristineRecording.cycles`
the recorded fetch stream.  Together they are the golden model: the
cycle-level :class:`~repro.pipeline.cpu.PipelineCPU` must produce the same
final state, console output, block trace, *and cycle count* — asserted by
the differential tests.

The scoreboard keeps two timelines per instruction, mirroring the stage
machine:

* ``id_t`` — the cycle the instruction is processed by the decode stage
  (leaves the IF/ID latch).  Branch operand reads, load-use interlocks,
  HI/LO interlocks and trap serialization constrain this time.
* ``issue_t`` — the cycle the instruction is consumed by EX.  The ID/EX
  latch holds an instruction until EX is free, so
  ``issue_t = max(id_t + 1, ex_free)``.

Monitoring costs (the flat 100-cycle OS handling of a hash miss) land at
``id_t`` — the ID stage is where the CIC's exception fires (Figure 4) — and
push the instruction's own issue and everything behind it.

A monitor object (usually :class:`repro.cic.checker.CodeIntegrityChecker`)
may be attached; it observes fetched words and block ends *at the ID stage,
before the instruction executes*, exactly like the pipeline.

Only Table 1's overhead reads cycles in the paper; the recording, both
functional fault kernels and workload verification replay none.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from repro.errors import BudgetExceeded, MemoryAccessError, SimulationError
from repro.asm.program import Program
from repro.pipeline import semantics
from repro.pipeline.hazards import CycleModel
from repro.pipeline.snapshot import (
    ArchSnapshot,
    SyscallSnapshot,
    restore_arch,
    restore_syscalls,
    snapshot_arch,
    snapshot_syscalls,
)
from repro.pipeline.state import ArchState
from repro.pipeline.syscalls import SyscallHandler
from repro.pipeline.trace import BlockTrace
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Mnemonic
from repro.isa.properties import BRANCHES, CONTROL_FLOW, INDIRECT_JUMPS

FetchHook = Callable[[int, int], int]

#: Instructions :func:`run_timed` runs between replays, bounding what it holds.
TIMED_SLICE = 1 << 16


class Monitor(Protocol):
    """Interface the simulators expect from an attached integrity monitor."""

    def on_instruction(self, address: int, word: int) -> None:
        """Observe one fetched instruction (the IF-stage microoperations)."""

    def on_block_end(self, end_address: int) -> int:
        """Check the block ending at *end_address*; return extra OS cycles."""


@dataclass(slots=True)
class RunResult:
    """Everything a finished (or paused) simulation reports."""

    #: ``None`` from :meth:`FuncSim.run`; :func:`run_timed` fills it.
    cycles: int | None
    instructions: int
    exit_code: int
    console: str
    block_trace: BlockTrace | None = None
    #: Populated by the monitor, if one was attached.
    monitor_stats: object | None = None
    #: False when ``run(until=k)`` paused before the program exited.
    finished: bool = True


@dataclass(slots=True)
class _Scoreboard:
    """Dual-timeline (ID / issue) model of the 5-stage pipeline.

    Per-register constraint times:

    * ``avail_id[r]`` — earliest ``id_t`` of a consumer that reads ``r`` in
      ID (branches and indirect jumps): producer's EX result reaches the
      EX/MEM→ID bypass one cycle after issue (ALU), or the MEM/WB path two
      cycles after issue (loads).
    * ``load_guard[r]`` — earliest ``id_t`` of an EX-stage reader after a
      *load* producer (the classic load-use interlock, enforced in ID).
    """

    model: CycleModel
    avail_id: list[int] = field(default_factory=lambda: [0] * 32)
    load_guard: list[int] = field(default_factory=lambda: [0] * 32)
    hilo_commit: int = 0
    ex_free: int = 0
    prev_issue: int = 0
    fetch_ready: int = 2  # first instruction decodes in cycle 2
    last_id: int = 0
    last_issue: int = 0

    def issue(self, instruction: Instruction, monitor_extra: int = 0) -> None:
        """Advance the timeline by one instruction."""
        model = self.model
        id_t = self.fetch_ready
        if self.prev_issue > id_t:
            id_t = self.prev_issue
        m = instruction.mnemonic
        if m in BRANCHES or m in INDIRECT_JUMPS:
            for source in instruction.source_registers():
                if self.avail_id[source] > id_t:
                    id_t = self.avail_id[source]
        elif m is Mnemonic.MFHI or m is Mnemonic.MFLO:
            if self.hilo_commit > id_t:
                id_t = self.hilo_commit
        elif instruction.is_store():
            # Address register is read at EX; data register only at MEM,
            # where the register file already reflects every prior WB.
            if self.load_guard[instruction.rs] > id_t:
                id_t = self.load_guard[instruction.rs]
        else:
            for source in instruction.source_registers():
                if self.load_guard[source] > id_t:
                    id_t = self.load_guard[source]
        id_used = id_t + monitor_extra
        issue_t = id_used + 1
        if self.ex_free > issue_t:
            issue_t = self.ex_free
        destination = instruction.destination_register()
        if destination is not None:
            if instruction.is_load():
                self.avail_id[destination] = issue_t + 2
                self.load_guard[destination] = issue_t + 1
            else:
                self.avail_id[destination] = issue_t + 1
                self.load_guard[destination] = 0
        if m is Mnemonic.MULT or m is Mnemonic.MULTU:
            self.ex_free = issue_t + 1 + model.mult_latency
            self.hilo_commit = issue_t + model.mult_latency
        elif m is Mnemonic.DIV or m is Mnemonic.DIVU:
            self.ex_free = issue_t + 1 + model.div_latency
            self.hilo_commit = issue_t + model.div_latency
        else:
            self.ex_free = issue_t + 1
        if m is Mnemonic.SYSCALL:
            # Traps serialize: the next instruction decodes only after the
            # trap has written back (depth - 2 cycles after its ID).
            self.fetch_ready = id_used + model.depth - 2
        else:
            self.fetch_ready = id_used + 1
        self.prev_issue = issue_t
        self.last_id = id_used
        self.last_issue = issue_t

    def redirect(self) -> None:
        """A taken control transfer squashes the in-flight fetch slot."""
        self.fetch_ready = self.last_id + 1 + self.model.redirect_penalty

    def total_cycles(self) -> int:
        """Cycles until the last issued instruction completes WB."""
        return self.last_issue + self.model.depth - 3


def replay_cycles(
    steps: Iterable[tuple[Instruction, int, int]],
    cycle_model: CycleModel | None = None,
) -> int:
    """The cycles of *steps* from an empty pipeline: the scoreboard's
    one driver.  A step per executed instruction, in order, is
    ``(instruction, OS cycles charged at its ID stage, redirected)``."""
    scoreboard = _Scoreboard(cycle_model or CycleModel())
    issue = scoreboard.issue
    redirect = scoreboard.redirect
    for instruction, extra, redirected in steps:
        issue(instruction, extra)
        if redirected:
            redirect()
    return scoreboard.total_cycles()


@dataclass(frozen=True, slots=True)
class FuncSimSnapshot:
    """A paused :class:`FuncSim` at an instruction boundary.

    Contains everything a fresh simulator needs to continue the run
    bit-for-bit: architected state, syscall progress, the open basic
    block, and the trace so far.
    """

    instructions: int
    arch: ArchSnapshot
    syscalls: SyscallSnapshot
    block_start: int | None
    trace: tuple[tuple[int, int], ...]
    finished: bool = False
    exit_code: int = 0


class FuncSim:
    """Functional ISS: executes and monitors; :func:`run_timed` times it.

    Parameters
    ----------
    program:
        The assembled image to execute.
    cycle_model:
        Pipeline latency parameters :func:`run_timed` replays the run with
        (defaults to the paper's single-issue in-order configuration).
    monitor:
        Optional integrity monitor (duck-typed :class:`Monitor`).
    fetch_hook:
        Optional transform applied to every fetched word — models transient
        faults on the memory-to-processor transfer path, which the paper's
        in-pipeline monitor catches but a cache-resident checker would not.
    collect_trace:
        Record the dynamic basic-block trace for trace-driven replay.
    decode_cache:
        Optional shared word→instruction decode cache.  Decoding depends
        only on the word, so campaign workers pass one dict across every
        injection instead of re-decoding the program per run.
    hang_detector:
        ``None`` (default) disables it; an integer arms a PC-set cycling
        detector once that many instructions have executed.  When an armed
        run revisits an identical architected state ``(pc, regs, hi, lo)``
        at a control transfer — with no store, syscall, or still-pending
        transient fetch transform since the first visit — the machine is
        provably in a loop it can never leave, and the simulator raises
        the same :class:`~repro.errors.BudgetExceeded` the budget path
        would, without burning the remaining budget.  Campaign kernels
        arm it at the golden run's instruction count so pristine-length
        runs never pay the per-redirect bookkeeping.
    """

    def __init__(
        self,
        program: Program,
        cycle_model: CycleModel | None = None,
        monitor: Monitor | None = None,
        fetch_hook: FetchHook | None = None,
        collect_trace: bool = False,
        inputs: list[int] | None = None,
        max_instructions: int = 50_000_000,
        decode_cache: dict[int, Instruction] | None = None,
        hang_detector: int | None = None,
    ):
        self.program = program
        self.cycle_model = cycle_model or CycleModel()
        self.monitor = monitor
        self.fetch_hook = fetch_hook
        self.collect_trace = collect_trace
        self.max_instructions = max_instructions
        self.state = ArchState.boot(program)
        self.syscalls = SyscallHandler()
        if inputs:
            self.syscalls.inputs.extend(inputs)
        self._decode_cache: dict[int, Instruction] = (
            decode_cache if decode_cache is not None else {}
        )
        self._text_start = program.text_start
        self._text_end = program.text_end
        #: Called after every block-ending instruction with the OS cycles
        #: its check charged and whether it redirected fetch (timing only).
        self._on_block_end: Callable[[int, bool], None] | None = None
        # Resumable run state: run(until=k) pauses here, snapshot()/
        # restore() move it across simulator instances.
        self._trace = BlockTrace() if collect_trace else None
        self._block_start: int | None = None
        self._executed = 0
        self._finished = False
        self._exit_code = 0
        self.hang_detector = hang_detector
        #: States seen at control transfers since the last side effect.
        self._loop_seen: dict[tuple, int] = {}

    def _fetch(self, address: int) -> int:
        # Instruction fetch outside the text segment is a bus-error machine
        # check — the baseline detection that stops run-off execution (e.g.
        # after a fault removed the program's final control transfer).
        if not self._text_start <= address < self._text_end:
            raise MemoryAccessError(
                f"instruction fetch outside text segment at {address:#010x}",
                pc=address,
            )
        word = self.state.memory.read_word(address)
        if self.fetch_hook is not None:
            word = self.fetch_hook(address, word)
        return word

    def _decode(self, word: int, address: int) -> Instruction:
        cached = self._decode_cache.get(word)
        if cached is None:
            cached = decode(word, address)
            self._decode_cache[word] = cached
        return cached

    def run(self, until: int | None = None) -> RunResult:
        """Execute until the program exits; return the :class:`RunResult`.

        With ``until=k`` the simulator pauses once *k* instructions (in
        total, across all ``run`` calls) have executed and returns a
        partial result with ``finished=False``; calling ``run`` again
        continues exactly where it paused.
        """
        state = self.state
        monitor = self.monitor
        on_block_end = self._on_block_end
        trace = self._trace
        block_start = self._block_start
        executed = self._executed
        try:
            while not self._finished:
                if until is not None and executed >= until:
                    break
                if executed >= self.max_instructions:
                    raise BudgetExceeded(
                        f"instruction limit {self.max_instructions} exceeded",
                        pc=state.pc,
                    )
                pc = state.pc
                word = self._fetch(pc)
                instruction = self._decode(word, pc)
                executed += 1
                if block_start is None:
                    block_start = pc
                # Monitoring happens at the ID stage, before execution — a
                # mismatch stops the flow-control instruction from executing.
                if monitor is not None:
                    monitor.on_instruction(pc, word)
                ends_block = instruction.mnemonic in CONTROL_FLOW
                if ends_block:
                    if trace is not None:
                        trace.append(block_start, pc)
                    block_start = None
                    extra = 0 if monitor is None else monitor.on_block_end(pc)
                redirected, exited, exit_code = self._execute(instruction, pc)
                if ends_block and on_block_end is not None:
                    on_block_end(extra, redirected)
                if exited:
                    self._finished = True
                    self._exit_code = exit_code
                elif (
                    self.hang_detector is not None
                    and executed >= self.hang_detector
                ):
                    # Before the arming threshold the state table is
                    # provably empty, so the unarmed fast path is one
                    # integer compare.
                    self._check_loop(instruction, redirected, executed)
        finally:
            self._block_start = block_start
            self._executed = executed
        return RunResult(
            cycles=None,
            instructions=executed,
            exit_code=self._exit_code,
            console=self.syscalls.console_text,
            block_trace=trace,
            monitor_stats=getattr(monitor, "stats", None),
            finished=self._finished,
        )

    def _check_loop(
        self, instruction: Instruction, redirected: bool, executed: int
    ) -> None:
        """Armed hang detection: declare HANG on exact state recurrence.

        Sound by construction: if the full state ``(pc, regs, hi, lo)``
        recurs at a control transfer, memory is untouched since the first
        visit (any store clears the table), no syscall consumed input or
        produced output (syscalls clear it too), and the fetch path is a
        pure function of memory (no transient transform still pending),
        then execution from the second visit replays the interval between
        the visits verbatim, forever.  The monitor cannot intervene later
        either — a violation depends only on the fetched words, which
        repeat exactly, so it would already have fired inside the first
        period.  The run therefore exceeds *any* instruction budget, and
        raising the budget error early classifies identically.
        """
        seen = self._loop_seen
        mnemonic = instruction.mnemonic
        if mnemonic is Mnemonic.SYSCALL or instruction.is_store():
            if seen:
                seen.clear()
            return
        if not redirected:
            return
        hook = self.fetch_hook
        if hook is not None:
            hook_pending = getattr(hook, "pending", None)
            if hook_pending is None or hook_pending():
                return
        state = self.state
        key = (state.pc, state.hi, state.lo, tuple(state.regs))
        if key in seen:
            raise BudgetExceeded(
                f"instruction limit {self.max_instructions} exceeded",
                pc=state.pc,
            )
        if len(seen) >= 65_536:  # bound the table on pathological runs
            seen.clear()
        seen[key] = executed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> FuncSimSnapshot:
        """Capture the paused simulation at its current instruction.

        The monitor, if any, is *not* included — snapshot it separately
        (``CodeIntegrityChecker.snapshot()``) alongside this one.
        """
        return FuncSimSnapshot(
            instructions=self._executed,
            arch=snapshot_arch(self.state),
            syscalls=snapshot_syscalls(self.syscalls),
            block_start=self._block_start,
            trace=(
                tuple(event.key for event in self._trace)
                if self._trace is not None
                else ()
            ),
            finished=self._finished,
            exit_code=self._exit_code,
        )

    def restore(self, snapshot: FuncSimSnapshot) -> None:
        """Rewind (or fast-forward) this simulator to *snapshot*."""
        # States observed before the move are not on the restored path.
        self._loop_seen.clear()
        restore_arch(self.state, snapshot.arch)
        restore_syscalls(self.syscalls, snapshot.syscalls)
        self._block_start = snapshot.block_start
        self._executed = snapshot.instructions
        if self._trace is not None:
            self._trace.events.clear()
            for start, end in snapshot.trace:
                self._trace.append(start, end)
        self._finished = snapshot.finished
        self._exit_code = snapshot.exit_code

    def _execute(
        self, instruction: Instruction, pc: int
    ) -> tuple[bool, bool, int]:
        """Apply architected semantics; return (redirected, exited, code)."""
        state = self.state
        m = instruction.mnemonic
        next_pc = (pc + 4) & 0xFFFFFFFF
        redirected = False
        if m is Mnemonic.SYSCALL:
            result = self.syscalls.execute(state)
            if result.exited:
                state.pc = next_pc
                return False, True, result.exit_code
        elif m is Mnemonic.BREAK:
            raise SimulationError(f"break {instruction.code}", pc=pc)
        elif m in BRANCHES:
            rs_value = state.read_reg(instruction.rs)
            rt_value = state.read_reg(instruction.rt)
            if semantics.branch_taken(instruction, rs_value, rt_value):
                next_pc = semantics.control_target(instruction, pc, rs_value)
                redirected = True
        elif m is Mnemonic.J:
            next_pc = semantics.control_target(instruction, pc, 0)
            redirected = True
        elif m is Mnemonic.JAL:
            state.write_reg(31, semantics.link_value(pc))
            next_pc = semantics.control_target(instruction, pc, 0)
            redirected = True
        elif m is Mnemonic.JR:
            next_pc = state.read_reg(instruction.rs)
            redirected = True
        elif m is Mnemonic.JALR:
            target = state.read_reg(instruction.rs)
            state.write_reg(instruction.rd, semantics.link_value(pc))
            next_pc = target
            redirected = True
        elif m is Mnemonic.MFHI:
            state.write_reg(instruction.rd, state.hi)
        elif m is Mnemonic.MFLO:
            state.write_reg(instruction.rd, state.lo)
        elif m is Mnemonic.MTHI:
            state.hi = state.read_reg(instruction.rs)
        elif m is Mnemonic.MTLO:
            state.lo = state.read_reg(instruction.rs)
        else:
            rs_value = state.read_reg(instruction.rs)
            rt_value = state.read_reg(instruction.rt)
            hilo = semantics.muldiv_result(instruction, rs_value, rt_value)
            if hilo is not None:
                state.hi, state.lo = hilo
            else:
                result = semantics.alu_result(instruction, rs_value, rt_value)
                if instruction.is_load():
                    value = semantics.load_value(instruction, state.memory, result)
                    state.write_reg(instruction.rt, value)
                elif instruction.is_store():
                    semantics.store_value(
                        instruction, state.memory, result, rt_value
                    )
                elif result is not None:
                    destination = instruction.destination_register()
                    if destination is not None:
                        state.write_reg(destination, result)
        state.pc = next_pc & 0xFFFFFFFF
        return redirected, False, 0


def run_timed(simulator: FuncSim) -> RunResult:
    """Run *simulator* to its end, with the cycles :func:`replay_cycles`
    gives what it executed under its cycle model, from an empty pipeline.

    Replays every :data:`TIMED_SLICE` instructions.  A run that raises
    propagates; the simulator gets its fetch and block-end hooks back.
    """
    inner, block_end_hook = simulator.fetch_hook, simulator._on_block_end
    words = array("I")
    ends = array("q")  # per block end: OS cycles << 1 | redirected

    def fetch(address: int, word: int) -> int:
        if inner is not None:
            word = inner(address, word)
        words.append(word)
        return word

    def steps():
        # The decode cache, not _decode: a profiler times that per call.
        decoded = simulator._decode_cache
        while not simulator._finished:
            simulator.run(until=simulator._executed + TIMED_SLICE)
            block_ends = iter(ends)
            for word in words:
                instruction = decoded[word]
                if instruction.mnemonic in CONTROL_FLOW:
                    end = next(block_ends)
                    yield instruction, end >> 1, end & 1
                else:
                    yield instruction, 0, 0
            del words[:], ends[:]

    simulator.fetch_hook = fetch
    simulator._on_block_end = lambda extra, jump: ends.append(extra << 1 | jump)
    try:
        cycles = replay_cycles(steps(), simulator.cycle_model)
    finally:
        simulator.fetch_hook, simulator._on_block_end = inner, block_end_hook
    result = simulator.run()  # finished: executes nothing
    result.cycles = cycles
    return result


def run_program(program: Program, **options) -> RunResult:
    """One timed run (:func:`run_timed`) of a fresh :class:`FuncSim` of
    *program*, built with *options*."""
    return run_timed(FuncSim(program, **options))
