"""Cycle-cost parameters of the single-issue in-order pipeline.

These constants describe the 5-stage pipeline (IF ID EX MEM WB) with full
forwarding, branch resolution in ID, and a multi-cycle multiply/divide unit.
Both simulators consume the same :class:`CycleModel`, so Table-1 style cycle
counts agree between the analytical scoreboard replayed over a FuncSim run
(``run_timed``) and the stage-latch pipeline (PipelineCPU); the
differential tests assert exact equality.

Derivation of the delay rules (ID-issue timeline, ``t`` = cycle an
instruction occupies ID):

* ALU producer with ID at ``t``: result leaves EX at end of ``t+1``, sits in
  the EX/MEM latch during ``t+2``; forwardable to an EX *or* ID consumer at
  ``t+2``.  Hence a dependent branch immediately after an ALU op stalls one
  cycle; a dependent ALU op never stalls.
* Load producer with ID at ``t``: data arrives at end of MEM (``t+2``), in
  MEM/WB during ``t+3``; forwardable to EX or ID at ``t+3``.  Hence the
  classic one-cycle load-use stall, and a two-cycle stall for a branch that
  reads a just-loaded register.
* Store data (``rt``) is consumed in MEM, one stage later than EX, so a
  store after a load of the same register does not stall.
* Taken control transfers redirect fetch from ID: one squashed fetch slot.
* ``mult``/``div`` occupy the EX-stage multiplier for extra cycles, stalling
  the instruction behind them; HI/LO reads are interlocked on completion.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CycleModel:
    """Tunable latency parameters of the pipeline."""

    #: Number of pipeline stages (fill cost at start-up / drain at the end).
    depth: int = 5
    #: Squashed slots on a taken branch/jump (branch resolved in ID).
    redirect_penalty: int = 1
    #: Extra EX occupancy of mult/multu beyond the first cycle.
    mult_latency: int = 3
    #: Extra EX occupancy of div/divu beyond the first cycle.
    div_latency: int = 11

    # Forwarding-availability offsets relative to the producer's ID cycle.
    #: Cycle offset at which an ALU result can feed EX or ID of a consumer.
    alu_ready_offset: int = 2
    #: Cycle offset at which a load result can feed EX or ID of a consumer.
    load_ready_offset: int = 3
