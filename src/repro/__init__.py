"""repro — reproduction of Fei & Shi, "Microarchitectural Support for
Program Code Integrity Monitoring in Application-specific Instruction Set
Processors" (DATE 2007).

The package provides, end to end:

* a PISA-like 32-bit ISA with an assembler toolchain (:mod:`repro.asm`),
* two cross-validated simulators — a functional ISS whose cycles an
  analytical model replays, and a cycle-level 5-stage pipeline
  (:mod:`repro.pipeline`),
* the paper's Code Integrity Checker at two fidelity levels: a behavioural
  model and an executable-microoperation model driven by the literal text
  of the paper's Figures 3 and 4 (:mod:`repro.cic`, :mod:`repro.micro`),
* the OS-managed monitoring scheme: loader, full hash table, exception
  handling, replacement policies (:mod:`repro.osmodel`),
* static analysis for expected-hash generation (:mod:`repro.cfg`),
* a fault-injection framework (:mod:`repro.faults`),
* a standard-cell area/timing model standing in for synthesis
  (:mod:`repro.area`),
* the ASIP Meister-style design flow (:mod:`repro.meister`),
* nine MiBench-equivalent workloads (:mod:`repro.workloads`), and
* one evaluation harness per paper table/figure (:mod:`repro.eval`).

Quick start::

    from repro import assemble, load_process, FuncSim
    from repro.pipeline import run_timed

    program = assemble(open("program.s").read())
    process = load_process(program, iht_size=8)
    result = run_timed(FuncSim(program, monitor=process.monitor))
    print(result.console, result.cycles, result.monitor_stats)
"""

from repro.asm import assemble
from repro.errors import MonitorViolation, ReproError
from repro.osmodel import load_process
from repro.pipeline import FuncSim, PipelineCPU

__version__ = "1.0.0"

__all__ = [
    "FuncSim",
    "MonitorViolation",
    "PipelineCPU",
    "ReproError",
    "assemble",
    "load_process",
    "__version__",
]
