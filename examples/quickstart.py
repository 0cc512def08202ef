#!/usr/bin/env python3
"""Quickstart: assemble a program, run it monitored, tamper, get caught.

This walks the library's whole pipeline in ~40 lines:

1. assemble a small program for the PISA-like ISA,
2. load it under the OS-managed monitoring scheme (the loader computes the
   full hash table from the binary),
3. run it on the functional simulator with the Code Integrity Checker
   attached, timed by replaying the pipeline's cycle model over the run,
4. flip one bit of one instruction in memory — the attack/soft-error model
   of the paper — and watch the monitor terminate the program.

Run:  python examples/quickstart.py
"""

from repro.asm import assemble
from repro.errors import MonitorViolation
from repro.osmodel import load_process
from repro.pipeline import FuncSim, run_timed

SOURCE = """
main:   li   $t0, 10          # sum the numbers 1..10
        li   $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li   $v0, 1           # print_int
        syscall
        li   $v0, 10          # exit
        syscall
"""


def main() -> None:
    program = assemble(SOURCE, name="quickstart")
    print("assembled", program.name, "->", len(program.text.data) // 4,
          "instructions at", hex(program.text_start))

    # --- clean, monitored run -------------------------------------------
    process = load_process(program, iht_size=8)  # the paper's CIC-8 config
    result = run_timed(FuncSim(program, monitor=process.monitor))
    stats = result.monitor_stats
    print(f"clean run: printed {result.console!r} in {result.cycles} cycles")
    print(f"  monitor: {stats.lookups} block checks, {stats.hits} hits, "
          f"{stats.misses} cold misses ({stats.os_cycles} OS cycles)")

    # --- the attack ------------------------------------------------------
    # Flip one bit of the accumulate instruction after load time: the
    # expected hashes were computed from the pristine binary, so the
    # tampered block can no longer match.
    process = load_process(program, iht_size=8)
    simulator = FuncSim(program, monitor=process.monitor)
    target = program.symbols["loop"]
    simulator.state.memory.flip_bit(target, 1)  # addu -> subu
    print(f"\nflipping bit 1 of the instruction at {target:#x} (addu -> subu)")
    try:
        simulator.run()
        raise SystemExit("BUG: tampering was not detected")
    except MonitorViolation as violation:
        print("caught:", violation)


if __name__ == "__main__":
    main()
