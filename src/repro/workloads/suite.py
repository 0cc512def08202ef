"""Workload registry: build, cache, and verify the nine programs."""

from __future__ import annotations

import importlib
from functools import lru_cache

from repro.asm.assembler import assemble
from repro.asm.program import Program

#: The paper's nine MiBench applications (Figure 6 / Table 1 order).
WORKLOAD_NAMES: tuple[str, ...] = (
    "basicmath",
    "susan",
    "dijkstra",
    "patricia",
    "blowfish",
    "rijndael",
    "sha",
    "stringsearch",
    "bitcount",
)

#: Build scales every workload understands.
SCALES: tuple[str, ...] = ("tiny", "small", "default")


def _module(name: str):
    if name not in WORKLOAD_NAMES:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOAD_NAMES)}"
        )
    return importlib.import_module(f"repro.workloads.{name}")


@lru_cache(maxsize=None)
def build(name: str, scale: str = "default") -> Program:
    """Assemble a workload at the given scale (cached)."""
    module = _module(name)
    return assemble(module.source(scale), name=f"{name}-{scale}")


@lru_cache(maxsize=None)
def expected_console(name: str, scale: str = "default") -> str:
    """Console output predicted by the Python reference implementation."""
    return _module(name).expected_console(scale)


def workload_inputs(name: str, scale: str = "default") -> list[int] | None:
    """Input queue for read_int syscalls (most workloads need none)."""
    module = _module(name)
    inputs = getattr(module, "inputs", None)
    return inputs(scale) if inputs is not None else None


def verify(name: str, scale: str = "default") -> bool:
    """Run the workload on the functional ISS, with no cycle replay, and
    check its output."""
    from repro.pipeline.funcsim import FuncSim

    program = build(name, scale)
    result = FuncSim(program, inputs=workload_inputs(name, scale)).run()
    return result.console == expected_console(name, scale)
