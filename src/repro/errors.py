"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch the whole family with a single clause.  Toolchain errors (assembly,
encoding) carry source location information where available; simulation errors
carry the faulting address and cycle.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EncodingError(ReproError):
    """An instruction could not be encoded (bad field value, unknown mnemonic)."""


class DecodingError(ReproError):
    """A 32-bit word does not decode to a valid instruction."""

    def __init__(self, word: int, address: int | None = None, reason: str = ""):
        self.word = word
        self.address = address
        self.reason = reason
        location = f" at {address:#010x}" if address is not None else ""
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot decode word {word:#010x}{location}{detail}")


class AssemblerError(ReproError):
    """Source-level assembly error with file/line context."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class LinkError(ReproError):
    """Symbol resolution or layout failure while building a program image."""


class SimulationError(ReproError):
    """Runtime failure inside a simulator (bad memory access, bad state)."""

    def __init__(self, message: str, pc: int | None = None, cycle: int | None = None):
        self.pc = pc
        self.cycle = cycle
        context = []
        if pc is not None:
            context.append(f"pc={pc:#010x}")
        if cycle is not None:
            context.append(f"cycle={cycle}")
        suffix = f" ({', '.join(context)})" if context else ""
        super().__init__(message + suffix)


class MemoryAccessError(SimulationError):
    """An access touched an unmapped or misaligned address."""


class BudgetExceeded(SimulationError):
    """A run outlived its execution budget: an instruction limit, a
    provable loop caught by the hang detector, or a cycle ceiling."""


class MonitorViolation(ReproError):
    """Raised by the OS model when the CIC reports an unrecoverable mismatch.

    A mismatch means the dynamic hash of an executed basic block differs from
    the expected hash recorded in the full hash table: the code was altered
    after the expected behaviour was captured.
    """

    def __init__(self, start: int, end: int, expected: int | None, observed: int):
        self.start = start
        self.end = end
        self.expected = expected
        self.observed = observed
        expected_text = f"{expected:#010x}" if expected is not None else "<absent>"
        super().__init__(
            f"code integrity violation in block [{start:#010x}, {end:#010x}]: "
            f"expected hash {expected_text}, observed {observed:#010x}"
        )


class ConfigurationError(ReproError):
    """An ASIP/processor configuration is inconsistent or unsupported."""
