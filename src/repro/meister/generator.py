"""The processor generator (Figure 5's "ASIP Meister generator").

``AsipMeister.generate`` takes an ISA specification and an optional monitor
specification, validates every microoperation against the resource library,
embeds the monitoring microoperations into the right places (the IF stage of
*all* instructions, the ID stage of *flow-control* instructions), and
returns a :class:`GeneratedProcessor` — the programmatic equivalent of the
synthesizable processor plus its retargetable toolset:

* ``make_simulator`` — the "simulator" output (cycle-level pipeline or the
  functional ISS), already wired to the monitor and OS model;
* ``load``/``run`` — the OS loader path for monitored execution;
* ``synthesize`` — the area/timing report (Table 2's flow);
* ``augmented_listing`` — the full per-stage microoperation listing of an
  instruction with the monitoring extensions embedded (Figures 3(b)/4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.area.synthesis import SynthesisReport, synthesize
from repro.cfg.hashgen import build_fht
from repro.cic.checker import CodeIntegrityChecker
from repro.cic.iht import InternalHashTable
from repro.cic.micromonitor import MicroMonitor
from repro.errors import ConfigurationError
from repro.meister.isa_spec import ISASpec, default_isa_spec
from repro.meister.monitor_spec import MonitorSpec
from repro.meister.resource_library import ResourceLibrary, default_library
from repro.micro.parser import parse_microprogram
from repro.osmodel.handler import OSExceptionHandler
from repro.osmodel.policies import get_policy
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_timed
from repro.pipeline.hazards import CycleModel


@dataclass(slots=True)
class GeneratedProcessor:
    """A validated, runnable processor design."""

    isa_spec: ISASpec
    monitor_spec: MonitorSpec | None
    library: ResourceLibrary
    cycle_model: CycleModel

    # ------------------------------------------------------------------
    # Toolset outputs
    # ------------------------------------------------------------------

    def make_monitor(self, program: Program, kind: str = "fast"):
        """Build a monitor instance for *program* (or None if unmonitored).

        ``kind='fast'`` gives the behavioural checker; ``kind='micro'``
        executes the embedded microoperation programs — both verified
        equivalent by the differential tests.
        """
        if self.monitor_spec is None:
            return None
        spec = self.monitor_spec
        algorithm = spec.algorithm()
        fht = build_fht(program, algorithm)
        iht = InternalHashTable(spec.iht_entries)
        handler = OSExceptionHandler(
            fht=fht,
            iht=iht,
            policy=get_policy(spec.policy_name),
            miss_penalty=spec.miss_penalty,
        )
        if kind == "fast":
            return CodeIntegrityChecker(iht, handler, algorithm)
        if kind == "micro":
            return MicroMonitor(
                iht,
                handler,
                algorithm,
                if_program=spec.if_program(),
                id_program=spec.id_program(),
            )
        raise ConfigurationError(f"unknown monitor kind {kind!r}")

    def make_simulator(
        self,
        program: Program,
        engine: str = "pipeline",
        monitor_kind: str = "fast",
        inputs: list[int] | None = None,
        collect_trace: bool = False,
    ):
        """Instantiate a simulator for *program* on this processor."""
        monitor = self.make_monitor(program, monitor_kind)
        if engine == "pipeline":
            return PipelineCPU(
                program,
                cycle_model=self.cycle_model,
                monitor=monitor,
                inputs=inputs,
                collect_trace=collect_trace,
            )
        if engine == "func":
            return FuncSim(
                program,
                cycle_model=self.cycle_model,
                monitor=monitor,
                inputs=inputs,
                collect_trace=collect_trace,
            )
        raise ConfigurationError(f"unknown engine {engine!r}")

    def run(self, program: Program, engine: str = "func", **kwargs):
        """Convenience: build a simulator and run the program, timed."""
        simulator = self.make_simulator(program, engine=engine, **kwargs)
        return run_timed(simulator) if engine == "func" else simulator.run()

    # ------------------------------------------------------------------
    # Synthesis output
    # ------------------------------------------------------------------

    def synthesize(self) -> SynthesisReport:
        if self.monitor_spec is None:
            return synthesize(None)
        return synthesize(
            self.monitor_spec.iht_entries, self.monitor_spec.hash_name
        )

    # ------------------------------------------------------------------
    # Documentation outputs
    # ------------------------------------------------------------------

    def augmented_listing(self, mnemonic) -> str:
        """Full per-stage listing with monitoring microoperations embedded.

        Reproduces Figure 3(b) (any instruction's IF stage) and Figure 4
        (a flow-control instruction's ID stage).
        """
        spec = self.isa_spec[mnemonic]
        parts = [f"; {spec.mnemonic.value} — monitored processor"]
        for stage in ("IF", "ID", "EX", "MEM", "WB"):
            base_text = spec.stage_programs.get(stage, "").strip()
            extension = ""
            if self.monitor_spec is not None:
                if stage == "IF":
                    extension = self.monitor_spec.if_extension_text.strip()
                elif stage == "ID" and spec.control_flow:
                    extension = self.monitor_spec.id_extension_text.strip()
            if not base_text and not extension:
                continue
            parts.append(f"[{stage}]")
            if base_text:
                parts.extend(
                    line.strip() for line in base_text.splitlines() if line.strip()
                )
            if extension:
                parts.append("; --- monitoring extension ---")
                parts.extend(
                    line.strip() for line in extension.splitlines() if line.strip()
                )
        return "\n".join(parts)

    def describe(self) -> str:
        lines = [f"generated processor: ISA {self.isa_spec.name!r}"]
        lines.append(f"instructions: {len(self.isa_spec.instructions)}")
        lines.append(f"resources: {', '.join(sorted(self.isa_spec.resources_used()))}")
        if self.monitor_spec is not None:
            lines.append(self.monitor_spec.describe())
        else:
            lines.append("monitoring: none (baseline)")
        return "\n".join(lines)


class AsipMeister:
    """The design-flow driver: validate specs, embed monitoring, generate."""

    def __init__(self, library: ResourceLibrary | None = None):
        self.library = library or default_library()

    def generate(
        self,
        isa_spec: ISASpec | None = None,
        monitor_spec: MonitorSpec | None = None,
        cycle_model: CycleModel | None = None,
    ) -> GeneratedProcessor:
        """Validate and produce a :class:`GeneratedProcessor`."""
        isa = isa_spec or default_isa_spec()
        self._validate_isa(isa)
        if monitor_spec is not None:
            monitor_spec.validate()
            self._validate_stage_text(
                monitor_spec.if_extension_text, "IF", "monitor IF extension"
            )
            self._validate_stage_text(
                monitor_spec.id_extension_text, "ID", "monitor ID extension"
            )
        return GeneratedProcessor(
            isa_spec=isa,
            monitor_spec=monitor_spec,
            library=self.library,
            cycle_model=cycle_model or CycleModel(),
        )

    def _validate_isa(self, isa: ISASpec) -> None:
        for spec in isa.instructions.values():
            for stage, text in spec.stage_programs.items():
                self._validate_stage_text(
                    text, stage, f"{spec.mnemonic.value} [{stage}]"
                )

    def _validate_stage_text(self, text: str, stage: str, context: str) -> None:
        try:
            program = parse_microprogram(text)
        except ConfigurationError as error:
            raise ConfigurationError(f"{context}: {error}") from error
        for op in program:
            if op.resource is None:
                continue
            try:
                self.library.validate_operation(op.resource, op.operation or "", stage)
            except ConfigurationError as error:
                raise ConfigurationError(f"{context}: {error}") from error
