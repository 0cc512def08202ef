"""One pristine run per program and inputs per process.

The :class:`FuncSim` recording that the golden store forks faults from
runs with no monitor, and is also the campaign's golden reference: the
context, the unmonitored baseline run, Table 1's monitored cycles and
every monitor configuration's store are derived from it.  These tests
pin that nothing simulates the pristine program a second time, that the
recording depends on nothing its memo key leaves out, that everything
derived equals what a separate live run computes, and where the
recording puts its checkpoints.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.asm.assembler import assemble
from repro.cic.checker import CodeIntegrityChecker
from repro.errors import ConfigurationError, MonitorViolation
from repro.eval.common import baseline_run
from repro.exec import (
    CampaignRunner,
    CampaignSpec,
    build_golden_store,
    build_pipeline_golden_store,
    get_backend,
)
from repro.exec import golden
from repro.exec.golden import DEFAULT_CHECKPOINT_COUNT, RECORDINGS_KEPT
from repro.exec.runner import Workspace, config_runners
from repro.faults.campaign import CampaignContext, WarmProcess, build_context
from repro.obs import core as obs
from repro.osmodel.handler import OSExceptionHandler
from repro.osmodel.loader import load_process
from repro.pipeline import cpu, funcsim
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim, run_program
from repro.pipeline.trace import executed_addresses
from repro.workloads.suite import WORKLOAD_NAMES, build, workload_inputs

from tests.pipeline.test_differential_control_flow import hazard_programs
from tests.programs import SELF_READING, SWAPS_ITS_OWN_TEXT

CASES = [(name, "tiny") for name in WORKLOAD_NAMES] + [("sha", "small")]


@pytest.fixture
def fresh_recordings(monkeypatch):
    """An empty recording memo, as in a fresh process."""
    monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())


@pytest.fixture
def constructed(monkeypatch):
    """Counts of simulators constructed, by class name."""
    counts = {"FuncSim": 0, "PipelineCPU": 0}
    for module, name in ((funcsim, "FuncSim"), (cpu, "PipelineCPU")):
        cls = getattr(module, name)
        original = cls.__init__

        def counting(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def reference_context(spec: CampaignSpec) -> tuple[CampaignContext, object]:
    """The context as a separate unmonitored run derives it, and that run."""
    program = spec.build_program()
    inputs = spec.resolved_inputs()
    run = run_program(program, collect_trace=True, inputs=inputs)
    context = CampaignContext(
        program=program,
        iht_size=spec.iht_size,
        hash_name=spec.hash_name,
        policy_name=spec.policy_name,
        inputs=list(inputs) if inputs else None,
        golden_console=run.console,
        golden_exit=run.exit_code,
        executed_addresses=executed_addresses(run.block_trace),
        executed_blocks=tuple(sorted(run.block_trace.unique_blocks())),
        instruction_budget=max(10_000, run.instructions * 20),
        golden_instructions=run.instructions,
    )
    return context, run


class TestOnePristineRun:
    @pytest.mark.parametrize(
        "backend, funcsims, pipelines",
        [("golden", 1, 0), ("pipeline-golden", 0, 1)],
    )
    def test_campaign_and_workspace_simulate_once(
        self, fresh_recordings, constructed, backend, funcsims, pipelines
    ):
        runner = CampaignRunner(
            CampaignSpec(workload="bitcount", scale="tiny", backend=backend)
        )
        assert runner.campaign.context.golden_instructions
        assert runner.workspace.state.checkpoints
        assert constructed == {"FuncSim": funcsims, "PipelineCPU": pipelines}

    def test_grid_records_once_and_overlays_the_rest(self, fresh_recordings):
        spec = CampaignSpec(workload="sha", scale="tiny", backend="golden")
        counters: dict[str, int] = {}
        with obs.scoped(True):
            obs.local().drain()
            for runner in config_runners(
                spec, ("xor", "crc32"), ("lru_half", "lru_one")
            ):
                faults = runner.campaign.random_single_bit(4, seed=1)
                telemetry = runner.run(faults, seed=1).telemetry
                for name, value in telemetry["counters"].items():
                    counters[name] = counters.get(name, 0) + value
        assert counters.get("golden.stores_recorded") == 1
        assert counters.get("golden.stores_overlaid") == 4
        assert "golden.stores_reused" not in counters

    def test_memo_is_bounded(self, fresh_recordings):
        for value in range(RECORDINGS_KEPT + 3):
            build_context(assemble(f"main: li $a0, {value}\nli $v0, 10\nsyscall\n"))
        assert len(golden._RECORDINGS) == RECORDINGS_KEPT


class TestDerivedEqualsReference:
    @pytest.mark.parametrize("name, scale", CASES)
    def test_context_and_baseline_run(self, name, scale):
        spec = CampaignSpec(workload=name, scale=scale)
        expected, run = reference_context(spec)
        assert spec.build_context() == expected
        derived = baseline_run(name, scale)
        assert derived == run  # events, cycles, console, exit, count
        assert list(derived.block_trace.unique_blocks()) == list(
            run.block_trace.unique_blocks()
        )

    @pytest.mark.parametrize("name, scale", CASES)
    def test_pipeline_context_equals_funcsim_context(self, name, scale):
        functional = CampaignSpec(workload=name, scale=scale)
        pipeline = replace(functional, backend="pipeline-golden")
        assert pipeline.build_context() == functional.build_context()


class TestUnmonitoredCycles:
    """The recording keeps no timing, yet notes every redirect, so the
    cycles replayed off its stream equal the cycle-level pipeline's
    (:class:`TestDerivedEqualsReference` covers the nine workloads
    against a live timed run)."""

    @staticmethod
    def assert_replayed_cycles(source):
        program = assemble(source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(golden, "_RECORDINGS", OrderedDict())
            recording = golden.pristine_recording(CampaignContext(program))
        assert recording.run.result.cycles is None
        assert recording.cycles() == PipelineCPU(program).run().cycles

    def test_branch_to_the_next_instruction(self):
        # Its taken `beq` redirects to where the untaken one would go:
        # only timing tells them apart.
        self.assert_replayed_cycles(SELF_READING)

    @settings(max_examples=40, deadline=None)
    @given(source=hazard_programs())
    def test_hazard_programs(self, source):
        self.assert_replayed_cycles(source)


class TestMonitoredCycles:
    """Table 1's replay: the recording's stream through a fresh monitor
    gives a live monitored run's cycles and monitor statistics on the
    cycle-level pipeline."""

    @staticmethod
    def assert_replays_live(program, inputs=None, **config):
        live = PipelineCPU(
            program, monitor=load_process(program, **config).monitor, inputs=inputs
        ).run()
        checker = load_process(program, **config).monitor
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(golden, "_RECORDINGS", OrderedDict())
            recording = golden.pristine_recording(CampaignContext(program, inputs=inputs))
        assert recording.cycles(checker) == live.cycles
        stats = checker.stats
        assert (stats.misses, stats.lookups, stats.os_cycles) == (
            live.monitor_stats.misses,
            live.monitor_stats.lookups,
            live.monitor_stats.os_cycles,
        )

    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workloads(self, name, size):
        self.assert_replays_live(
            build(name, "tiny"), workload_inputs(name, "tiny"), iht_size=size
        )

    def test_another_miss_penalty(self):
        self.assert_replays_live(
            build("sha", "tiny"), workload_inputs("sha", "tiny"), miss_penalty=37
        )

    def test_branch_to_the_next_instruction(self):
        self.assert_replays_live(assemble(SELF_READING), iht_size=1)

    @settings(max_examples=40, deadline=None)
    @given(source=hazard_programs())
    def test_hazard_programs(self, source):
        self.assert_replays_live(assemble(source), iht_size=2)


#: The monitor configurations the key tests ask with, in asking order.
CONFIGS = [
    dict(hash_name="crc32", iht_size=1, policy_name="lru_one", miss_penalty=50),
    dict(hash_name="xor", iht_size=8, policy_name="lru_half", miss_penalty=100),
    dict(hash_name="add", iht_size=64, policy_name="fifo", miss_penalty=200),
]


def monitor_stops(context: CampaignContext) -> bool:
    """Whether *context*'s monitor stops a live run of its program."""
    checker = WarmProcess.from_context(context).fresh_checker(context)
    try:
        FuncSim(context.program, monitor=checker, inputs=context.inputs).run()
    except MonitorViolation:
        return True
    return False


class TestRecordingDependsOnlyOnItsKey:
    @pytest.mark.parametrize("backend", ["golden", "full"])
    def test_pristine_run_is_the_same_for_every_configuration(
        self, monkeypatch, backend
    ):
        base = CampaignContext(
            build("sha", "tiny"), inputs=workload_inputs("sha", "tiny")
        )
        runs = []
        for order in (CONFIGS, CONFIGS[::-1]):
            monkeypatch.setattr(golden, "_RECORDINGS", OrderedDict())
            for config in order:
                runs.append(get_backend(backend).pristine_run(replace(base, **config)))
        assert all(run == runs[0] for run in runs)
        assert runs[0].monitor_stats is None

    def test_recording_holds_no_monitor_state(self, fresh_recordings):
        context = CampaignSpec(workload="sha", scale="tiny").build_context()
        recording = golden.pristine_recording(context)
        assert all(
            checkpoint.checker is None and checkpoint.handler is None
            for checkpoint in recording.run.checkpoints
        )
        held = [getattr(recording, name) for name in recording.__slots__]
        held += [getattr(recording.run, name) for name in recording.run.__slots__]
        monitor_types = (
            CampaignContext, WarmProcess, CodeIntegrityChecker, OSExceptionHandler
        )
        assert not [value for value in held if isinstance(value, monitor_types)]
        assert recording.run.result.monitor_stats is None

    @pytest.mark.parametrize("order", [("xor", "crc32"), ("crc32", "xor")])
    def test_a_program_the_monitor_would_stop(self, fresh_recordings, order):
        program = assemble(SWAPS_ITS_OWN_TEXT)
        contexts = {name: build_context(program, hash_name=name) for name in order}
        assert contexts["xor"] == replace(contexts["crc32"], hash_name="xor")
        stops = {name: monitor_stops(context) for name, context in contexts.items()}
        assert stops == {"xor": False, "crc32": True}
        for name in order:
            if stops[name]:
                with pytest.raises(MonitorViolation):
                    build_golden_store(contexts[name])
            else:
                assert build_golden_store(contexts[name]).checkpoints


class TestCheckpointGrid:
    @pytest.mark.parametrize(
        "name, scale, interval, count",
        [("bitcount", "tiny", 32, 36), ("sha", "tiny", 64, 112),
         ("sha", "small", 256, 98)],
    )
    def test_positions(self, name, scale, interval, count):
        context = CampaignSpec(workload=name, scale=scale).build_context()
        store = build_golden_store(context)
        assert store.interval == interval
        marks = [checkpoint.instructions for checkpoint in store.checkpoints]
        assert marks == [index * interval for index in range(count)]
        assert count <= 2 * DEFAULT_CHECKPOINT_COUNT
        assert marks[-1] < store.golden_instructions <= marks[-1] + interval

    def test_no_checkpoint_carries_the_block_trace(self):
        context = CampaignSpec(workload="sha", scale="tiny").build_context()
        for build in (build_golden_store, build_pipeline_golden_store):
            store = build(context)
            assert store.result.block_trace.events
            assert all(checkpoint.sim.trace == () for checkpoint in store.checkpoints)


#: A campaign whose context comes from the cycle-level recording.
PIPELINE = CampaignSpec(workload="bitcount", scale="tiny", backend="pipeline-golden")


class TestCrossCheck:
    def test_golden_store_on_a_pipeline_context(self, fresh_recordings):
        spec = PIPELINE
        context = spec.build_context()
        workspace = Workspace.build(replace(spec, backend="golden"), context=context)
        assert workspace.state.golden_instructions == context.golden_instructions

    @pytest.mark.parametrize("backend", ["golden", "pipeline-golden"])
    def test_a_wrong_reference_is_refused_once_recorded(
        self, fresh_recordings, backend
    ):
        spec = replace(PIPELINE, backend=backend)
        wrong = replace(spec.build_context(), golden_console="something else")
        with pytest.raises(ConfigurationError, match="diverged"):
            Workspace.build(spec, context=wrong)

    def test_recording_against_a_wrong_reference_is_refused(self, fresh_recordings):
        spec = PIPELINE
        wrong = replace(spec.build_context(), golden_console="something else")
        with pytest.raises(ConfigurationError, match="diverged"):
            Workspace.build(replace(spec, backend="golden"), context=wrong)
        with pytest.raises(ConfigurationError, match="diverged"):
            build_golden_store(wrong, interval=16)
