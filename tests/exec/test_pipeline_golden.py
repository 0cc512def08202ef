"""Differential pinning of the cycle-level ``pipeline-golden`` backend.

The backend's contract: forking the recorded monitored pipeline at the
fault produces the **identical** verdict — outcome, detail, detection
latency, and measured cycle count — as booting a fresh
:class:`PipelineCPU` and replaying the whole injection from instruction
zero (:func:`repro.exec.pipeline_golden.run_one_pipeline`).  These tests
pin that equivalence on the smoke workload set (the DSE ``smoke``
preset's ``sha`` + ``bitcount`` at tiny scale) across every perturbation
shape: random single-/multi-bit persistent flips, transient fetch
faults, same-column pairs, and sampled attack scenarios.

They also pin the headline capability the backend exists for: the DSE's
``measured_cycle_overhead`` — monitored pipeline cycles under the
point's penalty model — equals the analytic Table-1 accounting exactly,
closing the loop on the tier-1 suite's ``monitored == base + penalty ×
misses`` claim with a measurement instead of a derivation.
"""

import pytest

from repro.attacks.corpus import AttackCorpus
from repro.exec import CampaignRunner, CampaignSpec
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_one_pipeline,
    run_one_pipeline_golden,
)
from repro.faults.campaign import (
    Outcome,
    WarmProcess,
    same_column_pairs,
)
from repro.faults.models import TransientFetchFault

#: The DSE smoke preset's workload set.
SMOKE_WORKLOADS = ("sha", "bitcount")
SEED = 13


def verdict(result):
    return (result.outcome, result.detail, result.latency, result.cycles)


@pytest.fixture(scope="module", params=SMOKE_WORKLOADS)
def rig(request):
    """(workload, campaign, store) for one smoke workload."""
    spec = CampaignSpec(
        workload=request.param, scale="tiny", backend="pipeline-golden"
    )
    campaign = CampaignRunner(spec).campaign
    warm = WarmProcess.from_context(campaign.context)
    store = build_pipeline_golden_store(campaign.context, warm)
    return request.param, campaign, store


def assert_equivalent(rig, fault):
    _name, campaign, store = rig
    forked = run_one_pipeline_golden(store, fault)
    full = run_one_pipeline(campaign.context, fault, store.warm)
    assert verdict(forked) == verdict(full), fault


class TestDifferential:
    def test_random_single_bit(self, rig):
        _name, campaign, _store = rig
        for fault in campaign.random_single_bit(24, seed=SEED):
            assert_equivalent(rig, fault)

    def test_random_multi_bit(self, rig):
        _name, campaign, _store = rig
        for fault in campaign.random_multi_bit(10, flips=2, seed=SEED + 1):
            assert_equivalent(rig, fault)

    def test_same_column_pairs(self, rig):
        from repro.eval.common import baseline_run

        name, _campaign, _store = rig
        trace = baseline_run(name, "tiny").block_trace
        for pair in same_column_pairs(trace, 8, SEED + 2):
            assert_equivalent(rig, pair)

    def test_transient_fetch_faults(self, rig):
        _name, campaign, _store = rig
        addresses = campaign.context.executed_addresses
        for offset, occurrence in ((0, 1), (3, 1), (5, 2), (9, 3)):
            fault = TransientFetchFault(
                addresses[offset % len(addresses)],
                (offset % 32,),
                occurrence=occurrence,
            )
            assert_equivalent(rig, fault)

    def test_attack_scenarios(self, rig):
        _name, campaign, _store = rig
        corpus = AttackCorpus.from_context(campaign.context)
        scenarios = corpus.build(
            ["branch-retarget", "nop-slide", "opcode-sub/transient"],
            per_class=3,
            seed=SEED,
        )
        assert scenarios
        for scenario in scenarios:
            assert_equivalent(rig, scenario)

    def test_never_delivered_fault_is_golden_run(self):
        # Needs code the pipeline never touches even *speculatively*: the
        # slot after a taken jump is wrong-path fetched, so the dead word
        # must sit at least two slots past every executed jump.
        source = """
        main:   li $a0, 7
                li $v0, 1
                syscall
                j exit
        pad:    nop
        dead:   addi $a0, $a0, 1
                addi $a0, $a0, 2
        exit:   li $v0, 10
                syscall
        """
        spec = CampaignSpec(source=source, name="dead-code",
                            backend="pipeline-golden")
        campaign = CampaignRunner(spec).campaign
        warm = WarmProcess.from_context(campaign.context)
        store = build_pipeline_golden_store(campaign.context, warm)
        from repro.faults.models import BitFlipFault

        dead = next(
            address
            for address in campaign.context.program.text_addresses()
            if address not in store.fetch_ordinals
            and address not in store.unsafe_words
        )
        result = run_one_pipeline_golden(store, BitFlipFault(dead, (5,)))
        assert result.outcome is Outcome.BENIGN
        # No simulation at all: the faulty run *is* the recorded pristine
        # run, measured cycles included.
        assert result.cycles == store.golden_cycles
        # The full replay agrees on the verdict (cycles too).
        full = run_one_pipeline(campaign.context, BitFlipFault(dead, (5,)), warm)
        assert verdict(full) == verdict(result)


class TestStoreInternals:
    def test_checkpoints_cover_the_run(self, rig):
        _name, _campaign, store = rig
        marks = [checkpoint.instructions for checkpoint in store.checkpoints]
        assert marks[0] == 0
        assert marks == sorted(marks)
        assert marks[-1] < store.golden_instructions
        fetch_marks = [checkpoint.fetches for checkpoint in store.checkpoints]
        assert fetch_marks == sorted(fetch_marks)

    def test_speculative_fetches_exceed_instructions(self, rig):
        # The pipeline fetches wrong-path slots the functional simulator
        # never sees; total recorded fetches must therefore be at least
        # the instruction count (strictly more on any branchy program).
        _name, _campaign, store = rig
        total = sum(len(o) for o in store.fetch_ordinals.values())
        assert total >= store.golden_instructions

    def test_golden_cycles_match_monitored_run(self, rig):
        # The recording *is* the measurement: same cycles as an
        # uncheckpointed monitored pipeline run of the pristine program.
        _name, campaign, store = rig
        warm = store.warm
        checker = warm.fresh_checker(campaign.context)
        from repro.pipeline.cpu import PipelineCPU

        cpu = PipelineCPU(
            campaign.context.program,
            monitor=checker,
            inputs=campaign.context.inputs,
            decode_cache=warm.decode_cache,
        )
        result = cpu.run()
        assert result.cycles == store.golden_cycles
        assert result.instructions == store.golden_instructions


class TestEngineIntegration:
    def test_campaign_runner_accepts_pipeline_golden(self):
        spec = CampaignSpec(
            workload="bitcount", scale="tiny", backend="pipeline-golden"
        )
        runner = CampaignRunner(spec, chunk_size=8)
        faults = runner.campaign.random_single_bit(16, seed=SEED)
        serial = runner.run(faults, seed=SEED)
        assert serial.complete
        pooled = CampaignRunner(spec, workers=2, chunk_size=8).run(
            faults, seed=SEED
        )
        assert pooled.summary() == serial.summary()

    def test_dse_measured_overhead_equals_accounting(self):
        """The tentpole claim: the DSE overhead objective is *measured*
        per penalty model on the pipeline, and the measurement equals
        the exact Table-1 accounting."""
        from repro.dse.engine import DseSweep
        from repro.dse.space import ConfigSpace

        space = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(50, 100),
            workloads=SMOKE_WORKLOADS,
            scale="tiny",
            per_class=2,
        )
        result = DseSweep(space, seed=SEED, backend="pipeline-golden").run()
        assert result.complete
        for point in result.ordered():
            measured = point.objectives["measured_cycle_overhead"]
            assert measured == pytest.approx(
                point.objectives["cycle_overhead"], abs=1e-12
            )
            for workload in SMOKE_WORKLOADS:
                entry = point.per_workload[workload]
                assert entry["monitored_cycles"] > entry["base_cycles"]

    def test_resume_refuses_crossing_the_cycle_measuring_divide(
        self, tmp_path
    ):
        """A golden-backend sweep file resumed with pipeline-golden (or
        vice versa) would mix point record shapes — refused.  Functional
        backends keep resuming each other's files freely."""
        from repro.dse.engine import DseSweep
        from repro.dse.space import ConfigSpace
        from repro.errors import ConfigurationError

        space = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("bitcount",),
            scale="tiny",
            adversary="none",
        )
        out = tmp_path / "sweep.jsonl"
        DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, stop_after_shards=1
        )
        with pytest.raises(ConfigurationError, match="cannot resume"):
            DseSweep(
                space, seed=SEED, chunk_size=1, backend="pipeline-golden"
            ).run(out=out, resume=True)
        # golden <-> full stays interchangeable (pinned identical points).
        resumed = DseSweep(
            space, seed=SEED, chunk_size=1, backend="full"
        ).run(out=out, resume=True)
        assert resumed.complete

    def test_functional_sweeps_omit_measured_objective(self):
        """Functional-backend points must not grow the new key — that is
        what keeps pre-redesign sweep artifacts byte-identical."""
        from repro.dse.engine import DseSweep
        from repro.dse.space import ConfigSpace

        space = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4,),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("bitcount",),
            scale="tiny",
            adversary="none",
        )
        result = DseSweep(space, seed=SEED, backend="golden").run()
        for point in result.points:
            assert "measured_cycle_overhead" not in point.objectives
