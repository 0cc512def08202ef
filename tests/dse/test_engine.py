"""Sweep-engine guarantees: determinism, resume, worker invariance.

The sweep's promises mirror the campaign engine's: point records are a
pure function of ``(space, seed, index)``, so the records, the frontier,
and every index-ordered aggregate must be identical for any worker
count, either backend, and across kill/resume cycles (only the *line
order* of a multi-worker file follows shard completion order).
"""

import pytest

from repro.dse.engine import DseSweep, load_points
from repro.dse.space import ConfigSpace
from repro.errors import ConfigurationError

SEED = 11


@pytest.fixture(scope="module")
def space():
    # 2 hashes x 2 sizes = 4 points, 2 workloads, tiny adversary corpus:
    # small enough for the suite, rich enough to exercise every objective.
    return ConfigSpace(
        hash_names=("xor", "crc32"),
        iht_sizes=(4, 8),
        policy_names=("lru_half",),
        miss_penalties=(100,),
        workloads=("sha", "bitcount"),
        scale="tiny",
        per_class=2,
    )


@pytest.fixture(scope="module")
def reference(space):
    """The uninterrupted serial sweep every other run is compared to.

    ``chunk_size=1`` matches every comparison run in this module: shard
    ids are part of the point payload and depend on the chunk size.
    """
    return DseSweep(space, seed=SEED, chunk_size=1).run()


def point_payloads(points):
    return [point.to_json() for point in sorted(points, key=lambda p: p.index)]


class TestEvaluation:
    def test_every_objective_scored(self, space, reference):
        assert reference.complete
        for point in reference.points:
            objectives = point.objectives
            assert 0.0 <= objectives["miss_rate"] <= 1.0
            assert objectives["cycle_overhead"] >= 0.0
            assert 0.0 <= objectives["detection_rate"] <= 1.0
            assert objectives["area_overhead"] > 0.0
            assert objectives["min_period"] > 0.0
            assert set(point.per_workload) == set(space.workloads)

    def test_deterministic_rerun(self, space, reference):
        again = DseSweep(space, seed=SEED, chunk_size=1).run()
        assert point_payloads(again.points) == point_payloads(reference.points)

    def test_worker_count_invariant(self, space, reference):
        pooled = DseSweep(space, seed=SEED, workers=2, chunk_size=1).run()
        assert point_payloads(pooled.points) == point_payloads(
            reference.points
        )
        assert [p.index for p in pooled.frontier()] == [
            p.index for p in reference.frontier()
        ]

    def test_backend_differential(self, space, reference):
        full = DseSweep(space, seed=SEED, backend="full").run()
        for golden_point, full_point in zip(
            reference.ordered(), full.ordered()
        ):
            assert golden_point.objectives == full_point.objectives
            assert golden_point.per_workload == full_point.per_workload

    def test_penalty_axis_shares_measures(self, reference):
        # Same grid with an extra penalty value: the penalty-independent
        # numbers must be identical, and overheads must scale linearly.
        space = ConfigSpace(
            hash_names=("xor", "crc32"),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100, 50),
            workloads=("sha", "bitcount"),
            scale="tiny",
            per_class=2,
        )
        result = DseSweep(space, seed=SEED).run()
        by_key = {
            (p.config.hash_name, p.config.iht_size, p.config.miss_penalty): p
            for p in result.points
        }
        for reference_point in reference.points:
            config = reference_point.config
            hundred = by_key[(config.hash_name, config.iht_size, 100)]
            fifty = by_key[(config.hash_name, config.iht_size, 50)]
            assert hundred.objectives == reference_point.objectives
            assert fifty.objectives["miss_rate"] == pytest.approx(
                hundred.objectives["miss_rate"]
            )
            assert fifty.objectives["cycle_overhead"] == pytest.approx(
                hundred.objectives["cycle_overhead"] / 2
            )

    def test_cycle_overhead_matches_live_monitored_run(self, space, reference):
        """The penalty model *is* the Table-1 accounting: overhead computed
        from replayed misses equals a live monitored simulation's."""
        from repro.eval.common import baseline_run
        from repro.osmodel.loader import load_process
        from repro.pipeline.funcsim import FuncSim, run_timed
        from repro.workloads.suite import build, workload_inputs

        for point in reference.ordered():
            config = point.config
            for workload in space.workloads:
                base = baseline_run(workload, space.scale)
                program = build(workload, space.scale)
                monitor = load_process(
                    program,
                    iht_size=config.iht_size,
                    hash_name=config.hash_name,
                    miss_penalty=config.miss_penalty,
                ).monitor
                live = run_timed(
                    FuncSim(
                        program,
                        monitor=monitor,
                        inputs=workload_inputs(workload, space.scale),
                    )
                )
                live_overhead = (live.cycles - base.cycles) / base.cycles
                assert point.per_workload[workload][
                    "cycle_overhead"
                ] == pytest.approx(live_overhead)


class TestResume:
    def test_kill_and_resume_reproduces_identical_records(
        self, space, reference, tmp_path
    ):
        out = tmp_path / "sweep.jsonl"
        sweep = DseSweep(space, seed=SEED, chunk_size=1)
        partial = sweep.run(out=out, stop_after_shards=2)
        assert not partial.complete
        assert len(partial.points) == 2
        resumed = DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, resume=True
        )
        assert resumed.complete
        assert point_payloads(resumed.points) == point_payloads(
            reference.points
        )
        # The file itself replays to the same records.
        _header, loaded = load_points(out)
        assert point_payloads(loaded) == point_payloads(reference.points)

    def test_resume_refuses_different_seed(self, space, tmp_path):
        out = tmp_path / "sweep.jsonl"
        DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, stop_after_shards=1
        )
        with pytest.raises(ConfigurationError, match="cannot resume"):
            DseSweep(space, seed=SEED + 1, chunk_size=1).run(
                out=out, resume=True
            )

    def test_resume_refuses_different_space(self, space, tmp_path):
        out = tmp_path / "sweep.jsonl"
        DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, stop_after_shards=1
        )
        other = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            workloads=("sha", "bitcount"),
            scale="tiny",
            per_class=2,
        )
        with pytest.raises(ConfigurationError, match="cannot resume"):
            DseSweep(other, seed=SEED, chunk_size=1).run(out=out, resume=True)

    def test_resume_requires_out(self, space):
        with pytest.raises(ConfigurationError, match="resume"):
            DseSweep(space, seed=SEED).run(resume=True)

    def test_resuming_a_finished_sweep_builds_no_workspace(
        self, space, tmp_path, monkeypatch
    ):
        out = tmp_path / "sweep.jsonl"
        DseSweep(space, seed=SEED, chunk_size=1).run(out=out)
        finished = out.read_bytes()
        monkeypatch.setattr(
            DseSweep,
            "workspace",
            property(lambda sweep: pytest.fail("no shard left to run")),
        )
        resumed = DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, resume=True
        )
        assert resumed.complete
        assert out.read_bytes() == finished

    def test_uncommitted_shard_is_rerun(self, space, reference, tmp_path):
        out = tmp_path / "sweep.jsonl"
        sweep = DseSweep(space, seed=SEED, chunk_size=1)
        sweep.run(out=out, stop_after_shards=2)
        # Drop the second shard's commit marker: its point must re-run.
        lines = out.read_text().splitlines(keepends=True)
        assert '"type":"shard-done"' in lines[-1]
        out.write_text("".join(lines[:-1]))
        resumed = DseSweep(space, seed=SEED, chunk_size=1).run(
            out=out, resume=True
        )
        assert resumed.complete
        assert point_payloads(resumed.points) == point_payloads(
            reference.points
        )


class TestSweepResult:
    def test_frontier_is_non_trivial(self, reference):
        frontier = reference.frontier()
        assert len(frontier) >= 2

    def test_table_renders(self, reference):
        text = reference.table().render()
        assert "DSE sweep" in text
        assert "xor/iht4/lru_half/p100" in text

    def test_report_table_renders(self, reference):
        text = reference.report().table().render()
        assert "Pareto frontier" in text

    def test_load_points_rejects_non_sweep_file(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type":"record"}\n')
        with pytest.raises(ConfigurationError):
            load_points(bogus)
