"""One job description per kind: ``repro submit KIND ARGS`` enqueues
exactly the canonical payload ``repro KIND ARGS`` runs, and both refuse
the same bad input with the same message."""

import pytest

from repro import cli, jobs
from repro.cli import main
from repro.service.jobs import validate_job

SOURCE = """
main:   li $v0, 5
        syscall
        move $a0, $v0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

#: The local subcommand of each kind.
LOCAL = {
    "campaign": ["campaign"],
    "attack": ["attack"],
    "dse": ["dse", "sweep"],
    "coverage": ["coverage", "run"],
}


class FakeClient:
    """Stands in for the server: records what ``repro submit`` sends."""

    def __init__(self):
        self.payloads = []

    def submit(self, payload, priority=0):
        self.payloads.append(payload)
        return {
            "id": f"j{len(self.payloads):05d}", "client": "test",
            "kind": payload["kind"], "label": "-", "state": "queued",
            "records_done": 0, "total": None, "error": None,
        }


@pytest.fixture
def captured(monkeypatch):
    """``(ran, submitted)``: the payloads each path would execute or
    enqueue.  Nothing is simulated and no server is contacted."""
    ran = []
    client = FakeClient()

    def start(self, payload, lease=None):
        ran.append(payload)
        return lambda out, resume, stop_after_shards: None

    for kind in jobs.KINDS.values():
        monkeypatch.setattr(type(kind), "start", start)
        monkeypatch.setattr(type(kind), "show", lambda *args: None)
    monkeypatch.setattr(cli, "_service_client", lambda args: client)
    return ran, client.payloads


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "echo.s"
    path.write_text(SOURCE)
    return str(path)


PARITY = [
    ("campaign", ["sha", "--scale", "tiny", "--faults", "8", "--chunk", "4"]),
    ("campaign", ["sha", "--preset", "smoke"]),
    ("campaign", ["all", "--preset", "mibench-tiny"]),
    ("campaign", ["PROGRAM", "--faults", "8", "--batch-size", "4"]),
    ("dse", ["--preset", "smoke", "--hash", "crc32", "--iht", "32"]),
    ("dse", []),
    ("dse", ["--workload", "sha", "--penalty", "50", "--adversary", "none"]),
    ("attack", ["sha"]),
    ("attack", ["PROGRAM", "--input", "3", "--hash", "xor", "--hash", "crc32"]),
    ("coverage", ["pairs-tiny", "--chunk", "32"]),
]


@pytest.mark.parametrize("kind, argv", PARITY)
def test_submit_enqueues_what_the_local_command_runs(
    kind, argv, captured, program_file
):
    argv = [program_file if arg == "PROGRAM" else arg for arg in argv]
    ran, submitted = captured
    assert main([*LOCAL[kind], *argv]) == 0
    assert main(["submit", kind, *argv]) == 0
    assert ran
    assert submitted == ran
    # The server's validation keeps the canonical payload as it is.
    for payload in submitted:
        assert validate_job(payload) == payload


def payloads_of(captured, argv):
    """The payloads one command runs or submits."""
    ran, submitted = captured
    ran.clear()
    submitted.clear()
    assert main(argv) == 0
    return ran or submitted


def test_dse_flags_override_the_preset(captured):
    (payload,) = payloads_of(
        captured, ["dse", "sweep", "--preset", "smoke", "--hash", "crc32",
                   "--iht", "32"]
    )
    space = payload["space"]
    assert space["hash_names"] == ["crc32"]
    assert space["iht_sizes"] == [32]
    assert space["workloads"] == ["sha", "bitcount"]  # kept from the preset
    assert space["per_class"] == 2


def test_bare_dse_sweeps_the_documented_space(captured):
    (payload,) = payloads_of(captured, ["submit", "dse"])
    space = payload["space"]
    assert space["hash_names"] == ["xor", "crc32"]
    assert space["iht_sizes"] == [4, 8, 16, 32]
    assert space["workloads"] == ["sha", "dijkstra", "bitcount"]
    assert space["scale"] == "tiny"
    assert payload["backend"] == "golden"
    assert payload["chunk_size"] == 4


def test_bare_attack_defaults(captured):
    (payload,) = payloads_of(captured, ["submit", "attack", "sha"])
    assert payload["scale"] == "small"
    assert payload["per_class"] == 8
    assert payload["backend"] == "full"
    assert payload["classes"] == ["all"]


def test_campaign_all_expands_the_preset_roster(captured):
    ran = payloads_of(
        captured, ["campaign", "all", "--preset", "mibench-tiny"]
    )
    assert [payload["spec"]["workload"] for payload in ran] == [
        "rijndael", "susan", "patricia", "blowfish", "basicmath",
    ]
    for payload in ran:
        assert payload["preset"] == "mibench-tiny"
        assert payload["faults"] is None
        assert payload["spec"]["scale"] == "tiny"
        assert payload["spec"]["backend"] == "golden"


def test_assembly_target_carries_its_source(captured, program_file):
    (campaign,) = payloads_of(captured, ["campaign", program_file])
    assert campaign["spec"]["source"] == SOURCE
    assert campaign["spec"]["name"] == program_file
    assert campaign["spec"]["workload"] is None
    (attack,) = payloads_of(
        captured, ["submit", "attack", program_file, "--input", "3"]
    )
    assert attack["source"] == SOURCE
    assert attack["inputs"] == [3]


REFUSED = [
    ("campaign", ["doom"], "unknown target 'doom'"),
    ("campaign", ["sha", "--scale", "huge"], "unknown scale 'huge'"),
    ("campaign", ["sha", "--hash", "bogus"], "unknown hash algorithm 'bogus'"),
    ("campaign", ["sha", "--policy", "nope"], "unknown replacement policy 'nope'"),
    ("campaign", ["sha", "--iht", "0"], "IHT size must be >= 1, got 0"),
    ("campaign", ["sha", "--faults", "-3"], "(--faults) must be >= 1, got -3"),
    ("campaign", ["sha", "--batch-size", "-2"], "(--batch-size) must be >= 1"),
    ("campaign", ["sha", "--chunk", "0"], "(--chunk) must be >= 1"),
    ("campaign", ["sha", "--preset", "nosuch"], "unknown campaign preset"),
    ("attack", ["sha", "--hash", "bogus"], "unknown hash algorithm 'bogus'"),
    ("attack", ["sha", "--policy", "nope"], "unknown replacement policy 'nope'"),
    ("attack", ["sha", "--per-class", "0"], "(--per-class) must be >= 1, got 0"),
    ("attack", ["sha", "--class", "rowhammer"], "unknown attack class"),
    ("dse", ["--hash", "bogus"], "unknown hash 'bogus'"),
    ("dse", ["--scale", "huge"], "unknown scale 'huge'"),
    ("dse", ["--preset", "nosuch"], "unknown preset"),
    ("dse", ["--backend", "bogus"], "unknown backend 'bogus'"),
    ("dse", ["--class", "rowhammer"], "unknown attack class 'rowhammer'"),
    ("coverage", ["everything"], "unknown coverage corpus 'everything'"),
]


@pytest.mark.parametrize("kind, argv, message", REFUSED)
def test_both_paths_refuse_alike(kind, argv, message, captured, capsys):
    ran, submitted = captured
    assert main([*LOCAL[kind], *argv]) == 1
    local = capsys.readouterr().err
    assert main(["submit", kind, *argv]) == 1
    remote = capsys.readouterr().err
    assert "error: " in local and message in local
    assert local == remote
    assert "Traceback" not in local
    assert ran == [] and submitted == []
