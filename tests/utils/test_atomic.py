"""Atomic single-document writes: old file or new file, never a torn one."""

import json
import os

import pytest

from repro.obs.metrics import write_metrics
from repro.utils import atomic
from repro.utils.atomic import write_atomic


def listing(directory):
    return sorted(os.listdir(directory))


def test_creates_and_replaces(tmp_path):
    target = tmp_path / "doc.json"
    assert write_atomic(target, "first\n") == os.fspath(target)
    assert target.read_text() == "first\n"
    write_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    assert listing(tmp_path) == ["doc.json"]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
@pytest.mark.parametrize("error", [OSError("disk gone"), KeyboardInterrupt()])
def test_failure_midway_keeps_the_previous_file(
    tmp_path, monkeypatch, failing, error
):
    target = tmp_path / "doc.json"
    target.write_bytes(b'{"previous": true}\n')
    before = target.read_bytes()

    def fail(*args):
        raise error

    # The new text is already in the temporary file when fsync or the
    # rename fails.
    monkeypatch.setattr(atomic.os, failing, fail)
    with pytest.raises(type(error)):
        write_atomic(target, "x" * 100_000)
    monkeypatch.undo()
    assert target.read_bytes() == before
    assert listing(tmp_path) == ["doc.json"]


def test_unencodable_text_keeps_the_previous_file(tmp_path):
    target = tmp_path / "doc.txt"
    target.write_text("kept\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, "ok so far " * 1000 + "\udc80")
    assert target.read_text() == "kept\n"
    assert listing(tmp_path) == ["doc.txt"]


def test_metrics_artifact_survives_a_failed_rewrite(tmp_path, monkeypatch):
    path = tmp_path / "run.metrics.json"
    write_metrics(path, {"type": "metrics", "wall_seconds": 1.0})
    before = path.read_bytes()

    def fail(*args):
        raise OSError("killed mid-write")

    monkeypatch.setattr(atomic.os, "fsync", fail)
    with pytest.raises(OSError):
        write_metrics(path, {"type": "metrics", "wall_seconds": 2.0})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert json.loads(before)["wall_seconds"] == 1.0
    assert listing(tmp_path) == ["run.metrics.json"]
