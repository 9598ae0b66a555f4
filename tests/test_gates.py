"""The gate runner (``benchmarks/gates.py``), driven with stub cases:
no simulation runs here."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import gates  # noqa: E402

RECORD_KEYS = {"case", "commit", "nproc", "host_score", "quick", "wall_s",
               "payload"}


class StubCase:
    def __init__(self, failures=(), error=None):
        self.failures, self.error, self.ran = list(failures), error, False

    def run(self, quick):
        self.ran = True
        if self.error is not None:
            raise self.error
        return {"sized_down": quick}

    def check(self, payload):
        return self.failures

    def render(self, payload):
        return "stub"


@pytest.fixture(autouse=True)
def no_host_calibration(monkeypatch):
    monkeypatch.setattr(gates, "context", lambda: {
        "commit": "c0ffee", "nproc": 2, "host_score": 1.0})


def test_list_names_the_seven_cases(capsys):
    assert gates.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == [
        "churn", "sweep", "fluid_agreement", "fluid_scale", "scale",
        "fairness", "traversal"]
    for module in gates.CASES.values():
        case = importlib.import_module(module)
        assert all(callable(getattr(case, fn))
                   for fn in ("run", "check", "render"))


def test_failed_check_and_raising_run_fail_the_command_not_the_rest(
        tmp_path, capsys):
    cases = {"bad_check": StubCase(failures=["ratio 3x < floor 100x"]),
             "bad_run": StubCase(error=RuntimeError("boom")),
             "good": StubCase()}
    assert gates.main([], cases, tmp_path) == 1
    assert all(case.ran for case in cases.values())
    out = capsys.readouterr().out
    assert "FAIL bad_check: ratio 3x < floor 100x" in out
    assert "FAIL bad_run: raised" in out
    assert "ok good" in out
    assert "2 of 3 gates failed: bad_check, bad_run" in out
    # A failed check still leaves its record; a run that raised has none.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_bad_check.json", "BENCH_good.json"]


def test_all_pass_returns_zero_and_writes_the_common_record(tmp_path):
    assert gates.main(["a"], {"a": StubCase(), "b": StubCase()}, tmp_path) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_a.json"]
    record = json.loads((tmp_path / "BENCH_a.json").read_text())
    assert set(record) == RECORD_KEYS
    assert record["case"] == "a" and record["quick"] is False
    assert record["payload"] == {"sized_down": False}


def test_quick_run_never_touches_a_committed_record(tmp_path):
    committed = tmp_path / "BENCH_a.json"
    committed.write_text('{"case": "a", "quick": false}\n')
    assert gates.main(["--quick"], {"a": StubCase()}, tmp_path) == 0
    assert committed.read_text() == '{"case": "a", "quick": false}\n'
    quick_dir = tmp_path / "benchmarks" / "out" / "gates"
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != committed]
    assert written == [quick_dir / "BENCH_a.json"]
    record = json.loads(written[0].read_text())
    assert set(record) == RECORD_KEYS
    assert record["quick"] is True and record["payload"] == {"sized_down": True}


def test_record_names_a_dirty_tree_as_such(tmp_path):
    """A record made with tracked files changed since HEAD is stamped
    ``<sha>+dirty``; untracked files, such as the records, leave it clean."""
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    def recorded_commit():
        assert gates.main(["a"], {"a": StubCase()}, tmp_path) == 0
        return json.loads((tmp_path / "BENCH_a.json").read_text())["commit"]

    git("init", "-q")
    (tmp_path / "tracked.py").write_text("x = 1\n")
    git("add", "tracked.py")
    git("commit", "-q", "-m", "seed")
    assert recorded_commit() == "c0ffee"
    (tmp_path / "tracked.py").write_text("x = 2\n")
    assert recorded_commit() == "c0ffee+dirty"
