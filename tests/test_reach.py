"""The reachability check (``tests/reach.py``) against a planted tree:
it must name a never-called function the allowlist lacks, an allowlisted
one that is now called or gone, and an entry without a reason."""

import os
import subprocess
import sys
import textwrap

from tests import reach

MODULE = textwrap.dedent('''\
    import functools


    def used():
        def inner():
            pass
        return inner


    def planted():
        pass


    class K:
        @functools.cache
        def cached(self):
            pass

        @property
        def value(self):
            return 1
    ''')


def tree(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "m.py").write_text(MODULE)
    out = tmp_path / "out"
    out.mkdir()
    # What two processes recorded: ``used`` (line 4) in one, the
    # decorated ``cached`` (line 15, its decorator) in the other.
    (out / "called-1.txt").write_text("pkg/m.py 4\n")
    (out / "called-2.txt").write_text("pkg/m.py 15\n")
    return src, out


def test_defined_names_nested_and_decorated_defs(tmp_path):
    src, _out = tree(tmp_path)
    assert reach.defined(src) == {
        ("pkg/m.py", 4): "used", ("pkg/m.py", 5): "used.<locals>.inner",
        ("pkg/m.py", 10): "planted", ("pkg/m.py", 15): "K.cached",
        ("pkg/m.py", 19): "K.value"}


def test_never_called_is_what_no_process_recorded(tmp_path):
    src, out = tree(tmp_path)
    assert reach.never_called(out, src) == {
        "pkg/m.py:used.<locals>.inner", "pkg/m.py:planted", "pkg/m.py:K.value"}


def test_problems_name_every_disagreement(tmp_path):
    src, out = tree(tmp_path)
    dead = reach.never_called(out, src)
    allowed = {"pkg/m.py:used.<locals>.inner": "closure",
               "pkg/m.py:K.value": "reader",
               "pkg/m.py:used": "stale: now called",
               "pkg/m.py:gone": "stale: deleted"}
    assert reach.problems(dead, allowed) == [
        "never called, not allowlisted: pkg/m.py:planted",
        "allowlisted, but called or gone: pkg/m.py:gone",
        "allowlisted, but called or gone: pkg/m.py:used"]
    allowed = {name: "reason" for name in dead}
    assert reach.problems(dead, allowed) == []
    allowed["pkg/m.py:planted"] = ""
    assert reach.problems(dead, allowed) == [
        "allowlisted without a reason: pkg/m.py:planted"]


def test_committed_allowlist_names_existing_defs_with_reasons():
    entries = reach.read_allowlist()
    names = {f"{path}:{q}" for (path, _line), q in reach.defined().items()}
    assert entries and set(entries) <= names
    assert all(entries.values())


PROBE = textwrap.dedent('''\
    from repro.exp import Sweep, SweepRunner


    def test_two_points_on_two_workers(tmp_path):
        sweep = (Sweep("tiny", "stack_ping", base_params={"stack": "physical", "probes": 2})
                 .add_axis("rtt_ms", [20.0, 50.0]))
        assert len(SweepRunner(sweep, workers=2, out_dir=tmp_path).run()) == 2
    ''')


def test_pool_workers_dump_what_they_call(tmp_path):
    """A point that only a pool worker runs still counts as called:
    each worker writes its own file on its way out."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = tmp_path / "out"
    root = reach.SRC.parents[1]
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "tests.reach",
                    "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
                   cwd=root, check=True, capture_output=True,
                   env={**os.environ, reach.ENV: str(out),
                        "PYTHONPATH": str(root / "src")})
    (line,) = [line for (path, line), q in reach.defined().items()
               if (path, q) == ("scenarios/stacks.py", "stack_ping")]
    called = {f.name: f"scenarios/stacks.py {line}" in f.read_text().splitlines()
              for f in out.glob("called-*.txt")}
    # The session and its two workers; only the workers ran a point.
    assert len(called) == 3 and any(called.values())
