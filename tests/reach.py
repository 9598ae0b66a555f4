"""Reachability ratchet: which functions in ``src/repro`` does tier-1 call?

Two halves, one file:

* A pytest plugin. ``pytest -p tests.reach`` records every ``src/repro``
  function the session calls, through a C-level profiler (``cProfile``,
  builtins off), and writes one ``called-<pid>.txt`` per process into
  the directory ``$REPRO_REACH_DIR`` names. Sweep pool workers are forked
  with the profiler on; ``multiprocessing`` clears finalizers in a forked
  child, so each worker registers its dump after the fork and writes its
  own file on its way out.
* A check. ``python tests/reach.py DIR`` parses every ``def`` under
  ``src/repro``, subtracts what the files in ``DIR`` say was called, and
  compares the never-called rest with ``tests/reach_allowlist.txt`` (one
  ``path:qualname  # reason`` per line, ``path`` relative to
  ``src/repro``). It fails on a never-called function the list lacks,
  on an entry that is now called or no longer exists, and on an entry
  without a reason, so the list stays exact and only shrinks.

A function is matched by file and first line (a decorated function
starts at its first decorator, as its code object does).
"""

from __future__ import annotations

import ast
import cProfile
import multiprocessing.util
import os
import pathlib
import sys

ENV = "REPRO_REACH_DIR"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWLIST = pathlib.Path(__file__).resolve().with_name("reach_allowlist.txt")

_profiler: cProfile.Profile | None = None


# -- recorder (pytest plugin) ---------------------------------------------
def _dump() -> None:
    """Stop recording and write this process's ``path line`` pairs."""
    global _profiler
    if _profiler is None:
        return
    _profiler.disable()
    prefix = str(SRC) + os.sep
    called = sorted({
        f"{entry.code.co_filename[len(prefix):]} {entry.code.co_firstlineno}"
        for entry in _profiler.getstats()
        if not isinstance(entry.code, str) and entry.code.co_filename.startswith(prefix)})
    _profiler = None
    out = pathlib.Path(os.environ[ENV])
    (out / f"called-{os.getpid()}.txt").write_text("".join(c + "\n" for c in called))


def _in_child(_key: object) -> None:
    # Runs in each forked worker after multiprocessing has cleared the
    # finalizers it inherited, so the worker's own dump is set here.
    multiprocessing.util.Finalize(None, _dump, exitpriority=0)


def pytest_configure(config) -> None:
    global _profiler
    out = os.environ.get(ENV)
    if not out:
        raise RuntimeError(f"-p tests.reach needs ${ENV}, the output directory")
    pathlib.Path(out).mkdir(parents=True, exist_ok=True)
    multiprocessing.util.register_after_fork(_in_child, _in_child)
    _profiler = cProfile.Profile(builtins=False, subcalls=False)
    _profiler.enable()


def pytest_unconfigure(config) -> None:
    # Stop here, not at exit: during interpreter teardown the profiler
    # would still fire, with module globals already None.
    _dump()


# -- check ----------------------------------------------------------------
def defined(src: pathlib.Path = SRC) -> dict[tuple[str, int], str]:
    """``(path, first line) -> qualname`` for every ``def`` under ``src``."""
    found: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line)] = qualname
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(src.rglob("*.py")):
        path = str(file.relative_to(src))
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def never_called(out: pathlib.Path, src: pathlib.Path = SRC) -> set[str]:
    """``path:qualname`` of every ``def`` no ``called-*.txt`` in ``out`` names."""
    called = set()
    for dump in out.glob("called-*.txt"):
        for row in dump.read_text().splitlines():
            path, line = row.rsplit(" ", 1)
            called.add((path, int(line)))
    return {f"{path}:{name}" for (path, line), name in defined(src).items()
            if (path, line) not in called}


def read_allowlist(path: pathlib.Path = ALLOWLIST) -> dict[str, str]:
    """``path:qualname -> reason``; blank and ``#`` lines are skipped."""
    entries = {}
    for row in path.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            name, _, reason = row.partition("#")
            entries[name.strip()] = reason.strip()
    return entries


def problems(dead: set[str], allowed: dict[str, str]) -> list[str]:
    """Every way ``dead`` and the allowlist disagree; empty when exact."""
    return ([f"never called, not allowlisted: {name}" for name in sorted(dead - set(allowed))]
            + [f"allowlisted, but called or gone: {name}"
               for name in sorted(set(allowed) - dead)]
            + [f"allowlisted without a reason: {name}"
               for name, reason in sorted(allowed.items()) if not reason])


def main(argv: list[str]) -> int:
    (out,) = argv
    dead = never_called(pathlib.Path(out))
    allowed = read_allowlist()
    found = problems(dead, allowed)
    print(f"{len(defined())} functions in src/repro, {len(dead)} never called, "
          f"{len(allowed)} allowlisted")
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
