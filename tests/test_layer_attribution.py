"""Per-layer attribution (``benchmarks/perf/layers.py``) cannot silently
regress: it maps a file to its layer by the longest dotted module prefix,
so a module moved or added outside its package would charge its time to
``other`` without any other test noticing."""

import os
import sys
from pathlib import Path

import repro

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))

import layers  # noqa: E402

SRC = Path(os.path.dirname(os.path.abspath(repro.__file__)))

# The repro modules no layer claims: eight package __init__s and the
# modules with no layer of their own.
UNLAYERED = {
    "__init__.py", "analysis/__init__.py", "baselines/__init__.py",
    "core/__init__.py", "net/__init__.py", "overlay/__init__.py",
    "sim/__init__.py", "vm/__init__.py",
    "baselines/ipop.py", "vm/dirty.py", "vm/hypervisor.py", "vm/machine.py",
    "vm/migration.py", "core/grouping.py", "core/latency.py",
    "core/options.py", "analysis/tables.py",
}


def layer(path: Path) -> str:
    return layers.layer_of_file(str(path))


def test_split_packages_keep_their_layer():
    for package, name in (("net/tcp", "net.tcp"), ("overlay/can", "overlay.can"),
                          ("core/driver", "core.driver")):
        modules = sorted((SRC / package).glob("*.py"))
        assert len(modules) >= 4, package
        assert {m.name: layer(m) for m in modules} == dict.fromkeys(
            (m.name for m in modules), name)


def test_only_the_known_modules_fall_to_other():
    other = {str(f.relative_to(SRC)) for f in SRC.rglob("*.py")
             if layer(f) == layers.OTHER}
    assert other == UNLAYERED
