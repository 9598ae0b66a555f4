"""ASCII tables, figure-shaped series dumps, and PASS/FAIL shape checks.

Every benchmark prints (a) the same rows/series the paper's table or
figure reports and (b) explicit shape checks — the comparative claims
("WAVNet ≥ IPOP here", "flat in cluster size", "crossover near X") that
the reproduction is supposed to preserve.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Iterable, Sequence

__all__ = ["ShapeCheck", "render_series", "render_table"]


def _column(cells: Sequence) -> list[str]:
    """One column, one style: if it holds a float, every number in it gets
    the decimals its most precise float shows at three significant digits
    (at least one; none from 1000 up)."""
    places = [0 if abs(c) >= 1000 else
              max(1, -Decimal(f"{c:.3g}").normalize().as_tuple().exponent)
              for c in cells if isinstance(c, float) and math.isfinite(c)]
    if not places:
        return [str(c) for c in cells]
    return [f"{c:,.{max(places)}f}" if isinstance(c, (int, float)) and not isinstance(c, bool)
            else str(c) for c in cells]


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width ASCII table."""
    str_rows = list(zip(*map(_column, zip(*rows))))
    widths = [max(map(len, column)) for column in zip(headers, *str_rows)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, sep, line(headers), sep]
    out.extend(line(r) for r in str_rows)
    out.append(sep)
    return "\n".join(out)


def render_series(title: str, x_label: str, xs, series: dict) -> str:
    """Figure-shaped output: one row per x, one column per curve."""
    return render_table(title, [x_label, *series], zip(xs, *series.values()))


class ShapeCheck:
    """Collects named pass/fail assertions about result *shape*."""

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, condition: bool, detail: str = "") -> bool:
        self.results.append((name, bool(condition), detail))
        return bool(condition)

    @property
    def all_passed(self) -> bool:
        return all(ok for _n, ok, _d in self.results)

    def render(self) -> str:
        out = [f"shape checks [{self.experiment}]"]
        for name, ok, detail in self.results:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            out.append(f"  [{mark}] {name}{suffix}")
        return "\n".join(out)

    def print_and_assert(self) -> None:
        print(self.render())
        failed = [n for n, ok, _d in self.results if not ok]
        assert not failed, f"{self.experiment}: shape checks failed: {failed}"
