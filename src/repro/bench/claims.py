"""Shape claims: one sentence plus one check over an experiment's cells.

A :class:`Claim` is how an observation is written down exactly once: the
sentence is what ``python -m repro.bench.report`` prints after ``ERROR:``
when the check fails, what EXPERIMENTS.md lists under the table, and what
``BENCH_paper.json`` records as a gated boolean.  ``check(body)`` returns
the labels of the offending cells (empty = the claim holds).

The builders below cover the comparisons the paper's observations are made
of.  Each evaluates only the cells whose counterpart is in the body: a run
reduced to one framework has no PyG-vs-DGL pair, one reduced to a single
batch size no 64-vs-256 pair, and such a claim then has nothing to say.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

Cell = Dict[str, Any]
Check = Callable[[Any], List[str]]


@dataclass(frozen=True)
class Claim:
    sentence: str
    check: Check


def _everywhere(cell: Cell) -> bool:
    return True


def _label(key: Iterable) -> str:
    return "/".join(str(part) for part in key)


def where(**fixed) -> Callable[[Cell], bool]:
    """Cell filter: these fields hold exactly these values."""
    return lambda cell: all(cell[field] == value for field, value in fixed.items())


def on(section: str, check: Check) -> Check:
    """``check`` over one cell list of a dict body (absent list = nothing to check)."""
    return lambda body: check(body[section]) if section in body else []


def each(keys: Sequence[str], holds: Callable[[Cell], bool],
         where: Callable[[Cell], bool] = _everywhere) -> Check:
    """Every cell selected by ``where`` satisfies ``holds``."""
    return lambda cells: [_label(c[k] for k in keys)
                          for c in cells if where(c) and not holds(c)]


def _groups(cells, keys, axis, where) -> Dict[Tuple, Dict[Any, Cell]]:
    """Cells that differ only in ``axis``: rest-of-key -> axis value -> cell."""
    groups: Dict[Tuple, Dict[Any, Cell]] = {}
    for cell in cells:
        if where(cell):
            rest = tuple(cell[k] for k in keys if k != axis)
            groups.setdefault(rest, {})[cell[axis]] = cell
    return groups


def paired(keys: Sequence[str], axis: str, pairs: Iterable[Tuple[Any, Any]],
           holds: Callable[[Cell, Cell], bool],
           where: Callable[[Cell], bool] = _everywhere) -> Check:
    """``holds(a_cell, b_cell)`` for every two cells that differ only in
    ``axis`` (``a`` vs ``b``, for each ``(a, b)`` of ``pairs``)."""
    pairs = tuple(pairs)

    def check(cells) -> List[str]:
        return [_label(rest + (f"{a}->{b}",))
                for rest, group in _groups(cells, keys, axis, where).items()
                for a, b in pairs
                if a in group and b in group and not holds(group[a], group[b])]

    return check


def extreme(keys: Sequence[str], axis: str, value: Any, field: str,
            where: Callable[[Cell], bool] = _everywhere) -> Check:
    """Among the cells that differ only in ``axis``, the ``value`` cell has
    the largest ``field``."""

    def check(cells) -> List[str]:
        return [_label(rest + (value,))
                for rest, group in _groups(cells, keys, axis, where).items()
                if value in group and len(group) > 1
                and group[value][field] < max(c[field] for c in group.values())]

    return check


def among(keys: Sequence[str], wanted: Sequence[Tuple],
          holds: Callable[..., bool]) -> Check:
    """``holds(*cells)`` over exactly the cells keyed ``wanted``."""

    def check(cells) -> List[str]:
        by_key = {tuple(c[k] for k in keys): c for c in cells}
        if any(key not in by_key for key in wanted):
            return []
        return [] if holds(*(by_key[key] for key in wanted)) else [_label(k) for k in wanted]

    return check
