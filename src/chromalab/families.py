"""Deterministic generators for the named graph families.

Labeling conventions (fixed so colorings are reproducible):

* ``complete(n)``            -- K_n on vertices 0..n-1.
* ``complete_bipartite(m,n)``-- X = 0..m-1, Y = m..m+n-1.
* ``star(n)``                -- center 0, leaves 1..n (equals K_{1,n}).
* ``bistar(m,n)``            -- centers 0 and 1 adjacent; pendants 2..m+1
                                at 0 and m+2..m+n+1 at 1.
* ``path(n)``                -- 0-1-...-(n-1).
* ``cycle(n)``               -- path plus the edge (0, n-1); needs n >= 3.
* ``wheel(n)``               -- hub 0 joined to the cycle 1..n-1 (n vertices
                                total, so wheel(4) = K_4); needs n >= 4.
* ``helm(n)``                -- hub 0, rim cycle 1..n, pendant n+i attached
                                to rim vertex i; 2n+1 vertices, 3n edges.
* ``fan(n)``                 -- hub 0 joined to the path 1..n (n+1 vertices,
                                2n-1 edges); needs n >= 2, so fan(2) = K_3.

:func:`generate` checks a family name and parameter count; :func:`_check`,
which every generator and the wheel, helm and fan edge-coloring rules
call, checks each value against :data:`FAMILY_TABLE`.  That is the only
check: a generator derives its edges from checked values, writes each as
``(u, v)`` with ``u < v`` and builds through ``Graph._from_canonical``,
since ``Graph(...)`` is the check for edges from outside the program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .graphs import Edge, Graph


@dataclass(frozen=True)
class Family:
    """One row of :data:`FAMILY_TABLE`: parameter names, their minimums, the generator.

    ``param_of_order`` (families with a constructive edge coloring only)
    maps a graph order to the only parameter whose graph can have that
    order; the result may be below the minimum, or name a graph of another
    order, when the family has no graph of that order.  ``size_of_param``
    (the same families) gives the edge count of the graph of a parameter.
    """

    params: tuple[str, ...]
    mins: tuple[int, ...]
    generator: Callable[..., Graph]
    param_of_order: Callable[[int], int] | None = None
    size_of_param: Callable[[int], int] | None = None


def _graph(order: int, edges: list[Edge]) -> Graph:
    """The graph of a generator's edges, each written ``(u, v)`` with
    ``0 <= u < v < order`` and none twice, derived from parameters that
    :func:`_check` accepted; only their order is left to fix."""
    return Graph._from_canonical(order, tuple(sorted(edges)))


def complete(n: int) -> Graph:
    _check("complete", n)
    return _graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    _check("complete_bipartite", m, n)
    return _graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    _check("star", n)
    return _graph(n + 1, [(0, k) for k in range(1, n + 1)])


def bistar(m: int, n: int) -> Graph:
    _check("bistar", m, n)
    edges = [(0, 1)]
    edges += [(0, k) for k in range(2, m + 2)]
    edges += [(1, k) for k in range(m + 2, m + n + 2)]
    return _graph(m + n + 2, edges)


def path(n: int) -> Graph:
    _check("path", n)
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check("cycle", n)
    return _graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def wheel(n: int) -> Graph:
    _check("wheel", n)
    edges = [(0, i) for i in range(1, n)]                     # spokes
    edges += [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]  # rim cycle
    return _graph(n, edges)


def helm(n: int) -> Graph:
    _check("helm", n)
    edges = [(0, i) for i in range(1, n + 1)]                 # spokes
    edges += [(i, i + 1) for i in range(1, n)] + [(1, n)]      # rim cycle
    edges += [(i, n + i) for i in range(1, n + 1)]            # pendants
    return _graph(2 * n + 1, edges)


def fan(n: int) -> Graph:
    _check("fan", n)
    edges = [(0, i) for i in range(1, n + 1)]                 # spokes
    edges += [(i, i + 1) for i in range(1, n)]                # path
    return _graph(n + 1, edges)


FAMILY_TABLE: dict[str, Family] = {
    "complete": Family(("n",), (1,), complete, lambda order: order, lambda n: n * (n - 1) // 2),
    "complete_bipartite": Family(("m", "n"), (1, 1), complete_bipartite),
    "star": Family(("n",), (1,), star),
    "bistar": Family(("m", "n"), (1, 1), bistar),
    "path": Family(("n",), (1,), path),
    "cycle": Family(("n",), (3,), cycle),
    "wheel": Family(("n",), (4,), wheel, lambda order: order, lambda n: 2 * n - 2),
    "helm": Family(("n",), (3,), helm, lambda order: (order - 1) // 2, lambda n: 3 * n),
    "fan": Family(("n",), (2,), fan, lambda order: order - 1, lambda n: 2 * n - 1),
}

FAMILIES = tuple(FAMILY_TABLE)


def generate(family: str, params: tuple[int, ...]) -> Graph:
    """The graph of a family at params; DomainError names a bad family or count."""
    fam = FAMILY_TABLE.get(family)
    if fam is None:
        raise DomainError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    if len(params) != len(fam.mins):
        raise DomainError(f"{family} takes {len(fam.mins)} parameter(s) "
                          f"({', '.join(fam.params)}), got {len(params)}")
    return fam.generator(*params)


def make(family: str, *params: int) -> Graph:
    """``generate(family, params)``."""
    return generate(family, params)


def _check(family: str, *params: int) -> None:
    """Raise DomainError unless each value is an int at or above its family
    minimum and at most ``sys.maxsize``, the rule of an edge-list order."""
    fam = FAMILY_TABLE[family]
    for name, lo, value in zip(fam.params, fam.mins, params):
        if type(value) is not int or value < lo:
            raise DomainError(f"{family} requires {name} >= {lo} (got {name}={value})")
        if value > sys.maxsize:
            raise DomainError(f"{family} parameter {name}={value} exceeds the platform's index range")
