"""Initial h-clique compact-number bounds (Algorithm 1, ``InitializeBd``).

Proposition 3 of the paper relates the compact number ``phi_h(u)`` to the
(k, psi_h)-core number ``core_G(u, psi_h)``:

* lower bound:  ``phi_h(u) >= core_G(u, psi_h) / h``
* upper bound:  ``phi_h(u) <= core_G(u, psi_h)``

The lower bounds are exact :class:`fractions.Fraction` objects and the
upper bounds the integer core numbers themselves.  DeriveSG may replace
either with Theorem 4's bounds, which are exact ``Fraction`` values of the
Frank–Wolfe iterate, so every bound is an ``int`` or a ``Fraction``.
Tightening compares a bound by its numerator and denominator, which is
exact and skips the ``Fraction`` comparison's dispatch per vertex: with a
``Fraction`` comparison, DeriveSG's tightening made the first DeriveSG
call 26–35 % slower on a 3.1k-vertex community graph and BA-3000.

The bounds also keep the core numbers they came from.  Prune rule 2 starts
its refinement from them (see :mod:`repro.lhcds.prune`), so Algorithm 1's
peel is the only peel of a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from ..cores.clique_core import peel
from ..graph.graph import Vertex
from ..instances import InstanceSet

Number = int | Fraction


@dataclass
class CompactBounds:
    """Per-vertex lower/upper bounds on the h-clique compact number."""

    lower: Dict[Vertex, Number] = field(default_factory=dict)
    upper: Dict[Vertex, Number] = field(default_factory=dict)
    #: ``core_G(u, psi_h)`` of every vertex of the universe
    #: :func:`initialize_bounds` peeled (empty for bounds built by hand).
    #: Read-only: :meth:`copy` shares it, and so do cached and
    #: session-held components.
    core: Dict[Vertex, int] = field(default_factory=dict)

    def lower_of(self, v: Vertex) -> Number:
        """Lower bound of ``v`` (0 when unknown)."""
        return self.lower.get(v, 0)

    def upper_of(self, v: Vertex) -> Optional[Number]:
        """Upper bound of ``v``, or ``None`` when unbounded.

        ``None`` is the exact top of the bound lattice: an unknown vertex
        has no finite upper bound.  Returning a ``float("inf")`` sentinel
        here would leak a float into otherwise-Fraction arithmetic on the
        certificate path, so callers must treat ``None`` as "compares
        greater than every finite bound" (i.e. never prunable, always
        inside an upward closure).
        """
        return self.upper.get(v)

    def tighten_lower(self, vertices: Iterable[Vertex], value: Number) -> None:
        """Raise the lower bound of each of ``vertices`` to ``value`` where it improves it."""
        num, den = value.numerator, value.denominator
        lower = self.lower
        for v in vertices:
            current = lower.get(v, 0)
            if num * current.denominator > current.numerator * den:
                lower[v] = value

    def tighten_upper(self, vertices: Iterable[Vertex], value: Number) -> None:
        """Lower the upper bound of each of ``vertices`` to ``value`` where it improves it."""
        num, den = value.numerator, value.denominator
        upper = self.upper
        for v in vertices:
            current = upper.get(v)
            if current is None or num * current.denominator < current.numerator * den:
                upper[v] = value

    def copy(self) -> "CompactBounds":
        """Return a copy whose bounds tighten independently (``core`` is shared)."""
        return CompactBounds(lower=dict(self.lower), upper=dict(self.upper), core=self.core)


def initialize_bounds(
    instances: InstanceSet,
    vertices: Optional[Iterable[Vertex]] = None,
) -> Tuple[CompactBounds, Dict[Vertex, int]]:
    """Compute the initial bounds of Algorithm 1.

    Returns the bounds object and the raw clique-core numbers, which the
    bounds also keep as :attr:`CompactBounds.core`.  Preprocessing reads the
    largest core number as the component's density window.  Prune rule 2
    reuses the core numbers as the start of its refinement instead of
    peeling again: they bound from above the core numbers of every
    sub-universe of the same instances (see
    :func:`repro.lhcds.prune.prune_candidates`).
    """
    universe = set(vertices) if vertices is not None else instances.vertices()
    core = peel(instances, universe).core
    bounds = CompactBounds(core=core)
    h = instances.h
    for v in universe:
        c = core.get(v, 0)
        bounds.lower[v] = Fraction(c, h)
        bounds.upper[v] = c
    return bounds, core
