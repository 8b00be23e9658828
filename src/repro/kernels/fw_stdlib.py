"""Pure-Python SEQ-kClist++ core on flat integer loads.

Layout: ``flat`` is the ``num_instances * h`` vertex-id buffer of an
:class:`~repro.instances.InstanceSet` (instance ``i`` owns
``flat[i*h:(i+1)*h]``), ``degrees[vid]`` the instance degree of interned
vertex ``vid`` and ``rank_of[vid]`` its tie-break rank, a permutation of
``range(len(degrees))``.  The pick list returned has the same layout as
``flat``.

The Frank–Wolfe rounds run on integer loads.  With ``gamma_t = 1/(t+1)``,
the textbook update ``alpha <- (1-gamma_t)*alpha`` followed by
``+gamma_t`` on the selected entry leaves, after round ``t``, every slot
holding ``(picks + 1/h) / (t + 1)``: the uniform start plus one unit per
round in which the slot was picked.  Multiplied by ``h``, the weight a
vertex receives is the integer load ``W = deg + h * picks``, so a round
adds ``h`` to the picked vertex's load and nothing is ever rounded.  The
poorest vertex is the one of least ``W``, ties to the lower ``rank_of``,
which is exactly the documented rule.  The rounds compare one int per
vertex, ``W * n + rank_of`` with ``n`` the number of ids: ranks are below
``n``, so it orders vertices by ``(W, rank_of)``, and a pick adds
``h * n``.  That one comparison replaces a load comparison plus a rank
lookup on ties, and made the rounds about 17 % faster at ``h = 3`` and
``h = 4`` on a 3.1k-vertex community graph (T = 20, 2-core Xeon VM,
Python 3.11).

Triangles (``h = 3``, the paper's default) take their own branch,
:func:`_rounds_h3`.  It is the generic slot scan unrolled: slot 1 is
compared against slot 0 and slot 2 against the better of the two, with
the same strict test, so it picks the same slot in every round.  It walks
three strided column slices of ``flat`` zipped together rather than a
list of per-instance row tuples: the row tuples raised the peak RSS of a
solve on a 3.1k-vertex community graph by 2.9 MB (42.68 to 45.54 MB,
+6.7 %), while the columns add three flat id-arrays.  The generic loop
for other ``h`` keeps its index arithmetic: with zipped columns and its
inner slot loop it measured slower, not faster (0.50 to 0.63 s at
``h = 4`` on the same graph).  Both figures are from the same VM.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def _rounds_h3(
    flat: Sequence[int],
    key: List[int],
    step: int,
    picks: List[int],
    iterations: int,
) -> None:
    """Run the rounds of :func:`fw_distribute` for ``h = 3`` in place."""
    firsts = flat[0::3]
    seconds = flat[1::3]
    thirds = flat[2::3]
    bases = range(0, len(flat), 3)
    for _ in range(iterations):
        for base, a, b, c in zip(bases, firsts, seconds, thirds):
            slot = base
            best = key[a]
            k = key[b]
            if k < best:
                a = b
                best = k
                slot = base + 1
            if key[c] < best:
                a = c
                slot = base + 2
            picks[slot] += 1
            key[a] += step


def fw_distribute(
    h: int,
    flat: Sequence[int],
    degrees: Sequence[int],
    rank_of: Sequence[int],
    iterations: int,
) -> Tuple[List[int], List[int]]:
    """Run ``iterations`` SEQ-kClist++ rounds over the flat instance ids.

    Each round gives every instance's unit to its poorest vertex (least
    load, ties to the lower ``rank_of``), in instance order.  Returns
    ``(picks, load)``: ``picks[i*h+j]`` counts the rounds in which instance
    ``i`` gave its unit to its ``j``-th slot, and ``load[vid]`` is
    ``degrees[vid] + h * picks(vid)``, the integer load of interned id
    ``vid`` (see :class:`~repro.lhcds.seq_kclist.WeightState`).
    """
    n = len(degrees)
    key = [d * n + rank for d, rank in zip(degrees, rank_of)]
    step = h * n
    picks = [0] * len(flat)
    if h == 3:
        _rounds_h3(flat, key, step, picks, iterations)
    else:
        n_inst = len(flat) // h
        for _ in range(iterations):
            base = 0
            for _i in range(n_inst):
                v_min = flat[base]
                j_min = 0
                best = key[v_min]
                for j in range(1, h):
                    v = flat[base + j]
                    k = key[v]
                    if k < best:
                        v_min = v
                        j_min = j
                        best = k
                picks[base + j_min] += 1
                key[v_min] += step
                base += h
    return picks, [k // n for k in key]
