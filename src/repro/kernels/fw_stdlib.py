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
lookup on ties: against that pair of comparisons the rounds are about
15 % faster at ``h = 3`` and 9 % at ``h = 4`` on a 3.1k-vertex community
graph (T = 20; 59 against 70 ms and 0.32 against 0.35 s, in process on a
2-core Xeon VM, Python 3.11).

Triangles (``h = 3``, the paper's default) take their own branch,
:func:`_rounds_h3`, about 3.5x faster than the generic slot scan on the
same input (59 against 209 ms).  It reads the three members' keys once,
picks the least with two comparisons and writes the winner's key back
from its local.  The keys are unique per vertex and an instance's members
are distinct, so the strict minimum is unique and both loops pick the
same slot in every round.  It walks three columns of ``flat`` (slots 0,
1 and 2 of every instance) zipped together, held as lists over one int
object per id: iterating the id-array itself boxes a fresh int per slot
in every round, and made the rounds 76 instead of 59 ms.  Picks are
counted per column and interleaved into the pick list at the end.  The
columns and counters are six lists of one entry per instance; the
kernel's traced peak allocation on that graph is 2.0 MiB, against
5.2 MiB for per-instance row tuples.  The generic loop for other ``h``
keeps its index arithmetic: with zipped columns and its inner slot loop
it measured slower, not faster (0.32 to 0.39 s at ``h = 4`` on the same
graph).
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
    # The id columns are lists over one int object per id: iterating an
    # id-array would box a fresh int per slot in every round.
    ids = list(range(len(key)))
    firsts, seconds, thirds = (list(map(ids.__getitem__, flat[j::3])) for j in range(3))
    # One pick counter per column; they are interleaved into ``picks`` last.
    columns = [[0] * len(firsts) for _ in range(3)]
    picks_a, picks_b, picks_c = columns
    for _ in range(iterations):
        for i, a, b, c in zip(range(len(firsts)), firsts, seconds, thirds):
            ka = key[a]
            kb = key[b]
            kc = key[c]
            if kb < ka:
                if kc < kb:
                    key[c] = kc + step
                    picks_c[i] += 1
                else:
                    key[b] = kb + step
                    picks_b[i] += 1
            elif kc < ka:
                key[c] = kc + step
                picks_c[i] += 1
            else:
                key[a] = ka + step
                picks_a[i] += 1
    for j, column in enumerate(columns):
        picks[j::3] = column


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
