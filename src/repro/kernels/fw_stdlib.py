"""Pure-Python SEQ-kClist++ core on flat weight buffers.

Layout: ``flat`` is the ``num_instances * h`` vertex-id buffer of an
:class:`~repro.instances.InstanceSet` (instance ``i`` owns
``flat[i*h:(i+1)*h]``), ``degrees[vid]`` the instance degree of interned
vertex ``vid`` and ``rank_of[vid]`` its tie-break rank.  The weight buffer
``alpha`` returned has the same layout as ``flat``.

The Frank–Wolfe rounds are run in *scaled* weight space: with
``gamma_t = 1/(t+1)``, the textbook update ``alpha <- (1-gamma_t)*alpha``
followed by ``+gamma_t`` on the selected entry satisfies

    ``alpha after round t  ==  w / (t + 1)``

where ``w`` starts at ``1/h`` per entry and round ``t`` simply adds ``1`` to
the selected entry.  Working on ``w`` removes both per-round shrink sweeps
(the old quadratic-ish term) and keeps every per-round update float-exact:
the additions are integer increments far below 2**53, so the only rounding
happens in the init (``degree * (1/h)``) and the final materialisation
(one multiply by ``1/(T+1)``).

Triangles (``h = 3``, the paper's default) take their own branch,
:func:`_rounds_h3`.  It is the generic slot scan unrolled: slot 1 is
compared against slot 0 and slot 2 against the better of the two, with
the same strict ``(w_r, rank_of)`` test, so it picks the same slot in every
round and the weights come out bit-identical.  It walks three strided
column slices of ``flat`` zipped together rather than a list of
per-instance row tuples: the row tuples raised the peak RSS of a solve on
a 3.1k-vertex community graph by 2.9 MB (42.68 to 45.54 MB, +6.7 %),
while the columns add three flat id-arrays.  The generic loop for other
``h`` keeps its index arithmetic: with zipped columns and its inner slot
loop it measured slower, not faster (0.50 to 0.63 s at ``h = 4`` on the
same graph).  Both figures are from a 2-core Xeon VM, Python 3.11.
"""

# repro: allow-file-EX01(Frank-Wolfe iterate: approximate float weights by design; stable_groups pads them with FLOAT_SLACK before any certified comparison)

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple


def _rounds_h3(
    flat: Sequence[int],
    w_r: List[float],
    rank_of: Sequence[int],
    counts: List[int],
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
            best_r = w_r[a]
            r = w_r[b]
            if r < best_r or (r == best_r and rank_of[b] < rank_of[a]):
                a = b
                best_r = r
                slot = base + 1
            r = w_r[c]
            if r < best_r or (r == best_r and rank_of[c] < rank_of[a]):
                a = c
                slot = base + 2
            counts[slot] += 1
            w_r[a] += 1.0


def fw_distribute(
    h: int,
    flat: Sequence[int],
    degrees: Sequence[int],
    rank_of: Sequence[int],
    iterations: int,
) -> Tuple[array, List[float], List[int]]:
    """Run ``iterations`` SEQ-kClist++ rounds over the flat instance ids.

    Each round gives every instance's unit to its poorest vertex (least
    received weight, ties to the lower ``rank_of``), in instance order.
    Returns ``(alpha, r, loads)``: the flat ``array('d')`` weight buffer,
    the received weight per interned id, and the exact integer load per
    interned id, ``degrees[vid] + h * picks(vid)`` with ``picks`` the
    rounds in which an instance gave ``vid`` its unit (over
    ``h * (iterations + 1)``, see :class:`~repro.lhcds.seq_kclist.WeightState`).
    The loads are summed from the integer per-slot pick counts, not from
    ``r``, so they are exact whatever float rounding decided a tie.
    """
    n_inst = len(flat) // h
    inv_h = 1.0 / h
    # counts[i*h+j]: rounds in which instance i gave its unit to slot j;
    # w_r: received weight per interned id, in scaled space.
    counts = [0] * (n_inst * h)
    w_r = [d * inv_h for d in degrees]
    if h == 3:
        _rounds_h3(flat, w_r, rank_of, counts, iterations)
    else:
        for _ in range(iterations):
            base = 0
            for _i in range(n_inst):
                v_min = flat[base]
                j_min = 0
                best_r = w_r[v_min]
                best_k = rank_of[v_min]
                for j in range(1, h):
                    v = flat[base + j]
                    r = w_r[v]
                    if r < best_r or (r == best_r and rank_of[v] < best_k):
                        v_min = v
                        j_min = j
                        best_r = r
                        best_k = rank_of[v]
                counts[base + j_min] += 1
                w_r[v_min] += 1.0
                base += h
    scale = 1.0 / (iterations + 1)
    alpha = array("d", [(c + inv_h) * scale for c in counts])
    r_of = [w * scale for w in w_r]
    loads = list(degrees)
    for vid, picks in zip(flat, counts):
        loads[vid] += h * picks
    return alpha, r_of, loads
