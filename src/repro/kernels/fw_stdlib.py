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
"""

# repro: allow-file-EX01(Frank-Wolfe iterate: approximate float weights by design; stable_groups pads them with FLOAT_SLACK before any certified comparison)

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple


def fw_distribute(
    h: int,
    flat: Sequence[int],
    degrees: Sequence[int],
    rank_of: Sequence[int],
    iterations: int,
) -> Tuple[array, List[float]]:
    """Run ``iterations`` SEQ-kClist++ rounds over the flat instance ids.

    Each round gives every instance's unit to its poorest vertex (least
    received weight, ties to the lower ``rank_of``), in instance order.
    Returns ``(alpha, r)``: the flat ``array('d')`` weight buffer and the
    received weight per interned id.
    """
    n_inst = len(flat) // h
    inv_h = 1.0 / h
    # counts[i*h+j]: rounds in which instance i gave its unit to slot j;
    # w_r: received weight per interned id, in scaled space.
    counts = [0] * (n_inst * h)
    w_r = [d * inv_h for d in degrees]
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
    return alpha, r_of
