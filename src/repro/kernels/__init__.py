"""Flat-buffer compute kernels for the pipeline's three numeric cores.

* :mod:`~repro.kernels.flow_stdlib` — Dinic max-flow and residual
  reachability, behind :class:`repro.flow.dinic.FlatFlowNetwork`;
* :mod:`~repro.kernels.fw_stdlib` — the SEQ-kClist++ Frank–Wolfe rounds,
  behind :func:`repro.lhcds.seq_kclist.seq_kclist_plus_plus`;
* :mod:`~repro.kernels.kclist_stdlib` — the kClist h-clique recursion,
  behind :mod:`repro.cliques.kclist`.

They are plain functions over flat integer buffers (``array`` or list),
with no dependency beyond the standard library.  Every CSR argument follows
one convention: ``indptr`` is a row pointer of length ``n + 1`` and the
companion index buffer's slice ``[indptr[v]:indptr[v + 1]]`` is row ``v``.
Each module documents the rest of its layout contract.
"""
