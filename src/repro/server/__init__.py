"""Persistent solve service: a resident process over warm preprocess state.

``python -m repro.server`` (or ``repro-lhcds serve``) starts a long-lived
HTTP server that holds named graphs — and, through
:mod:`repro.engine.cache`, their preprocessed-index artifacts — resident in
memory.  Repeated ``POST /v1/solve`` calls over the same graph skip the
enumerate/split/bound pipeline entirely: the per-request cost drops to the
solve itself, which is the point of serving instead of re-running the CLI.

The HTTP layer lives in :mod:`repro.server.app`; the socket-free core (the
piece tests and embedders use) is :class:`repro.server.service.SolveService`.
Served solves are bit-identical to cold in-process solves for every solver
and executor backend — the server only changes *where* the prepared
components come from, never what they contain.
"""

from .app import create_server, main
from .service import ServiceError, SolveService

__all__ = ["SolveService", "ServiceError", "create_server", "main"]
