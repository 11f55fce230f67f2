"""repro.serve — the asyncio multiply-as-a-service front-end.

Thin HTTP layer over :class:`repro.runtime.Runtime`: each admitted request
runs on arrival on the tenant's warm plan cache, which keys recipes by
operand structure and lowers each structure once, however many callers
share it, so symbolic lowering is paid once per structure, not once per
request.  See :mod:`repro.serve.server` for routes and
:mod:`repro.serve.batching` for admission control.
"""

from repro.serve.batching import AdmissionConfig, BatchStats, MicroBatcher, Overloaded
from repro.serve.protocol import BadRequest, csr_from_wire, csr_to_wire
from repro.serve.server import ServeConfig, Server, ServerThread, run

__all__ = [
    "AdmissionConfig",
    "BadRequest",
    "BatchStats",
    "MicroBatcher",
    "Overloaded",
    "ServeConfig",
    "Server",
    "ServerThread",
    "csr_from_wire",
    "csr_to_wire",
    "run",
]
