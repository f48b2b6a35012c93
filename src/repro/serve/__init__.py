"""Repro-as-a-service: the socket front end over the toolchain.

``python -m repro serve --socket PATH`` (or ``--port N``) starts a
long-lived daemon that answers analyze / study / explore /
explore-study / frontier requests as JSON lines over a local socket —
the warm-process home the persistent worker pool and the disk cache
were built for.  See
:mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.daemon` for the server (in-flight request
deduplication, the whole-result cache tier, status accounting) and
:mod:`repro.serve.client` for the small synchronous client the tests
and the CI smoke job drive it with.
"""

from repro.serve.client import ServeClient, wait_for_server
from repro.serve.daemon import ReproServer, ServeStats

__all__ = ["ReproServer", "ServeClient", "ServeStats", "wait_for_server"]
