"""Stage timer shared by the library and the CLI."""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

logger = logging.getLogger("cdbg.stages")


@contextmanager
def stage(name: str):
    """Log the wall seconds the body takes as one INFO line, ``stage <name>: <s> s``."""
    t0 = time.perf_counter()
    yield
    logger.info("stage %s: %.3f s", name, time.perf_counter() - t0)
