"""Loggers that import `logging` only when a record can be printed.

The package logs a few DEBUG diagnostics and one WARNING.  Unless `logging`
is configured, a DEBUG record prints nothing.  So `LazyLogger(name)` drops
DEBUG records while `logging` is not imported, and hands every record to
`logging.getLogger(name)` once it is: imported by a caller (who may have
configured it) or by the CLI when GITSTAB_LOG is set.  A WARNING always
imports `logging`, so it prints exactly as from a plain logger.

`configure_on_first_use(fn)` registers a set-up step (the CLI's
`basicConfig`) to run once, right before the first record reaches `logging`.
"""

from __future__ import annotations

import sys

# Module state because the logging configuration it defers is process-wide.
_pending = None


def configure_on_first_use(fn) -> None:
    global _pending
    _pending = fn


class LazyLogger:
    __slots__ = ("name", "_logger")

    def __init__(self, name: str):
        self.name = name
        self._logger = None

    def _resolve(self, force: bool):
        global _pending
        logging = sys.modules.get("logging")
        if logging is None:
            if not force:
                return None
            import logging
        if _pending is not None:
            fn, _pending = _pending, None
            fn()
        self._logger = logging.getLogger(self.name)
        return self._logger

    def debug(self, msg, *args) -> None:
        logger = self._logger or self._resolve(False)
        if logger is not None:
            logger.debug(msg, *args, stacklevel=2)

    def warning(self, msg, *args) -> None:
        logger = self._logger or self._resolve(True)
        logger.warning(msg, *args, stacklevel=2)
