"""Structured JSON logging for the serving stack.

Every structured event of the serve / stream / gateway layers —
``ModelServer``'s "request" lines, ``StreamSession``'s "frame" lines,
the gateway's "proxy" and rollout lines — goes out through
:func:`log_event`: plain stdlib logging on a ``repro.*`` logger, the
payload attached as ``extra={"repro_fields": {...}}``.  This module
owns both ends of that shape:

``log_event(logger, event, **fields)``
    The one emitter: one call, one line, fields attached the way the
    formatter expects.

``configure_logging()``
    Install a :class:`JsonLineFormatter` handler on the ``"repro"``
    logger, once.  Every event from any ``repro.*`` logger then comes
    out as one JSON object per line — the shape log aggregators and
    the gateway's request-tracing tests consume.

Nothing here imports numpy or any repro sibling, so it sits below
every layer: the emitting layers import it directly, and
:mod:`repro.api.logs` re-exports it as part of the public front door.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Optional, Union

__all__ = ["JsonLineFormatter", "configure_logging", "log_event"]

#: Attribute tag marking handlers installed by :func:`configure_logging`
#: so repeated calls reconfigure instead of stacking duplicates.
_HANDLER_TAG = "_repro_json_handler"


class JsonLineFormatter(logging.Formatter):
    """Format a log record as a single sorted-key JSON object.

    The payload is ``{"ts", "level", "logger", "event"}`` plus any
    fields the emitter attached via ``extra={"repro_fields": {...}}``.
    Reserved keys from the envelope win on collision; non-serialisable
    field values degrade to ``str()`` rather than raising — a logging
    call must never take down a request path.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = {}
        fields = getattr(record, "repro_fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        payload["ts"] = round(record.created, 6)
        payload["level"] = record.levelname.lower()
        payload["logger"] = record.name
        payload["event"] = record.getMessage()
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def configure_logging(
    level: Union[int, str] = logging.INFO,
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Route all ``repro.*`` log events to ``stream`` as JSON lines.

    Idempotent: calling again replaces the previously installed
    handler (e.g. to change level or stream) instead of duplicating
    output.  Returns the configured ``"repro"`` logger.  Propagation
    to the root logger is disabled so embedding applications with
    their own root handlers do not see events twice.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter())
    setattr(handler, _HANDLER_TAG, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


def log_event(logger: logging.Logger, event: str, *,
              level: int = logging.INFO, **fields) -> None:
    """Emit one structured event: ``log_event(log, "shed", model=key)``.

    Timing fields are conventionally seconds as floats; emitters that
    have a request id pass it as ``request_id=...`` so one request's
    lines correlate across processes.  ``level`` is the record's level
    (``level`` is an envelope key of the JSON line, never a field).
    """
    logger.log(level, event, extra={"repro_fields": fields})
