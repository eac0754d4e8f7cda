"""Structured JSON logging: :mod:`repro.logs` under the public front
door (``configure_logging``, ``log_event``, ``JsonLineFormatter``)."""

from ..logs import JsonLineFormatter, configure_logging, log_event

__all__ = ["JsonLineFormatter", "configure_logging", "log_event"]
