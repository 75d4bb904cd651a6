"""Shared on/off switch for the instrumentation layer.

All of ``repro.observability`` keys off one module-level state object so the
disabled fast path in every hot-site helper is a single attribute read plus a
bool check — cheap enough to leave the calls compiled into the hot loops
(verified by ``tests/observability/test_overhead.py``).

Metrics and tracing record anything at all only while ``enabled`` is set.
It is off by default; :func:`enable` / :func:`disable` are the one switch,
and every entry point that records (``repro-serve``, ``repro-plan``,
``repro-verify``, ``repro-experiments``) calls :func:`enable` itself.
"""

from __future__ import annotations

__all__ = ["STATE", "enable", "disable", "is_enabled"]


class _State:
    """Mutable singleton holding the instrumentation switch."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


STATE = _State()


def enable() -> None:
    """Turn instrumentation on."""
    STATE.enabled = True


def disable() -> None:
    """Turn all instrumentation off (the zero-overhead default)."""
    STATE.enabled = False


def is_enabled() -> bool:
    return STATE.enabled
