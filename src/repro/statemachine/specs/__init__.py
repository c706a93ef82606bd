"""Bundled protocol state-machine descriptions (dot files)."""

from __future__ import annotations

import functools
from pathlib import Path

from repro.statemachine.machine import StateMachine

_SPEC_DIR = Path(__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def load_spec(name: str) -> StateMachine:
    """Load a bundled dot spec by protocol name (``"tcp"`` or ``"dccp"``).

    Each spec is parsed once per process: a :class:`StateMachine` is
    read-only after construction, so every caller shares one instance.
    """
    path = _SPEC_DIR / f"{name}.dot"
    if not path.exists():
        available = sorted(p.stem for p in _SPEC_DIR.glob("*.dot"))
        raise FileNotFoundError(f"no bundled state machine {name!r}; available: {available}")
    return StateMachine.from_dot(path.read_text())


def tcp_state_machine() -> StateMachine:
    return load_spec("tcp")


def dccp_state_machine() -> StateMachine:
    return load_spec("dccp")
