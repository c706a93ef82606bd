"""Discrete-event network simulator.

This package is the reproduction's substitute for the paper's KVM + NS-3
testbed.  It provides a deterministic event scheduler, full-duplex links with
bandwidth, propagation delay and drop-tail queues, simple hosts/routers with
static routing, the per-host socket table every transport stack builds on,
packet-capture taps, and a dumbbell topology builder matching Figure 3 of
the paper.

The simulator is deterministic: identical inputs (including the seed passed to
:class:`Simulator`) produce identical packet traces, which is what lets the
SNAKE executor compare attack runs against a no-attack baseline.
"""

from repro.netsim.simulator import EventHandle, Simulator, Timer
from repro.netsim.chaos import ChaosConfig, ChaosTap
from repro.netsim.link import Link, Pipe, PipeStats
from repro.netsim.node import Host, ProtocolHandler
from repro.netsim.endpoint import Endpoint
from repro.netsim.tap import LinkTap, TapVerdict
from repro.netsim.trace import PacketTrace, TraceRecord
from repro.netsim.topology import Dumbbell, DumbbellConfig

__all__ = [
    "EventHandle",
    "Simulator",
    "Timer",
    "ChaosConfig",
    "ChaosTap",
    "Link",
    "Pipe",
    "PipeStats",
    "Host",
    "ProtocolHandler",
    "Endpoint",
    "LinkTap",
    "TapVerdict",
    "PacketTrace",
    "TraceRecord",
    "Dumbbell",
    "DumbbellConfig",
]
