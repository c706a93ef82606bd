"""A from-scratch TCP implementation with per-OS behavioural variants.

This package substitutes for the paper's KVM guests.  It implements the full
RFC 793 connection lifecycle (all 11 states), reliability (sequence numbers,
cumulative ACKs, RTO with exponential backoff, fast retransmit), flow
control, and New Reno congestion control — plus *variant profiles* that model
the implementation differences the paper's discovered attacks depend on:

* **Linux 3.0.0** — interprets nonsensical flag combinations (responds to
  flagless packets with a duplicate ACK); retains CLOSE_WAIT sockets with
  undelivered data for up to 15 retransmission retries.
* **Linux 3.13** — same CLOSE_WAIT retention, but ignores invalid flag
  combinations (the paper notes 3.13 fixed them).
* **Windows 8.1** — resets on any packet with RST set regardless of other
  flags, ignores other invalid combinations; overreacts to duplicate-ACK
  bursts (collapses its congestion window instead of New Reno recovery).
* **Windows 95** — naive congestion control that grows cwnd on *every* ACK
  received, including duplicates (Savage et al.'s misbehaving-receiver
  precondition).
"""

from repro.tcpstack.variants import (
    LINUX_3_0,
    LINUX_3_13,
    TCP_VARIANTS,
    TcpVariant,
    WINDOWS_8_1,
    WINDOWS_95,
    get_variant,
)
from repro.tcpstack.congestion import (
    CongestionControl,
    NaiveAckCounting,
    NewReno,
    OverreactingNewReno,
    make_congestion_control,
)
from repro.tcpstack.rtt import RttEstimator
from repro.tcpstack.connection import TcpConnection
from repro.tcpstack.endpoint import TcpEndpoint

__all__ = [
    "TcpVariant",
    "TCP_VARIANTS",
    "LINUX_3_0",
    "LINUX_3_13",
    "WINDOWS_8_1",
    "WINDOWS_95",
    "get_variant",
    "CongestionControl",
    "NewReno",
    "NaiveAckCounting",
    "OverreactingNewReno",
    "make_congestion_control",
    "RttEstimator",
    "TcpConnection",
    "TcpEndpoint",
]
