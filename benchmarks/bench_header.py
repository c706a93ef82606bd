"""Header micro-benchmark: the per-segment constructor, plus pack/parse.

The simulator hands header *objects* from host to host, so no simulated
packet is ever packed or parsed: what every segment pays is building its
header.  The TCP and DCCP stacks build each outgoing header in one call to
the format's generated constructor (see
:meth:`repro.packets.header.HeaderFormat.build_class`), with every field
the segment carries set at once.

Prints constructions/sec for those calls and packs/sec and parses/sec for
the wire image, and checks that

* each constructed header equals one built field by field with
  :meth:`Header.set`, so the generated constructor cannot drift from the
  field specs, and
* a pack -> parse round-trip keeps every field of the ``wire_plan``.

Usage::

    PYTHONPATH=src python benchmarks/bench_header.py [--iterations N]
        [--out FILE]
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict

from repro.packets.dccp import DCCP_FORMAT, DccpHeader, make_dccp_header
from repro.packets.tcp import ACK, PSH, TCP_FORMAT, TcpHeader

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the fields a TCP data segment carries (``TcpConnection._header``)
TCP_SEGMENT = dict(sport=40000, dport=80, seq=0x12345678, ack=0x1ABCDEF0,
                   flags=PSH | ACK, window=65535, mss_opt=1460, wscale_opt=7)
#: the fields a DCCP packet carries (``DccpConnection._transmit``)
DCCP_PACKET = dict(sport=40000, dport=80, seq=0xABCDEF, ack=0xABCDE0, service=77)


def _build_tcp() -> TcpHeader:
    return TcpHeader(**TCP_SEGMENT)


def _build_dccp() -> DccpHeader:
    return make_dccp_header("DATAACK", **DCCP_PACKET)


def _field_by_field(cls: type, fields: Dict[str, int]) -> Any:
    header = cls()
    for name, value in fields.items():
        header.set(name, value)
    return header


def _per_second(call: Callable[[], Any], iterations: int) -> int:
    started = time.perf_counter()
    for _ in range(iterations):
        call()
    return round(iterations / (time.perf_counter() - started))


def bench_format(label: str, fmt, build: Callable[[], Any], reference: Any,
                 iterations: int) -> dict:
    header = build()
    assert header == reference, (
        f"{label}: generated constructor built {header!r}, field by field gave {reference!r}"
    )
    wire = header.pack()
    parsed = type(header).parse(wire)
    for name, _shift, _mask in fmt.wire_plan:
        assert getattr(parsed, name) == getattr(header, name), (
            f"{label}: field {name} did not survive a pack/parse round-trip"
        )
    return {
        "format": label,
        "fields": len(fmt.wire_plan),
        "length_bytes": fmt.length_bytes,
        "iterations": iterations,
        "constructs_per_second": _per_second(build, iterations),
        "packs_per_second": _per_second(header.pack, iterations),
        "parses_per_second": _per_second(functools.partial(type(header).parse, wire), iterations),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=200_000)
    parser.add_argument("--out", default=None,
                        help="also write the results to this JSON file")
    args = parser.parse_args()

    dccp_reference = _field_by_field(DccpHeader, DCCP_PACKET)
    dccp_reference.packet_type = "DATAACK"
    results = [
        bench_format("tcp", TCP_FORMAT, _build_tcp,
                     _field_by_field(TcpHeader, TCP_SEGMENT), args.iterations),
        bench_format("dccp", DCCP_FORMAT, _build_dccp, dccp_reference, args.iterations),
    ]
    payload = {
        "benchmark": "header construction (generated constructor) and pack/parse",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "formats": results,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for row in results:
        print(f"ok: {row['format']} {row['constructs_per_second']:,} constructs/s "
              f"{row['packs_per_second']:,} packs/s {row['parses_per_second']:,} parses/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
