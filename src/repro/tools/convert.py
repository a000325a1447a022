"""CLI: convert netlists between BENCH and ASCII AIGER.

Usage::

    python -m repro.tools.convert in.bench out.aag [--transform COM]

Optionally applies a transformation strategy before writing (handy for
shipping a COM-reduced netlist to another tool).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .. import cli
from ..core import TBVEngine
from .io import load_netlist, save_netlist


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", help="input .bench or .aag file")
    parser.add_argument("destination", help="output .bench or .aag file")
    parser.add_argument("--transform", default="",
                        help="optional strategy to apply first")
    return cli.run(_main, parser.parse_args(argv))


def _main(args: argparse.Namespace) -> int:
    net = load_netlist(args.source)
    print(f"loaded {net}")
    if args.transform:
        chain = TBVEngine(args.transform).transform(net)
        net = chain.netlist
        print(f"after {args.transform}: {net}")
    save_netlist(net, args.destination)
    print(f"wrote {args.destination}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
