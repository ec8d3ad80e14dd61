#!/usr/bin/env python
"""Fail unless printed experiment tables match a committed results file.

A table block starts at its ``[<experiment> @ <scale>]`` header line and
runs to the next blank line.  Every named block must appear in both files
and be byte-identical::

    python -m repro.experiments table5 table6 --scale small --seed 0 > out.txt
    python scripts/check_table_blocks.py results_small.txt out.txt \\
        "table5 @ small" "table6 @ small"
"""

import sys
from pathlib import Path


def block(text: str, name: str) -> str | None:
    """The block headed ``[name]`` in ``text``, or ``None`` if absent."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(f"[{name}]"):
            end = i
            while end < len(lines) and lines[end].strip():
                end += 1
            return "".join(lines[i:end])
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    want_text = Path(argv[0]).read_text()
    got_text = Path(argv[1]).read_text()
    failed = False
    for name in argv[2:]:
        want, got = block(want_text, name), block(got_text, name)
        if want is None or got is None:
            where = argv[0] if want is None else argv[1]
            print(f"[{name}] missing from {where}", file=sys.stderr)
            failed = True
        elif want != got:
            print(f"[{name}] differs:\n--- {argv[0]}\n{want}--- {argv[1]}\n{got}",
                  file=sys.stderr)
            failed = True
        else:
            print(f"[{name}] byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
