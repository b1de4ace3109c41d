"""Library round trip of one model document, run as a fresh process.

    PYTHONPATH=src python3 perfbench/roundtrip.py MODEL.ma

Parses the file, serializes it, parses the canonical text and serializes
again. Prints one JSON object with the canonical size, the block count per
kind and whether the two canonical texts are byte-equal; exits 0 only when
they are.
"""

from __future__ import annotations

import json
import sys

from mimic_automata import parse, parse_files, serialize

KINDS = ("sas", "cas", "pcas", "has", "bindings", "mas", "dhrs", "serial_dhrs", "properties", "signatures")


def main(path: str) -> int:
    doc, diagnostics = parse_files([path])
    if not diagnostics:
        text = serialize(doc)
        again, diagnostics = parse(text, "<canonical>")
    if diagnostics:
        for diag in diagnostics:
            print(str(diag), file=sys.stderr)
        return 3
    equal = serialize(again) == text
    print(json.dumps({
        "byte_equal": equal,
        "bytes": len(text.encode("utf-8")),
        "blocks": {kind: len(getattr(doc, kind)) for kind in KINDS},
    }, sort_keys=True))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
