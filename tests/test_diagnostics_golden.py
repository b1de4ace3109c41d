"""Parser diagnostics and canonical text, pinned on the corpus and seeded mutants.

Every corpus document, their concatenation, and ``MUTANTS`` seeded one-edit
mutants of each document are parsed. For each input the golden holds the
ordered ``str`` of every diagnostic and the canonical ``serialize`` text of
what was built, or the serializer's error. Regenerate it after an intended
change with::

    PYTHONPATH=src python tests/test_diagnostics_golden.py
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from mimic_automata.modelfile import _SPECS, build_document, parse, scan, serialize  # noqa: E402

from helpers import DATA, MODELS, SIGNATURES  # noqa: E402

GOLDEN = DATA / "golden" / "diagnostics.json"
MUTANTS = 80
INJECTIONS = ('"', "#", ":", "{", "}", "\t", "table", "expr")
SOURCES = {f"{p.parent.name}/{p.name}": p.read_text()
           for p in sorted(MODELS.glob("*.ma")) + sorted(SIGNATURES.glob("*.ma"))}


def mutate(text: str, rnd: random.Random) -> tuple[str, str]:
    """One edit of ``text`` and its description."""
    lines = text.splitlines()
    i = rnd.randrange(len(lines))
    op = rnd.randrange(4)
    if op == 0:
        del lines[i]
        what = f"delete line {i + 1}"
    elif op == 1:
        lines.insert(i, lines[i])
        what = f"duplicate line {i + 1}"
    elif op == 2:
        token = rnd.choice(INJECTIONS)
        line = lines[i]
        if token in ("table", "expr") and ":" in line:
            pos = line.index(":")  # as a sub-key: 'name table:'
            token = " " + token
        else:
            pos = rnd.randrange(len(line) + 1)
        lines[i] = line[:pos] + token + line[pos:]
        what = f"inject {token.strip() or repr(token)} at {i + 1}:{pos + 1}"
    else:
        words = re.split(r"(\s+)", lines[i])  # words at even indices
        tokens = [k for k in range(0, len(words), 2) if words[k]]
        if len(tokens) < 2:
            return mutate(text, rnd)
        k = rnd.randrange(len(tokens) - 1)
        a, b = tokens[k], tokens[k + 1]
        words[a], words[b] = words[b], words[a]
        lines[i] = "".join(words)
        what = f"swap tokens {k + 1},{k + 2} on line {i + 1}"
    return "\n".join(lines) + "\n", what


def inputs():
    """(case id, file name, text) for every input, in a fixed order."""
    for name, text in SOURCES.items():
        yield name, name, text
    yield "corpus", "corpus.ma", "\n".join(SOURCES.values())
    for seed, (name, text) in enumerate(SOURCES.items()):
        rnd = random.Random(seed)
        for n in range(MUTANTS):
            mutant, what = mutate(text, rnd)
            yield f"{name} #{n}: {what}", name, mutant


def record() -> dict:
    texts: list[str] = []
    cases = {}
    for case, file, text in inputs():
        doc, diags = parse(text, file)
        try:
            canonical = serialize(doc)
        except Exception as exc:  # the serializer's own rejection is part of the record
            canonical = f"<{type(exc).__name__}: {exc}>"
        if canonical not in texts:
            texts.append(canonical)
        cases[case] = {"diagnostics": [str(d) for d in diags], "canonical": texts.index(canonical)}
    return {"cases": cases, "canonical": texts}


def test_diagnostics_and_canonical_text_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    now = record()
    assert list(now["cases"]) == list(golden["cases"])
    for case, entry in golden["cases"].items():
        got = now["cases"][case]
        assert got["diagnostics"] == entry["diagnostics"], case
        assert now["canonical"][got["canonical"]] == golden["canonical"][entry["canonical"]], case



def test_no_case_reports_a_diagnostic_twice():
    golden = json.loads(GOLDEN.read_text())
    repeated = {case: lines for case, entry in golden["cases"].items()
                if len(lines := entry["diagnostics"]) != len(set(lines))}
    assert repeated == {}


# each diagnostic that names a block by reference, and the block kinds that reference accepts
REFERENCES = [(re.compile(pattern), kinds) for pattern, kinds in [
    (r"unknown (?:machine|executor|pattern machine) '([^']*)'", ("sa",)),
    (r"unknown scheduler '([^']*)'", ("ca", "pca")),
    (r"unknown stage '([^']*)'", ("dhr",)),
    (r"unknown root binding '([^']*)'", ("binding",)),
    (r"unknown reference '([^']*)' in 'sas'", ("sa",)),
    (r"unknown reference '([^']*)' in 'cas'", ("ca", "pca")),
    (r"unknown reference '([^']*)' in 'has'", ("ha",)),
    (r"unknown reference '([^']*)' in 'bindings'", ("binding",)),
    (r"machine '([^']*)' not in sa_set", ("sa",)),
    (r"cellular automaton '([^']*)' not in ca_set", ("ca", "pca")),
    (r"hierarchy '([^']*)' not in ha_set", ("ha",)),
    (r"binding '([^']*)' unknown", ("binding",)),
]]


def test_no_diagnostic_names_a_block_that_failed_to_build():
    """A block that built nothing reported its own defect; no reference to it reports it again."""
    repeats = {}
    for case, file, text in inputs():
        blocks, _ = scan(text, file)
        doc, diagnostics = build_document(blocks)
        failed = {(b.kind, b.name) for b in blocks
                  if b.kind in _SPECS and b.name not in getattr(doc, _SPECS[b.kind].attr)}
        for d in diagnostics:
            for pattern, kinds in REFERENCES:
                match = pattern.search(d.message)
                if match and any((kind, match.group(1)) in failed for kind in kinds):
                    repeats.setdefault(case, []).append(str(d))
    assert repeats == {}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
