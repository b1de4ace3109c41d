"""``main()`` on generated argv and mutated model text: a documented exit code, never a traceback.

Every command runs in-process on the corpus models and signatures, or on a
copy of one with a few line-level mutations. Tick counts, state bounds and
trial counts stay small, and mutations never insert a digit, so no width,
radius or step cap exceeds the corpus's own. The exit code must be one of
the contract's 0-4, and standard error must not carry a traceback.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mimic_automata.cli import main

from helpers import MODELS, SIGNATURES

CORPUS = sorted(MODELS.glob("*.ma"))
SIGNATURE_FILES = sorted(SIGNATURES.glob("*.ma"))
TEXTS = {path: path.read_text() for path in CORPUS + SIGNATURE_FILES}
BLOCK = re.compile(r"^\w+ (\S+) \{", re.M)
NAMES = sorted({name for text in TEXTS.values() for name in BLOCK.findall(text)})
WORDS = {tok for text in TEXTS.values() for tok in re.findall(r"[^\s\d]+", text)}
TOKENS = sorted(WORDS | {"->", "@", "/", "{", "}", ":", "sa", "ca", "pca", "ma", "dhr", "binding"})
NOISE = "abxyz{}:@/->#_ \t"


def mutate(text: str, seed: int, count: int) -> str:
    """``count`` line-level edits of ``text``; none adds a digit."""
    rnd = random.Random(seed)
    lines = text.splitlines()
    for _ in range(count):
        if not lines:
            lines = [""]
        i = rnd.randrange(len(lines))
        kind = rnd.randrange(6)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(rnd.randrange(len(lines) + 1), lines[i])
        elif kind == 2:
            j = rnd.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3 and lines[i]:
            start = rnd.randrange(len(lines[i]))
            lines[i] = lines[i][:start] + lines[i][start + rnd.randint(1, 6):]
        elif kind == 4:
            pos = rnd.randrange(len(lines[i]) + 1)
            noise = "".join(rnd.choice(NOISE) for _ in range(rnd.randint(1, 4)))
            lines[i] = lines[i][:pos] + noise + lines[i][pos:]
        else:
            words = lines[i].split(" ")
            k = rnd.randrange(len(words))
            if not any(ch.isdigit() for ch in words[k]):
                words[k] = rnd.choice(TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


symbols = st.text(alphabet="ab01xz2", max_size=5)
small_ints = st.integers(-2, 8).map(str)


@st.composite
def invocations(draw, workdir):
    mutated = None
    files = draw(st.lists(st.sampled_from([str(p) for p in CORPUS]), min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        source = draw(st.sampled_from(CORPUS + SIGNATURE_FILES))
        mutated = workdir / "mutated.ma"
        mutated.write_text(mutate(TEXTS[source], draw(st.integers(0, 2**32)), draw(st.integers(1, 4))))
        files = [str(mutated)] + [f for f in files[1:] if f != str(source)]
    # mostly names the given files define, so that commands get past name lookup
    local = sorted({name for f in files for name in BLOCK.findall(Path(f).read_text())})
    names = st.sampled_from(NAMES + ["nope", ""])
    if local:
        names = st.sampled_from(local) | names
    command = draw(st.sampled_from(["validate", "simulate", "check", "dhr", "detect", "export-dot"]))
    argv = [command, *files]
    if command == "simulate":
        argv += ["--model", draw(names), "--input", draw(symbols), "--steps", draw(small_ints)]
        if draw(st.booleans()):
            argv += ["--seed", draw(small_ints)]
        if draw(st.booleans()):
            argv += ["--trace", str(workdir / "trace.json")]
    elif command == "check":
        argv += ["--model", draw(names), "--property", draw(names),
                 "--bound", draw(st.integers(-1, 2000).map(str))]
        if draw(st.booleans()):
            argv += ["--trials", draw(st.integers(-1, 40).map(str)), "--seed", draw(small_ints)]
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(["1e-6", "0.5", "x"]))]
    elif command == "dhr":
        schedule = workdir / "schedule.txt"
        schedule.write_text("\n".join(draw(st.lists(symbols, max_size=4))) + "\n")
        argv += ["--model", draw(names), "--input", draw(st.sampled_from([f"@{schedule}", "ab", "@missing"]))]
        if draw(st.booleans()):
            argv += ["--inject", f"{draw(small_ints)}:{draw(names)}"]
        if draw(st.booleans()):
            argv += ["--seed", draw(small_ints)]
    elif command == "detect":
        signatures = [str(p) for p in SIGNATURE_FILES] + ([str(mutated)] if mutated else [])
        argv += ["--model", draw(names), "--signatures", draw(st.sampled_from(signatures)),
                 "--bound", draw(st.integers(1, 2000).map(str))]
    elif command == "export-dot":
        # flattening here has no --bound, so only unmutated models are exported
        argv = [command, *[str(p) for p in CORPUS], "--model", draw(names),
                "--out", str(workdir / "graph.dot")]
        if draw(st.booleans()):
            argv.append("--raw-ca")
    if command in ("simulate", "check", "detect") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text"] * 4 + ["xml"]))]
    if draw(st.sampled_from([False] * 9 + [True])):  # drop one argument: usage errors take the same path
        del argv[draw(st.sampled_from(range(len(argv))))]
    return argv


SIZE_FIELD = re.compile(r"^\s*(width|radius|t_max)\s*:\s*(\S+)", re.M)


def sizes(text):
    found = {}
    for key, value in SIZE_FIELD.findall(text):
        if value.isdigit():
            found[key] = max(found.get(key, 0), int(value))
    return found


def test_mutation_keeps_sizes_within_the_corpus():
    largest = {}
    for text in TEXTS.values():
        for key, value in sizes(text).items():
            largest[key] = max(largest.get(key, 0), value)
    for text in TEXTS.values():
        for seed in range(200):
            for key, value in sizes(mutate(text, seed, 4)).items():
                assert value <= largest[key]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_contract_code_and_no_traceback(workdir, data):
    argv = data.draw(invocations(workdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
