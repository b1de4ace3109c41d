"""``value_class`` behaves as the ``@dataclass`` it replaces, class by class.

Each converted class is compared with a twin built by ``make_dataclass`` from
its ``fields()``, with the same ``frozen`` flag and the methods the class
writes itself (``__post_init__``, an explicit ``__hash__``, ``__str__``, ...),
on two sample values per class: equality, hash, repr, ``__match_args__``,
the frozen errors, ``replace``, argument errors, normalisation and pickling.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, field, fields, is_dataclass, make_dataclass, replace

import pytest

import mimic_automata
from mimic_automata.cellular import CaRun, CellularAutomaton, ProbabilisticCellularAutomaton
from mimic_automata.checker import Action, CheckResult, Dtmc, Path, Property, TransitionSystem
from mimic_automata.composition import (
    Binding,
    HaUnit,
    MimicAutomaton,
    MimicConfiguration,
    NestedUnit,
    Readout,
    SaUnit,
)
from mimic_automata.detect import DetectionReport, Signature, SignatureResult
from mimic_automata.dhr import (
    DhrStepReport,
    DhrStructure,
    FaultTagged,
    SerialDhr,
    SerialTick,
    VoterPolicy,
)
from mimic_automata.errors import Violation, value_class
from mimic_automata.hierarchical import HaConfiguration, HierarchicalAutomaton
from mimic_automata.modelfile import Diagnostic, ModelDocument, RawBlock, _Kind, _Shared
from mimic_automata.props import And, Atom, Const, Not, Or
from mimic_automata.sequential import SequentialAutomaton

from helpers import echo_sa, xor_ca

SA = SequentialAutomaton("m", ["a", "b"], "a", ["a"], ["x"], ["y"], {("a", "x"): "b"}, {("a", "x"): "y"})
CA = xor_ca(width=3)
ACTION = Action(("x",), ("y",))
PATH = Path(("s0", "s1"), (ACTION,))
CFG = MimicConfiguration((0, 1), ("a", "b"))
BINDING = Binding("b", "sa_from_ca", "ca", {"0": SaUnit("m")})
DHR = DhrStructure("d", [echo_sa("e")], CA, 3)
REPORT = DhrStepReport(("a",), (("a",),) * 3, ("a",), frozenset(), ("0",) * 3, ("0",) * 3)

# two positional argument tuples per converted class; lists where __post_init__ normalises
SAMPLES = {
    Violation: [("rule", "s", "m"), ("rule", "t", "m")],
    Atom: [("p",), ("q",)],
    Not: [(Atom("p"),), (Atom("q"),)],
    And: [(Atom("p"), Const(True)), (Atom("p"), Const(False))],
    Or: [(Atom("p"), Const(True)), (Const(True), Atom("p"))],
    Const: [(True,), (False,)],
    Signature: [("sig", "d", SA), ("sig", "d", SA, 3)],
    SignatureResult: [("sig", 1, False, None), ("sig", 1, True, PATH)],
    DetectionReport: [("m", ()), ("m", (SignatureResult("sig", 1, True, PATH),), {"states": 3})],
    HierarchicalAutomaton: [("h", [SA], "m", {("m", "a"): ["n"]}), ("h", [SA, echo_sa("n")], "m", {})],
    HaConfiguration: [([("b", "1"), ("a", "0")],), ((("a", "1"),),)],
    SequentialAutomaton: [("m", ["a"], "a", ["a"], ["x"], ["y"], {}, {}),
                          ("m", ["a"], "a", [], ["x"], ["y"], {}, {}, True)],
    CellularAutomaton: [("ca", ["0", "1"], 3),
                        ("ca", ("0", "1"), 3, 1, "fixed", "0", {("0", "0", "0"): "1"}, "xor")],
    ProbabilisticCellularAutomaton: [("p", ["0", "1"], 2),
                                     ("p", ["0", "1"], 2, 0, "periodic", None,
                                      {("0",): [("1", 0.5), ("0", 0.25), ("0", 0.25), ("2", 0.0)]})],
    CaRun: [(((0, 1), (1, 1)), "fixpoint"), (((0, 1),), "step_cap")],
    Action: [(("x",), ("y",)), (("x",), None)],
    Path: [(("s0", "s1"), (ACTION,)), (("s0",), ())],
    CheckResult: [("holds",), ("violated", PATH, None, None, None, {"states": 2})],
    Property: [("p", "invariant", Atom("x")), ("p", "reach", None, SA, ("a",), ("a",), 3)],
    TransitionSystem: [({"s0": CFG}, "s0", {"s0": ()}, {"s0": frozenset()}, frozenset()),
                       ({"s0": CFG}, "s0", {"s0": ((ACTION, "s0"),)}, {"s0": frozenset()}, frozenset(), {"k": 1})],
    Dtmc: [({"s0": CFG}, "s0", {"s0": (("s0", 1.0),)}, {"s0": frozenset()}, frozenset()),
           ({"s0": CFG}, "s0", {"s0": ()}, {"s0": frozenset({"p"})}, frozenset({"p"}), {"k": 1})],
    SaUnit: [("m",), ("n",)],
    HaUnit: [("h",), ("g",)],
    NestedUnit: [("b",), ("c",)],
    Readout: [("cell", 0), ("table", None, None, [((0,), "a")])],
    Binding: [("b", "sa_from_ca", "ca", {"0": SaUnit("m")}),
              ("b", "ca_from_sa", "ca", {"0": SaUnit("m")}, 5, "m", Readout("cell", 0), ["0", "0"])],
    MimicAutomaton: [("ma", {"m": SA}, {}, {}, {"b": BINDING}, "b"),
                     ("ma", {"m": SA}, {"ca": CA}, {}, {"b": BINDING}, "b", 2, None, {"k": "v"})],
    MimicConfiguration: [([0, 1], ["a", "b"]), ((0, 1), ("a", "b"), 3, "s")],
    FaultTagged: [("a", 1), ("a", 2)],
    VoterPolicy: [(), ("plurality", 2, (("a",),))],
    DhrStructure: [("d", [echo_sa("e")], CA, 3), ("d", [echo_sa("e")], CA, 3, VoterPolicy(), ["0", "1", "0"], {1: SA})],
    DhrStepReport: [(("a",), (("a",),) * 3, ("a",), frozenset(), ("0",) * 3, ("0",) * 3),
                    (("a",), (("a",),) * 3, None, frozenset({1}), ("0",) * 3, ("1",) * 3)],
    SerialDhr: [("s", [DHR]), ("s", [DHR, DHR])],
    SerialTick: [((), None, 0), ((REPORT,), ("a",), None)],
    Diagnostic: [("f", 1, 2, "m"), ("f", 1, 2, "m", "h")],
    ModelDocument: [(), ({"m": SA},)],
    RawBlock: [("sa", "m", "f", 1), ("sa", "m", "f", 2, [])],
    _Kind: [("sas", len, repr, {}), ("sas", len, repr, {}, abs)],
    _Shared: [([],), ([], {("sa", "m")}, [])],
}
UNFROZEN = {TransitionSystem, Dtmc, RawBlock, _Shared}


def converted_classes():
    """Every class of the package whose ``__init__`` is ``value_class``'s."""
    found = set()
    for info in pkgutil.iter_modules(mimic_automata.__path__):
        module = importlib.import_module(f"mimic_automata.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                init = vars(cls).get("__init__")
                if getattr(init, "__qualname__", "") == "value_class.<locals>.__init__":
                    found.add(cls)
    return found


def own_methods(cls):
    """The methods written in the class body, which win over the generated ones."""
    return {name: value for name, value in vars(cls).items()
            if callable(value) and getattr(value, "__qualname__", "").startswith(cls.__qualname__ + ".")}


def twin(cls):
    specs = [(f.name, f.type, field(default=f.default, default_factory=f.default_factory)) for f in fields(cls)]
    return make_dataclass(cls.__name__, specs, frozen=cls not in UNFROZEN, namespace=own_methods(cls))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not hidden: both sides must fail alike
        return type(exc), str(exc)


def test_samples_cover_every_converted_class():
    assert converted_classes() == set(SAMPLES)
    assert len(SAMPLES) == 39


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_class_matches_its_dataclass_twin(cls):
    other = twin(cls)
    names = [f.name for f in fields(cls)]
    frozen = cls not in UNFROZEN
    assert is_dataclass(cls) and names == [f.name for f in fields(other)]
    assert cls.__match_args__ == other.__match_args__ == tuple(names)
    assert ("__setattr__" in vars(cls)) == frozen
    assert not cls.__doc__.startswith(cls.__name__ + "(")  # written, not made from the signature

    (a, b) = [cls(*args) for args in SAMPLES[cls]]
    (ta, tb) = [other(*args) for args in SAMPLES[cls]]
    for x, t, args in ((a, ta, SAMPLES[cls][0]), (b, tb, SAMPLES[cls][1])):
        assert repr(x) == repr(t)  # __post_init__ normalised both alike
        assert str(x) == str(t)
        assert outcome(hash, x) == outcome(hash, t)
        assert x == cls(*args) and not x != cls(*args)
        assert x == cls(**dict(zip(names, args)))
        assert (x == t, x != t, x.__eq__(t)) == (False, True, NotImplemented)
        assert (x == args, x.__eq__(args)) == (t == args, t.__eq__(args)) == (False, NotImplemented)
        assert [f.name for f in fields(x)] == names
        assert replace(x) == x
        change = {names[0]: getattr(b, names[0])}
        assert repr(replace(x, **change)) == repr(replace(t, **change))
    assert (a == b, a != b) == (ta == tb, ta != tb) == (False, True)

    args = SAMPLES[cls][1]
    for c in (cls, other):  # one argument too many, an unknown one, a repeated one
        with pytest.raises(TypeError):
            c(*args, *[None] * (len(names) - len(args) + 1))
        with pytest.raises(TypeError):
            c(*args, unknown=1)
        with pytest.raises(TypeError):
            c(*args, **{names[0]: args[0]})
    made, twin_made = outcome(cls), outcome(other)  # no arguments: missing ones, or all defaults
    if twin_made[0] == "ok":
        assert repr(made[1]) == repr(twin_made[1])
    else:
        assert made[0] is twin_made[0] is TypeError

    for x, t in ((a, ta), (b, tb)):
        if frozen:
            for target in (x, t):
                with pytest.raises(FrozenInstanceError):
                    setattr(target, names[0], None)
                with pytest.raises(FrozenInstanceError):
                    delattr(target, names[0])
        else:
            assert cls.__hash__ is other.__hash__ is None
            x.extra = t.extra = 1
            del x.extra, t.extra

    for x in (a, b):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and repr(back) == repr(x)
        assert outcome(hash, back) == outcome(hash, x)


def test_fault_tagged_keeps_its_own_hash_and_reduce():
    tag = FaultTagged("a", 1)
    assert FaultTagged.__hash__ is own_methods(FaultTagged)["__hash__"]
    assert tag.__reduce__() == (FaultTagged, ("a", 1))
    back = pickle.loads(pickle.dumps(tag))
    assert back._hash == hash(("a", 1)) == hash(tag) and back == tag
    assert str(tag) == "a!f1"


def test_positional_and_keyword_arguments_bind_like_a_signature():
    assert MimicConfiguration((0,), ("a",), outer_state="s") == MimicConfiguration((0,), ("a",), 0, "s")
    assert MimicConfiguration(unit_states=["a"], lattice=[0]).lattice == (0,)
    assert DhrStructure("d", [SA], CA, 3).voter == VoterPolicy()
    assert DhrStructure("d", [SA], CA, 3).overrides is not DhrStructure("d", [SA], CA, 3).overrides
    assert Action(("x",), ("y",)).label() == ACTION.label()


def test_a_method_written_in_the_class_wins():
    @value_class(frozen=True)
    class Pair:
        """Two values; equal on the first alone."""

        first: int
        second: int = 0

        def __repr__(self):
            return f"<{self.first}>"

        def __eq__(self, other):
            return isinstance(other, Pair) and self.first == other.first

        def __hash__(self):
            return hash(self.first)

    assert (repr(Pair(1, 2)), Pair(1, 2), hash(Pair(1, 2))) == ("<1>", Pair(1, 3), hash(1))
