"""The record contract: construction, equality, hashing, frozenness and JSON form.

Records are plain classes on ``arbordyn._record.Record``; these tests pin the
behaviour the library relies on, which is what ``@dataclass`` gave them, and
the one generic serializer that writes every record.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn._record import Fresh, Record, json_text, plain
from arbordyn.cli import main
from arbordyn.critical import to_normal_form
from arbordyn.divisibility import RigidityReport, Violation
from arbordyn.factorint import FactorBudget, Factorization
from arbordyn.galois import LevelEvidence
from arbordyn.ratmap import MobiusTransform, P1Point, RationalMap
from paper_checks import mobius_inverse


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        assert P1Point(3, 4) == P1Point(num=3, den=4) == P1Point(3, den=4)
        level = LevelEvidence(2, {"value": -7}, None, "maximal")
        assert level == LevelEvidence(n=2, irreducibility={"value": -7}, theta=None,
                                      verdict="maximal")
        assert (level.n, level.theta, level.verdict) == (2, None, "maximal")

    def test_defaults(self):
        assert FactorBudget() == FactorBudget(10 ** 6, 10 ** 8, 0)
        assert FactorBudget(rho_iterations=5).trial_bound == 10 ** 6
        fac = Factorization(-1)
        assert (fac.factors, fac.cofactor, fac.cofactor_status) == ([], 1, "unit")

    @pytest.mark.parametrize("build", [
        lambda: P1Point(3),
        lambda: P1Point(den=1),
        lambda: P1Point(1, 2, 3),
        lambda: P1Point(1, 2, height=3),
        lambda: P1Point(1, num=1),
        lambda: Factorization(),
    ])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_fresh_list_per_instance(self):
        a, b = Factorization(1), Factorization(1)
        a.factors.append((2, 1))
        assert b.factors == []
        r1 = RigidityReport([2], [3], 6, 6, 100)
        r2 = RigidityReport([2], [3], 6, 6, 100)
        r1.violations.append(Violation(3, 1, (1, 2), "x"))
        assert r2.violations == [] and r2.status == "pass"
        assert r1.status == "fail"

    def test_field_order_is_annotation_order(self):
        assert Factorization._fields == ("sign", "factors", "cofactor", "cofactor_status")
        assert RigidityReport._fields == ("excluded", "checked_primes", "depth",
                                          "pool_depth", "trial_bound", "violations")

    def test_non_default_after_default_rejected(self):
        with pytest.raises(TypeError):
            class Bad(Record):
                a: int = 0
                b: int

    def test_subclass_extends_fields(self):
        class Base(Record):
            a: int

        class Child(Base):
            b: list = Fresh(list)

        assert Child._fields == ("a", "b")
        assert Child(1) == Child(a=1, b=[]) and Child(1).b is not Child(1).b


class TestEqualityAndRepr:
    def test_equality_is_by_class_and_fields(self):
        assert P1Point(1, 2) != P1Point(1, 3)
        assert Factorization(1, [(2, 3)]) == Factorization(1, [(2, 3)])
        assert Factorization(1) != Factorization(-1)
        assert P1Point(1, 2) != (1, 2)
        assert FactorBudget(1, 2, 3) != P1Point(1, 2)

    def test_repr_names_every_field(self):
        assert repr(P1Point(1, 2)) == "P1Point(num=1, den=2)"
        assert repr(FactorBudget()) == (
            "FactorBudget(trial_bound=1000000, rho_iterations=100000000, seed=0)")
        assert repr(Factorization(1)) == (
            "Factorization(sign=1, factors=[], cofactor=1, cofactor_status='unit')")

    def test_repr_of_narrow_containers_is_plain_repr(self):
        witness = {"value": -7, "pair": (Fraction(1, 2),), "xs": [3, None, True, ()]}
        level = LevelEvidence(2, witness, None, "maximal")
        assert repr(level) == (
            f"LevelEvidence(n=2, irreducibility={witness!r}, theta=None, verdict='maximal')")

    def test_repr_writes_wide_integers_in_hex(self):
        # a field of this normal form is wider than the 4300-digit str limit
        phi = RationalMap.from_coeffs([1, 0, 3 ** 8000], [0, 0, 1])
        assert "0x" in repr(to_normal_form(phi))
        wide = Factorization(1, [(3 ** 9000, 1)], Fraction(1, 3 ** 9000))
        assert "0x" in repr(wide)

    def test_own_repr_wins(self):
        assert repr(MobiusTransform.make(1, 0, 0, 1)) == "MobiusTransform(1, 0, 0, 1)"


class TestFrozen:
    def test_equal_records_hash_equal(self):
        assert hash(P1Point(1, 2)) == hash(P1Point(num=1, den=2))
        assert len({P1Point(1, 2), P1Point.of(2, 4), P1Point.infinity()}) == 2
        mu = MobiusTransform.make(1, 2, 3, 5)
        assert hash(mu) == hash(MobiusTransform(Fraction(1), Fraction(2),
                                                Fraction(3), Fraction(5)))
        assert mobius_inverse(mobius_inverse(mu)) == mu

    def test_assignment_and_deletion_raise(self):
        pt = P1Point(1, 2)
        with pytest.raises(AttributeError):
            pt.num = 5
        with pytest.raises(AttributeError):
            pt.extra = 5
        with pytest.raises(AttributeError):
            del pt.den
        mu = MobiusTransform.make(1, 0, 0, 1)
        with pytest.raises(AttributeError):
            mu.a = Fraction(2)
        assert pt == P1Point(1, 2) and mu.a == 1

    def test_mutable_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Factorization(1))
        fac = Factorization(1)
        fac.cofactor = 7
        assert fac.value() == 7


class TestJsonForm:
    def test_to_dict_is_plain_of_every_field(self):
        fac = Factorization(-1, [(2, 3)], 2 ** 20000 + 1, "composite_unfactored")
        assert fac.to_dict() == {"sign": -1, "factors": [[2, 3]],
                                 "cofactor": hex(2 ** 20000 + 1),
                                 "cofactor_status": "composite_unfactored"}
        assert json.loads(json.dumps(fac.to_dict())) == fac.to_dict() == plain(fac)

    def test_nested_records(self):
        report = RigidityReport([2], [3], 6, 6, 100, [Violation(3, 1, (1, 2), "x")])
        assert report.to_dict() == {
            "excluded": [2], "checked_primes": [3], "depth": 6, "pool_depth": 6,
            "trial_bound": 100, "status": "fail",
            "violations": [{"prime": 3, "condition": 1, "indices": [1, 2], "detail": "x"}],
        }

    @pytest.mark.parametrize("argv, config", [
        (("orbit", "--map", "z^2", "--start", "0"),
         {"orbit_max_steps": 64, "height_cap_bits": 4096}),
        (("normal-form", "--map", "(z^2-98)/z^2"),
         {"trial_bound": 10 ** 6, "rho_budget": 10 ** 8, "seed": 0, "height_cap_bits": 4096}),
        (("certify", "--a", "-98", "--depth", "1"),
         {"trial_bound": 10 ** 6, "rho_budget": 10 ** 8, "seed": 0}),
    ], ids=["orbit", "normal-form", "certify"])
    def test_config_has_the_default_of_each_budget_taken(self, capsys, argv, config):
        assert main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["config"] == config

    def test_points_are_written_as_text(self):
        assert plain(P1Point(-3, 4)) == P1Point(-3, 4).to_dict() == "-3/4"
        mu = MobiusTransform.make(1, Fraction(1, 2), 0, 1)
        assert mu.to_dict() == {"a": "1", "b": "1/2", "c": "0", "e": "1"}


# What ``plain`` returns: strings of any code point, ints up to
# DECIMAL_SAFE_BITS of either sign, bools, None, and lists and string-keyed
# dicts of these, empty ones included.
PLAIN_DATA = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(-(2 ** 14000), 2 ** 14000) | st.integers(-10, 10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=30)


class TestJsonText:
    """json_text writes what json.dumps(sort_keys=True, indent=2) writes."""

    @settings(max_examples=400, deadline=None)
    @given(PLAIN_DATA)
    def test_equals_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [
        "", "\x00\x1f\x7f\"\\/\n\t", "\u00e9\u2028\U0001f600\ud800", [], {}, [[]], {"": {}},
        {"b": 1, "a": [True, False, None], "\u00e9": -(2 ** 14000)}, [2 ** 64, -1, 0],
    ], ids=repr)
    def test_equals_json_dumps_at_the_edges(self, doc):
        assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


SRC = Path(__file__).resolve().parents[1] / "src" / "arbordyn"


def test_no_serializer_restates_its_fields():
    """Apart from Record.to_dict, each to_dict on a record extends super().to_dict(),
    so that a hand-written list of fields cannot come back."""
    classes = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node

    def is_record(name):
        node = classes.get(name)
        bases = [b.id for b in node.bases if isinstance(b, ast.Name)] if node else []
        return "Record" in bases or any(is_record(b) for b in bases)

    def calls_super_to_dict(fn):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "to_dict" and isinstance(n.func.value, ast.Call)
                   and getattr(n.func.value.func, "id", None) == "super"
                   for n in ast.walk(fn))

    offenders = []
    for name, node in classes.items():
        if name == "Record" or not is_record(name):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "to_dict":
                if not calls_super_to_dict(item):
                    offenders.append(name)
    assert is_record("RigidityReport") and is_record("P1Point")
    assert offenders == []
