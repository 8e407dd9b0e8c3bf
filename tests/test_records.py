"""
Value semantics of the library's records: each compares, hashes and prints
by its fields, so normal forms work as set members and dict keys, and lists
of simples compare element by element.
"""

import pytest

from garside import Budget, BudgetExceeded, parse_germ, parse_word, validate
from garside.conjugacy import ConjugacyWitness, FixedGermReport
from garside.divided import DividedGerm, Ladder
from garside.germ import GermTable, ObjectRef, SimpleRef
from garside.nerve import CoverBall, CyclicReport, NerveSimplex
from garside.periodic import (
    BestvinaForm,
    NecklaceConjugation,
    NoLengthOneRepresentative,
    PeriodicClassification,
    PeriodicityCertificate,
)
from garside.words import NormalForm
from paper_checks import SubdivisionIso

NF = NormalForm(0, (3, 4), -1)

# (record class, field values in order, field names in order)
RECORDS = [
    (ObjectRef, (0, "x"), ("id", "name")),
    (SimpleRef, (3, "s", 0, 0, 1), ("id", "name", "source", "target", "length")),
    (GermTable, ([], [], {}, [], {}), ("objects", "simples", "product", "identity",
                                       "declared_delta")),
    (NormalForm, (0, (3, 4), -1), ("source", "factors", "delta_exp")),
    (ConjugacyWitness, (NF, NF, NF), ("g", "c", "h")),
    (FixedGermReport, (None, [(3, 4)], [(0, 1), (3, 4)], [[0]], {1: 3}),
     ("subgerm", "object_inclusion", "simple_inclusion", "components", "atoms_realized")),
    (Ladder, ((3, 4), (3, 0), (4, 5)), ("src", "columns", "tgt")),
    (DividedGerm, (None, None, 2, [], {}, {}, {}), ("germ", "base", "m", "objects",
                                                   "object_ix", "ladder_of", "simple_ix")),
    (SubdivisionIso, (1, 2, None, None, None, {}, {}, "verified"),
     ("e", "q", "eq_divided", "q_divided", "iterated", "object_map", "simple_map",
      "fixed_check")),
    (NerveSimplex, (0, (3,)), ("basepoint", "factors")),
    (CyclicReport, (4, [], []), ("checked", "shift_counterexamples",
                                 "power_counterexamples")),
    (CoverBall, (0, 1, [NF], [(0, 1)]), ("basepoint", "radius", "vertices", "edges")),
    (PeriodicityCertificate, (NF, 4, 3), ("gamma", "p", "q")),
    (BestvinaForm, (3, 1, 3, NF), ("s", "k", "q", "conjugator")),
    (NoLengthOneRepresentative, ("why",), ("reason",)),
    (NecklaceConjugation, (None, None, NF, NF, NF), ("bf", "divided", "conjugator",
                                                     "theta_image", "delta_power")),
    (PeriodicClassification, (4, 3, 1, [], []), ("p", "q", "k", "components",
                                                 "representatives")),
]


@pytest.mark.parametrize("cls,values,fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_compares_and_prints_by_value(cls, values, fields):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert [getattr(a, f) for f in fields] == list(values)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(a) == f"{cls.__name__}({shown})"


def test_hashable_records_hash_by_value():
    assert {NormalForm(0, (3, 4), -1), NormalForm(0, (3, 4), -1), NormalForm(0, (3,), -1)} == {
        NormalForm(0, (3, 4), -1), NormalForm(0, (3,), -1)
    }
    assert hash(SimpleRef(3, "s", 0, 0, 1)) == hash(SimpleRef(3, "s", 0, 0, 1))
    assert {ObjectRef(0, "x"), ObjectRef(0, "x")} == {ObjectRef(0, "x")}
    assert {Ladder((3,), (3,), (4,)): 1}[Ladder((3,), (3,), (4,))] == 1


def test_slot_records_differ_by_any_field_and_by_class():
    s = SimpleRef(3, "s", 0, 0, 1)
    for i in range(5):
        values = [3, "s", 0, 0, 1]
        values[i] = values[i] + (1 if isinstance(values[i], int) else "'")
        assert SimpleRef(*values) != s
    assert ObjectRef(3, "s") != s and s != ObjectRef(3, "s")
    assert ObjectRef(0, "x") != (0, "x")


def test_reparsed_germ_has_equal_simples(a2_text):
    g1, g2 = validate(parse_germ(a2_text)), validate(parse_germ(a2_text))
    assert g1.simples == g2.simples and g1.objects == g2.objects
    assert g1.simples is not g2.simples
    w = parse_word(g1, "s t s D^-1")
    assert w == parse_word(g2, "s t s D^-1") and len({w, parse_word(g2, "s t s D^-1")}) == 1


def test_budget_counts_and_names_what_ran_out():
    budget = Budget(3)
    budget.spend(2)
    assert (budget.limit, budget.used) == (3, 2)
    with pytest.raises(BudgetExceeded, match=r"^computation budget exceeded \(3 steps\)$"):
        budget.spend()
        budget.spend()
    with pytest.raises(BudgetExceeded, match=r"\(3 steps\): building x$"):
        Budget(3).spend(4, ": building x")
