from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fptmix.core import BudgetExceededError, ParameterError
from fptmix.unisets import (
    UniversalSet,
    VerifyResult,
    build_universal,
    constraint_count,
    iter_constraints,
    verify_universal,
)


def test_single_constraint_111():
    u = build_universal(1, 1, 1)
    assert u.functions == (1,)
    assert verify_universal(u).valid


def test_vacuous_k0():
    u = build_universal(5, 0, 0)
    assert len(u.functions) == 1
    assert verify_universal(u).valid


def test_invalid_family_reports_first_witness():
    u = UniversalSet(2, 1, 1, (0,))  # all-zeros cannot put a one anywhere
    res = verify_universal(u)
    assert not res.valid
    assert res.violation == ((0,), (0,))


def test_greedy_421_minimal_by_exhaustion():
    u = build_universal(4, 2, 1)
    assert verify_universal(u).valid
    s = len(u.functions)
    # no smaller family over all 2^4 candidate functions is valid
    for size in range(1, s):
        for combo in combinations(range(16), size):
            if verify_universal(UniversalSet(4, 2, 1, combo)).valid:
                pytest.fail(f"family of size {size} suffices, greedy used {s}")


def test_greedy_deterministic():
    a = build_universal(6, 3, 2)
    b = build_universal(6, 3, 2)
    assert a.functions == b.functions


def test_randomized_requires_seed_and_verifies():
    with pytest.raises(ParameterError, match="seed"):
        build_universal(5, 2, 1, mode="rand")
    u = build_universal(5, 2, 1, mode="rand", seed=123)
    assert verify_universal(u).valid


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        build_universal(12, 6, 3, budget=10)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        build_universal(3, 4, 1)
    with pytest.raises(ParameterError):
        build_universal(3, 2, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 63))
def test_monotone_under_additions(extra):
    base = build_universal(6, 2, 1)
    grown = UniversalSet(6, 2, 1, base.functions + (extra,))
    assert verify_universal(grown).valid


def test_lines_roundtrip():
    u = build_universal(5, 2, 2)
    again = UniversalSet.from_lines(5, 2, 2, u.lines())
    assert again.functions == u.functions


def test_constraint_enumeration_order():
    cons = list(iter_constraints(3, 2, 1))
    assert len(cons) == constraint_count(3, 2, 1) == 6
    assert cons[0][0] == (0, 1)  # lexicographically first I


def test_verification_reports_first_violation():
    u = build_universal(6, 3, 1)
    assert verify_universal(u) == VerifyResult(True)
    broken = UniversalSet(6, 3, 1, u.functions[:1])
    # brute force: the first (I, ones) in lex order no function agrees with
    first = next((I, ones) for I in combinations(range(6), 3) for ones in combinations(I, 1)
                 if not any(all(((f >> i) & 1) == (i in ones) for i in I)
                            for f in broken.functions))
    assert verify_universal(broken) == VerifyResult(False, first)
