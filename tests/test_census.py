"""The census of small abelian groups (scripts/census.py) as the scan's
regression oracle: the grid's hits against a brute-force exact decision and
against the closed form for uniform coset pairs, and every hit against the
characteristic-function check.  The census's share of the suite is kept to
a few seconds: the caps-2/3 comparison and the Fourier check of both parts'
hits run to order 8, the caps-1/1 comparison to order 16; the script
sweeps wider."""

import importlib
import math
from pathlib import Path

import pytest

from heyde_lab.groups import make_group

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

with pytest.MonkeyPatch.context() as patch:
    patch.syspath_prepend(str(SCRIPTS))
    census = importlib.import_module("census")


def case_id(case):
    orders, matrix = case
    return "x".join(map(str, orders)) + "-" + ";".join(",".join(map(str, r)) for r in matrix)


def instance(orders, matrix):
    group = make_group(orders)
    return group, group.endomorphism(matrix)


def test_census_covers_every_group_type():
    """Order by order, as many group types as abelian groups of that order,
    as invariant factors; with I, -I and two draws less duplicates (I alone
    on exponent 2), 21 cases to order 8 and 69 to order 16."""
    counts = [1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5]
    types = census.group_types(16)
    assert [sum(1 for t in types if math.prod(t) == n) for n in range(2, 17)] == counts
    assert all(a % b == 0 for t in types for a, b in zip(t[1:], t))
    assert len(census.cases(8)) == 21 and len(census.cases(16)) == 69


@pytest.mark.parametrize("case", census.cases(census.BRUTE_FORCE_MAX_ORDER), ids=case_id)
def test_grid_hits_are_the_exactly_symmetric_pairs(case):
    """Caps 2/3: the grid's hits, in order, are the candidate pairs the exact
    predicate accepts, among as many candidates as the brute force lists;
    these hits and the caps-1/1 ones pass the Fourier check."""
    group, alpha = instance(*case)
    result = census.grid_result(group, alpha, 2, 3)
    hits = census.hit_laws(result)
    assert census.weighted(hits) == census.weighted(census.brute_force_hits(group, alpha))
    assert result.summary["grid_candidates"] == census.candidate_count(group, 2, 3)
    coset_hits = census.hit_laws(census.grid_result(group, alpha, 1, 1))
    assert census.heyde_failures(group, alpha, hits + coset_hits) == []


@pytest.mark.parametrize("case", census.cases(16), ids=case_id)
def test_coset_pair_hits_are_the_closed_form(case):
    """Caps 1/1: every candidate is uniform on a coset, the scan counts as
    many as the brute force lists, and the grid's hits, in order, are the
    pairs the closed form calls symmetric."""
    group, alpha = instance(*case)
    result = census.grid_result(group, alpha, 1, 1)
    assert result.summary["grid_candidates"] == census.candidate_count(group, 1, 1)
    expected = sorted(census.closed_form_pairs(group, alpha))
    assert [(a.indices, b.indices) for a, b in census.hit_laws(result)] == expected
