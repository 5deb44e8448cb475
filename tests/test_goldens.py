"""Solver goldens: exact results per seed on one m = 12 shop.

Every solver is deterministic per seed, so these values pin the RNG streams
and the evaluator end to end. A refactor that claims unchanged results must
leave them as they are.
"""

from fractions import Fraction

import pytest

from cellform import (Evaluation, GAParams, Partition, exhaustive_oracle,
                      generate_instance, run_ega, run_ga, run_multikmeans)


@pytest.fixture(scope="module")
def shop():
    return generate_instance(12, 30, 4, 8, seed=11)


# (method, seed): (best_history, best cells, traffic, violations)
GA_GOLDENS = {
    ("cga", 0): (
        [6933] * 15 + [6948] * 15,
        ((0, 3, 5, 10), (1,), (2, 7, 8, 11), (4, 9), (6,)),
        371, 0),
    ("cga", 1): (
        [6883] * 1 + [6951] * 29,
        ((0, 3, 10), (1, 4, 5, 6), (2, 7, 9, 11), (8,)),
        368, 0),
    ("scga", 0): (
        [6911] * 6 + [6912] * 8 + [6925] * 16,
        ((0,), (1,), (2, 8, 11), (3, 4, 7, 10), (5, 6), (9,)),
        394, 0),
    ("scga", 1): (
        [6883] * 1 + [6951] * 29,
        ((0, 3, 10), (1, 4, 5, 6), (2, 7, 9, 11), (8,)),
        368, 0),
    ("ega", 0): (
        [6756] * 30,
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
        0, 1),
    ("ega", 1): (
        [6756] * 30,
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
        0, 1),
}


# method: seed 0 under power tuning with gamma = 2.5, same layout
POWER_GOLDENS = {
    "cga": (
        [6933] * 15 + [6948] * 15,
        ((0, 3, 5, 10), (1,), (2, 7, 8, 11), (4, 9), (6,)),
        371, 0),
    "scga": (
        [6911] * 6 + [6912] * 8 + [6925] * 5 + [6933] * 11,
        ((0,), (1, 9), (2, 8, 11), (3, 4, 7, 10), (5, 6)),
        386, 0),
    "ega": (
        [6756] * 30,
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
        0, 1),
}


def check_golden(shop, method, golden, **params):
    history, cells, traffic, violations = golden
    if method == "ega":
        res = run_ega(shop, GAParams(40, 30, **params))
    else:
        res = run_ga(shop, GAParams(40, 30, variant=method, **params))
    assert res.best_history == [Fraction(y) for y in history]
    ev = res.best_evaluation
    assert ev.partition.cells == cells
    assert (ev.traffic, ev.violations) == (traffic, violations)
    assert ev.fitness == history[-1]


@pytest.mark.parametrize("method,seed", sorted(GA_GOLDENS))
def test_ga_golden(shop, method, seed):
    check_golden(shop, method, GA_GOLDENS[method, seed], seed=seed)


@pytest.mark.parametrize("method", sorted(POWER_GOLDENS))
def test_ga_power_golden(shop, method):
    check_golden(shop, method, POWER_GOLDENS[method], gamma=2.5)


def test_multikmeans_golden(shop):
    assert run_multikmeans(shop, seed=0) == Evaluation(
        Partition(((0,), (1, 4, 5, 10), (2,), (3,), (6, 11), (7,), (8, 9))),
        Fraction(512), 0, True, Fraction(6807))


def test_oracle_golden(shop):
    assert exhaustive_oracle(shop) == Evaluation(
        Partition(((0, 1, 3, 4), (2, 5, 7, 10), (6, 8, 9, 11))),
        Fraction(287), 0, True, Fraction(7032))
