"""Common fixtures: the canonical five-machine example and its graph.

The five-machine instance has eight unit-volume two-machine routings, one per
edge of the graph below, and max cell size 2:

    edges (1-based): (1,3) (1,4) (1,5) (2,3) (2,4) (2,5) (3,5) (4,5)

Machines 1 and 2 each feed 3, 4 and 5; machines 3-5 form a path through 5.
Every edge weight is 1, so hand-checking cuts, traffic and fitness is easy:
with cells of at most two machines, at most two edges can be intracellular,
hence the optimal intercellular traffic is 6.
"""

from __future__ import annotations

import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cellform import Instance, Part, build_basis, build_graph

# Every property test runs under this profile: the same examples on every
# run, no example database written to disk, no per-example deadline.
settings.register_profile("cellform", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("cellform")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the source,
    # whatever the profile; keep that cache out of the checkout
    home = tempfile.TemporaryDirectory(prefix="cellform-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()


FIVE_MACHINE_EDGES = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                      (3, 5), (4, 5)]


@pytest.fixture
def five_machine_instance() -> Instance:
    parts = tuple(Part(Fraction(1), (a - 1, b - 1))
                  for a, b in FIVE_MACHINE_EDGES)
    return Instance(machine_count=5, max_cell_size=2, parts=parts)


@pytest.fixture
def five_machine_graph(five_machine_instance):
    return build_graph(five_machine_instance)


@pytest.fixture
def five_machine_basis(five_machine_graph):
    return build_basis(five_machine_graph)
