"""The package namespace: what ``cellform.__all__`` exports, and what not."""

import cellform
from cellform import cuts, flowgraph, ga

# names deleted from the library: ones no solver used (the test-only
# helpers live on in helpers.py as reference code), and selection_weights,
# whose weights ga.roulette_select now takes itself
REMOVED = {cellform: ("TrafficMatrix", "chromosome_mask", "bits_from_mask",
                      "boundary_mask", "partition_from_labels"),
           cuts: ("bits_from_mask", "boundary_mask", "partition_from_labels"),
           flowgraph: ("TrafficMatrix",),
           ga: ("chromosome_mask",),
           cellform.FlowGraph: ("total_weight",),
           cellform.PopulationEvaluator: ("selection_weights",)}


def test_every_exported_name_resolves_once():
    names = cellform.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(cellform, name, None) is not None, name


def test_removed_names_are_absent():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(REMOVED[cellform]) & set(cellform.__all__)
