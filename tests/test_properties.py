"""Property tests: the Dirichlet partition, the per-client adaptation/gate
split and FedAvg aggregation, over inputs drawn by hypothesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import data, federation, models
from fedmoe.errors import UsageError
from fedmoe.numerics import Tensor

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def datasets(draw):
    """A dataset of 1-80 one-pixel images whose labels use 1-6 classes."""
    classes = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=80))
    return data.LabeledDataset(Tensor(np.zeros((len(labels), 1, 1, 1))), labels, classes)


@SETTINGS
@given(ds=datasets(), concentration=st.one_of(st.sampled_from([0.01, 1e3]), st.floats(0.01, 1e3)),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_dirichlet_partition_assigns_every_example_once_to_nonempty_clients(ds, concentration, seed, share):
    clients = 1 + round(share * (len(ds) - 1))  # 1 to the dataset size
    spec = data.PartitionSpec(clients, concentration, seed)
    partition = data.dirichlet_partition(ds, spec)
    assigned = [i for c in partition.clients for i in c]
    assert len(partition) == clients and all(partition.sizes())
    assert sorted(assigned) == list(range(len(ds)))
    per_class = sum(np.bincount(ds.labels[list(c)], minlength=ds.classes) for c in partition.clients)
    assert per_class.tolist() == ds.class_counts().tolist()
    assert data.dirichlet_partition(ds, spec) == partition


@SETTINGS
@given(indices=st.lists(st.integers(0, 10**6), min_size=2, max_size=300, unique=True),
       ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_split_per_gate_covers_the_client_with_disjoint_subsets(indices, ratio, seed):
    split = data.split_per_gate(indices, ratio, seed)
    per, gate = set(split.per_indices), set(split.gate_indices)
    assert not per & gate and per | gate == set(indices)
    assert len(split.per_indices) == min(math.ceil(ratio * len(indices)), len(indices) - 1)
    assert split.gate_indices
    assert data.split_per_gate(indices, ratio, seed) == split


SPEC = models.ModelSpec("mlp", side=2, classes=3, hidden_sizes=(4,))


@SETTINGS
@given(st.data())
def test_aggregate_is_byte_identical_under_any_order(draw):
    # Repeated client ids and an all-zero sample weighting are typed errors,
    # in any order; every other list of updates averages to the same bytes.
    ids = draw.draw(st.lists(st.integers(0, 99), min_size=1, max_size=6))
    counts = [draw.draw(st.integers(0, 10**6)) for _ in ids]
    updates = [federation.ClientUpdate(cid, models.build_model(SPEC, seed=cid), n) for cid, n in zip(ids, counts)]
    weighting = draw.draw(st.sampled_from(federation.WEIGHTING_MODES))
    shuffled = draw.draw(st.permutations(updates))
    if len(set(ids)) < len(ids) or (weighting == "sample" and sum(counts) == 0):
        for order in (updates, shuffled):
            with pytest.raises(UsageError):
                federation.aggregate(order, weighting)
        return
    want = federation.aggregate(updates, weighting)
    got = federation.aggregate(shuffled, weighting)
    assert all(got.tensors[k].data.tobytes() == t.data.tobytes() for k, t in want.tensors.items())
