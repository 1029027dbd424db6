import struct

import numpy as np
import pytest

from fedmoe import data
from fedmoe.errors import ConfigError, DataFormatError, DegenerateClientError
from fedmoe.numerics import OptimizerState, SgdConfig, Tensor, graph, sgd_step


def balanced_labels_dataset(classes=10, per_class=40, seed=0):
    return data.make_synthetic(classes=classes, per_class=per_class, seed=seed, side=8)


def label_entropy(labels, classes):
    counts = np.bincount(labels, minlength=classes)
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestDirichletPartition:
    def test_huge_concentration_is_near_uniform(self):
        ds = balanced_labels_dataset(classes=10, per_class=10)
        part = data.dirichlet_partition(ds, data.PartitionSpec(clients=10, concentration=1e6, seed=0))
        per_client_class = np.array(
            [np.bincount(ds.labels[list(c)], minlength=10) for c in part.clients]
        )
        assert np.abs(per_client_class - 1).max() <= 2

    def test_single_client_owns_everything(self):
        ds = balanced_labels_dataset(classes=3, per_class=5)
        part = data.dirichlet_partition(ds, data.PartitionSpec(clients=1, concentration=0.5, seed=1))
        assert sorted(part.clients[0]) == list(range(len(ds)))

    def test_lower_concentration_lowers_mean_entropy(self):
        # Monte-Carlo oracle: mean per-client label entropy over 100 trials.
        ds = balanced_labels_dataset(classes=5, per_class=40)

        def mean_entropy(concentration):
            acc = 0.0
            for seed in range(100):
                part = data.dirichlet_partition(ds, data.PartitionSpec(10, concentration, seed))
                acc += np.mean([label_entropy(ds.labels[list(c)], 5) for c in part.clients])
            return acc / 100

        assert mean_entropy(0.5) < mean_entropy(2.0)

    def test_partition_is_disjoint_cover(self):
        ds = balanced_labels_dataset(classes=7, per_class=30, seed=3)
        for concentration in (0.3, 1.0, 5.0):
            part = data.dirichlet_partition(ds, data.PartitionSpec(12, concentration, seed=9))
            seen = [i for c in part.clients for i in c]
            assert len(seen) == len(ds)
            assert sorted(seen) == list(range(len(ds)))

    def test_per_class_totals_conserved(self):
        ds = balanced_labels_dataset(classes=6, per_class=25, seed=4)
        part = data.dirichlet_partition(ds, data.PartitionSpec(9, 0.4, seed=11))
        totals = sum(np.bincount(ds.labels[list(c)], minlength=6) for c in part.clients)
        assert np.array_equal(totals, ds.class_counts())

    def test_every_client_nonempty_even_when_skewed(self):
        ds = balanced_labels_dataset(classes=2, per_class=30, seed=5)
        for seed in range(20):
            part = data.dirichlet_partition(ds, data.PartitionSpec(25, 0.05, seed))
            assert min(part.sizes()) >= 1

    def test_deterministic_given_seed(self):
        ds = balanced_labels_dataset(classes=4, per_class=20, seed=6)
        spec = data.PartitionSpec(8, 0.7, seed=13)
        assert data.dirichlet_partition(ds, spec) == data.dirichlet_partition(ds, spec)

    def test_more_clients_than_examples(self):
        ds = balanced_labels_dataset(classes=2, per_class=3, seed=7)
        with pytest.raises(ConfigError):
            data.dirichlet_partition(ds, data.PartitionSpec(clients=7, concentration=1.0, seed=0))

    def test_kl_to_global_decreases_with_concentration(self):
        # The identicalness claim: higher concentration, lower mean KL(client || global).
        ds = balanced_labels_dataset(classes=10, per_class=60, seed=8)
        global_dist = ds.class_counts() / len(ds)

        def mean_kl(concentration, seeds=20):
            total = 0.0
            for seed in range(seeds):
                part = data.dirichlet_partition(ds, data.PartitionSpec(20, concentration, seed))
                for client in part.clients:
                    counts = np.bincount(ds.labels[list(client)], minlength=10)
                    p = counts / counts.sum()
                    mask = p > 0
                    total += float((p[mask] * np.log(p[mask] / global_dist[mask])).sum())
            return total / (seeds * 20)

        kls = [mean_kl(c) for c in (0.5, 0.9, 2.0)]
        assert kls[0] > kls[1] > kls[2]


class TestSplitPerGate:
    def test_even_split(self):
        split = data.split_per_gate(range(10), ratio=0.5, seed=0)
        assert len(split.per_indices) == 5 and len(split.gate_indices) == 5

    def test_ceiling_rule(self):
        split = data.split_per_gate(range(10), ratio=0.9, seed=0)
        assert len(split.per_indices) == 9 and len(split.gate_indices) == 1

    def test_same_seed_same_split(self):
        a = data.split_per_gate(range(20), ratio=0.8, seed=42)
        b = data.split_per_gate(range(20), ratio=0.8, seed=42)
        assert a == b

    def test_partition_of_input(self):
        indices = [3, 5, 8, 13, 21, 34]
        split = data.split_per_gate(indices, ratio=0.8, seed=1)
        assert sorted(split.per_indices + split.gate_indices) == indices

    def test_gate_side_never_empty(self):
        split = data.split_per_gate([7, 9], ratio=0.8, seed=2)
        assert len(split.per_indices) == 1 and len(split.gate_indices) == 1

    def test_degenerate_client(self):
        with pytest.raises(DegenerateClientError):
            data.split_per_gate([1], ratio=0.5, seed=0)


class TestIdxFormat:
    def test_round_trip_fixture(self, tmp_path):
        # Hand-built two-image fixture written by the test itself.
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(2, 1, 28, 28)).astype(np.float64) / 255.0
        ds = data.LabeledDataset(Tensor(pixels), np.array([3, 7]), classes=10)
        img, lab = tmp_path / "img", tmp_path / "lab"
        data.write_idx(ds, img, lab)
        loaded = data.load_idx(img, lab, classes=10)
        assert loaded.features.shape == (2, 1, 28, 28)
        assert loaded.labels.tolist() == [3, 7]
        assert np.array_equal(loaded.features.data, pixels)

    def test_truncated_file(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        ds = data.make_synthetic(classes=2, per_class=2, seed=0, side=8)
        data.write_idx(ds, img, lab)
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="offset"):
            data.load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        ds = data.make_synthetic(classes=2, per_class=2, seed=0, side=8)
        data.write_idx(ds, img, lab)
        corrupted = b"\x00\x00\x08\x05" + img.read_bytes()[4:]
        img.write_bytes(corrupted)
        with pytest.raises(DataFormatError, match="magic"):
            data.load_idx(img, lab)

    @pytest.mark.parametrize("file, offset, name, value", [
        ("img", 4, "image count", 0),
        ("img", 4, "image count", -1),
        ("img", 8, "rows", 0),
        ("img", 12, "columns", -3),
        ("lab", 4, "label count", 0),
        ("lab", 4, "label count", -1),
    ])
    def test_non_positive_header_dimension(self, tmp_path, file, offset, name, value):
        img, lab = tmp_path / "img", tmp_path / "lab"
        ds = data.make_synthetic(classes=2, per_class=2, seed=0, side=8)
        data.write_idx(ds, img, lab)
        path = tmp_path / file
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = struct.pack(">i", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=rf"header {name} must be positive, got {value} .*"
                                                  rf"\(at byte offset {offset}\)"):
            data.load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        ds = data.make_synthetic(classes=2, per_class=3, seed=0, side=8)
        img, lab = tmp_path / "img", tmp_path / "lab"
        data.write_idx(ds, img, lab)
        short = data.make_synthetic(classes=2, per_class=2, seed=0, side=8)
        data.write_idx(short, tmp_path / "img2", tmp_path / "lab2")
        with pytest.raises(DataFormatError, match="images but"):
            data.load_idx(tmp_path / "img2", lab)

    def test_all_zero_bytes_scale_to_zero(self, tmp_path):
        ds = data.LabeledDataset(Tensor(np.zeros((2, 1, 4, 4))), np.array([0, 1]), classes=2)
        img, lab = tmp_path / "img", tmp_path / "lab"
        data.write_idx(ds, img, lab)
        loaded = data.load_idx(img, lab)
        assert np.abs(loaded.features.data).max() == 0.0


class TestPadTo32:
    def test_ones_land_in_center(self):
        ds = data.LabeledDataset(Tensor(np.ones((1, 1, 28, 28))), np.array([0]), classes=2)
        padded = data.pad_to_32(ds)
        arr = padded.features.data[0, 0]
        assert arr.shape == (32, 32)
        assert np.array_equal(arr[2:30, 2:30], np.ones((28, 28)))
        assert arr[:2].sum() == 0 and arr[30:].sum() == 0

    def test_corner_maps_to_2_2(self):
        base = np.zeros((1, 1, 28, 28))
        base[0, 0, 0, 0] = 1.0
        padded = data.pad_to_32(data.LabeledDataset(Tensor(base), np.array([0]), classes=2))
        assert padded.features.data[0, 0, 2, 2] == 1.0

    def test_pixel_sum_preserved(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(size=(3, 1, 28, 28))
        ds = data.LabeledDataset(Tensor(base), np.array([0, 1, 0]), classes=2)
        padded = data.pad_to_32(ds)
        assert padded.features.data.sum() == pytest.approx(base.sum(), abs=1e-9)

    def test_unsupported_side(self):
        ds = data.make_synthetic(classes=2, per_class=2, seed=0, side=16)
        with pytest.raises(ConfigError):
            data.pad_to_32(ds)

    @pytest.mark.parametrize("rows, cols", [(28, 30), (32, 28), (28, 32)])
    def test_non_square_input_is_rejected(self, rows, cols):
        ds = data.LabeledDataset(Tensor(np.zeros((1, 1, rows, cols))), np.array([0]), classes=2)
        with pytest.raises(ConfigError, match=f"28x28 or 32x32 inputs, got {rows}x{cols}"):
            data.pad_to_32(ds)


class TestTrainingCoverage:
    def test_full_training_set_passes(self):
        ds = data.make_synthetic(classes=4, per_class=5, seed=0, side=8)
        data.require_all_classes(ds)

    def test_missing_class_rejected(self):
        ds = data.make_synthetic(classes=4, per_class=5, seed=0, side=8)
        trimmed = ds.subset(np.flatnonzero(ds.labels != 2))
        with pytest.raises(ConfigError, match=r"\[2\]"):
            data.require_all_classes(trimmed)


class TestSynthetic:
    def test_balanced_labels(self):
        ds = data.make_synthetic(classes=2, per_class=50, seed=0)
        assert len(ds) == 100
        assert ds.class_counts().tolist() == [50, 50]

    def test_same_seed_identical_bytes(self):
        a = data.make_synthetic(classes=3, per_class=10, seed=5)
        b = data.make_synthetic(classes=3, per_class=10, seed=5)
        assert np.array_equal(a.features.data, b.features.data)
        assert np.array_equal(a.labels, b.labels)

    def test_linear_probe_on_low_noise_data(self):
        # Oracle: one dense layer trained on held-out-evaluated synthetic data.
        train = data.make_synthetic(classes=3, per_class=60, seed=7, noise=0.1, center_jitter=0.5)
        test = data.synthetic_test_set(7, classes=3, per_class=30, noise=0.1, center_jitter=0.5)

        rng = np.random.default_rng(0)
        dim = train.channels * train.side * train.side
        params = {"w": rng.normal(scale=0.01, size=(dim, 3)), "b": np.zeros(3)}
        state = OptimizerState()
        cfg = SgdConfig(learning_rate=0.05)
        flat = train.features.data.reshape(len(train), -1)
        for _ in range(60):
            leaves = {k: graph.leaf(t) for k, t in params.items()}
            logits = graph.dense(graph.leaf(flat), leaves["w"], leaves["b"])
            loss = graph.cross_entropy(logits, train.labels)
            grads = graph.gradient(loss, [leaves["w"], leaves["b"]])
            params = sgd_step(params, {"w": grads[0], "b": grads[1]}, state, cfg)

        test_flat = test.features.data.reshape(len(test), -1)
        pred = (test_flat @ params["w"] + params["b"]).argmax(axis=1)
        assert (pred == test.labels).mean() >= 0.95

    def test_test_set_shares_patterns_not_noise(self):
        train = data.make_synthetic(classes=2, per_class=5, seed=3)
        test = data.synthetic_test_set(3, classes=2, per_class=5)
        assert not np.array_equal(train.features.data, test.features.data)
        assert test.classes == train.classes
