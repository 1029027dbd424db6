import numpy as np
import pytest

import oracles
from fedmoe import data, evaluation
from fedmoe.errors import EvaluationError
from fedmoe.numerics import Tensor


def onehot_oracle_predictor(ds):
    """Predictor that always answers the true label (reads labels by identity lookup)."""
    lookup = {ds.features.data[i].tobytes(): ds.labels[i] for i in range(len(ds))}

    def predict(x):
        out = np.zeros((x.shape[0], ds.classes))
        for i in range(x.shape[0]):
            out[i, lookup[x.data[i].tobytes()]] = 1.0
        return Tensor(out)

    return predict


def random_predictor(classes, seed):
    rng = np.random.default_rng(seed)

    def predict(x):
        return Tensor(rng.normal(size=(x.shape[0], classes)))

    return predict


def fixed_label_predictor(classes, label):
    def predict(x):
        out = np.zeros((x.shape[0], classes))
        out[:, label] = 1.0
        return Tensor(out)

    return predict


def small_test_set(classes=10, per_class=20, seed=0):
    return data.make_synthetic(classes=classes, per_class=per_class, seed=seed, side=8)


class TestClassRatios:
    def test_two_even_classes(self):
        assert evaluation.class_ratios([0, 0, 1, 1], 2).tolist() == [0.5, 0.5]

    def test_single_class_is_one_hot(self):
        assert evaluation.class_ratios([2, 2, 2], 4).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 6, size=200)
        got = evaluation.class_ratios(labels, 6)
        want = np.array([(labels == c).sum() for c in range(6)]) / 200
        assert np.allclose(got, want, atol=1e-15)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            evaluation.class_ratios([], 3)


class TestGlobalTest:
    def test_oracle_predictor_scores_one(self):
        ds = small_test_set()
        assert evaluation.global_test(onehot_oracle_predictor(ds), ds) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        ds = small_test_set(classes=10, per_class=10)
        assert evaluation.global_test(fixed_label_predictor(10, 4), ds) == pytest.approx(0.1)

    def test_matches_per_sample_loop(self):
        ds = small_test_set(classes=5, per_class=12, seed=4)
        predictor = random_predictor(5, seed=9)
        logits = predictor(ds.features).data
        correct = sum(1 for i in range(len(ds)) if logits[i].argmax() == ds.labels[i])
        # Re-seed so the predictor emits the same stream inside global_test.
        assert evaluation.global_test(random_predictor(5, seed=9), ds) == pytest.approx(correct / len(ds))


class TestLocalTest:
    def test_uniform_ratios_on_balanced_set_equal_global(self):
        ds = small_test_set(classes=8, per_class=15, seed=5)
        predictor = random_predictor(8, seed=11)
        ratios = np.full(8, 1 / 8)
        local = evaluation.local_test(random_predictor(8, 11), ds, ratios)
        glob = evaluation.global_test(predictor, ds)
        assert local == pytest.approx(glob, abs=1e-12)

    def test_one_hot_ratios_pick_single_class(self):
        ds = small_test_set(classes=4, per_class=10, seed=6)
        acc = evaluation.per_class_accuracy(random_predictor(4, 13), ds)
        ratios = np.array([0.0, 0.0, 1.0, 0.0])
        got = evaluation.local_test_from_per_class(acc, ratios)
        assert got == pytest.approx(acc[2], abs=1e-15)

    def test_matches_brute_force_weighted_oracle(self):
        rng = np.random.default_rng(7)
        ds = small_test_set(classes=6, per_class=9, seed=7)
        for trial in range(10):
            ratios = rng.dirichlet(np.ones(6))
            predictor = random_predictor(6, seed=100 + trial)
            pred = evaluation.predict_labels(predictor, ds)
            want = oracles.weighted_local_accuracy_loops(pred, ds.labels, ratios)
            got = evaluation.local_test(random_predictor(6, seed=100 + trial), ds, ratios)
            assert got == pytest.approx(want, abs=1e-12)

    def test_ratio_for_class_missing_from_test_set(self):
        ds = small_test_set(classes=3, per_class=8, seed=8)
        trimmed = ds.subset(np.flatnonzero(ds.labels != 2))
        with pytest.raises(EvaluationError):
            evaluation.local_test(random_predictor(3, 1), trimmed, np.array([0.5, 0.2, 0.3]))

    def test_ratios_equal_to_test_distribution_recover_global_test(self):
        # Holds on an unbalanced test set too.
        ds = small_test_set(classes=5, per_class=14, seed=12)
        unbalanced = ds.subset([i for i in range(len(ds)) if not (ds.labels[i] == 0 and i % 2)])
        ratios = unbalanced.class_counts() / len(unbalanced)
        predictor = random_predictor(5, seed=23)
        local = evaluation.local_test(random_predictor(5, 23), unbalanced, ratios)
        glob = evaluation.global_test(predictor, unbalanced)
        assert local == pytest.approx(glob, abs=1e-12)

    def test_output_within_per_class_bounds(self):
        ds = small_test_set(classes=5, per_class=10, seed=9)
        acc = evaluation.per_class_accuracy(random_predictor(5, 17), ds)
        rng = np.random.default_rng(10)
        for _ in range(20):
            ratios = rng.dirichlet(np.ones(5))
            v = evaluation.local_test_from_per_class(acc, ratios)
            assert np.nanmin(acc) - 1e-12 <= v <= np.nanmax(acc) + 1e-12

    def test_perfect_accuracy_is_recordable_when_ratios_round_above_one(self):
        # Class counts 27/4/5/10 of 46: the weighted sum of the four ratios
        # rounds to 1 + 2.2e-16.
        ratios = evaluation.class_ratios(np.repeat(np.arange(4), [27, 4, 5, 10]), 10)
        local = evaluation.local_test_from_per_class(np.ones(10), ratios)
        assert local == 1.0
        assert evaluation.MetricsRecord("r", "pfl_fb", 0, local, 1.0, 0).local_acc == 1.0


class TestSummarize:
    def rec(self, alg, client, local, glob, run="r", seed=0):
        return evaluation.MetricsRecord(run, alg, client, local, glob, seed)

    def test_single_client_mean_is_identity(self):
        summary = evaluation.summarize([self.rec("local", 0, 0.8, 0.5)])
        assert summary.rows[0].mean_local_acc == pytest.approx(0.8)
        assert summary.rows[0].mean_global_acc == pytest.approx(0.5)

    def test_two_client_mean(self):
        summary = evaluation.summarize([self.rec("pfl_fb", 0, 0.8, 0.4), self.rec("pfl_fb", 1, 0.6, 0.6)])
        assert summary.rows[0].mean_local_acc == pytest.approx(0.7)
        assert summary.rows[0].mean_global_acc == pytest.approx(0.5)

    def test_matches_spreadsheet_oracle(self):
        rng = np.random.default_rng(11)
        records = []
        table = {}
        for alg in ("fedavg", "pfl_mf"):
            locs, globs = rng.uniform(size=50), rng.uniform(size=50)
            table[alg] = (locs, globs)
            records += [self.rec(alg, i, locs[i], globs[i]) for i in range(50)]
        summary = evaluation.summarize(records)
        by_alg = {row.algorithm: row for row in summary.rows}
        for alg, (locs, globs) in table.items():
            assert by_alg[alg].mean_local_acc == pytest.approx(sum(locs) / 50, abs=1e-12)
            assert by_alg[alg].mean_global_acc == pytest.approx(sum(globs) / 50, abs=1e-12)
        deltas = dict((cid, (dl, dg)) for cid, dl, dg in summary.deltas["pfl_mf"])
        for i in range(50):
            assert deltas[i][0] == pytest.approx(table["pfl_mf"][0][i] - table["fedavg"][0][i], abs=1e-12)

    def test_deltas_of_baseline_against_itself_absent(self):
        records = [self.rec("fedavg", i, 0.5, 0.5) for i in range(3)]
        assert evaluation.summarize(records).deltas == {}


class TestMetricsSerialization:
    def test_csv_round_trip(self, tmp_path):
        records = [
            evaluation.MetricsRecord("run1", "pfl_mf", 0, 0.75, 0.6, 42, mean_gate=0.55),
            evaluation.MetricsRecord("run1", "pfl_mf", 1, 0.8, 0.7, 42, mean_gate=0.6),
        ]
        path = tmp_path / "m.csv"
        evaluation.write_metrics_csv(records, path, include_mean_gate=True)
        loaded = evaluation.read_metrics_csv(path)
        assert [r.client_id for r in loaded] == [0, 1]
        assert loaded[0].mean_gate == pytest.approx(0.55)
        header = path.read_text().splitlines()[0]
        assert header == "run_id,algorithm,client_id,local_acc,global_acc,seed,mean_g"

    def test_csv_schema_without_gate_column(self, tmp_path):
        records = [evaluation.MetricsRecord("run1", "pfl_fb", 0, 0.75, 0.6, 42)]
        path = tmp_path / "m.csv"
        evaluation.write_metrics_csv(records, path)
        header = path.read_text().splitlines()[0]
        assert header == "run_id,algorithm,client_id,local_acc,global_acc,seed"

    def test_jsonl_stream(self, tmp_path):
        records = [evaluation.MetricsRecord("run1", "local", "aggregate", 0.5, 0.5, 1)]
        path = tmp_path / "m.jsonl"
        evaluation.write_metrics_jsonl(records, path)
        import json

        row = json.loads(path.read_text().splitlines()[0])
        assert row["algorithm"] == "local" and row["client_id"] == "aggregate"

    def test_accuracy_range_validated(self):
        with pytest.raises(EvaluationError):
            evaluation.MetricsRecord("r", "local", 0, 1.5, 0.5, 0)
