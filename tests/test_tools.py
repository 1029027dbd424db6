"""tools/output_digests.py, the byte-identity check between two checkouts, and
tools/bench_pairs.py, the paired benchmark summary."""

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"

TINY_CONFIG = """
[run]
seed = 5

[dataset]
source = synthetic
classes = 3
per_class = 12
test_per_class = 4

[model]
architecture = mlp
hidden_sizes = 6

[partition]
clients = 3
concentration = 1.0

[federation]
rounds = 2
local_epochs = 1
local_batch = 8

[local_baseline]
epochs = 2
batch = 8

[personalization]
epochs = 2
batch = 8
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digests(tmp_path, capsys):
    tool = load_tool()
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    first = tool.main(["--config", str(config), "--out", str(out)])
    shutil.rmtree(out)
    second = tool.main(["--config", str(config), "--out", str(out)])
    assert first == second
    assert capsys.readouterr().out.splitlines() == first + second
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    for name in ("partition.json", "checkpoint.ckpt", "rounds.csv", "manifest_pfl_mfe.json",
                 "metrics_local.csv", "clients/pfl_mf/client_2.ckpt"):
        assert name in paths


BENCH_PAIRS = TOOL.parent / "bench_pairs.py"
DECLARED = [{"name": "pfl_fb_s", "unit": "s", "better": "lower"},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(failed=0, **values):
    return {"result": {"failed": failed, "metrics": {k: {"value": v} for k, v in values.items()}}}


def synthetic_pairs(parent, change, rss=(50.0, 50.0)):
    return [(record(pfl_fb_s=p, peak_rss_mb=rss[0]), record(pfl_fb_s=c, peak_rss_mb=rss[1]))
            for p, c in zip(parent, change)]


def test_bench_pairs_summary_counts_wins_quartiles_and_failures():
    tool = load_bench_pairs()
    pairs = synthetic_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 1.0, 5.0, 2.0])
    pairs[1][1]["result"]["failed"] = 2
    summary = tool.summarize(pairs, DECLARED)
    fb = summary["metrics"]["pfl_fb_s"]
    assert fb["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert fb["change_q1_median_q3"] == [1.0, 2.0, 2.0]
    assert fb["median_change"] == round(2.0 / 3.0 - 1.0, 4)
    assert fb["change_won"] == "3/5"  # the tie at 2.0 counts for neither side
    assert summary["metrics"]["peak_rss_mb"]["change_won"] == "0/5"
    assert summary["pairs"] == 5 and summary["failed_operations"] == {"parent": 0, "change": 2}


@pytest.mark.parametrize("change, met, why", [
    ([0.60, 0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.67, 0.68, 0.69], True, None),
    ([0.60, 0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.67, 1.70, 1.80], False, "won 8/10"),
    ([0.80, 0.81, 0.82, 0.83, 0.84, 0.85, 0.86, 0.87, 0.88, 0.89], False, "below the claimed 30%"),
])
def test_bench_pairs_judges_a_claim_by_wins_gain_and_parent_iqr(change, met, why):
    tool = load_bench_pairs()
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.6, 1.7]
    entry = tool.summarize(synthetic_pairs(parent, change), DECLARED)["metrics"]["pfl_fb_s"]
    ok, problems = tool.judge(entry, "lower", 0.30)
    assert ok is met
    assert met or any(why in p for p in problems)


def test_bench_pairs_gap_must_exceed_the_parent_iqr():
    tool = load_bench_pairs()
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # IQR 4.5 around a median of 5.5
    entry = tool.summarize(synthetic_pairs(parent, [p - 2.0 for p in parent]), DECLARED)["metrics"]["pfl_fb_s"]
    ok, problems = tool.judge(entry, "lower", 0.30)
    assert not ok and any("parent IQR" in p for p in problems)
