"""tools/output_digests.py, the byte-identity check between two checkouts,
tools/bench_pairs.py, the paired benchmark summary, and the program names
the benchmark under bench/ reaches into."""

import ast
import importlib
import importlib.util
import re
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
                 "metrics_local.csv", "clients/pfl_mf/client_2.ckpt", "report.csv", "deltas.csv"):
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


BENCH = TOOL.parents[1] / "bench"
# Traced names that src/ no longer has; their figures read 0 until the
# benchmark drops them. No other traced name may go missing.
STALE_TARGETS = {"graph.add", "graph.mul", "graph.sum_all", "models.gate_forward", "personalization.pfl_fb",
                 "personalization.run_pfl_mf", "personalization.run_pfl_mfe", "personalization.mean_gate_weight"}


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a fedmoe module, or a name bound in one, or a
    method defined on one of its classes (where the tracer patches it)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = vars(obj).get(part)
            if obj is None:
                return False
        return True
    return False


def test_every_name_the_tracer_wraps_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {f"{module.removeprefix('fedmoe.').removeprefix('numerics.')}.{attr}"
               for module, attr, *_ in tracing.TARGETS if not resolves(f"{module}.{attr}")}
    assert missing <= STALE_TARGETS


def test_every_program_api_the_benchmark_readme_lists_resolves():
    text = (BENCH / "README.md").read_text()
    section = text.split("## Program APIs the benchmark calls", 1)[1].split("\n## ", 1)[0]
    names = []
    for name in re.findall(r"`([^`]+)`", section):
        # A kernel's call form, as in `conv2d(x, k, b)`, names a function of numerics.kernels.
        names.append(f"numerics.kernels.{name.split('(')[0]}" if "(" in name else name)
    assert "cli.main" in names and "numerics.kernels.conv2d" in names
    assert [name for name in names if not resolves(f"fedmoe.{name}")] == []


def monkeypatched_names(path) -> set[str]:
    """Every ``module.name`` that a test in ``path`` replaces with
    ``monkeypatch.setattr(module, name, ...)``, where module is imported from
    fedmoe and name is a string, a loop variable or a pytest parameter."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name: f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fedmoe")
               for alias in node.names}
    found = set()
    for test in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        values = {}  # the nodes each variable of the test takes
        for mark in test.decorator_list:
            if isinstance(mark, ast.Call) and ast.unparse(mark.func) == "pytest.mark.parametrize":
                for row in mark.args[1].elts:
                    for arg, value in zip(mark.args[0].value.split(","), row.elts):
                        values.setdefault(arg.strip(), []).append(value)
        for node in ast.walk(test):
            if isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
                values[ast.unparse(node.target)] = node.iter.elts
        for node in ast.walk(test):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "monkeypatch.setattr":
                holders, attrs = (values.get(arg.id, [arg]) if isinstance(arg, ast.Name) else [arg]
                                  for arg in node.args[:2])
                found |= {f"{modules[h.id]}.{ast.literal_eval(a)}" for h in holders for a in attrs}
    return found


def test_every_name_the_benchmark_self_tests_monkeypatch_resolves():
    names = monkeypatched_names(BENCH / "selftest_checks.py")
    assert {"fedmoe.personalization.sgd_step", "fedmoe.numerics.kernels.conv2d"} <= names
    assert sorted(name for name in names if not resolves(name)) == []
