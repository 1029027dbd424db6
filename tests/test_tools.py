"""tools/output_digests.py: the byte-identity check between two checkouts."""

import importlib.util
import shutil
from pathlib import Path

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
