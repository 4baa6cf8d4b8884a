import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

import gcmkit as gk

GCM = [sys.executable, "-m", "gcmkit"]


def run_cli(*args, **kwargs):
    return subprocess.run(GCM + list(args), capture_output=True, text=True, **kwargs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Graph, data, a fitted model file, and a single-row CSV."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(800)
    y = 2 * x + rng.standard_normal(800)
    data = gk.Dataset(["X", "Y"], [x, y])
    (root / "graph.json").write_text('{"nodes":["X","Y"],"edges":[["X","Y"]]}')
    (root / "data.csv").write_text(gk.write_csv(data))
    (root / "row.csv").write_text("X,Y\n1.0,3.0\n")

    result = run_cli(
        "fit",
        "--graph", str(root / "graph.json"),
        "--data", str(root / "data.csv"),
        "--out", str(root / "model.json"),
    )
    assert result.returncode == 0, result.stderr
    return root


def test_fit_writes_model_file(workdir):
    model = gk.load(str(workdir / "model.json"))
    assert model.fitted
    payload = json.loads((workdir / "model.json").read_text())
    assert payload["schema_version"] == 1


def test_fit_without_out_prints_model(workdir):
    result = run_cli("fit", "--graph", str(workdir / "graph.json"), "--data", str(workdir / "data.csv"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) == {"schema_version", "graph", "mechanisms"}


def test_fit_missing_graph_file_exits_2():
    result = run_cli("fit", "--graph", "missing.json", "--data", "also-missing.csv")
    assert result.returncode == 2
    assert "missing.json" in result.stderr


def test_corrupt_graph_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nodes")
    result = run_cli("fit", "--graph", str(bad), "--data", str(workdir / "data.csv"))
    assert result.returncode == 2
    assert "parse error" in result.stderr


ALL_SUBCOMMANDS = [
    "fit", "sample", "intervene", "counterfactual", "ace", "attribute-outlier",
    "attribute-change", "icc", "arrow-strength", "discover", "refute", "evaluate", "test",
]


@pytest.mark.parametrize("subcommand", ALL_SUBCOMMANDS)
def test_unknown_flag_exits_1(subcommand):
    result = run_cli(subcommand, "--frobnicate")
    assert result.returncode == 1
    assert "usage" in result.stderr


def test_missing_subcommand_exits_1():
    result = run_cli()
    assert result.returncode == 1
    assert "usage" in result.stderr


def test_intervene_reports_do_mean(workdir):
    result = run_cli(
        "intervene",
        "--model", str(workdir / "model.json"),
        "--set", "X=1",
        "-n", "20000",
        "--target", "Y",
        "--seed", "7",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["command"] == "intervene"
    assert payload["seed"] == 7
    assert payload["mean"] == pytest.approx(2.0, abs=0.15)  # includes fit error at n=800


def test_stdout_byte_identical_for_fixed_seed(workdir):
    args = [
        "sample", "--model", str(workdir / "model.json"), "-n", "50", "--seed", "3",
    ]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_counterfactual_command(workdir):
    result = run_cli(
        "counterfactual",
        "--model", str(workdir / "model.json"),
        "--data", str(workdir / "row.csv"),
        "--set", "X=2",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["values"]["X"] == 2.0
    assert payload["values"]["Y"] == pytest.approx(5.0, abs=0.3)  # fitted, not ground truth


def test_ace_command(workdir):
    result = run_cli(
        "ace",
        "--model", str(workdir / "model.json"),
        "--treatment", "X",
        "--value-a", "1",
        "--value-b", "0",
        "--target", "Y",
        "-n", "20000",
        "--seed", "2",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["ace"] == pytest.approx(2.0, abs=0.15)  # includes fit error


def test_icc_command(workdir):
    result = run_cli(
        "icc",
        "--model", str(workdir / "model.json"),
        "--target", "Y",
        "--outer-samples", "30",
        "--inner-samples", "100",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert set(payload["scores"]) == {"X", "Y"}
    assert sum(payload["scores"].values()) == pytest.approx(payload["total"], abs=1e-9)


def test_arrow_strength_command(workdir):
    result = run_cli(
        "arrow-strength",
        "--model", str(workdir / "model.json"),
        "--edge", "X->Y",
        "-n", "20000",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["strength"] == pytest.approx(8.0, abs=0.5)


def test_attribute_outlier_command(workdir, tmp_path):
    anomaly = tmp_path / "anomaly.csv"
    anomaly.write_text("X,Y\n0.0,6.0\n")
    result = run_cli(
        "attribute-outlier",
        "--model", str(workdir / "model.json"),
        "--data", str(anomaly),
        "--target", "Y",
        "--num-samples", "2000",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert max(payload["scores"], key=payload["scores"].get) == "Y"


def test_attribute_change_command(workdir, tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1500)
    y = 2 * x + 2.0 + rng.standard_normal(1500)
    new = tmp_path / "new.csv"
    new.write_text(gk.write_csv(gk.Dataset(["X", "Y"], [x, y])))
    result = run_cli(
        "attribute-change",
        "--graph", str(workdir / "graph.json"),
        "--old", str(workdir / "data.csv"),
        "--new", str(new),
        "--target", "Y",
        "--measure", "mean_diff",
        "--num-samples", "4000",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["scores"]["Y"] == pytest.approx(2.0, abs=0.15)


def test_discover_command(workdir):
    result = run_cli("discover", "--data", str(workdir / "data.csv"), "--alpha", "0.05")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert {"directed", "undirected"} <= set(payload)


def test_refute_command(workdir):
    result = run_cli(
        "refute",
        "--graph", str(workdir / "graph.json"),
        "--data", str(workdir / "data.csv"),
        "--alpha", "0.05",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "not rejected"


def test_evaluate_command(workdir):
    result = run_cli(
        "evaluate", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.csv")
    )
    assert result.returncode == 0, result.stderr
    nodes = json.loads(result.stdout)["nodes"]
    assert {entry["node"] for entry in nodes} == {"X", "Y"}


def test_test_command_dcor_and_fisherz(workdir):
    dcor = run_cli("test", "--data", str(workdir / "data.csv"), "--x", "X", "--y", "Y")
    assert dcor.returncode == 0, dcor.stderr
    assert json.loads(dcor.stdout)["p_value"] <= 0.01

    fisher = run_cli(
        "test", "--data", str(workdir / "data.csv"), "--x", "X", "--y", "Y",
        "--method", "fisherz",
    )
    assert fisher.returncode == 0
    assert json.loads(fisher.stdout)["method"] == "fisher_z"


def test_out_flag_writes_result_file(workdir, tmp_path):
    out = tmp_path / "result.json"
    result = run_cli(
        "sample", "--model", str(workdir / "model.json"), "-n", "5", "--out", str(out)
    )
    assert result.returncode == 0
    assert result.stdout == ""
    assert json.loads(out.read_text())["command"] == "sample"


def test_malformed_set_flag_exits_1(workdir):
    result = run_cli("intervene", "--model", str(workdir / "model.json"), "--set", "X")
    assert result.returncode == 1
    assert "NODE=VALUE" in result.stderr


def test_envelope_keys_are_stable(workdir):
    result = run_cli("sample", "--model", str(workdir / "model.json"), "-n", "3")
    payload = json.loads(result.stdout)
    assert list(payload)[:3] == ["schema_version", "command", "seed"]


def test_parser_budget_defaults_match_the_library():
    """The parser loads no numpy, so it restates the library's defaults."""
    from gcmkit import attribution, cli, discovery, sampling, stats, validation

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    cases = [
        (["attribute-outlier", "--model", "m", "--data", "r", "--target", "t"],
         {"num_samples": attribution.DEFAULT_ANOMALY_SAMPLES}),
        (["attribute-change", "--graph", "g", "--old", "o", "--new", "n", "--target", "t"],
         {"num_samples": attribution.DEFAULT_CHANGE_SAMPLES,
          "measure": default(attribution.distribution_change, "measure")}),
        (["icc", "--model", "m", "--target", "t"],
         {"outer_samples": attribution.DEFAULT_ICC_OUTER_SAMPLES,
          "inner_samples": attribution.DEFAULT_ICC_INNER_SAMPLES}),
        (["arrow-strength", "--model", "m", "--edge", "a->b"],
         {"n": default(attribution.arrow_strength, "n")}),
        (["ace", "--model", "m", "--treatment", "a", "--value-a", "1", "--value-b", "0", "--target", "b"],
         {"n": default(sampling.average_causal_effect, "n")}),
        (["test", "--data", "d", "--x", "a", "--y", "b"],
         {"permutations": default(stats.pairwise_independence_test, "num_permutations")}),
        (["discover", "--data", "d"],
         {"alpha": default(discovery.discover_cpdag, "alpha"),
          "max_cond_set": discovery.DEFAULT_MAX_COND_SET_SIZE}),
        (["refute", "--graph", "g", "--data", "d"],
         {"alpha": default(validation.refute_graph, "alpha")}),
    ]
    parser = cli.build_parser()
    for argv, expected in cases:
        args = parser.parse_args(argv)
        assert {name: getattr(args, name) for name in expected} == expected, argv[0]
