"""The CLI contract, checked in-process through ``gcmkit.cli.run``.

Whatever the input, ``run`` returns an exit code in {0, 1, 2, 3}, lets no
exception escape, and prints only strict JSON (no ``NaN`` or ``Infinity``).
"""

import contextlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcmkit as gk
from conftest import classifier_data, set_path
from gcmkit import attribution, cli, sampling
from gcmkit.stats import MAX_PERMUTATIONS

NODES = ["C", "X", "Y", "K", "Z"]
GRAPH = '{"nodes":["C","X","Y","K","Z"],"edges":[["C","Y"],["X","Y"],["X","K"],["Y","Z"]]}'
CHAIN = '{"nodes":["X","Y","Z"],"edges":[["X","Y"],["Y","Z"]]}'
MALFORMED_CELLS = ["abc", "nan", "inf", "-inf", "1e400", "q", " ", "1,5"]


def call(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([str(arg) for arg in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def assert_contract(code, stdout):
    assert code in (0, 1, 2, 3)
    for line in stdout.splitlines():
        json.loads(line, parse_constant=_reject_constant)


def mixed_dataset(n, seed):
    """A categorical root C, continuous root X, ANM Y, classifier K, ANM Z."""
    rng = np.random.default_rng(seed)
    c = rng.choice(["a", "b"], size=n)
    x = rng.standard_normal(n)
    y = x + np.where(c == "a", 1.0, 0.0) + 0.3 * rng.standard_normal(n)
    k = np.where(x + 0.5 * rng.standard_normal(n) > 0, "hi", "lo")
    z = 1.5 * y + rng.standard_normal(n)
    return gk.Dataset(NODES, [c, x, y, k, z])


def with_cell(csv_text, row, column, cell):
    lines = csv_text.splitlines()
    cells = lines[1 + row].split(",")
    cells[column] = cell
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "graph.json").write_text(GRAPH)
    (root / "chain.json").write_text(CHAIN)
    (root / "data.csv").write_text(gk.write_csv(mixed_dataset(60, 0)))
    (root / "new.csv").write_text(gk.write_csv(mixed_dataset(60, 1)))
    (root / "cont.csv").write_text(gk.write_csv(mixed_dataset(60, 0).select(["X", "Y", "Z"])))
    (root / "row.csv").write_text("C,X,Y,K,Z\nb,0.3,2.5,hi,6.0\n")
    code, _, stderr = call(
        ["fit", "--graph", root / "graph.json", "--data", root / "data.csv", "--out", root / "model.json"]
    )
    assert code == 0, stderr
    return root


def test_attribute_outlier_non_numeric_cell_exits_2(files):
    (files / "bad_row.csv").write_text("C,X,Y,K,Z\nb,abc,2.5,hi,6.0\n")
    code, stdout, stderr = call(
        ["attribute-outlier", "--model", files / "model.json", "--data", files / "bad_row.csv",
         "--target", "Z", "--num-samples", "50"]
    )
    assert code == 2
    assert stdout == ""
    assert "not numeric" in stderr


BUDGET_CASES = [
    ("test", ["--data", "data.csv", "--x", "X", "--y", "Z"], "--permutations", -3),
    ("arrow-strength", ["--model", "model.json", "--edge", "X->Y"], "-n", 0),
    ("discover", ["--data", "cont.csv"], "--max-cond-set", -1),
    ("icc", ["--model", "model.json", "--target", "Z"], "--outer-samples", 0),
    ("icc", ["--model", "model.json", "--target", "Z"], "--inner-samples", 1),
    ("attribute-outlier", ["--model", "model.json", "--data", "row.csv", "--target", "Z"],
     "--num-samples", 0),
    ("attribute-change", ["--graph", "graph.json", "--old", "data.csv", "--new", "new.csv",
                          "--target", "Z"], "--num-samples", 0),
]


@pytest.mark.parametrize(("command", "args", "flag", "value"), BUDGET_CASES)
def test_out_of_range_budget_exits_2(files, command, args, flag, value):
    argv = [command] + [files / a if a.endswith((".csv", ".json")) else a for a in args]
    code, stdout, stderr = call(argv + [flag, value])
    assert code == 2, stderr
    assert stdout == ""
    assert "at least" in stderr


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["arrow-strength", "--model", "model.json", "--edge", "X->K", "-n", "5"], "n must be"),
        (["arrow-strength", "--model", "model.json", "--edge", "X->Y", "--measure", "kl", "-n", "5"],
         "n must be"),
        (["attribute-change", "--graph", "graph.json", "--old", "data.csv", "--new", "new.csv",
          "--target", "Z", "--num-samples", "5"], "num_samples must be"),
    ],
    ids=["arrow-strength-auto", "arrow-strength-kl", "attribute-change"],
)
def test_kl_budget_below_k_plus_one_exits_2_before_any_fit(files, monkeypatch, argv, message):
    """k-NN KL needs k + 1 = 6 samples per side: the budget is checked
    before anything is fitted or drawn, and the message names its flag."""
    def never(*args, **kwargs):
        raise AssertionError("the budget was not checked first")

    monkeypatch.setattr(attribution, "fit", never)
    monkeypatch.setattr(attribution, "draw_noise_values", never)
    code, stdout, stderr = call([files / a if a.endswith((".csv", ".json")) else a for a in argv])
    assert code == 2, stderr
    assert stdout == ""
    assert f"{message} a positive integer, at least 6, got 5" in stderr


@pytest.mark.parametrize(
    ("module", "argv", "budget"),
    [
        (attribution, ["icc", "--model", "model.json", "--target", "Z", "--outer-samples", "100000",
                       "--inner-samples", "1000000"], "--outer-samples 100000 --inner-samples 1000000"),
        (sampling, ["sample", "--model", "model.json", "-n", "1000000000000"], "-n 1000000000000"),
    ],
    ids=["icc", "sample"],
)
def test_budget_too_large_for_memory_exits_2(files, monkeypatch, module, argv, budget):
    # A draw that cannot be allocated raises MemoryError; it is simulated, so
    # nothing large is allocated.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(module, "draw_noise_values", out_of_memory)
    code, stdout, stderr = call([files / a if a.endswith(".json") else a for a in argv])
    assert code == 2
    assert stdout == ""
    assert stderr == f"gcm {argv[0]}: error: out of memory for the Monte-Carlo budget {budget}\n"


OVERSIZE = 10**19  # past the largest array dimension numpy accepts


@pytest.mark.parametrize(
    ("argv", "flag", "value"),
    [
        (["sample", "--model", "model.json"], "-n", OVERSIZE),
        # Fits an array dimension, but not its bytes: "array is too big".
        (["sample", "--model", "model.json"], "-n", 2**62),
        (["intervene", "--model", "model.json", "--set", "X=1"], "-n", OVERSIZE),
        (["ace", "--model", "model.json", "--treatment", "X", "--value-a", "1", "--value-b", "0",
          "--target", "Z"], "-n", OVERSIZE),
        (["icc", "--model", "model.json", "--target", "Z"], "--outer-samples", OVERSIZE),
        (["icc", "--model", "model.json", "--target", "Z"], "--inner-samples", OVERSIZE),
        (["attribute-outlier", "--model", "model.json", "--data", "row.csv", "--target", "Z"],
         "--num-samples", OVERSIZE),
        (["attribute-change", "--graph", "graph.json", "--old", "data.csv", "--new", "new.csv",
          "--target", "Z"], "--num-samples", OVERSIZE),
        (["arrow-strength", "--model", "model.json", "--edge", "X->Y"], "-n", OVERSIZE),
    ],
    ids=["sample", "sample-2**62", "intervene", "ace", "icc-outer", "icc-inner", "attribute-outlier",
         "attribute-change", "arrow-strength"],
)
def test_budget_no_array_can_hold_exits_2(files, argv, flag, value):
    # numpy rejects these sizes before it allocates anything.
    argv = [files / a if a.endswith((".csv", ".json")) else a for a in argv]
    code, stdout, stderr = call(argv + [flag, value])
    assert code == 2, stderr
    assert stdout == ""
    assert stderr.startswith(f"gcm {argv[0]}: error: out of memory for the Monte-Carlo budget ")
    assert f"{flag} {value}" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("value", [MAX_PERMUTATIONS + 1, 10**18, OVERSIZE])
def test_permutations_past_the_cap_exit_2_at_once(files, value):
    """The dCor budget is a loop count, capped by time: a budget past the cap
    exits 2 before the first permutation, naming the flag and the cap,
    where 10**18 used to run until it was killed."""
    argv = ["test", "--data", files / "data.csv", "--x", "X", "--y", "Z", "--method", "dcor",
            "--permutations", value]
    start = time.perf_counter()
    code, stdout, stderr = call(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert stdout == ""
    assert stderr == f"gcm test: error: --permutations must be at most {MAX_PERMUTATIONS}, got {value}\n"


@pytest.fixture(scope="module")
def numeric_categories(tmp_path_factory):
    """A categorical root G whose categories 1, 2 and x mostly look like
    numbers, and a continuous child Y."""
    root = tmp_path_factory.mktemp("categories")
    rng = np.random.default_rng(3)
    g = rng.choice(["1", "2", "x"], size=90)
    y = np.select([g == "1", g == "2"], [0.0, 3.0], -2.0) + 0.1 * rng.standard_normal(90)
    (root / "graph.json").write_text('{"nodes":["G","Y"],"edges":[["G","Y"]]}')
    (root / "data.csv").write_text(gk.write_csv(gk.Dataset(["G", "Y"], [g, y])))
    (root / "row.csv").write_text("G,Y\n2,3.05\n")
    code, _, stderr = call(
        ["fit", "--graph", root / "graph.json", "--data", root / "data.csv", "--out", root / "model.json"]
    )
    assert code == 0, stderr
    return root


def test_intervene_sets_a_category_that_looks_like_a_number(numeric_categories):
    model = numeric_categories / "model.json"
    code, stdout, stderr = call(["intervene", "--model", model, "--set", "G=2", "--target", "Y", "-n", 200])
    assert code == 0, stderr
    assert json.loads(stdout)["mean"] == pytest.approx(3.0, abs=0.1)


def test_ace_on_a_category_that_looks_like_a_number(numeric_categories):
    model = numeric_categories / "model.json"
    code, stdout, stderr = call(
        ["ace", "--model", model, "--treatment", "G", "--value-a", "2", "--value-b", "1", "--target", "Y",
         "-n", 200]
    )
    assert code == 0, stderr
    payload = json.loads(stdout)
    assert (payload["value_a"], payload["value_b"]) == ("2", "1")
    assert payload["ace"] == pytest.approx(3.0, abs=0.1)


def test_ace_echoes_a_continuous_treatment_as_a_number(files):
    code, stdout, stderr = call(
        ["ace", "--model", files / "model.json", "--treatment", "X", "--value-a", "2", "--value-b", "0",
         "--target", "Z", "-n", 50]
    )
    assert code == 0, stderr
    assert '"value_a":2.0,"value_b":0.0,' in stdout


def test_a_set_category_is_checked_only_where_a_child_encodes_it(files):
    """K is a leaf, so no evaluated mechanism reads its value and any
    category goes through; C's child Y one-hot encodes it, so an unseen
    category exits 2."""
    model = files / "model.json"
    code, stdout, stderr = call(["intervene", "--model", model, "--set", "K=zzz", "-n", 5])
    assert code == 0, stderr
    payload = json.loads(stdout)
    assert {row[payload["columns"].index("K")] for row in payload["rows"]} == {"zzz"}
    code, _, stderr = call(
        ["ace", "--model", model, "--treatment", "K", "--value-a", "zzz", "--value-b", "hi",
         "--target", "Z", "-n", 50]
    )
    assert code == 0, stderr
    code, stdout, stderr = call(["intervene", "--model", model, "--set", "C=zzz", "-n", 5])
    assert (code, stdout) == (2, "")
    assert "category 'zzz' was not present when the model was fit" in stderr


def test_counterfactual_observes_a_category_that_looks_like_a_number(numeric_categories):
    model, row = numeric_categories / "model.json", numeric_categories / "row.csv"
    code, stdout, stderr = call(["counterfactual", "--model", model, "--data", row])
    assert code == 0, stderr
    assert json.loads(stdout)["values"] == {"G": "2", "Y": 3.05}
    code, stdout, stderr = call(["counterfactual", "--model", model, "--data", row, "--set", "G=1"])
    assert code == 0, stderr
    values = json.loads(stdout)["values"]
    assert values["G"] == "1" and values["Y"] == pytest.approx(0.05, abs=0.1)


@pytest.mark.parametrize("alpha", ["nan", "0", "1", "-0.5"])
@pytest.mark.parametrize(
    "args", [["discover", "--data", "cont.csv"], ["refute", "--graph", "chain.json", "--data", "cont.csv"]]
)
def test_out_of_range_alpha_exits_2(files, args, alpha):
    argv = [files / a if a.endswith((".csv", ".json")) else a for a in args]
    code, stdout, stderr = call(argv + ["--alpha", alpha])
    assert code == 2, stderr
    assert stdout == ""
    assert "alpha" in stderr


def test_refute_with_a_graph_node_missing_from_the_data_exits_2(files, tmp_path):
    (tmp_path / "xq.json").write_text('{"nodes":["X","Q"],"edges":[["X","Q"]]}')
    code, stdout, stderr = call(["refute", "--graph", tmp_path / "xq.json", "--data", files / "cont.csv"])
    assert (code, stdout) == (2, "")
    assert stderr == "gcm refute: error: graph node 'Q' is missing from the data\n"


@pytest.mark.parametrize(
    ("x", "y", "given", "method"),
    [
        pytest.param("X", "Y", "X", "fisherz", id="X-Y-X"),
        pytest.param("X", "X", "", "fisherz", id="X-X-"),
        pytest.param("X", "Y", "Z,Z", "fisherz", id="X-Y-Z,Z"),
        pytest.param("X", "X", "", "dcor", id="X-X-dcor"),
        pytest.param("X", "X", "", "auto", id="X-X-auto"),
    ],
)
def test_fisherz_on_repeated_columns_exits_2(files, x, y, given, method):
    code, stdout, stderr = call(
        ["test", "--data", files / "cont.csv", "--x", x, "--y", y, "--given", given, "--method", method]
    )
    assert code == 2, stderr
    assert stdout == ""
    assert "distinct" in stderr


@pytest.mark.parametrize("rows", [0, 9])
def test_dcor_on_fewer_than_10_rows_names_the_minimum(files, tmp_path, rows):
    lines = (files / "cont.csv").read_text().splitlines()[: 1 + rows]
    (tmp_path / "short.csv").write_text("\n".join(lines) + "\n")
    code, stdout, stderr = call(
        ["test", "--data", tmp_path / "short.csv", "--x", "X", "--y", "Y", "--method", "dcor"]
    )
    assert (code, stdout) == (2, "")
    assert stderr == "gcm test: error: independence test needs at least 10 observations\n"


@pytest.mark.parametrize("kind", ["graph", "data"])
def test_file_starting_with_a_byte_order_mark_is_read_without_it(files, tmp_path, kind):
    source = files / ("graph.json" if kind == "graph" else "data.csv")
    marked = tmp_path / source.name
    marked.write_text("\ufeff" + source.read_text(encoding="utf-8"), encoding="utf-8")
    paths = {"graph": files / "graph.json", "data": files / "data.csv", kind: marked}
    code, _, stderr = call(
        ["fit", "--graph", paths["graph"], "--data", paths["data"], "--out", tmp_path / "model.json"]
    )
    assert code == 0, stderr
    assert (tmp_path / "model.json").read_bytes() == (files / "model.json").read_bytes()


@pytest.mark.parametrize(
    ("argv", "bad"),
    [
        (["fit", "--graph", "{bad}", "--data", "{files}/data.csv"], "graph.json"),
        (["fit", "--graph", "{files}/graph.json", "--data", "{bad}"], "data.csv"),
        (["counterfactual", "--model", "{files}/model.json", "--data", "{bad}", "--set", "K=lo"], "row.csv"),
    ],
    ids=["graph", "data", "row"],
)
def test_graph_data_or_row_file_that_is_not_utf8_exits_2(files, tmp_path, argv, bad):
    path = tmp_path / bad
    path.write_bytes(b'{"nodes":["\xff"],"edges":[]}' if bad.endswith(".json") else b"a,b\n\xff,1\n")
    code, stdout, stderr = call([arg.format(files=files, bad=path) for arg in argv])
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"gcm {argv[0]}: error: {path} is not UTF-8 text: 'utf-8' codec can't decode")


def test_model_file_that_is_not_utf8_exits_2(tmp_path):
    (tmp_path / "model.json").write_bytes(b"\xff\xfe{}")
    code, stdout, stderr = call(["sample", "--model", tmp_path / "model.json", "-n", "3"])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("gcm sample: error: corrupt model payload: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("C,X,Y,K,Z\n", "expected a single-row CSV, got 0 rows"),
        ("C,X,Y,K,Z\nb,0.3,2.5,hi,6.0\na,0.1,2.0,lo,5.0\n", "expected a single-row CSV, got 2 rows"),
        ("C,X,Y,K,Z\nb,0.3,2.5,hi\n", "ragged row 1: expected 5 cells, got 4"),
        ("C,X,Y,K,Z\nb,,2.5,hi,6.0\n", "missing value in column 'X', row 1"),
        ("", "empty CSV input"),
    ],
)
def test_malformed_row_file_exits_2(files, tmp_path, text, message):
    (tmp_path / "row.csv").write_text(text)
    code, stdout, stderr = call(
        ["counterfactual", "--model", files / "model.json", "--data", tmp_path / "row.csv", "--set", "X=1"]
    )
    assert (code, stdout) == (2, "")
    assert message in stderr


@pytest.mark.parametrize("cell", ["a" * 140_000, "1" * 140_001], ids=["categorical", "numeric"])
@pytest.mark.parametrize("command", ["fit", "counterfactual"])
def test_cell_over_the_csv_field_limit_exits_2(files, tmp_path, command, cell):
    (tmp_path / "big.csv").write_text(f"C,X,Y,K,Z\nb,0.3,2.5,hi,{cell}\n")
    inputs = (
        ["--graph", files / "graph.json"] if command == "fit" else ["--model", files / "model.json"]
    )
    code, stdout, stderr = call([command, *inputs, "--data", tmp_path / "big.csv"])
    assert (code, stdout) == (2, "")
    assert stderr.splitlines() == [
        f"gcm {command}: error: CSV line 2: field larger than field limit (131072)"
    ]


@pytest.mark.parametrize(
    "edges",
    [[["C", "Y", "Z"]], [["C"]], "CY", [[["C"], "Y"]], [["Y", "C"], ["X", "Y"], ["X", "K"], ["Y", "Z"]]],
    ids=["three-names", "one-name", "string", "nested-name", "root-reversed"],
)
def test_model_file_with_malformed_graph_edges_exits_2(files, edges):
    payload = json.loads((files / "model.json").read_text())
    payload["graph"]["edges"] = edges
    (files / "bad_model.json").write_text(json.dumps(payload))
    code, stdout, stderr = call(["evaluate", "--model", files / "bad_model.json", "--data", files / "data.csv"])
    assert code == 2, stderr
    assert stdout == ""


def test_fit_of_a_classifier_that_cannot_converge_exits_3(tmp_path):
    """K's parent is scaled by 1e150, so its gradient cannot reach the
    solver's tolerance: the fit exits 3, names K and writes no model file."""
    (tmp_path / "graph.json").write_text('{"nodes":["X","K"],"edges":[["X","K"]]}')
    (tmp_path / "data.csv").write_text(gk.write_csv(classifier_data(60, 0, scale=1e150)))
    out = tmp_path / "model.json"
    code, stdout, stderr = call(
        ["fit", "--graph", tmp_path / "graph.json", "--data", tmp_path / "data.csv", "--out", out]
    )
    assert code == 3, stderr
    assert stdout == ""
    assert stderr.startswith("gcm fit: numeric failure: fitting node 'K' failed: no convergence")
    assert "Traceback" not in stderr
    assert not out.exists()


def test_fit_of_a_linear_mechanism_that_overflows_exits_3(tmp_path):
    """Six rows of X and Y near 1e200 overflow the least-squares Gram matrix:
    a fresh ``gcm fit`` exits 3 with one stderr line that names Y, and writes
    no model file."""
    rng = np.random.default_rng(0)
    x = 1e200 * rng.standard_normal(6)
    (tmp_path / "graph.json").write_text('{"nodes":["X","Y"],"edges":[["X","Y"]]}')
    (tmp_path / "data.csv").write_text(gk.write_csv(gk.Dataset(["X", "Y"], [x, 2 * x + 1e200 * rng.standard_normal(6)])))
    out = tmp_path / "model.json"
    result = subprocess.run(
        [sys.executable, "-m", "gcmkit", "fit", "--graph", str(tmp_path / "graph.json"),
         "--data", str(tmp_path / "data.csv"), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line == "gcm fit: numeric failure: fitting node 'Y' failed: the least-squares coefficients are not finite"
    assert not out.exists()


@pytest.fixture(scope="module")
def steep_line(tmp_path_factory):
    """A model of Y = 2X + noise, so a shift of X by 1e308 takes Y past the
    largest double."""
    root = tmp_path_factory.mktemp("steep")
    rng = np.random.default_rng(4)
    x = rng.standard_normal(60)
    (root / "graph.json").write_text('{"nodes":["X","Y"],"edges":[["X","Y"]]}')
    (root / "data.csv").write_text(gk.write_csv(gk.Dataset(["X", "Y"], [x, 2 * x + 0.1 * rng.standard_normal(60)])))
    (root / "row.csv").write_text("X,Y\n0.3,0.5\n")
    (root / "far.csv").write_text("X,Y\n0.3,1e200\n")
    code, _, stderr = call(
        ["fit", "--graph", root / "graph.json", "--data", root / "data.csv", "--out", root / "model.json"]
    )
    assert code == 0, stderr
    return root


OVERFLOWING = pytest.mark.parametrize(
    "argv",
    [
        ["counterfactual", "--model", "model.json", "--data", "row.csv", "--shift", "X=1e308"],
        ["evaluate", "--model", "model.json", "--data", "far.csv"],
    ],
    ids=["counterfactual", "evaluate"],
)


@OVERFLOWING
def test_non_finite_result_exits_3(steep_line, argv):
    """An overflowing answer (Y, or an rmse, at inf) is a numeric failure:
    stdout stays empty rather than hold a non-strict ``Infinity``."""
    command = argv[0]
    code, stdout, stderr = call([steep_line / a if a.endswith((".csv", ".json")) else a for a in argv])
    assert code == 3, stderr
    assert stdout == ""
    assert stderr.startswith(f"gcm {command}: numeric failure: the result is not finite")
    assert "Traceback" not in stderr


@OVERFLOWING
def test_overflow_prints_only_the_numeric_failure_line(steep_line, argv):
    """A fresh ``gcm`` process, under Python's default warning filters, prints
    no numpy ``RuntimeWarning`` (with its source line) before the exit-3
    message."""
    result = subprocess.run(
        [sys.executable, "-m", "gcmkit", *[str(steep_line / a) if a.endswith((".csv", ".json")) else a for a in argv]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"gcm {argv[0]}: numeric failure: the result is not finite")


@pytest.fixture(scope="module")
def steep_chain(tmp_path_factory):
    """A linear chain Y = 2X + noise, Z = 2Y + noise, so a value of 1e308 at
    X or Y takes its child past the largest double."""
    root = tmp_path_factory.mktemp("steep_chain")
    rng = np.random.default_rng(4)
    x = rng.standard_normal(60)
    y = 2 * x + 0.1 * rng.standard_normal(60)
    z = 2 * y + 0.1 * rng.standard_normal(60)
    (root / "chain.json").write_text(CHAIN)
    (root / "data.csv").write_text(gk.write_csv(gk.Dataset(["X", "Y", "Z"], [x, y, z])))
    code, _, stderr = call(
        ["fit", "--graph", root / "chain.json", "--data", root / "data.csv", "--out", root / "model.json"]
    )
    assert code == 0, stderr
    return root


@pytest.mark.parametrize(
    ("argv", "node"),
    [
        (["intervene", "--set", "X=1e308", "--target", "Z", "-n", "10"], "Y"),
        (["intervene", "--set", "Y=1e308", "--target", "Z", "-n", "10"], "Z"),
        (["ace", "--treatment", "X", "--value-a", "1e308", "--value-b", "0", "--target", "Z", "-n", "10"], "Y"),
    ],
    ids=["intervene-X", "intervene-Y", "ace"],
)
def test_overflow_inside_a_propagation_exits_3(steep_chain, argv, node):
    """A child pushed past the largest double is a numeric failure that names
    the node, not an input error raised when its own child reads it."""
    code, stdout, stderr = call([argv[0], "--model", steep_chain / "model.json", *argv[1:]])
    assert code == 3, stderr
    assert stdout == ""
    assert stderr == f"gcm {argv[0]}: numeric failure: the result is not finite: node {node!r} has non-finite values\n"


def test_linalg_error_exits_3(files, monkeypatch):
    """numpy's ``LinAlgError`` is a numeric failure, though the CLI imports
    numpy only inside its handlers."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sampling, "draw_samples", singular)
    code, stdout, stderr = call(["sample", "--model", files / "model.json", "-n", 10])
    assert code == 3, stderr
    assert stdout == ""
    assert stderr == "gcm sample: numeric failure: Singular matrix\n"


SUBCOMMANDS = [
    "fit", "sample", "intervene", "counterfactual", "ace", "attribute-outlier",
    "attribute-change", "icc", "arrow-strength", "discover", "refute", "evaluate", "test",
]


budgets = st.integers(min_value=-3, max_value=12)
cells = st.sampled_from(MALFORMED_CELLS)


@st.composite
def invocations(draw, root):
    """One subcommand with small or out-of-range budgets and possibly a bad cell."""
    data = root / "data.csv"
    if draw(st.booleans()):
        column = draw(st.integers(0, len(NODES) - 1))
        data = root / "bad.csv"
        data.write_text(with_cell((root / "data.csv").read_text(), draw(st.integers(0, 5)),
                                  column, draw(cells)))
    row = root / "probe_row.csv"
    row_cells = ["b", "0.3", "2.5", "hi", "6.0"]
    if draw(st.booleans()):
        row_cells[draw(st.integers(0, len(NODES) - 1))] = draw(cells)
    row.write_text("C,X,Y,K,Z\n" + ",".join(row_cells) + "\n")
    model, graph = root / "model.json", root / "graph.json"
    node = st.sampled_from(NODES)
    value = st.sampled_from(["0", "1.5", "a", "hi", "nan", "inf", "abc"])
    command = draw(st.sampled_from(SUBCOMMANDS))
    if command == "fit":
        return ["fit", "--graph", graph, "--data", data]
    if command == "sample":
        return ["sample", "--model", model, "-n", draw(budgets)]
    if command == "intervene":
        flag = draw(st.sampled_from(["--set", "--shift"]))
        return ["intervene", "--model", model, flag, f"{draw(node)}={draw(value)}",
                "--target", draw(node), "-n", draw(budgets)]
    if command == "counterfactual":
        return ["counterfactual", "--model", model, "--data", row,
                "--set", f"{draw(node)}={draw(value)}", "--set", "K=lo"]
    if command == "ace":
        return ["ace", "--model", model, "--treatment", draw(node), "--value-a", draw(value),
                "--value-b", draw(value), "--target", draw(node), "-n", draw(budgets)]
    if command == "attribute-outlier":
        return ["attribute-outlier", "--model", model, "--data", row, "--target", draw(node),
                "--num-samples", draw(budgets)]
    if command == "attribute-change":
        return ["attribute-change", "--graph", graph, "--old", root / "data.csv", "--new", data,
                "--target", draw(node), "--num-samples", draw(budgets),
                "--measure", draw(st.sampled_from(["kl", "mean_diff"]))]
    if command == "icc":
        return ["icc", "--model", model, "--target", draw(node),
                "--outer-samples", draw(budgets), "--inner-samples", draw(budgets)]
    if command == "arrow-strength":
        edge = draw(st.sampled_from(["C->Y", "X->Y", "X->K", "Y->Z", "Z->Y", "->"]))
        return ["arrow-strength", "--model", model, "--edge", edge, "-n", draw(budgets),
                "--measure", draw(st.sampled_from(["auto", "coupled_msd", "kl"]))]
    alpha = draw(st.sampled_from(["0.05", "0", "1", "-1", "2", "nan", "inf"]))
    if command == "discover":
        return ["discover", "--data", data, "--alpha", alpha, "--max-cond-set", draw(budgets)]
    if command == "refute":
        return ["refute", "--graph", graph, "--data", data, "--alpha", alpha]
    if command == "evaluate":
        return ["evaluate", "--model", model, "--data", data]
    return ["test", "--data", data, "--x", draw(node), "--y", draw(node),
            "--method", draw(st.sampled_from(["auto", "dcor", "fisherz"])),
            "--permutations", draw(budgets)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_subcommand_keeps_the_exit_code_and_json_contract(files, data):
    argv = data.draw(invocations(files))
    code, stdout, _ = call(argv)
    assert_contract(code, stdout)


# Each command that reads a graph, data or row file, by the file it reads
# last; the file's drawn bytes are its last argument.
RAW_FILE_COMMANDS = {
    "graph.json": [["fit", "--data", "data.csv", "--graph"]],
    "chain.json": [["refute", "--data", "cont.csv", "--graph"]],
    "data.csv": [["fit", "--graph", "graph.json", "--data"], ["evaluate", "--model", "model.json", "--data"],
                 ["test", "--x", "X", "--y", "Z", "--permutations", "5", "--data"]],
    "row.csv": [["counterfactual", "--model", "model.json", "--set", "X=1.5", "--set", "K=lo", "--data"],
                ["attribute-outlier", "--model", "model.json", "--target", "Z", "--num-samples", "20",
                 "--data"]],
}


@st.composite
def raw_file_invocations(draw, root):
    """A command whose graph, data or row file holds drawn bytes: arbitrary
    ones, or raw bytes spliced into a valid file."""
    name = draw(st.sampled_from(sorted(RAW_FILE_COMMANDS)))
    valid = (root / name).read_bytes()
    start = draw(st.integers(0, len(valid)))
    end = draw(st.integers(start, min(start + 8, len(valid))))
    content = draw(st.one_of(st.binary(max_size=40), st.binary(min_size=1, max_size=6).map(
        lambda raw: valid[:start] + raw + valid[end:])))
    path = root / f"raw_{name}"
    path.write_bytes(content)
    command = draw(st.sampled_from(RAW_FILE_COMMANDS[name]))
    return [root / arg if arg.endswith((".csv", ".json")) else arg for arg in command] + [path], content


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_file_reading_subcommand_keeps_the_contract_on_raw_bytes(files, data):
    argv, content = data.draw(raw_file_invocations(files))
    code, stdout, stderr = call(argv)
    assert_contract(code, stdout)
    assert code != 1 and "Traceback" not in stderr
    try:
        content.decode("utf-8")
    except UnicodeDecodeError:
        assert (code, stdout) == (2, "")
        # Python's utf-8-sig file reader reads a file that holds only the
        # first one or two bytes of a byte-order mark as empty.
        if content not in (b"\xef", b"\xef\xbb"):
            assert f"{argv[-1]} is not UTF-8 text" in stderr


def _linear(*coefficients):
    return {"type": "linear", "coefficients": list(coefficients), "intercept": 0.0}


CONTINUOUS_SPEC = {"kind": "continuous"}


@pytest.mark.parametrize(
    "edits",
    [
        [(["Y", "encoding"], [CONTINUOUS_SPEC, CONTINUOUS_SPEC]), (["Y", "prediction"], _linear(1.0, 1.0))],
        [(["K", "encoding"], [CONTINUOUS_SPEC, CONTINUOUS_SPEC]), (["K", "weights"], [[1.0, -1.0], [0.0, 0.0], [0.5, -0.5]])],
        [(["K", "categories"], []), (["K", "weights"], [[], []])],
        [(["K", "categories"], ["hi", "hi"])],
        [(["Y", "encoding", 0, "categories"], ["a", "a"]), (["Y", "prediction"], _linear(1.0, 0.0, 1.0))],
        [(["Y", "encoding", 0, "categories"], []), (["Y", "prediction"], _linear(1.0))],
    ],
    ids=[
        "continuous-spec-for-a-categorical-parent",
        "more-specs-than-parents",
        "no-classifier-categories",
        "repeated-classifier-categories",
        "repeated-encoding-categories",
        "no-encoding-categories",
    ],
)
def test_model_file_whose_mechanisms_disagree_with_its_graph_exits_2(files, tmp_path, edits):
    # The mixed model's Y encodes the categorical C, then X; K encodes X.
    # Each edit keeps the prediction's or weights' width equal to the encoding's.
    payload = json.loads((files / "model.json").read_text())
    for path, value in edits:
        set_path(payload["mechanisms"], path, value)
    (tmp_path / "bad_model.json").write_text(json.dumps(payload))
    code, stdout, stderr = call(["sample", "--model", tmp_path / "bad_model.json", "-n", "50"])
    assert code == 2, stderr
    assert stdout == ""
    assert "corrupt model payload: " in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("edge, measure", [("X->Y", "coupled_msd"), ("X->K", "kl")])
def test_arrow_strength_reports_the_measure_that_ran(files, edge, measure):
    argv = ["arrow-strength", "--model", files / "model.json", "--edge", edge, "-n", "50"]
    code, stdout, stderr = call(argv)
    assert code == 0, stderr
    assert json.loads(stdout)["measure"] == measure
    assert call([*argv, "--measure", measure]) == (0, stdout, "")


def test_attribute_change_ignores_nodes_that_cannot_move_the_target(tmp_path):
    # Q, a child of X with 100 categories, is no ancestor of Z, so it is not
    # fitted, and more categories than a fit takes do not matter.
    rng = np.random.default_rng(6)
    labels = np.array([f"q{i:02d}" for i in range(100)] * 2, dtype=object)
    for name, shift in (("old.csv", 0.0), ("new.csv", 1.0)):
        x = rng.standard_normal(200)
        y = x + shift + rng.standard_normal(200)
        z = y + rng.standard_normal(200)
        (tmp_path / name).write_text(gk.write_csv(gk.Dataset(["X", "Q", "Y", "Z"], [x, labels, y, z])))
    (tmp_path / "chain.json").write_text(CHAIN)
    (tmp_path / "wider.json").write_text(
        '{"nodes":["X","Q","Y","Z"],"edges":[["X","Y"],["X","Q"],["Y","Z"]]}'
    )
    outputs = []
    for graph in ("chain.json", "wider.json"):
        code, stdout, stderr = call(
            ["attribute-change", "--graph", tmp_path / graph, "--old", tmp_path / "old.csv",
             "--new", tmp_path / "new.csv", "--target", "Z", "--num-samples", "50"]
        )
        assert code == 0, stderr
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def _knn_chain_payload():
    """Model file payload of a chain X -> Y -> Z: a kNN Y and a linear Z."""
    encoder = gk.InputEncoder.continuous(1)
    inputs = np.linspace(-2.0, 2.0, 12)[:, None]
    mechanisms = {
        "X": gk.Gaussian(0.0, 1.0),
        "Y": gk.AdditiveNoiseModel(
            gk.KnnRegressor(3, inputs, np.sin(inputs[:, 0])), gk.Gaussian(0.0, 0.1), encoder
        ),
        "Z": gk.AdditiveNoiseModel(gk.LinearModel([1.5], 0.0), gk.Gaussian(0.0, 1.0), encoder),
    }
    model = gk.GcmModel(gk.parse_graph(CHAIN))
    for node, mechanism in mechanisms.items():
        model = gk.assign(model, node, mechanism, ground_truth=True)
    return json.loads(gk.dumps_model(model))


def _wider_knn_inputs(payload):
    prediction = payload["mechanisms"]["Y"]["prediction"]
    prediction["inputs"] = [row + [0.0] for row in prediction["inputs"]]


def _shorter_knn_targets(payload):
    prediction = payload["mechanisms"]["Y"]["prediction"]
    prediction["targets"] = prediction["targets"][:-5]


def _nan_knn_input(payload):
    payload["mechanisms"]["Y"]["prediction"]["inputs"][4] = [float("nan")]


def _two_linear_coefficients(payload):
    payload["mechanisms"]["Z"]["prediction"]["coefficients"] = [1.5, 0.5]


@pytest.mark.parametrize(
    "corrupt",
    [_wider_knn_inputs, _shorter_knn_targets, _nan_knn_input, _two_linear_coefficients],
    ids=lambda corrupt: corrupt.__name__.strip("_"),
)
def test_model_file_with_misshapen_prediction_exits_2(tmp_path, corrupt):
    payload = _knn_chain_payload()
    (tmp_path / "model.json").write_text(json.dumps(payload))
    assert call(["sample", "--model", tmp_path / "model.json", "-n", "5"])[0] == 0
    corrupt(payload)
    (tmp_path / "bad_model.json").write_text(json.dumps(payload))
    code, stdout, stderr = call(["sample", "--model", tmp_path / "bad_model.json", "-n", "5"])
    assert code == 2, stderr
    assert stdout == ""
    assert "corrupt mechanism payload" in stderr


@pytest.mark.parametrize(
    "source, path, value",
    [
        ("mixed", ["K", "weights", 0, 0], float("nan")),
        ("mixed", ["K", "weights", -1, -1], float("inf")),
        ("chain", ["Z", "prediction", "intercept"], float("nan")),
        ("chain", ["Y", "prediction", "offset"], float("inf")),
        ("chain", ["Y", "prediction", "k"], 2.7),
        ("chain", ["Y", "prediction", "k"], True),
        ("mixed", ["Y", "encoding", 0, "kind"], "weird"),
    ],
    ids=["nan-weight", "inf-weight", "nan-intercept", "inf-offset", "fractional-k", "boolean-k", "weird-kind"],
)
def test_model_file_with_a_value_no_fit_writes_exits_2(files, tmp_path, source, path, value):
    # The mixed model's Y encodes the categorical C first, then X.
    payload = json.loads((files / "model.json").read_text()) if source == "mixed" else _knn_chain_payload()
    set_path(payload["mechanisms"], path, value)
    (tmp_path / "bad_model.json").write_text(json.dumps(payload))
    code, stdout, stderr = call(["sample", "--model", tmp_path / "bad_model.json", "-n", "5"])
    assert code == 2, stderr
    assert stdout == ""
    assert "corrupt mechanism payload" in stderr
