"""End-to-end tests of the command-line interface (exit codes and output)."""

import json
from fractions import Fraction

import pytest

import dualcut.report as report_module
from dualcut.certificates import DualCertificate
from dualcut.cli import main
from test_report import UNEMITTED_EDITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gk1(tmp_path, capsys):
    path = tmp_path / "gk1.txt"
    code, out, _ = run(capsys, "gen", "gk", "--k", "1", "--out", str(path))
    assert code == 0
    assert "expected: algorithm cost 6, optimum 5" in out
    return path


def test_gen_solve_verify_gap_pipeline(gk1, tmp_path, capsys):
    report_path = tmp_path / "run.json"
    code, out, _ = run(
        capsys,
        "solve", "--problem", "ssc", "--input", str(gk1),
        "--advice", str(gk1) + ".advice", "--out", str(report_path),
    )
    assert code == 0
    assert "cost: 6" in out and "problem: ssc" in out
    data = json.loads(report_path.read_text())
    assert data["cost"] == 6

    code, out, _ = run(
        capsys, "verify", "--input", str(gk1), "--report", str(report_path)
    )
    assert code == 0 and "report verified" in out

    code, out, _ = run(
        capsys,
        "gap", "--problem", "ssc", "--input", str(gk1),
        "--advice", str(gk1) + ".advice",
    )
    assert code == 0
    assert "gap: 6/5 ≈ 1.2000" in out


def test_random_files_record_their_generator(gk1, tmp_path, capsys):
    # Random files carry reproducibility metadata; deterministic families
    # don't need it.  The comment must not disturb parsing.
    path = tmp_path / "r.txt"
    code, _, _ = run(
        capsys, "gen", "random-ssc", "--n", "5", "--seed", "9", "--out", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert "# generator: random-ssc n=5 seed=9 prng=mersenne-twister" in text
    assert "# generator:" not in gk1.read_text()

    again = tmp_path / "r2.txt"
    run(capsys, "gen", "random-ssc", "--n", "5", "--seed", "9", "--out", str(again))
    assert again.read_text() == text

    code, _, _ = run(capsys, "solve", "--problem", "ssc", "--input", str(path))
    assert code == 0


def test_same_instance_through_the_bidirected_solver(gk1, capsys):
    code, out, _ = run(
        capsys,
        "gap", "--problem", "dpa", "--input", str(gk1),
        "--advice", str(gk1) + ".advice",
    )
    assert code == 0
    assert "gap: 6/5 ≈ 1.2000" in out


@pytest.mark.parametrize("family", ["random-ssc", "random-bidirected", "random-2ecs"])
@pytest.mark.parametrize("factor", ["inf", "-inf", "nan", "-1"])
def test_gen_rejects_an_unusable_extra_factor(family, factor, tmp_path, capsys):
    path = tmp_path / "r.txt"
    code, out, err = run(
        capsys, "gen", family, "--n", "5", f"--extra-factor={factor}", "--out", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: extra factor must be finite and >= 0")
    assert not path.exists()


@pytest.mark.parametrize("prob", ["1.5", "-0.1", "nan", "inf"])
def test_gen_rejects_an_unusable_zero_cost_prob(prob, tmp_path, capsys):
    path = tmp_path / "r.txt"
    code, out, err = run(
        capsys, "gen", "random-dpa", "--n", "5", f"--zero-cost-prob={prob}", "--out", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: zero-cost probability must be in [0, 1]")
    assert not path.exists()


@pytest.mark.parametrize("prob", ["0", "1"])
def test_gen_accepts_a_zero_cost_prob_at_either_end(prob, tmp_path, capsys):
    path = tmp_path / "r.txt"
    code, _, _ = run(
        capsys, "gen", "random-dpa", "--n", "5", f"--zero-cost-prob={prob}", "--out", str(path)
    )
    assert code == 0 and path.exists()
    code, _, _ = run(capsys, "solve", "--problem", "dpa", "--input", str(path))
    assert code == 0


def test_general_family_gap_is_unreduced(tmp_path, capsys):
    path = tmp_path / "tk2.txt"
    code, _, _ = run(capsys, "gen", "tk", "--k", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run(
        capsys,
        "gap", "--problem", "ssc", "--input", str(path),
        "--advice", str(path) + ".advice",
    )
    assert code == 0
    # 18/12 reduces to 3/2; the printout must keep the raw integers.
    assert "gap: 18/12 ≈ 1.5000" in out


@pytest.mark.parametrize(
    "problem, text",
    [("ssc", "p ssc 1 0\n"), ("2ecs", "p 2ecs 1 0\n"), ("dpa", "p dpa 2 1\ne 1 2 0\n")],
    ids=["ssc", "2ecs", "dpa"],
)
def test_gap_of_a_zero_optimum_is_one(problem, text, tmp_path, capsys):
    # The ratio follows the report's rule: 1 when the optimum is 0.
    path = tmp_path / "zero.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "gap", "--problem", problem, "--input", str(path))
    assert code == 0
    assert "cost: 0\noptimum: 0\ngap: 0/0 ≈ 1.0000\n" in out


def test_edge_problem_pipeline(tmp_path, capsys):
    path = tmp_path / "e.txt"
    report_path = tmp_path / "e.json"
    code, _, _ = run(
        capsys, "gen", "random-2ecs", "--n", "6", "--seed", "5", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "solve", "--problem", "2ecs", "--input", str(path),
        "--out", str(report_path),
    )
    assert code == 0 and "selected edges:" in out
    code, out, _ = run(
        capsys, "verify", "--input", str(path), "--report", str(report_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "exact", "--problem", "2ecs", "--input", str(path))
    assert code == 0 and "optimum:" in out


def test_power_problem_pipeline(tmp_path, capsys):
    path = tmp_path / "d.txt"
    code, _, _ = run(
        capsys, "gen", "random-dpa", "--n", "5", "--seed", "3", "--out", str(path)
    )
    assert code == 0
    report_path = tmp_path / "d.json"
    code, out, _ = run(
        capsys,
        "solve", "--problem", "dpa", "--input", str(path),
        "--out", str(report_path),
    )
    assert code == 0 and "selected power:" in out and "selected stars:" in out
    code, _, _ = run(
        capsys, "verify", "--input", str(path), "--report", str(report_path)
    )
    assert code == 0
    # No witness comment in random files: gap falls back to the exact search.
    code, out, _ = run(capsys, "gap", "--problem", "dpa", "--input", str(path))
    assert code == 0 and "gap:" in out


def test_problem_kind_gating(gk1, tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--problem", "2ecs", "--input", str(gk1))
    assert code == 2 and "cannot consume" in err

    ssc_path = tmp_path / "s.txt"
    run(capsys, "gen", "tk", "--k", "1", "--out", str(ssc_path))
    code, _, err = run(capsys, "solve", "--problem", "dpa", "--input", str(ssc_path))
    assert code == 2 and "bidirected" in err

    code, _, _ = run(capsys, "solve", "--problem", "mscs", "--input", str(gk1))
    assert code == 0

    dpa_path = tmp_path / "d.txt"
    run(capsys, "gen", "random-dpa", "--n", "4", "--seed", "1", "--out", str(dpa_path))
    code, _, err = run(capsys, "solve", "--problem", "ssc", "--input", str(dpa_path))
    assert code == 2


def test_verify_rejects_tampering(gk1, tmp_path, capsys):
    report_path = tmp_path / "r.json"
    run(
        capsys,
        "solve", "--problem", "ssc", "--input", str(gk1),
        "--advice", str(gk1) + ".advice", "--out", str(report_path),
    )
    data = json.loads(report_path.read_text())
    data["cost"] -= 1
    report_path.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--input", str(gk1), "--report", str(report_path)
    )
    assert code == 1
    assert any(line.startswith("FAIL:") for line in out.splitlines())


def test_verify_rejects_malformed_report(gk1, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": "ssc"}')
    code, out, _ = run(capsys, "verify", "--input", str(gk1), "--report", str(bad))
    assert code == 1 and "malformed report" in out


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000 + "]" * 200_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
    ids=["lists", "objects"],
)
def test_verify_fails_cleanly_on_deeply_nested_reports(gk1, tmp_path, capsys, text):
    # json.loads raises RecursionError here; verify must still report FAIL.
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    code, out, _ = run(capsys, "verify", "--input", str(gk1), "--report", str(bad))
    assert code == 1
    assert out == "FAIL: malformed report: report nests too deeply to decode\n"


def test_parse_and_usage_errors(tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("p ssc 2 1\ns 1 5 2\n")
    code, _, err = run(capsys, "solve", "--problem", "ssc", "--input", str(broken))
    assert code == 2 and "line 2" in err

    code, _, _ = run(capsys, "solve", "--problem", "ssc", "--input", str(tmp_path / "nope.txt"))
    assert code == 2

    code, _, _ = run(capsys, "frobnicate")
    assert code == 2

    code, _, err = run(capsys, "gen", "gk", "--k", "0", "--out", str(tmp_path / "x.txt"))
    assert code == 2 and "k must be" in err


@pytest.mark.parametrize(
    "problem, text, line, message",
    [
        ("ssc", "p ssc 3 1\ns 1 1 5\n", 2, "star 0: sink 5 out of range"),
        ("mscs", "p mscs 2 2\na 1 2\na 1 1\n", 3, "star 1: source 1 among sinks"),
        ("dpa", "p dpa 2 2\ne 1 2 1\ne 1 2 0\n", 3, "duplicate edge (1,2)"),
        ("dpa", "p dpa 2 2\ne 1 2 1\ne 2 1 1\n", 3, "duplicate edge (2,1)"),
        ("dpa", "p dpa 2 1\ne 1 2 5\n", 2, "edge (1,2): cost must be 0 or 1, got 5"),
        ("2ecs", "p 2ecs 2 2\ne 1 2\ne 1 3\n", 3, "edge {1,3} out of range 1..2"),
    ],
    ids=["ssc-sink", "mscs-loop", "dpa-duplicate", "dpa-reversed", "dpa-cost", "2ecs-range"],
)
@pytest.mark.parametrize("command", ["solve", "verify", "exact", "gap"])
def test_rejected_records_exit_two_with_their_line(
    tmp_path, capsys, command, problem, text, line, message
):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    if command == "verify":
        args = ("--report", str(tmp_path / "report.json"))
    else:
        args = ("--problem", problem)
    code, out, err = run(capsys, command, "--input", str(path), *args)
    assert code == 2 and out == ""
    assert err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize(
    "command, bad_file",
    [
        ("solve", "input"),
        ("exact", "input"),
        ("verify", "input"),
        ("gap", "input"),
        ("solve", "advice"),
        ("gap", "advice"),
    ],
)
def test_undecodable_input_files_exit_two(gk1, tmp_path, capsys, command, bad_file):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p ssc 2 2\xff\n" if bad_file == "input" else b"0 \xff 1\n")
    instance = bad if bad_file == "input" else gk1
    args = ["--input", str(instance)]
    if command == "verify":
        args += ["--report", str(tmp_path / "report.json")]
    else:
        args += ["--problem", "ssc"]
    if bad_file == "advice":
        args += ["--advice", str(bad)]
    code, out, err = run(capsys, command, *args)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and "0xff" in err
    assert err.count("\n") == 1


def test_undecodable_report_fails_verification(gk1, tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_bytes(b'{"problem": "\xff"}')
    code, out, _ = run(capsys, "verify", "--input", str(gk1), "--report", str(bad))
    assert code == 1 and out.startswith("FAIL: malformed report: ")


def test_infeasible_instance_exits_one(tmp_path, capsys):
    oneway = tmp_path / "oneway.txt"
    oneway.write_text("p mscs 2 1\na 1 2\n")
    code, _, err = run(capsys, "solve", "--problem", "mscs", "--input", str(oneway))
    assert code == 1 and "infeasible" in err.lower()


def test_exact_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "big.txt"
    run(capsys, "gen", "gk", "--k", "10", "--out", str(path))
    code, _, err = run(
        capsys,
        "exact", "--problem", "ssc", "--input", str(path), "--limit", "5",
    )
    assert code == 2 and "limit" in err


def _solved(capsys, family, k, tmp_path):
    """Generate a tight instance, solve it with its advice; return paths."""
    inst, report = tmp_path / f"{family}{k}.txt", tmp_path / f"{family}{k}.json"
    run(capsys, "gen", family, "--k", str(k), "--out", str(inst))
    code, _, _ = run(
        capsys, "solve", "--problem", "ssc", "--input", str(inst),
        "--advice", str(inst) + ".advice", "--out", str(report),
    )
    assert code == 0
    return inst, report


def _verify_fails(capsys, inst, report_path, data):
    report_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--report", str(report_path))
    assert code == 1
    assert out.splitlines() and all(line.startswith("FAIL:") for line in out.splitlines())
    return out


def test_verify_rejects_fractional_cut_vertices(tmp_path, capsys):
    # No star crosses a cut {1.5}, so each such cut would add 1 to the dual
    # objective for free: here a best bound of 20 against an optimum of 17.
    inst, report_path = _solved(capsys, "tk", 3, tmp_path)
    data = json.loads(report_path.read_text())
    big = [rec for rec in data["iterations"] if rec["kind"] == "big-one-cut"]
    for rec, alien in zip(big, ([1.5], [2.5], [3.5]), strict=False):
        rec["cuts"].append(alien)
        data["certificate"]["cuts"].append(alien)
    assert len(big) >= 3
    n, dual = data["n"], len(data["certificate"]["cuts"])
    best = max(n, dual)
    convex = Fraction(3, 4) * (n - 1) + Fraction(dual, 4)
    data["bounds"] = {
        "dual_objective": dual,
        "n_bound": n,
        "best": best,
        "convex_bound": f"{convex.numerator}/{convex.denominator}",
    }
    data["ratio_vs_best"] = f"{data['cost']}/{best}"
    assert best == 20 and "# opt-witness:" in inst.read_text()
    _verify_fails(capsys, inst, report_path, data)


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _rekey_histogram(data, rename):
    data["histogram"] = {rename(k): v for k, v in data["histogram"].items()}


def _scaled_ratio(text, factor):
    p, q = map(int, text.split("/"))
    return f"{p * factor}/{q * factor}"


def _decimal(text):
    decimal = str(float(Fraction(text)))
    assert Fraction(decimal) == Fraction(text)  # same value, other text
    return decimal


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["selected"].__setitem__(0, str(d["selected"][0])),
        lambda d: d.__setitem__("n", str(d["n"])),
        lambda d: d.__setitem__("cost", str(d["cost"])),
        lambda d: d["bounds"].__setitem__("dual_objective", str(d["bounds"]["dual_objective"])),
        lambda d: d.__setitem__("ratio_vs_best", "1/0"),
        lambda d: d.__setitem__("histogram", list(d["histogram"].values())),
        lambda d: d.__setitem__("problem", [d["problem"]]),
        lambda d: d["certificate"]["cuts"][0].append([1]),
        # Text that decodes to the right value, but that the encoder never
        # writes: keys are `str(int)`, ratios are 'p/q' in lowest terms.
        lambda d: _rekey_histogram(d, lambda k: "0_" + k),
        lambda d: _rekey_histogram(d, lambda k: f" {k} "),
        lambda d: _rekey_histogram(d, lambda k: k.translate(ARABIC_INDIC_DIGITS)),
        lambda d: d.__setitem__("ratio_vs_best", _scaled_ratio(d["ratio_vs_best"], 2)),
        lambda d: d["bounds"].__setitem__("convex_bound", _decimal(d["bounds"]["convex_bound"])),
    ],
    ids=[
        "string-star-id",
        "string-n",
        "string-cost",
        "string-dual-objective",
        "zero-denominator",
        "list-histogram",
        "list-problem",
        "list-cut-vertex",
        "underscored-histogram-key",
        "padded-histogram-key",
        "arabic-indic-histogram-key",
        "unreduced-ratio",
        "decimal-convex-bound",
    ],
)
def test_verify_fails_cleanly_on_type_confused_reports(gk1, tmp_path, capsys, mutate):
    report_path = tmp_path / "r.json"
    run(
        capsys,
        "solve", "--problem", "ssc", "--input", str(gk1),
        "--advice", str(gk1) + ".advice", "--out", str(report_path),
    )
    data = json.loads(report_path.read_text())
    mutate(data)
    _verify_fails(capsys, gk1, report_path, data)


@pytest.mark.parametrize("edit", UNEMITTED_EDITS)
def test_verify_fails_on_report_forms_the_encoder_never_writes(tmp_path, capsys, edit):
    inst, report_path = tmp_path / "r.txt", tmp_path / "r.json"
    run(
        capsys, "gen", "random-ssc", "--n", "12", "--seed", "5",
        "--extra-factor", "1.0", "--fan", "2", "--out", str(inst),
    )
    code, _, _ = run(capsys, "solve", "--problem", "ssc", "--input", str(inst), "--out", str(report_path))
    assert code == 0
    data = json.loads(report_path.read_text())
    mutate, finding = UNEMITTED_EDITS[edit]
    mutate(data)
    assert f"FAIL: {finding}" in _verify_fails(capsys, inst, report_path, data)


def test_solve_exits_one_when_its_report_fails_verification(gk1, capsys, monkeypatch):
    # Stand-in for a faulty algorithm: every cut reaches the certificate
    # twice, so some star crosses two of its cuts.
    monkeypatch.setattr(
        report_module,
        "DualCertificate",
        lambda problem, cuts: DualCertificate(problem, tuple(cuts) * 2),
    )
    code, out, err = run(capsys, "solve", "--problem", "ssc", "--input", str(gk1))
    assert code == 1 and out == ""
    assert any(line.startswith("FAIL: certificate infeasible") for line in err.splitlines())


@pytest.mark.parametrize(
    "field, value, finding",
    [
        ("kind", [1], "malformed report: iteration kind"),
        ("selection_kind", [], "malformed report: selection_kind"),
        ("kind", "cycle", "no ssc run has kind 'cycle'"),
        ("kind", "perfect", "no ssc run has kind 'perfect'"),
        ("selection_kind", "power", "selection kind 'power' does not fit"),
        ("selection_kind", "edges", "selection kind 'edges' does not fit"),
    ],
    ids=["list-kind", "list-selection-kind", "cycle-kind", "perfect-kind", "power-selection", "edges-selection"],
)
def test_verify_rejects_labels_foreign_to_the_run(gk1, tmp_path, capsys, field, value, finding):
    report_path = tmp_path / "r.json"
    run(
        capsys,
        "solve", "--problem", "ssc", "--input", str(gk1),
        "--advice", str(gk1) + ".advice", "--out", str(report_path),
    )
    data = json.loads(report_path.read_text())
    if field == "kind":
        data["iterations"][0]["kind"] = value
    else:
        data[field] = value
    assert finding in _verify_fails(capsys, gk1, report_path, data)
