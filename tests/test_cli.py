"""End-to-end tests of the command-line interface (exit codes and output)."""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dualcut
import dualcut.report as report_module
from dualcut import (
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
    parse_instance,
)
from dualcut.certificates import DualCertificate
from dualcut.cli import main
from dualcut.io import witness_comment, write_instance
from test_report import (
    HOSTILE_CUT_LISTS,
    UNEMITTED_EDITS,
    UNSORTED_EDITS,
    _with_first_cut,
)


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


@pytest.mark.parametrize(
    "family, flag, values",
    [
        ("random-ssc", "--fan", ("1", "3")),
        ("random-ssc", "--extra-factor", ("0.5", "2")),
        ("random-bidirected", "--fan", ("1", "3")),
        ("random-bidirected", "--extra-factor", ("0.25", "1.5")),
        ("random-dpa", "--zero-cost-prob", ("0", "0.7")),
        ("random-2ecs", "--extra-factor", ("0.1", "1")),
    ],
)
def test_generator_line_names_every_flag_given(family, flag, values, tmp_path, capsys):
    texts = []
    for i, value in enumerate(values):
        path = tmp_path / f"r{i}.txt"
        argv = ["gen", family, "--n", "9", "--seed", "4", flag, value, "--out", str(path)]
        assert run(capsys, *argv)[0] == 0
        texts.append(path.read_text())
    lines = [text.rsplit("# generator:", 1)[1] for text in texts]
    assert lines[0] != lines[1]
    for text, line in zip(texts, lines):
        # The line's `key=value` words, as flags, write the same file again.
        name, *words = line.split()
        pairs = [w.split("=", 1) for w in words if "=" in w and not w.startswith("prng=")]
        flags = [part for key, value in pairs for part in (f"--{key}", value)]
        again = tmp_path / "again.txt"
        assert run(capsys, "gen", name, *flags, "--out", str(again))[0] == 0
        assert again.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "family, generate, kind",
    [
        ("random-ssc", gen_random_ssc, "ssc"),
        ("random-bidirected", gen_random_bidirected, "ssc"),
        ("random-dpa", gen_random_dpa, "dpa"),
        ("random-2ecs", gen_random_2ecs, "2ecs"),
    ],
)
def test_gen_without_options_keeps_the_generator_defaults(family, generate, kind, tmp_path, capsys):
    path = tmp_path / "r.txt"
    code, _, _ = run(capsys, "gen", family, "--n", "9", "--seed", "4", "--out", str(path))
    assert code == 0
    instance_text, generator_line = path.read_text().rsplit("# generator:", 1)
    assert instance_text == write_instance(generate(9, seed=4).instance, kind)
    assert generator_line.startswith(f" {family} n=9 seed=4 ")


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


def _cap_memory():
    # A generator that grows without bound fails here, not on the host.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("family", ["random-ssc", "random-bidirected", "random-2ecs"])
@pytest.mark.parametrize("factor", ["1e300", "1e308"])
def test_gen_returns_at_once_for_a_huge_extra_factor(family, factor, tmp_path):
    # random-ssc and random-bidirected stop drawing once every arc or pair
    # is taken; random-2ecs, whose parallel edges never run out, refuses a
    # count above its bound. 1e308 * n overflows a float.
    path = tmp_path / "r.txt"
    script = (
        "import sys, time\n"
        "from dualcut.cli import main\n"
        "started = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print('timing', code, time.perf_counter() - started)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dualcut.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, "gen", family, "--n", "6",
         f"--extra-factor={factor}", "--out", str(path)],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_cap_memory,
    )
    _, code, seconds = done.stdout.splitlines()[-1].split()
    assert float(seconds) < 1.0
    if family == "random-2ecs":
        assert code == "2" and not path.exists()
        assert done.stderr.startswith("error: random-2ecs adds at most 1000000 extra edges")
        return
    assert code == "0"
    _, inst = parse_instance(path.read_text())
    arcs = {(st.source, t) for st in inst.stars for t in st.sinks}
    assert len(arcs) == 6 * 5  # every arc, or both arcs of every pair


def test_gen_help_states_the_extra_edge_bound(capsys):
    code, out, _ = run(capsys, "gen", "--help")
    assert code == 0
    assert "random-2ecs accepts at most 1000000 extra edges" in " ".join(out.split())


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


@pytest.mark.parametrize("family, gen", [("tk", gen_ssc_tight), ("gk", gen_dpa_tight)])
def test_tight_family_files_end_with_their_witness_line(family, gen, tmp_path, capsys):
    path = tmp_path / f"{family}2.txt"
    code, _, _ = run(capsys, "gen", family, "--k", "2", "--out", str(path))
    assert code == 0
    gi = gen(2)
    # One newline ends the witness line: no empty line follows it.
    want = write_instance(gi.instance, "mscs") + witness_comment(gi.opt_witness)
    assert path.read_text() == want


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
        # Two bad records: the first in file order is named.
        ("ssc", "p ssc 3 2\ns 1 1 5\ns 2 1 2\n", 2, "star 0: sink 5 out of range"),
        ("ssc", "p ssc 2 2\ns 3 1 1\ns 2 1 1\n", 2, "star 0: source 3 out of range"),
        ("ssc", "p ssc 2 2\ns 1 1 2\ns 2 2 1 2\n", 3, "star 1: source 2 among sinks"),
        ("mscs", "p mscs 2 2\na 1 2\na 1 1\n", 3, "star 1: source 1 among sinks"),
        ("dpa", "p dpa 2 2\ne 1 2 1\ne 1 2 0\n", 3, "duplicate edge (1,2)"),
        ("dpa", "p dpa 2 2\ne 1 2 1\ne 2 1 1\n", 3, "duplicate edge (2,1)"),
        ("dpa", "p dpa 2 1\ne 1 2 5\n", 2, "edge (1,2): cost must be 0 or 1, got 5"),
        ("2ecs", "p 2ecs 2 2\ne 1 2\ne 1 3\n", 3, "edge {1,3} out of range 1..2"),
    ],
    ids=[
        "ssc-sink", "ssc-first-of-two", "ssc-source", "ssc-source-in-sinks",
        "mscs-loop", "dpa-duplicate", "dpa-reversed", "dpa-cost", "2ecs-range",
    ],
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


def _solved_random_ssc(capsys, tmp_path):
    """The report of the random-ssc instance the report tests edit."""
    inst, report_path = tmp_path / "r.txt", tmp_path / "r.json"
    run(
        capsys, "gen", "random-ssc", "--n", "12", "--seed", "5",
        "--extra-factor", "1.0", "--fan", "2", "--out", str(inst),
    )
    code, _, _ = run(capsys, "solve", "--problem", "ssc", "--input", str(inst), "--out", str(report_path))
    assert code == 0
    return inst, report_path, json.loads(report_path.read_text())


@pytest.mark.parametrize("edit", UNEMITTED_EDITS)
def test_verify_fails_on_report_forms_the_encoder_never_writes(tmp_path, capsys, edit):
    inst, report_path, data = _solved_random_ssc(capsys, tmp_path)
    mutate, finding = UNEMITTED_EDITS[edit]
    mutate(data)
    assert f"FAIL: {finding}" in _verify_fails(capsys, inst, report_path, data)


@pytest.mark.parametrize("edit", UNSORTED_EDITS)
def test_verify_fails_on_lists_out_of_order(tmp_path, capsys, edit):
    inst, report_path, data = _solved_random_ssc(capsys, tmp_path)
    mutate, field = UNSORTED_EDITS[edit]
    mutate(data)
    out = _verify_fails(capsys, inst, report_path, data)
    assert out == f"FAIL: malformed report: {field} must be strictly ascending\n"


def test_verify_stops_at_a_report_of_another_instance_type(tmp_path, capsys):
    ecs, ssc, report_path = tmp_path / "e.txt", tmp_path / "s.txt", tmp_path / "e.json"
    run(capsys, "gen", "random-2ecs", "--n", "12", "--seed", "3", "--out", str(ecs))
    run(capsys, "gen", "random-ssc", "--n", "12", "--seed", "3", "--out", str(ssc))
    assert run(capsys, "solve", "--problem", "2ecs", "--input", str(ecs), "--out", str(report_path))[0] == 0
    out = _verify_fails(capsys, ssc, report_path, json.loads(report_path.read_text()))
    assert out.splitlines() == [
        "FAIL: instance digest does not match the report",
        "FAIL: a 2ecs report cannot belong to a ssc instance",
    ]


@pytest.mark.parametrize("name", HOSTILE_CUT_LISTS)
def test_verify_fails_on_hostile_cut_lists(tmp_path, capsys, name):
    inst, report_path, data = _solved_random_ssc(capsys, tmp_path)
    _with_first_cut(data, HOSTILE_CUT_LISTS[name])
    assert "FAIL: certificate check failed" in _verify_fails(capsys, inst, report_path, data)


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
        ("selection_kind", "power", "selection_kind differs from its derivation"),
        ("selection_kind", "edges", "selection_kind differs from its derivation"),
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


FIXTURES = Path(__file__).parent / "fixtures"


def _solve_and_verify(capsys, tmp_path, problem, inst):
    """Solve `inst` with its advice file, if it has one, and verify the
    report; returns the report's path."""
    report = tmp_path / "run.json"
    args = ["solve", "--problem", problem, "--input", str(inst), "--out", str(report)]
    advice = Path(f"{inst}.advice")
    if advice.exists():
        args += ["--advice", str(advice)]
    assert run(capsys, *args)[0] == 0
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--report", str(report))
    assert code == 0 and "report verified" in out
    return report


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("ssc_*.txt")), ids=lambda path: path.stem
)
def test_shipped_ssc_fixtures_solve_and_verify_with_their_advice(fixture, tmp_path, capsys):
    _solve_and_verify(capsys, tmp_path, "ssc", fixture)


def _cost_raised(data):
    data["cost"] += 1


def _complemented_cut_flipped(data):
    # A cut list [0, v, ...] is every vertex but v, ...: dropping the 0
    # turns the first complemented certificate cut into its other half.
    next(c for c in data["certificate"]["cuts"] if c[:1] == [0]).pop(0)


def _cut_0_as_cut_1(data):
    cuts = data["certificate"]["cuts"]
    cuts[0] = cuts[1]


TK2, GK2 = ("tk", "--k", "2"), ("gk", "--k", "2")
POWER, EDGES = ("random-dpa", "--n", "12", "--seed", "3"), ("random-2ecs", "--n", "40", "--seed", "3")

# Instance (`gen` arguments or a shipped fixture), solver, and an edit that
# spoils the report: one run of each solver path, ssc, dpa on star and on
# power files, and 2ecs.
TAMPERED_RUNS = {
    "tk-cost": (TK2, "ssc", _cost_raised),
    "tk-complemented-cut": (TK2, "ssc", _complemented_cut_flipped),
    "gk-dpa-cost": (GK2, "dpa", _cost_raised),
    "fixture-dropped-star": (FIXTURES / "ssc_long-leg-only.txt", "ssc", lambda d: d["selected"].pop()),
    "power-dropped-star": (POWER, "dpa", lambda d: d["selected_stars"].pop()),
    "power-star-kind": (POWER, "dpa", lambda d: d.__setitem__("selection_kind", "stars")),
    "2ecs-cost": (EDGES, "2ecs", _cost_raised),
    "2ecs-cut-0-as-cut-1": (EDGES, "2ecs", _cut_0_as_cut_1),
}


@pytest.mark.parametrize("name", TAMPERED_RUNS)
def test_each_solver_path_verifies_its_report_and_fails_a_tampered_one(name, tmp_path, capsys):
    source, problem, tamper = TAMPERED_RUNS[name]
    if isinstance(source, Path):
        inst = source
    else:
        inst = tmp_path / "inst.txt"
        assert run(capsys, "gen", *source, "--out", str(inst))[0] == 0
    report = _solve_and_verify(capsys, tmp_path, problem, inst)
    data = json.loads(report.read_text())
    tamper(data)
    _verify_fails(capsys, inst, report, data)


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_bad_star_after_a_good_one_exits_two_with_its_line(command, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p ssc 3 3\ns 1 1 2\ns 2 1 5\ns 3 1 1\n")
    args = ("--report", str(tmp_path / "r.json")) if command == "verify" else ("--problem", "ssc")
    code, out, err = run(capsys, command, "--input", str(path), *args)
    assert (code, out, err) == (2, "", "error: line 3: star 1: sink 5 out of range\n")
