"""Golden report digests: solving must keep producing the same reports.

Each case runs the `dualcut solve --out` path in process (parse the instance
text, run the approximation with an advice script, encode the report) and
compares SHA-256 digests with two fixtures. Both fixtures were frozen when
reports were written as `json.dumps(report_to_dict(r), indent=2)`; the
encoder now writes compact JSON, so each digest is taken over the indented
view of what it writes, `json.dumps(json.loads(text), indent=2) + "\n"`,
which is byte-identical to the old text exactly when the content, key order
and values are unchanged. Neither fixture was rewritten for the layout.

- `golden_digests.json`, frozen from the reference implementation, pins the
  report written with every cut as its full side (format 1, which had no
  complement form): each complemented cut is expanded before encoding. A
  speed change that alters any selection, cut or advisor choice shows up
  here as a digest mismatch.
- `golden_digests_complement.json` pins the reports `report_to_json`
  writes today, each cut stored by its smaller half.

To regenerate the second fixture (only for a deliberate report-format or
algorithm change, to be recorded in CHANGES.md; the first is never
rewritten):

    PYTHONPATH=src python tests/test_golden_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from dualcut import (
    ScriptedAdvisor,
    approx_2ecs,
    approx_dpa,
    approx_ssc,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
    parse_instance,
    report_from_json,
    report_to_json,
    verify_run,
    write_instance,
)
from dualcut.report import report_to_dict
from reference import expanded_report

FIXTURE = Path(__file__).with_name("golden_digests.json")
COMPLEMENT_FIXTURE = Path(__file__).with_name("golden_digests_complement.json")

SOLVERS = {"ssc": approx_ssc, "dpa": approx_dpa, "2ecs": approx_2ecs}


def _cases():
    """(name, solver flag, instance text, advice script) for every case."""
    for k in range(1, 21):
        gi = gen_ssc_tight(k)
        yield f"tk-k{k}", "ssc", write_instance(gi.instance, "mscs"), list(gi.advice)
    for k in range(1, 41):
        gi = gen_dpa_tight(k)
        yield f"gk-k{k}", "dpa", write_instance(gi.instance, "mscs"), list(gi.advice)
    rng = random.Random(20261017)
    # (name, file kind, solver flag, generator, leading generator arguments)
    kinds = (
        ("ssc", "ssc", "ssc", gen_random_ssc, (1.0, 3)),
        ("mscs", "mscs", "ssc", gen_random_ssc, (1.0, 1)),
        ("bidirected", "ssc", "dpa", gen_random_bidirected, (0.8, 3)),
        ("dpa", "dpa", "dpa", gen_random_dpa, (0.4,)),
        ("2ecs", "2ecs", "2ecs", gen_random_2ecs, (0.7,)),
    )
    for n in (3, 5, 8, 12, 20, 40, 80, 160):
        for name, kind, problem, gen, extra in kinds:
            gi = gen(n, *extra, rng.randrange(2**31))
            text = write_instance(gi.instance, kind)
            yield f"{name}-n{n}-default", problem, text, []
            script = [rng.randrange(8) for _ in range(24)]
            yield f"{name}-n{n}-scripted", problem, text, script


def _solve(problem: str, text: str, script):
    _kind, instance = parse_instance(text)
    return SOLVERS[problem](instance, ScriptedAdvisor(script))


def _indented(report) -> str:
    """The report's text in the indented layout the fixtures were frozen in."""
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _digest(report) -> str:
    """SHA-256 of the indented view of what `report_to_json` writes."""
    text = json.dumps(json.loads(report_to_json(report)), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _solved():
    """(name, instance text, report) for every case."""
    return [
        (name, text, _solve(problem, text, script))
        for name, problem, text, script in _cases()
    ]


@pytest.fixture(scope="module")
def solved():
    return _solved()


def _complement_digests(solved) -> dict[str, str]:
    return {name: _digest(report) for name, _text, report in solved}


def _assert_digests(actual: dict[str, str], fixture: Path) -> None:
    expected = json.loads(fixture.read_text())
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"report digests changed: {changed}"


def test_reports_match_golden_digests(solved):
    _assert_digests(
        {
            name: _digest(expanded_report(report))
            for name, _text, report in solved
        },
        FIXTURE,
    )


def test_reports_match_complement_form_digests(solved):
    _assert_digests(_complement_digests(solved), COMPLEMENT_FIXTURE)
    # The fixture pins reports that use the complement form.
    assert any(
        c.complement for _name, _text, report in solved for c in report.certificate.cuts
    )


def test_format_1_reports_still_verify(solved):
    # Reports written before the compact layout are indented, and those
    # written before the complement form list every cut as its full side.
    # Each layout decodes to its report and passes the same check.
    for name, text, report in solved:
        kind, instance = parse_instance(text)
        for old in (report, expanded_report(report)):
            decoded = report_from_json(_indented(old))
            assert decoded == old, name
            assert verify_run(kind, instance, decoded) == [], name


def test_reports_encode_as_json_dumps_would(solved):
    # `report_to_json` writes one line of compact JSON holding exactly
    # `report_to_dict`'s data.
    for name, _text, report in solved:
        text = report_to_json(report)
        assert text == json.dumps(report_to_dict(report), separators=(",", ":")) + "\n", name
        assert text.count("\n") == 1 and text.endswith("\n"), name
        assert json.loads(text) == report_to_dict(report), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_digests.py --regenerate")
    digests = _complement_digests(_solved())
    COMPLEMENT_FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {COMPLEMENT_FIXTURE}")
