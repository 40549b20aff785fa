"""Golden report digests: solving must keep producing byte-identical reports.

Each case runs the `dualcut solve --out` path in process (parse the instance
text, run the approximation with an advice script, encode the report) and
compares the SHA-256 of `report_to_json` with `golden_digests.json`, which
was frozen from the reference implementation. A speed change that alters
any selection, cut or advisor choice shows up here as a digest mismatch.

To regenerate the fixture (only for a deliberate report-format or algorithm
change, to be recorded in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

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
    report_to_json,
    write_instance,
)
from dualcut.report import report_to_dict

FIXTURE = Path(__file__).with_name("golden_digests.json")

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


def _digest(problem: str, text: str, script) -> str:
    report = _solve(problem, text, script)
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


def _all_digests() -> dict[str, str]:
    return {
        name: _digest(problem, text, script)
        for name, problem, text, script in _cases()
    }


def test_reports_match_golden_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = _all_digests()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"report digests changed: {changed}"


def test_reports_encode_as_json_dumps_would():
    # `report_to_json` writes its indented text itself; json.dumps is the
    # reference it must match byte for byte.
    for name, problem, text, script in _cases():
        report = _solve(problem, text, script)
        expected = json.dumps(report_to_dict(report), indent=2) + "\n"
        assert report_to_json(report) == expected, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_digests.py --regenerate")
    FIXTURE.write_text(json.dumps(_all_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
