"""Seeded instance sets for the two benchmark workloads.

Each workload is a list of `Case`s: instance file text (as `dualcut gen`
writes it), the advice file text, and the `--problem` flag to solve it with.
The solver only ever sees the text; everything else is for the checks.

Why these workloads:

* ``large`` -- two regimes of large instances in one run:
  - the `tk` (ssc) and `gk` (bidirected, dpa) tight families with their
    shipped advice: many rounds, each contracting a tiny perfect set, with
    lifted cuts covering up to about n/2 vertices. Stresses perfect-set
    contraction, per-round digraph rebuilds, certificate checks and report
    encoding; the only cases that replay an advice script of the
    generator's own. These families are fixed; the seed shuffles their order.
  - seeded random-ssc (fan 3), random-bidirected and random-2ecs at 100 to
    350 vertices with the default advisor: few rounds, each contracting a
    huge perfect set, so augmentation and star lookups dominate. The only
    large runs of the 2ecs algorithm and multigraph contraction.
  The two regimes share one workload so that each run can be long: the
  machine's speed shifts in episodes of tens of seconds, and a case's
  fastest time over a long run is the one that shifts least.
* ``small-batch`` -- many small instances (n in 6..30) of all four tags, half
  of them with a random advice script, as in the acceptance suite: fixed
  per-call costs (instance set-up, dpa conversion, digests, report assembly,
  JSON) dominate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from dualcut import generators
from dualcut.io import witness_comment, write_advice, write_instance

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps the
# same shape at sizes that run in well under a second (smoke test). Each
# random family gets `random_per_size` instances per size over an evenly
# spaced range: one instance's cost and report size vary by a factor of two
# or more from seed to seed, so totals need many of them to be steady, and
# the slope is fitted over many sizes. The tight families run at many small
# k rather than a few large ones: shorter cases get more timed samples in a
# run, and set-up, whose generators run the solver, stays short.
SIZES = {
    "full": {
        "tk": (8, 12, 16, 20, 24, 28, 32, 36, 40),
        "gk": (16, 24, 32, 40, 48, 56, 64, 72, 80),
        "random": (100, 150, 200, 250, 300, 350),
        "random_per_size": 4,
        "small-batch": 1000,
    },
    "tiny": {
        "tk": (2, 4),
        "gk": (3, 6),
        "random": (30, 60),
        "random_per_size": 1,
        "small-batch": 48,
    },
}

SMALL_N = (6, 30)


@dataclass(frozen=True)
class Case:
    name: str  # unique within a workload
    family: str  # instances of one family share a fitted scaling curve
    problem: str  # the solver flag: ssc, dpa or 2ecs
    n: int
    text: str  # instance file text
    advice: str  # advice file text; "" means the default advisor
    expected_cost: int | None = None  # known algorithm cost (tight families)


def build(workload: str, seed: int, scale: str = "full") -> tuple[list[Case], float]:
    """Generate a workload's cases; also returns the seconds spent inside
    the `dualcut.generators` calls alone."""
    sizes = SIZES[scale]
    if workload == "large":
        tight, tight_s = _tight(sizes, seed)
        rand, rand_s = _random(sizes, seed)
        return tight + rand, tight_s + rand_s
    if workload == "small-batch":
        return _small_batch(sizes, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _timed(fn, *args):
    start = time.perf_counter()
    gi = fn(*args)
    return gi, time.perf_counter() - start


def _tight(sizes, seed: int) -> tuple[list[Case], float]:
    cases, gen_s = [], 0.0
    families = (
        ("tk", "ssc", generators.gen_ssc_tight, sizes["tk"]),
        ("gk", "dpa", generators.gen_dpa_tight, sizes["gk"]),
    )
    for family, problem, gen, ks in families:
        for k in ks:
            gi, spent = _timed(gen, k)
            gen_s += spent
            text = write_instance(gi.instance, "mscs") + witness_comment(gi.opt_witness)
            cases.append(
                Case(
                    f"{family}-k{k}",
                    family,
                    problem,
                    gi.instance.vertex_count,
                    text,
                    write_advice(gi.advice),
                    gi.expected.alg_cost,
                )
            )
    random.Random(seed).shuffle(cases)
    return cases, gen_s


def _random(sizes, seed: int) -> tuple[list[Case], float]:
    rng = random.Random(seed)
    cases, gen_s = [], 0.0
    specs = (
        ("random-ssc", "ssc", "ssc", generators.gen_random_ssc, (1.0, 3)),
        ("random-bidirected", "ssc", "dpa", generators.gen_random_bidirected, (0.8, 3)),
        ("random-2ecs", "2ecs", "2ecs", generators.gen_random_2ecs, (0.7,)),
    )
    for n in sizes["random"]:
        for j in range(sizes["random_per_size"]):
            for family, kind, problem, gen, extra in specs:
                gi, spent = _timed(gen, n, *extra, rng.randrange(2**31))
                gen_s += spent
                text = write_instance(gi.instance, kind)
                cases.append(Case(f"{family}-n{n}-{j}", family, problem, n, text, ""))
    return cases, gen_s


def _small_batch(sizes, seed: int) -> tuple[list[Case], float]:
    rng = random.Random(seed)
    cases, gen_s = [], 0.0
    # (tag, file kind, solver flag, generator, leading generator arguments)
    tags = (
        ("2ecs", "2ecs", "2ecs", generators.gen_random_2ecs, (0.7,)),
        ("mscs", "mscs", "ssc", generators.gen_random_ssc, (1.0, 1)),
        ("dpa", "dpa", "dpa", generators.gen_random_dpa, (0.4,)),
        ("ssc", "ssc", "ssc", generators.gen_random_ssc, (1.0, 3)),
    )
    for i in range(sizes["small-batch"]):
        tag, kind, problem, gen, extra = tags[i % len(tags)]
        n = rng.randint(*SMALL_N)
        gi, spent = _timed(gen, n, *extra, rng.randrange(2**31))
        gen_s += spent
        advice = ""
        if rng.random() < 0.5:
            advice = write_advice([rng.randrange(8) for _ in range(16)])
        text = write_instance(gi.instance, kind)
        cases.append(Case(f"{tag}-{i:05d}", tag, problem, n, text, advice))
    return cases, gen_s
