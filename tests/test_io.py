"""Tests for the instance/advice text formats."""

import tracemalloc

import pytest

from dualcut import (
    DPAInstance,
    InfeasibleInstanceError,
    Multigraph,
    ParseError,
    SSCInstance,
    Star,
    TwoECSInstance,
    extract_witness,
    gen_random_2ecs,
    gen_random_dpa,
    gen_random_ssc,
    instance_digest,
    mscs_to_ssc,
    natural_kind,
    parse_advice,
    parse_instance,
    witness_comment,
    write_advice,
    write_instance,
)


def roundtrip(instance, kind=None):
    text = write_instance(instance, kind)
    parsed_kind, parsed = parse_instance(text)
    return text, parsed_kind, parsed


def test_star_roundtrip():
    inst = gen_random_ssc(6, 1.0, 3, seed=4).instance
    text, kind, parsed = roundtrip(inst)
    assert kind == "ssc"
    assert parsed.vertex_count == inst.vertex_count
    assert parsed.stars == inst.stars
    assert write_instance(parsed) == text


def test_singleton_star_roundtrip_as_arcs():
    kind, inst = parse_instance("p mscs 2 3\na 1 2\na 1 2\na 2 1\n")
    assert kind == "mscs"
    # Duplicate arc lines stay distinct stars.
    assert len(inst.stars) == 3 and inst.stars[0].sinks == inst.stars[1].sinks
    text, kind2, parsed = roundtrip(inst, "mscs")
    assert kind2 == "mscs" and parsed.stars == inst.stars
    assert text.splitlines()[0] == "p mscs 2 3"


def test_power_roundtrip():
    inst = gen_random_dpa(6, 0.4, seed=4).instance
    text, kind, parsed = roundtrip(inst)
    assert kind == "dpa" and parsed.edges == inst.edges


def test_multigraph_roundtrip_keeps_parallels():
    inst = TwoECSInstance(Multigraph(3, [(1, 2), (1, 2), (2, 3), (3, 1)]))
    text, kind, parsed = roundtrip(inst)
    assert kind == "2ecs"
    assert sorted(parsed.graph.edges) == sorted(
        (min(u, v), max(u, v)) for u, v in inst.graph.edges
    )
    r = gen_random_2ecs(6, 0.7, seed=9).instance
    _, _, back = roundtrip(r)
    assert sorted(back.graph.edges) == sorted(
        (min(u, v), max(u, v)) for u, v in r.graph.edges
    )


def test_comments_and_blank_lines_ignored():
    text = """
# a comment line
p mscs 2 2   # trailing note

a 1 2
  # indented comment
a 2 1
"""
    kind, inst = parse_instance(text)
    assert kind == "mscs" and inst.vertex_count == 2 and len(inst.stars) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e1:
        parse_instance("")
    assert e1.value.line is None
    with pytest.raises(ParseError) as e2:
        parse_instance("p nope 3 0\n")
    assert e2.value.line == 1
    with pytest.raises(ParseError) as e3:
        parse_instance("p mscs 2 2\na 1 2\n")
    assert e3.value.line == 1  # record count mismatch reported at the header
    with pytest.raises(ParseError) as e4:
        parse_instance("p mscs 2 2\na 1 2\ns 2 1 1\n")
    assert e4.value.line == 3
    with pytest.raises(ParseError) as e5:
        parse_instance("p ssc 2 1\ns 1 2 2\n")
    assert e5.value.line == 2  # fan disagrees with the sink list
    with pytest.raises(ParseError) as e6:
        parse_instance("p dpa 2 1\ne 1 two 0\n")
    assert e6.value.line == 2
    with pytest.raises(ParseError) as e7:
        parse_instance("p 2ecs 2 1\ne 1 2 9\n")
    assert e7.value.line == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p ssc 3 2\ns 2 1 1\n# note\n\ns 1 1 5\n", 5, "star 1: sink 5 out of range"),
        ("p ssc 3 1\ns 4 1 1\n", 2, "star 0: source 4 out of range"),
        ("p mscs 2 2\na 1 2\n\na 1 1\n", 4, "star 1: source 1 among sinks"),
        ("p dpa 2 2\ne 1 2 1\n# dup\ne 1 2 0\n", 4, "duplicate edge (1,2)"),
        ("p dpa 2 2\ne 1 2 1\ne 2 1 1\n", 3, "duplicate edge (2,1)"),
        ("p dpa 2 1\ne 1 2 2\n", 2, "edge (1,2): cost must be 0 or 1, got 2"),
        ("p dpa 3 1\ne 3 3 0\n", 2, "self-loop edge at vertex 3"),
        ("p 2ecs 2 3\ne 1 2\ne 1 2\n e 2 3 # third\n", 4, "edge {2,3} out of range 1..2"),
        ("p 2ecs 2 1\ne 2 2\n", 2, "self-loop edge at vertex 2"),
        ("\np ssc 0 0\n", 2, "vertex count must be >= 1, got 0"),
    ],
    ids=[
        "ssc-sink", "ssc-source", "mscs-loop", "dpa-duplicate", "dpa-reversed",
        "dpa-cost", "dpa-loop", "2ecs-range", "2ecs-loop", "no-vertices",
    ],
)
def test_rejected_records_raise_parse_errors_at_their_line(text, line, message):
    # The constructors raise ValueError; parsing names the offending line.
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p ssc 1000000 0\n", "union of all stars is not strongly connected"),
        ("p mscs 1000000 1\na 1 2\n", "union of all stars is not strongly connected"),
        (
            "p dpa 1000000 0\n",
            "even with every vertex at high power the graph is not strongly connected",
        ),
        ("p 2ecs 1000000 0\n", "input multigraph is not 2-edge-connected"),
    ],
    ids=["ssc", "mscs", "dpa", "2ecs"],
)
def test_too_few_records_for_the_declared_vertices_fail_in_little_memory(text, message):
    # n >= 2 vertices need n stars, n edges (2ecs) or n - 1 edges (dpa); a
    # shorter file is infeasible before anything is allocated per vertex.
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(InfeasibleInstanceError) as info:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 1 << 20


def test_natural_kind_and_digest_stability():
    inst = mscs_to_ssc(2, [(1, 2), (2, 1)])
    assert natural_kind(inst) == "ssc"
    d1 = instance_digest(inst)
    # The digest is tied to the instance, not the file kind it traveled in.
    _, _, via_mscs = roundtrip(inst, "mscs")
    _, _, via_ssc = roundtrip(inst, "ssc")
    assert instance_digest(via_mscs) == instance_digest(via_ssc) == d1
    with pytest.raises(TypeError):
        natural_kind("nope")


def test_kind_mismatch_write_errors():
    star = SSCInstance(2, (Star(0, 1, frozenset((2,))), Star(1, 2, frozenset((1,)))))
    with pytest.raises(TypeError):
        write_instance(star, "dpa")
    fat = SSCInstance(3, (
        Star(0, 1, frozenset((2, 3))),
        Star(1, 2, frozenset((1,))),
        Star(2, 3, frozenset((1,))),
    ))
    with pytest.raises(ValueError):
        write_instance(fat, "mscs")  # fat stars cannot be arc lines
    with pytest.raises(ValueError):
        write_instance(star, "wat")


def test_advice_roundtrip():
    script = [11, 1, 0, 4]
    text = write_advice(script)
    assert parse_advice(text) == script
    assert parse_advice("# note\n11 1\n0 4\n") == script
    with pytest.raises(ParseError):
        parse_advice("11 x\n")


def test_witness_comment_roundtrip():
    line = witness_comment({4, 0, 2})
    assert line == "# opt-witness: 0 2 4\n"
    body = write_instance(mscs_to_ssc(2, [(1, 2), (2, 1)]))
    assert extract_witness(body + line) == (0, 2, 4)
    assert extract_witness(body) is None
