"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import arith  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED_MODULES, Tracer  # noqa: E402

latmac = run.import_latmac()


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_of_nested_and_recursive_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    ns = {}

    def hnf():
        clock.tick(1)

    def colon():
        clock.tick(2)
        ns["hnf"]()
        clock.tick(3)

    def is_equivalent(depth):
        clock.tick(4)
        ns["colon"]()
        if depth:
            ns["is_equivalent"](depth - 1)
        clock.tick(5)

    for name, fn in (("exactla.hnf", hnf), ("ideal.colon", colon),
                     ("ideal.is_equivalent", is_equivalent)):
        ns[name.split(".")[1]] = tracer.wrap(name, fn)
    ns["is_equivalent"](1)

    s = tracer.summary()
    assert s["exactla.hnf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert s["ideal.colon"] == {"calls": 2, "total_s": 12.0, "self_s": 10.0}
    # outer call: 4 + colon 6 + inner 15 + 5 = 30; inner: 4 + colon 6 + 5
    assert s["ideal.is_equivalent"] == {"calls": 2, "total_s": 45.0, "self_s": 18.0}
    assert tracer.root_time() == 30.0
    assert sum(row["self_s"] for row in s.values()) == 30.0


def test_refine_and_observe_hooks():
    tracer = Tracer(FakeClock())
    f = tracer.wrap("m.f", lambda x: [0] * x,
                    refine=lambda args: f"m.f.{'big' if args[0] > 2 else 'small'}",
                    observe=lambda name, res: {f"{name}.items": len(res)})
    f(1)
    f(5)
    f(7)
    s = tracer.summary()
    assert s["m.f.small"]["calls"] == 1 and s["m.f.big"]["calls"] == 2
    assert tracer.counts["m.f.big.items"] == 12


SAMPLE_JOBS = [
    workloads.poly_job("classify", (1, 0, 14)),
    workloads.poly_job("icm", (1, 0, -10)),
    workloads.poly_job("icm", (1, 0, -2, 3)),
    workloads.Job("pell", "pell 13", ["--format", "json", "pell", "--d", "13"],
                  info={"d": 13}),
    workloads.oracle_job((1, 0, 5), 6),
    *islice(workloads.stream("conjugate", 3), 6),
]


def _traced_pass(jobs):
    tracer = Tracer()
    tracer.install([getattr(latmac, m) for m in TRACED_MODULES],
                   refine={"ideal.is_equivalent": run.refine_is_equivalent},
                   observe={"ideal.is_equivalent": run.observe_status})
    try:
        start = tracer.clock()
        outputs = [run.execute(latmac, job) for job in jobs]
        wall = tracer.clock() - start
    finally:
        tracer.uninstall()
    return tracer, outputs, wall


def test_wrapping_keeps_outputs_byte_identical():
    plain = [run.execute(latmac, job) for job in SAMPLE_JOBS]
    main = latmac.cli.main
    tracer, traced, _ = _traced_pass(SAMPLE_JOBS)
    assert traced == plain
    assert latmac.cli.main is main  # uninstall restored the originals
    names = set(tracer.summary())
    for name in ("cli.main", "ideal.class_monoid", "exactla.hnf",
                 "order.FieldElement.mul", "latimer.oracle_count_classes",
                 "quadratic.solve_pell4", "ideal.is_equivalent.search"):
        assert name in names, name
    assert not any(n.startswith("surface.") for n in names)


def test_self_times_and_outside_time_add_up_to_wall():
    tracer, _, wall = _traced_pass(SAMPLE_JOBS[:3])
    self_total = sum(row["self_s"] for row in tracer.summary().values())
    outside = wall - tracer.root_time()
    assert outside >= 0
    assert self_total + outside == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_streams_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a = [j.key for j in islice(workloads.stream(w, 7), 30)]
        assert a == [j.key for j in islice(workloads.stream(w, 7), 30)]
        assert a != [j.key for j in islice(workloads.stream(w, 8), 30)]


def test_quad_imag_repeats_follow_their_first_request():
    jobs = list(islice(workloads.stream("quad-imag", 1), 220))
    seen = set()
    for job in jobs:
        if job.repeat:
            assert job.key in seen
        seen.add(job.key)
    share = sum(j.repeat for j in jobs) / len(jobs)
    assert 0.2 < share < 0.3


def test_checks_catch_wrong_outputs():
    job = workloads.poly_job("classify", (1, 0, 14))
    code, text = run.execute(latmac, job)
    assert checks.check(job, code, text) == []
    doc = json.loads(text)
    doc["classes"][0]["matrix"]["rows"][0][0] = "7"
    assert checks.check(job, code, json.dumps(doc))
    assert checks.check(job, 2, text)  # exit 2 without unknowns

    a = ((0, -5), (1, 0))
    p, p_inv = arith.random_unimodular(random.Random(0), 2, 3)
    b = arith.mat_mul(arith.mat_mul(p, a), p_inv)
    assert b != a
    pair = workloads.Job("conjugate", "c", [], (1, 0, 5), {"a": a, "b": b, "built": "conj"})
    ok = json.dumps({"status": "equivalent", "witness": {"n": 2, "rows": [
        [str(x) for x in r] for r in p]}})
    assert checks.check(pair, 0, ok) == []
    bad = json.dumps({"status": "equivalent", "witness": {"n": 2, "rows": [
        ["1", "0"], ["0", "1"]]}})
    assert checks.check(pair, 0, bad)
    assert checks.check(pair, 0, json.dumps({"status": "inequivalent"}))


def test_arith_matches_latmac_on_small_inputs():
    for coeffs in ((1, 0, 5), (1, 1, -7), (1, 0, -2, -2), (1, 1, -1, 1)):
        for m in arith.sublattice_matrices(coeffs, 4):
            assert arith.charpoly(m) == coeffs
            assert latmac.charpoly(latmac.IntMatrix(m)).coeffs == coeffs
    assert [arith.form_class_number(d) for d in (-3, -4, -23, -47, -56, -84)] == \
        [1, 1, 3, 5, 4, 4]
