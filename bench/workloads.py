"""Seeded job streams for the five benchmark workloads.

A workload is an endless stream of jobs built in rounds.  For the
classify/icm workloads, the candidate inputs are sorted by a cost proxy that
the benchmark computes itself (never by timings) and cut into small strata;
each round draws one input from every stratum and visits the strata in an
order whose every prefix spreads over the whole cost range.  So any run sees
the same mix of cheap and expensive inputs whatever the seed; the seed
decides which input of each stratum is drawn and where the order starts.

Inputs are built by :mod:`arith` alone: no latmac call happens before the
timed phase.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import count
from math import gcd, isqrt

import arith

WORKLOADS = ("quad-imag", "quad-real", "cubic", "conjugate", "oracle")

# Input sizes.  They keep the median job well under a second so that a
# 20-second run holds enough jobs for a tail percentile with ten jobs beyond
# it; larger inputs scale the same layers.
STRATUM_SIZE = 3               # quadratic inputs per stratum of similar cost
IMAG_ABS_DISC = (40, 500)      # X^2+k and X^2+X+k
IMAG_REPEAT_EVERY = 3          # one repeat after every 3 fresh jobs: 25%
REAL_DISC = (40, 1000)         # X^2-k and X^2+X-k
PELL_EVERY = 6                 # one pell job after every 6 classify/icm jobs
PELL_D = (2, 20000)
CUBIC_ABS_DISC = (20, 250)
CONJ_IMAG_K = (2, 40)
CONJ_REAL_K = (2, 40)
CONJ_CUBIC_ABS_DISC = (20, 200)
CONJ_LATTICE_INDEX = 4
CONJ_STEPS = 4                 # elementary operations per random P
# Imaginary quadratics only: for real ones the oracle's conjugator bound is
# too small to join classes whose conjugators involve a large unit, and its
# count then exceeds the true class count.
ORACLE_QUAD_ABS_DISC = (7, 60)
ORACLE_QUAD_BOUNDS = (10,)
ORACLE_QUAD_PER_ROUND = 6
ORACLE_CUBIC_ABS_DISC = (20, 50)
ORACLE_CUBIC_BOUND = 2

# The tail percentile: the highest of 80, 90, 95 and 99 that leaves at least
# ten jobs beyond it on every 20-second run measured at the seed commit.
TAIL_PERCENTILE = {"quad-imag": 90, "quad-real": 90, "cubic": 80,
                   "conjugate": 99, "oracle": 90}

# Jobs run by a traced pass: a fixed prefix of the stream, so that call
# counts repeat exactly for a seed and compare across commits.
TRACE_JOBS = {"quad-imag": 48, "quad-real": 49, "cubic": 40,
              "conjugate": 480, "oracle": 63}


@dataclass
class Job:
    kind: str                  # classify, icm, pell, conjugate or oracle
    key: str                   # names the request; equal keys, equal output
    argv: list[str] = field(default_factory=list)
    coeffs: tuple[int, ...] = ()
    info: dict = field(default_factory=dict)
    repeat: bool = False

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def poly_job(kind, coeffs) -> Job:
    text = poly_text(coeffs)
    return Job(kind, f"{kind} {text}", ["--format", "json", kind, "--poly", text],
               tuple(coeffs))


def _strata(items, key, n):
    """Split items into n groups of equal size by ascending key."""
    items = sorted(items, key=key)
    size = len(items) / n
    return [items[round(i * size):round((i + 1) * size)] for i in range(n)]


class _Draw:
    """Draws from one stratum without replacement, reshuffling when empty."""

    def __init__(self, rng, items):
        self.rng, self.items, self.bag = rng, list(items), []

    def __call__(self):
        if not self.bag:
            self.bag = self.items[:]
            self.rng.shuffle(self.bag)
        return self.bag.pop()


def _bound(coeffs) -> int:
    """The class-monoid enumeration bound ceil(sqrt(|disc|))."""
    d = abs(arith.poly_disc(coeffs))
    s = isqrt(d)
    return s if s * s == d else s + 1


def imag_cost(coeffs) -> int:
    """Cost proxy: lattices enumerated times (classes + 5), since each
    lattice is tested against the class representatives found so far."""
    lattices = arith.quad_lattice_count(coeffs, _bound(coeffs))
    return lattices * (arith.monoid_size_imag(arith.poly_disc(coeffs)) + 5)


def real_cost(coeffs) -> float:
    """Cost proxy: lattices enumerated times the length of a CF cycle."""
    lattices = arith.quad_lattice_count(coeffs, _bound(coeffs))
    return lattices * (arith.cf_period(arith.poly_disc(coeffs)) + _bound(coeffs) / 4)


def _spread_order(rng, n):
    """A visiting order of n cost-sorted strata whose every prefix spreads
    evenly over the whole cost range: steps of about n / golden ratio from a
    random start, so a run that stops mid-round still sees a balanced mix."""
    step = max(1, round(n / 1.6180339887))
    while gcd(step, n) != 1:
        step += 1
    start = rng.randrange(n)
    return [(start + k * step) % n for k in range(n)]


def _poly_jobs(rng, cands, cost, per_stratum):
    """classify/icm jobs, one per stratum of per_stratum inputs of similar
    cost each round.  Strata alternate between the two commands, and the
    alternation flips every round, so both commands see every stratum."""
    draws = [_Draw(rng, s) for s in _strata(cands, lambda c: (cost(c), c),
                                            len(cands) // per_stratum)]
    for r in count():
        for i in _spread_order(rng, len(draws)):
            yield poly_job(("classify", "icm")[(i + r) % 2], draws[i]())


def quad_imag(rng):
    lo, hi = IMAG_ABS_DISC
    cands = [c for k in range(1, hi) for c in ((1, 0, k), (1, 1, k))
             if lo <= -arith.poly_disc(c) <= hi]
    fresh: list[Job] = []
    for job in _poly_jobs(rng, cands, imag_cost, STRATUM_SIZE):
        yield job
        fresh.append(job)
        if len(fresh) == IMAG_REPEAT_EVERY:
            # the oldest of the last few fresh jobs: its cost follows the
            # same spread order as the fresh jobs themselves
            old = fresh[0]
            yield Job(old.kind, old.key, old.argv, old.coeffs, old.info, repeat=True)
            fresh.clear()


def quad_real(rng):
    lo, hi = REAL_DISC
    cands = [c for k in range(1, hi) for c in ((1, 0, -k), (1, 1, -k))
             if lo <= arith.poly_disc(c) <= hi and arith.is_irreducible(c)]
    pell = _Draw(rng, [d for d in range(*PELL_D) if not arith.is_square(d)])
    for i, job in enumerate(_poly_jobs(rng, cands, real_cost, STRATUM_SIZE)):
        yield job
        if i % PELL_EVERY == PELL_EVERY - 1:
            d = pell()
            yield Job("pell", f"pell {d}", ["--format", "json", "pell", "--d", str(d)],
                      info={"d": d})


def cubic_candidates(abs_disc):
    lo, hi = abs_disc
    return [(1, a, b, c) for a in (0, 1) for b in range(-6, 7) for c in range(-7, 8)
            if lo <= abs(arith.poly_disc((1, a, b, c))) <= hi
            and arith.is_irreducible((1, a, b, c))]


def cubic(rng):
    # strata of two neighbours by |disc|: a round runs half the candidates
    yield from _poly_jobs(rng, cubic_candidates(CUBIC_ABS_DISC),
                          lambda c: abs(arith.poly_disc(c)), 2)


def matrix_json(m) -> str:
    return json.dumps({"n": len(m), "rows": [[str(x) for x in r] for r in m]},
                      separators=(",", ":"))


def _conjugate_pair(rng, coeffs, lattices, built):
    n = len(coeffs) - 1
    q, q_inv = arith.random_unimodular(rng, n, CONJ_STEPS)
    a = arith.mat_mul(arith.mat_mul(q, rng.choice(lattices)), q_inv)
    if built == "conj":
        p, p_inv = arith.random_unimodular(rng, n, CONJ_STEPS)
        b = arith.mat_mul(arith.mat_mul(p, a), p_inv)
    else:
        r, r_inv = arith.random_unimodular(rng, n, CONJ_STEPS)
        b = arith.mat_mul(arith.mat_mul(r, rng.choice(lattices)), r_inv)
    ja, jb = matrix_json(a), matrix_json(b)
    return Job("conjugate", f"conjugate {ja} {jb}",
               ["--format", "json", "conjugate", "--mat-a", ja, "--mat-b", jb],
               tuple(coeffs), {"a": a, "b": b, "built": built})


def conjugate(rng):
    pools = {
        "imag": [c for k in range(*CONJ_IMAG_K) for c in ((1, 0, k), (1, 1, k))],
        "real": [c for k in range(*CONJ_REAL_K) for c in ((1, 0, -k), (1, 1, -k))
                 if arith.is_irreducible(c)],
        "cubic": cubic_candidates(CONJ_CUBIC_ABS_DISC),
    }
    lattices = {}
    draws = {name: _Draw(rng, pool) for name, pool in pools.items()}
    while True:
        round_jobs = []
        for name in pools:
            for built in ("conj", "conj", "indep", "indep"):
                coeffs = draws[name]()
                if coeffs not in lattices:
                    lattices[coeffs] = arith.sublattice_matrices(
                        coeffs, CONJ_LATTICE_INDEX)
                round_jobs.append(_conjugate_pair(rng, coeffs, lattices[coeffs],
                                                  built))
        rng.shuffle(round_jobs)
        yield from round_jobs


def oracle_job(coeffs, bound) -> Job:
    return Job("oracle", f"oracle {poly_text(coeffs)} {bound} {bound}",
               coeffs=tuple(coeffs), info={"bounds": (bound, bound)})


def oracle(rng):
    lo, hi = ORACLE_QUAD_ABS_DISC
    quads = [c for k in range(1, hi) for c in ((1, 0, k), (1, 1, k))
             if lo <= -arith.poly_disc(c) <= hi]
    # the bound must admit the companion matrix, or no matrix is found
    quad = _Draw(rng, [(c, b) for c in quads for b in ORACLE_QUAD_BOUNDS
                       if max(map(abs, c)) <= b])
    cub = _Draw(rng, [c for c in cubic_candidates(ORACLE_CUBIC_ABS_DISC)
                      if max(map(abs, c)) <= ORACLE_CUBIC_BOUND])
    while True:
        round_jobs = [oracle_job(*quad()) for _ in range(ORACLE_QUAD_PER_ROUND)]
        round_jobs.append(oracle_job(cub(), ORACLE_CUBIC_BOUND))
        rng.shuffle(round_jobs)
        yield from round_jobs


STREAMS = {"quad-imag": quad_imag, "quad-real": quad_real, "cubic": cubic,
           "conjugate": conjugate, "oracle": oracle}


def stream(workload: str, seed: int):
    """The job stream of a workload; equal seeds give equal streams."""
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))


def warmup_job(workload: str) -> Job:
    """One small job outside the workload's candidate set."""
    if workload == "conjugate":
        m = ((0, -1), (1, 0))
        return Job("conjugate", "warmup", ["--format", "json", "conjugate",
                   "--mat-a", matrix_json(m), "--mat-b", matrix_json(m)],
                   (1, 0, 1), {"a": m, "b": m, "built": "conj"})
    if workload == "oracle":
        return oracle_job((1, 0, 1), 3)
    return poly_job("icm", (1, 0, 1) if workload != "quad-real" else (1, 0, -2))
