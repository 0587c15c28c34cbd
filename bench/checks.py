"""Output checks that hold for any seed and any correct program.

Every check recomputes its reference with :mod:`arith`; none calls latmac.
"""

from __future__ import annotations

import hashlib
import json

import arith


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def key_id(key: str) -> str:
    """Short name of a request in bench/digests.json."""
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def unknowns(job, code: int, text: str) -> int:
    """Unknown verdicts in one output: unknown pairs or an unknown status."""
    if code != 1 and job.kind in ("classify", "icm"):
        return int(json.loads(text)["unknown_pairs"])
    if code != 1 and job.kind == "conjugate":
        return int(json.loads(text)["status"] == "unknown")
    return 0


def check(job, code: int, text: str) -> list[str]:
    """Problems found in one job's exit code and stdout; empty when correct."""
    if code == 1:
        return ["exit code 1 (input rejected)"]
    if code not in (0, 2):
        return [f"exit code {code}"]
    if job.kind == "oracle":
        return [] if code == 0 and int(text) >= 1 else [f"oracle returned {text!r}"]
    doc = json.loads(text)
    return CHECKS[job.kind](job, code, doc)


def _check_monoid(job, code, doc):
    problems = []
    if doc["poly"] != ",".join(map(str, job.coeffs)):
        problems.append("poly echoed wrongly")
    unknown = int(doc["unknown_pairs"])
    if (code == 2) != (unknown > 0):
        problems.append(f"exit code {code} with {unknown} unknown pairs")
    if job.degree == 2 and unknown:
        problems.append("unknown verdict on a quadratic order")
    classes = doc["classes"]
    size = doc["count"] if job.kind == "classify" else doc["size"]
    if int(size) != len(classes):
        problems.append("class count disagrees with the class list")
    invertible = sum(1 for c in classes if c["invertible"])
    if job.kind == "icm" and int(doc["picard_size"]) != invertible:
        problems.append("picard_size disagrees with the invertible flags")
    for c in classes:
        if job.kind == "classify":
            m = tuple(tuple(int(x) for x in r) for r in c["matrix"]["rows"])
            if arith.charpoly(m) != job.coeffs:
                problems.append(f"representative {m} has the wrong charpoly")
    disc = arith.poly_disc(job.coeffs)
    if job.degree == 2 and disc < 0 and invertible != arith.form_class_number(disc):
        problems.append(f"{invertible} invertible classes, "
                        f"{arith.form_class_number(disc)} reduced forms")
    return problems


def _check_pell(job, code, doc):
    d, a, b = job.info["d"], int(doc["a"]), int(doc["b"])
    ok = code == 0 and int(doc["d"]) == d and a > 0 and b > 0 and a * a - d * b * b == 4
    return [] if ok else [f"({a}, {b}) does not solve a^2 - {d} b^2 = 4"]


def _check_conjugate(job, code, doc):
    status = doc["status"]
    a, b = job.info["a"], job.info["b"]
    if status not in ("equivalent", "inequivalent", "unknown"):
        return [f"status {status!r}"]
    problems = []
    if (code == 2) != (status == "unknown"):
        problems.append(f"exit code {code} with status {status}")
    if job.degree == 2 and status == "unknown":
        problems.append("unknown verdict on a quadratic order")
    if job.info["built"] == "conj" and status == "inequivalent":
        problems.append("a pair built as P A P^-1 reported inequivalent")
    if status == "equivalent":
        w = tuple(tuple(int(x) for x in r) for r in doc["witness"]["rows"])
        if arith.det(w) not in (1, -1):
            problems.append("witness is not unimodular")
        if arith.mat_mul(w, a) != arith.mat_mul(b, w):
            problems.append("witness does not conjugate A to B")
    return problems


CHECKS = {"classify": _check_monoid, "icm": _check_monoid,
          "pell": _check_pell, "conjugate": _check_conjugate}
