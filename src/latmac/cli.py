"""Command-line interface: classification, conjugacy, Pell and bound reports.

Output is deterministic for a fixed configuration.  All integers are emitted
as decimal strings in JSON so arbitrary-precision values survive any
consumer.  Results of the expensive commands can be cached; a cache hit
reproduces the cold-run output byte for byte.

Exit codes: 0 success (fully certified), 1 invalid input, 2 a result was
affected by an Unknown search verdict, 3 a search budget ran out, 4 an
internal certificate failed its exact check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from . import __version__
from .errors import BudgetExceeded, CertificationError, DegreeCapExceeded
from .exactla import DEGREE_CAP, IntMatrix, MonicIntPoly, poly_from_string
from .ideal import SearchBudget, FracIdeal, class_monoid
from .latimer import are_conjugate, classify, order_for
from .quadratic import growth_report, solve_pell4
from .surface import (
    TrainTrack, TwoCover, bound_class_number, bound_max_index, bound_rank,
    cover_genus, surface_presentation, traintrack_class, verify_genus3,
)

# every latmac input error and json.JSONDecodeError subclass ValueError
_INPUT_ERRORS = (ValueError, ZeroDivisionError, OSError)


@dataclass(frozen=True)
class Config:
    bound_override: int | None = None
    search_budget: int = 4
    cache_dir: str | None = None
    output_format: str = "tsv"
    degree_cap: int = DEGREE_CAP

    def budget(self) -> SearchBudget:
        return SearchBudget(coeff_bound=self.search_budget)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def poly_to_string(p: MonicIntPoly) -> str:
    return ",".join(str(c) for c in p.coeffs)


def matrix_to_json(m: IntMatrix) -> dict:
    return {"n": m.n, "rows": [[str(x) for x in r] for r in m.rows]}


def matrix_from_json(doc) -> IntMatrix:
    rows = tuple(tuple(int(x) for x in r) for r in doc["rows"])
    m = IntMatrix(rows)
    if "n" in doc and int(doc["n"]) != m.n:
        raise ValueError("matrix size field disagrees with rows")
    return m


def ideal_to_json(a: FracIdeal) -> dict:
    return {"den": str(a.den), "hnf": [[str(x) for x in r] for r in a.lattice.rows]}


def parse_matrix_arg(text: str) -> IntMatrix:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return matrix_from_json(json.loads(text))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _cache_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_get(cache_dir, key):
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        return entry["code"], entry["payload"]
    except (OSError, KeyError, json.JSONDecodeError):
        return None


def _cache_put(cache_dir, key, code: int, payload: str):
    os.makedirs(cache_dir, exist_ok=True)
    entry = {"key": key, "code": code, "payload": payload,
             "created_at": time.time()}
    path = os.path.join(cache_dir, key + ".json")
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    os.replace(tmp, path)


def _cached(config: Config, payload: dict, run):
    """Run through the cache: a hit returns the stored exit code and text
    verbatim, without recomputing."""
    if config.cache_dir is None:
        return run()
    key = _cache_key({**payload, "version": __version__})
    hit = _cache_get(config.cache_dir, key)
    if hit is not None:
        return hit
    code, text = run()
    _cache_put(config.cache_dir, key, code, text)
    return code, text


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _check_poly(text: str, config: Config) -> MonicIntPoly:
    p = poly_from_string(text)
    if p.degree > config.degree_cap:
        raise DegreeCapExceeded(
            f"degree {p.degree} above cap {config.degree_cap}")
    return p


def ideal_from_json(doc, order) -> FracIdeal:
    from .ideal import make_ideal

    rows = [[int(x) for x in r] for r in doc["hnf"]]
    return make_ideal(order, rows, int(doc["den"]))


def cmd_classify(args, config: Config):
    chi = _check_poly(args.poly, config)
    order_for(chi, config.degree_cap)  # raises ReduciblePolynomial early

    def run():
        inv = classify(chi, config.bound_override, config.budget(),
                       degree_cap=config.degree_cap)
        cm = inv.monoid
        code = 2 if cm.unknown_pairs else 0
        if config.output_format == "json":
            doc = {
                "poly": poly_to_string(chi),
                "count": str(inv.count),
                "bound": str(cm.bound_used),
                "unknown_pairs": str(cm.unknown_pairs),
                "classes": [
                    {**ideal_to_json(cls.canonical),
                     "invertible": cls.invertible,
                     "norm": str(cls.canonical.norm()),
                     "matrix": matrix_to_json(mat)}
                    for cls, mat in inv.pairs
                ],
            }
            return code, _dump(doc)
        lines = [f"poly\t{poly_to_string(chi)}",
                 f"count\t{inv.count}",
                 f"bound\t{cm.bound_used}",
                 f"unknown_pairs\t{cm.unknown_pairs}"]
        for i, (cls, mat) in enumerate(inv.pairs):
            hnf = ";".join(",".join(str(x) for x in r)
                           for r in cls.canonical.lattice.rows)
            mrows = ";".join(",".join(str(x) for x in r) for r in mat.rows)
            lines.append(f"class\t{i}\tden={cls.canonical.den}\thnf={hnf}\t"
                         f"invertible={int(cls.invertible)}\tmatrix={mrows}")
        return code, "\n".join(lines) + "\n"

    payload = {"cmd": "classify", "poly": poly_to_string(chi),
               "bound": config.bound_override, "budget": config.search_budget,
               "format": config.output_format}
    return _cached(config, payload, run)


def cmd_icm(args, config: Config):
    chi = _check_poly(args.poly, config)
    order_for(chi, config.degree_cap)

    def run():
        cm = class_monoid(order_for(chi, config.degree_cap),
                          config.bound_override, config.budget())
        code = 2 if cm.unknown_pairs else 0
        if config.output_format == "json":
            doc = {
                "poly": poly_to_string(chi),
                "size": str(cm.size),
                "picard_size": str(cm.picard_size),
                "bound": str(cm.bound_used),
                "unknown_pairs": str(cm.unknown_pairs),
                "classes": [
                    {**ideal_to_json(c.canonical), "invertible": c.invertible}
                    for c in cm.classes
                ],
            }
            return code, _dump(doc)
        lines = [f"poly\t{poly_to_string(chi)}",
                 f"size\t{cm.size}",
                 f"picard_size\t{cm.picard_size}",
                 f"bound\t{cm.bound_used}"]
        for i, c in enumerate(cm.classes):
            hnf = ";".join(",".join(str(x) for x in r)
                           for r in c.canonical.lattice.rows)
            lines.append(f"class\t{i}\tden={c.canonical.den}\thnf={hnf}\t"
                         f"invertible={int(c.invertible)}")
        return code, "\n".join(lines) + "\n"

    payload = {"cmd": "icm", "poly": poly_to_string(chi),
               "bound": config.bound_override, "budget": config.search_budget,
               "format": config.output_format}
    return _cached(config, payload, run)


def cmd_conjugate(args, config: Config):
    ma = parse_matrix_arg(args.mat_a)
    mb = parse_matrix_arg(args.mat_b)
    verdict = are_conjugate(ma, mb, config.budget())
    if config.output_format == "json":
        doc = {"status": verdict.status}
        if verdict.witness is not None:
            doc["witness"] = matrix_to_json(verdict.witness)
        text = _dump(doc)
    else:
        lines = [f"status\t{verdict.status}"]
        if verdict.witness is not None:
            mrows = ";".join(",".join(str(x) for x in r)
                             for r in verdict.witness.rows)
            lines.append(f"witness\t{mrows}")
        text = "\n".join(lines) + "\n"
    return (2 if verdict.status == "unknown" else 0), text


def cmd_pell(args, config: Config):
    sol = solve_pell4(args.d)
    if config.output_format == "json":
        return 0, _dump({"d": str(sol.d), "a": str(sol.a), "b": str(sol.b)})
    return 0, f"a={sol.a} b={sol.b}\n"


def cmd_mw(args, config: Config):
    rows = growth_report(args.count)
    if config.output_format == "json":
        doc = [{"d": str(d), "class_number": str(h), "mw_value": f"{v:.6f}"}
               for d, h, v in rows]
        return 0, _dump(doc)
    lines = ["d\tclass_number\tmw_value"]
    lines.extend(f"{d}\t{h}\t{v:.6f}" for d, h, v in rows)
    return 0, "\n".join(lines) + "\n"


def cmd_bounds(args, config: Config):
    g = args.genus
    k = bound_max_index(g)
    cn = bound_class_number(g)
    rk = bound_rank(g, 1)
    rk_str = str(rk.numerator) if rk.denominator == 1 else str(rk)
    if config.output_format == "json":
        doc = {"genus": str(g), "max_index": str(k),
               "class_number_bound": str(cn),
               "class_number_bound_digits": str(len(str(cn))),
               "rank_bound": rk_str}
        return 0, _dump(doc)
    lines = [f"max_index\t{k}",
             f"class_number_bound_digits\t{len(str(cn))}",
             f"class_number_bound\t{cn}",
             f"rank_bound\t{rk_str}"]
    return 0, "\n".join(lines) + "\n"


def cmd_verify_example(args, config: Config):
    rep = verify_genus3()
    if config.output_format == "json":
        doc = {"rank_m_minus_i": str(rep.rank_m_minus_i),
               "det_m": str(rep.det_m),
               "det_cross_checked": rep.det_cross_checked,
               "charpoly": poly_to_string(rep.charpoly_m)}
        return 0, _dump(doc)
    lines = [f"rank(M-I6)={rep.rank_m_minus_i} OK",
             f"det(M)={rep.det_m} (two independent algorithms agree)",
             f"charpoly(M)={rep.charpoly_m}"]
    return 0, "\n".join(lines) + "\n"


def cmd_cover(args, config: Config):
    hom = tuple(int(t) for t in args.hom.split(","))
    pres = surface_presentation(args.genus)
    cover = TwoCover(pres, hom)
    g = cover_genus(cover)
    if config.output_format == "json":
        return 0, _dump({"genus": str(args.genus), "hom": list(args.hom.split(",")),
                         "cover_genus": str(g)})
    return 0, f"cover_genus={g}\n"


def cmd_ttclass(args, config: Config):
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    transition = matrix_from_json(
        doc["transition"] if isinstance(doc["transition"], dict)
        else {"rows": doc["transition"]})
    switches = tuple(
        (tuple(int(i) for i in ins), tuple(int(j) for j in outs))
        for ins, outs in doc.get("switches", ()))
    track = TrainTrack(int(doc.get("arcs", transition.n)), transition, switches)
    result = traintrack_class(track)
    if config.output_format == "json":
        out = {"poly": poly_to_string(result.chi),
               "ideal": ideal_to_json(result.ideal),
               "stretch_low": str(result.stretch_low),
               "stretch_high": str(result.stretch_high),
               "stretch": f"{result.stretch:.10f}"}
        return 0, _dump(out)
    hnf = ";".join(",".join(str(x) for x in r) for r in result.ideal.lattice.rows)
    lines = [f"poly\t{poly_to_string(result.chi)}",
             f"ideal\tden={result.ideal.den}\thnf={hnf}",
             f"stretch\t{result.stretch:.10f}"]
    return 0, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmac",
        description="Exact GL_n(Z)-conjugacy classification via ideal classes")
    parser.add_argument("--bound", type=int, default=None,
                        help="raise the ideal enumeration bound above "
                             "its default ceil(sqrt|disc|)")
    parser.add_argument("--budget", type=int, default=4,
                        help="coefficient bound for degree >= 3 witness search")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (or set LATMAC_CACHE_DIR)")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--degree-cap", type=int, default=DEGREE_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="conjugacy classes for a polynomial")
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, highest degree first")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("icm", help="ideal class monoid of Z[X]/(poly)")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_icm)

    p = sub.add_parser("conjugate", help="decide GL_n(Z)-conjugacy")
    p.add_argument("--mat-a", required=True, help="matrix JSON or @file")
    p.add_argument("--mat-b", required=True)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("pell", help="minimal solution of a^2 - d b^2 = 4")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("mw", help="class numbers along the 4n^2+1 family")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_mw)

    p = sub.add_parser("bounds", help="explicit class-number bound formulas")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-example", help="check the genus-3 matrix claims")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("cover", help="genus of a Z/2 cover")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--hom", required=True,
                   help="comma-separated 0/1 per generator a1,b1,...")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("ttclass", help="train-track invariants from JSON")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_ttclass)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("LATMAC_CACHE_DIR")
    if args.degree_cap > DEGREE_CAP:
        print(f"warning: degree cap {args.degree_cap} above the supported "
              f"default {DEGREE_CAP}", file=sys.stderr)
    config = Config(bound_override=args.bound, search_budget=args.budget,
                    cache_dir=cache_dir, output_format=args.format,
                    degree_cap=args.degree_cap)
    try:
        config.budget()  # a negative --budget is an input error for every command
        code, text = args.func(args, config)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error: internal certification failure: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
