"""Record bench/digests.json: output digests of the default seed's jobs.

    python3 bench/pin_digests.py

Run at the commit whose outputs are the reference.  Every later run of
bench/run.py, on any seed, compares each job whose request is listed here
with the pinned exit code and stdout.  Degree-3 classify, icm and conjugate
outputs are not pinned: improving the witness search is meant to change
their unknown verdicts.  Oracle counts are pinned in every degree.
"""

import json
import shutil
import sys
from itertools import islice

import checks
import run
import workloads

# About twice the jobs a 20-second run completes at the seed commit.
PIN_JOBS = {"quad-imag": 300, "quad-real": 300, "cubic": 0,
            "conjugate": 2500, "oracle": 300}


def main():
    latmac = run.import_latmac()
    pins = {}
    for w in workloads.WORKLOADS:
        cache = run.fresh_dir("pin-") if w == "quad-imag" else None
        for job in islice(workloads.stream(w, run.DEFAULT_SEED), PIN_JOBS[w]):
            if job.degree == 3 and job.kind != "oracle":
                continue
            code, text = run.execute(latmac, job, cache)
            problems = checks.check(job, code, text)
            if problems:
                sys.exit(f"refusing to pin {job.key}: {problems}")
            pins[checks.key_id(job.key)] = checks.digest(code, text)
        if cache:
            shutil.rmtree(cache)
        print(f"{w}: {len(pins)} digests so far", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
