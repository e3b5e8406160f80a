"""Seeded job lists and output checks for the qloop benchmark workloads.

A job is one `python -m qloop.cli ...` command.  The workload seed picks
only inputs that cost the same (a global spectral shift, the spectral
parameter of a T-system check, one of two level-2 classifications with
the same mutation count) and the order of the jobs.  Every job's stdout
is checked against facts that do not come from qloop where such facts
exist, and against the digest recorded at the seed commit after the
seed's spectral shift is undone.

Run this file directly to print the digests of every job at shift 0:
    PYTHONPATH=src python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("digests.json")

WORKLOADS = ("qchar-grassmannian", "tsystem-kr", "level1-theorem")

# Dimension (total multiplicity) of each fundamental module: the adjoint
# plus trivial for D4 node 3, the vector of D4, Lambda^3 of the vector
# plus the vector for D5 node 3, and the spin module of D6.
FUNDAMENTAL_DIMS = {("D4", 3): 29, ("D4", 1): 8, ("D5", 3): 130,
                    ("D6", 1): 32}
STANDARD_DIM = 29 * 8
# E6 has 36 positive roots; the report adds one distinctness entry.
L1_ENTRIES = 37

# Shifts stay below 64, so every spectral value stays below 256, where
# CPython caches small ints, and the seed does not change memory use.
_SHIFT_RANGE = 32


@dataclass(frozen=True)
class Job:
    """One CLI command.  `key` names it in the digest table; `shift` is
    the spectral shift the seed applied, undone before digesting."""

    key: str
    argv: tuple
    kind: str
    shift: int = 0


SETUP_JOB = Job("setup sl2 kr", ("sl2", "kr", "--k", "1", "--s", "0"),
                "setup")


def _parity_shift(rng: random.Random, parity: int) -> int:
    return 2 * rng.randrange(_SHIFT_RANGE) + parity


def fundamental_job(label: str, node: int, shift: int) -> Job:
    return Job(f"fundamental {label} {node}",
               ("qchar", "fundamental", "--type", label, "--node", str(node),
                "--shift", str(shift), "--format", "json"),
               "fundamental", shift)


def standard_job(shift: int) -> Job:
    w = json.dumps([[3, shift, 1], [1, shift + 1, 1]])
    return Job("standard D4 3+1", ("qchar", "standard", "--type", "D4",
                                   "--w", w, "--format", "json"),
               "standard", shift)


def tsystem_job(label: str, node: int, k: int, s: int) -> Job:
    return Job(f"tsystem {label} {node} {k}",
               ("verify", "tsystem", "--type", label, "--node", str(node),
                "--k", str(k), "--s", str(s)), "tsystem", s)


def make_jobs(workload: str, seed: int) -> list:
    """The job list of one pass of `workload`, generated from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qchar-grassmannian":
        # node parities: xi = 0 for D4/3, D5/3; xi = 1 for D4/1, D6/1
        jobs = [fundamental_job("D4", 3, _parity_shift(rng, 0)),
                fundamental_job("D4", 1, _parity_shift(rng, 1)),
                fundamental_job("D5", 3, _parity_shift(rng, 0)),
                fundamental_job("D6", 1, _parity_shift(rng, 1)),
                standard_job(_parity_shift(rng, 0))]
    elif workload == "tsystem-kr":
        jobs = [tsystem_job(label, node, k, rng.randrange(2 * _SHIFT_RANGE))
                for label, node, k in (("D4", 3, 2), ("A5", 3, 2),
                                       ("A4", 2, 3))]
    elif workload == "level1-theorem":
        label, level = rng.choice((("A3", 2), ("A2", 3)))
        jobs = [Job("l1 E6", ("verify", "l1", "--type", "E6", "--format",
                              "json"), "l1"),
                Job("classify level-2 E6", ("cluster", "classify", "--type",
                                            label, "--level", str(level)),
                    "classify")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# --- checks -------------------------------------------------------------------

def _terms(stdout: bytes) -> dict:
    """Parse a JSON q-character into {((i, s, e), ...): coefficient}."""
    data = json.loads(stdout)
    return {tuple(map(tuple, t["Y"])): t["c"] for t in data["terms"]}


def shift_terms(terms: dict, t: int) -> dict:
    return {tuple((i, s + t, e) for i, s, e in m): c for m, c in terms.items()}


def multiply(a: dict, b: dict) -> dict:
    """Product of two Laurent polynomials in the {monomial: coeff} form."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = {}
            for i, s, e in ma + mb:
                exps[(i, s)] = exps.get((i, s), 0) + e
            m = tuple(sorted((i, s, e) for (i, s), e in exps.items() if e))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def digest(job: Job, stdout: bytes) -> str:
    """Digest of stdout with the seed's spectral shift undone."""
    if job.kind in ("fundamental", "standard"):
        terms = shift_terms(_terms(stdout), -job.shift)
        body = json.dumps(sorted([list(map(list, m)), c]
                                 for m, c in terms.items())).encode()
    else:
        body = stdout
    return hashlib.sha256(body).hexdigest()[:16]


def _check_one(job: Job, rc: int, stdout: bytes, expected: dict) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    errors = []
    if job.kind == "fundamental":
        terms = _terms(stdout)
        label, node = job.argv[3], int(job.argv[5])
        dim = sum(terms.values())
        if dim != FUNDAMENTAL_DIMS[(label, node)]:
            errors.append(f"dimension {dim}")
        dominant = [(m, c) for m, c in terms.items()
                    if all(e > 0 for _, _, e in m)]
        if dominant != [(((node, job.shift, 1),), 1)]:
            errors.append(f"dominant monomials {dominant}")
    elif job.kind == "standard":
        if sum(_terms(stdout).values()) != STANDARD_DIM:
            errors.append("dimension")
    elif job.kind == "tsystem":
        if stdout != b"pass\n":
            errors.append(f"stdout {stdout[:40]!r}")
    elif job.kind == "l1":
        report = json.loads(stdout)
        if len(report) != L1_ENTRIES:
            errors.append(f"{len(report)} report entries")
        bad = [e["case"] for e in report
               if not e["pass"] or e["lhs"] != e["rhs"]]
        if bad:
            errors.append(f"failing entries {bad}")
    elif job.kind == "classify":
        if stdout != b"E6\n":
            errors.append(f"stdout {stdout[:40]!r}")
    elif job.kind == "setup":
        if stdout != b"Y[1,0] + Y[1,2]^-1\n":
            errors.append(f"stdout {stdout[:40]!r}")
    if digest(job, stdout) != expected.get(job.key):
        errors.append("digest differs from the seed commit")
    return errors


def check_pass(jobs: list, results: list, expected: dict) -> list:
    """Error lists, one per job, for one pass.

    results[k] is (exit code, stdout) of jobs[k].  The standard module is
    also checked against the product of the two D4 fundamentals run in
    the same pass, so it fails when either of them is missing or wrong.
    """
    errors = []
    for job, (rc, out) in zip(jobs, results):
        try:
            errors.append(_check_one(job, rc, out, expected))
        except (ValueError, KeyError, TypeError) as exc:
            errors.append([f"unreadable output: {exc!r}"])
    fund = {job.argv[3:6:2]: (job, out) for job, (rc, out), err
            in zip(jobs, results, errors)
            if job.kind == "fundamental" and not err}
    for k, job in enumerate(jobs):
        if job.kind != "standard" or errors[k]:
            continue
        if ("D4", "3") not in fund or ("D4", "1") not in fund:
            errors[k].append("no correct D4 fundamentals in the pass")
            continue
        (j3, o3), (j1, o1) = fund[("D4", "3")], fund[("D4", "1")]
        want = multiply(shift_terms(_terms(o3), job.shift - j3.shift),
                        shift_terms(_terms(o1), job.shift + 1 - j1.shift))
        if _terms(results[k][1]) != want:
            errors[k].append("not the product of the D4 fundamentals")
    return errors


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


def _all_jobs() -> list:
    """Every job of every workload at shift 0, plus the set-up job."""
    return [SETUP_JOB,
            fundamental_job("D4", 3, 0), fundamental_job("D4", 1, 1),
            fundamental_job("D5", 3, 0), fundamental_job("D6", 1, 1),
            standard_job(0),
            tsystem_job("D4", 3, 2, 0), tsystem_job("A5", 3, 2, 0),
            tsystem_job("A4", 2, 3, 0),
            *make_jobs("level1-theorem", 0)]


if __name__ == "__main__":
    import subprocess
    import sys

    table = {}
    for job in _all_jobs():
        out = subprocess.run([sys.executable, "-m", "qloop.cli", *job.argv],
                             capture_output=True, check=True).stdout
        table[job.key] = digest(job, out)
    print(json.dumps(table, indent=1, sort_keys=True))
