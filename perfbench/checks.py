"""Output checks of one CLI command against the stored seed-0 reference.

A command passes when it exited with 0 (so Newton converged: the CLI returns
1 on divergence), reproduces the reference `n_free` of every level exactly,
reproduces `error_pw` and `eta_total` to RTOL, and prints finite positive
diagnostics.  beta0, delta, h and beta_h are only required to be finite and
positive: the current beta0 and the gamma-norm bound are known to be
inaccurate, so pinning their values would reject a fix.
"""
from __future__ import annotations

import csv
import math
import re
from pathlib import Path

RTOL = 1e-6
# mesh_input on another seed reads another jittered mesh, so its errors
# differ from the seed-0 reference; the topology, hence n_free, does not.
JITTERED_RTOL = 5e-3

_SOLVE_PATTERNS = {
    "n_free": r"n_free = (\d+)",
    "eta_total": r"eta_total = (\S+)",
    "error_pw": r"error_pw = (\S+)",
    "beta0": r"beta0 = ([^,\s]+)",
    "delta": r"delta = ([^,\s]+)",
    "h": r"\bh = ([^,\s]+)",
}


def _opt_float(text):
    return float(text) if text != "" else None


def _written_csv(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("wrote "):
            return Path(line[len("wrote "):].strip())
    raise ValueError("no 'wrote <file>' line in the output")


def observe(argv, stdout):
    """The checked quantities of one successful command, as lists per level."""
    kind = argv[0]
    if kind == "solve":
        found = {}
        for key, pattern in _SOLVE_PATTERNS.items():
            m = re.search(pattern, stdout)
            if m is None:
                raise ValueError(f"solve output lacks {key}")
            found[key] = int(m.group(1)) if key == "n_free" else float(m.group(1))
        return {"n_free": [found["n_free"]], "error_pw": [found["error_pw"]],
                "eta_total": [found["eta_total"]],
                "positive": {k: found[k] for k in ("beta0", "delta", "h")}}
    with open(_written_csv(stdout), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("empty CSV")
    if kind == "infsup":
        return {"n_free": [int(r["n_free"]) for r in rows],
                "positive": {f"beta_h[{i}]": float(r["beta_h"])
                             for i, r in enumerate(rows)}}
    return {"n_free": [int(r["n_free"]) for r in rows],
            "error_pw": [_opt_float(r["error_pw"]) for r in rows],
            "eta_total": [float(r["eta_total"]) for r in rows]}


def _close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def compare(observed, reference, rtol=RTOL):
    """Mismatches between an observation and its reference, as messages."""
    errors = []
    if observed["n_free"] != reference["n_free"]:
        errors.append(f"n_free {observed['n_free']} != {reference['n_free']}")
    for key in ("error_pw", "eta_total"):
        if key not in reference:
            continue
        got, want = observed[key], reference[key]
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b, rtol)]
        if bad or len(got) != len(want):
            i = bad[0] if bad else min(len(got), len(want))
            errors.append(f"{key} differs at level {i}: "
                          f"{got[i] if i < len(got) else '-'} vs "
                          f"{want[i] if i < len(want) else '-'} (rtol {rtol:g})")
    for key, value in observed.get("positive", {}).items():
        if not (math.isfinite(value) and value > 0):
            errors.append(f"{key} = {value} is not finite and positive")
    return errors


def check(event, reference, rtol=RTOL):
    """Failure messages for one command event of a worker; empty if it passed."""
    if event["error"]:
        return [f"exception: {event['error'].strip().splitlines()[-1]}"]
    if event["code"] != 0:
        return [f"exit code {event['code']}"]
    try:
        observed = observe(event["argv"], event["stdout"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    if reference is None:
        return ["no reference stored for this command"]
    return compare(observed, reference, rtol)
