"""Correctness gate for ``fidest --format json`` output.

``check(argv, text)`` returns a list of failure messages; an empty list means
the output parsed and every check for that subcommand held.  The checks are
the estimator laws the paper claims:

* every estimator row: |mean - exact_fidelity| <= Z * stderr;
* alpha = 1/2 DFE: every shot has modulus l1, so the shots' second moment
  is l1^2 and their variance about the sample mean (ddof = 0) is at most
  analytic_bound = l1^2.  The reported variance uses ddof = 1, so it is
  scaled back by (shots - 1) / shots before the comparison;
* ``fig2a`` FOFE shots on a phase state are +-1 coins;
* ``nldfe-compare``: mean W <= mean l1;
* ``haar-scan``: each l1_mean within Z * stderr of the closed form;
* ``hypergraph-bounds``: sampled_lower <= sampled_upper.

The closed-form complete-graph bracket (``closed_lower``/``closed_upper``) is
left out on purpose: it does not bracket the complete graph, by design.
"""

from __future__ import annotations

import json
import math

# Five standard errors: a false alarm has probability ~6e-7 per row.
Z = 5.0
ABS_TOL = 1e-12


def _rows(text: str) -> list[dict]:
    data = json.loads(text)
    cols = data["columns"]
    rows = [dict(zip(cols, row)) for row in data["rows"]]
    if not rows:
        raise ValueError("no rows")
    return rows


def _num(row: dict, key: str):
    val = row.get(key)
    if val in (None, "", "None"):
        return None
    return float(val)


def _within(a: float, b: float, stderr: float) -> bool:
    return abs(a - b) <= Z * stderr + ABS_TOL


def _estimator(row: dict) -> list[str]:
    errs = []
    mean, exact, stderr = (_num(row, k) for k in ("mean", "exact_fidelity", "stderr"))
    if not _within(mean, exact, stderr):
        errs.append(f"{row['scheme']}: mean {mean} vs exact {exact} "
                    f"exceeds {Z} stderr ({stderr})")
    bound = _num(row, "analytic_bound")
    if row["scheme"] == "dfe" and bound is not None:
        shots = _num(row, "shots")
        if _num(row, "variance") * (shots - 1) / shots > bound * (1 + 1e-12):
            errs.append(f"dfe: variance {row['variance']} over {shots:.0f} shots "
                        f"> bound {bound}")
    return errs


def check(argv, text: str) -> list[str]:
    command = argv[0]
    try:
        rows = _rows(text)
        errs = []
        if command in ("run", "fig2a"):
            for row in rows:
                errs += _estimator(row)
        if command == "fig2a":
            for row in rows:
                if row["scheme"] == "fofe" and not all(
                        _num(row, k) in (-1.0, 1.0) for k in ("shot_min", "shot_max")):
                    errs.append(f"fofe shots not +-1: {row['shot_min']}, {row['shot_max']}")
        elif command == "nldfe-compare":
            for row in rows:
                if _num(row, "mean_w") > _num(row, "mean_l1") * (1 + 1e-12):
                    errs.append(f"n={row['n']}: mean W {row['mean_w']} > mean l1 {row['mean_l1']}")
        elif command == "haar-scan":
            for row in rows:
                if not _within(_num(row, "l1_mean"), _num(row, "l1_closed_form"),
                               _num(row, "l1_stderr")):
                    errs.append(f"n={row['n']}: l1 {row['l1_mean']} vs closed form "
                                f"{row['l1_closed_form']} exceeds {Z} stderr")
        elif command == "hypergraph-bounds":
            for row in rows:
                if _num(row, "sampled_lower") > _num(row, "sampled_upper"):
                    errs.append(f"n={row['n']}: sampled_lower > sampled_upper")
        elif command == "tomography":
            for row in rows:
                err = _num(row, "l2_error")
                if not (math.isfinite(err) and err >= 0.0):
                    errs.append(f"l2_error {err}")
        return errs
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
