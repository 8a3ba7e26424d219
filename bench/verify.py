"""Correctness checks on replayed detection records.

Two checks, both outside the timed region:

* invariants that hold for any seed, recomputed here without presage's
  own code: the phase schedule, the AARE of each scored point, the
  three-sigma threshold and the verdict each score implies;
* a reference recorded from one commit for a ``(series, seed)`` pair: the
  anomaly indices, the recheck indices and the SHA-256 digest of the
  verdict column.

A record is anything with the attributes of ``presage.DetectionRecord``;
``None`` stands for a step that raised.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

AARE_TOLERANCE = 1e-9
THRESHOLD_TOLERANCE = 1e-6


def verdict_digest(records) -> str:
    """SHA-256 of the verdict column, one verdict per line."""
    column = "\n".join(r.verdict.value if r is not None else "error" for r in records)
    return hashlib.sha256(column.encode()).hexdigest()


def summarize(records) -> dict:
    """The reference entry for one replayed series."""
    return {
        "points": len(records),
        "anomalies": [t for t, r in enumerate(records) if r is not None and r.verdict.value == "anomaly"],
        "rechecks": [t for t, r in enumerate(records) if r is not None and r.retrained],
        "verdict_sha256": verdict_digest(records),
    }


def reference_path(directory: Path, kind: str, seed: int) -> Path:
    return Path(directory) / f"{kind}-seed{seed}.json"


def load_reference(directory: Path, kind: str, seed: int) -> list[dict] | None:
    path = reference_path(directory, kind, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())["series"]


def save_reference(directory: Path, kind: str, seed: int, entries: list[dict]) -> Path:
    path = reference_path(directory, kind, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"series_kind": kind, "seed": seed, "series": entries}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def _phase(t: int, b: int) -> str:
    if t < b - 1:
        return "collecting"
    if t < 2 * b - 1:
        return "warmup"
    if t < 2 * b + 1:
        return "bootstrap"
    return "detecting"


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def invariant_failures(values, records, look_back: int, epsilon: float) -> set[int]:
    """Indices whose record breaks the detector's documented arithmetic."""
    b = look_back
    bad: set[int] = set()
    count, total, total_sq = 0, 0.0, 0.0
    for t, rec in enumerate(records):
        if rec is None:
            bad.add(t)
            continue
        phase = _phase(t, b)
        ok = rec.phase.value == phase and rec.value == float(values[t])
        ok = ok and (rec.predicted is None) == (t < b)
        ok = ok and (phase == "detecting" or (rec.verdict.value == "pending" and not rec.retrained))
        if ok and phase in ("bootstrap", "detecting"):
            window = range(t - b + 1, t + 1)
            preds = [records[y].predicted if records[y] is not None else None for y in window]
            if None in preds or rec.aare is None:
                ok = False
            else:
                expected = sum(
                    abs(float(values[y]) - p) / max(abs(float(values[y])), epsilon)
                    for y, p in zip(window, preds)
                ) / b
                ok = _close(rec.aare, expected, AARE_TOLERANCE)
        if ok and phase == "detecting" and rec.threshold is None:
            ok = False
        if ok and phase == "detecting":
            verdict = "normal" if rec.aare <= rec.threshold else "anomaly"
            ok = rec.verdict.value == verdict and (rec.retrained or verdict == "normal")
            if ok and not rec.retrained:
                # The threshold covers every final score, this one included;
                # after a recheck it holds the first-pass score instead.
                n = count + 1
                mu = (total + rec.aare) / n
                var = max((total_sq + rec.aare * rec.aare) / n - mu * mu, 0.0)
                ok = _close(rec.threshold, mu + 3.0 * math.sqrt(var), THRESHOLD_TOLERANCE)
        if not ok:
            bad.add(t)
        if rec.aare is not None:
            count += 1
            total += rec.aare
            total_sq += rec.aare * rec.aare
    return bad


def reference_failures(records, reference: dict) -> set[int]:
    """Indices whose verdict or recheck flag differs from the reference.

    A replay shorter than the reference is compared with its prefix: the
    detector is causal, so a prefix decides exactly as the whole series.
    """
    anomalies = set(reference["anomalies"])
    rechecks = set(reference["rechecks"])
    bad = set()
    for t, rec in enumerate(records):
        if rec is None:
            bad.add(t)
        elif (rec.verdict.value == "anomaly") != (t in anomalies) or rec.retrained != (t in rechecks):
            bad.add(t)
    if len(records) == reference["points"] and not bad:
        if verdict_digest(records) != reference["verdict_sha256"]:
            bad.update(range(len(records)))
    return bad
