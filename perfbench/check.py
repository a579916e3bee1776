"""Golden outputs and the output check behind ``failed_ratio``.

A golden holds, for one input set, every output the benchmark checks:
the edge set and its floats, the anomaly events of each suite run, the
cross-validated predictions and the alerts of each online run.  Discrete
outputs must match exactly; floats must agree to ``REL_TOL`` relative to the
magnitude of the value (for edge coefficients: of the edge's largest
coefficient).  Each checked output is one operation: a mismatch or an
exception counts as one failed operation and never aborts the run.
"""

from __future__ import annotations

import gzip
import json
import math
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Sequence

REL_TOL = 1e-9


def golden_path(golden_dir: Path, size: str, input_set: int) -> Path:
    return Path(golden_dir) / f"{size}-set{input_set}.json.gz"


def load_golden(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def rounded(values: Sequence[float]) -> List[float]:
    """Floats to 12 significant digits for storage, well inside ``REL_TOL``."""
    return [float(f"{v:.12g}") for v in values]


def save_golden(path: Path, golden: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-stable for equal content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(golden, sort_keys=True) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# outputs reduced to comparable form


def edge_pairs(model) -> List[List[str]]:
    return [[str(e.cause), str(e.effect)] for e in model.edges]


def edge_floats(model) -> List[List[float]]:
    return [list(e.coefficients) + [e.residual_std] for e in model.edges]


def event_keys(events) -> List[list]:
    return [[e.interval_start, str(e.kpi), e.kind.value] for e in events]


def event_scores(events) -> List[float]:
    return [e.score for e in events]


def alert_keys(alerts) -> List[list]:
    return [
        [a.raised_at, a.kind.value, "" if a.failure_class is None else str(a.failure_class)]
        for a in alerts
    ]


def alert_confidences(alerts) -> List[float]:
    return [a.confidence for a in alerts]


def cv_predictions(result) -> List[List[str]]:
    return [[str(truth), str(pred)] for truth, pred in result.predictions]


# ---------------------------------------------------------------------------
# comparison


def _first_mismatch(got: Sequence, want: Sequence) -> str:
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"item {i}: {g!r} != {w!r}"
    return "equal"


def _close(got: float, want: float, scale: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * max(abs(want), scale)


class Checker:
    """Counts checked outputs and the ones that mismatched or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")

    def run(self, name: str, fn: Callable[[], bool | str]) -> None:
        """One operation: ``fn`` returns True, or a reason it failed."""
        self.attempted += 1
        try:
            verdict = fn()
        except Exception:  # a raising output is a failed operation, not a crash
            self._fail(name, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return
        if verdict is not True:
            self._fail(name, str(verdict))

    def exact(self, name: str, got: Callable[[], object], want) -> None:
        def compare():
            value = got()
            if value == want:
                return True
            if isinstance(value, list) and isinstance(want, list):
                return _first_mismatch(value, want)
            return f"{value!r} != {want!r}"

        self.run(name, compare)

    def floats(self, name: str, got: Callable[[], Sequence], want: Sequence) -> None:
        """Flat float lists, or lists of float vectors (one scale per vector)."""

        def compare():
            value = got()
            if len(value) != len(want):
                return f"length {len(value)} != {len(want)}"
            for i, (g, w) in enumerate(zip(value, want)):
                gs, ws = (g, w) if isinstance(w, list) else ([g], [w])
                if len(gs) != len(ws):
                    return f"item {i}: length {len(gs)} != {len(ws)}"
                scale = max(abs(x) for x in ws) if ws else 0.0
                if not all(_close(float(a), float(b), scale) for a, b in zip(gs, ws)):
                    return f"item {i}: {g!r} != {w!r} (rel tol {REL_TOL})"
            return True

        self.run(name, compare)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_model(checker: Checker, model, golden: Dict) -> None:
    checker.exact("baseline.edges", lambda: edge_pairs(model), golden["edges"])
    checker.floats("baseline.edge_floats", lambda: edge_floats(model), golden["edge_floats"])
