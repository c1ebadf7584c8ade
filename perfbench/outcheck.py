"""Per-op output check.

Each op's structured report is checked three ways; any problem makes the
op a failed op:

* against the outputs recorded for that (workload, master seed) in
  ``golden.json``, where one exists: each model's confusion counts,
  metric set and ROC arrays must be identical. Fields the report may gain
  later (a diagnostics block, say) are ignored;
* against invariants derived independently of the package: the test
  split's class counts, the metric arithmetic, ROC shape and area, and
  agreement between the confusion counts and the ROC point at the
  model's threshold;
* against earlier ops of the same run with the same master seed.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import BENCH_DIR

GOLDEN = BENCH_DIR / "golden.json"

MODELS = ("lightgbm-like", "xgboost-like", "adaboost", "bagging", "svm")
TEST_FRACTION = 0.2
TOL = 1e-12


def checked_fields(report_text: str) -> list[dict]:
    return [
        {k: r[k] for k in ("model", "threshold", "confusion", "metrics", "roc")}
        for r in json.loads(report_text)["results"]
    ]


def digest(fields: list[dict]) -> str:
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL


def _ratio(num, den):
    return num / den if den else None


def invariant_problems(result: dict, n_pos: int, n_neg: int) -> list[str]:
    """Problems with one model's result, given the test split's class counts."""
    name = result["model"]
    cm, m, roc = result["confusion"], result["metrics"], result["roc"]
    tp, fn, tn, fp = cm["tp"], cm["fn"], cm["tn"], cm["fp"]
    problems = []
    if min(tp, fn, tn, fp) < 0 or tp + fn != n_pos or tn + fp != n_neg:
        problems.append(f"{name}: confusion {cm} does not partition {n_pos}+/{n_neg}-")
    sens, spec, prec = _ratio(tp, tp + fn), _ratio(tn, tn + fp), _ratio(tp, tp + fp)
    f1 = None if sens is None or prec is None or sens + prec == 0 else 2 * prec * sens / (prec + sens)
    expected = {"accuracy": (tp + tn) / (n_pos + n_neg), "sensitivity": sens,
                "specificity": spec, "precision": prec, "f1": f1}
    for key, value in expected.items():
        if not _close(m.get(key), value):
            problems.append(f"{name}: {key} {m.get(key)} != {value} from the confusion counts")
    thr, fpr, tpr = roc["thresholds"], roc["fpr"], roc["tpr"]
    if not (len(thr) == len(fpr) == len(tpr) >= 2 and thr[0] is None
            and fpr[0] == tpr[0] == 0.0 and fpr[-1] == tpr[-1] == 1.0):
        return problems + [f"{name}: ROC does not run from (0,0) at +inf to (1,1)"]
    if any(b <= a for a, b in zip(thr[2:], thr[1:-1])) or any(
        b < a for seq in (fpr, tpr) for a, b in zip(seq, seq[1:])
    ):
        problems.append(f"{name}: ROC thresholds or rates are not monotone")
    area = sum((x1 - x0) * (y1 + y0) / 2.0 for x0, x1, y0, y1 in zip(fpr, fpr[1:], tpr, tpr[1:]))
    if not _close(m.get("auc"), area):
        problems.append(f"{name}: auc {m.get('auc')} != ROC area {area}")
    # the operating point at the model's threshold is the last ROC point
    # whose threshold is >= it (scores >= threshold predict positive)
    cut = result["threshold"]
    i = max(k for k in range(len(thr)) if thr[k] is None or thr[k] >= cut)
    if round(tpr[i] * n_pos) != tp or round(fpr[i] * n_neg) != fp:
        problems.append(f"{name}: confusion disagrees with the ROC point at threshold {cut}")
    return problems


class OutputCheck:
    def __init__(self, workload, golden: dict):
        self.models = MODELS if workload.model == "all" else (workload.model,)
        self.recorded = golden.get(workload.name, {})
        self.first_digest: dict[int, str] = {}
        self.compared = 0  # ops compared with recorded outputs

    def problems(self, table, report_text: str) -> list[str]:
        fields = checked_fields(report_text)
        names = tuple(r["model"] for r in fields)
        if names != self.models:
            return [f"models {names}, expected {self.models}"]
        n_pos = math.floor(table.positives * TEST_FRACTION + 0.5)
        n_neg = math.floor(table.negatives * TEST_FRACTION + 0.5)
        problems = [p for r in fields for p in invariant_problems(r, n_pos, n_neg)]
        d = digest(fields)
        recorded = self.recorded.get(str(table.master_seed))
        if recorded is not None:
            self.compared += 1
            if recorded["table"] != table.sha256[:16]:
                problems.append("input table differs from the recorded one")
            elif recorded["out"] != d:
                problems.append("outputs differ from the recorded outputs")
        if self.first_digest.setdefault(table.master_seed, d) != d:
            problems.append("outputs differ from an earlier op with the same seed")
        return problems
