#!/usr/bin/env python3
"""Generate a synthetic stand-in for the UCI Parkinsons voice table.

Produces a CSV with the same 24-column schema, the same 195-row /
147-positive / 48-negative composition, and a similar correlation
structure: multiple takes per subject, a latent per-subject severity
driving the jitter/shimmer/noise families jointly, near-exact linear
ties (Jitter:DDP = 3 * MDVP:RAP, Shimmer:DDA = 3 * Shimmer:APQ3), and
value ranges matching the published feature ranges.

The rows are sampled, not copied: nothing here reproduces a real
recording. Use scripts/fetch_uci_parkinsons.py for the real table; this
generator exists so the test-suite and CLI have a realistic file when
the network is unavailable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pdvox.dataset import CANONICAL_FEATURES, Dataset, write_dataset_csv

#: (healthy subjects, takes each) and (pd subjects, takes) -> 48 + 147 rows.
HEALTHY_SUBJECTS = 8
PD_SUBJECTS = 23
TAKES_HEALTHY = 6
# nine PD subjects contribute an extra take: 23*6 + 9 = 147
PD_EXTRA_TAKES = 9

#: Per column, in CANONICAL_FEATURES order: the published range, used
#: as clip bounds, and the decimal places of the published file.
COLUMNS = {
    "MDVP:Fo(Hz)": (88.0, 260.0, 3),
    "MDVP:Fhi(Hz)": (102.0, 592.0, 3),
    "MDVP:Flo(Hz)": (65.0, 239.0, 3),
    "MDVP:Jitter(%)": (0.0017, 0.0331, 5),
    "MDVP:Jitter(Abs)": (0.000007, 0.00026, 6),
    "MDVP:RAP": (0.00068, 0.0214, 5),
    "MDVP:PPQ": (0.00092, 0.0196, 5),
    "Jitter:DDP": (0.00204, 0.0643, 5),
    "MDVP:Shimmer": (0.0095, 0.119, 5),
    "MDVP:Shimmer(dB)": (0.085, 1.302, 3),
    "Shimmer:APQ3": (0.0045, 0.0565, 5),
    "Shimmer:APQ5": (0.0057, 0.0794, 5),
    "MDVP:APQ": (0.0072, 0.1378, 5),
    "Shimmer:DDA": (0.0136, 0.1694, 5),
    "NHR": (0.00065, 0.3148, 5),
    "HNR": (8.44, 33.05, 3),
    "RPDE": (0.2566, 0.6852, 6),
    "DFA": (0.5743, 0.8253, 6),
    "spread1": (-7.965, -2.434, 6),
    "spread2": (0.0063, 0.4505, 6),
    "D2": (1.4233, 3.6712, 6),
    "PPE": (0.0445, 0.5274, 6),
}


def _severities(rng: np.random.Generator):
    """Per-subject latent severity in [0, 1]; classes overlap on purpose.

    The overlap width is the difficulty knob: healthy subjects reach up
    to ~0.52 while most PD subjects are mild (a 0.12-0.52 band exists in
    every split), with a moderate-to-severe minority mixed in.
    """
    healthy = np.clip(rng.normal(0.19, 0.095, size=HEALTHY_SUBJECTS), 0.02, 0.45)
    mild = rng.random(PD_SUBJECTS) < 0.6
    pd = np.where(
        mild,
        rng.normal(0.46, 0.12, size=PD_SUBJECTS),
        rng.normal(0.70, 0.14, size=PD_SUBJECTS),
    )
    pd = np.clip(pd, 0.14, 0.97)
    return healthy, pd


def _clip(value, lo, hi) -> float:
    """``np.clip`` of one value, on Python floats: the same value at a
    fraction of the cost of a numpy call per cell."""
    return float(min(max(value, lo), hi))


def _take_rows(rng, subject_id, severity, n_takes, label, base_pitch, gain, quirk):
    rows = []
    for take in range(n_takes):
        # per-take state: severity wobbles, and one shared "roughness"
        # factor couples the jitter/shimmer/noise families. ``gain`` is a
        # label-independent per-subject recording factor (microphone
        # distance, loudness) scaling the amplitude-derived measures.
        s = _clip(severity + rng.normal(0.0, 0.07), 0.0, 1.0)
        rough = _clip(s + rng.normal(0.0, 0.085), 0.0, 1.2)

        fo = base_pitch + rng.normal(0.0, 6.0)
        fhi = fo * (1.08 + 0.14 * abs(rng.normal()) + 0.5 * rough * rng.random())
        flo = fo * (1.0 - 0.08 - 0.26 * rough * rng.random() - 0.07 * abs(rng.normal()))

        jitter = float(np.exp(np.log(0.0031) + 1.35 * rough + rng.normal(0.0, 0.36)))
        jabs = jitter / fo * (1.0 + rng.normal(0.0, 0.10))
        rap = jitter * (0.52 + rng.normal(0.0, 0.06))
        ppq = jitter * (0.55 + 0.12 * rough + rng.normal(0.0, 0.09))
        ddp = 3.0 * rap

        shimmer = gain * float(
            np.exp(np.log(0.018) + 0.55 * rough + rng.normal(0.0, 0.34))
        )
        sdb = shimmer * (9.3 + rng.normal(0.0, 0.8))
        apq3 = shimmer * (0.52 + rng.normal(0.0, 0.05))
        apq5 = shimmer * (0.63 + rng.normal(0.0, 0.06))
        apq = shimmer * (0.72 + 0.5 * rough + rng.normal(0.0, 0.10))
        dda = 3.0 * apq3

        nhr = gain * float(np.exp(np.log(0.011) + 1.9 * rough + rng.normal(0.0, 0.60)))
        hnr = (
            25.0
            - 3.0 * rough
            - 11.0 * max(0.0, rough - 0.42)
            - 4.5 * (gain - 1.0)
            + rng.normal(0.0, 1.9)
        )

        rpde = 0.42 + 0.10 * s + quirk[0] + rng.normal(0.0, 0.06)
        # weakly and non-monotonically related, like the real measure
        dfa = 0.66 + 0.22 * s * (1.0 - s) + quirk[1] + rng.normal(0.0, 0.05)
        spread1 = -6.6 + 2.4 * s + quirk[2] + rng.normal(0.0, 0.55)
        spread2 = 0.17 + 0.06 * s + quirk[3] + rng.normal(0.0, 0.055)
        d2 = 2.2 + 0.25 * s + quirk[4] + rng.normal(0.0, 0.3)
        gate = 1.0 / (1.0 + np.exp(-(s - 0.40) / 0.045))
        ppe = 0.105 + 0.07 * s + 0.16 * gate + rng.normal(0.0, 0.04)

        raw = {
            "MDVP:Fo(Hz)": fo,
            "MDVP:Fhi(Hz)": fhi,
            "MDVP:Flo(Hz)": flo,
            "MDVP:Jitter(%)": jitter,
            "MDVP:Jitter(Abs)": jabs,
            "MDVP:RAP": rap,
            "MDVP:PPQ": ppq,
            "Jitter:DDP": ddp,
            "MDVP:Shimmer": shimmer,
            "MDVP:Shimmer(dB)": sdb,
            "Shimmer:APQ3": apq3,
            "Shimmer:APQ5": apq5,
            "MDVP:APQ": apq,
            "Shimmer:DDA": dda,
            "NHR": nhr,
            "HNR": hnr,
            "RPDE": rpde,
            "DFA": dfa,
            "spread1": spread1,
            "spread2": spread2,
            "D2": d2,
            "PPE": ppe,
        }
        values = [
            round(_clip(raw[name], lo, hi), decimals)
            for name, (lo, hi, decimals) in COLUMNS.items()
        ]
        rows.append((f"synvoice_S{subject_id:02d}_{take + 1}", values, label))
    return rows


def generate(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    healthy_sev, pd_sev = _severities(rng)
    extra = set(
        rng.choice(PD_SUBJECTS, size=PD_EXTRA_TAKES, replace=False).tolist()
    )
    def subject_nuisance():
        # label-independent per-subject idiosyncrasies: recording gain
        # plus offsets in the nonlinear measures
        gain = _clip(rng.normal(1.0, 0.28), 0.5, 1.8)
        quirk = (
            rng.normal(0.0, 0.035),   # RPDE
            rng.normal(0.0, 0.03),    # DFA
            rng.normal(0.0, 0.35),    # spread1
            rng.normal(0.0, 0.035),   # spread2
            rng.normal(0.0, 0.22),    # D2
        )
        return gain, quirk

    rows = []
    sid = 0
    for sev in healthy_sev:
        base_pitch = rng.normal(167.0, 34.0)
        gain, quirk = subject_nuisance()
        rows.extend(
            _take_rows(rng, sid, sev, TAKES_HEALTHY, 0, base_pitch, gain, quirk)
        )
        sid += 1
    for k, sev in enumerate(pd_sev):
        base_pitch = rng.normal(167.0, 34.0)
        gain, quirk = subject_nuisance()
        n_takes = TAKES_HEALTHY + (1 if k in extra else 0)
        rows.extend(_take_rows(rng, sid, sev, n_takes, 1, base_pitch, gain, quirk))
        sid += 1

    ids = tuple(r[0] for r in rows)
    features = np.array([r[1] for r in rows], dtype=np.float64)
    labels = np.array([r[2] for r in rows], dtype=np.int64)
    return Dataset(
        ids=ids, features=features, labels=labels, feature_names=CANONICAL_FEATURES
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), os.pardir, "data", "synthetic_vocal.csv"
        ),
        help="output CSV path (default: data/synthetic_vocal.csv)",
    )
    parser.add_argument("--seed", type=int, default=20270, help="generator seed")
    args = parser.parse_args(argv)

    data = generate(args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_dataset_csv(data, args.out)
    n_neg, n_pos = data.class_counts()
    print(f"{args.out}: {data.n_records} rows, {n_pos} positive, {n_neg} negative")
    return 0


if __name__ == "__main__":
    sys.exit(main())
