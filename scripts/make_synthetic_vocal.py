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

Every byte of its output is pinned: by the committed file (seed 20270),
by a test over seeds 0-99, and by the benchmark's table digests. The
draws are made one take at a time, in a fixed order: per subject
``normal`` for the base pitch and the gain, then five for the quirks;
per take ``standard_normal(4)`` (severity and roughness wobble, pitch,
the Fhi spread), ``random(2)`` (the Fhi and Flo spans) and
``standard_normal(18)`` (the Flo spread, then one term per measure).
The features are then computed for all takes at once. Each value has
the bits that one ``rng.normal`` or ``rng.random`` call per draw and
Python float arithmetic per value would give:

- ``rng.normal(0.0, sigma)`` is ``0.0 + sigma * z`` in numpy, and adding
  0.0 to a nonzero product is exact (also when the sum is contracted
  into an FMA), so such a draw is written ``sigma * z``, and
  ``abs(rng.normal())`` is ``abs(z)``. Draws with a nonzero mean keep
  ``rng.normal``, where an FMA could make ``mu + sigma * z`` differ.
- numpy's elementwise ``+ - * /``, ``abs``, ``minimum`` and ``maximum``
  are the IEEE operations Python's floats use, applied in the same
  order; ``np.exp`` runs the same loop on an array as on one value
  (the seed pin in the tests would show a difference).
  ``np.clip`` against per-column bounds equals ``min(max(v, lo), hi)``
  on each finite value.
- Rounding is Python's ``round(v, d)`` on each cell, computed exactly
  without a call per cell (:func:`_round_cells`). ``np.round`` would
  give other bits.
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
_LOWER, _UPPER, _DECIMALS = (list(col) for col in zip(*COLUMNS.values()))


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


#: log of the jitter, shimmer and NHR at zero roughness and zero noise
LOG_JITTER, LOG_SHIMMER, LOG_NHR = np.log(0.0031), np.log(0.018), np.log(0.011)
_SCALES = np.array([float(10**d) for d in _DECIMALS])  # exact powers of ten


def _round_cells(values: np.ndarray) -> np.ndarray:
    """``round(v, d)`` of each cell, ``d`` its column's decimals, bit for bit.

    Python's ``round`` returns the float nearest to ``q / 10**d``, where
    ``q`` is the integer nearest to the exact ``v * 10**d`` (ties to
    even). ``np.rint`` of the float product gives that ``q`` unless the
    exact product lies within the product's rounding error of a half;
    dividing ``q`` by the exact ``10**d`` is then one correctly rounded
    division. The clip bounds keep every ``|v * 10**d|`` under 1e7, where
    that error is below 1e-9, so the cells within 1e-6 of a half are left
    to Python's ``round``.
    """
    scaled = values * _SCALES
    out = np.rint(scaled) / _SCALES
    near_half = np.abs(np.abs(scaled - np.trunc(scaled)) - 0.5) < 1e-6
    for i, j in zip(*np.nonzero(near_half)):
        out[i, j] = round(float(values[i, j]), _DECIMALS[j])
    return out


def _features(severity, base_pitch, gain, quirk, z, u, e):
    """Raw (unclipped, unrounded) features of n takes, an (n, 22) array
    in COLUMNS order. ``severity``, ``base_pitch`` and ``gain`` hold each
    take's subject value; ``quirk`` (5 rows) and the draws ``z`` (4),
    ``u`` (2) and ``e`` (18) hold one row per draw, one column per take."""
    # per-take state: severity wobbles, and one shared "roughness" factor
    # couples the jitter/shimmer/noise families. ``gain`` is a
    # label-independent per-subject recording factor (microphone
    # distance, loudness) scaling the amplitude-derived measures.
    s = np.minimum(np.maximum(severity + 0.07 * z[0], 0.0), 1.0)
    rough = np.minimum(np.maximum(s + 0.085 * z[1], 0.0), 1.2)

    fo = base_pitch + 6.0 * z[2]
    fhi = fo * (1.08 + 0.14 * np.abs(z[3]) + 0.5 * rough * u[0])
    flo = fo * (1.0 - 0.08 - 0.26 * rough * u[1] - 0.07 * np.abs(e[0]))

    jitter = np.exp(LOG_JITTER + 1.35 * rough + 0.36 * e[1])
    jabs = jitter / fo * (1.0 + 0.10 * e[2])
    rap = jitter * (0.52 + 0.06 * e[3])
    ppq = jitter * (0.55 + 0.12 * rough + 0.09 * e[4])
    ddp = 3.0 * rap

    shimmer = gain * np.exp(LOG_SHIMMER + 0.55 * rough + 0.34 * e[5])
    sdb = shimmer * (9.3 + 0.8 * e[6])
    apq3 = shimmer * (0.52 + 0.05 * e[7])
    apq5 = shimmer * (0.63 + 0.06 * e[8])
    apq = shimmer * (0.72 + 0.5 * rough + 0.10 * e[9])
    dda = 3.0 * apq3

    nhr = gain * np.exp(LOG_NHR + 1.9 * rough + 0.60 * e[10])
    hnr = (
        25.0
        - 3.0 * rough
        - 11.0 * np.maximum(0.0, rough - 0.42)
        - 4.5 * (gain - 1.0)
        + 1.9 * e[11]
    )

    rpde = 0.42 + 0.10 * s + quirk[0] + 0.06 * e[12]
    # weakly and non-monotonically related, like the real measure
    dfa = 0.66 + 0.22 * s * (1.0 - s) + quirk[1] + 0.05 * e[13]
    spread1 = -6.6 + 2.4 * s + quirk[2] + 0.55 * e[14]
    spread2 = 0.17 + 0.06 * s + quirk[3] + 0.055 * e[15]
    d2 = 2.2 + 0.25 * s + quirk[4] + 0.3 * e[16]
    gate = 1.0 / (1.0 + np.exp(-(s - 0.40) / 0.045))
    ppe = 0.105 + 0.07 * s + 0.16 * gate + 0.04 * e[17]

    return np.column_stack([
        fo, fhi, flo, jitter, jabs, rap, ppq, ddp, shimmer, sdb, apq3,
        apq5, apq, dda, nhr, hnr, rpde, dfa, spread1, spread2, d2, ppe,
    ])


def generate(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    healthy_sev, pd_sev = _severities(rng)
    extra = set(
        rng.choice(PD_SUBJECTS, size=PD_EXTRA_TAKES, replace=False).tolist()
    )
    ids, labels, subjects, takes = [], [], [], []
    z, u, e = [], [], []
    for sid, sev in enumerate(healthy_sev.tolist() + pd_sev.tolist()):
        pd_index = sid - HEALTHY_SUBJECTS  # negative for a healthy subject
        n_takes = TAKES_HEALTHY + int(pd_index in extra)
        base_pitch = rng.normal(167.0, 34.0)
        # label-independent per-subject idiosyncrasies: recording gain
        # plus offsets in the nonlinear measures
        gain = min(max(rng.normal(1.0, 0.28), 0.5), 1.8)
        quirk = (
            rng.normal(0.0, 0.035),   # RPDE
            rng.normal(0.0, 0.03),    # DFA
            rng.normal(0.0, 0.35),    # spread1
            rng.normal(0.0, 0.035),   # spread2
            rng.normal(0.0, 0.22),    # D2
        )
        for _ in range(n_takes):
            z.append(rng.standard_normal(4))
            u.append(rng.random(2))
            e.append(rng.standard_normal(18))
        subjects.append((sev, base_pitch, gain, *quirk))
        takes.append(n_takes)
        ids.extend(f"synvoice_S{sid:02d}_{take + 1}" for take in range(n_takes))
        labels.extend([int(pd_index >= 0)] * n_takes)

    severity, base_pitch, gain, *quirk = np.repeat(subjects, takes, axis=0).T
    raw = _features(
        severity, base_pitch, gain, quirk, np.array(z).T, np.array(u).T, np.array(e).T
    )
    return Dataset(
        ids=tuple(ids),
        features=_round_cells(np.clip(raw, _LOWER, _UPPER)),
        labels=np.array(labels, dtype=np.int64),
        feature_names=CANONICAL_FEATURES,
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
