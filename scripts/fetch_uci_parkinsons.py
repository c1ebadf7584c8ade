#!/usr/bin/env python3
"""Download the UCI Parkinsons vocal-features file into data/.

The toolkit never ships this file; run this once on a machine with
network access.  The download is verified structurally (canonical
24-column header, 195 rows, 147 positive / 48 negative) before being
written: a download that fails the check prints ``error: ...``, exits 1
and writes nothing. The SHA-256 of the bytes is printed so copies can be
compared across machines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdvox.dataset import load_dataset  # noqa: E402
from pdvox.errors import PdvoxError, ValidationError  # noqa: E402

URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/"
    "parkinsons/parkinsons.data"
)
EXPECTED_ROWS = 195
EXPECTED_POSITIVES = 147
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "data" / "parkinsons.data"


def fetch(url: str, timeout: float) -> bytes:
    request = urllib.request.Request(url, headers={"User-Agent": "pdvox-fetch/1.0"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def verify(path: Path, raw: bytes) -> None:
    """Raise a PdvoxError unless ``raw`` loads as the canonical table with
    the expected row and positive counts; ``path`` names it in messages."""
    data = load_dataset(path, raw)
    rows, positives = len(data.ids), int(data.labels.sum())
    if (rows, positives) != (EXPECTED_ROWS, EXPECTED_POSITIVES):
        raise ValidationError(
            f"{path}: expected {EXPECTED_ROWS} rows, {EXPECTED_POSITIVES} positive; "
            f"the download has {rows} rows, {positives} positive"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=URL, help="source URL (default: UCI archive)")
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="destination path (default: data/parkinsons.data)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    args = parser.parse_args(argv)

    try:
        raw = fetch(args.url, args.timeout)
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: download failed: {exc}", file=sys.stderr)
        return 1

    try:
        verify(args.out, raw)
    except PdvoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_bytes(raw)
    digest = hashlib.sha256(raw).hexdigest()
    print(f"{args.out}: {len(raw)} bytes, sha256 {digest}")
    print(
        f"verified: {EXPECTED_ROWS} rows, {EXPECTED_POSITIVES} positive, "
        f"{EXPECTED_ROWS - EXPECTED_POSITIVES} negative"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
