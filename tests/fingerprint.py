"""Fingerprints of a run directory's JSON outputs.

A fingerprint is the sha256 of a JSON document in canonical form: keys
sorted, no whitespace, every ``wall_time_s``, ``seconds`` and ``Time`` key
dropped at any depth, and the root directory in any string replaced by
``$ROOT``. Two runs of one seeded flow in different directories give equal
fingerprints.

    python tests/fingerprint.py RUN_DIR [ROOT]

prints ``<sha256>  <file>`` for each ``*.json`` file directly in RUN_DIR;
ROOT (default RUN_DIR's parent) is the directory that is normalised away.
"""

import hashlib
import json
import sys
from pathlib import Path

TIME_KEYS = ("wall_time_s", "seconds", "Time")


def canonical(doc, root=None):
    """doc without its time keys and, given root, with root in its strings replaced by $ROOT."""
    if isinstance(doc, dict):
        return {k: canonical(v, root) for k, v in doc.items() if k not in TIME_KEYS}
    if isinstance(doc, list):
        return [canonical(v, root) for v in doc]
    if isinstance(doc, str) and root is not None:
        return doc.replace(str(root), "$ROOT")
    return doc


def fingerprint(path, root):
    doc = canonical(json.loads(Path(path).read_text(encoding="utf-8")), root)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprints(run_dir, root=None):
    """{file name: fingerprint} for each JSON file directly in run_dir."""
    run_dir = Path(run_dir)
    root = run_dir.parent if root is None else root
    return {p.name: fingerprint(p, root) for p in sorted(run_dir.glob("*.json"))}


if __name__ == "__main__":
    for name, digest in fingerprints(*sys.argv[1:3]).items():
        print(f"{digest}  {name}")
