"""CSV and run-manifest persistence.

Every CSV starts with a `#`-prefixed JSON header block carrying the
manifest hash and the parameters that produced it, so files are
self-describing and byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterable, Mapping, Sequence

from . import __version__

# CPython's built-in SHA-256, as random.py takes its sha512: hashlib maps
# OpenSSL's libcrypto into the process (about 3 MB) for one hash
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def config_hash(config: Mapping) -> str:
    """Content hash of a config mapping (canonical JSON, sha256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


def file_sha256(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence],
              header: Mapping) -> None:
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _fmt(v) -> str:
    # float's formatter: np.float64's own is slower, with the same bytes
    if isinstance(v, float):
        return float.__format__(v, ".16e")
    return str(v)


class RunManifest:
    """One command run: where it writes, its config (its "seed"
    included), the files it produced, the wall time of its phases and
    the package version."""

    def __init__(self, out_dir: str, config: Mapping):
        self.out_dir = out_dir
        self.config = dict(config)
        self.hash = config_hash(self.config)
        self.outputs: dict[str, dict] = {}
        self.timings: dict[str, float] = {}
        self.extra: dict = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        """Record in timings the wall time since the previous lap (or
        since the run was made) as phase name."""
        now = time.perf_counter()
        self.timings[name], self._last = now - self._last, now

    def csv_header(self, **kw) -> dict:
        return {"manifest_hash": self.hash, "params": self.config, **kw}

    def register(self, name: str, path: str) -> None:
        self.outputs[name] = {
            "path": os.path.relpath(path, self.out_dir),
            "sha256": file_sha256(path),
        }

    def write(self) -> str:
        path = os.path.join(self.out_dir, "manifest.json")
        payload = {
            "config": self.config,
            "config_hash": self.hash,
            "rng_seed": self.config["seed"],
            "tool_version": __version__,
            "outputs": self.outputs,
            "timings_sec": self.timings,
            **self.extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def verify_manifest(manifest_path: str) -> list[str]:
    """Recompute output hashes and look for CSVs beside the manifest that
    it does not list; returns a list of problems (empty = ok)."""
    with open(manifest_path) as fh:
        outputs = json.load(fh).get("outputs", {})
    base = os.path.dirname(os.path.abspath(manifest_path))
    listed = {entry["path"] for entry in outputs.values()}
    problems = [f"{path}: CSV not listed in the manifest's outputs"
                for path in sorted(os.listdir(base))
                if path.endswith(".csv") and path not in listed]
    for name, entry in outputs.items():
        path = os.path.join(base, entry["path"])
        if not os.path.exists(path):
            problems.append(f"{name}: missing file {entry['path']}")
            continue
        actual = file_sha256(path)
        if actual != entry["sha256"]:
            problems.append(f"{name}: hash mismatch for {entry['path']}")
    return problems
