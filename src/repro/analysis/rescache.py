"""On-disk experiment-result cache.

Figure/table experiments are pure functions of (driver, kwargs, code
version), so re-running ``python -m repro all`` after an unrelated edit
mostly repeats work.  The cache keys each task by::

    sha256(experiment name + canonical kwargs JSON + code fingerprint)

where the code fingerprint is ``git describe --always --dirty`` plus, for a
dirty tree, a digest of every tracked+modified Python source under
``src/repro`` — so editing simulator code invalidates the cache even before
a commit, while result-only reruns hit.

Entries are one JSON file per key under the cache directory (default
``.repro_cache/`` in the working directory, override with
``--cache-dir``).  Disable per-run with ``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

from .report import ExperimentResult

#: Process-wide memo of the code fingerprint (computing it shells out).
_FINGERPRINT: Optional[str] = None

_SRC_ROOT = Path(__file__).resolve().parents[2]  # .../src
_REPO_ROOT = _SRC_ROOT.parent


def code_fingerprint() -> str:
    """Version stamp for cache keys: git describe, plus source digest if dirty."""
    global _FINGERPRINT
    if _FINGERPRINT is not None:
        return _FINGERPRINT

    def _git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", str(_REPO_ROOT), *args],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    describe = _git("describe", "--always", "--dirty", "--tags") or "no-git"
    fingerprint = describe
    if describe.endswith("-dirty") or describe == "no-git":
        digest = hashlib.sha256()
        package_root = _SRC_ROOT / "repro"
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        fingerprint = f"{describe}+{digest.hexdigest()[:16]}"
    _FINGERPRINT = fingerprint
    return fingerprint


def task_key(name: str, kwargs: Dict[str, Any]) -> str:
    payload = json.dumps(
        {"experiment": name, "kwargs": kwargs, "code": code_fingerprint()},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """A content-addressed store of serialized :class:`ExperimentResult`s."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory or ".repro_cache")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, name: str, kwargs: Dict[str, Any]) -> Optional[ExperimentResult]:
        path = self._path(task_key(name, kwargs))
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return ExperimentResult(
            payload["experiment"],
            payload["title"],
            payload["columns"],
            rows=payload["rows"],
            notes=payload["notes"],
        )

    def put(self, name: str, kwargs: Dict[str, Any], result: ExperimentResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(task_key(name, kwargs))
        payload = {
            "experiment": result.experiment,
            "title": result.title,
            "columns": list(result.columns),
            "rows": result.rows,
            "notes": result.notes,
        }
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except (OSError, TypeError):
            # Unpicklable-to-JSON results simply aren't cached.
            tmp.unlink(missing_ok=True)

    def clear(self) -> int:
        """Drop every cached entry; returns the number removed."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
