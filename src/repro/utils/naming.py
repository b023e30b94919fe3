"""Ids shared by the artifact-writing layers: names and content hashes.

Job ids (``runner.spec``), artifact ids (``serve.artifacts``) and shard
suite names (``shard.executor``) all embed user-supplied names in directory
names; they must normalise identically so the stores stay predictable.  Job
and artifact ids also end in a content hash of a canonical JSON encoding,
which the serve layers compute without importing the runner.
"""

from __future__ import annotations

import hashlib
import json
import re


def slugify(text: str, fallback: str) -> str:
    """Lower-case ``text`` with every non-alphanumeric run collapsed to ``-``.

    ``fallback`` is returned when nothing survives (empty or all-symbol
    input) — callers pick a noun matching what they are naming.
    """
    slug = re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower()
    return slug or fallback


def canonical_json(payload: object) -> str:
    """Stable JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_hash(payload: object) -> str:
    """Content hash of a JSON-serialisable spec."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


__all__ = ["slugify", "canonical_json", "spec_hash"]
