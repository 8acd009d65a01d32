"""Output checks and digests of the benchmark's simulated results.

Every check raises :class:`CheckFailed` with a message naming what
differs; ``run.py`` turns that into ``"correct": false`` and a non-zero
exit.  The digests hash only simulated outputs (designs, journals), never
host timings, so two commits that differ only in host speed print the
same digest for the same seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.utils.serialization import to_jsonable


class CheckFailed(Exception):
    """An output of the program is wrong."""


def canonical(value) -> str:
    """Canonical JSON text of a result: sorted keys, no whitespace."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def digest(values) -> str:
    """sha256 over the canonical JSON of a sequence of results."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(canonical(value).encode("utf-8"))
        hasher.update(b"\n")
    return "sha256:" + hasher.hexdigest()[:16]


def journal_map(outcomes) -> dict[str, str]:
    """uid -> canonical journal text for sweep outcomes."""
    return {outcome.task.uid: canonical(outcome.journal) for outcome in outcomes}


def check_same_journals(label: str, expected: Mapping[str, str],
                        actual: Mapping[str, str]) -> None:
    """Both maps hold the same cells with byte-identical journals."""
    if set(expected) != set(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        raise CheckFailed(f"{label}: cell sets differ (missing {missing}, extra {extra})")
    differing = sorted(uid for uid in expected if expected[uid] != actual[uid])
    if differing:
        raise CheckFailed(f"{label}: journals differ for {len(differing)} cell(s): "
                          f"{differing[:3]}")


def design_record(result) -> list[dict]:
    """The simulated outputs of one co-design result, per latency target."""
    from repro.search.cache import config_cache_key

    records = []
    for target, candidate in result.best_per_target.items():
        if candidate is None:
            records.append({"fps": target.fps, "design": None})
            continue
        records.append({
            "fps": target.fps,
            "design": config_cache_key(candidate.config),
            "accuracy": candidate.accuracy,
            "latency_ms": candidate.latency_ms,
            "estimate": candidate.estimate,
        })
    records.append({"candidates": len(result.candidates),
                    "selected": [b.bundle_id for b in result.selected_bundles]})
    return records


def check_designs(flow, result) -> None:
    """Every returned design fits the device and meets its reported target.

    The analytical estimate the search relied on must also equal the
    vectorized engine's estimate of the same config.
    """
    constraint = flow.resource_constraint
    for target, candidate in result.best_per_target.items():
        if candidate is None:
            continue
        name = candidate.config.describe()
        if not constraint.satisfied_by(candidate.estimate.resources):
            raise CheckFailed(f"design {name} exceeds the resource budget "
                              f"of {flow.inputs.device.name}")
        if not target.within_band(candidate.latency_ms):
            raise CheckFailed(f"design {name} at {candidate.latency_ms:.3f} ms misses "
                              f"its target {target.latency_ms:.3f} "
                              f"+/- {target.tolerance_ms:g} ms")
        scalar = flow.auto_hls.estimate(candidate.config)
        batch = flow.auto_hls.estimate_batch([candidate.config])[0]
        if scalar != batch:
            raise CheckFailed(f"design {name}: AutoHLS.estimate {scalar} differs "
                              f"from estimate_batch {batch}")
        if scalar != candidate.estimate:
            raise CheckFailed(f"design {name}: reported estimate {candidate.estimate} "
                              f"differs from AutoHLS.estimate {scalar}")
