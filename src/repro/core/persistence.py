"""Saving and loading fitted clusterings.

A fitted :class:`~repro.core.cluseq.ClusteringResult` is a deployable
model — its cluster PSTs classify new sequences via
:meth:`~repro.core.cluseq.ClusteringResult.predict` — so it needs to
survive the process that trained it. Everything is plain JSON: the
cluster trees (via the PST's own serialization), memberships, the
background model, the converged threshold and the run parameters.

The alphabet is stored when its symbols are strings (the common case,
and what the CLI produces); for arbitrary hashable tokens pass
``alphabet=None`` and keep the alphabet alongside the file — it is
needed to encode new sequences either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, TextIO, Union

import numpy as np

from ..sequences.alphabet import Alphabet
from .cluseq import CluseqParams, ClusteringResult, IterationStats
from .cluster import Cluster, Membership
from .pst import ProbabilisticSuffixTree

#: Acceptable save/load targets (typing.Union: evaluated at runtime).
PathOrFile = Union[str, "os.PathLike[str]", TextIO]

#: Schema version embedded in every file, for forward compatibility.
FORMAT_VERSION = 1

#: ``params`` keys of retired :class:`CluseqParams` fields. Older files
#: still carry them; they are dropped on load. Any other unknown key
#: still fails.
RETIRED_PARAMS = frozenset(
    {"backend", "workers", "valley_method", "calibration_method", "histogram_buckets"}
)


def result_to_dict(
    result: ClusteringResult, alphabet: "Alphabet | None" = None
) -> dict[str, Any]:
    """A JSON-serializable snapshot of a fitted clustering.

    Captures the full §4 end state: every cluster's PST (§3's model),
    the final similarity threshold and the membership map, so
    classification can resume without refitting.

    Pass the training *alphabet* to embed it (symbols must be strings);
    :func:`load_result` then returns it alongside the result via
    :func:`load_result_with_alphabet`.
    """
    clusters: list[dict[str, Any]] = []
    for cluster in result.clusters:
        clusters.append(
            {
                "cluster_id": cluster.cluster_id,
                "seed_index": cluster.seed_index,
                "created_at_iteration": cluster.created_at_iteration,
                "pst": cluster.pst.to_dict(),
                "members": [
                    {
                        "sequence_index": m.sequence_index,
                        "log_similarity": m.log_similarity,
                        "best_start": m.best_start,
                        "best_end": m.best_end,
                    }
                    for m in cluster._members.values()
                ],
            }
        )
    encoded_alphabet = None
    if alphabet is not None:
        symbols = list(alphabet.symbols)
        if not all(isinstance(symbol, str) for symbol in symbols):
            raise ValueError(
                "only alphabets with string symbols can be embedded; "
                "pass alphabet=None and persist it separately"
            )
        encoded_alphabet = symbols
    return {
        "format_version": FORMAT_VERSION,
        "alphabet": encoded_alphabet,
        "params": asdict(result.params),
        "background": [float(p) for p in result.background],
        "final_log_threshold": result.final_log_threshold,
        "elapsed_seconds": result.elapsed_seconds,
        "converged": result.converged,
        "assignments": {
            str(index): sorted(ids) for index, ids in result.assignments.items()
        },
        "clusters": clusters,
        "history": [asdict(stats) for stats in result.history],
    }


def result_from_dict(data: dict[str, Any]) -> ClusteringResult:
    """Rebuild a :class:`ClusteringResult` from :func:`result_to_dict`.

    Inverse of the §4-state snapshot; restores cluster PSTs,
    memberships and the final threshold.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported clustering file version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    clusters: list[Cluster] = []
    for payload in data["clusters"]:
        cluster = Cluster(
            cluster_id=payload["cluster_id"],
            pst=ProbabilisticSuffixTree.from_dict(payload["pst"]),
            seed_index=payload["seed_index"],
            created_at_iteration=payload.get("created_at_iteration", 0),
        )
        for member in payload["members"]:
            cluster.set_member(
                Membership(
                    sequence_index=member["sequence_index"],
                    log_similarity=member["log_similarity"],
                    best_start=member["best_start"],
                    best_end=member["best_end"],
                )
            )
        clusters.append(cluster)
    history = [IterationStats(**stats) for stats in data.get("history", [])]
    result = ClusteringResult(
        clusters=clusters,
        assignments={},
        params=CluseqParams(
            **{
                key: value
                for key, value in data["params"].items()
                if key not in RETIRED_PARAMS
            }
        ),
        background=np.asarray(data["background"], dtype=np.float64),
        final_log_threshold=data["final_log_threshold"],
        history=history,
        elapsed_seconds=data.get("elapsed_seconds", 0.0),
        converged=data.get("converged", False),
    )
    # One shared frozenset per distinct id set, as a live run keeps
    # them: sole-cluster and empty assignments come from record_join,
    # so joins after the load reuse the loaded sets.
    shared: dict[frozenset[int], frozenset[int]] = {}
    for key, ids in data["assignments"].items():
        index = int(key)
        if len(ids) <= 1:
            result.record_join(index, ids[0] if ids else None)
        else:
            joined = frozenset(ids)
            result.assignments[index] = shared.setdefault(joined, joined)
    return result


def save_result(
    result: ClusteringResult,
    target: PathOrFile,
    alphabet: "Alphabet | None" = None,
) -> None:
    """Write a fitted clustering (§4 end state) as JSON.

    Optionally embeds the training alphabet so a later ``classify``
    run can encode raw sequences identically.
    """
    payload = result_to_dict(result, alphabet)
    if hasattr(target, "write"):
        json.dump(payload, target)  # type: ignore[arg-type]
        return
    with open(target, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
        json.dump(payload, handle)


def _read_payload(source: PathOrFile) -> dict[str, Any]:
    if hasattr(source, "read"):
        payload = json.load(source)  # type: ignore[arg-type]
    else:
        with open(source, encoding="utf-8") as handle:  # type: ignore[arg-type]
            payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("clustering file must contain a JSON object")
    return payload


def load_result(source: PathOrFile) -> ClusteringResult:
    """Read a fitted clustering (§4 end state) written by
    :func:`save_result`."""
    return result_from_dict(_read_payload(source))


def load_result_with_alphabet(
    source: PathOrFile,
) -> tuple[ClusteringResult, Alphabet | None]:
    """Read ``(result, alphabet)`` from a §4-state snapshot.

    The alphabet is ``None`` when the file does not embed one.
    """
    payload = _read_payload(source)
    result = result_from_dict(payload)
    symbols = payload.get("alphabet")
    alphabet = Alphabet(symbols) if symbols else None
    return result, alphabet
