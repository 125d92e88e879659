"""Immutable, versioned truth snapshots served to readers.

A :class:`TruthSnapshot` is the unit of consistency of the serving
layer: every query reads one snapshot, and a snapshot never mutates, so
readers are wait-free and always see an internally consistent
(predictions, trust, partition) triple.  Snapshots carry:

* a strictly monotone ``version`` (one publish per applied micro-batch);
* a ``watermark`` — the number of ingested claims the snapshot covers,
  in admission order, which pins the exact offline dataset it must
  match;
* staleness metadata: how many claims were still queued when the
  snapshot was published, whether the refit carried ``exact``
  (:meth:`TDAC.run <repro.core.tdac.TDAC.run>`-bit-identical) semantics
  — true for every refit since 1.4.0; the flag is kept for historical
  snapshots — and the fingerprints
  identifying the accumulated dataset and config.

``to_dict`` emits the shared ``tdac-result/v1`` schema with a
``serving`` sub-object, so snapshot serialization is a superset of every
other engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.algorithms.base import TruthDiscoveryResult
from repro.core.partition import Partition
from repro.core.schema import result_from_dict, result_to_dict
from repro.data.types import AttributeId, Fact, ObjectId, SourceId, Value


@dataclass(frozen=True)
class TruthSnapshot:
    """One immutable published state of a :class:`TruthService`."""

    version: int
    watermark: int
    result: TruthDiscoveryResult
    partition: Partition
    silhouette_by_k: Mapping[int, float] = field(default_factory=dict)
    exact: bool = True
    pending_claims: int = 0
    dataset_fingerprint: str = ""
    config_fingerprint: str = ""

    @property
    def predictions(self) -> Mapping[Fact, Value]:
        """Fact → resolved value at this snapshot's watermark."""
        return self.result.predictions

    @property
    def source_trust(self) -> Mapping[SourceId, float]:
        """Per-source trust at this snapshot's watermark."""
        return self.result.source_trust

    def value(self, obj: ObjectId, attribute: AttributeId) -> Value | None:
        """Resolved value of ``(obj, attribute)``, or None if uncovered."""
        return self.result.predictions.get(Fact(obj, attribute))

    def to_dict(self) -> dict[str, Any]:
        """``tdac-result/v1`` rendering plus the ``serving`` metadata."""
        payload = result_to_dict(
            self.result,
            partition=self.partition,
            silhouette_by_k=self.silhouette_by_k,
        )
        payload["serving"] = {
            "version": self.version,
            "watermark": self.watermark,
            "exact": self.exact,
            "pending_claims": self.pending_claims,
            "dataset_fingerprint": self.dataset_fingerprint,
            "config_fingerprint": self.config_fingerprint,
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TruthSnapshot":
        """Rebuild a snapshot from its :meth:`to_dict` rendering.

        The inverse up to JSON's type erasure (identifiers come back as
        the strings the serializer emitted); used by the durable store
        to resurrect the served state from a checkpoint file.
        """
        serving = payload.get("serving") or {}
        blocks = payload.get("partition") or []
        return cls(
            version=int(serving.get("version", 0)),
            watermark=int(serving.get("watermark", 0)),
            result=result_from_dict(payload),
            partition=Partition.from_blocks(blocks),
            silhouette_by_k={
                int(k): float(v)
                for k, v in (payload.get("silhouette_by_k") or {}).items()
            },
            exact=bool(serving.get("exact", True)),
            pending_claims=int(serving.get("pending_claims", 0)),
            dataset_fingerprint=str(serving.get("dataset_fingerprint", "")),
            config_fingerprint=str(serving.get("config_fingerprint", "")),
        )
