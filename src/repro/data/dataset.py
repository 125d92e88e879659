"""The :class:`Dataset` container: sources, objects, attributes and claims.

A :class:`Dataset` is the immutable input of every truth discovery
algorithm in this library.  It stores the triplet ``(S, A, O)`` of the
paper together with the observed claims and, optionally, a (possibly
partial) ground truth used only for evaluation.

Construction normally goes through :class:`repro.data.builder.DatasetBuilder`
or one of the generators in :mod:`repro.datasets`; the constructor here
validates the raw dictionaries and freezes them.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.data.types import (
    CATEGORICAL,
    AttributeId,
    Claim,
    DataError,
    Fact,
    ObjectId,
    SourceId,
    Value,
    validate_attribute_type,
)


class Dataset:
    """An immutable multi-source claim dataset in the one-truth setting.

    Parameters
    ----------
    sources:
        Identifiers of the data sources, in a stable order.
    objects:
        Identifiers of the real-world objects.
    attributes:
        Identifiers of the data attributes, in a stable order.  Attribute
        order matters: truth vectors and partitions index attributes by
        this order.
    claims:
        Mapping from ``(source, object, attribute)`` to the claimed value.
        A source claims at most one value per fact (one-truth setting);
        facts a source does not cover are simply absent.
    truth:
        Optional mapping from ``(object, attribute)`` to the true value,
        used for evaluation only.  May be partial.
    name:
        Optional human-readable dataset name used in reports.
    attribute_types:
        Optional mapping from attribute to one of
        :data:`repro.data.types.ATTRIBUTE_TYPES`.  Attributes absent from
        the mapping are ``"categorical"``; only non-default entries are
        stored (and hashed), so an all-categorical dataset keeps the
        fingerprint it had before type tags existed.
    """

    def __init__(
        self,
        sources: Iterable[SourceId],
        objects: Iterable[ObjectId],
        attributes: Iterable[AttributeId],
        claims: Mapping[tuple[SourceId, ObjectId, AttributeId], Value],
        truth: Mapping[tuple[ObjectId, AttributeId], Value] | None = None,
        name: str = "dataset",
        attribute_types: Mapping[AttributeId, str] | None = None,
    ) -> None:
        self._sources = tuple(sources)
        self._objects = tuple(objects)
        self._attributes = tuple(attributes)
        self._name = name
        _check_unique("source", self._sources)
        _check_unique("object", self._objects)
        _check_unique("attribute", self._attributes)
        source_set = set(self._sources)
        object_set = set(self._objects)
        attribute_set = set(self._attributes)
        for (s, o, a) in claims:
            if s not in source_set:
                raise DataError(f"claim references unknown source {s!r}")
            if o not in object_set:
                raise DataError(f"claim references unknown object {o!r}")
            if a not in attribute_set:
                raise DataError(f"claim references unknown attribute {a!r}")
        self._claims = dict(claims)
        truth = dict(truth or {})
        for (o, a) in truth:
            if o not in object_set or a not in attribute_set:
                raise DataError(
                    f"ground truth references unknown fact ({o!r}, {a!r})"
                )
        self._truth = truth
        types: dict[AttributeId, str] = {}
        for a, kind in (attribute_types or {}).items():
            if a not in attribute_set:
                raise DataError(f"attribute type for unknown attribute {a!r}")
            if validate_attribute_type(kind) != CATEGORICAL:
                types[a] = kind
        self._attribute_types = types

    # ------------------------------------------------------------------
    # Identity and size
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable dataset name."""
        return self._name

    @property
    def sources(self) -> tuple[SourceId, ...]:
        """All source identifiers, in construction order."""
        return self._sources

    @property
    def objects(self) -> tuple[ObjectId, ...]:
        """All object identifiers, in construction order."""
        return self._objects

    @property
    def attributes(self) -> tuple[AttributeId, ...]:
        """All attribute identifiers, in construction order."""
        return self._attributes

    @property
    def n_claims(self) -> int:
        """Total number of observations (claims)."""
        return len(self._claims)

    def __len__(self) -> int:
        return len(self._claims)

    @cached_property
    def _claim_engines(self) -> dict:
        """Per-dtype claim-index engines compiled from this dataset.

        Filled by :meth:`repro.data.claim_engine.ClaimIndexEngine.shared`
        under its lock.  Living on the instance ties each engine's
        lifetime to its dataset's.
        """
        return {}

    def __getstate__(self) -> dict:
        # Engines are process-local (they hold locks); an unpickled copy
        # compiles its own on first use.
        state = dict(self.__dict__)
        state.pop("_claim_engines", None)
        return state

    # ------------------------------------------------------------------
    # Attribute types
    # ------------------------------------------------------------------

    def attribute_type(self, attribute: AttributeId) -> str:
        """Value family of ``attribute`` (``"categorical"`` by default)."""
        return self._attribute_types.get(attribute, CATEGORICAL)

    @property
    def attribute_types(self) -> Mapping[AttributeId, str]:
        """Type of every attribute, defaults included."""
        return {
            a: self._attribute_types.get(a, CATEGORICAL)
            for a in self._attributes
        }

    @property
    def has_typed_attributes(self) -> bool:
        """Whether any attribute is non-categorical."""
        return bool(self._attribute_types)

    def attributes_of_type(self, kind: str) -> tuple[AttributeId, ...]:
        """Attributes whose value family is ``kind``, in attribute order."""
        validate_attribute_type(kind)
        return tuple(
            a
            for a in self._attributes
            if self._attribute_types.get(a, CATEGORICAL) == kind
        )

    @cached_property
    def fingerprint(self) -> str:
        """Stable content digest of the dataset's discovery-relevant state.

        Covers the source / object / attribute identifier tuples (order
        included — attribute order shapes truth vectors) and every claim;
        the display name and the evaluation-only ground truth are
        excluded, so renaming or re-annotating a dataset does not change
        its identity.  Used as the dataset half of partition-cache and
        serving-snapshot keys.
        """
        hasher = hashlib.sha256()
        for part in (self._sources, self._objects, self._attributes):
            hasher.update(repr(part).encode("utf-8"))
            hasher.update(b"\x1e")
        for key in sorted(self._claims, key=repr):
            hasher.update(repr((key, self._claims[key])).encode("utf-8"))
            hasher.update(b"\x1f")
        if self._attribute_types:
            # Hashed only when some attribute is non-categorical, so every
            # dataset that predates type tags keeps its fingerprint.
            hasher.update(b"\x1dtypes")
            hasher.update(
                repr(sorted(self._attribute_types.items())).encode("utf-8")
            )
        return hasher.hexdigest()

    def __repr__(self) -> str:
        return (
            f"Dataset({self._name!r}, sources={len(self._sources)}, "
            f"objects={len(self._objects)}, "
            f"attributes={len(self._attributes)}, claims={len(self._claims)})"
        )

    # ------------------------------------------------------------------
    # Claim access
    # ------------------------------------------------------------------

    def value(
        self, source: SourceId, obj: ObjectId, attribute: AttributeId
    ) -> Value | None:
        """The value ``source`` claims for ``(obj, attribute)``, or None."""
        return self._claims.get((source, obj, attribute))

    def iter_claims(self) -> Iterator[Claim]:
        """Iterate over every claim in the dataset."""
        for (s, o, a), v in self._claims.items():
            yield Claim(s, o, a, v)

    @property
    def claims(self) -> Mapping[tuple[SourceId, ObjectId, AttributeId], Value]:
        """Read-only view of the raw claim mapping.

        Hot paths (truth-vector construction, claim counting) iterate
        this directly: one dict traversal, no per-claim :class:`Claim`
        allocation.
        """
        return MappingProxyType(self._claims)

    @cached_property
    def facts(self) -> tuple[Fact, ...]:
        """All facts covered by at least one claim, in a stable order.

        Order is object-major then attribute order, which keeps derived
        matrices reproducible.
        """
        covered = {(o, a) for (_, o, a) in self._claims}
        attr_rank = {a: i for i, a in enumerate(self._attributes)}
        obj_rank = {o: i for i, o in enumerate(self._objects)}
        ordered = sorted(covered, key=lambda f: (obj_rank[f[0]], attr_rank[f[1]]))
        return tuple(Fact(o, a) for o, a in ordered)

    @cached_property
    def claims_by_fact(self) -> Mapping[Fact, tuple[Claim, ...]]:
        """Claims grouped by fact, each group in source order."""
        groups: dict[Fact, list[Claim]] = {}
        for (s, o, a), v in self._claims.items():
            groups.setdefault(Fact(o, a), []).append(Claim(s, o, a, v))
        source_rank = {s: i for i, s in enumerate(self._sources)}
        return {
            fact: tuple(sorted(cs, key=lambda c: source_rank[c.source]))
            for fact, cs in groups.items()
        }

    @cached_property
    def claims_by_source(self) -> Mapping[SourceId, tuple[Claim, ...]]:
        """Claims grouped by source."""
        groups: dict[SourceId, list[Claim]] = {s: [] for s in self._sources}
        for (s, o, a), v in self._claims.items():
            groups[s].append(Claim(s, o, a, v))
        return {s: tuple(cs) for s, cs in groups.items()}

    def sources_for(self, fact: Fact) -> tuple[SourceId, ...]:
        """Sources claiming a value for ``fact`` (the paper's ``S_o``)."""
        return tuple(c.source for c in self.claims_by_fact.get(fact, ()))

    def values_for(self, fact: Fact) -> tuple[Value, ...]:
        """Distinct claimed values for ``fact`` (the paper's ``V_{o-a}``).

        Order of first appearance in source order, so it is deterministic.
        """
        seen: dict[Value, None] = {}
        for claim in self.claims_by_fact.get(fact, ()):
            seen.setdefault(claim.value)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    @property
    def truth(self) -> Mapping[tuple[ObjectId, AttributeId], Value]:
        """The (possibly partial) ground truth mapping."""
        return dict(self._truth)

    @property
    def has_truth(self) -> bool:
        """Whether any ground truth is attached."""
        return bool(self._truth)

    def true_value(self, fact: Fact) -> Value | None:
        """Ground-truth value of ``fact`` if known, else None."""
        return self._truth.get((fact.object, fact.attribute))

    # ------------------------------------------------------------------
    # Restriction (Algorithm 1's ``getData(g)``)
    # ------------------------------------------------------------------

    def restrict_attributes(self, attributes: Iterable[AttributeId]) -> "Dataset":
        """Project the dataset onto a subset of attributes.

        This is ``getData(g)`` in Algorithm 1 of the paper: the block
        dataset on which the base algorithm runs.  Sources and objects are
        kept (sources with no remaining claim still participate so that
        source indices stay aligned across blocks).
        """
        keep = set(attributes)
        unknown = keep - set(self._attributes)
        if unknown:
            raise DataError(f"unknown attributes in restriction: {sorted(map(str, unknown))}")
        ordered = tuple(a for a in self._attributes if a in keep)
        claims = {
            key: v for key, v in self._claims.items() if key[2] in keep
        }
        truth = {
            key: v for key, v in self._truth.items() if key[1] in keep
        }
        return Dataset(
            self._sources,
            self._objects,
            ordered,
            claims,
            truth,
            name=f"{self._name}|{len(ordered)}attrs",
            attribute_types={
                a: t for a, t in self._attribute_types.items() if a in keep
            },
        )

    def extended(self, claims: Iterable[Claim]) -> "Dataset":
        """Return this dataset plus ``claims``, without replaying history.

        The append-only growth path of the streaming engines: only the
        new claims are validated (a source contradicting its own earlier
        value raises :class:`DataError`; re-asserting the same value is a
        no-op), and new identifiers append to the source / object /
        attribute tuples in claim order — exactly the order a
        :class:`~repro.data.builder.DatasetBuilder` replay of
        ``old claims + new claims`` would produce.  The result is
        therefore fingerprint-identical to the historical full rebuild
        (``tests/test_incremental_exact.py`` pins this) at O(batch)
        instead of O(corpus) cost.

        Returns ``self`` unchanged when every claim is a duplicate.
        """
        batch = list(claims)
        if not batch:
            return self
        merged = dict(self._claims)
        sources = dict.fromkeys(self._sources)
        objects = dict.fromkeys(self._objects)
        attributes = dict.fromkeys(self._attributes)
        changed = False
        for claim in batch:
            key = (claim.source, claim.object, claim.attribute)
            existing = merged.get(key)
            if existing is not None:
                if existing != claim.value:
                    raise DataError(
                        f"source {claim.source!r} claims two values for "
                        f"({claim.object!r}, {claim.attribute!r}): "
                        f"{existing!r} and {claim.value!r}"
                    )
                continue
            sources.setdefault(claim.source)
            objects.setdefault(claim.object)
            attributes.setdefault(claim.attribute)
            merged[key] = claim.value
            changed = True
        if not changed:
            return self
        extended = object.__new__(Dataset)
        extended._sources = tuple(sources)
        extended._objects = tuple(objects)
        extended._attributes = tuple(attributes)
        extended._name = self._name
        extended._claims = merged
        extended._truth = dict(self._truth)
        extended._attribute_types = dict(self._attribute_types)
        return extended

    def restrict_sources(self, sources: Iterable[SourceId]) -> "Dataset":
        """Project the dataset onto a subset of sources."""
        keep = set(sources)
        unknown = keep - set(self._sources)
        if unknown:
            raise DataError(f"unknown sources in restriction: {sorted(map(str, unknown))}")
        ordered = tuple(s for s in self._sources if s in keep)
        claims = {
            key: v for key, v in self._claims.items() if key[0] in keep
        }
        return Dataset(
            ordered,
            self._objects,
            self._attributes,
            claims,
            self._truth,
            name=f"{self._name}|{len(ordered)}sources",
            attribute_types=self._attribute_types,
        )

    def with_truth(
        self, truth: Mapping[tuple[ObjectId, AttributeId], Value]
    ) -> "Dataset":
        """Return a copy of the dataset with ``truth`` attached."""
        return Dataset(
            self._sources,
            self._objects,
            self._attributes,
            self._claims,
            truth,
            name=self._name,
            attribute_types=self._attribute_types,
        )

    def renamed(self, name: str) -> "Dataset":
        """Return a copy of the dataset with a new display name."""
        return Dataset(
            self._sources,
            self._objects,
            self._attributes,
            self._claims,
            self._truth,
            name=name,
            attribute_types=self._attribute_types,
        )


def _check_unique(kind: str, items: tuple) -> None:
    if len(set(items)) != len(items):
        raise DataError(f"duplicate {kind} identifiers in dataset")
