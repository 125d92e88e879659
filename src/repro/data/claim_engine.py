"""Shared claim-index engine: one incidence structure per dataset.

TD-AC compiles the same dataset into flat claim arrays repeatedly: once
for the reference pass, once per block of the winning partition, and
again for every serving-layer block refresh.  Worse, each per-block pass
first rebuilds a whole restricted :class:`~repro.data.dataset.Dataset`
(dict filtering, claim re-validation) only to immediately recompile it
into arrays.

:class:`ClaimIndexEngine` compiles the dataset **once** into a full
:class:`~repro.data.index.DatasetIndex` and derives every per-block view
by *slicing* the compiled arrays:

* facts are ordered object-major then attribute order, and attribute
  subsetting preserves relative attribute order, so the facts of a block
  are a subsequence of the full fact sequence;
* slots are numbered per fact in first-appearance (source) order — a
  property of the fact's claims alone — so a block's slots are the same
  subsequence of the full slot sequence;
* claims are fact-major and source-ordered within each fact, so a block's
  claims are the corresponding subsequence of the full claim arrays.

A sliced view is therefore **byte-identical** to compiling
``dataset.restrict_attributes(block)`` from scratch (including the
winner tie-breaker, which is seeded by the block's slot count), while
costing a few fancy-indexing passes instead of a dict rebuild plus a
Python compile loop.  ``tests/test_vectorized_engine.py`` pins this
equivalence.

:meth:`ClaimIndexEngine.shared` caches engines on the dataset instance
itself, so the reference pass, the block runs, repeated partition sweeps
and the serving refit path all reuse one structure for as long as the
dataset object is alive, and the structure is freed with it.
"""

from __future__ import annotations

import threading
from functools import cached_property
from itertools import compress
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex, _validate_dtype
from repro.data.types import ATTRIBUTE_TYPES, Claim, DataError, Fact

#: Fact keys pack (object rank, attribute rank) into one int64 as
#: ``obj_rank << _KEY_SHIFT | attr_rank``.  Ranks only ever append, so a
#: fact's key is stable across dataset extensions, and keys sort in the
#: canonical fact order (object-major, then attribute order).
_KEY_SHIFT = 32

#: Guards every dataset's engine cache (``Dataset._claim_engines``).
_ENGINES_LOCK = threading.Lock()

#: Per-engine cap on memoised block views.  Partition sweeps can probe
#: many candidate blocks; the cap bounds memory while keeping every block
#: of a selected partition (typically < 20) resident.
_BLOCK_CACHE_SIZE = 128


class ClaimIndexEngine:
    """Per-dataset factory of shared full and per-block claim indexes."""

    def __init__(self, dataset: Dataset, dtype=np.float64) -> None:
        self._dataset = dataset
        self._dtype = _validate_dtype(dtype)
        self._lock = threading.Lock()
        self._blocks: dict[tuple, DatasetIndex] = {}

    # ------------------------------------------------------------------

    @classmethod
    def shared(cls, dataset: Dataset, dtype=np.float64) -> "ClaimIndexEngine":
        """The process-wide engine of ``dataset`` (created on first use).

        Engines are cached per dtype on the dataset object, so a
        dataset's compiled structure is shared across the reference pass,
        block runs and serving refreshes, and is garbage collected
        together with the dataset once its last outside reference drops.
        """
        resolved = _validate_dtype(dtype)
        with _ENGINES_LOCK:
            engines = dataset._claim_engines
            engine = engines.get(resolved.name)
            if engine is None:
                engine = cls(dataset, dtype=resolved)
                engines[resolved.name] = engine
        return engine

    @property
    def dataset(self) -> Dataset:
        """The dataset this engine compiles."""
        return self._dataset

    @property
    def dtype(self) -> np.dtype:
        """Working dtype of every index the engine hands out."""
        return self._dtype

    @cached_property
    def full_index(self) -> DatasetIndex:
        """The compiled index of the whole dataset."""
        return DatasetIndex(self._dataset, dtype=self._dtype)

    @cached_property
    def _fact_attribute(self) -> np.ndarray:
        """Attribute rank (dataset attribute order) of every fact."""
        return (self._fact_keys & ((1 << _KEY_SHIFT) - 1)).astype(np.int64)

    @cached_property
    def attribute_type_masks(self) -> dict:
        """Boolean mask over attribute ranks for every value family.

        ``masks["continuous"][rank]`` is True when the attribute at
        ``rank`` is tagged continuous; an untyped dataset yields an
        all-True categorical mask.  The estimator router and typed
        metrics use these to split compiled structures without touching
        identifier dicts.
        """
        attrs = self._dataset.attributes
        masks = {
            kind: np.zeros(len(attrs), dtype=bool) for kind in ATTRIBUTE_TYPES
        }
        for rank, attribute in enumerate(attrs):
            masks[self._dataset.attribute_type(attribute)][rank] = True
        return masks

    def fact_type_mask(self, kind: str) -> np.ndarray:
        """Boolean mask over full-index facts whose attribute is ``kind``."""
        return self.attribute_type_masks[kind][self._fact_attribute]

    # -- delta-compile support structures ------------------------------
    #
    # Everything below is computed lazily from the full index on a cold
    # engine and *spliced* (not recomputed) when an engine is derived via
    # :meth:`extended`, so per-batch compile cost stays proportional to
    # the batch, not the corpus.

    @cached_property
    def _src_rank(self) -> dict:
        return {s: i for i, s in enumerate(self._dataset.sources)}

    @cached_property
    def _obj_rank(self) -> dict:
        return {o: i for i, o in enumerate(self._dataset.objects)}

    @cached_property
    def _attr_rank(self) -> dict:
        return {a: i for i, a in enumerate(self._dataset.attributes)}

    @cached_property
    def _fact_keys(self) -> np.ndarray:
        """Packed (object, attribute) rank key of every fact, ascending."""
        full = self.full_index
        obj_rank = self._obj_rank
        attr_rank = self._attr_rank
        return np.fromiter(
            (
                (obj_rank[fact.object] << _KEY_SHIFT)
                | attr_rank[fact.attribute]
                for fact in full.facts
            ),
            dtype=np.int64,
            count=full.n_facts,
        )

    @cached_property
    def _fact_claim_start(self) -> np.ndarray:
        """Start offset of every fact's claim segment (plus sentinel)."""
        full = self.full_index
        return np.searchsorted(
            full.claim_fact, np.arange(full.n_facts + 1)
        ).astype(np.int64)

    @cached_property
    def _facts_obj(self) -> np.ndarray:
        """The fact tuple as an object ndarray (for vectorised splicing)."""
        full = self.full_index
        out = np.empty(full.n_facts, dtype=object)
        out[:] = list(full.facts)
        return out

    @cached_property
    def _slot_values_obj(self) -> np.ndarray:
        """The slot-value tuple as an object ndarray (for splicing)."""
        full = self.full_index
        out = np.empty(full.n_slots, dtype=object)
        out[:] = list(full.slot_values)
        return out

    def fact_id(self, obj, attribute) -> int:
        """Full-index fact id of ``(obj, attribute)``, or -1 if unclaimed."""
        obj_rank = self._obj_rank.get(obj)
        attr_rank = self._attr_rank.get(attribute)
        if obj_rank is None or attr_rank is None:
            return -1
        key = (obj_rank << _KEY_SHIFT) | attr_rank
        keys = self._fact_keys
        pos = int(np.searchsorted(keys, key))
        if pos < len(keys) and keys[pos] == key:
            return pos
        return -1

    def fact_claims(self, fact_id: int) -> tuple[np.ndarray, list]:
        """Source ids and claimed values of one full-index fact."""
        full = self.full_index
        starts = self._fact_claim_start
        lo, hi = int(starts[fact_id]), int(starts[fact_id + 1])
        slots = full.claim_slot[lo:hi]
        values = [full.slot_values[int(slot)] for slot in slots]
        return full.claim_source[lo:hi], values

    # ------------------------------------------------------------------

    def extended(
        self, dataset: Dataset, fresh: Sequence[Claim]
    ) -> "ClaimIndexEngine":
        """Delta-compile an engine for ``dataset`` = this dataset + ``fresh``.

        ``dataset`` must be the append-only extension of this engine's
        dataset by exactly the (deduplicated) claims in ``fresh``.  The
        compiled arrays of the child's full index are *spliced*: facts a
        new claim touches (plus brand-new facts) are recompiled from
        their merged claim lists, every other fact's slot and claim
        segments are bulk-copied — so the result is byte-identical to
        ``DatasetIndex(dataset)`` (``tests/test_incremental_exact.py``
        pins this) at O(batch + corpus memcpy) instead of a full Python
        compile loop.  The child engine is cached on ``dataset``, so any
        later ``ClaimIndexEngine.shared(dataset)`` — e.g. a full refit
        over the extended corpus — reuses the spliced compile.

        Raises :class:`ValueError` when ``dataset`` is not an append-only
        extension (callers fall back to a cold compile).
        """
        old_ds = self._dataset
        if (
            dataset.sources[: len(old_ds.sources)] != old_ds.sources
            or dataset.objects[: len(old_ds.objects)] != old_ds.objects
            or dataset.attributes[: len(old_ds.attributes)]
            != old_ds.attributes
        ):
            raise ValueError(
                "dataset is not an append-only extension of this engine's"
            )
        if dataset.n_claims != old_ds.n_claims + len(fresh):
            raise ValueError(
                f"expected {old_ds.n_claims} + {len(fresh)} claims, "
                f"dataset holds {dataset.n_claims}"
            )
        old = self.full_index

        # Extended rank maps: new identifiers append at the tail.
        src_rank = dict(self._src_rank)
        for s in dataset.sources[len(src_rank):]:
            src_rank[s] = len(src_rank)
        obj_rank = dict(self._obj_rank)
        for o in dataset.objects[len(obj_rank):]:
            obj_rank[o] = len(obj_rank)
        attr_rank = dict(self._attr_rank)
        for a in dataset.attributes[len(attr_rank):]:
            attr_rank[a] = len(attr_rank)

        # Group the fresh claims by fact key.
        new_by_key: dict[int, list[Claim]] = {}
        for claim in fresh:
            key = (obj_rank[claim.object] << _KEY_SHIFT) | attr_rank[
                claim.attribute
            ]
            new_by_key.setdefault(key, []).append(claim)

        old_keys = self._fact_keys
        changed_keys = np.sort(
            np.fromiter(new_by_key, dtype=np.int64, count=len(new_by_key))
        )
        pos = np.searchsorted(old_keys, changed_keys)
        exists = (pos < old.n_facts) & (
            old_keys[np.minimum(pos, max(old.n_facts - 1, 0))] == changed_keys
        )
        created_keys = changed_keys[~exists]
        n_created = len(created_keys)
        n_facts = old.n_facts + n_created
        # New id of every old fact: shifted by the created facts that
        # sort before it; created facts slot into the gaps in key order.
        old_to_new = np.arange(old.n_facts) + np.searchsorted(
            created_keys, old_keys
        )
        created_new_ids = pos[~exists] + np.arange(n_created)
        touched_old_ids = pos[exists]
        changed_new_ids = np.concatenate(
            [old_to_new[touched_old_ids], created_new_ids]
        ).astype(np.int64)
        changed_order = np.concatenate(
            [changed_keys[exists], created_keys]
        )

        # Recompile each changed fact from its merged, source-ranked
        # claim list — the same per-fact walk the cold compiler does.
        old_starts = self._fact_claim_start
        compiled: dict[int, tuple] = {}
        for key, new_id, is_old in zip(
            changed_order.tolist(),
            changed_new_ids.tolist(),
            np.concatenate(
                [np.ones(len(touched_old_ids), bool), np.zeros(n_created, bool)]
            ).tolist(),
        ):
            batch_claims = new_by_key[key]
            merged: list[tuple[int, object]] = [
                (src_rank[c.source], c.value) for c in batch_claims
            ]
            if is_old:
                old_id = int(np.searchsorted(old_keys, key))
                src_ids, values = self.fact_claims(old_id)
                merged.extend(zip(src_ids.tolist(), values))
                fact = old.facts[old_id]
            else:
                first = batch_claims[0]
                fact = Fact(first.object, first.attribute)
            merged.sort(key=lambda item: item[0])
            local: dict = {}
            slot_vals: list = []
            claim_srcs: list[int] = []
            claim_slots: list[int] = []
            for rank_id, value in merged:
                slot = local.get(value)
                if slot is None:
                    slot = len(slot_vals)
                    local[value] = slot
                    slot_vals.append(value)
                claim_srcs.append(rank_id)
                claim_slots.append(slot)
            truth = dataset.true_value(fact)
            true_local = local.get(truth, -1) if truth is not None else -1
            compiled[new_id] = (fact, slot_vals, claim_srcs, claim_slots, true_local)

        # Per-fact slot/claim counts: bulk-place the old counts, then
        # overwrite the changed facts'.
        slot_counts = np.zeros(n_facts, dtype=np.int64)
        claim_counts = np.zeros(n_facts, dtype=np.int64)
        slot_counts[old_to_new] = np.diff(old.fact_slot_start)
        claim_counts[old_to_new] = np.diff(old_starts)
        for new_id, (_, slot_vals, claim_srcs, _, _) in compiled.items():
            slot_counts[new_id] = len(slot_vals)
            claim_counts[new_id] = len(claim_srcs)
        fact_slot_start = np.zeros(n_facts + 1, dtype=np.int64)
        np.cumsum(slot_counts, out=fact_slot_start[1:])
        fact_claim_start = np.zeros(n_facts + 1, dtype=np.int64)
        np.cumsum(claim_counts, out=fact_claim_start[1:])
        n_slots = int(fact_slot_start[-1])
        n_claims = int(fact_claim_start[-1])
        slot_fact = np.repeat(np.arange(n_facts, dtype=np.int64), slot_counts)
        claim_fact = np.repeat(np.arange(n_facts, dtype=np.int64), claim_counts)

        # Bulk-copy the unchanged facts' claim and slot segments into
        # their new positions (vectorised scatter; changed facts' slots
        # are filled from the recompiles below).
        touched_mask = np.zeros(old.n_facts, dtype=bool)
        touched_mask[touched_old_ids] = True
        claim_source = np.empty(n_claims, dtype=np.int64)
        claim_slot_local = np.empty(n_claims, dtype=np.int64)
        if old.n_claims:
            keep = ~touched_mask[old.claim_fact]
            old_local = np.arange(old.n_claims) - old_starts[old.claim_fact]
            new_pos = (
                fact_claim_start[old_to_new[old.claim_fact]] + old_local
            )
            claim_source[new_pos[keep]] = old.claim_source[keep]
            old_slot_local = old.claim_slot - old.fact_slot_start[
                old.claim_fact
            ]
            claim_slot_local[new_pos[keep]] = old_slot_local[keep]
        slot_values_obj = np.empty(n_slots, dtype=object)
        if old.n_slots:
            slot_keep = ~touched_mask[old.slot_fact]
            old_slot_off = np.arange(old.n_slots) - old.fact_slot_start[
                old.slot_fact
            ]
            new_slot_pos = (
                fact_slot_start[old_to_new[old.slot_fact]] + old_slot_off
            )
            slot_values_obj[new_slot_pos[slot_keep]] = self._slot_values_obj[
                slot_keep
            ]
        true_local_all = np.full(n_facts, -1, dtype=np.int64)
        if old.n_facts:
            old_true_local = np.where(
                old.true_slot >= 0,
                old.true_slot - old.fact_slot_start[:-1],
                -1,
            )
            true_local_all[old_to_new] = old_true_local
        facts_obj = np.empty(n_facts, dtype=object)
        facts_obj[old_to_new] = self._facts_obj

        for new_id, (fact, slot_vals, claim_srcs, claim_slots, t_local) in (
            compiled.items()
        ):
            s0 = int(fact_slot_start[new_id])
            slot_values_obj[s0:s0 + len(slot_vals)] = slot_vals
            c0 = int(fact_claim_start[new_id])
            claim_source[c0:c0 + len(claim_srcs)] = claim_srcs
            claim_slot_local[c0:c0 + len(claim_slots)] = claim_slots
            true_local_all[new_id] = t_local
            facts_obj[new_id] = fact

        claim_slot = claim_slot_local + fact_slot_start[claim_fact]
        true_slot = np.where(
            true_local_all >= 0,
            true_local_all + fact_slot_start[:-1],
            -1,
        ).astype(np.int64)
        fact_keys = np.empty(n_facts, dtype=np.int64)
        fact_keys[old_to_new] = old_keys
        fact_keys[created_new_ids] = created_keys

        index = DatasetIndex._from_parts(
            dataset=dataset,
            facts=tuple(facts_obj),
            slot_values=tuple(slot_values_obj),
            slot_fact=slot_fact,
            fact_slot_start=fact_slot_start,
            claim_source=claim_source,
            claim_fact=claim_fact,
            claim_slot=claim_slot,
            true_slot=true_slot,
            dtype=self._dtype,
        )
        child = ClaimIndexEngine(dataset, dtype=self._dtype)
        child.full_index = index
        child._src_rank = src_rank
        child._obj_rank = obj_rank
        child._attr_rank = attr_rank
        child._fact_keys = fact_keys
        child._fact_claim_start = fact_claim_start
        child._facts_obj = facts_obj
        child._slot_values_obj = slot_values_obj
        with _ENGINES_LOCK:
            dataset._claim_engines.setdefault(self._dtype.name, child)
        return child

    # ------------------------------------------------------------------

    def block_index(self, block: Iterable[Hashable]) -> DatasetIndex:
        """The sliced index of one attribute block (memoised).

        ``block`` is a collection of attribute ids; the view is identical
        to ``DatasetIndex(dataset.restrict_attributes(block))`` but built
        by slicing the full index's arrays.
        """
        key = tuple(block)
        with self._lock:
            cached = self._blocks.get(key)
        if cached is not None:
            return cached
        view = self._slice_block(key)
        with self._lock:
            if len(self._blocks) >= _BLOCK_CACHE_SIZE:
                # Drop the oldest half; plain dicts preserve insertion
                # order, so this evicts the least recently inserted views.
                for stale in list(self._blocks)[: _BLOCK_CACHE_SIZE // 2]:
                    del self._blocks[stale]
            self._blocks[key] = view
        return view

    def _slice_block(self, block: tuple) -> DatasetIndex:
        rank = {a: i for i, a in enumerate(self._dataset.attributes)}
        unknown = [a for a in block if a not in rank]
        if unknown:
            raise DataError(
                f"unknown attributes in block: {sorted(map(str, unknown))}"
            )
        full = self.full_index
        keep_attribute = np.zeros(len(self._dataset.attributes), dtype=bool)
        keep_attribute[[rank[a] for a in block]] = True

        fact_keep = keep_attribute[self._fact_attribute]
        slot_keep = fact_keep[full.slot_fact]
        claim_keep = fact_keep[full.claim_fact]

        # Old id -> new id maps (only valid where the element is kept).
        new_fact_id = np.cumsum(fact_keep, dtype=np.int64) - 1
        new_slot_id = np.cumsum(slot_keep, dtype=np.int64) - 1

        facts = tuple(compress(full.facts, fact_keep))
        slot_values = tuple(compress(full.slot_values, slot_keep))
        slot_fact = new_fact_id[full.slot_fact[slot_keep]]
        slots_of_kept = np.diff(full.fact_slot_start)[fact_keep]
        fact_slot_start = np.concatenate(
            ([0], np.cumsum(slots_of_kept))
        ).astype(np.int64)
        claim_source = full.claim_source[claim_keep]
        claim_fact = new_fact_id[full.claim_fact[claim_keep]]
        claim_slot = new_slot_id[full.claim_slot[claim_keep]]
        kept_true = full.true_slot[fact_keep]
        true_slot = np.where(
            kept_true >= 0, new_slot_id[np.maximum(kept_true, 0)], -1
        ).astype(np.int64)

        return DatasetIndex._from_parts(
            dataset=self._dataset,
            facts=facts,
            slot_values=slot_values,
            slot_fact=slot_fact,
            fact_slot_start=fact_slot_start,
            claim_source=claim_source,
            claim_fact=claim_fact,
            claim_slot=claim_slot,
            true_slot=true_slot,
            dtype=self._dtype,
        )
