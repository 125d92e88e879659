"""Compiled numeric view of a :class:`~repro.data.dataset.Dataset`.

Iterative truth discovery algorithms run tens of passes over every claim,
so they operate on flat integer arrays rather than on dictionaries.  A
:class:`DatasetIndex` compiles a dataset once into:

* ``claim_source`` / ``claim_fact`` / ``claim_slot`` — one entry per claim,
  holding the integer id of the claiming source, the claimed fact, and the
  *value slot* (the pair (fact, distinct value)) the claim votes for;
* ``slot_fact`` — the fact id of every value slot, with slots of the same
  fact contiguous, so per-fact reductions are ``np.*.reduceat`` calls over
  ``fact_slot_start`` offsets;
* ``true_slot`` — for every fact, the slot of the ground-truth value if
  some source actually claimed it, else ``-1``.

The segment helpers (:func:`segment_sum`, :func:`segment_max`,
:func:`segment_argmax`, :func:`segment_mean`) implement the per-fact
reductions every algorithm needs (vote totals, soft-max normalisation,
winner selection).
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.types import Fact, Value


def segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of ``values`` within each contiguous segment.

    ``starts`` holds the begin offset of every segment plus a final
    sentinel equal to ``len(values)``.
    """
    if len(values) == 0:
        return np.zeros(len(starts) - 1, dtype=float)
    return np.add.reduceat(values, starts[:-1])


def segment_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Maximum of ``values`` within each contiguous segment."""
    if len(values) == 0:
        return np.zeros(len(starts) - 1, dtype=float)
    return np.maximum.reduceat(values, starts[:-1])


def segment_argmax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index (into ``values``) of the per-segment maximum.

    Ties break toward the lowest index, i.e. the earliest-seen value slot,
    which makes winner selection deterministic.
    """
    n_segments = len(starts) - 1
    out = np.empty(n_segments, dtype=np.int64)
    maxima = segment_max(values, starts)
    is_max = values == np.repeat(maxima, np.diff(starts))
    positions = np.arange(len(values))
    # First position achieving the max in each segment.
    candidates = np.where(is_max, positions, len(values))
    out = np.minimum.reduceat(candidates, starts[:-1]) if len(values) else out
    return out


def segment_mean(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of ``values`` within each contiguous segment."""
    sizes = np.diff(starts)
    sums = segment_sum(values, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(sizes > 0, sums / np.maximum(sizes, 1), 0.0)
    return means


#: Working dtypes an index may carry.  float64 is the bit-identical
#: default; float32 halves the memory of every per-iteration array and
#: routes the incidence reductions through CSR GEMV (see ``slot_scores``).
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _validate_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported index dtype {resolved.name!r}; supported: {supported}"
        )
    return resolved


#: Fact keys pack (object rank, attribute rank) into one int64 as
#: ``obj_rank << _KEY_SHIFT | attr_rank``.  Ranks only ever append, so a
#: fact's key is stable across dataset extensions, and keys sort in the
#: canonical fact order (object-major, then attribute order).
_KEY_SHIFT = 32


def compile_claims(dataset: Dataset) -> dict:
    """Compile ``dataset``'s claims into the flat arrays of an index.

    Passes over the raw claim mapping give every claim its source
    rank and a dense ``(fact, value)`` id; value equality is Python's,
    so ``1``, ``1.0`` and ``True`` claimed for the same fact share an
    id, while the same values in different facts do not.  Claims are
    then sorted by (fact, source rank), and the slots of every fact are
    numbered by their first claim in that order.  Each slot's value is
    the one its first claim carries, not an arbitrary member of its
    equality class.

    Returns the index fields by name: ``facts``, ``slot_values``,
    ``slot_fact``, ``fact_slot_start``, ``claim_source``, ``claim_fact``,
    ``claim_slot`` and ``true_slot``.
    """
    claims = dataset.claims
    n_claims = len(claims)
    src_rank = {s: i for i, s in enumerate(dataset.sources)}
    obj_rank = {o: i for i, o in enumerate(dataset.objects)}
    attr_rank = {a: i for i, a in enumerate(dataset.attributes)}
    pair_ids: dict = {}
    claim_pair = np.fromiter(
        (
            pair_ids.setdefault((o, a, v), len(pair_ids))
            for (_, o, a), v in claims.items()
        ),
        dtype=np.int64,
        count=n_claims,
    )
    source = np.fromiter(
        (src_rank[s] for s, _, _ in claims), dtype=np.int64, count=n_claims
    )
    pair_fact_key = np.fromiter(
        ((obj_rank[o] << _KEY_SHIFT) | attr_rank[a] for o, a, _ in pair_ids),
        dtype=np.int64,
        count=len(pair_ids),
    )
    claim_fact_key = pair_fact_key[claim_pair]
    order = np.lexsort((source, claim_fact_key))
    claim_fact = np.unique(claim_fact_key[order], return_inverse=True)[1]
    sorted_pairs = claim_pair[order]
    # Pair ids are dense, so ``first[p]`` is pair p's first position in
    # (fact, source) order; numbering pairs by it gives the slot ids.
    first = np.unique(sorted_pairs, return_index=True)[1]
    slot_order = np.argsort(first)
    slot_of_pair = np.empty(len(first), dtype=np.int64)
    slot_of_pair[slot_order] = np.arange(len(first), dtype=np.int64)
    slot_first = first[slot_order]
    slot_fact = claim_fact[slot_first].astype(np.int64)
    n_facts = len(dataset.facts)
    fact_slot_start = np.searchsorted(
        slot_fact, np.arange(n_facts + 1)
    ).astype(np.int64)

    values = list(claims.values())
    true_slot = np.full(n_facts, -1, dtype=np.int64)
    for (o, a), truth in dataset.truth.items():
        pair = pair_ids.get((o, a, truth)) if truth is not None else None
        if pair is not None:
            slot = slot_of_pair[pair]
            true_slot[slot_fact[slot]] = slot
    return {
        # The dataset's own Fact objects, in the same canonical order:
        # lookups keyed by them then hit on identity, never on __eq__.
        "facts": dataset.facts,
        "slot_values": tuple(
            values[i] for i in order[slot_first].tolist()
        ),
        "slot_fact": slot_fact,
        "fact_slot_start": fact_slot_start,
        "claim_source": source[order],
        "claim_fact": claim_fact.astype(np.int64),
        "claim_slot": slot_of_pair[sorted_pairs],
        "true_slot": true_slot,
    }


class SlotPairLayout(NamedTuple):
    """Lower-triangle provider pairs of every slot, for discounted votes.

    Positions index the slot-sorted claim sequence
    (``DatasetIndex.slot_claim_starts``).  Provider ``i`` of a slot is
    discounted against providers ``j < i`` of the same slot:

    * ``pos_i`` / ``pos_j`` hold every such (i, j) pair, flattened;
    * ``row_starts`` delimits each provider's run of pairs (plus a
      sentinel), so per-provider products are one ``multiply.reduceat``;
      ``row_pos`` is the provider position of each run;
    * ``single_slots`` / ``single_pos``: one-provider slots and their
      provider's position;
    * ``groups``: one ``(slots, gather)`` pair per provider count
      ``n >= 2``, ascending — ``gather`` is the ``(b, n)`` position
      array of the group's ``b`` slots.
    """

    row_pos: np.ndarray
    row_starts: np.ndarray
    pos_i: np.ndarray
    pos_j: np.ndarray
    single_slots: np.ndarray
    single_pos: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


class DatasetIndex:
    """Flat integer-array view of a dataset for vectorised algorithms.

    ``dtype`` selects the working precision of the reductions: the
    default ``float64`` keeps every output bit-identical to the original
    per-claim loops, while ``float32`` is an opt-in reduced-precision
    path for large datasets (see ``TDACConfig.dtype``).

    An index compiled directly holds its dataset; one handed out by a
    :class:`~repro.data.claim_engine.ClaimIndexEngine` holds it weakly,
    because the engine lives on the dataset and a strong reference back
    would keep every indexed corpus alive until the cyclic collector
    runs.  Solving never needs the dataset: the source ids an algorithm
    reports are in :attr:`sources`.
    """

    def __init__(self, dataset: Dataset, dtype=np.float64) -> None:
        self._assign(dataset, dataset, dtype, compile_claims(dataset))

    @classmethod
    def _from_parts(
        cls, dataset: Dataset, dtype=np.float64, **parts
    ) -> "DatasetIndex":
        """Assemble an engine-owned index from compiled arrays.

        Used by :class:`~repro.data.claim_engine.ClaimIndexEngine` for
        its full index and to slice per-block views out of it.
        ``parts`` are the fields :func:`compile_claims` returns, and
        must satisfy the layout invariants it produces (facts
        object-major, slots in first-appearance order, claims
        fact-major and source-ordered).  The index refers to
        ``dataset`` weakly.
        """
        index = object.__new__(cls)
        index._assign(weakref.ref(dataset), dataset, dtype, parts)
        return index

    def _assign(self, held, dataset: Dataset, dtype, parts: dict) -> None:
        self._dataset = held
        self.dtype = _validate_dtype(dtype)
        self.sources = dataset.sources
        self.n_sources = len(dataset.sources)
        self.facts: tuple[Fact, ...] = parts["facts"]
        self.slot_values: tuple[Value, ...] = parts["slot_values"]
        self.slot_fact = parts["slot_fact"]
        self.fact_slot_start = parts["fact_slot_start"]
        self.claim_source = parts["claim_source"]
        self.claim_fact = parts["claim_fact"]
        self.claim_slot = parts["claim_slot"]
        self.true_slot = parts["true_slot"]
        self.n_facts = len(self.facts)
        self.n_slots = len(self.slot_values)
        self.n_claims = len(self.claim_source)

    @property
    def dataset(self) -> Dataset:
        """The dataset this index was compiled from.

        Raises :class:`ReferenceError` on an engine-owned index whose
        dataset has been freed.
        """
        dataset = self._dataset
        if isinstance(dataset, weakref.ref):
            dataset = dataset()
            if dataset is None:
                raise ReferenceError("the dataset of this index was freed")
        return dataset

    def __getstate__(self) -> dict:
        # A weak reference cannot be pickled; a copy holds its dataset.
        state = dict(self.__dict__)
        state["_dataset"] = self.dataset
        return state

    @cached_property
    def claims_per_source(self) -> np.ndarray:
        """Number of claims made by every source (may contain zeros)."""
        counts = np.bincount(self.claim_source, minlength=self.n_sources)
        return counts.astype(self.dtype)

    @cached_property
    def claims_per_fact(self) -> np.ndarray:
        """Number of claims received by every fact."""
        counts = np.bincount(self.claim_fact, minlength=self.n_facts)
        return counts.astype(self.dtype)

    @cached_property
    def slots_per_fact(self) -> np.ndarray:
        """Number of distinct claimed values per fact."""
        return np.diff(self.fact_slot_start).astype(self.dtype)

    @cached_property
    def votes_per_slot(self) -> np.ndarray:
        """Number of sources voting for every value slot."""
        counts = np.bincount(self.claim_slot, minlength=self.n_slots)
        return counts.astype(self.dtype)

    # ------------------------------------------------------------------
    # Shared incidence structure (CSR views + slot segmentation)
    # ------------------------------------------------------------------

    @cached_property
    def incidence_slot_source(self):
        """CSR ``(n_slots, n_sources)`` claim incidence in ``dtype``.

        ``incidence_slot_source @ w`` is the weighted vote total of every
        slot — the GEMV form of :meth:`slot_scores`, used on the float32
        path (``np.bincount`` always accumulates in float64).
        """
        from scipy import sparse

        data = np.ones(self.n_claims, dtype=self.dtype)
        return sparse.csr_matrix(
            (data, (self.claim_slot, self.claim_source)),
            shape=(self.n_slots, self.n_sources),
        )

    @cached_property
    def incidence_source_slot(self):
        """CSR ``(n_sources, n_slots)`` claim incidence in ``dtype``."""
        from scipy import sparse

        data = np.ones(self.n_claims, dtype=self.dtype)
        return sparse.csr_matrix(
            (data, (self.claim_source, self.claim_slot)),
            shape=(self.n_sources, self.n_slots),
        )

    @cached_property
    def incidence_source_fact(self):
        """CSR ``(n_sources, n_facts)`` fact-coverage incidence."""
        from scipy import sparse

        data = np.ones(self.n_claims, dtype=self.dtype)
        return sparse.csr_matrix(
            (data, (self.claim_source, self.claim_fact)),
            shape=(self.n_sources, self.n_facts),
        )

    @cached_property
    def claims_slot_sorted(self) -> np.ndarray:
        """Claim positions stably sorted by slot id.

        Claims of the same slot keep their original (source) order, so
        ``claims_slot_sorted`` groups every slot's providers into one
        contiguous run — the segmentation the vectorized discounted-vote
        kernel reduces over.
        """
        return np.argsort(self.claim_slot, kind="stable")

    @cached_property
    def slot_claim_starts(self) -> np.ndarray:
        """Start offset of every slot's run in slot-sorted claim order.

        Length ``n_slots + 1`` (the last entry is ``n_claims``), so slot
        ``v``'s providers occupy ``claims_slot_sorted[starts[v]:starts[v+1]]``.
        """
        sorted_slots = self.claim_slot[self.claims_slot_sorted]
        return np.searchsorted(
            sorted_slots, np.arange(self.n_slots + 1)
        ).astype(np.int64)

    @cached_property
    def slot_pair_layout(self) -> SlotPairLayout:
        """Provider-pair layout of every slot, in slot-sorted claim order.

        Depends only on the slot sizes, so it is computed once per index
        and reused by every iteration of every solve over it (see
        :class:`SlotPairLayout`).
        """
        starts = self.slot_claim_starts
        sizes = np.diff(starts)
        first = starts[:-1]
        local = np.arange(self.n_claims) - np.repeat(first, sizes)
        row_pos = np.flatnonzero(local >= 1)
        row_len = local[row_pos]
        row_starts = np.concatenate(([0], np.cumsum(row_len))).astype(np.int64)
        pos_i = np.repeat(row_pos, row_len)
        slot_start_of_row = np.repeat(first, sizes)[row_pos]
        pos_j = (
            np.arange(len(pos_i), dtype=np.int64)
            - np.repeat(row_starts[:-1], row_len)
            + np.repeat(slot_start_of_row, row_len)
        )
        single = sizes == 1
        groups = []
        for size in np.unique(sizes[sizes > 1]).tolist():
            slots = np.flatnonzero(sizes == size)
            groups.append((slots, first[slots][:, None] + np.arange(size)))
        return SlotPairLayout(
            row_pos=row_pos,
            row_starts=row_starts,
            pos_i=pos_i,
            pos_j=pos_j,
            single_slots=np.flatnonzero(single),
            single_pos=first[single],
            groups=tuple(groups),
        )

    @cached_property
    def _tie_breaker(self) -> np.ndarray:
        """Deterministic pseudo-random slot ranks for breaking exact ties.

        Breaking ties by first-seen slot correlates with source order,
        which silently hands every tied fact to whichever source happens
        to be enumerated first; a fixed random permutation decorrelates
        the choice while keeping runs reproducible.
        """
        rng = np.random.default_rng(0x7B5 + self.n_slots)
        return rng.permutation(self.n_slots).astype(float)

    # ------------------------------------------------------------------
    # Core reductions used by the algorithm engine
    # ------------------------------------------------------------------

    def slot_scores(self, source_weight: np.ndarray) -> np.ndarray:
        """Weighted vote total of every slot given per-source weights.

        float64 accumulates through ``np.bincount`` (bit-identical to the
        historical path); float32 routes through the CSR incidence GEMV,
        which stays in single precision end to end.
        """
        if self.dtype == np.float64:
            return np.bincount(
                self.claim_slot,
                weights=source_weight[self.claim_source],
                minlength=self.n_slots,
            )
        weights = np.asarray(source_weight, dtype=self.dtype)
        return self.incidence_slot_source @ weights

    def sum_per_slot(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its value slot."""
        out = np.bincount(
            self.claim_slot, weights=per_claim, minlength=self.n_slots
        )
        return out.astype(self.dtype, copy=False)

    def sum_per_fact(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its fact."""
        out = np.bincount(
            self.claim_fact, weights=per_claim, minlength=self.n_facts
        )
        return out.astype(self.dtype, copy=False)

    def sum_per_source(self, per_claim: np.ndarray) -> np.ndarray:
        """Sum an arbitrary per-claim quantity into its claiming source."""
        out = np.bincount(
            self.claim_source, weights=per_claim, minlength=self.n_sources
        )
        return out.astype(self.dtype, copy=False)

    def normalize_per_fact(self, slot_score: np.ndarray) -> np.ndarray:
        """Scale slot scores so they sum to one within every fact."""
        totals = segment_sum(slot_score, self.fact_slot_start)
        safe = np.where(totals > 0, totals, 1.0)
        return slot_score / safe[self.slot_fact]

    def softmax_per_fact(self, slot_score: np.ndarray) -> np.ndarray:
        """Numerically-stable soft-max of slot scores within every fact."""
        maxima = segment_max(slot_score, self.fact_slot_start)
        shifted = np.exp(slot_score - maxima[self.slot_fact])
        totals = segment_sum(shifted, self.fact_slot_start)
        return shifted / totals[self.slot_fact]

    def winning_slots(self, slot_score: np.ndarray) -> np.ndarray:
        """Per-fact slot id with the highest score.

        Exact ties break by a fixed pseudo-random slot rank (see
        ``_tie_breaker``), not by claim order.
        """
        maxima = segment_max(slot_score, self.fact_slot_start)
        is_max = slot_score == maxima[self.slot_fact]
        candidates = np.where(is_max, self._tie_breaker, -1.0)
        return segment_argmax(candidates, self.fact_slot_start)

    def source_mean_of_slots(self, slot_value: np.ndarray) -> np.ndarray:
        """Per-source mean of a per-slot quantity over the slots it voted for.

        This is the generic "trustworthiness = average confidence of
        provided values" update.  Sources with no claims get 0.
        """
        if self.dtype == np.float64:
            sums = np.bincount(
                self.claim_source,
                weights=slot_value[self.claim_slot],
                minlength=self.n_sources,
            )
        else:
            values = np.asarray(slot_value, dtype=self.dtype)
            sums = self.incidence_source_slot @ values
        counts = self.claims_per_source
        return np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)

    def predictions_from_slots(self, winners: np.ndarray) -> dict[Fact, Value]:
        """Materialise per-fact winning slots into a fact → value mapping."""
        return {
            fact: self.slot_values[winners[f_id]]
            for f_id, fact in enumerate(self.facts)
        }
