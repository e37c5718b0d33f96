"""Module (a)'s one build: candidate explanations and the delta ledger
behind :class:`~repro.cube.datacube.ExplanationCube`.

Candidates (Definition 3.1)
---------------------------
Given explain-by attributes ``A`` and an order threshold ``beta_max``, the
candidates are all conjunctions ``A_1=a_1 & ... & A_beta=a_beta`` with
``beta <= beta_max`` that select at least one row of the relation.  They
are emitted by order, then by attribute tuple, then by values.

Containment deduplication
-------------------------
Hierarchical attributes (e.g. S&P 500's ``category -> subcategory -> stock``)
make many conjunctions redundant: ``category=tech & subcategory=software``
selects exactly the rows of ``subcategory=software``.  Keeping both would
bias the cascading-analysts search and inflate ``epsilon``.  We drop any
candidate whose support equals the support of one of its order-(beta-1)
sub-conjunctions; this reproduces the paper's candidate counts (e.g.
``epsilon = 610 = 11 + 96 + 503`` for S&P 500, Table 6).  Redundant groups
stay in the ledger, so redundancy chains through dropped intermediates.

The ledger
----------
The paper's real-time section (section 8) needs the cube to absorb newly
arrived rows in O(delta) instead of rebuilding from the full relation.
The finalized ``included``/``excluded`` matrices alone cannot do that for
AVG/VAR — finalization is lossy — so the cube retains the pre-finalize
aggregate **states** it was built from:

* one ``(n_components, n_groups, n_times)`` state array per explain-by
  attribute subset,
* per-group row counts, group values, redundancy flags and parent-group
  maps (the candidate ledger), and
* the overall query's state.

A build *is* an append: :meth:`CubeAppendState.empty` holds one empty
:class:`SubsetLedger` per attribute subset (lower orders first), and the
relation is its first delta.  :meth:`CubeAppendState.apply_delta` scatters
a delta relation's rows into those arrays **in row order with unbuffered**
``np.add.at`` **updates**, so build-then-append is *bit-identical* to
building over ``base.concat(delta)``.  Appends can create candidates (a
new value combination, or a formerly containment-redundant group whose
parent outgrew it) but never destroy them: supports grow monotonically
and a child can never outgrow its parent, so group slots are append-only.

Time-axis contract
------------------
A delta row's timestamp must be either an existing label (late-arriving
records are scattered into that column) or strictly greater than the
cube's last label (the axis is extended).  A *new* label that sorts before
the current last label would shift every later time position and silently
re-index history, so it raises :class:`~repro.exceptions.QueryError`.
Rows inside the delta may arrive in any order.

Buffers grow geometrically along the time axis, so a long-running stream
pays an amortized O(delta) per update rather than an O(n) reallocation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import BackfillError, ExplanationError, SchemaError
from repro.relation.aggregates import AggregateFunction
from repro.relation.predicates import Conjunction
from repro.relation.schema import Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.relation.table import Relation


#: The one NaN every float NaN value maps to.  A NaN equals nothing, not
#: even itself, so tuple and dict lookups of group and label keys can
#: match NaNs only by identity.
_NAN = float("nan")


def _python_value(value: object) -> object:
    """The Python scalar a ledger keys on: numpy scalars unwrapped, and
    every float NaN the shared :data:`_NAN`."""
    value = value.item() if hasattr(value, "item") else value
    return _NAN if isinstance(value, float) and value != value else value


@dataclass(frozen=True)
class AppendInfo:
    """What one :meth:`ExplanationCube.append` actually changed.

    Consumers use this to invalidate exactly the derived artifacts the
    append touched: :meth:`repro.core.session.ExplainSession.append` drops
    only the scorer-LRU entries whose window overlaps
    ``first_changed_position``, and the streaming re-segmentation reuses
    every unit object strictly before it.

    Attributes
    ----------
    n_rows:
        Rows scattered (0 for an empty delta — a no-op append).
    old_n_times / n_times:
        Time-axis length before and after the append.
    new_labels:
        Appended time labels, in axis order.
    touched_positions:
        *Existing* time positions that received delta rows (late-arriving
        records), ascending.
    first_changed_position:
        Smallest time position whose series values may differ from before
        the append; ``old_n_times`` when the delta only extended the axis.
        Everything strictly before it is bitwise unchanged.
    candidates_changed:
        Whether the candidate set grew (new value combination, or a
        redundancy broken by new parent rows).  When true, candidate
        positions may have shifted and every derived scorer is stale.
    """

    n_rows: int
    old_n_times: int
    n_times: int
    new_labels: tuple[Hashable, ...]
    touched_positions: tuple[int, ...]
    first_changed_position: int
    candidates_changed: bool

    @property
    def is_noop(self) -> bool:
        return self.n_rows == 0


def _grow_time(buffer: np.ndarray, capacity: int) -> np.ndarray:
    """Reallocate ``buffer`` with a larger (zero-padded) last axis."""
    if buffer.shape[-1] >= capacity:
        return buffer
    new_cap = max(capacity, 2 * buffer.shape[-1], 8)
    grown = np.zeros(buffer.shape[:-1] + (new_cap,), dtype=buffer.dtype)
    grown[..., : buffer.shape[-1]] = buffer
    return grown


class SubsetLedger:
    """The append-only group ledger of one explain-by attribute subset."""

    __slots__ = (
        "attrs",
        "state",
        "counts",
        "values",
        "parents",
        "redundant",
        "conjunctions",
        "sorted_order",
        "_slot_of",
    )

    def __init__(
        self,
        attrs: tuple[str, ...],
        state: np.ndarray,
        counts: np.ndarray,
        values: Sequence[Sequence],
        parents: Sequence[np.ndarray],
        redundant: np.ndarray,
    ):
        self.attrs = attrs
        #: (n_components, n_slots, time_capacity) aggregate states.
        self.state = state
        self.counts = np.asarray(counts, dtype=np.int64)
        #: Per attribute, the group's value at each slot.
        self.values: list[list] = [list(column) for column in values]
        #: Per dropped attribute, the parent subset's slot of each group.
        self.parents: list[np.ndarray] = [
            np.asarray(p, dtype=np.intp) for p in parents
        ]
        self.redundant = np.asarray(redundant, dtype=bool)
        self.conjunctions: list[Conjunction | None] = [None] * self.n_slots
        #: Slot ids in candidate-emission order (sorted by group values),
        #: re-derived whenever slots are added.
        self.sorted_order = np.arange(self.n_slots, dtype=np.intp)
        self._slot_of: dict[tuple, int] | None = None

    @classmethod
    def empty(cls, attrs: tuple[str, ...], n_components: int) -> "SubsetLedger":
        """A ledger with no groups yet; from order 2 on it keeps a parent
        map per dropped attribute."""
        order = len(attrs)
        return cls(
            attrs=attrs,
            state=np.zeros((n_components, 0, 0), dtype=np.float64),
            counts=np.zeros(0, dtype=np.int64),
            values=[[] for _ in attrs],
            parents=[np.zeros(0, dtype=np.intp) for _ in range(order if order > 1 else 0)],
            redundant=np.zeros(0, dtype=bool),
        )

    @property
    def n_slots(self) -> int:
        return len(self.values[0]) if self.values else 0

    @property
    def order(self) -> int:
        return len(self.attrs)

    def combo(self, slot: int) -> tuple:
        return tuple(_python_value(column[slot]) for column in self.values)

    def conjunction(self, slot: int) -> Conjunction:
        existing = self.conjunctions[slot]
        if existing is None:
            existing = Conjunction.from_items(zip(self.attrs, self.combo(slot)))
            self.conjunctions[slot] = existing
        return existing

    def slot_index(self) -> dict[tuple, int]:
        """The combo -> slot map, materialized on first use."""
        if self._slot_of is None:
            self._slot_of = {self.combo(slot): slot for slot in range(self.n_slots)}
        return self._slot_of

    def layout(self) -> np.ndarray:
        """Non-redundant slots in candidate-emission order."""
        return self.sorted_order[~self.redundant[self.sorted_order]]

    def add_slots(self, combos: Sequence[tuple], parents: Sequence[np.ndarray]) -> int:
        """Register new groups; returns the first new slot id.

        ``parents[drop][i]`` is the slot of ``combos[i]``'s parent group in
        the subset without attribute ``drop``.  State/counts are
        zero-extended; the caller scatters the delta rows afterwards.
        """
        first = self.n_slots
        added = len(combos)
        if self._slot_of is not None:
            for offset, combo in enumerate(combos):
                self._slot_of[combo] = first + offset
        for column, values in zip(self.values, zip(*combos)):
            column.extend(values)
        self.counts = np.concatenate(
            [self.counts, np.zeros(added, dtype=np.int64)]
        )
        self.redundant = np.concatenate([self.redundant, np.zeros(added, dtype=bool)])
        self.conjunctions.extend([None] * added)
        for drop, extra in enumerate(parents):
            self.parents[drop] = np.concatenate([self.parents[drop], extra])
        grown = np.zeros(
            (self.state.shape[0], first + added, self.state.shape[2]),
            dtype=self.state.dtype,
        )
        grown[:, :first, :] = self.state
        self.state = grown
        # Re-derive the emission order: new combos can sort anywhere among
        # the existing groups, and candidate order must match what a
        # build over the grown relation would produce.
        combos_all = [self.combo(slot) for slot in range(self.n_slots)]
        self.sorted_order = np.asarray(
            sorted(range(self.n_slots), key=combos_all.__getitem__), dtype=np.intp
        )
        return first


class CubeAppendState:
    """Everything an :class:`ExplanationCube` needs to absorb new rows."""

    __slots__ = (
        "schema",
        "measure",
        "explain_by",
        "time_attr",
        "max_order",
        "deduplicate",
        "aggregate",
        "labels",
        "label_pos",
        "overall",
        "ledgers",
        "ledger_index",
    )

    def __init__(
        self,
        schema: Schema,
        measure: str,
        explain_by: tuple[str, ...],
        time_attr: str,
        max_order: int,
        deduplicate: bool,
        aggregate: AggregateFunction,
        labels: Sequence[Hashable],
        overall: np.ndarray,
        ledgers: Sequence[SubsetLedger],
    ):
        self.schema = schema
        self.measure = measure
        self.explain_by = explain_by
        self.time_attr = time_attr
        self.max_order = max_order
        self.deduplicate = deduplicate
        self.aggregate = aggregate
        self.labels: list[Hashable] = list(labels)
        self.label_pos = {label: pos for pos, label in enumerate(self.labels)}
        #: (n_components, time_capacity) state of the overall query.
        self.overall = overall
        self.ledgers = list(ledgers)
        self.ledger_index = {ledger.attrs: i for i, ledger in enumerate(self.ledgers)}

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        schema: Schema,
        measure: str,
        explain_by: Sequence[str],
        time_attr: str,
        max_order: int,
        deduplicate: bool,
        aggregate: AggregateFunction,
    ) -> "CubeAppendState":
        """A ledger with no rows: one empty :class:`SubsetLedger` per
        attribute subset of up to ``min(max_order, |A|)`` attributes,
        lower orders first.  ``max_order`` is kept as requested."""
        if not explain_by:
            raise ExplanationError("explain_by must name at least one attribute")
        if len(set(explain_by)) != len(explain_by):
            raise ExplanationError(f"explain_by repeats attributes: {explain_by}")
        for name in explain_by:
            schema.require_dimension(name)
        if max_order < 1:
            raise ExplanationError(f"max_order must be >= 1, got {max_order}")
        attrs = tuple(sorted(explain_by))
        ledgers = [
            SubsetLedger.empty(subset, aggregate.n_components)
            for order in range(1, min(max_order, len(attrs)) + 1)
            for subset in itertools.combinations(attrs, order)
        ]
        return cls(
            schema=schema,
            measure=measure,
            explain_by=attrs,
            time_attr=time_attr,
            max_order=max_order,
            deduplicate=deduplicate,
            aggregate=aggregate,
            labels=(),
            overall=np.zeros((aggregate.n_components, 0), dtype=np.float64),
            ledgers=ledgers,
        )

    # ------------------------------------------------------------------
    @property
    def n_times(self) -> int:
        return len(self.labels)

    def layouts(self) -> list[np.ndarray]:
        return [ledger.layout() for ledger in self.ledgers]

    # ------------------------------------------------------------------
    def _map_delta_times(
        self, time_column: np.ndarray
    ) -> tuple[np.ndarray, list[Hashable], list[int]]:
        """Positions for every delta row, extending the axis as needed."""
        uniques, inverse = np.unique(time_column, return_inverse=True)
        unique_positions = np.empty(uniques.shape[0], dtype=np.intp)
        new_labels: list[Hashable] = []
        touched: list[int] = []
        last = self.labels[-1] if self.labels else None
        next_position = len(self.labels)
        # Validate every label before mutating, so a rejected delta leaves
        # the ledger exactly as it was.
        for index in range(uniques.shape[0]):
            label = _python_value(uniques[index])
            position = self.label_pos.get(label)
            if position is not None:
                unique_positions[index] = position
                touched.append(position)
                continue
            if last is not None and not label > last:
                raise BackfillError(
                    f"delta timestamp {label!r} precedes the cube's last "
                    f"timestamp {last!r}; appends may revisit existing "
                    "timestamps or extend the axis, never back-fill new ones"
                )
            # np.unique hands labels out ascending, so new ones arrive in
            # axis order and need only follow the pre-existing last label
            # (a NaN label, which np.unique sorts last, is greater than
            # nothing).
            unique_positions[index] = next_position
            new_labels.append(label)
            next_position += 1
        for label in new_labels:
            self.label_pos[label] = len(self.labels)
            self.labels.append(label)
        return unique_positions[inverse.ravel()], new_labels, sorted(touched)

    def _recompute_redundancy(self) -> None:
        if not self.deduplicate:
            return
        for ledger in self.ledgers:
            if ledger.order < 2:
                continue
            redundant = np.zeros(ledger.n_slots, dtype=bool)
            for drop in range(ledger.order):
                attrs = ledger.attrs[:drop] + ledger.attrs[drop + 1 :]
                parent = self.ledgers[self.ledger_index[attrs]]
                redundant |= parent.counts[ledger.parents[drop]] == ledger.counts
            ledger.redundant = redundant

    # ------------------------------------------------------------------
    def apply_delta(self, delta: "Relation") -> AppendInfo:
        """Scatter a delta relation into the ledger (in place).

        Returns the :class:`AppendInfo` describing what changed.  The
        caller (:meth:`ExplanationCube.append`) re-finalizes the touched
        cells of the published series arrays afterwards.
        """
        if delta.schema != self.schema:
            raise SchemaError(
                "delta schema does not match the cube's base relation schema"
            )
        old_n = self.n_times
        old_layouts = self.layouts()
        if delta.n_rows == 0:
            return AppendInfo(
                n_rows=0,
                old_n_times=old_n,
                n_times=old_n,
                new_labels=(),
                touched_positions=(),
                first_changed_position=old_n,
                candidates_changed=False,
            )

        positions, new_labels, touched = self._map_delta_times(
            delta.column(self.time_attr)
        )
        n_times = self.n_times
        values = delta.column(self.measure).astype(np.float64)

        self.overall = _grow_time(self.overall, n_times)
        self.aggregate.scatter_into(self.overall, values, positions)

        # Factorize each explain-by column once.  A subset's groups refine
        # those of its prefix (the subset without its last attribute),
        # which precedes it in the ledger order, so every subset densifies
        # one combined key: dense ids in lexicographic value order, each
        # group represented by its first row.
        encoded = {name: delta.encode(name) for name in self.explain_by}
        # Per processed subset: each row's group and each group's slot.
        grouped: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        for ledger in self.ledgers:
            attrs = ledger.attrs
            codes, uniques = encoded[attrs[-1]]
            if ledger.order == 1:
                groups = codes  # already dense, in value order
                representatives = np.unique(codes, return_index=True)[1]
            else:
                key = grouped[attrs[:-1]][0] * len(uniques) + codes
                _, representatives, groups = np.unique(
                    key, return_index=True, return_inverse=True
                )
            # Each group's value per attribute, read off its first row.
            columns = []
            for name in attrs:
                name_codes, name_uniques = encoded[name]
                firsts = name_uniques[name_codes[representatives]]
                columns.append([_python_value(value) for value in firsts])
            combos = list(zip(*columns))
            slot_map = np.full(len(combos), -1, dtype=np.intp)
            if ledger.n_slots:
                slot_of = ledger.slot_index()
                slot_map[:] = [slot_of.get(combo, -1) for combo in combos]
            fresh = np.flatnonzero(slot_map < 0)
            if fresh.size:
                # Parents are processed first, so each new group's parent
                # groups already hold a slot: the one of the group's
                # first row.
                first_rows = representatives[fresh]
                parents = []
                for drop in range(len(ledger.parents)):
                    parent = attrs[:drop] + attrs[drop + 1 :]
                    parent_groups, parent_slots = grouped[parent]
                    parents.append(parent_slots[parent_groups[first_rows]])
                first = ledger.add_slots([combos[g] for g in fresh], parents)
                slot_map[fresh] = np.arange(first, first + fresh.size)
            grouped[attrs] = (groups, slot_map)
            slots = slot_map[groups]
            ledger.state = _grow_time(ledger.state, n_times)
            ledger.counts += np.bincount(slots, minlength=ledger.n_slots)
            self.aggregate.scatter_into(ledger.state, values, (slots, positions))

        self._recompute_redundancy()
        candidates_changed = any(
            not np.array_equal(old, ledger.layout())
            for old, ledger in zip(old_layouts, self.ledgers)
        )
        first_changed = touched[0] if touched else old_n
        return AppendInfo(
            n_rows=delta.n_rows,
            old_n_times=old_n,
            n_times=n_times,
            new_labels=tuple(new_labels),
            touched_positions=tuple(touched),
            first_changed_position=first_changed,
            candidates_changed=candidates_changed,
        )
