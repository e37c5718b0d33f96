"""repro.lattice — the rollup-lattice prepare tier and its query router.

The amortization story for many concurrent sessions: instead of paying
one cube build per (dims, measure, aggregate) shape, **one scan** over
the data feeds every root rollup of a configurable lattice
(:func:`build_lattice`, chunk-safe through the storage layer), coarser
rollups **derive** from finer ones by re-aggregation over the delta
ledger (:func:`derive_rollup` — byte-identical to a scratch build, no
re-ingest), and a :class:`LatticeRouter` answers each incoming cube
request from the finest matching-or-coarser rollup — falling back to the
classic build path on a miss while counting and eventually **promoting**
popular ad-hoc shapes into the lattice.

See ``docs/ARCHITECTURE.md`` (lattice section) for the router's decision
diagram and the promotion policy, and ``tests/test_lattice.py`` +
``tests/test_properties.py`` for the equivalence harness that pins the
bit-identity claims.
"""

from repro.lattice.build import (
    LatticeBuildReport,
    build_lattice,
    plan_roots,
)
from repro.lattice.derive import (
    AGGREGATE_COMPONENTS,
    aggregate_components,
    can_derive,
    covering_aggregate,
    derive_rollup,
    spec_of_cube,
)
from repro.lattice.manifest import MANIFEST_FORMAT, LatticeManifest, RollupEntry
from repro.lattice.router import LatticeRouter, RouteInfo
from repro.lattice.spec import (
    RollupSpec,
    default_lattice,
    parse_rollup_spec,
    rollup_key,
)

__all__ = [
    "AGGREGATE_COMPONENTS",
    "MANIFEST_FORMAT",
    "LatticeBuildReport",
    "LatticeManifest",
    "LatticeRouter",
    "RollupEntry",
    "RollupSpec",
    "RouteInfo",
    "aggregate_components",
    "build_lattice",
    "can_derive",
    "covering_aggregate",
    "default_lattice",
    "derive_rollup",
    "parse_rollup_spec",
    "plan_roots",
    "rollup_key",
    "spec_of_cube",
]
