"""Unit tests for the delta-maintenance stack (streaming appends).

Covers the append ledger on the cube (:mod:`repro.cube.delta`),
targeted scorer-LRU invalidation in
``ExplainSession.append``, incremental ``SegmentationCosts.extend``, the
cache entries with append state, and the CLI ``--follow`` loop.  The end-to-end equivalence
properties live in ``tests/test_properties.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import threading
import time

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.cli import main as cli_main
from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.core.streaming import StreamingExplainer
from repro.cube.cache import CACHE_SUFFIX, RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import (
    ExplanationError,
    QueryError,
    SchemaError,
    SegmentationError,
)
from repro.relation.schema import Schema
from repro.relation.table import Relation
from repro.segmentation.variance import SegmentationCosts
from tests.conftest import build_relation


def day_rows(days, value=lambda t, cat: 10.0 + t, cats=("a", "b")):
    rows = {"t": [], "cat": [], "m": []}
    for t in days:
        for cat in cats:
            rows["t"].append(f"t{t:03d}")
            rows["cat"].append(cat)
            rows["m"].append(float(value(t, cat)))
    return build_relation(rows, dimensions=["cat"], measures=["m"], time="t")


# ----------------------------------------------------------------------
# ExplanationCube.append
# ----------------------------------------------------------------------
class TestCubeAppend:
    def test_append_info_reports_what_changed(self):
        cube = ExplanationCube(day_rows(range(10)), ["cat"], "m")
        info = cube.append(day_rows([9, 10, 11]))
        assert info.old_n_times == 10
        assert info.n_times == 12
        assert info.new_labels == ("t010", "t011")
        assert info.touched_positions == (9,)
        assert info.first_changed_position == 9
        assert not info.candidates_changed

    def test_pure_extension_leaves_history_untouched(self):
        cube = ExplanationCube(day_rows(range(10)), ["cat"], "m")
        before = cube.included_values[:, :10].copy()
        info = cube.append(day_rows([10, 11]))
        assert info.first_changed_position == 10
        assert info.touched_positions == ()
        np.testing.assert_array_equal(cube.included_values[:, :10], before)

    def test_empty_delta_is_a_noop(self):
        cube = ExplanationCube(day_rows(range(6)), ["cat"], "m")
        before = cube.included_values.tobytes()
        info = cube.append(day_rows([]))
        assert info.is_noop
        assert cube.n_times == 6
        assert cube.included_values.tobytes() == before

    def test_new_category_grows_the_candidate_set(self):
        cube = ExplanationCube(day_rows(range(8)), ["cat"], "m")
        assert cube.n_explanations == 2
        info = cube.append(day_rows([8], cats=("a", "b", "zz")))
        assert info.candidates_changed
        assert cube.n_explanations == 3
        assert "cat=zz" in {repr(conj) for conj in cube.explanations}
        # The new candidate had no rows before day 8.
        index = cube.index_of(cube.explanations[cube.n_explanations - 1])
        assert cube.included_values[index, :8].sum() == 0.0

    def test_append_can_break_containment_redundancy(self):
        """A conjunction redundant at build time appears once its parent
        gains rows it does not share (the dedup rule re-evaluated)."""
        rows = {
            "t": ["t0", "t0", "t1", "t1"],
            "a": ["x", "y", "x", "y"],
            "b": ["p", "q", "p", "q"],
            "m": [1.0, 2.0, 3.0, 4.0],
        }
        relation = build_relation(
            rows, dimensions=["a", "b"], measures=["m"], time="t"
        )
        cube = ExplanationCube(relation, ["a", "b"], "m", max_order=2)
        # a=x selects exactly b=p's rows, so the conjunction is redundant.
        assert "a=x & b=p" not in {repr(c) for c in cube.explanations}
        # New rows (x,q) and (y,p) make both parents strictly larger than
        # the conjunction, so the dedup rule no longer drops it.
        delta = build_relation(
            {"t": ["t2", "t2"], "a": ["x", "y"], "b": ["q", "p"], "m": [5.0, 6.0]},
            dimensions=["a", "b"],
            measures=["m"],
            time="t",
        )
        info = cube.append(delta)
        assert info.candidates_changed
        names = {repr(c) for c in cube.explanations}
        assert "a=x & b=p" in names and "a=x & b=q" in names
        one_shot = ExplanationCube(relation.concat(delta), ["a", "b"], "m", max_order=2)
        assert cube.explanations == one_shot.explanations
        assert cube.included_values.tobytes() == one_shot.included_values.tobytes()

    def test_backfilling_new_timestamps_is_rejected_atomically(self):
        cube = ExplanationCube(day_rows(range(5, 10)), ["cat"], "m")
        before = cube.included_values.tobytes()
        with pytest.raises(QueryError, match="precedes"):
            cube.append(day_rows([2, 3]))
        assert cube.n_times == 5
        assert cube.included_values.tobytes() == before

    def test_mismatched_schema_is_rejected(self):
        cube = ExplanationCube(day_rows(range(5)), ["cat"], "m")
        other = build_relation(
            {"t": ["t9"], "region": ["x"], "m": [1.0]},
            dimensions=["region"],
            measures=["m"],
            time="t",
        )
        with pytest.raises(SchemaError):
            cube.append(other)

    def test_derived_cubes_are_not_appendable(self):
        cube = ExplanationCube(day_rows(range(8)), ["cat"], "m")
        assert cube.appendable
        sliced = cube.slice_time(0, 5)
        assert not sliced.appendable
        with pytest.raises(ExplanationError, match="not appendable"):
            sliced.append(day_rows([8]))
        fixed = ExplanationCube(day_rows(range(8)), ["cat"], "m", appendable=False)
        assert not fixed.appendable


# ----------------------------------------------------------------------
# ExplainSession.append — targeted LRU invalidation
# ----------------------------------------------------------------------
class TestSessionAppend:
    def test_untouched_windows_survive_overlapping_ones_die(self):
        session = ExplainSession(
            day_rows(range(24)), "m", ["cat"], config=ExplainConfig(use_filter=False)
        )
        session.prepare()
        early = session.scorer("t000", "t010")
        smoothed = session.scorer(
            "t002", "t012", config=session.config.updated(smoothing_window=5)
        )
        late = session.scorer("t015", "t023")
        full = session.scorer()  # bound to the live cube object
        assert len(session._scorers) == 4

        info = session.append(day_rows([23, 24]))  # touches t023, adds t024
        assert info is not None and info.first_changed_position == 23
        keys = set(session._scorers)
        assert (0, 10) in {key[:2] for key in keys}  # early window survives
        assert (2, 12) in {key[:2] for key in keys}  # smoothing after slicing
        assert all(key[1] < 23 for key in keys)  # late + full-window dropped
        # Surviving scorers still serve byte-identical answers.
        again = session.scorer("t000", "t010")
        assert again is early
        fresh = ExplainSession(
            session.relation, "m", ["cat"], config=ExplainConfig(use_filter=False)
        )
        assert (
            again.cube.included_values.tobytes()
            == fresh.scorer("t000", "t010").cube.included_values.tobytes()
        )
        assert smoothed is session.scorer(
            "t002", "t012", config=session.config.updated(smoothing_window=5)
        )
        assert full is not session.scorer()

    def test_candidate_growth_drops_every_scorer(self):
        session = ExplainSession(
            day_rows(range(12)), "m", ["cat"], config=ExplainConfig(use_filter=False)
        )
        session.scorer("t000", "t005")
        info = session.append(day_rows([12], cats=("a", "b", "zz")))
        assert info.candidates_changed
        assert not session._scorers

    def test_unprepared_session_just_grows_the_relation(self):
        session = ExplainSession(day_rows(range(10)), "m", ["cat"])
        assert session.append(day_rows([10, 11])) is None
        assert not session.prepared
        assert session.relation.n_rows == 24
        assert session.cube.n_times == 12  # first query sees everything

    def test_windowed_query_after_append_matches_fresh_session(self):
        config = ExplainConfig(use_filter=False, k=2)
        session = ExplainSession(day_rows(range(20)), "m", ["cat"], config=config)
        session.explain()
        session.append(day_rows(range(20, 26)))
        windowed = session.explain("t004", "t024")
        fresh = ExplainSession(session.relation, "m", ["cat"], config=config)
        expected = fresh.explain("t004", "t024")
        assert [
            (s.start_label, s.stop_label, tuple(map(repr, s.explanations)))
            for s in windowed.segments
        ] == [
            (s.start_label, s.stop_label, tuple(map(repr, s.explanations)))
            for s in expected.segments
        ]

    def test_adopt_snapshot_validates_the_query(self):
        session = ExplainSession(day_rows(range(8)), "m", ["cat"])
        other = ExplanationCube(day_rows(range(8)), ["cat"], "m", aggregate="avg")
        with pytest.raises(QueryError, match="different query"):
            session.adopt_snapshot(other)


# ----------------------------------------------------------------------
# SegmentationCosts.extend
# ----------------------------------------------------------------------
class TestCostsExtend:
    def _costs_for(self, cube, m=3):
        scorer = SegmentScorer(cube)
        solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
        return scorer, solver, SegmentationCosts(scorer, solver, m=m)

    def test_extend_requires_same_candidates(self):
        cube = ExplanationCube(day_rows(range(10)), ["cat"], "m")
        scorer, solver, costs = self._costs_for(cube)
        cube.append(day_rows([10], cats=("a", "b", "zz")))
        grown_scorer = SegmentScorer(cube)
        with pytest.raises(SegmentationError, match="candidate"):
            costs.extend(grown_scorer, solver)

    def test_extend_rejects_shrunken_series(self):
        cube = ExplanationCube(day_rows(range(10)), ["cat"], "m")
        scorer, solver, costs = self._costs_for(cube)
        small = ExplanationCube(day_rows(range(5)), ["cat"], "m")
        with pytest.raises(SegmentationError, match="at least as long"):
            costs.extend(SegmentScorer(small), solver)

    def test_extend_matches_fresh_costs_after_late_arrivals(self):
        cube = ExplanationCube(day_rows(range(12)), ["cat"], "m")
        scorer, solver, costs = self._costs_for(cube)
        info = cube.append(
            day_rows([11, 12, 13], value=lambda t, cat: 50.0 if cat == "b" else 3.0)
        )
        extended = costs.extend(
            scorer, solver, first_changed_position=info.first_changed_position
        )
        fresh = SegmentationCosts(scorer, solver)
        assert extended.cost_matrix.tobytes() == fresh.cost_matrix.tobytes()
        for unit in range(extended.n_points - 1):
            left = extended.unit_result(unit)
            right = fresh.unit_result(unit)
            assert left.indices == right.indices
            assert left.gammas == right.gammas

    # "regrid" is sketch phase II: a same-series extend of a phase-I
    # (max_length) instance onto a coarser grid.
    @pytest.mark.parametrize(
        "base_days, max_length, first_changed",
        [(16, None, 16), (20, 5, None)],
        ids=["appended", "regrid"],
    )
    def test_extend_onto_a_restricted_grid(self, base_days, max_length, first_changed):
        cube = ExplanationCube(day_rows(range(base_days)), ["cat"], "m")
        scorer = SegmentScorer(cube)
        solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
        costs = SegmentationCosts(scorer, solver, max_length=max_length)
        if base_days < 20:
            cube.append(day_rows(range(base_days, 20)))
        grid = np.asarray([0, 4, 9, 15, 16, 17, 18, 19], dtype=np.intp)
        extended = costs.extend(
            scorer, solver, cut_positions=grid, first_changed_position=first_changed
        )
        fresh = SegmentationCosts(scorer, solver, cut_positions=grid)
        assert extended.cost_matrix.tobytes() == fresh.cost_matrix.tobytes()
        for start in range(grid.shape[0] - 1):
            for stop in range(start + 1, grid.shape[0]):
                assert extended.segment_result(start, stop) == fresh.segment_result(
                    start, stop
                )


# ----------------------------------------------------------------------
# Cache entries with the append ledger
# ----------------------------------------------------------------------
class TestDeltaCache:
    def test_appendable_cube_round_trips_with_its_ledger(self, tmp_path):
        relation = day_rows(range(10))
        cube = ExplanationCube(relation, ["cat"], "m", aggregate="var")
        cache = RollupCache(tmp_path)
        key = cube_key(relation, "m", ["cat"], aggregate="var")
        cache.store(key, cube)
        loaded = cache.load(key)
        assert loaded is not None and loaded.appendable
        assert loaded.included_values.tobytes() == cube.included_values.tobytes()
        # ...and the revived cube keeps streaming, bit-identically.
        delta = day_rows([9, 10])
        loaded.append(delta)
        one_shot = ExplanationCube(
            relation.concat(delta), ["cat"], "m", aggregate="var"
        )
        assert loaded.included_values.tobytes() == one_shot.included_values.tobytes()
        assert loaded.excluded_values.tobytes() == one_shot.excluded_values.tobytes()

    def test_fixed_cubes_round_trip_without_a_ledger(self, tmp_path):
        relation = day_rows(range(6))
        cube = ExplanationCube(relation, ["cat"], "m", appendable=False)
        cache = RollupCache(tmp_path)
        key = cube_key(relation, "m", ["cat"])
        cache.store(key, cube)
        loaded = cache.load(key)
        assert loaded is not None and not loaded.appendable
        assert loaded.included_values.tobytes() == cube.included_values.tobytes()


# ----------------------------------------------------------------------
# StreamingExplainer modes
# ----------------------------------------------------------------------
class TestResegmentModes:
    def test_unknown_mode_is_rejected(self):
        with pytest.raises(QueryError, match="resegment"):
            StreamingExplainer(day_rows(range(6)), "m", ["cat"], resegment="???")

    def test_full_mode_update_is_byte_identical_to_refresh(self):
        config = ExplainConfig(use_filter=False)
        explainer = StreamingExplainer(
            day_rows(range(30), value=lambda t, cat: 3.0 + (t if cat == "a" else 0)),
            "m",
            ["cat"],
            config=config,
            resegment="full",
        )
        explainer.refresh()
        for days in ([30, 31], [32], [32, 33]):
            updated = explainer.update(
                day_rows(days, value=lambda t, cat: 40.0 if cat == "b" else 3.0)
            )
        rebuilt = StreamingExplainer(
            explainer.relation, "m", ["cat"], config=config
        ).refresh()
        assert updated.k == rebuilt.k
        assert updated.boundaries == rebuilt.boundaries
        assert [
            (s.start_label, s.stop_label, tuple((repr(e.explanation), e.gamma.hex(), e.tau) for e in s.explanations))
            for s in updated.segments
        ] == [
            (s.start_label, s.stop_label, tuple((repr(e.explanation), e.gamma.hex(), e.tau) for e in s.explanations))
            for s in rebuilt.segments
        ]


# ----------------------------------------------------------------------
# CLI --follow
# ----------------------------------------------------------------------
class TestFollowCli:
    def _write_rows(self, path, days, mode="a"):
        with open(path, mode, newline="") as handle:
            writer = csv.writer(handle)
            if mode == "w":
                writer.writerow(["day", "region", "revenue"])
            for day in days:
                for region in ("east", "west"):
                    value = 10.0 + (3.0 * day if region == "east" else 0.0)
                    writer.writerow([f"d{day:03d}", region, value])

    def test_follow_requires_a_csv_source(self, capsys):
        code = cli_main(["explain", "--dataset", "covid-total", "--follow"])
        assert code == 2
        assert "--follow requires --csv" in capsys.readouterr().err

    def _follow_two_days(self, path, *extra):
        """Run ``explain --follow`` while days 16 and 17 are appended."""

        def writer():
            for day in (16, 17):
                time.sleep(0.1)
                self._write_rows(path, [day])

        thread = threading.Thread(target=writer)
        thread.start()
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli_main(
                    [
                        "explain",
                        "--csv", path,
                        "--time", "day",
                        "--dimensions", "region",
                        "--measure", "revenue",
                        "--follow",
                        "--poll-interval", "0.05",
                        "--max-updates", "2",
                        *extra,
                    ]
                )
        finally:
            thread.join()
        return code, buffer.getvalue()

    def test_follow_tails_appended_rows(self, tmp_path):
        path = str(tmp_path / "live.csv")
        self._write_rows(path, range(16), mode="w")
        code, output = self._follow_two_days(path)
        assert code == 0
        assert "initial explanation (16 points)" in output
        assert "== update 2:" in output and "18 points" in output

    def test_follow_stores_only_the_base_cube(self, tmp_path):
        path = str(tmp_path / "live.csv")
        self._write_rows(path, range(16), mode="w")
        cache_dir = tmp_path / "cache"
        code, output = self._follow_two_days(path, "--cache-dir", str(cache_dir))
        assert code == 0
        assert "== update 2:" in output and "18 points" in output
        assert len(list(cache_dir.glob(f"*{CACHE_SUFFIX}"))) == 1
        assert not list(cache_dir.glob("*.append.json"))

    def test_follow_waits_for_header_and_first_rows(self, tmp_path):
        """tail -f semantics: an empty just-created file is waited on,
        not errored on."""
        path = str(tmp_path / "live.csv")
        open(path, "w").close()  # exists, but no header yet

        def writer():
            time.sleep(0.1)
            self._write_rows(path, [0], mode="w")  # header + one timestamp
            time.sleep(0.1)
            self._write_rows(path, [1])  # now two timestamps: first explain
            time.sleep(0.1)
            self._write_rows(path, [2])  # the followed update

        thread = threading.Thread(target=writer)
        thread.start()
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli_main(
                    [
                        "explain",
                        "--csv", path,
                        "--time", "day",
                        "--dimensions", "region",
                        "--measure", "revenue",
                        "--follow",
                        "--poll-interval", "0.05",
                        "--max-updates", "1",
                    ]
                )
        finally:
            thread.join()
        output = buffer.getvalue()
        assert code == 0
        assert "initial explanation (2 points)" in output
        assert "== update 1:" in output and "3 points" in output

    def test_follow_ignores_torn_trailing_lines(self, tmp_path):
        path = str(tmp_path / "live.csv")
        self._write_rows(path, range(12), mode="w")

        def writer():
            time.sleep(0.1)
            with open(path, "a", newline="") as handle:
                handle.write("d012,east,46.0\nd012,west,10")  # torn line
            time.sleep(0.15)
            with open(path, "a", newline="") as handle:
                handle.write(".0\n")  # completed on the next write

        thread = threading.Thread(target=writer)
        thread.start()
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli_main(
                    [
                        "explain",
                        "--csv", path,
                        "--time", "day",
                        "--dimensions", "region",
                        "--measure", "revenue",
                        "--follow",
                        "--poll-interval", "0.05",
                        "--max-updates", "2",
                    ]
                )
        finally:
            thread.join()
        assert code == 0
        assert "13 points" in buffer.getvalue()
