"""Correctness checks on served answers and on the stream's final cube.

The cheap structural checks (status, tiling, requested ``k``) run on
every response after the timed loop; the byte-for-byte comparison with
an in-process :class:`~repro.core.session.ExplainSession` runs on a
seeded sample, also outside the timed loop.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from perfbench.workloads import Request


def tiling_problems(payload: dict, request: Request) -> list[str]:
    """Why a served ``/explain`` payload does not answer ``request``.

    Its segments must tile the requested window — the first starts at the
    window's first label, each starts where the previous one stopped, the
    last stops at the window's last label — and it must honour a
    requested ``k`` (or report an auto-selected one).
    """
    segments = payload.get("segments")
    if not segments:
        return ["no segments"]
    problems: list[str] = []
    if segments[0].get("start_label") != request.start or segments[0].get("start") != 0:
        problems.append(f"first segment does not start at {request.start}")
    last = segments[-1]
    if last.get("stop_label") != request.stop or last.get("stop") != request.length - 1:
        problems.append(f"last segment does not stop at {request.stop}")
    for index, (left, right) in enumerate(zip(segments, segments[1:])):
        if left.get("stop") != right.get("start") or left.get("stop_label") != right.get(
            "start_label"
        ):
            problems.append(f"gap or overlap between segments {index} and {index + 1}")
    for index, segment in enumerate(segments):
        if not segment.get("stop", 0) > segment.get("start", 0):
            problems.append(f"segment {index} is empty")
    k = payload.get("k")
    if k != len(segments):
        problems.append(f"k={k} but {len(segments)} segments")
    if request.k is not None and k != request.k:
        problems.append(f"asked k={request.k}, got k={k}")
    if request.k is None and payload.get("k_was_auto") is not True:
        problems.append("k was not auto-selected")
    return problems


def canonical(payload: dict) -> tuple:
    """The parts of an ``/explain`` payload that must match byte for byte:
    ``k`` and, per segment, its labels and each explanation's text,
    ``gamma_hex`` and ``tau``.  Timings are excluded."""
    return (
        payload.get("k"),
        tuple(
            (
                segment.get("start_label"),
                segment.get("stop_label"),
                tuple(
                    (scored.get("explanation"), scored.get("gamma_hex"), scored.get("tau"))
                    for scored in segment.get("explanations", ())
                ),
            )
            for segment in payload.get("segments", ())
        ),
    )


def mismatch(served: dict, expected: dict) -> str | None:
    """A description of the first difference, or ``None`` when they match."""
    got, want = canonical(served), canonical(expected)
    if got == want:
        return None
    if got[0] != want[0]:
        return f"k differs: served {got[0]}, expected {want[0]}"
    if len(got[1]) != len(want[1]):
        return f"segment count differs: served {len(got[1])}, expected {len(want[1])}"
    for index, (mine, theirs) in enumerate(zip(got[1], want[1])):
        if mine != theirs:
            return f"segment {index} differs: served {mine}, expected {theirs}"
    return "payloads differ"  # pragma: no cover - canonical() covers every field


def expected(session, request: Request) -> dict:
    """The ``/explain`` payload an in-process ``session`` gives for ``request``."""
    from repro.serve.jsonio import result_to_json

    config = None
    if request.k is not None:
        config = session.config.updated(k=request.k)
    return result_to_json(session.explain(request.start, request.stop, config=config))


def stream_result_problems(spans: Sequence[tuple[int, int]], k: int, n_times: int) -> list[str]:
    """Why one streamed result's ``(start, stop)`` segments do not tile
    the whole series ``[0, n_times - 1]`` in ``k`` pieces."""
    if not spans:
        return ["no segments"]
    problems: list[str] = []
    if spans[0][0] != 0 or spans[-1][1] != n_times - 1:
        problems.append(f"segments do not span [0, {n_times - 1}]")
    for index, ((_, stop), (start, _)) in enumerate(zip(spans, spans[1:])):
        if stop != start:
            problems.append(f"gap or overlap between segments {index} and {index + 1}")
    if any(stop <= start for start, stop in spans):
        problems.append("empty segment")
    if len(spans) != k:
        problems.append(f"k={k} but {len(spans)} segments")
    return problems


#: The value arrays of an ``ExplanationCube`` that must match byte for byte.
CUBE_ARRAYS = ("included_values", "excluded_values", "overall_values", "supports")


def cube_digest(cube) -> dict[str, str]:
    """SHA-256 of a cube's time labels, candidate explanations and value
    arrays (with their shape and dtype), so a cube can be compared after
    it is gone."""

    def sha(*parts) -> str:
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        return digest.hexdigest()

    digest = {
        "time labels": sha(repr(tuple(cube.labels)).encode()),
        "candidate explanations": sha(repr([e.items for e in cube.explanations]).encode()),
    }
    for name in CUBE_ARRAYS:
        array = np.ascontiguousarray(getattr(cube, name))
        digest[name] = sha(f"{array.shape} {array.dtype} ".encode(), array.data)
    return digest


def cube_problems(digest: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Why an appended cube's digest differs from a one-shot build's."""
    return [f"{name} differ" for name in reference if digest.get(name) != reference[name]]
