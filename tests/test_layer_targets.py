"""The benchmark's traced run can still wrap every layer it names.

``python3 -m perfbench.run --trace 1`` installs a timing wrapper over each
entry of ``perfbench.layers.TARGETS``, looked up where its callers look it
up.  Deleting or renaming one of those attributes makes the traced run
die with ``AttributeError``; this test fails first.
"""

from __future__ import annotations

import importlib

from perfbench.layers import TARGETS, LayerTracer


def _lookup(target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


def test_every_layer_target_installs_and_uninstall_restores_it():
    originals = [_lookup(target) for target in TARGETS]
    tracer = LayerTracer().install()
    try:
        wrapped = [_lookup(target) for target in TARGETS]
    finally:
        tracer.uninstall()
    restored = [_lookup(target) for target in TARGETS]
    for target, original, wrapper, now in zip(TARGETS, originals, wrapped, restored):
        assert wrapper is not original, target
        assert wrapper.__wrapped__ is original, target
        assert now is original, target
