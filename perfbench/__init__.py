"""A seeded end-to-end benchmark of repro: see ``perfbench/README.md``."""
