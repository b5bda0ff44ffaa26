"""End-to-end + per-layer benchmark of the simulator (see bench/README.md)."""
