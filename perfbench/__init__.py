"""perfbench: the wall-clock benchmark of record (see perfbench/README.md)."""
