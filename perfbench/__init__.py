"""End-to-end ExSPAN benchmark (see perfbench/README.md)."""
