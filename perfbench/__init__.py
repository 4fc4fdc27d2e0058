"""End-to-end and per-layer benchmark of PayLess (see README.md)."""
