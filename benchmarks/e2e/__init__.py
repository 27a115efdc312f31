"""End-to-end benchmark of ``repro analyze``; see README.md in this directory."""
