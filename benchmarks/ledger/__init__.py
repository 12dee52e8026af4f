"""The performance ledger: see README.md in this directory."""
