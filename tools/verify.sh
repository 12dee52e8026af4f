#!/bin/sh
# One-command verification: the determinism/async lint plus the tier-1
# test suite, exactly what CI (and the roadmap's gate) runs.
#
#     sh tools/verify.sh
#
# Exits non-zero on the first failing stage.
set -e
cd "$(dirname "$0")/.."

echo "== lint: determinism + async blocking-call rules =="
python tools/lint_determinism.py

echo "== lint: no src/ module reachable only from tests =="
python tools/lint_imports.py

echo "== tier-1: pytest =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

# The committed benchmark (BENCHMARK.json) is frozen and calls pinned
# names of the program; run its self-test sizes here (about 15 s) so a
# call it depends on breaks this gate, not the benchmark pipeline.  The
# traced serve_deep pass drives IncrementalClosure through the bare
# add_node()/add_edge(u, v) API on n=16 feeds; serve_prod is the only
# gate that runs the sharded `repro serve --shard-procs 2 --data-dir`
# argv the benchmark depends on (plus its kill -9 and restart), and its
# traced pass is the benchmark's only caller of the WAL writer API
# (IngestWal.append, sync(max_records), pending(), segment_names(),
# read_wal, recover_sessions).
echo "== ledger: frozen benchmark smoke (offline_cell, serve_short + serve_deep traced, serve_prod untraced + traced) =="
python3 benchmarks/ledger/run.py --workload offline_cell --quick
python3 benchmarks/ledger/run.py --workload serve_short --quick --trace 1
python3 benchmarks/ledger/run.py --workload serve_deep --quick --trace 1
python3 benchmarks/ledger/run.py --workload serve_prod --quick
python3 benchmarks/ledger/run.py --workload serve_prod --quick --trace 1

# The sharded differential suite and one kill -9-a-shard cell run in
# the tier-1 suite above.  Chaos stage (opt-in: spawns real server
# subprocesses and kill -9s them).  REPRO_CHAOS=1 enables it;
# REPRO_CHAOS_CELLS picks how many randomized (seed, fsync-batch,
# kill-mode) cells run -- the default below is a small smoke budget,
# 54 is the full grid -- and REPRO_CHAOS_SHARD_CELLS how many
# kill-one-shard cells (default 2).
if [ "${REPRO_CHAOS:-0}" = "1" ]; then
    echo "== chaos: kill -9 durability grid (${REPRO_CHAOS_CELLS:-6} cells) =="
    REPRO_CHAOS=1 REPRO_CHAOS_CELLS="${REPRO_CHAOS_CELLS:-6}" \
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest tests/chaos -x -q
fi

# Wire-chaos stage (opt-in: drives the sharded deployment through the
# seeded fault-injection proxy and crash-loops a shard).  A single
# always-on smoke cell already runs inside the tier-1 suite above;
# REPRO_WIRE_CHAOS=1 runs the full grid, REPRO_WIRE_CHAOS_CELLS picks
# how many (seed, fault-profile) cells (default 4, 12 is the grid).
if [ "${REPRO_WIRE_CHAOS:-0}" = "1" ]; then
    echo "== wire chaos: seeded fault-injection grid (${REPRO_WIRE_CHAOS_CELLS:-4} cells) =="
    REPRO_WIRE_CHAOS=1 REPRO_WIRE_CHAOS_CELLS="${REPRO_WIRE_CHAOS_CELLS:-4}" \
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest tests/chaos/test_wire_chaos.py -x -q
fi
