"""Byte-aware dataflow benchmark: SOLVE byte-model drift.

Runs a batched energy grid through the pipeline under the span tracer
and checks that the SOLVE stage's measured ledger traffic matches the
:mod:`repro.perfmodel.bytemodel` prediction (relative deviation, gated
at the round-off floor by ``benchmarks/check_regression.py``).

Writes ``BENCH_dataflow.json`` at the repo root for
``benchmarks/check_regression.py``.

Run standalone (``python benchmarks/bench_dataflow.py [--smoke]``) or
through pytest (``pytest benchmarks/bench_dataflow.py``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import sys

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_batching import build_benchmark_device  # noqa: E402

from repro.observability import memory_totals
from repro.observability.spans import SpanTracer, tracing
from repro.pipeline import TransportPipeline

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataflow.json"


def run(num_blocks: int = 96, block_size: int = 4, num_energies: int = 64,
        batch_size: int = 16, seed: int = 0) -> dict:
    device = build_benchmark_device(num_blocks, block_size, seed)
    energies = np.linspace(1.6, 2.4, num_energies)
    pipe = TransportPipeline(obc_method="dense", solver="rgf")
    cache = pipe.cache(device)

    tracer = SpanTracer()
    with tracing(tracer):
        for lo in range(0, num_energies, batch_size):
            chunk = [float(e) for e in energies[lo:lo + batch_size]]
            pipe.solve_batch(cache, chunk,
                             energy_indices=range(lo, lo + len(chunk)))

    solve = memory_totals(tracer.records()).get(
        "SOLVE", {"measured": 0, "predicted": 0})
    model_dev = (abs(solve["measured"] - solve["predicted"])
                 / solve["predicted"]) if solve["predicted"] else 1.0
    return {
        "device": {"num_blocks": num_blocks, "block_size": block_size,
                   "seed": seed},
        "num_energies": num_energies,
        "energy_batch_size": batch_size,
        "measured_solve_bytes": int(solve["measured"]),
        "predicted_solve_bytes": int(solve["predicted"]),
        "solve_byte_model_deviation": float(model_dev),
    }


def report(results: dict) -> str:
    d = results["device"]
    return "\n".join([
        "Byte-aware dataflow benchmark",
        f"  device: {d['num_blocks']} blocks x {d['block_size']} orbitals, "
        f"{results['num_energies']} energies, "
        f"batch size {results['energy_batch_size']}",
        f"  SOLVE traffic: measured "
        f"{results['measured_solve_bytes'] / 1e6:.1f} MB vs model "
        f"{results['predicted_solve_bytes'] / 1e6:.1f} MB "
        f"(deviation {results['solve_byte_model_deviation']:.3e})",
    ])


def write_json(results: dict, path: Path = JSON_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_dataflow(reportout):
    """Smoke-scale run asserting the acceptance invariants."""
    results = run(num_blocks=48, block_size=4, num_energies=16,
                  batch_size=8)
    assert results["solve_byte_model_deviation"] <= 1e-12
    reportout(report(results))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small configuration for CI (seconds, not minutes)")
    ap.add_argument("--out", type=Path, default=JSON_PATH,
                    help=f"output JSON path (default {JSON_PATH})")
    args = ap.parse_args(argv)
    if args.smoke:
        results = run(num_blocks=48, block_size=4, num_energies=16,
                      batch_size=8)
    else:
        results = run()
    print(report(results))
    path = write_json(results, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
