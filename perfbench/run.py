"""Benchmark for the phishevade workbench.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload attack-suite --seed 1 --seconds 30 --trace 0

Workloads (inputs are generated from ``--seed``; see ``inputs.py``):

* ``attack-suite``: white, grey and black attacks on 30 small seed pages.
  Tree copies, repeated re-extraction and mutation planning; no Pelican,
  no collision code.
* ``defend-stream``: ``parse_html`` plus ``pelican.pipeline`` per page
  against a store of 50; equal shares of evasions (read-only hits), fresh
  phishing pages (store writes) and benign pages (full scans that miss).
* ``infer-corpus``: ``load_corpus``, ``harvest_candidates``,
  ``invert_hashes`` and ``infer_rules`` over bulky pages plus URL-only
  records.  Parse and extraction; no copies, no Pelican.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
of ``BENCHMARK.json``: set-up time (imports plus the median of three
set-ups), peak RSS, operations and input KB per second, and the p50 and p90
latency of one operation (a seed page attacked at all three levels, a
stream page judged, a corpus pass).  The line before the result holds the
workload's own figures (per-level attack latencies, queries per attack,
...) and a stamp with the seed, Python version, CPU count and git SHA.

With ``--trace 1`` the run alternates untraced and traced cycles and reports
the per-layer metrics: calls and self time per layer per cycle, and the
tracing overhead (traced minus untraced cycle wall time).

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output check
failed and 2 when the program's sources are missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isdir(os.path.join(ROOT, "src", "phishevade")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    import_s = time.perf_counter() - STARTED
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, details = workloads.run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), spec,
            import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }
    print(json.dumps({"stamp": stamp, "details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
