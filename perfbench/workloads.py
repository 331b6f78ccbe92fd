"""The three benchmark workloads and the loops that measure them.

Each workload is a closed loop with one caller and no extra threads: the
next operation starts when the previous one has returned, so no operation
ever waits for another and no wait time is reported.  A workload is a fixed
cycle of operations built at set-up from the seed; the measuring loop
repeats the cycle until its time is up.  Outputs are checked after each
cycle, outside the timed region (and outside the tracer): an operation whose
output is wrong counts as failed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import tempfile
import time

from phishevade import attacks, collision, dom, pelican
from phishevade.classifier import ScoreOracle, score
from phishevade.dom import serialize
from phishevade.features import extract_all_features
from phishevade.mutation import preservation_check

import inputs
from layers import Tracer

clock = time.perf_counter

LEVELS = ("white", "grey", "black")
BLACK_BATCH = 3     # black_box's default batch: additions per score check


class AttackSuite:
    """White, grey and black attacks on the 30 small seed pages; one
    operation attacks one seed page at all three levels.

    Stresses tree copies, repeated full re-extraction and mutation
    planning; never touches Pelican or collision code."""

    name = "attack-suite"

    def __init__(self, seed: int, per_bucket: int = 6):
        self.inputs = inputs.attack_inputs(seed, per_bucket)
        self.ops = list(range(len(self.inputs.pages)))
        self.reference: dict[tuple[int, str], tuple[str, int]] = {}
        self.level_times: dict[str, list[float]] = {level: [] for level in LEVELS}

    def begin_cycle(self) -> None:
        pass

    def run(self, op):
        """[(level, result)] for the page's three attacks; each attack's
        time is kept for the per-level latencies."""
        a = self.inputs
        page = a.pages[op][1]
        out = []
        for level in LEVELS:
            started = clock()
            oracle = ScoreOracle(a.model)
            if level == "white":
                result = attacks.white_box(attacks.white_knowledge(a.model, oracle), page)
            elif level == "grey":
                result = attacks.grey_box(attacks.grey_knowledge(a.grey_rules, oracle), page)
            else:
                result = attacks.black_box(attacks.black_knowledge(oracle), page, a.pool,
                                           rng_seed=a.rng_seeds[op])
            self.level_times[level].append(clock() - started)
            out.append((level, result))
        return out

    def kb(self, op) -> float:
        return self.inputs.html_bytes[op] / 1024.0

    def check(self, op, output) -> list[str]:
        """Every attack succeeds, ends below the threshold and preserves the
        page; later passes repeat the first pass's HTML and query count."""
        page = self.inputs.pages[op][1]
        model = self.inputs.model
        problems = []
        for level, result in output:
            key = (op, level)
            final = (serialize(result.final_page), result.queries)
            if key in self.reference:
                if final != self.reference[key]:
                    problems.append(f"{key}: output differs across passes")
                continue
            self.reference[key] = final
            if not result.success or result.trajectory[-1].score >= model.threshold:
                problems.append(f"{key}: attack ended with status {result.status}")
            if score(model, extract_all_features(result.final_page)) >= model.threshold:
                problems.append(f"{key}: final page still scores as phishing")
            report = preservation_check(page, result.final_page)
            if not report.passed:
                problems.append(f"{key}: preservation check failed: {report.problems}")
        return problems

    def own_metrics(self, samples) -> dict[str, float]:
        out = {"attack.attacks_per_s": len(LEVELS) * len(samples)
               / sum(dt for _, dt in samples)}
        for level in LEVELS:
            times = self.level_times[level]
            out[f"attack.{level}_ms_p50"] = 1000.0 * percentile(times, 50)
            if level == "black":
                out["attack.black_ms_p90"] = 1000.0 * percentile(times, 90)
        queries = [q for _, q in self.reference.values()]
        out["attack.queries_mean"] = sum(queries) / len(queries)
        return out

    def layer_values(self, outputs) -> dict[str, float]:
        results = [(level, result) for _, output in outputs for level, result in output]
        queries = sum(r.queries for _, r in results)
        kept = sum(len(r.trajectory) - 1 for _, r in results)
        black = [r for level, r in results if level == "black"]
        # every batch but a budget-cut last one holds BLACK_BATCH additions
        batches = sum(-(-r.additions // BLACK_BATCH) for r in black)
        kept_batches = sum(1 for r in black for step in r.trajectory
                           if step.op.startswith("add batch"))
        return {
            "attack.queries_mean": queries / len(results),
            "attacks.kept_ratio": kept / queries,
            "attacks.black.rollback_ratio":
                (batches - kept_batches) / batches if batches else 0.0,
        }


class DefendStream:
    """parse_html plus pelican.pipeline per page against a full store.

    Pelican matching dominates; copy and extraction are nearly absent.
    Evasions are read-only hits, fresh phishing pages are store writes and
    benign pages are full scans that miss."""

    name = "defend-stream"

    def __init__(self, seed: int, k: int = 50, per_kind: int = 12,
                 lo_bytes: int = 2000, hi_bytes: int = 12000):
        self.inputs = inputs.defend_inputs(seed, k, per_kind, lo_bytes, hi_bytes)
        store = pelican.PhishStore(k=k)
        for url, html in self.inputs.store_pages:
            store.insert(pelican.signature_of(dom.parse_html(html, url)), inputs.CLOCK)
        self.initial_entries = list(store.entries)
        self.ops = list(range(len(self.inputs.stream)))
        self.oracle = ScoreOracle(self.inputs.model)

    def begin_cycle(self) -> None:
        """Every cycle replays the stream against the store as set-up left it."""
        self.store = pelican.PhishStore(k=self.inputs.k,
                                        entries=list(self.initial_entries))

    def run(self, op):
        page = self.inputs.stream[op]
        tree = dom.parse_html(page.html, page.url)
        return pelican.pipeline(page.url, tree, set(), set(), self.store,
                                self.oracle, now=inputs.CLOCK)

    def kb(self, op) -> float:
        return len(self.inputs.stream[op].html.encode("utf-8")) / 1024.0

    def check(self, op, verdict) -> list[str]:
        """The verdict, and the matched entry of an evasion, are the ones
        the generator built."""
        page = self.inputs.stream[op]
        if verdict.label != page.expected_label \
                or verdict.matched_entry != page.expected_entry:
            return [f"page {op} ({page.kind}): got {verdict.label} "
                    f"entry {verdict.matched_entry}, expected "
                    f"{page.expected_label} entry {page.expected_entry}"]
        return []

    def own_metrics(self, samples) -> dict[str, float]:
        times = [dt for _, dt in samples]
        return {"defend.pages_per_s": len(times) / sum(times),
                "defend.ms_p50": 1000.0 * percentile(times, 50),
                "defend.ms_p90": 1000.0 * percentile(times, 90)}

    def layer_values(self, outputs) -> dict[str, float]:
        return {}


class InferCorpus:
    """What ``phishevade infer`` does, plus rule partitioning, over a corpus
    of bulky pages and URL-only records.

    Parse plus single-pass extraction on large pages, with no tree copies
    and no Pelican."""

    name = "infer-corpus"

    def __init__(self, seed: int, workdir: str, **sizes):
        self.inputs = inputs.infer_inputs(seed, **sizes)
        self.manifest_path = os.path.join(workdir, "corpus.jsonl")
        with open(self.manifest_path, "w", encoding="utf-8") as manifest:
            for i, record in enumerate(self.inputs.records):
                entry = {"url": record.url, "label": record.label}
                if record.html is not None:
                    entry["path"] = f"page{i:03d}.html"
                    with open(os.path.join(workdir, entry["path"]), "w",
                              encoding="utf-8") as fh:
                        fh.write(record.html)
                manifest.write(json.dumps(entry) + "\n")
        self.html_kb = sum(len(r.html.encode("utf-8")) for r in self.inputs.records
                           if r.html is not None) / 1024.0
        self.ops = [0]
        self.candidates: int | None = None

    def begin_cycle(self) -> None:
        pass

    def run(self, op):
        corpus = collision.load_corpus(self.manifest_path)
        candidates = collision.harvest_candidates(corpus)
        report = collision.invert_hashes(candidates, self.inputs.manifest)
        partition = collision.infer_rules(self.inputs.model, report.recovered)
        return len(candidates), report, partition

    def kb(self, op) -> float:
        return self.html_kb

    def check(self, op, output) -> list[str]:
        """Exactly the expected digests are recovered, the foreign ones stay
        unrecovered, the rules split as built, and every pass harvests the
        same number of candidates."""
        candidates, report, partition = output
        if self.candidates is None:
            self.candidates = candidates
        problems = []
        if report.recovered != self.inputs.expected:
            problems.append("recovered digests differ from the expected ones")
        if report.unrecovered != self.inputs.foreign:
            problems.append("unrecovered digests differ from the foreign ones")
        if partition != self.inputs.partition:
            problems.append("rule partition differs from the one built")
        if candidates != self.candidates:
            problems.append("candidate count differs across passes")
        return problems

    def own_metrics(self, samples) -> dict[str, float]:
        return {"infer.kb_per_s": len(samples) * self.html_kb / sum(dt for _, dt in samples),
                "collision.candidates": float(self.candidates)}

    def layer_values(self, outputs) -> dict[str, float]:
        return {"collision.candidates": float(outputs[0][1][0])}


WORKLOADS = {w.name: w for w in (AttackSuite, DefendStream, InferCorpus)}

# Reduced sizes for the smoke test.
TINY = {
    "attack-suite": dict(per_bucket=1),
    "defend-stream": dict(k=4, per_kind=2, lo_bytes=800, hi_bytes=1600),
    "infer-corpus": dict(pages=2, url_records=4, lo_bytes=2000, hi_bytes=4000,
                         rules=(2, 2, 1)),
}


class Outcome:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, workload, outputs) -> None:
        for op, output in outputs:
            problems = workload.check(op, output)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def _run_cycle(workload, deadline: float | None = None):
    """One cycle, or the part of it that fits before ``deadline``:
    (outputs, per-op seconds, wall seconds)."""
    workload.begin_cycle()
    outputs, times = [], []
    started = clock()
    for op in workload.ops:
        t0 = clock()
        output = workload.run(op)
        times.append(clock() - t0)
        outputs.append((op, output))
        if deadline is not None and clock() >= deadline:
            break
    return outputs, times, clock() - started


def measure(workload, seconds: float, outcome: Outcome):
    """Untraced run: repeat the cycle for ``seconds`` (the first cycle is
    always completed).  Returns [(op, seconds)] for every operation."""
    deadline = clock() + seconds
    samples = []
    first = True
    while first or clock() < deadline:
        outputs, times, _ = _run_cycle(workload, None if first else deadline)
        first = False
        samples.extend((op, dt) for (op, _), dt in zip(outputs, times))
        outcome.record(workload, outputs)
    return samples


# Per-layer values computed from a cycle's outputs rather than by the
# tracer; a workload that has no such output reports 0.
DERIVED = ("attack.queries_mean", "attacks.kept_ratio",
           "attacks.black.rollback_ratio", "collision.candidates")


def measure_traced(workload, seconds: float, outcome: Outcome) -> dict[str, float]:
    """Alternate an untraced and a traced cycle while another pair fits in
    ``seconds`` (at least one pair).  Per-layer values are medians over the
    traced cycles; the tracing overhead is the median traced minus the
    median untraced cycle wall time."""
    deadline = clock() + seconds
    tracer = Tracer()
    untraced, traced, per_cycle = [], [], []
    while not traced or clock() + untraced[-1] + traced[-1] < deadline:
        outputs, _, wall = _run_cycle(workload)
        untraced.append(wall)
        outcome.record(workload, outputs)
        tracer.reset()
        with tracer:
            outputs, _, wall = _run_cycle(workload)
        traced.append(wall)
        values = dict.fromkeys(DERIVED, 0.0)
        values.update(tracer.values())
        values.update(workload.layer_values(outputs))
        per_cycle.append(values)
        outcome.record(workload, outputs)
    result = {key: statistics.median(cycle[key] for cycle in per_cycle)
              for key in per_cycle[0]}
    scans = result["pelican.scan.calls"]
    result["pelican.similarity_per_scan"] = \
        result["pelican.similarity.calls"] / scans if scans else 0.0
    result["trace.wall_s"] = statistics.median(traced)
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    result["trace.cycles"] = float(len(traced))
    return result


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, samples) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics every workload reports, metrics only this workload has)."""
    times = [dt for _, dt in samples]
    busy = sum(times)
    common = {
        "ops_per_s": len(times) / busy,
        "kb_per_s": sum(workload.kb(op) for op, _ in samples) / busy,
        "ms_p50": 1000.0 * percentile(times, 50),
        "ms_p90": 1000.0 * percentile(times, 90),
    }
    own = {"samples": float(len(times))}
    own.update(workload.own_metrics(samples))
    return common, own


def set_up(name: str, seed: int, workdir: str, sizes: dict):
    """Build the workload's inputs, store or corpus."""
    cls = WORKLOADS[name]
    if cls is InferCorpus:
        return cls(seed, tempfile.mkdtemp(prefix="corpus-", dir=workdir), **sizes)
    return cls(seed, **sizes)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  spec: dict, import_s: float, workdir: str,
                  sizes: dict | None = None, setup_repeats: int = 3):
    """Set up ``setup_repeats`` times (reporting the median, plus the
    import time), then measure.  Returns (result, details): the result
    holds every metric ``spec`` lists for the mode, each with its unit."""
    durations = []
    for _ in range(setup_repeats):
        t0 = clock()
        workload = set_up(name, seed, workdir, sizes or {})
        durations.append(clock() - t0)
    outcome = Outcome()
    if trace:
        values = measure_traced(workload, seconds, outcome)
        details = {}
        wanted = spec["per_layer"]
    else:
        samples = measure(workload, seconds, outcome)
        values, details = end_to_end(workload, samples)
        values["setup_s"] = import_s + statistics.median(durations)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details.update(setup_s=values["setup_s"], peak_rss_mb=values["peak_rss_mb"])
        wanted = spec["end_to_end"]
    details["problems"] = outcome.problems
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, details
