"""Command-line surface: scoring, attacks, defense, inference, pruning,
fixture generation and report tables.

Exit codes: 0 success, 2 IO/schema problem (also a hashed model given to a
white- or grey-box attack or to fixture generation), 3 precondition failure
(the input page is not detected as phishing), 4 attack/search exhausted.

Every command is deterministic given its config and RNG seed; wall-clock
timings are only written when ``--timing`` is passed, so repeated runs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass, fields, replace

from . import attacks, collision
from .classifier import (
    Classifier,
    HashFormatError,
    SchemaError,
    ScoreOracle,
    UnknownRuleError,
    check_freq_detect_threshold,
    clip,
    collector_paused,
    decode_json,
    finite_number,
    find_single_rules,
    find_subset_rules,
    load_model,
    prune,
    save_model,
    score,
)
from .collision import LEGIT, Corpus, harvest_candidates, invert_hashes, load_corpus, load_manifest
from .dom import DomTree, ParseError, load_page, serialize, walk
from . import features as F
from .features import Feature, UrlError, extract_all_features
from .mutation import (
    DELETABLE_KINDS,
    FeatureAbsent,
    MutationPlan,
    UnsupportedMutation,
    load_pool,
    plan_add_rule,
    plan_delete_feature,
    split_avoid_terms,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_NOT_PHISHING = 3
EXIT_EXHAUSTED = 4

DEFAULT_URL_HOST = "http://fixtures.test"

# Initial-score buckets used by the report tables.
SCORE_BUCKETS = [
    ("[0.5,0.6)", 0.5, 0.6),
    ("[0.6,0.7)", 0.6, 0.7),
    ("[0.7,0.8)", 0.7, 0.8),
    ("[0.8,0.9)", 0.8, 0.9),
    ("[0.9,1.0)", 0.9, 1.0),
]


class Unreachable(RuntimeError):
    """No combination of undeletable features lands in the requested range."""


@dataclass
class Config:
    pool: str | None = None
    tau: float | None = None
    freq_detect_threshold: float | None = None
    rng_seed: int = 0
    budget: int = 2000
    batch: int = 3
    pelican_k: int = 50
    pelican_h_hours: float = 24.0
    pelican_detect_threshold: float = 0.9
    pelican_layer_accept: float = 0.5
    pelican_lookahead: int = 3

    def validate(self) -> None:
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if self.freq_detect_threshold is not None:
            check_freq_detect_threshold(self.freq_detect_threshold)
        if not 0.0 < self.pelican_detect_threshold <= 1.0:
            raise ValueError("pelican.detect_threshold must be in (0, 1]")
        if not 0.0 < self.pelican_layer_accept <= 1.0:
            raise ValueError("pelican.layer_accept must be in (0, 1]")
        if self.pelican_lookahead < 1 or self.pelican_k < 0:
            raise ValueError("pelican.lookahead must be >= 1 and pelican.k >= 0")
        if not self.pelican_h_hours >= 0.0:   # also rejects NaN
            raise ValueError("pelican.h_hours must be >= 0")
        if self.batch < 1 or self.budget < 0:
            raise ValueError("batch must be >= 1 and budget >= 0")


# Config file key -> (Config field, the type its value is read as): a key is
# its field's name with "pelican_" read as "pelican.", and the value of an
# optional field is read as its type that is not None.
_CONFIG_KEYS = {
    re.sub(r"^pelican_", "pelican.", name):
        (name, next((t for t in typing.get_args(hint) if t is not type(None)), hint))
    for name, hint in typing.get_type_hints(Config).items()}


def load_config(path) -> Config:
    """Flat ``key=value`` config file; ``#`` starts a comment line.  A line
    that is not ``key=value``, an unknown key, or a value that its key's
    type rejects raises ``ValueError`` naming ``path:line``."""
    config = Config()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            attr, cast = _CONFIG_KEYS[key]
            try:
                setattr(config, attr, cast(value))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    config.validate()
    return config


def _config_and_model(args) -> tuple[Config, Classifier]:
    """The command's config (its ``--config`` file, then every setting its
    flags give) and its ``--model``, with the ``tau`` and
    ``freq_detect_threshold`` overrides applied."""
    config = load_config(args.config) if args.config else Config()
    for field in fields(Config):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    config.validate()
    model = load_model(args.model)
    if config.tau is not None:
        model = replace(model, threshold=config.tau)
    if config.freq_detect_threshold is not None:
        model = replace(model, freq_detect_threshold=config.freq_detect_threshold)
    return config, model


def _page(args) -> DomTree:
    """The command's page, at ``--url`` or a fixtures.test URL named after
    its file."""
    return load_page(args.page, args.url or f"{DEFAULT_URL_HOST}/{os.path.basename(args.page)}")


def _dump_json(doc, path=None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- commands --------------------------------------------------------------

def cmd_score(args) -> int:
    _, model = _config_and_model(args)
    value = score(model, extract_all_features(_page(args)))
    label = "PHISH" if value >= model.threshold else "BENIGN"
    print(f"{value:.6f} {label}")
    return EXIT_OK


def _require_feature_names(model: Classifier, what: str, instead: str = "") -> None:
    """Raise ``ValueError`` naming ``what`` when ``model`` is hashed: the
    mutation planners read feature names, and a digest names none."""
    if model.hashed:
        raise ValueError(
            f"{what} is hashed: the model's features are SHA-256 digests; "
            f"recover their names with `phishevade infer` first{instead}")


def cmd_attack(args) -> int:
    config, model = _config_and_model(args)
    if args.level != attacks.BLACK:
        _require_feature_names(model, f"{args.level}-box knowledge",
                               ", or attack with --level black")
    page = _page(args)
    oracle = ScoreOracle(model)
    initial = score(model, extract_all_features(page))
    if initial < model.threshold:
        print(f"page scores {initial:.6f} < {model.threshold}: "
              "not detected as phishing", file=sys.stderr)
        return EXIT_NOT_PHISHING

    if args.level == attacks.WHITE:
        knowledge = attacks.white_knowledge(model, oracle)
    elif args.level == attacks.GREY:
        knowledge = attacks.grey_knowledge(
            [(r.id, r.features) for r in model.rules], oracle)
    else:
        knowledge = attacks.black_knowledge(oracle)

    pool = load_pool(config.pool) if config.pool else []
    result = attacks.run_attack(knowledge, page, pool, config.batch,
                                config.budget, config.rng_seed)

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.page))[0]
    final_path = os.path.join(args.out, f"{stem}.{args.level}.final.html")
    report_path = os.path.join(args.out, f"{stem}.{args.level}.report.json")
    with open(final_path, "w", encoding="utf-8") as fh:
        fh.write(serialize(result.final_page))
    # final_path is stored relative to the report so reruns into any
    # directory stay byte-identical; _collect_rows reads these reports
    _dump_json({
        "success": result.success,
        "status": result.status,
        "seed_path": args.page,
        "final_path": os.path.basename(final_path),
        "steps": [{"op": s.op, "score": s.score} for s in result.trajectory],
        "mutated_features": result.mutated_features,
        "mutated_rules": result.mutated_rules,
        "queries": result.queries,
        "additions": result.additions,
        "score_after_modification": result.score_after_modification,
        "elapsed_ms": round(result.elapsed * 1000.0, 3) if args.timing else None,
        "rng_seed": config.rng_seed,
    }, report_path)
    print(f"{result.status}: score "
          f"{result.trajectory[0].score:.6f} -> {result.trajectory[-1].score:.6f} "
          f"({result.mutated_features} features, {result.mutated_rules} rules, "
          f"{result.queries} queries, {result.additions} additions)")
    return EXIT_OK if result.success else EXIT_EXHAUSTED


def _load_url_set(path) -> set[str]:
    if not path:
        return set()
    with open(path, "r", encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


def cmd_defend(args) -> int:
    from . import pelican   # numpy loads at the first full comparison, SciPy at the first assignment

    config, model = _config_and_model(args)
    page = _page(args)
    whitelist = _load_url_set(args.whitelist)
    blacklist = _load_url_set(args.blacklist)
    if args.store and os.path.exists(args.store):
        store = pelican.load_store(args.store, config.pelican_k,
                                   config.pelican_h_hours)
    else:
        store = pelican.PhishStore(config.pelican_k, config.pelican_h_hours)
    oracle = ScoreOracle(model)
    verdict = pelican.pipeline(
        page.source_url, page, whitelist, blacklist, store, oracle,
        config.pelican_detect_threshold, config.pelican_layer_accept,
        config.pelican_lookahead, now=args.now)
    if verdict.label == pelican.PHISHING_BY_CLASSIFIER and args.store:
        pelican.save_store(store, args.store)
    _dump_json(verdict.to_dict())
    return EXIT_OK


def cmd_infer(args) -> int:
    corpus = load_corpus(args.corpus)
    manifest = load_manifest(args.manifest)
    candidates = harvest_candidates(corpus)
    report = invert_hashes(candidates, manifest)
    _dump_json(collision.report_to_dict(report, include_timing=args.timing))
    return EXIT_OK


def cmd_prune(args) -> int:
    model = load_model(args.model)
    if args.strategy == "subset":
        targets = sorted({sub for _, sub in find_subset_rules(model)})
    else:
        targets = sorted(find_single_rules(model))
    pruned = prune(model, targets)
    save_model(pruned, args.out, strip_weights=args.strip_weights)
    _dump_json({"strategy": args.strategy, "pruned": targets,
                "count": len(targets)})
    return EXIT_OK


# Page feature kinds no planner deletes; fixtures add them to reach a bucket.
UNDELETABLE_ADDABLE_KINDS = F.ALL_KINDS - F.URL_KINDS - DELETABLE_KINDS


def generate_fixture_pages(corpus: Corpus, model: Classifier, lo: float,
                           hi: float, count: int,
                           action_url: str) -> list[tuple[str, DomTree, float]]:
    """Personalize legitimate pages into phishing fixtures scoring in
    [lo, hi): rewrite form actions to the collector URL, delete every
    model-relevant deletable feature, then add undeletable features until
    the score lands in the bucket."""
    from itertools import chain, combinations

    usable = [p for p in corpus.pages if p.label == LEGIT
              and any(el.tag == "form" for _, el, _ in walk(p.tree))]
    if not usable:
        raise Unreachable("corpus has no form-bearing legitimate pages")

    model_features = {f for r in model.rules for f in r.features}
    avoid = split_avoid_terms(model_features)
    t = model.freq_detect_threshold
    out: list[tuple[str, DomTree, float]] = []
    index = 0
    while len(out) < count:
        base = usable[index % len(usable)]
        index += 1
        tree = base.tree.copy()
        for _, el, _ in walk(tree):
            if el.tag == "form":
                el.set_attr("action", action_url)
        plan = MutationPlan.on(tree)

        # deletion fixpoint over the model's deletable features
        for _ in range(20):
            fmap, before = plan.fmap, len(plan.ops)
            for feat in sorted(model_features):
                if fmap.get(feat, 0.0) == 0.0:
                    continue
                try:
                    plan_delete_feature(plan, feat, t, avoid)
                except (UnsupportedMutation, FeatureAbsent):
                    continue
            if len(plan.ops) == before:
                break

        fmap, deleted = plan.fmap, len(plan.ops)
        oracle = ScoreOracle(model)     # scores the plan's tally edit by edit
        candidates = sorted(
            f for f in model_features
            if (feature := Feature.parse(f)) is not None
            and feature.kind in UNDELETABLE_ADDABLE_KINDS
            and fmap.get(f, 0.0) == 0.0)
        for combo in chain.from_iterable(combinations(candidates, size)
                                         for size in range(len(candidates) + 1)):
            plan_add_rule(plan, combo, t)
            value = oracle.score_tally(plan.tally)
            if lo <= value < hi:
                out.append((base.url, plan.tree, value))
                break
            plan.undo(deleted)
        else:
            raise Unreachable(
                f"no undeletable-feature combination reaches [{lo}, {hi}) "
                f"for {base.url}")
    return out


def cmd_gen_fixtures(args) -> int:
    try:
        lo, hi = (float(v) for v in args.range.split(","))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError
    except ValueError:
        raise ValueError(f"--range must be two finite numbers LO,HI with LO < HI, "
                         f"not {clip(args.range)}") from None
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    _, model = _config_and_model(args)
    _require_feature_names(model, "gen-fixtures knowledge")
    corpus = load_corpus(args.corpus)
    pages = generate_fixture_pages(corpus, model, lo, hi, args.count,
                                   args.action_url)
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "manifest.jsonl")
    with open(manifest_path, "w", encoding="utf-8") as manifest:
        for i, (url, tree, value) in enumerate(pages):
            name = f"fixture_{i:03d}.html"
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(serialize(tree))
            manifest.write(json.dumps(
                {"url": url, "path": name, "label": "phish",
                 "score": round(value, 6)}, sort_keys=True) + "\n")
    print(f"wrote {len(pages)} fixture pages to {args.out}")
    return EXIT_OK


def _bucket_label(value: float) -> str:
    if value >= 1.0:
        return "1"
    for label, lo, hi in SCORE_BUCKETS:
        if lo <= value < hi:
            return label
    return "<0.5"


def _collect_rows(results_dir) -> list[dict]:
    """One row per attack report in the directory: a JSON object with
    ``steps``; other JSON files are skipped.  A report whose ``steps`` is not
    a list of objects with a finite number as ``score``, whose ``success``
    is not ``true`` or ``false`` (a missing one means false), or whose
    counters are not finite numbers, raises :class:`SchemaError`."""
    rows = []
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(results_dir, name), "r", encoding="utf-8") as fh:
            doc = decode_json(fh.read(), f"attack report {name!r}")
        if not isinstance(doc, dict) or "steps" not in doc:
            continue
        if not isinstance(doc["steps"], list) or not all(
                isinstance(step, dict) for step in doc["steps"]):
            raise SchemaError(f"attack report {name!r}: 'steps' must be a list of objects")
        for step in doc["steps"]:
            finite_number(step.get("score"), f"attack report {name!r}: step 'score'")
        for key in ("mutated_features", "mutated_rules", "queries", "additions"):
            finite_number(doc.get(key, 0), f"attack report {name!r}: {key!r}")
        success = doc.get("success", False)
        if not isinstance(success, bool):
            raise SchemaError(f"attack report {name!r}: 'success' must be true or "
                              f"false, not {clip(repr(success))}")
        initial = doc["steps"][0]["score"] if doc["steps"] else 0.0
        rows.append({
            "seed": name[: -len(".json")],
            "initial": initial,
            "bucket": _bucket_label(initial),
            "success": success,
            "features": doc.get("mutated_features", 0),
            "rules": doc.get("mutated_rules", 0),
            "queries": doc.get("queries", 0),
            "operations": doc.get("mutated_features", 0) + doc.get("additions", 0),
        })
    return rows


def _aggregate(rows) -> list[dict]:
    buckets: dict[str, list[dict]] = {}
    for row in rows:
        buckets.setdefault(row["bucket"], []).append(row)
    order = [label for label, _, _ in SCORE_BUCKETS] + ["1", "<0.5"]
    aggregated = []
    for label in order:
        group = buckets.get(label)
        if not group:
            continue
        n = len(group)
        aggregated.append({
            "bucket": label,
            "count": n,
            "succeeded": sum(1 for r in group if r["success"]),
            "mean_features": sum(r["features"] for r in group) / n,
            "mean_rules": sum(r["rules"] for r in group) / n,
            "mean_queries": sum(r["queries"] for r in group) / n,
            "mean_operations": sum(r["operations"] for r in group) / n,
        })
    return aggregated


def cmd_report(args) -> int:
    rows = _collect_rows(args.results)
    aggregated = _aggregate(rows)
    header = (f"{'Score':>10} {'#Seeds':>7} {'#Succeeded':>10} "
              f"{'Feat/Rules':>12} {'Queries':>8} {'Ops':>9}")
    print(header)
    for row in aggregated:
        print(f"{row['bucket']:>10} {row['count']:>7} {row['succeeded']:>10} "
              f"{row['mean_features']:>5.2f}/{row['mean_rules']:<6.2f} "
              f"{row['mean_queries']:>8.1f} {row['mean_operations']:>9.1f}")
    if args.compare:
        other = _aggregate(_collect_rows(args.compare))
        other_by_bucket = {r["bucket"]: r for r in other}
        print(f"\n{'Score':>10} {'Ops (A)':>10} {'Ops (B)':>10}")
        for row in aggregated:
            peer = other_by_bucket.get(row["bucket"])
            right = f"{peer['mean_operations']:.1f}" if peer else "-"
            print(f"{row['bucket']:>10} {row['mean_operations']:>10.1f} {right:>10}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "bucket", "count", "succeeded", "mean_features", "mean_rules",
                "mean_queries", "mean_operations"])
            writer.writeheader()
            for row in aggregated:
                writer.writerow(row)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phishevade",
        description="Rule-based phishing classifier workbench: score pages, "
                    "craft evasion attacks, invert hashed features, and run "
                    "the similarity defense.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a settings flag stores under its Config field, where
    # _config_and_model reads it
    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--tau", type=float, help="decision threshold override")
        p.add_argument("--freq-threshold", dest="freq_detect_threshold",
                       metavar="FREQ_THRESHOLD", type=float,
                       help="frequency detection threshold override")

    p = sub.add_parser("score", help="score one page")
    p.add_argument("page")
    p.add_argument("--url", help="page URL (defaults to a fixtures.test URL)")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("attack", help="craft an adversarial page")
    p.add_argument("page")
    p.add_argument("--url")
    common(p)
    p.add_argument("--level", choices=[attacks.WHITE, attacks.GREY, attacks.BLACK],
                   required=True)
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int,
                   help="RNG seed (default 0)")
    p.add_argument("--budget", type=int, help="addition budget (default 2000)")
    p.add_argument("--batch", type=int, help="rollback batch size (default 3)")
    p.add_argument("--pool", help="JSONL addition pool for black-box attacks")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock elapsed_ms in the report")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("defend", help="run the whitelist/similarity/classifier pipeline")
    p.add_argument("page")
    p.add_argument("--url")
    common(p)
    p.add_argument("--store", help="phishing store JSON file")
    p.add_argument("--whitelist")
    p.add_argument("--blacklist")
    p.add_argument("--now", type=float, help="clock override for store aging")
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("infer", help="invert hashed features against a corpus")
    p.add_argument("--corpus", required=True, help="JSONL corpus manifest")
    p.add_argument("--manifest", required=True, help="digest manifest, one 64-hex per line")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("prune", help="zero out subset or single rules")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=["subset", "single"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strip-weights", action="store_true",
                   help="write the output model without rule weights "
                        "(grey-box export)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("gen-fixtures", help="personalize legit pages into phishing fixtures")
    p.add_argument("--corpus", required=True)
    common(p)
    p.add_argument("--range", required=True, help="target score range LO,HI")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--action-url", default="http://collect.phish-pad.invalid/post",
                   help="external URL written into every form action")
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("report", help="aggregate attack reports into bucket tables")
    p.add_argument("results", help="directory of attack report JSON files")
    p.add_argument("--compare", help="second results directory for paired tables")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_report)
    return parser


# What a malformed input file or argument raises; each exits 2.
INPUT_ERRORS = (OSError, SchemaError, HashFormatError, UnknownRuleError, UrlError,
                ParseError, ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command is one short pass that keeps its page, tree copies and store
    # to the end and leaves little cyclic garbage; the collector's full
    # passes over a deep page cost an attack about half its time.
    try:
        with collector_paused():
            return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Unreachable as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
