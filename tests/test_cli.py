import csv
import gc
import json
import os
import re
import runpy
import shutil
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phishevade.attacks import white_box, white_knowledge
from phishevade.classifier import ScoreOracle, load_model, save_model
from phishevade.cli import (INPUT_ERRORS, _CONFIG_KEYS, Config, _config_and_model,
                            _dump_json, build_parser, load_config, main)
from phishevade.collision import load_corpus
from phishevade.dom import parse_html, serialize
from phishevade.features import extract_all_features, hash_feature
from phishevade.mutation import load_pool, save_pool
from phishevade.pelican import load_store
from phishevade.classifier import ClassificationRule, score

from conftest import (
    build_page_html,
    fixture_path,
    make_classifier,
    rule,
    suite_model,
    suite_pool,
    suite_seed_pages,
)


@pytest.fixture
def workdir(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(suite_model(), model_path)
    pool_path = tmp_path / "pool.jsonl"
    save_pool(suite_pool(), pool_path)
    seed = suite_seed_pages(per_bucket=1)[3][1]   # a [0.8,0.9) seed
    seed_path = tmp_path / "seed.html"
    seed_path.write_text(serialize(seed))
    return {"dir": tmp_path, "model": str(model_path), "pool": str(pool_path),
            "seed": str(seed_path), "seed_url": seed.source_url}


def run(argv):
    return main(argv)


# -- config ------------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    path = tmp_path / "wb.conf"
    path.write_text(
        "# comment\n"
        "budget = 500\n"
        "batch=5\n"
        "pelican.k=9\n"
        "pelican.detect_threshold = 0.8\n")
    config = load_config(path)
    assert config.budget == 500 and config.batch == 5
    assert config.pelican_k == 9
    assert config.pelican_detect_threshold == 0.8


@pytest.mark.parametrize("line", ["mystery=1", "model=x", "corpus=x", "pelican_k=3",
                                  "budget=lots", "pelican.k=1.5", "tau=high"],
                         ids=["mystery", "model", "corpus", "pelican-field-name",
                              "budget-not-an-integer", "pelican-k-not-an-integer",
                              "tau-not-a-number"])
def test_config_rejects_unknown_key(workdir, capsys, line):
    # the model and the corpus are only given as --model and --corpus; an
    # unknown key, or a value its key's type rejects, is named with its
    # path, line and key
    path = workdir["dir"] / "bad.conf"
    path.write_text("# settings\n" + line + "\n")
    key = line.partition("=")[0]
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{re.escape(key)}"):
        load_config(path)
    assert run(["score", workdir["seed"], "--model", workdir["model"],
                "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


def test_config_keys_are_the_config_fields():
    # each key names its Config field and the type its value is read as
    assert _CONFIG_KEYS == {
        "pool": ("pool", str),
        "tau": ("tau", float),
        "freq_detect_threshold": ("freq_detect_threshold", float),
        "rng_seed": ("rng_seed", int),
        "budget": ("budget", int),
        "batch": ("batch", int),
        "pelican.k": ("pelican_k", int),
        "pelican.h_hours": ("pelican_h_hours", float),
        "pelican.detect_threshold": ("pelican_detect_threshold", float),
        "pelican.layer_accept": ("pelican_layer_accept", float),
        "pelican.lookahead": ("pelican_lookahead", int),
    }


@pytest.mark.parametrize("key, flag, in_file, in_flag", [
    ("tau", "--tau", 0.6, 0.7),
    ("freq_detect_threshold", "--freq-threshold", 0.2, 0.3),
    ("rng_seed", "--seed", 5, 7),
    ("budget", "--budget", 10, 20),
    ("batch", "--batch", 2, 4),
    ("pool", "--pool", "file.jsonl", "flag.jsonl"),
])
def test_a_flag_overrides_the_config_file(workdir, key, flag, in_file, in_flag):
    path = workdir["dir"] / "wb.conf"
    path.write_text(f"{key}={in_file}\n")
    argv = ["attack", workdir["seed"], "--model", workdir["model"], "--level", "black",
            "--out", str(workdir["dir"] / "out"), "--config", str(path)]
    for extra, want in (([], in_file), ([flag, str(in_flag)], in_flag)):
        config, model = _config_and_model(build_parser().parse_args(argv + extra))
        assert getattr(config, key) == want
        if key == "tau":
            assert model.threshold == want
        if key == "freq_detect_threshold":
            assert model.freq_detect_threshold == want


def test_config_validates_ranges():
    config = Config(tau=1.5)
    with pytest.raises(ValueError):
        config.validate()


# -- score --------------------------------------------------------------------------

def test_score_prints_six_decimals_and_label(tmp_path, capsys):
    model = make_classifier([rule("r", {"PageTerm=nothing"}, 1.0)], bias=0.0)
    model_path = tmp_path / "zero.json"
    save_model(model, model_path)
    page_path = tmp_path / "page.html"
    page_path.write_text("<html><body><p>plain</p></body></html>")
    code = run(["score", str(page_path), "--model", str(model_path)])
    assert code == 0
    assert capsys.readouterr().out == "0.500000 PHISH\n"


def test_score_missing_file_exits_2(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(make_classifier([rule("r", {"f"}, 1.0)]), model_path)
    assert run(["score", str(tmp_path / "absent.html"),
                "--model", str(model_path)]) == 2


@pytest.mark.parametrize("rules", [
    5,
    [1],
    [{"id": "r", "features": "PageHasForms", "weight": 1.0}],
], ids=["rules-not-a-list", "rule-not-an-object", "features-a-string"])
def test_score_malformed_model_exits_2(tmp_path, capsys, rules):
    model_path = tmp_path / "broken.json"
    model_path.write_text(json.dumps({"bias": 0.0, "threshold": 0.5, "rules": rules}))
    page_path = tmp_path / "page.html"
    page_path.write_text("<html><body><form></form></body></html>")
    assert run(["score", str(page_path), "--model", str(model_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_score_page_with_malformed_references_exits_0(workdir, capsys):
    page_path = workdir["dir"] / "malformed.html"
    page_path.write_text('<html><body><a href="http://[x">a</a>'
                         '<form action="http://[x"></form>'
                         '<img src="http://[x"></body></html>')
    code = run(["score", str(page_path), "--model", workdir["model"]])
    assert code == 0
    assert capsys.readouterr().out.split()[1] in ("PHISH", "BENIGN")


def _hashed_twin(workdir, plain_path=None) -> str:
    """Save the workdir model, or the one at ``plain_path``, with every
    feature name replaced by its digest; returns the path."""
    plain = load_model(plain_path or workdir["model"])
    hashed_rules = [ClassificationRule(
        r.id, frozenset(hash_feature(f) for f in r.features), r.weight)
        for r in plain.rules]
    twin = make_classifier(hashed_rules, bias=plain.bias, hashed=True)
    twin_path = workdir["dir"] / "hashed.json"
    save_model(twin, twin_path)
    return str(twin_path)


def test_score_hashed_twin_matches_plaintext(workdir, capsys):
    twin_path = _hashed_twin(workdir)
    run(["score", workdir["seed"], "--model", workdir["model"],
         "--url", workdir["seed_url"]])
    plain_out = capsys.readouterr().out
    run(["score", workdir["seed"], "--model", str(twin_path),
         "--url", workdir["seed_url"]])
    assert capsys.readouterr().out == plain_out


@pytest.mark.parametrize("twin, flag", [(False, "false"), (True, 1)],
                         ids=["plain-the-string-false", "hashed-the-number-1"])
def test_score_model_with_a_malformed_hashed_flag_exits_2(workdir, capsys, twin, flag):
    path = _hashed_twin(workdir) if twin else workdir["model"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["hashed"] = flag
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert run(["score", workdir["seed"], "--model", path,
                "--url", workdir["seed_url"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'hashed'" in err and "digest" not in err


# -- attack -------------------------------------------------------------------------

def test_attack_white_succeeds_and_writes_outputs(workdir, capsys):
    out = workdir["dir"] / "out"
    code = run(["attack", workdir["seed"], "--model", workdir["model"],
                "--level", "white", "--url", workdir["seed_url"],
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "seed.white.report.json").read_text())
    assert report["success"] is True
    assert report["elapsed_ms"] is None          # deterministic by default
    assert report["steps"][0]["score"] >= 0.5
    assert report["steps"][-1]["score"] < 0.5
    final = (out / "seed.white.final.html").read_text()
    assert "<html" in final


@pytest.mark.parametrize("value", ["0", "1.5"])
def test_attack_frequency_threshold_out_of_range_exits_2(workdir, capsys, value):
    # 0 divided by zero while diluting, 1.5 padded a ratio forever
    assert run(["attack", workdir["seed"], "--model", workdir["model"],
                "--level", "white", "--freq-threshold", value,
                "--out", str(workdir["dir"] / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: freq_detect_threshold")


def test_attack_model_with_zero_frequency_threshold_exits_2(workdir, capsys):
    doc = json.loads(open(workdir["model"]).read())
    doc["freq_detect_threshold"] = 0
    model_path = workdir["dir"] / "zero-freq.json"
    model_path.write_text(json.dumps(doc))
    assert run(["attack", workdir["seed"], "--model", str(model_path),
                "--level", "white", "--out", str(workdir["dir"] / "out")]) == 2
    assert "freq_detect_threshold" in capsys.readouterr().err


def _nested_seed(workdir, depth: int) -> str:
    """The workdir seed page with its body content ``depth`` <div>s down;
    returns the path."""
    html = open(workdir["seed"]).read()
    deep = workdir["dir"] / "deep.html"
    deep.write_text(html.replace("<body>", "<body>" + "<div>" * depth, 1)
                    .replace("</body>", "</div>" * depth + "</body>", 1))
    return str(deep)


def test_attack_on_a_deeply_nested_page_exits_0(workdir):
    # the form and the links sit 300 <div>s down; copying the page with
    # copy.deepcopy ran out of Python stack at about 150 levels
    deep = _nested_seed(workdir, 300)
    out = workdir["dir"] / "out"
    assert run(["attack", deep, "--model", workdir["model"],
                "--level", "white", "--url", workdir["seed_url"],
                "--out", str(out)]) == 0
    assert json.loads((out / "deep.white.report.json").read_text())["success"]


def test_score_and_attack_on_a_page_2000_levels_deep_exit_0(workdir, capsys):
    # serialize, the element and text walks and the preservation walks
    # recursed once per level and raised RecursionError from about 1,000
    deep = _nested_seed(workdir, 2000)
    assert run(["score", deep, "--model", workdir["model"],
                "--url", workdir["seed_url"]]) == 0
    assert capsys.readouterr().out.split()[1] == "PHISH"
    out = workdir["dir"] / "out"
    assert run(["attack", deep, "--model", workdir["model"],
                "--level", "white", "--url", workdir["seed_url"],
                "--out", str(out)]) == 0
    assert json.loads((out / "deep.white.report.json").read_text())["success"]


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    """The README walkthrough's files, written by the first demo into a
    temporary ``workbench/``, with the seed's body content nested 4,000 and
    16,000 ``<div>`` deep in ``deep4000.html`` and ``deep16000.html``."""
    demos = tmp_path_factory.mktemp("demos")
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "demos", "00_make_workbench_files.py")
    shutil.copy(script, demos)
    runpy.run_path(str(demos / os.path.basename(script)), run_name="__main__")
    bench = demos / "workbench"
    html = (bench / "seed.html").read_text()
    for depth in (4000, 16000):
        (bench / f"deep{depth}.html").write_text(
            html.replace("<body>", "<body>" + "<div>" * depth, 1)
            .replace("</body>", "</div>" * depth + "</body>", 1))
    return bench


@pytest.mark.parametrize("command", ["score", "white", "grey", "black", "defend"])
def test_commands_take_linear_time_and_memory_in_the_depth_of_a_page(workbench, command):
    """Four times the depth takes under eight times the time and the
    tracemalloc peak.  The walks kept a path tuple per node and the
    planners kept them all: a white attack peaked at 125.6 MB 4,000 levels
    deep and at 1,990 MB of RSS 16,000 deep."""
    store = workbench / f"{command}.store.json"

    def argv(depth):
        args = [str(workbench / f"deep{depth}.html"), "--model", str(workbench / "model.json"),
                "--url", "http://account-services.badhost.test/login"]
        if command == "score":
            return ["score", *args]
        if command == "defend":
            return ["defend", *args, "--store", str(store), "--now", "100"]
        if command == "black":
            args += ["--pool", str(workbench / "pool.jsonl")]
        return ["attack", *args, "--level", command, "--out", str(workbench / "out")]

    def seconds(args):
        best = float("inf")
        for _ in range(3):
            store.unlink(missing_ok=True)   # defend writes the page to a new store
            started = time.perf_counter()
            assert run(args) == 0
            best = min(best, time.perf_counter() - started)
        return best

    def peak(args):
        store.unlink(missing_ok=True)
        tracemalloc.start()
        try:
            assert run(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = argv(4000), argv(16000)
    assert seconds(large) < 8 * seconds(small)
    assert peak(large) < 8 * peak(small)


@pytest.mark.parametrize("level", ["white", "grey"])
def test_attack_with_hashed_knowledge_exits_2_and_names_infer(workdir, capsys, level):
    out = workdir["dir"] / "out"
    assert run(["attack", workdir["seed"], "--model", _hashed_twin(workdir),
                "--level", level, "--url", workdir["seed_url"],
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "hashed" in err and "infer" in err
    assert not out.exists()


def test_black_attack_on_a_hashed_model_still_runs(workdir):
    out = workdir["dir"] / "out"
    assert run(["attack", workdir["seed"], "--model", _hashed_twin(workdir),
                "--level", "black", "--pool", workdir["pool"],
                "--url", workdir["seed_url"], "--out", str(out)]) == 0
    assert json.loads((out / "seed.black.report.json").read_text())["success"]


def test_attack_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """A rule over three frequency features whose values differ from 1
    scores the same under any hash seed: its values are multiplied in
    sorted feature order, not in the order its feature set iterates."""
    import subprocess
    import sys

    import phishevade
    model_path = tmp_path / "model.json"
    save_model(make_classifier([rule("r", {
        "PageExternalLinksFreq", "PageSecureLinksFreq", "PageImgOtherDomainFreq"},
        9.3058)]), model_path)
    seed_path = tmp_path / "seed.html"
    seed_path.write_text(build_page_html(       # 3/7 links external and https
        secure_links=3, internal_links=4,       # 1/3 images on another domain
        imgs=["/a.png", "/b.png", "http://elsewhere.example.com/c.png"]))
    package_root = os.path.dirname(os.path.dirname(phishevade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "phishevade", "attack", str(seed_path),
             "--model", str(model_path), "--level", "black",
             "--url", "http://seed.test/login", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**env, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode in (0, 4), proc.stderr
        outputs.append(((out / "seed.black.report.json").read_bytes(),
                        (out / "seed.black.final.html").read_bytes()))
    assert outputs[0] == outputs[1]


def test_attack_on_benign_page_exits_3(workdir, tmp_path):
    benign = tmp_path / "benign.html"
    benign.write_text("<html><body><p>garden news</p></body></html>")
    out = tmp_path / "o"
    assert run(["attack", str(benign), "--model", workdir["model"],
                "--level", "white", "--out", str(out)]) == 3


def test_attack_same_seed_is_byte_identical(workdir):
    out1, out2 = workdir["dir"] / "r1", workdir["dir"] / "r2"
    for out in (out1, out2):
        code = run(["attack", workdir["seed"], "--model", workdir["model"],
                    "--level", "black", "--pool", workdir["pool"],
                    "--seed", "42", "--url", workdir["seed_url"],
                    "--out", str(out)])
        assert code == 0
    for name in ["seed.black.report.json", "seed.black.final.html"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("level", ["white", "grey", "black"])
def test_attack_writes_the_pinned_bytes(workdir, capsys, monkeypatch, level):
    # the report, the final page and stdout of `attack --seed 42 --pool`;
    # relative paths keep the report's seed_path independent of the
    # temporary directory
    monkeypatch.chdir(workdir["dir"])
    code = run(["attack", "seed.html", "--model", "model.json",
                "--level", level, "--pool", "pool.jsonl", "--seed", "42",
                "--url", workdir["seed_url"], "--out", "out"])
    assert code == 0
    outputs = {f"seed.{level}.stdout": capsys.readouterr().out.encode()}
    for name in [f"seed.{level}.report.json", f"seed.{level}.final.html"]:
        outputs[name] = (workdir["dir"] / "out" / name).read_bytes()
    pinned = fixture_path("attack_cli")
    for name, data in outputs.items():
        with open(os.path.join(pinned, name), "rb") as fh:
            assert data == fh.read(), name


def test_attack_exhausted_exits_4(tmp_path):
    clf = make_classifier([rule("p", {"PageHasForms"}, 0.8)], bias=-0.1)
    model_path = tmp_path / "m.json"
    save_model(clf, model_path)
    page_path = tmp_path / "p.html"
    page_path.write_text(build_page_html(bare_form=True))
    out = tmp_path / "o"
    code = run(["attack", str(page_path), "--model", str(model_path),
                "--level", "white", "--out", str(out)])
    assert code == 4
    report = json.loads((out / "p.white.report.json").read_text())
    assert report["status"] == "exhausted"


def test_attack_grey_level_runs(workdir):
    out = workdir["dir"] / "grey_out"
    assert run(["attack", workdir["seed"], "--model", workdir["model"],
                "--level", "grey", "--url", workdir["seed_url"],
                "--out", str(out)]) == 0


# -- defend -------------------------------------------------------------------------

def test_defend_pipeline_roundtrip(workdir, capsys):
    store_path = workdir["dir"] / "store.json"
    wl = workdir["dir"] / "wl.txt"
    wl.write_text("https://trusted.test/home\n")

    # classifier detects the seed -> store updated
    code = run(["defend", workdir["seed"], "--model", workdir["model"],
                "--url", workdir["seed_url"], "--store", str(store_path),
                "--whitelist", str(wl), "--now", "100"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["label"] == "phishing_by_classifier"
    assert store_path.exists()

    # crafted sample from the same seed is caught without the classifier
    clf = load_model(workdir["model"])
    with open(workdir["seed"], "rb") as fh:
        seed_tree = parse_html(fh.read(), workdir["seed_url"])
    crafted = white_box(white_knowledge(clf, ScoreOracle(clf)), seed_tree)
    crafted_path = workdir["dir"] / "crafted.html"
    crafted_path.write_text(serialize(crafted.final_page))
    code = run(["defend", str(crafted_path), "--model", workdir["model"],
                "--url", workdir["seed_url"], "--store", str(store_path),
                "--now", "200"])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["label"] == "evasion_detected"
    assert verdict["similarity"] >= 0.9

    # whitelisted URL short-circuits
    code = run(["defend", workdir["seed"], "--model", workdir["model"],
                "--url", "https://trusted.test/home", "--store", str(store_path),
                "--whitelist", str(wl)])
    assert json.loads(capsys.readouterr().out)["label"] == "whitelisted"

    benign_path = workdir["dir"] / "benign.html"
    benign_path.write_text("<html><body><p>nothing here</p></body></html>")
    code = run(["defend", str(benign_path), "--model", workdir["model"],
                "--store", str(workdir["dir"] / "fresh-store.json")])
    assert json.loads(capsys.readouterr().out)["label"] == "benign"


def test_defend_never_matches_an_expired_entry(workdir, capsys):
    store_path = workdir["dir"] / "store.json"
    defend = ["defend", workdir["seed"], "--model", workdir["model"],
              "--url", workdir["seed_url"], "--store", str(store_path)]
    assert run([*defend, "--now", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "phishing_by_classifier"
    # the same page again, within the 24-hour horizon and far past it
    assert run([*defend, "--now", str(1000 + 24 * 3600)]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "evasion_detected"
    assert run([*defend, "--now", "9999999999"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "phishing_by_classifier"
    entries = json.loads(store_path.read_text())["entries"]
    assert [e["timestamp"] for e in entries] == [9999999999.0]


def test_defend_twice_gives_the_same_verdicts_and_store(workdir, capsys):
    results = []
    for name in ("one", "two"):
        store_path = workdir["dir"] / f"{name}.json"
        verdicts = []
        for now in ("1000", "1000"):
            assert run(["defend", workdir["seed"], "--model", workdir["model"],
                        "--url", workdir["seed_url"], "--store", str(store_path),
                        "--now", now]) == 0
            verdicts.append(capsys.readouterr().out)
        results.append((verdicts, store_path.read_bytes()))
    assert results[0] == results[1]
    assert [json.loads(v)["label"] for v in results[0][0]] == \
        ["phishing_by_classifier", "evasion_detected"]


@pytest.mark.parametrize("h_hours", ["nan", "-1"])
def test_defend_with_an_invalid_store_horizon_exits_2(workdir, capsys, h_hours):
    store_path = workdir["dir"] / "store.json"
    defend = ["defend", workdir["seed"], "--model", workdir["model"],
              "--url", workdir["seed_url"], "--store", str(store_path),
              "--now", "1000"]
    assert run(defend) == 0
    capsys.readouterr()
    stored = store_path.read_bytes()
    config = workdir["dir"] / "bad.conf"
    config.write_text(f"pelican.h_hours={h_hours}\n")
    assert run([*defend, "--config", str(config)]) == 2
    assert "pelican.h_hours" in capsys.readouterr().err
    assert store_path.read_bytes() == stored


@pytest.mark.parametrize("now", ["nan", "inf", "-inf"])
def test_defend_with_a_non_finite_clock_exits_2(workdir, capsys, now):
    store_path = workdir["dir"] / "store.json"
    defend = ["defend", workdir["seed"], "--model", workdir["model"],
              "--url", workdir["seed_url"], "--store", str(store_path)]
    assert run([*defend, "--now", "1000"]) == 0
    capsys.readouterr()
    stored = store_path.read_bytes()
    assert run([*defend, f"--now={now}"]) == 2
    assert "finite" in capsys.readouterr().err
    assert store_path.read_bytes() == stored


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_command_runs_with_the_collector_paused_and_leaves_its_state(
        workdir, capsys, monkeypatch, enabled):
    """``main`` pauses the cyclic collector for the whole command and then
    restores its state: a defend against an existing store freezes nothing,
    and a command that exits 2 restores the state too."""
    store_path = workdir["dir"] / "store.json"
    defend = ["defend", workdir["seed"], "--model", workdir["model"],
              "--url", workdir["seed_url"], "--store", str(store_path)]
    assert run([*defend, "--now", "1000"]) == 0
    seen = []
    monkeypatch.setattr("phishevade.cli._dump_json",
                        lambda *args, _f=_dump_json: seen.append(gc.isenabled()) or _f(*args))
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run([*defend, "--now", "1000"]) == 0
        assert gc.isenabled() is enabled
        assert run([*defend, "--now=nan"]) == 2
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]
    assert "finite" in capsys.readouterr().err


# -- start-up cost -------------------------------------------------------------------

# Each script runs in a fresh interpreter and prints, as its last line,
# which of numpy and SciPy it loaded.
_LOADED = "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)"
_LOADED_AFTER_MAIN = (
    "import json, sys\n"
    "from phishevade.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(json.dumps([code, {_LOADED}]))\n")
_LOADED_AFTER_IMPORTING_PELICAN = (
    "import json, sys\n"
    "import phishevade.pelican\n"
    f"print(json.dumps({_LOADED}))\n")


def _in_fresh_interpreter(script, argv=()):
    """(what the script printed before its last line, that line decoded)."""
    import subprocess
    import sys

    import phishevade
    package_root = os.path.dirname(os.path.dirname(phishevade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    printed, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return printed, json.loads(last)


def _cli_in_fresh_interpreter(argv):
    return _in_fresh_interpreter(_LOADED_AFTER_MAIN, argv)


def test_only_defend_loads_numpy_and_scipy(workdir):
    """numpy loads at ``defend``'s first full comparison, and SciPy only
    once that comparison assigns; a ``defend`` that compares nothing in
    full (an empty store, a scan the bound prunes) loads neither."""
    page = ["--model", workdir["model"], "--url", workdir["seed_url"]]
    assert _cli_in_fresh_interpreter(["score", workdir["seed"], *page])[1] == [0, []]
    assert _cli_in_fresh_interpreter(
        ["attack", workdir["seed"], *page, "--level", "black", "--pool", workdir["pool"],
         "--seed", "42", "--out", str(workdir["dir"] / "out")])[1] == [0, []]
    store = str(workdir["dir"] / "store.json")
    defend = ["defend", workdir["seed"], *page, "--store", store]
    printed, loaded = _cli_in_fresh_interpreter([*defend, "--now", "1000"])
    assert json.loads(printed)["label"] == "phishing_by_classifier"
    assert loaded == [0, []]
    assert load_store(store).entries
    # the stored seed's bound against this page is below the floor, so the
    # scan compares nothing and the classifier decides
    printed, loaded = _cli_in_fresh_interpreter(
        ["defend", fixture_path("news_home.html"), "--model", workdir["model"],
         "--url", "https://dailyledger.test/", "--store", store, "--now", "1001"])
    assert json.loads(printed)["label"] == "phishing_by_classifier"
    assert loaded == [0, []]
    printed, loaded = _cli_in_fresh_interpreter([*defend, "--now", "1002"])
    assert json.loads(printed)["label"] == "evasion_detected"
    assert loaded == [0, ["numpy", "scipy"]]
    assert _in_fresh_interpreter(_LOADED_AFTER_IMPORTING_PELICAN) == ("", [])


# -- infer --------------------------------------------------------------------------

def _write_corpus_manifest(path):
    records = [
        {"url": "http://paypal.com.secure-login.test/signin",
         "path": fixture_path("login_paypal.html"), "label": "phish"},
        {"url": "https://dailyledger.test/",
         "path": fixture_path("news_home.html"), "label": "legit"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_infer_self_consistent_corpus(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    _write_corpus_manifest(corpus_path)
    manifest_path = tmp_path / "digests.txt"
    manifest_path.write_text(
        hash_feature("PageTerm=PayPal") + "\n" +
        hash_feature("PageHasPswdInputs") + "\n" +
        hash_feature("PageTerm=not-anywhere") + "\n")
    code = run(["infer", "--corpus", str(corpus_path),
                "--manifest", str(manifest_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["elapsed_ms"] is None
    assert set(report["recovered"].values()) == {"PageTerm=PayPal",
                                                 "PageHasPswdInputs"}
    assert report["unrecovered"] == [hash_feature("PageTerm=not-anywhere")]


def test_infer_empty_manifest(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    _write_corpus_manifest(corpus_path)
    manifest_path = tmp_path / "digests.txt"
    manifest_path.write_text("")
    assert run(["infer", "--corpus", str(corpus_path),
                "--manifest", str(manifest_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recovered"] == {} and report["unrecovered"] == []


def test_infer_malformed_hex_exits_2(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    _write_corpus_manifest(corpus_path)
    manifest_path = tmp_path / "digests.txt"
    manifest_path.write_text("NOT-HEX\n")
    assert run(["infer", "--corpus", str(corpus_path),
                "--manifest", str(manifest_path)]) == 2


def test_infer_corpus_url_with_an_empty_host_exits_2_naming_it(tmp_path, capsys):
    corpus_path = tmp_path / "bad.jsonl"
    corpus_path.write_text(json.dumps({"url": "http://./x", "label": "phish"}) + "\n")
    manifest_path = tmp_path / "digests.txt"
    manifest_path.write_text(hash_feature("PageHasForms") + "\n")
    assert run(["infer", "--corpus", str(corpus_path),
                "--manifest", str(manifest_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {corpus_path}:1: not an absolute URL: 'http://./x'\n"


def test_infer_corpus_page_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "bad.html").write_bytes(b"<html>\xff</html>")
    corpus_path = tmp_path / "bad.jsonl"
    corpus_path.write_text(json.dumps({"url": "http://a.test/", "path": "bad.html",
                                       "label": "phish"}) + "\n")
    manifest_path = tmp_path / "digests.txt"
    manifest_path.write_text(hash_feature("PageHasForms") + "\n")
    assert run(["infer", "--corpus", str(corpus_path),
                "--manifest", str(manifest_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {corpus_path}:1: document is not valid UTF-8: ")


@pytest.mark.parametrize("url", ["http://./", "http:// /", "http://a..b.com/"])
def test_score_url_with_an_empty_host_label_exits_2_naming_it(workdir, capsys, url):
    assert run(["score", workdir["seed"], "--model", workdir["model"],
                "--url", url]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not an absolute URL: {url!r}\n"


# -- malformed loader input --------------------------------------------------------

# Raw text, nested deeper than the JSON decoder can recurse.
DEEP = "[" * 100_000
# Raw text, one malformed line of 100,000 characters.
LONG_LINE = json.dumps(["x" * 99_996]) + "\n"


@pytest.mark.parametrize("loader, content", [
    ("corpus", {"path": "seed.html", "label": "legit"}),
    ("corpus", {"url": "https://dailyledger.test/", "path": 5}),
    ("store", {"entries": [{"timestamp": 1.0}]}),
    ("store", {"entries": 5}),
    ("store", {"entries": [{"signature": [[
        {"tag": "html", "attrs": "abc", "texts": []}]], "timestamp": 1}]}),
    ("store", {"entries": [{"signature": [[
        {"tag": "html", "attrs": [1, 2], "texts": []}]], "timestamp": 1}]}),
    ("store", {"entries": [{"signature": [], "timestamp": "1000"}]}),
    ("store", {"entries": [{"signature": [], "timestamp": "nan"}]}),
    ("store", {"entries": [{"signature": [], "timestamp": True}]}),
    ("store", {"entries": [{"signature": [], "timestamp": float("nan")}]}),
    ("store", {"entries": [{"signature": [], "timestamp": float("inf")}]}),
    ("store", {"entries": [{"signature": [], "timestamp": 10 ** 400}]}),
    ("pool", {"attrs": {}, "text": "x"}),
    ("pool", {"tag": "a", "attrs": {"href": 5}, "text": None}),
    ("pool", {"tag": "SCRIPT", "text": "privacy"}),
    ("pool", {"tag": "BODY"}),
    ("pool", {"tag": "", "attrs": {"style": "x"}, "text": "privacy"}),
    ("pool", {"tag": "script", "text": "a</script>privacy"}),
    ("pool", {"tag": "img", "text": "privacy"}),
    ("pool", {"tag": "div", "attrs": {"a b": "1"}}),
    ("pool", {"tag": "![", "text": "privacy"}),
    ("report", {"steps": 5}),
    ("report", {"steps": [{"x": 1}]}),
    ("report", {"steps": [{"score": "x"}]}),
    ("report", {"steps": [], "mutated_features": "a"}),
    ("report", {"steps": [{"score": float("inf")}]}),
    ("report", {"steps": [], "queries": True}),
    ("report", {"steps": [], "success": "false"}),
    ("report", {"steps": [], "success": 1}),
    ("model", '{"bias": 0.0, "threshold": 0.5, "rules": '
              '[{"id": "r", "features": ["PageHasForms"], "weight": 1e400}]}'),
    ("model", {"bias": 0.0, "threshold": 0.5, "rules": ["x" * 100_000]}),
    ("model", {"bias": 0.0, "threshold": 0.5, "rules": [
        {"id": "r" * 100_000, "features": ["PageHasForms"], "weight": "z"}]}),
    ("model", DEEP), ("store", DEEP), ("pool", DEEP), ("corpus", DEEP), ("report", DEEP),
    ("corpus", LONG_LINE), ("pool", LONG_LINE),
], ids=["corpus-record-without-url", "corpus-path-not-a-string",
        "store-entry-without-signature", "store-entries-not-a-list",
        "store-attrs-a-string", "store-hash-not-a-string",
        "store-timestamp-a-string", "store-timestamp-the-string-nan",
        "store-timestamp-a-boolean", "store-timestamp-nan",
        "store-timestamp-infinite", "store-timestamp-too-large-an-integer",
        "pool-line-without-tag", "pool-attribute-value-not-a-string",
        "pool-tag-upper-case-script", "pool-tag-upper-case-body", "pool-tag-empty",
        "pool-script-text-closing-the-script", "pool-text-on-a-void-tag",
        "pool-attribute-name-with-a-space", "pool-tag-the-tokenizer-rejects",
        "report-steps-not-a-list", "report-step-without-score",
        "report-score-not-a-number", "report-counter-not-a-number",
        "report-score-infinite", "report-counter-a-boolean",
        "report-success-a-string", "report-success-a-number", "model-weight-1e400",
        "model-rule-too-long", "model-rule-id-too-long",
        "model-too-deep", "store-too-deep", "pool-too-deep", "corpus-too-deep",
        "report-too-deep", "corpus-line-too-long", "pool-line-too-long"])
def test_malformed_loader_input_exits_2(workdir, capsys, loader, content):
    inputs = workdir["dir"] / "inputs"
    inputs.mkdir()
    path = inputs / f"bad-{loader}.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content) + "\n")
    manifest = workdir["dir"] / "digests.txt"
    manifest.write_text("")
    page = [workdir["seed"], "--model", workdir["model"], "--url", workdir["seed_url"]]
    argv = {
        "corpus": ["infer", "--corpus", str(path), "--manifest", str(manifest)],
        "store": ["defend", *page, "--store", str(path)],
        "pool": ["attack", *page, "--level", "black", "--pool", str(path),
                 "--out", str(workdir["dir"] / "out")],
        "model": ["score", workdir["seed"], "--model", str(path),
                  "--url", workdir["seed_url"]],
        "report": ["report", str(inputs)],
    }[loader]
    assert run(argv) == 2
    assert gc.isenabled()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.encode()) < 500


# Random JSON documents: any value, and the loaders' own shapes with any
# value in each place, so that the fuzzing reaches past the first checks.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10)


def _shaped(**fields):
    return st.fixed_dictionaries({}, optional={key: value | JSON
                                               for key, value in fields.items()})


STRINGS = st.lists(st.text(max_size=8) | JSON, max_size=3)
MODELS = _shaped(rules=st.lists(_shaped(id=JSON, features=STRINGS, weight=JSON),
                                max_size=3),
                 bias=JSON, threshold=JSON, hashed=JSON, freq_detect_threshold=JSON)
STORES_JSON = _shaped(entries=st.lists(_shaped(
    signature=st.lists(st.lists(_shaped(tag=JSON, attrs=STRINGS, texts=STRINGS),
                                max_size=3), max_size=3),
    timestamp=JSON), max_size=3))
RECORDS = _shaped(url=st.text(max_size=20),
                  path=st.sampled_from(["page.html", "missing.html", "", "."]),
                  label=JSON)
POOL_LINES = _shaped(tag=st.text(max_size=4),
                     attrs=st.dictionaries(st.text(max_size=4), JSON, max_size=3),
                     text=JSON)
LINES = st.lists((RECORDS | POOL_LINES | JSON).map(json.dumps) | st.text(max_size=20),
                 max_size=4)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "page.html").write_text("<html><body><p>x</p></body></html>")
    return path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=MODELS | STORES_JSON | JSON, lines=LINES)
def test_loaders_return_or_raise_what_the_cli_exits_2_for(fuzz_dir, doc, lines):
    whole, per_line = fuzz_dir / "doc.json", fuzz_dir / "doc.jsonl"
    whole.write_text(json.dumps(doc))
    per_line.write_text("\n".join(lines))
    for loader, path in [(load_model, whole), (load_store, whole),
                         (load_corpus, per_line), (load_pool, per_line)]:
        try:
            loader(path)
        except INPUT_ERRORS:
            pass
        assert gc.isenabled()


@settings(max_examples=300, deadline=None)
@given(text=st.text() | st.binary(), url=st.text(max_size=30))
def test_parse_html_returns_or_raises_what_the_cli_exits_2_for(text, url):
    try:
        parse_html(text, url)
    except INPUT_ERRORS:
        pass


# -- prune --------------------------------------------------------------------------

def test_prune_subset_zeroes_known_pairs(tmp_path, capsys):
    clf = make_classifier([
        rule("big1", {"A", "B"}, 1.0), rule("sub1", {"A"}, 0.5),
        rule("big2", {"C", "D"}, -1.0), rule("sub2", {"D"}, -0.5),
        rule("big3", {"E", "F", "G"}, 2.0), rule("sub3", {"E", "F"}, 1.0),
        rule("lone", {"H"}, 0.7),
    ])
    model_path = tmp_path / "m.json"
    save_model(clf, model_path)
    out_path = tmp_path / "pruned.json"
    assert run(["prune", "--model", str(model_path), "--strategy", "subset",
                "--out", str(out_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 3
    assert set(summary["pruned"]) == {"sub1", "sub2", "sub3"}
    pruned = load_model(out_path)
    for rule_id in ["sub1", "sub2", "sub3"]:
        assert pruned.rule(rule_id).weight == 0.0
    assert pruned.rule("big1").weight == 1.0


def test_prune_strip_weights_export(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(suite_model(), model_path)
    out_path = tmp_path / "grey.json"
    assert run(["prune", "--model", str(model_path), "--strategy", "subset",
                "--out", str(out_path), "--strip-weights"]) == 0
    doc = json.loads(out_path.read_text())
    assert all("weight" not in entry for entry in doc["rules"])
    from phishevade.classifier import load_rule_features
    assert len(load_rule_features(out_path)) == 20


def test_prune_single_none_and_idempotence(tmp_path, capsys):
    clf = make_classifier([rule("a", {"X", "Y"}, 1.0), rule("b", {"Y"}, 0.5)])
    model_path = tmp_path / "m.json"
    save_model(clf, model_path)
    out1 = tmp_path / "p1.json"
    assert run(["prune", "--model", str(model_path), "--strategy", "single",
                "--out", str(out1)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0

    suite_path = tmp_path / "suite.json"
    save_model(suite_model(), suite_path)
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    run(["prune", "--model", str(suite_path), "--strategy", "subset",
         "--out", str(once)])
    capsys.readouterr()
    run(["prune", "--model", str(once), "--strategy", "subset",
         "--out", str(twice)])
    capsys.readouterr()
    assert once.read_bytes() == twice.read_bytes()


# -- gen-fixtures ---------------------------------------------------------------------

GEN_MODEL_RULES = [
    ("p_forms", {"PageHasForms"}, 0.9),
    ("p_gt1", {"PageNumScriptTags>1"}, 0.7),
    ("p_radio", {"PageHasRadioInputs"}, 0.6),
    ("p_check", {"PageHasCheckInputs"}, 0.5),
    ("p_gt6", {"PageNumScriptTags>6"}, 0.4),
    ("p_seeds", {"PageTerm=seeds"}, 1.0),
]


def _legit_corpus_manifest(path):
    records = []
    for name, url in [("news_home.html", "https://dailyledger.test/"),
                      ("shop_index.html", "https://gardensupply.test/shop"),
                      ("blog_post.html", "https://fieldnotes.test/posts/x")]:
        records.append({"url": url, "path": fixture_path(name), "label": "legit"})
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_gen_fixtures_lands_in_bucket(tmp_path):
    model = make_classifier([rule(*args) for args in GEN_MODEL_RULES], bias=-0.3)
    model_path = tmp_path / "gen-model.json"
    save_model(model, model_path)
    corpus_path = tmp_path / "legit.jsonl"
    _legit_corpus_manifest(corpus_path)
    out = tmp_path / "gen"
    code = run(["gen-fixtures", "--corpus", str(corpus_path),
                "--model", str(model_path), "--range", "0.8,0.9",
                "--count", "4", "--out", str(out)])
    assert code == 0
    manifest = [json.loads(line) for line in
                (out / "manifest.jsonl").read_text().splitlines()]
    assert len(manifest) == 4
    for record in manifest:
        with open(out / record["path"], "rb") as fh:
            tree = parse_html(fh.read(), record["url"])
        value = score(model, extract_all_features(tree))
        assert 0.8 <= value < 0.9
        html = serialize(tree)
        assert 'action="http://collect.phish-pad.invalid/post"' in html


def test_gen_fixtures_writes_the_pinned_bytes(tmp_path):
    # three pages that take deletions, term splits and added combinations;
    # the expected files are the output of the copy-per-candidate search
    model = make_classifier([rule(*args) for args in GEN_MODEL_RULES], bias=-0.3)
    model_path = tmp_path / "gen-model.json"
    save_model(model, model_path)
    corpus_path = tmp_path / "legit.jsonl"
    _legit_corpus_manifest(corpus_path)
    out = tmp_path / "gen"
    assert run(["gen-fixtures", "--corpus", str(corpus_path),
                "--model", str(model_path), "--range", "0.9,1.0",
                "--count", "3", "--out", str(out)]) == 0
    pinned = fixture_path("gen_fixtures")
    assert sorted(os.listdir(out)) == sorted(os.listdir(pinned))
    for name in os.listdir(pinned):
        with open(os.path.join(pinned, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_gen_fixtures_unreachable_exits_4(tmp_path):
    model = make_classifier([rule(*args) for args in GEN_MODEL_RULES], bias=-0.3)
    model_path = tmp_path / "gen-model.json"
    save_model(model, model_path)
    corpus_path = tmp_path / "legit.jsonl"
    _legit_corpus_manifest(corpus_path)
    assert run(["gen-fixtures", "--corpus", str(corpus_path),
                "--model", str(model_path), "--range", "0.98,0.99",
                "--count", "1", "--out", str(tmp_path / "none")]) == 4


def test_gen_fixtures_on_a_hashed_model_exits_2_and_names_infer(workdir, capsys):
    """The fixture planners read feature names, so the SHA-256 twin of the
    workbench model is refused before the corpus is read, as white and grey
    attacks refuse it, and nothing is written."""
    corpus_path = workdir["dir"] / "legit.jsonl"
    _legit_corpus_manifest(corpus_path)
    out = workdir["dir"] / "gen"
    workbench_model = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "demos", "workbench", "model.json")
    twin = _hashed_twin(workdir, workbench_model)
    with mock.patch("phishevade.cli.load_corpus") as load:
        assert run(["gen-fixtures", "--corpus", str(corpus_path),
                    "--model", twin, "--range", "0.6,0.7",
                    "--count", "3", "--out", str(out)]) == 2
    assert not load.called
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hashed" in err and "infer" in err


@pytest.mark.parametrize("argv", [
    ["--range=nan,0.7"], ["--range=0.5,nan"], ["--range=0.7,0.6"],
    ["--range=0.6,0.6"], ["--range=0.6,inf"], ["--range=-inf,0.6"],
    ["--range=0.6,0.7", "--count=0"], ["--range=0.6,0.7", "--count=-2"],
    ["--range=0.1,0.2,0.3"], ["--range=0.6"], ["--range=low,high"], ["--range="],
])
def test_gen_fixtures_malformed_range_or_count_exits_2(tmp_path, capsys, argv):
    """A range that is not two finite numbers LO < HI, or a count below 1,
    is rejected before the corpus is read, and nothing is written."""
    model_path = tmp_path / "gen-model.json"
    save_model(make_classifier([rule(*args) for args in GEN_MODEL_RULES],
                               bias=-0.3), model_path)
    corpus_path = tmp_path / "legit.jsonl"
    _legit_corpus_manifest(corpus_path)
    out = tmp_path / "gen"
    with mock.patch("phishevade.cli.load_corpus") as load:
        assert run(["gen-fixtures", "--corpus", str(corpus_path),
                    "--model", str(model_path), *argv, "--out", str(out)]) == 2
    assert not load.called
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[-1].split("=")[0] in err


# -- report -------------------------------------------------------------------------

def test_report_empty_dir(tmp_path, capsys):
    empty = tmp_path / "results"
    empty.mkdir()
    assert run(["report", str(empty)]) == 0
    assert "Score" in capsys.readouterr().out


def test_report_aggregation_cross_checked(workdir, tmp_path, capsys):
    results = tmp_path / "results"
    for bucket, seed in suite_seed_pages(per_bucket=1):
        seed_path = tmp_path / f"s{bucket[1:4]}.html"
        seed_path.write_text(serialize(seed))
        run(["attack", str(seed_path), "--model", workdir["model"],
             "--level", "white", "--url", seed.source_url,
             "--out", str(results)])
    capsys.readouterr()
    csv_path = tmp_path / "table.csv"
    assert run(["report", str(results), "--csv", str(csv_path)]) == 0
    capsys.readouterr()

    # independent aggregation straight from the report files
    rows = []
    for name in os.listdir(results):
        if name.endswith(".json"):
            rows.append(json.loads((results / name).read_text()))
    by_bucket = {}
    for doc in rows:
        initial = doc["steps"][0]["score"]
        for label, lo, hi in [("[0.5,0.6)", .5, .6), ("[0.6,0.7)", .6, .7),
                              ("[0.7,0.8)", .7, .8), ("[0.8,0.9)", .8, .9),
                              ("[0.9,1.0)", .9, 1.0)]:
            if lo <= initial < hi:
                by_bucket.setdefault(label, []).append(doc)
    with open(csv_path) as fh:
        table = {row["bucket"]: row for row in csv.DictReader(fh)}
    assert set(table) == set(by_bucket)
    for label, docs in by_bucket.items():
        assert int(table[label]["count"]) == len(docs)
        mean_feats = sum(d["mutated_features"] for d in docs) / len(docs)
        assert float(table[label]["mean_features"]) == pytest.approx(mean_feats)


def test_report_reads_a_missing_success_as_false(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    doc = {"steps": [{"op": "initial", "score": 0.55}]}
    (results / "x.report.json").write_text(json.dumps(doc))
    (results / "y.report.json").write_text(json.dumps({**doc, "success": True}))
    csv_path = tmp_path / "table.csv"
    assert run(["report", str(results), "--csv", str(csv_path)]) == 0
    with open(csv_path) as fh:
        (row,) = csv.DictReader(fh)
    assert (row["count"], row["succeeded"]) == ("2", "1")


def test_report_compare_two_directories(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    doc = {"success": True, "steps": [{"op": "initial", "score": 0.55}],
           "mutated_features": 2, "mutated_rules": 3, "queries": 4,
           "additions": 10}
    (a / "x.report.json").write_text(json.dumps(doc))
    doc["additions"] = 30
    (b / "x.report.json").write_text(json.dumps(doc))
    assert run(["report", str(a), "--compare", str(b)]) == 0
    out = capsys.readouterr().out
    assert "12.0" in out and "32.0" in out   # features + additions per side
