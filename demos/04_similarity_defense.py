"""Detect crafted pages by layered DOM similarity instead of re-classifying.

Shows why the personalized (asymmetric) similarity resists the dilution
trick that sinks the symmetric baseline: an attacker deleting a frequency
feature must add hundreds of invisible nodes, which floods the baseline's
union denominators but cannot touch ratios normalized by the stored
phishing tree.  Ends with the whitelist / store / classifier pipeline.
"""

from phishevade import (
    PhishStore,
    ScoreOracle,
    grey_knowledge,
    parse_html,
    pipeline,
    run_attack,
    tree_similarity_baseline,
    tree_similarity_pelican,
)
from phishevade.classifier import ClassificationRule, Classifier

# ten all-https links make the secure-links frequency 1.0
SEED = "<html>" + "".join(
    f'<a href="https://dilute.test/s{i}">x</a>' for i in range(10)) + "</html>"

model = Classifier(bias=-0.1, rules=(
    ClassificationRule("p", frozenset({"PageSecureLinksFreq"}), 2.0),))

seed = parse_html(SEED, "http://dilute.test/page")
oracle = ScoreOracle(model)
result = run_attack(grey_knowledge([(r.id, r.features) for r in model.rules],
                                   oracle), seed)
print(f"grey-box attack: {result.status}, "
      f"score {result.trajectory[0].score:.3f} -> {result.trajectory[-1].score:.3f}")
print("the deletion diluted the link ratio by adding invisible internal links\n")

baseline = tree_similarity_baseline(seed, result.final_page)
personalized = tree_similarity_pelican(seed, result.final_page)
print(f"baseline similarity       seed vs crafted: {baseline:.4f}")
print(f"personalized similarity   seed vs crafted: {personalized:.4f}")
print("the crafted page hides from the symmetric measure but not from the "
      "asymmetric one\n")

store = PhishStore(k=50, h_hours=24)
oracle = ScoreOracle(model)
verdicts = []
verdicts.append(("seed first seen",
                 pipeline(seed.source_url, seed, set(), set(), store, oracle,
                          now=100.0)))
verdicts.append(("crafted page next",
                 pipeline(result.final_page.source_url, result.final_page,
                          set(), set(), store, oracle, now=200.0)))
verdicts.append(("whitelisted url",
                 pipeline("https://trusted.example.org/", seed,
                          {"https://trusted.example.org/"}, set(), store,
                          oracle, now=300.0)))
for label, verdict in verdicts:
    detail = "" if verdict.similarity is None else \
        f" (similarity {verdict.similarity:.3f} vs store entry {verdict.matched_entry})"
    print(f"{label:18s} -> {verdict.label}{detail}")
print(f"classifier queries consumed by the pipeline: {oracle.query_count}")
