"""Workbench for rule-based phishing classifiers: evasion attacks,
hashed-feature collision inference, and a layered similarity defense.

The Pelican names load ``pelican`` on first use, so that importing the
package for anything else does not pay for it.  Pelican itself loads numpy
only at its first full comparison, and SciPy at its first assignment.
"""

from .attacks import (
    AttackResult,
    Knowledge,
    black_box,
    black_knowledge,
    grey_box,
    grey_knowledge,
    influence_feature,
    influence_rule,
    run_attack,
    white_box,
    white_knowledge,
)
from .classifier import (
    ClassificationRule,
    Classifier,
    ScoreOracle,
    find_single_rules,
    find_subset_rules,
    load_model,
    logistic,
    partition_rules,
    prune,
    raw_score,
    rule_hit,
    save_model,
    score,
)
from .collision import (
    Corpus,
    CorpusPage,
    InversionReport,
    harvest_candidates,
    infer_rules,
    invert_hashes,
    load_corpus,
)
from .dom import DomNode, DomTree, bfs_layers, parse_html, serialize, visible_projection
from .features import (
    Feature,
    extract_all_features,
    extract_page_features,
    extract_url_features,
    hash_feature,
)
from .mutation import (
    ElementSpec,
    MutationPlan,
    NodeOp,
    add_invisible_element,
    apply,
    harvest_addition_pool,
    modify_attribute,
    modify_text,
    plan_add_rule,
    plan_delete_feature,
    preservation_check,
)

_PELICAN_NAMES = frozenset({
    "PhishStore", "Verdict", "pipeline", "signature_of",
    "tree_similarity_baseline", "tree_similarity_pelican",
})

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PELICAN_NAMES:
        from . import pelican
        return getattr(pelican, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
